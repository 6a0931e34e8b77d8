//! The crash-safety contract of the streaming ingestion path (DESIGN.md
//! §5g): chunking, thread budget and kill schedule are pure
//! performance/availability knobs.
//!
//! 1. **Chunking invariance.** Chunk sizes {1, 7, whole-stream} × thread
//!    budgets {1, 8} × fault plans {none, aggressive} all reproduce the
//!    uninterrupted batch pipeline's fingerprint *and* degradation report
//!    (timings zeroed), with checkpointing off and on.
//! 2. **Kill-anywhere resume.** Every kill site of a checkpointed run —
//!    chunk boundaries, stage boundaries, every phase of every blob write
//!    (fresh chunk blobs write directly at their final name, so mid-write
//!    kills leave a *torn final-name* file; replacing writes keep the
//!    tmp→rename dance), and the directory fsync after each manifest
//!    rename — is swept: kill there, resume on the same directory, and
//!    the final outputs must be bit-identical to batch. Also pinned: a
//!    double-kill schedule (two crashes in one logical run), an explicit
//!    post-commit `:dirsync` kill, and that resume actually consumes
//!    durable chunks rather than recomputing them.
//! 3. **Corruption matrix.** A truncated blob, a bit-flipped blob, a
//!    version-bumped manifest and a mismatched world seed each refuse
//!    resume with the precise typed error — and leave every byte of the
//!    checkpoint directory untouched.

use std::collections::HashMap;
use std::fs;
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig, StreamError};
use xborder::{World, WorldConfig};
use xborder_checkpoint::CheckpointError;
use xborder_faults::{DegradationReport, FaultPlan, KillSwitch, StageTimings};

/// FNV-fold over every output surface (mirrors tests/parallel_determinism.rs).
#[derive(Debug, PartialEq, Clone)]
struct Fingerprint {
    requests: usize,
    visits: usize,
    abp: u64,
    semi: u64,
    trackers: usize,
    added: usize,
    rounds: (usize, usize, usize),
    ip_hash: u64,
    ipmap_hash: u64,
    maxmind_hash: u64,
    ipapi_hash: u64,
}

fn fingerprint(out: &StudyOutputs) -> Fingerprint {
    let fold = |h: u64, bytes: &str| {
        bytes
            .bytes()
            .fold(h, |h, b| h.wrapping_mul(1_099_511_628_211).wrapping_add(b as u64))
    };
    let mut ips: Vec<IpAddr> = out.tracker_ips.ips.keys().copied().collect();
    ips.sort();
    let mut ip_hash = 0u64;
    let mut est = [0u64; 3];
    for ip in &ips {
        ip_hash = fold(ip_hash, &ip.to_string());
        for (slot, map) in est.iter_mut().zip([
            &out.ipmap_estimates,
            &out.maxmind_estimates,
            &out.ipapi_estimates,
        ]) {
            if let Some(e) = map.get(ip) {
                *slot = fold(*slot, e.country.as_str());
            } else {
                *slot = fold(*slot, "-");
            }
        }
    }
    Fingerprint {
        requests: out.dataset.requests.len(),
        visits: out.dataset.visits.len(),
        abp: out.classification.abp.n_total_requests as u64,
        semi: out.classification.semi.n_total_requests as u64,
        trackers: out.tracker_ips.len(),
        added: out.completion.n_added,
        rounds: (
            out.classification.propagation_rounds,
            out.classification.stage2_rounds,
            out.classification.stage3_rounds,
        ),
        ip_hash,
        ipmap_hash: est[0],
        maxmind_hash: est[1],
        ipapi_hash: est[2],
    }
}

/// Small world (mirrors fault_injection.rs / parallel_determinism.rs) so
/// the kill-site sweep stays fast.
fn tiny_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.web.n_publishers = 60;
    cfg.web.n_adtech_orgs = 20;
    cfg.web.n_clean_orgs = 10;
    cfg.study.population.n_users = 10;
    cfg.study.visits_per_user_mean = 6.0;
    cfg.ipmap.total_probes = 300;
    cfg.ipmap.probes_per_target = 12;
    cfg.ipmap.samples_per_probe = 2;
    cfg.ipmap.landmarks = 12;
    cfg
}

fn run_batch(cfg: WorldConfig, plan: &FaultPlan) -> (Fingerprint, DegradationReport) {
    let mut world = World::build(cfg);
    let (out, mut report) = run_extension_pipeline_degraded(&mut world, plan);
    report.timings = StageTimings::default();
    (fingerprint(&out), report)
}

fn run_streaming(
    cfg: WorldConfig,
    plan: &FaultPlan,
    stream: &StreamConfig,
    kill: &KillSwitch,
) -> Result<(Fingerprint, DegradationReport), StreamError> {
    let mut world = World::build(cfg);
    let (out, mut report) = run_extension_pipeline_streaming(&mut world, plan, stream, kill)?;
    report.timings = StageTimings::default();
    Ok((fingerprint(&out), report))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xborder-stream-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn chunking_is_invisible_in_output() {
    let seed = 11u64;
    for (plan_ix, plan) in [FaultPlan::none(), FaultPlan::aggressive(seed)]
        .into_iter()
        .enumerate()
    {
        let (batch_fp, batch_report) = run_batch(tiny_config(seed).with_threads(1), &plan);
        // n_users is 10, so 16 is a whole-stream chunk.
        for chunk_users in [1usize, 7, 16] {
            for threads in [1usize, 8] {
                let kill = KillSwitch::none();
                let (fp, report) = run_streaming(
                    tiny_config(seed).with_threads(threads),
                    &plan,
                    &StreamConfig::in_memory(chunk_users),
                    &kill,
                )
                .expect("un-killed streaming run succeeds");
                assert_eq!(
                    fp, batch_fp,
                    "outputs drifted at chunk {chunk_users}, threads {threads}, plan {plan:?}"
                );
                assert_eq!(
                    report, batch_report,
                    "report drifted at chunk {chunk_users}, threads {threads}"
                );
            }
        }
        // Checkpointing on changes IO, never outputs.
        let dir = tmp_dir(&format!("inv-{plan_ix}"));
        let (fp, report) = run_streaming(
            tiny_config(seed).with_threads(1),
            &plan,
            &StreamConfig::durable(4, &dir),
            &KillSwitch::none(),
        )
        .expect("durable streaming run succeeds");
        assert_eq!(fp, batch_fp);
        assert_eq!(report, batch_report);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Kill at every site of a durable run (sweep), resume, and pin equality
/// against batch. Covers chunk boundaries, both manifest+blob writes of
/// every chunk (pre / mid-write torn tmp / durable-unrenamed / post), the
/// completion stage blob, and the stage boundaries.
#[test]
fn kill_anywhere_resume_matches_batch() {
    let seed = 11u64;
    let plan = FaultPlan::aggressive(seed);
    let (batch_fp, batch_report) = run_batch(tiny_config(seed).with_threads(1), &plan);

    for (threads, chunk_users, stride) in [(1usize, 3usize, 1u64), (8, 4, 2)] {
        // Dry run to learn how many kill sites this configuration visits.
        let probe = KillSwitch::none();
        let dir = tmp_dir(&format!("sweep-dry-{threads}-{chunk_users}"));
        let stream = StreamConfig::durable(chunk_users, &dir);
        let (fp, _) = run_streaming(
            tiny_config(seed).with_threads(threads),
            &plan,
            &stream,
            &probe,
        )
        .expect("dry run succeeds");
        assert_eq!(fp, batch_fp, "un-killed durable run must match batch");
        let _ = fs::remove_dir_all(&dir);
        let n_sites = probe.sites_visited();
        assert!(
            n_sites > 20,
            "expected chunk+stage+write sites, saw {n_sites}"
        );

        let mut site = 0u64;
        while site < n_sites {
            let dir = tmp_dir(&format!("sweep-{threads}-{chunk_users}-{site}"));
            let stream = StreamConfig::durable(chunk_users, &dir);
            let kill = KillSwitch::at_site(site);
            let killed = run_streaming(
                tiny_config(seed).with_threads(threads),
                &plan,
                &stream,
                &kill,
            );
            match killed {
                Err(StreamError::Killed { .. }) => {}
                other => panic!("site {site}: expected a kill, got {other:?}"),
            }
            // The crash happened; a fresh run on the same directory must
            // resume from the last durable chunk and land on batch.
            let (fp, report) = run_streaming(
                tiny_config(seed).with_threads(threads),
                &plan,
                &stream,
                &KillSwitch::none(),
            )
            .unwrap_or_else(|e| panic!("resume after kill at site {site} failed: {e}"));
            assert_eq!(fp, batch_fp, "outputs drifted after kill at site {site}");
            assert_eq!(report, batch_report, "report drifted after kill at site {site}");
            let _ = fs::remove_dir_all(&dir);
            site += stride;
        }
    }
}

/// The directory-entry fsync after the manifest rename is its own kill
/// site, *after* the commit point: a crash there must leave the chunk
/// durable, and the resume must consume it and land on batch.
#[test]
fn dirsync_kill_lands_after_the_commit_point() {
    let seed = 7u64;
    let plan = FaultPlan::none();
    let dir = tmp_dir("dirsync");
    let stream = StreamConfig::durable(3, &dir);

    let kill = KillSwitch::at_label("chunk-1:manifest:dirsync");
    let r = run_streaming(tiny_config(seed), &plan, &stream, &kill);
    assert!(matches!(r, Err(StreamError::Killed { .. })), "{r:?}");
    let manifest = fs::read_to_string(dir.join("manifest.json")).expect("manifest committed");
    assert_eq!(
        manifest.matches("chunk-").count(),
        2,
        "chunk 1 committed before the dirsync site fired:\n{manifest}"
    );

    let (batch_fp, batch_report) = run_batch(tiny_config(seed), &plan);
    let (fp, report) = run_streaming(tiny_config(seed), &plan, &stream, &KillSwitch::none())
        .expect("resume succeeds");
    assert_eq!(fp, batch_fp);
    assert_eq!(report, batch_report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn double_kill_schedule_still_converges() {
    let seed = 23u64;
    let plan = FaultPlan::aggressive(seed);
    let (batch_fp, batch_report) = run_batch(tiny_config(seed).with_threads(8), &plan);
    let dir = tmp_dir("double-kill");
    let stream = StreamConfig::durable(2, &dir);

    // First crash early (inside chunk 1's blob write), second crash later
    // (inside the completion stage write), then a clean resume.
    let k1 = KillSwitch::at_label("chunk-1:blob:mid");
    let r1 = run_streaming(tiny_config(seed).with_threads(8), &plan, &stream, &k1);
    assert!(matches!(r1, Err(StreamError::Killed { .. })), "{r1:?}");

    let k2 = KillSwitch::at_label("stage-completion:blob:durable");
    let r2 = run_streaming(tiny_config(seed).with_threads(8), &plan, &stream, &k2);
    assert!(matches!(r2, Err(StreamError::Killed { .. })), "{r2:?}");

    let (fp, report) = run_streaming(
        tiny_config(seed).with_threads(8),
        &plan,
        &stream,
        &KillSwitch::none(),
    )
    .expect("final resume succeeds");
    assert_eq!(fp, batch_fp);
    assert_eq!(report, batch_report);
    let _ = fs::remove_dir_all(&dir);
}

/// Resume must *use* the durable chunks, not redo them: after a mid-run
/// kill the manifest holds the completed chunks, and the resumed run
/// finishes the remainder on the same directory.
#[test]
fn resume_consumes_durable_chunks() {
    let seed = 7u64;
    let plan = FaultPlan::none();
    let dir = tmp_dir("consume");
    let stream = StreamConfig::durable(3, &dir);

    // Kill while chunk 2's blob is mid-write: chunks 0 and 1 are durable.
    // Fresh chunk blobs write directly at their final name (the manifest
    // rename is the sole commit point), so the crash leaves a torn file
    // at `chunk-00002.xbc` that the manifest does not reference — the
    // resume overwrites it by re-executing the chunk.
    let kill = KillSwitch::at_label("chunk-2:blob:mid");
    let r = run_streaming(tiny_config(seed), &plan, &stream, &kill);
    assert!(matches!(r, Err(StreamError::Killed { .. })), "{r:?}");
    let manifest = fs::read_to_string(dir.join("manifest.json")).expect("manifest committed");
    assert_eq!(
        manifest.matches("chunk-").count(),
        2,
        "exactly chunks 0 and 1 should be durable:\n{manifest}"
    );
    assert!(
        dir.join("chunk-00002.xbc").exists(),
        "mid-write kill should leave a torn file at the final name"
    );
    assert!(
        !manifest.contains("chunk-00002.xbc"),
        "the torn chunk must not be referenced:\n{manifest}"
    );

    let (batch_fp, _) = run_batch(tiny_config(seed), &plan);
    let (fp, _) = run_streaming(tiny_config(seed), &plan, &stream, &KillSwitch::none())
        .expect("resume succeeds");
    assert_eq!(fp, batch_fp);
    // The finished run committed all four chunks (10 users / 3 per chunk)
    // and the completion stage.
    let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert_eq!(manifest.matches("chunk-").count(), 4, "{manifest}");
    assert!(manifest.contains("stage-completion.xbc"), "{manifest}");
    let _ = fs::remove_dir_all(&dir);
}

/// Byte-for-byte snapshot of a checkpoint directory.
fn snapshot(dir: &Path) -> HashMap<String, Vec<u8>> {
    let mut out = HashMap::new();
    for entry in fs::read_dir(dir).expect("checkpoint dir readable") {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            fs::read(entry.path()).unwrap(),
        );
    }
    out
}

#[test]
fn corruption_matrix_refuses_with_typed_errors_and_leaves_dir_untouched() {
    let seed = 11u64;
    let plan = FaultPlan::none();
    let cfg = || tiny_config(seed);
    let dir = tmp_dir("corrupt");
    let stream = StreamConfig::durable(3, &dir);
    run_streaming(cfg(), &plan, &stream, &KillSwitch::none()).expect("seed checkpoint");

    let chunk1 = dir.join("chunk-00001.xbc");
    let manifest_path = dir.join("manifest.json");
    let pristine_chunk = fs::read(&chunk1).unwrap();
    let pristine_manifest = fs::read_to_string(&manifest_path).unwrap();

    // --- Truncated blob → Truncated (length checked before checksum). ---
    fs::write(&chunk1, &pristine_chunk[..pristine_chunk.len() - 7]).unwrap();
    let before = snapshot(&dir);
    match run_streaming(cfg(), &plan, &stream, &KillSwitch::none()) {
        Err(StreamError::Checkpoint(CheckpointError::Truncated { needed, have, .. })) => {
            assert_eq!(needed, pristine_chunk.len() as u64);
            assert_eq!(have, pristine_chunk.len() as u64 - 7);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert_eq!(snapshot(&dir), before, "refusal must not write to the dir");

    // --- Same-length bit flip → ChecksumMismatch. ---
    let mut flipped = pristine_chunk.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    fs::write(&chunk1, &flipped).unwrap();
    let before = snapshot(&dir);
    match run_streaming(cfg(), &plan, &stream, &KillSwitch::none()) {
        Err(StreamError::Checkpoint(CheckpointError::ChecksumMismatch { .. })) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_eq!(snapshot(&dir), before, "refusal must not write to the dir");
    fs::write(&chunk1, &pristine_chunk).unwrap();

    // --- Manifest from a future format version → VersionMismatch. ---
    let needle = format!("\"version\": {}", xborder_checkpoint::CHECKPOINT_VERSION);
    let bumped = pristine_manifest.replacen(&needle, "\"version\": 99", 1);
    assert_ne!(bumped, pristine_manifest, "manifest version field not found");
    fs::write(&manifest_path, &bumped).unwrap();
    let before = snapshot(&dir);
    match run_streaming(cfg(), &plan, &stream, &KillSwitch::none()) {
        Err(StreamError::Checkpoint(CheckpointError::VersionMismatch {
            found: 99,
            expected,
        })) => assert_eq!(expected, xborder_checkpoint::CHECKPOINT_VERSION),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert_eq!(snapshot(&dir), before, "refusal must not write to the dir");
    fs::write(&manifest_path, &pristine_manifest).unwrap();

    // --- A different world (seed) on the same directory → SeedMismatch. ---
    let before = snapshot(&dir);
    match run_streaming(tiny_config(seed + 1), &plan, &stream, &KillSwitch::none()) {
        Err(StreamError::Checkpoint(CheckpointError::SeedMismatch { found, expected })) => {
            assert_ne!(found, expected);
        }
        other => panic!("expected SeedMismatch, got {other:?}"),
    }
    assert_eq!(snapshot(&dir), before, "refusal must not write to the dir");

    // And the untouched directory still resumes cleanly afterwards.
    run_streaming(cfg(), &plan, &stream, &KillSwitch::none()).expect("pristine dir still valid");
    let _ = fs::remove_dir_all(&dir);
}

/// Kill a durable run mid-stream, after a couple of chunks are durable,
/// then resume on the same checkpoint directory: replayed chunks join the
/// freshly simulated ones and the outputs land on batch.
#[test]
fn kill_mid_stream_and_resume_matches_batch() {
    let seed = 11u64;
    let plan = FaultPlan::aggressive(seed);
    let (batch_fp, batch_report) = run_batch(tiny_config(seed).with_threads(1), &plan);

    let ckpt = tmp_dir("mid-kill-ckpt");
    let stream = StreamConfig::durable(3, &ckpt);
    let kill = KillSwitch::at_label("chunk-2:begin");
    match run_streaming(tiny_config(seed).with_threads(1), &plan, &stream, &kill) {
        Err(StreamError::Killed { .. }) => {}
        Err(other) => panic!("expected a kill, got {other:?}"),
        Ok(_) => panic!("expected a kill, run completed"),
    }

    let (fp, report) = run_streaming(
        tiny_config(seed).with_threads(1),
        &plan,
        &stream,
        &KillSwitch::none(),
    )
    .expect("resume succeeds");
    assert_eq!(fp, batch_fp, "outputs drifted after resume");
    assert_eq!(report, batch_report);
    let _ = fs::remove_dir_all(&ckpt);
}
