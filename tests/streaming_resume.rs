//! The crash-safety contract of the streaming ingestion path (DESIGN.md
//! §5g): chunking, thread budget and kill schedule are pure
//! performance/availability knobs.
//!
//! 1. **Chunking invariance.** Chunk sizes {1, 7, whole-stream} × thread
//!    budgets {1, 8} × fault plans {none, aggressive} all reproduce the
//!    uninterrupted batch pipeline's fingerprint *and* degradation report
//!    (profile zeroed), with checkpointing off and on.
//! 2. **Kill-anywhere resume.** Every kill site of a checkpointed run —
//!    chunk boundaries, stage boundaries, and the three phases of every
//!    journal append (`:pre`, `:mid` with half the record on disk as a
//!    torn tail, `:durable` after the commit point) — is swept against the
//!    run's derived site list: kill there, resume on the same directory,
//!    and the final outputs must be bit-identical to batch. Also pinned: a
//!    double-kill schedule (two crashes in one logical run), a kill at
//!    `:durable` that must leave its chunk committed, and that resume
//!    actually consumes durable chunks rather than recomputing them.
//! 3. **Corruption matrix.** A journal truncated anywhere is a torn tail:
//!    resume drops it and lands on batch. A same-length flip in a chunk's
//!    payload, a flipped length in its record head, a version-bumped
//!    journal header and a mismatched world seed each refuse resume with
//!    the precise typed error — and leave every byte of the checkpoint
//!    directory untouched.

use std::collections::HashMap;
use std::fs;
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::stream::{
    config_fingerprint, run_extension_pipeline_streaming, StreamConfig, StreamError,
};
use xborder::{World, WorldConfig};
use xborder_checkpoint::{CheckpointError, CheckpointStore, CHECKPOINT_VERSION, JOURNAL};
use xborder_faults::{DegradationReport, FaultPlan, KillSwitch, Profile};

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
    report.profile = Profile::default();
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
    report.profile = Profile::default();
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

/// The kill sites one uninterrupted durable run of `n_chunks` chunks
/// visits, in order: per chunk its boundary, the three phases of its
/// journal append and its commit; then the stage boundaries around the
/// completion stage's append.
fn durable_run_sites(n_chunks: usize) -> Vec<String> {
    let append = |record: &str| ["pre", "mid", "durable"].map(|p| format!("{record}:blob:{p}"));
    let mut sites = Vec::new();
    for i in 0..n_chunks {
        sites.push(format!("chunk-{i}:begin"));
        sites.extend(append(&format!("chunk-{i}")));
        sites.push(format!("chunk-{i}:committed"));
    }
    sites.extend(["stage:study:done", "stage:classify:done"].map(String::from));
    sites.extend(append("stage-completion"));
    sites.extend(["stage:completion:done", "stage:geolocate:done"].map(String::from));
    sites
}

/// Kill at every site of a durable run (sweep), resume, and pin equality
/// against batch. Covers chunk boundaries, the three phases of every
/// chunk's journal append, the completion stage's append, and the stage
/// boundaries; each kill must land on the site the derived list names.
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
        // tiny_config has 10 users.
        let sites = durable_run_sites(10usize.div_ceil(chunk_users));
        assert_eq!(n_sites, sites.len() as u64, "{sites:?}");

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
                Err(StreamError::Killed { label, .. }) => {
                    assert_eq!(label, sites[site as usize], "site {site}")
                }
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

/// The `:durable` site of an append sits *after* the commit point (the
/// journal has no per-commit directory sync; this site replaces it): a
/// crash there must leave the chunk durable, and the resume must consume
/// it and land on batch.
#[test]
fn dirsync_kill_lands_after_the_commit_point() {
    let seed = 7u64;
    let plan = FaultPlan::none();
    let dir = tmp_dir("dirsync");
    let stream = StreamConfig::durable(3, &dir);

    let kill = KillSwitch::at_label("chunk-1:blob:durable");
    let r = run_streaming(tiny_config(seed), &plan, &stream, &kill);
    assert!(matches!(r, Err(StreamError::Killed { .. })), "{r:?}");
    assert_eq!(
        open_store(&dir, seed).chunks().len(),
        2,
        "chunk 1 committed before the durable site fired"
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

/// Opens the checkpoint journal `dir` holds for `tiny_config(seed)` without
/// a fault plan.
fn open_store(dir: &Path, seed: u64) -> CheckpointStore {
    let fingerprint = config_fingerprint(&tiny_config(seed), &FaultPlan::none()).unwrap();
    CheckpointStore::open(dir, fingerprint).expect("journal opens")
}

/// The journal's length on disk.
fn journal_len(dir: &Path) -> u64 {
    fs::metadata(dir.join(JOURNAL)).expect("journal exists").len()
}

/// Resume must *use* the durable chunks, not redo them: after a mid-run
/// kill the journal holds the completed chunks, and the resumed run
/// finishes the remainder on the same directory.
#[test]
fn resume_consumes_durable_chunks() {
    let seed = 7u64;
    let plan = FaultPlan::none();
    let dir = tmp_dir("consume");
    let stream = StreamConfig::durable(3, &dir);

    // Kill while chunk 2's record is mid-write: chunks 0 and 1 are
    // durable, and half of chunk 2's record sits past the committed end as
    // a torn tail. The resume truncates it and re-executes the chunk.
    let kill = KillSwitch::at_label("chunk-2:blob:mid");
    let r = run_streaming(tiny_config(seed), &plan, &stream, &kill);
    assert!(matches!(r, Err(StreamError::Killed { .. })), "{r:?}");
    let store = open_store(&dir, seed);
    assert_eq!(store.chunks().len(), 2, "exactly chunks 0 and 1 should be durable");
    let committed = store.chunks()[0].offset + store.records_len();
    assert!(
        journal_len(&dir) > committed,
        "a mid-write kill should leave a torn tail past the committed end"
    );
    drop(store);

    let (batch_fp, _) = run_batch(tiny_config(seed), &plan);
    let (fp, _) = run_streaming(tiny_config(seed), &plan, &stream, &KillSwitch::none())
        .expect("resume succeeds");
    assert_eq!(fp, batch_fp);
    // The finished run committed all four chunks (10 users / 3 per chunk)
    // and the completion stage, over the truncated tail, in one file.
    let store = open_store(&dir, seed);
    assert_eq!(store.chunks().len(), 4);
    assert!(store.load_stage("completion").unwrap().is_some());
    assert_eq!(journal_len(&dir), store.chunks()[0].offset + store.records_len());
    assert_eq!(snapshot(&dir).len(), 1, "the journal is the only file");
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

/// Replaces the journal with `bytes` as a fresh file: rewriting it in
/// place through a truncation makes ext4 flush it on close.
fn put_journal(path: &Path, bytes: &[u8]) {
    let _ = fs::remove_file(path);
    fs::write(path, bytes).unwrap();
}

#[test]
fn corruption_matrix_refuses_with_typed_errors_and_leaves_dir_untouched() {
    let seed = 11u64;
    let plan = FaultPlan::none();
    let cfg = || tiny_config(seed);
    let dir = tmp_dir("corrupt");
    let stream = StreamConfig::durable(3, &dir);
    let (batch_fp, batch_report) = run_batch(cfg(), &plan);
    run_streaming(cfg(), &plan, &stream, &KillSwitch::none()).expect("seed checkpoint");

    let journal = dir.join(JOURNAL);
    let pristine = fs::read(&journal).unwrap();
    let chunk1 = open_store(&dir, seed).chunks()[1].clone();
    let (at, end) = (chunk1.offset as usize, (chunk1.offset + chunk1.bytes) as usize);

    // --- Truncation anywhere is a torn tail: resume lands on batch. ---
    // Inside the header, inside chunk 1's head, its payload and its
    // trailer, and one byte short of the end (inside the stage record).
    for cut in [10, at + 20, (at + end) / 2, end - 3, pristine.len() - 1] {
        put_journal(&journal, &pristine[..cut]);
        let (fp, report) = run_streaming(cfg(), &plan, &stream, &KillSwitch::none())
            .unwrap_or_else(|e| panic!("resume after a cut at byte {cut} failed: {e}"));
        assert_eq!(fp, batch_fp, "cut at byte {cut}");
        assert_eq!(report, batch_report, "cut at byte {cut}");
    }

    // Each refusal below must name its typed error and write nothing.
    let refuse = |damaged: &[u8], cfg: WorldConfig| -> CheckpointError {
        put_journal(&journal, damaged);
        let before = snapshot(&dir);
        let err = match run_streaming(cfg, &plan, &stream, &KillSwitch::none()) {
            Err(StreamError::Checkpoint(e)) => e,
            other => panic!("expected a typed refusal, got {other:?}"),
        };
        assert_eq!(snapshot(&dir), before, "refusal must not write to the dir: {err}");
        err
    };
    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut j = pristine.clone();
        edit(&mut j);
        j
    };

    // --- Same-length flip in chunk 1's payload → ChecksumMismatch. ---
    let err = refuse(&edited(&|j| j[(at + end) / 2] ^= 0x20), cfg());
    assert!(matches!(err, CheckpointError::ChecksumMismatch { .. }), "{err:?}");

    // --- A flipped length in chunk 1's head → Corrupt, not a torn tail.
    // The payload length follows magic (4), version (4) and kind (1). ---
    let err = refuse(&edited(&|j| j[at + 9] ^= 0x01), cfg());
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");

    // --- A journal header from a future format → VersionMismatch. ---
    let err = refuse(&edited(&|j| j[4..8].copy_from_slice(&99u32.to_le_bytes())), cfg());
    assert_eq!(
        err,
        CheckpointError::VersionMismatch { found: 99, expected: CHECKPOINT_VERSION }
    );

    // --- A different world (seed) on the same directory → SeedMismatch. ---
    let err = refuse(&pristine, tiny_config(seed + 1));
    assert!(
        matches!(err, CheckpointError::SeedMismatch { found, expected } if found != expected),
        "{err:?}"
    );

    // And the untouched directory still resumes cleanly afterwards.
    let (fp, _) = run_streaming(cfg(), &plan, &stream, &KillSwitch::none())
        .expect("pristine dir still valid");
    assert_eq!(fp, batch_fp);
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
