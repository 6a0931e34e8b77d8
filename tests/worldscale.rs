//! The out-of-core contract of the worldscale driver (DESIGN.md §5j):
//! segment size, thread budget and kill schedule are pure
//! performance/availability knobs of a pipeline that never materializes
//! the population or the concatenated log.
//!
//! 1. **Fold equality.** Every aggregate the out-of-core fold produces —
//!    dataset stats, visit/request digests, Table-2 counts, tracker set,
//!    completion, all three estimate maps, the EU28 breakdown — equals
//!    the materialized batch pipeline on the same segmented config.
//! 2. **Knob invariance.** Segment sizes {1, 7, whole} × thread budgets
//!    {1, 8} × fault plans {none, aggressive} all land on one
//!    [`ScaleOutputs::fingerprint`], at 10 users and on a 600-user
//!    `WorldConfig::large` world.
//! 3. **Kill-anywhere resume.** Every kill site of a durable run (chunk
//!    boundaries, blob write phases, stage boundaries) is swept: kill,
//!    resume on the same directory, fingerprints bit-identical to the
//!    uninterrupted run.
//! 4. **Replay refuses corrupt chunks.** A checksum-valid chunk carrying
//!    an unknown label tag, a visit or request of a user outside its
//!    range, a publisher or host id outside the world's tables, an
//!    unsorted, repeated or out-of-range IPv6 side row or an inflated
//!    classifier-delta total is a typed error under both the
//!    worldscale and the streaming driver, and the directory stays
//!    byte-identical.

use std::collections::HashMap;
use std::fs;
use std::net::{IpAddr, Ipv6Addr};
use std::path::{Path, PathBuf};
use xborder::confine::region_breakdown_eu28;
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::stream::{
    config_fingerprint, run_extension_pipeline_streaming, StreamConfig, StreamError,
};
use xborder::worldscale::{
    dataset_digests, run_worldscale_pipeline, ScaleConfig, ScaleOutputs,
};
use xborder::{World, WorldConfig};
use xborder_browser::{
    Referrer, RequestId, SegmentBlock, StudyChunk, UserId, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointStore};
use xborder_classify::Classification;
use xborder_faults::{DegradationReport, FaultPlan, KillSwitch, Profile};
use xborder_webgraph::url::Scheme;
use xborder_webgraph::{DomainId, PublisherId};

/// Small segmented world (mirrors streaming_resume.rs) so the matrix and
/// the kill-site sweep stay fast.
fn tiny_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.web.n_publishers = 60;
    cfg.web.n_adtech_orgs = 20;
    cfg.web.n_clean_orgs = 10;
    cfg.study.population.n_users = 10;
    cfg.study.population.segmented = true;
    cfg.study.visits_per_user_mean = 6.0;
    cfg.ipmap.total_probes = 300;
    cfg.ipmap.probes_per_target = 12;
    cfg.ipmap.samples_per_probe = 2;
    cfg.ipmap.landmarks = 12;
    cfg
}

fn run_scale(
    cfg: WorldConfig,
    plan: &FaultPlan,
    scale: &ScaleConfig,
    kill: &KillSwitch,
) -> Result<(ScaleOutputs, xborder_faults::DegradationReport), StreamError> {
    let mut world = World::build(cfg);
    let (out, mut report) = run_worldscale_pipeline(&mut world, plan, scale, kill)?;
    report.profile = Profile::default();
    Ok((out, report))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xborder-scale-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Folds the batch pipeline's materialized outputs into the aggregate
/// form, so equality can be pinned fingerprint-to-fingerprint.
fn batch_reference(cfg: WorldConfig, plan: &FaultPlan) -> ScaleOutputs {
    let mut world = World::build(cfg);
    let (out, _) = run_extension_pipeline_degraded(&mut world, plan);
    let labels: Vec<u8> = out
        .classification
        .labels
        .iter()
        .map(|l| match l {
            Classification::AbpTracking => LABEL_ABP,
            Classification::SemiTracking => LABEL_SEMI,
            Classification::Clean => LABEL_CLEAN,
        })
        .collect();
    let (visit_hash, request_hash) =
        dataset_digests(&out.dataset.visits, &out.dataset.requests, &labels);
    let eu28 = region_breakdown_eu28(&out, &out.ipmap_estimates);
    ScaleOutputs {
        n_segments: 0,
        stats: out.dataset.stats(),
        visit_hash,
        request_hash,
        abp: out.classification.abp,
        semi: out.classification.semi,
        stage2_rounds: out.classification.stage2_rounds,
        stage3_rounds: out.classification.stage3_rounds,
        tracker_ips: out.tracker_ips,
        completion: out.completion,
        ipmap_estimates: out.ipmap_estimates,
        maxmind_estimates: out.maxmind_estimates,
        ipapi_estimates: out.ipapi_estimates,
        eu28,
    }
}

#[test]
fn out_of_core_fold_matches_batch_pipeline() {
    let seed = 11u64;
    let plan = FaultPlan::none();
    let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);

    let (scale, _) = run_scale(
        tiny_config(seed).with_threads(1),
        &plan,
        &ScaleConfig::in_memory(3),
        &KillSwitch::none(),
    )
    .expect("out-of-core run succeeds");

    // Component-wise first, for a readable failure...
    assert_eq!(scale.stats, reference.stats);
    assert_eq!(scale.visit_hash, reference.visit_hash, "visit digest drifted");
    assert_eq!(scale.request_hash, reference.request_hash, "request digest drifted");
    assert_eq!(scale.abp, reference.abp);
    assert_eq!(scale.semi, reference.semi);
    assert_eq!(scale.stage2_rounds, reference.stage2_rounds);
    assert_eq!(scale.stage3_rounds, reference.stage3_rounds);
    assert_eq!(scale.tracker_ips.weighted_ips(), reference.tracker_ips.weighted_ips());
    assert_eq!(scale.completion, reference.completion);
    assert_eq!(scale.ipmap_estimates, reference.ipmap_estimates);
    assert_eq!(scale.maxmind_estimates, reference.maxmind_estimates);
    assert_eq!(scale.ipapi_estimates, reference.ipapi_estimates);
    assert_eq!(scale.eu28.total, reference.eu28.total);
    assert_eq!(scale.eu28.counts, reference.eu28.counts);
    // ...then the single canonical digest (covers host sets and windows
    // inside the tracker records too).
    assert_eq!(scale.fingerprint(), reference.fingerprint());
}

#[test]
fn segment_knobs_are_invisible_in_fingerprint() {
    let seed = 11u64;
    for plan in [FaultPlan::none(), FaultPlan::aggressive(seed)] {
        let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);
        let want = reference.fingerprint();
        let batch_report = {
            let mut world = World::build(tiny_config(seed).with_threads(1));
            let (_, mut r) = run_extension_pipeline_degraded(&mut world, &plan);
            r.profile = Profile::default();
            r
        };
        // n_users is 10, so 16 is a whole-stream segment.
        for segment_users in [1usize, 7, 16] {
            for threads in [1usize, 8] {
                let (out, report) = run_scale(
                    tiny_config(seed).with_threads(threads),
                    &plan,
                    &ScaleConfig::in_memory(segment_users),
                    &KillSwitch::none(),
                )
                .expect("matrix run succeeds");
                assert_eq!(
                    out.fingerprint(),
                    want,
                    "fingerprint drifted at segment {segment_users}, threads {threads}, \
                     plan {plan:?}"
                );
                // The degradation counters are knob-invariant too (report
                // equality pins them; profiles were zeroed by run_scale).
                assert_eq!(report, batch_report, "report drifted at segment {segment_users}");
            }
        }
    }
}

/// Kill at every site of a durable run, resume on the same directory,
/// and pin the fingerprint against the uninterrupted run — mid-segment
/// sites included (the blob write phases fire *inside* a segment's
/// commit). Resumed runs rebuild the EU28 tally from replayed chunks.
#[test]
fn kill_anywhere_resume_matches_uninterrupted() {
    let seed = 11u64;
    let plan = FaultPlan::aggressive(seed);
    let reference = batch_reference(tiny_config(seed).with_threads(1), &plan);
    let want = reference.fingerprint();

    // Dry run to learn the kill-site count for this configuration.
    let probe = KillSwitch::none();
    let ckpt = tmp_dir("scale-sweep-dry");
    let scale_cfg = ScaleConfig::durable(3, &ckpt);
    let (out, _) = run_scale(tiny_config(seed), &plan, &scale_cfg, &probe)
        .expect("dry run succeeds");
    assert_eq!(out.fingerprint(), want, "un-killed durable run must match batch");
    let _ = fs::remove_dir_all(&ckpt);
    let n_sites = probe.sites_visited();
    assert!(n_sites > 20, "expected chunk+stage+write sites, saw {n_sites}");

    let mut site = 0u64;
    while site < n_sites {
        let ckpt = tmp_dir(&format!("scale-sweep-{site}"));
        let scale_cfg = ScaleConfig::durable(3, &ckpt);
        let kill = KillSwitch::at_site(site);
        match run_scale(tiny_config(seed), &plan, &scale_cfg, &kill) {
            Err(StreamError::Killed { .. }) => {}
            other => panic!("site {site}: expected a kill, got {other:?}"),
        }
        let (out, _) = run_scale(tiny_config(seed), &plan, &scale_cfg, &KillSwitch::none())
            .unwrap_or_else(|e| panic!("resume after kill at site {site} failed: {e}"));
        assert_eq!(
            out.fingerprint(),
            want,
            "fingerprint drifted after kill at site {site}"
        );
        let _ = fs::remove_dir_all(&ckpt);
        site += 2;
    }
}

/// `WorldConfig::large` worlds stream end to end holding one segment at a
/// time: two segment sizes land on one fingerprint, and the EU28
/// breakdown folded from the ingest-time tally equals the per-flow
/// breakdown of the materialized batch run.
#[test]
fn large_world_streams_with_bounded_resident_segments() {
    let users = 600usize;
    let plan = FaultPlan::none();
    let mk = || WorldConfig::large(29, users).with_threads(1);

    let mut fingerprints = Vec::new();
    let mut eu28 = None;
    for segment_users in [100usize, 600] {
        let (out, _) = run_scale(
            mk(),
            &plan,
            &ScaleConfig::in_memory(segment_users),
            &KillSwitch::none(),
        )
        .expect("large-world run succeeds");
        assert_eq!(out.stats.n_users, users);
        assert_eq!(out.n_segments, users.div_ceil(segment_users));
        assert!(out.stats.n_third_party_requests > 0);
        fingerprints.push(out.fingerprint());
        eu28 = Some(out.eu28);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "segment size changed the fingerprint"
    );

    let mut world = World::build(mk());
    let (batch, _) = run_extension_pipeline_degraded(&mut world, &plan);
    let want = region_breakdown_eu28(&batch, &batch.ipmap_estimates);
    let eu28 = eu28.expect("two runs");
    assert!(
        want.total > 0,
        "the large world has EU28-origin tracking flows"
    );
    assert_eq!(eu28.total, want.total);
    assert_eq!(eu28.counts, want.counts);
}

/// Byte-for-byte snapshot of a checkpoint directory.
fn snapshot(dir: &Path) -> HashMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("checkpoint dir readable")
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

/// Chunks whose framing and checksum are valid but whose rows are wrong
/// must not be folded on replay: an unknown label tag (the folds count
/// every non-clean tag as tracking), a request naming a user outside the
/// chunk's range (the EU28 tally looks users up by id), an id past the
/// world's tables, a dangling referrer row, a URL that is not canonical
/// (a style tag, path or event index past its table, a cache-buster byte
/// outside the token alphabet) or names a service past the world's, and
/// IPv6 side rows that
/// are unsorted, repeated or outside their column (the address lookup
/// binary-searches them) each refuse with typed corruption and write
/// nothing.
#[test]
fn replay_refuses_checksum_valid_corrupt_chunks() {
    let seed = 11u64;
    let plan = FaultPlan::none();
    let fingerprint = config_fingerprint(&tiny_config(seed), &plan).unwrap();

    // A genuine chunk 1 (users 3..6) to tamper with.
    let source = tmp_dir("tamper-source");
    run_scale(
        tiny_config(seed),
        &plan,
        &ScaleConfig::durable(3, &source),
        &KillSwitch::none(),
    )
    .expect("source run succeeds");
    let (entry, payload) = {
        let store = CheckpointStore::open(&source, fingerprint).unwrap();
        let entry = store.chunks()[1].clone();
        let payload = store.load_chunk(&entry).unwrap();
        (entry, payload)
    };
    let _ = fs::remove_dir_all(&source);
    let mut rd = ByteReader::new(&payload);
    let (seg, cls) = (rd.blob().unwrap(), rd.blob().unwrap());
    let (chunk, labels, stage2, stage3) = SegmentBlock::decode_bytes(seg).unwrap().to_chunk();
    assert!(!labels.is_empty(), "chunk 1 has requests");

    let mut bad_tag = labels.clone();
    bad_tag[0] = 9;
    let mut bad_user = chunk.clone();
    bad_user.requests[0].user = UserId(entry.user_end as u32);
    // The first id past the chunk's users or the world's tables, in each
    // column the drivers index by.
    let world = World::build(tiny_config(seed));
    let n_publishers = world.graph.publishers.len() as u32;
    let n_domains = world.graph.domains().len() as u32;
    assert!(!chunk.visits.is_empty() && !chunk.observations.is_empty());
    let tampered = |edit: &dyn Fn(&mut StudyChunk)| {
        let mut c = chunk.clone();
        edit(&mut c);
        c
    };
    let bad_visit_user = tampered(&|c| c.visits[0].user = UserId(entry.user_end as u32));
    let bad_visit_publisher = tampered(&|c| c.visits[0].publisher = PublisherId(n_publishers));
    let bad_request_publisher = tampered(&|c| c.requests[0].publisher = PublisherId(n_publishers));
    let bad_request_host = tampered(&|c| c.requests[0].host = DomainId(n_domains));
    let bad_observation_host = tampered(&|c| c.observations[0].host = DomainId(n_domains));
    let bad_first_party = tampered(&|c| c.requests[0].first_party = DomainId(n_domains));
    let n_requests = chunk.requests.len() as u32;
    let bad_referrer =
        tampered(&|c| c.requests[0].referrer = Referrer::Request(RequestId(n_requests)));
    let encode = |chunk: &StudyChunk, labels: &[u8]| {
        SegmentBlock::from_chunk(
            chunk,
            labels,
            stage2,
            stage3,
            (entry.user_start as u32, entry.user_end as u32),
        )
        .encode_bytes()
    };
    // The URL columns, edited in the encoded block. They follow the
    // 72-byte header, the counters, the visit columns (16 bytes a row) and
    // six request columns (28 bytes a row): one shape byte per row, one
    // index byte per row, the services (u32 LE), then the cache busters.
    let genuine = encode(&chunk, &labels);
    assert_eq!(genuine, seg, "block encoding is deterministic");
    let n = n_requests as usize;
    let shape_at = 72 + 8 * DegradationReport::N_COUNTERS + 16 * chunk.visits.len() + 28 * n;
    let (index_at, service_at, cb_at) = (shape_at + n, shape_at + 2 * n, shape_at + 6 * n);
    let url0 = chunk.requests[0].url.parts();
    assert_eq!(
        genuine[shape_at] & 1,
        (url0.scheme == Scheme::Https) as u8,
        "row 0's shape byte leads the URL columns"
    );
    assert_eq!(genuine[index_at], url0.path_idx | url0.event_idx << 4);
    let args_row = chunk.requests.iter().position(|r| r.has_args()).expect("an args URL");
    assert!(chunk.requests.iter().any(|r| r.url.parts().cb.is_some()), "a cache buster");
    let edit_bytes = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut b = genuine.clone();
        edit(&mut b);
        b
    };
    let style_tag_3 = edit_bytes(&|b| b[shape_at] = b[shape_at] & !6 | 3 << 1);
    let path_past_table = edit_bytes(&|b| b[index_at] = b[index_at] & 0xF0 | 0xF);
    let event_past_table = edit_bytes(&|b| b[index_at] = b[index_at] & 0xF | 0xF0);
    let cb_outside_alphabet = edit_bytes(&|b| b[cb_at] = b'A');
    let n_services = world.graph.services.len() as u32;
    let foreign_service = edit_bytes(&|b| {
        let at = service_at + 4 * args_row;
        b[at..at + 4].copy_from_slice(&n_services.to_le_bytes());
    });
    let put_u32 = |b: &mut Vec<u8>, at: usize, v: u32| {
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
    };
    // IPv6 side rows: two v6 requests (rows 0 and 1) and two v6
    // observations (rows 0 and 1), then each column's side rows doctored
    // in the encoded block. A side row is its row index (u32 LE) followed
    // by the address's 16 octets.
    assert!(chunk.requests.len() >= 2 && chunk.observations.len() >= 2);
    let v6 = |k: u16| Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0xbeef, k);
    let with_v6 = tampered(&|c| {
        c.requests[0].ip = IpAddr::V6(v6(1));
        c.requests[1].ip = IpAddr::V6(v6(2));
        c.observations[0].ip = IpAddr::V6(v6(3));
        c.observations[1].ip = IpAddr::V6(v6(4));
    });
    let v6_block = encode(&with_v6, &labels);
    let row_at = |k: u16| {
        let octets = v6(k).octets();
        v6_block.windows(16).position(|w| w == octets).expect("side row") - 4
    };
    let n_obs = chunk.observations.len() as u32;
    let side_rows = |first: u16, rows: [u32; 2]| {
        let mut b = v6_block.clone();
        put_u32(&mut b, row_at(first), rows[0]);
        put_u32(&mut b, row_at(first + 1), rows[1]);
        b
    };
    // The classifier delta leads with its running request total.
    let mut bad_total = cls.to_vec();
    bad_total[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    for (what, seg, cls, want) in [
        (
            "unknown tag",
            encode(&chunk, &bad_tag),
            cls,
            "unknown classification tag 9",
        ),
        (
            "foreign user",
            encode(&bad_user, &labels),
            cls,
            "outside the chunk's users",
        ),
        (
            "foreign visit user",
            encode(&bad_visit_user, &labels),
            cls,
            "outside the chunk's users",
        ),
        (
            "visit publisher",
            encode(&bad_visit_publisher, &labels),
            cls,
            "outside the world's",
        ),
        (
            "request publisher",
            encode(&bad_request_publisher, &labels),
            cls,
            "outside the world's",
        ),
        (
            "request host",
            encode(&bad_request_host, &labels),
            cls,
            "outside the world's",
        ),
        (
            "observation host",
            encode(&bad_observation_host, &labels),
            cls,
            "outside the world's",
        ),
        (
            "request first party",
            encode(&bad_first_party, &labels),
            cls,
            "outside the world's",
        ),
        (
            "referrer row",
            encode(&bad_referrer, &labels),
            cls,
            "referrer row",
        ),
        ("URL style tag out of range", style_tag_3, cls, "style tag 3"),
        ("URL path index past its table", path_past_table, cls, "path index 15"),
        ("URL event index past its table", event_past_table, cls, "event index 15"),
        ("URL cache buster outside the alphabet", cb_outside_alphabet, cls, "cache-buster byte"),
        ("URL service past the world", foreign_service, cls, "URL service"),
        ("request IPv6 rows unsorted", side_rows(1, [1, 0]), cls, "IPv6 side row"),
        ("request IPv6 rows repeated", side_rows(1, [0, 0]), cls, "IPv6 side row"),
        ("request IPv6 row out of range", side_rows(1, [0, n_requests]), cls, "IPv6 side row"),
        ("observation IPv6 rows unsorted", side_rows(3, [1, 0]), cls, "IPv6 side row"),
        ("observation IPv6 rows repeated", side_rows(3, [0, 0]), cls, "IPv6 side row"),
        ("observation IPv6 row out of range", side_rows(3, [0, n_obs]), cls, "IPv6 side row"),
        (
            "inflated delta total",
            genuine,
            &bad_total[..],
            "does not match",
        ),
    ] {
        let mut w = ByteWriter::new();
        w.put_blob(&seg);
        w.put_blob(cls);
        let tampered_payload = w.into_bytes();

        // Both drivers share the checkpoint format, so each must refuse
        // the same tampered chunk.
        for driver in ["worldscale", "streaming"] {
            let dir = tmp_dir("tamper-target");
            let run = |kill: &KillSwitch| match driver {
                "worldscale" => run_scale(
                    tiny_config(seed),
                    &plan,
                    &ScaleConfig::durable(3, &dir),
                    kill,
                )
                .map(drop),
                _ => run_extension_pipeline_streaming(
                    &mut World::build(tiny_config(seed)),
                    &plan,
                    &StreamConfig::durable(3, &dir),
                    kill,
                )
                .map(drop),
            };
            // A directory holding a genuine chunk 0, then the tampered
            // chunk 1 committed through the store, so its checksum is
            // valid.
            match run(&KillSwitch::at_label("chunk-1:begin")) {
                Err(StreamError::Killed { .. }) => {}
                other => panic!("{driver}, {what}: expected a kill, got {other:?}"),
            }
            CheckpointStore::open(&dir, fingerprint)
                .unwrap()
                .append_chunk(
                    1,
                    entry.user_start,
                    entry.user_end,
                    &tampered_payload,
                    &KillSwitch::none(),
                )
                .unwrap();

            let before = snapshot(&dir);
            match run(&KillSwitch::none()) {
                Err(StreamError::Checkpoint(CheckpointError::Corrupt { detail, .. })) => {
                    assert!(detail.contains(want), "{driver}, {what}: {detail}");
                }
                other => panic!("{driver}, {what}: expected Corrupt, got {other:?}"),
            }
            assert_eq!(
                snapshot(&dir),
                before,
                "{driver}, {what}: refusal must not write to the dir"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
