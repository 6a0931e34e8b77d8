//! The run profile (`DegradationReport::profile`) every driver books:
//! batch, durable streaming with rolling snapshots and worldscale, all at
//! `small(11)`, each report the study, classify, completion, geolocate and
//! tracker-fold layers; the durable run leaves one journal file, books one
//! checkpoint call per chunk and exactly the journal bytes past its header;
//! the segment driver books one pDNS call per segment, replayed or
//! ingested, and reports the classifier's resident bytes, read before it
//! drops the classifier.

use std::fs;
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::stream::{config_fingerprint, run_extension_pipeline_streaming, StreamConfig};
use xborder::worldscale::{run_worldscale_pipeline, ScaleConfig};
use xborder::{World, WorldConfig};
use xborder_checkpoint::{CheckpointStore, JOURNAL};
use xborder_faults::{FaultPlan, KillSwitch, Profile};

fn assert_pipeline_layers(driver: &str, profile: &Profile) {
    for path in ["study", "classify", "completion", "geolocate", "fold"] {
        let layer = profile
            .layer(path)
            .unwrap_or_else(|| panic!("{driver}: no {path} layer in {profile:?}"));
        assert!(layer.calls >= 1, "{driver}: {path} booked no call");
    }
}

/// Calls booked to `ingest/pdns`: one per segment the driver absorbed.
fn pdns_calls(profile: &Profile) -> u64 {
    profile.layer("ingest/pdns").map_or(0, |l| l.calls)
}

#[test]
fn every_driver_books_the_pipeline_layers() {
    let plan = FaultPlan::none();
    let (_, batch) =
        run_extension_pipeline_degraded(&mut World::build(WorldConfig::small(11)), &plan);
    assert_pipeline_layers("batch", &batch.profile);

    let dir = std::env::temp_dir().join(format!("xborder-run-profile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let windows = 4;
    let (out, streaming) = run_extension_pipeline_streaming(
        &mut World::build(WorldConfig::small(11)),
        &plan,
        &StreamConfig::durable(5, &dir).with_snapshots(windows),
        &KillSwitch::none(),
    )
    .expect("durable streaming run succeeds");
    assert_eq!(out.snapshots.len(), windows);
    assert_pipeline_layers("streaming", &streaming.profile);
    let fingerprint = config_fingerprint(&WorldConfig::small(11), &plan).unwrap();
    // The host-independent form of "one write per commit, no renames, no
    // file created after the first": one file, one append per chunk, and
    // every journal byte past the header booked as written.
    let files: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(files, [JOURNAL], "a finished durable run leaves only the journal");
    let store = CheckpointStore::open(&dir, fingerprint).unwrap();
    let header = store.chunks()[0].offset;
    let journal_len = fs::metadata(dir.join(JOURNAL)).unwrap().len();
    let ckpt = streaming.profile.layer("ingest/checkpoint").expect("checkpoint layer");
    assert_eq!(ckpt.calls, store.chunks().len() as u64);
    assert_eq!(
        ckpt.bytes_written,
        journal_len - header,
        "bytes written must be the journal minus its header"
    );
    assert_eq!(ckpt.bytes_written, store.records_len());
    let snapshot = streaming.profile.layer("ingest/snapshot").expect("snapshot layer");
    assert!(snapshot.calls >= windows as u64, "{snapshot:?}");
    let n_chunks = store.chunks().len() as u64;
    assert_eq!(pdns_calls(&streaming.profile), n_chunks);

    // A rerun on the finished directory replays every chunk: the replay
    // books the same pDNS calls, and the fold layer its segments too.
    let (_, replayed) = run_extension_pipeline_streaming(
        &mut World::build(WorldConfig::small(11)),
        &plan,
        &StreamConfig::durable(5, &dir),
        &KillSwitch::none(),
    )
    .expect("replayed streaming run succeeds");
    assert_eq!(pdns_calls(&replayed.profile), n_chunks);
    let fold = replayed.profile.layer("fold").expect("fold layer");
    assert!(fold.calls >= n_chunks, "{fold:?}");
    let _ = fs::remove_dir_all(&dir);

    let mut cfg = WorldConfig::small(11);
    cfg.study.population.segmented = true;
    let (scale_out, scale) = run_worldscale_pipeline(
        &mut World::build(cfg),
        &plan,
        &ScaleConfig::in_memory(20),
        &KillSwitch::none(),
    )
    .expect("worldscale run succeeds");
    assert_pipeline_layers("worldscale", &scale.profile);
    assert_eq!(pdns_calls(&scale.profile), scale_out.n_segments as u64);
    for (driver, profile) in [("streaming", &streaming.profile), ("worldscale", &scale.profile)] {
        let resident = profile.layer("classify").map_or(0, |l| l.resident_bytes);
        assert!(resident > 0, "{driver}: no classifier resident bytes");
    }
    // Only the segment driver runs the ingest layers, and the in-memory
    // worldscale run writes nothing.
    assert!(batch.profile.layer("ingest/checkpoint").is_none());
    assert!(batch.profile.layer("ingest/pdns").is_none());
    assert!(scale.profile.layer("ingest/checkpoint").is_none());
}
