//! The run profile (`DegradationReport::profile`) every driver books:
//! batch, durable streaming with rolling snapshots and worldscale, all at
//! `small(11)`, each report the study, classify, completion and geolocate
//! layers; the durable run books exactly the chunk bytes its manifest
//! commits; and the segment driver reports the classifier's resident
//! bytes, read before it drops the classifier.

use std::fs;
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::stream::{config_fingerprint, run_extension_pipeline_streaming, StreamConfig};
use xborder::worldscale::{run_worldscale_pipeline, ScaleConfig};
use xborder::{World, WorldConfig};
use xborder_checkpoint::CheckpointStore;
use xborder_faults::{FaultPlan, KillSwitch, Profile};

fn assert_pipeline_layers(driver: &str, profile: &Profile) {
    for path in ["study", "classify", "completion", "geolocate"] {
        let layer = profile
            .layer(path)
            .unwrap_or_else(|| panic!("{driver}: no {path} layer in {profile:?}"));
        assert!(layer.calls >= 1, "{driver}: {path} booked no call");
    }
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
    let store = CheckpointStore::open(&dir, fingerprint).unwrap();
    let ckpt = streaming.profile.layer("ingest/checkpoint").expect("checkpoint layer");
    assert_eq!(ckpt.calls, store.chunks().len() as u64);
    assert_eq!(
        ckpt.bytes_written,
        store.chunks().iter().map(|c| c.bytes).sum::<u64>(),
        "bytes written must be the committed chunk frames"
    );
    let snapshot = streaming.profile.layer("ingest/snapshot").expect("snapshot layer");
    assert!(snapshot.calls >= windows as u64, "{snapshot:?}");
    let _ = fs::remove_dir_all(&dir);

    let mut cfg = WorldConfig::small(11);
    cfg.study.population.segmented = true;
    let (_, scale) = run_worldscale_pipeline(
        &mut World::build(cfg),
        &plan,
        &ScaleConfig::in_memory(20),
        &KillSwitch::none(),
    )
    .expect("worldscale run succeeds");
    assert_pipeline_layers("worldscale", &scale.profile);
    for (driver, profile) in [("streaming", &streaming.profile), ("worldscale", &scale.profile)] {
        let resident = profile.layer("classify").map_or(0, |l| l.resident_bytes);
        assert!(resident > 0, "{driver}: no classifier resident bytes");
    }
    // Only the segment driver runs the ingest layers, and the in-memory
    // worldscale run writes nothing.
    assert!(batch.profile.layer("ingest/checkpoint").is_none());
    assert!(scale.profile.layer("ingest/checkpoint").is_none());
}
