//! NetFlow scale-up determinism (DESIGN.md §5i): thread budgets and block
//! sizes are pure performance knobs for the Sect. 7 ISP join.
//!
//! Two contracts are pinned here, above the netflow crate's own unit
//! tests, because they span the whole study path (world build → pipeline →
//! tracker list → sharded columnar join → serialized report):
//!
//! 1. `run_isp_study` serializes to byte-identical JSON across thread
//!    budgets {1, 2, 8} and across block lengths, profile zeroed first
//!    (wall-clock is observational, never contractual).
//! 2. The sharded synthetic join over the pipeline's *real* tracker-IP
//!    list equals the per-record `HashSet` oracle exactly, at every thread
//!    budget and block length.

use std::net::IpAddr;
use xborder::ispstudy::{run_isp_study, IspStudyConfig};
use xborder::pipeline::run_extension_pipeline;
use xborder::{World, WorldConfig};
use xborder_faults::Profile;
use xborder_netflow::{
    generate_and_match_sharded, FlowCollector, SyntheticConfig, SyntheticFlowGen,
    DEFAULT_BLOCK_LEN,
};

/// One full study at the given knobs, serialized with its profile zeroed.
fn study_json(threads: usize, block_len: usize) -> String {
    let mut world = World::build(WorldConfig::small(21).with_threads(threads));
    let out = run_extension_pipeline(&mut world);
    let cfg = IspStudyConfig {
        block_len,
        ..IspStudyConfig::small()
    };
    let mut results = run_isp_study(&mut world, &out.tracker_ips, &out.ipmap_estimates, &cfg);
    let layers: Vec<&str> = results.profile.layers.iter().map(|l| l.path).collect();
    assert_eq!(layers, ["netflow/generate", "netflow/match"]);
    assert!(
        results.profile.layers.iter().map(|l| l.wall_ms).sum::<f64>() > 0.0,
        "stage timings never recorded"
    );
    results.profile = Profile::default();
    serde_json::to_string(&results).expect("study results serialize")
}

#[test]
fn isp_study_json_is_thread_and_block_invariant() {
    let baseline = study_json(1, DEFAULT_BLOCK_LEN);
    assert!(baseline.contains("tracking_flows"), "report shape changed");
    for (threads, block_len) in [(2, DEFAULT_BLOCK_LEN), (8, 64), (2, 997)] {
        assert_eq!(
            study_json(threads, block_len),
            baseline,
            "study drifted at threads={threads} block_len={block_len}"
        );
    }
}

#[test]
fn sharded_synthetic_join_equals_oracle_on_real_tracker_list() {
    let mut world = World::build(WorldConfig::small(33));
    let out = run_extension_pipeline(&mut world);
    let trackers: Vec<std::net::Ipv4Addr> = out
        .tracker_ips
        .ips
        .keys()
        .filter_map(|ip| match ip {
            IpAddr::V4(v) => Some(*v),
            IpAddr::V6(_) => None,
        })
        .collect();
    assert!(!trackers.is_empty(), "pipeline produced no v4 tracker IPs");

    let cfg = SyntheticConfig {
        n_records: 200_000,
        block_len: 4096,
        ..Default::default()
    };
    let gen = SyntheticFlowGen::new(cfg, trackers.iter().copied());
    let set = FlowCollector::new(trackers.iter().map(|ip| IpAddr::V4(*ip))).interval_set();

    // Per-record oracle over the identical stream; also materialize the
    // whole stream for the re-blocking check below.
    let mut oracle = FlowCollector::new(trackers.iter().map(|ip| IpAddr::V4(*ip)));
    let country = xborder_geo::CountryCode::new(*b"DE");
    let mut block = xborder_netflow::FlowBlock::with_capacity(cfg.block_len);
    let mut whole = xborder_netflow::FlowBlock::with_capacity(cfg.n_records as usize);
    for idx in 0..gen.n_blocks() {
        gen.fill_block(idx, &mut block);
        for i in 0..block.len() {
            let r = block.to_record(i);
            oracle.ingest(&r, country);
            whole.push_record(&r);
        }
    }
    let oracle_stats = oracle.into_stats();
    assert_eq!(oracle_stats.total_flows, cfg.n_records);
    assert!(oracle_stats.tracking_flows > 0, "degenerate workload");

    let baseline = generate_and_match_sharded(&gen, &set, 1);
    assert_eq!(baseline.to_match_stats(&set), oracle_stats);
    for threads in [2, 3, 8] {
        let stats = generate_and_match_sharded(&gen, &set, threads);
        assert_eq!(stats, baseline, "join drifted at {threads} threads");
    }
    // Re-blocking the materialized stream at a foreign chunk size must
    // not change a single counter.
    let mut chunked = set.new_stats();
    let mut buf = xborder_netflow::FlowBlock::with_capacity(977);
    let mut i = 0;
    while i < whole.len() {
        buf.clear();
        let hi = (i + 977).min(whole.len());
        for j in i..hi {
            buf.push_record(&whole.to_record(j));
        }
        set.match_block(&buf, &mut chunked);
        i = hi;
    }
    assert_eq!(chunked, baseline, "join drifted when re-blocked at 977");
}
