//! NetFlow scale bench: line-rate synthetic flow generation joined against
//! the tracker-IP interval set, written to `BENCH_netflow.json` (run from
//! the repo root; see ci.sh).
//!
//! The workload is the Sect. 7 join stripped to its hot loop: columnar
//! [`FlowBlock`]s from the seeded synthetic generator, matched by the
//! compiled [`TrackerIntervalSet`](xborder_netflow::TrackerIntervalSet).
//! Scales sweep 10⁶/10⁷/10⁸ records (capped by
//! `XBORDER_NETFLOW_MAX_RECORDS` for CI smoke runs) at thread budgets
//! {1, available}. A separate oracle section re-matches the same
//! stream through the per-record `HashSet` collector, asserts the results
//! identical, and records the interval-set speedup — the bench can never
//! report a fast number from a divergent matcher.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;
use xborder::Parallelism;
use xborder_geo::CountryCode;
use xborder_netflow::{
    generate_and_match_sharded, generate_only_sharded, FlowBlock, FlowCollector, SyntheticConfig,
    SyntheticFlowGen,
};
use xborder_netsim::{SimTime, TimeWindow};

/// Tracker list shaped like the real one: ~4096 addresses in CIDR-ish runs
/// of 1–8 (co-hosted tracker endpoints), validity windows on half of them
/// so the window side-table is exercised at every scale.
fn tracker_list(seed: u64) -> Vec<(Ipv4Addr, Option<TimeWindow>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(Ipv4Addr, Option<TimeWindow>)> = Vec::new();
    while out.len() < 4096 {
        let base: u32 = rng.gen_range(0x0B00_0000..0xDF00_0000);
        let run = rng.gen_range(1..=8u32);
        let windowed = rng.gen_bool(0.5);
        for k in 0..run {
            // Windows cover most of the synthetic day, with staggered
            // edges so some records fall outside and the window check has
            // real work to do.
            let window = windowed.then(|| TimeWindow {
                start: SimTime(1_000 + (k as u64) * 500),
                end: SimTime(80_000 - (k as u64) * 500),
            });
            out.push((Ipv4Addr::from(base.wrapping_add(k)), window));
        }
    }
    out
}

/// A fresh oracle collector over the same list + windows.
fn oracle_collector(list: &[(Ipv4Addr, Option<TimeWindow>)]) -> FlowCollector {
    let mut c = FlowCollector::new(list.iter().map(|(ip, _)| IpAddr::V4(*ip)));
    for (ip, w) in list {
        if let Some(w) = w {
            c.set_validity(IpAddr::V4(*ip), *w);
        }
    }
    c
}

fn main() {
    let n_threads = Parallelism::from_env().threads;
    let cap: u64 = std::env::var("XBORDER_NETFLOW_MAX_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX);
    let scales: Vec<u64> = [1_000_000u64, 10_000_000, 100_000_000]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    assert!(
        !scales.is_empty(),
        "XBORDER_NETFLOW_MAX_RECORDS below the smallest scale (1e6)"
    );
    // Like bench_pipeline: an oversubscribed budget on a small box still
    // exercises the sharded join, and `threads_available` records what
    // actually backed it.
    let mut budgets = vec![1usize, 2, n_threads];
    budgets.sort_unstable();
    budgets.dedup();

    let list = tracker_list(0x7E_AC);
    let set = oracle_collector(&list).interval_set();
    let mut runs: Vec<serde_json::Value> = Vec::new();
    let mut headline_records_per_sec = 0.0f64;
    for &n_records in &scales {
        let cfg = SyntheticConfig {
            n_records,
            ..Default::default()
        };
        let gen = SyntheticFlowGen::new(cfg, list.iter().map(|(ip, _)| *ip));
        for &threads in &budgets {
            // Generation-only pass attributes the RNG-bound producer cost;
            // the full pass adds the interval-set join on top. Short runs
            // take the min of 3 (sub-second timings swing on a loaded
            // box); the 1e8 run is long enough to be stable single-shot.
            let rounds = if n_records <= 10_000_000 { 3 } else { 1 };
            let mut generate_ms = f64::INFINITY;
            let mut total_ms = f64::INFINITY;
            let mut stats = set.new_stats();
            for _ in 0..rounds {
                let t = Instant::now();
                let produced = generate_only_sharded(&gen, threads);
                generate_ms = generate_ms.min(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(produced, n_records, "generator lost records");
                let t = Instant::now();
                stats = generate_and_match_sharded(&gen, &set, threads);
                total_ms = total_ms.min(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(stats.total_flows, n_records, "join lost records");
            }
            let match_ms = (total_ms - generate_ms).max(0.0);
            let total_secs = (total_ms / 1e3).max(f64::MIN_POSITIVE);
            let records_per_sec = n_records as f64 / total_secs;
            let blocks_per_sec = gen.n_blocks() as f64 / total_secs;
            let match_rate = stats.tracking_flows as f64 / n_records.max(1) as f64;
            println!(
                "{n_records} records, {threads} threads: {total_ms:.0} ms \
                 (generate {generate_ms:.0}, match {match_ms:.0}; \
                 {records_per_sec:.2e} records/s, match rate {match_rate:.4})"
            );
            if n_records == scales[0] && threads == 1 {
                headline_records_per_sec = records_per_sec;
            }
            runs.push(serde_json::json!({
                "records": n_records,
                "threads": threads,
                "block_len": cfg.block_len,
                "generate_ms": generate_ms,
                "match_ms": match_ms,
                "total_ms": total_ms,
                "records_per_sec": records_per_sec,
                "blocks_per_sec": blocks_per_sec,
                "match_rate": match_rate,
            }));
        }
    }

    // --- Oracle section: same stream, per-record HashSet matcher. Blocks
    // are materialized once so both sides time matching alone.
    let oracle_records = scales.iter().copied().filter(|&s| s <= 10_000_000).max().unwrap();
    let gen = SyntheticFlowGen::new(
        SyntheticConfig {
            n_records: oracle_records,
            ..Default::default()
        },
        list.iter().map(|(ip, _)| *ip),
    );
    let blocks: Vec<FlowBlock> = (0..gen.n_blocks())
        .map(|idx| {
            let mut b = FlowBlock::with_capacity(gen.config().block_len);
            gen.fill_block(idx, &mut b);
            b
        })
        .collect();
    let country = CountryCode::new(*b"DE");
    let run_interval = || {
        let t = Instant::now();
        let mut stats = set.new_stats();
        for b in &blocks {
            set.match_block(b, &mut stats);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (ms, stats.to_match_stats(&set))
    };
    let run_oracle = || {
        let mut oracle = oracle_collector(&list);
        let t = Instant::now();
        for b in &blocks {
            for i in 0..b.len() {
                oracle.ingest(&b.to_record(i), country);
            }
        }
        (t.elapsed().as_secs_f64() * 1e3, oracle.into_stats())
    };
    // The speedup is a ratio of two wall times on a noisy box: alternate
    // the sides round by round (a monotonic drift cannot bias one) and
    // take each side's minimum — the noise-robust estimator of the work
    // actually done (the bench_pipeline idiom). Side 0 is the interval
    // set, side 1 the oracle.
    let (mut best, mut results) = ([f64::INFINITY; 2], [None, None]);
    for round in 0..3 {
        for side in [round % 2, 1 - round % 2] {
            let (ms, stats) = if side == 0 { run_interval() } else { run_oracle() };
            best[side] = best[side].min(ms);
            results[side] = Some(stats);
        }
    }
    assert_eq!(
        results[0], results[1],
        "interval-set matcher drifted from the per-record oracle"
    );
    let [interval_match_ms, oracle_match_ms] = best;
    let speedup_vs_oracle = oracle_match_ms / interval_match_ms.max(f64::MIN_POSITIVE);
    println!(
        "oracle ({oracle_records} records, threads 1): interval set {interval_match_ms:.0} ms \
         vs per-record {oracle_match_ms:.0} ms ({speedup_vs_oracle:.1}x, results identical)"
    );
    assert!(
        speedup_vs_oracle >= 5.0,
        "interval-set join under the 5x acceptance floor: {speedup_vs_oracle:.1}x"
    );

    let oracle_doc = serde_json::json!({
        "records": oracle_records,
        "threads": 1,
        "interval_match_ms": interval_match_ms,
        "oracle_match_ms": oracle_match_ms,
        "speedup_vs_oracle": speedup_vs_oracle,
    });
    let doc = serde_json::json!({
        "bench": "netflow",
        "threads_available": n_threads,
        "tracker_ips": set.n_slots(),
        "tracker_intervals": set.n_intervals(),
        "netflow_records_per_sec": headline_records_per_sec,
        "runs": runs,
        "oracle": oracle_doc,
    });
    let out = "BENCH_netflow.json";
    xborder_bench::write_bench_doc(out, &doc);
    println!(
        "wrote {out} ({:.2e} records/s headline at {} records / 1 thread; \
         {n_threads} threads available)",
        headline_records_per_sec, scales[0]
    );
}
