//! Pipeline bench smoke: end-to-end and per-layer wall-clock across a
//! sweep of thread budgets, written to `BENCH_pipeline.json` (run from the
//! repo root; see ci.sh). Each row carries the run's own
//! `DegradationReport::profile`, so the bench records exactly what
//! production runs record, and a `spread` map: for every timed value of
//! the row, keyed by its path in the row, its `[min, max]` over the
//! repeats the value was taken from (a single-shot value has none).
//!
//! The sweep runs the budgets 1, 2 and 4 and the available budget
//! (`XBORDER_THREADS`, else the core count), deduplicated, and skips every
//! budget above the available one: more threads than cores time the
//! scheduler, not the code, so such a row is no result. The recorded curve
//! is the one the hardware the bench ran on can back, and
//! `threads_available` says how many threads that was.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xborder::ispstudy::{run_isp_study, IspStudyConfig};
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig};
use xborder::{Parallelism, World, WorldConfig};
use xborder_classify::{FilterList, FilterRule, RuleEngine};
use xborder_faults::{profile::LAYERS, FaultPlan, KillSwitch, Profile};
use xborder_webgraph::Domain;

/// Deterministic URL-dependent workload for the rule-engine microbench: a
/// rule set that is mostly substring/path rules (the shapes real easylists
/// are full of but the generated lists never produce — those are all
/// domain anchors, which engine and oracle both resolve per-host), plus
/// probe URLs whose hosts and embedded tokens overlap the rule pools
/// enough that hits, near-misses and clean URLs all occur.
fn engine_workload(n_rules: usize, n_urls: usize, seed: u64) -> (FilterList, Vec<(Domain, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_domains = (n_rules / 2).max(8);
    let domains: Vec<Domain> = (0..n_domains)
        .map(|i| Domain::new(format!("cdn{i}.ads{}.example{}.com", i % 13, i % 5)))
        .collect();
    let mut list = FilterList::new("bench-engine");
    for i in 0..n_rules {
        list.push(match i % 5 {
            0 => FilterRule::DomainAnchor(domains[rng.gen_range(0..n_domains)].clone()),
            1 | 2 => FilterRule::DomainWithPath {
                domain: domains[rng.gen_range(0..n_domains)].clone(),
                path_prefix: format!("/seg{}/", i % 97),
            },
            _ => FilterRule::UrlSubstring(format!("tok{:04}x", rng.gen_range(0..n_rules * 2))),
        });
    }
    let probes = (0..n_urls)
        .map(|_| {
            let host = if rng.gen_range(0..4) == 0 {
                domains[rng.gen_range(0..n_domains)].clone()
            } else {
                Domain::new(format!("www.site{}.net", rng.gen_range(0..n_domains)))
            };
            let url = format!(
                "https://{host}/seg{}/page?uid=u{}&tok{:04}x=1",
                rng.gen_range(0..97),
                rng.gen_range(0..100_000),
                rng.gen_range(0..n_rules * 4),
            );
            (host, url)
        })
        .collect();
    (list, probes)
}

/// Allocation calls and requested bytes since process start. The library
/// crates are `forbid(unsafe_code)`, so the counting allocator lives here
/// in the bench binary and feeds the pipeline's report through the safe
/// `xborder_faults::install_alloc_probe` hook, which the profile's spans
/// read.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts every allocation and reallocation.
struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counters are
// relaxed atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_probe() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// `[min, max]` of one timed value over its repeats.
fn spread(xs: impl IntoIterator<Item = f64>) -> [f64; 2] {
    xs.into_iter()
        .fold([f64::INFINITY, f64::NEG_INFINITY], |[lo, hi], x| [lo.min(x), hi.max(x)])
}

/// The spread of every layer's wall clock over repeated runs' profiles,
/// keyed by its path in a bench row (`{key}.{layer}.wall_ms`).
fn layer_spreads<'a>(
    key: &str,
    profiles: impl Iterator<Item = &'a Profile> + Clone,
) -> BTreeMap<String, [f64; 2]> {
    LAYERS
        .iter()
        .filter(|path| profiles.clone().any(|p| p.layer(path).is_some()))
        .map(|path| {
            let walls = profiles.clone().filter_map(|p| p.layer(path)).map(|l| l.wall_ms);
            (format!("{key}.{path}.wall_ms"), spread(walls))
        })
        .collect()
}

/// The run with the smallest wall clock.
fn fastest(runs: &[(f64, Profile)]) -> (f64, Profile) {
    runs.iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .cloned()
        .expect("at least one timed run")
}

fn main() {
    let seed = 11u64;
    xborder_faults::install_alloc_probe(alloc_probe);
    let n_threads = Parallelism::from_env().threads;
    let mut budgets: Vec<usize> = [1, 2, 4, n_threads]
        .into_iter()
        .filter(|&t| t <= n_threads)
        .collect();
    budgets.sort_unstable();
    budgets.dedup();
    assert_eq!(budgets[0], 1, "sweep starts at the sequential budget");

    let mut runs: Vec<serde_json::Value> = Vec::new();
    let mut seq: Option<(f64, f64)> = None;
    let mut best_e2e = 1.0f64;
    for &threads in &budgets {
        // One discarded warmup (page cache, allocator, frequency ramp),
        // then median-of-3 by wall-clock. The median is robust against the
        // one-sided scheduler spikes that made a shared-workload budget
        // report an impossible <1x speedup on the 1-core CI box, without
        // the minimum's bias toward lucky runs.
        let run_once = || {
            let mut world = World::build(WorldConfig::small(seed).with_threads(threads));
            let t = Instant::now();
            let (out, mut report) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            // The Sect. 7 NetFlow join rides the same thread budget; its
            // layers join the pipeline's in the row's profile.
            let isp = run_isp_study(
                &mut world,
                &out.tracker_ips,
                &out.ipmap_estimates,
                &IspStudyConfig::small(),
            );
            report.profile.absorb(&isp.profile);
            (wall_ms, report.profile, out.dataset.visits.len())
        };
        let _warmup = run_once();
        let mut repeats: Vec<(f64, Profile, usize)> = (0..3).map(|_| run_once()).collect();
        let mut spreads = layer_spreads("profile", repeats.iter().map(|r| &r.1));
        spreads.insert("pipeline_ms".into(), spread(repeats.iter().map(|r| r.0)));
        repeats.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall_ms, profile, n_visits) = repeats.swap_remove(1);
        let study = profile.layer("study").copied().unwrap_or_default();
        let layers: Vec<String> =
            profile.layers.iter().map(|l| format!("{} {:.1}", l.path, l.wall_ms)).collect();
        println!(
            "threads {threads}: pipeline {wall_ms:.1} ms ({}; study allocs {} / {n_visits} visits)",
            layers.join(", "),
            study.allocs
        );
        let (seq_ms, seq_study_ms) = *seq.get_or_insert((wall_ms, study.wall_ms));
        best_e2e = best_e2e.max(seq_ms / wall_ms.max(f64::MIN_POSITIVE));
        runs.push(serde_json::json!({
            "threads": threads,
            "pipeline_ms": wall_ms,
            "visits": n_visits,
            "profile": profile,
            "spread": spreads,
            "study_allocs_per_visit": study.allocs as f64 / n_visits.max(1) as f64,
            "study_speedup_vs_sequential": if study.wall_ms > 0.0 { seq_study_ms / study.wall_ms } else { 1.0 },
            "e2e_speedup_vs_sequential": if wall_ms > 0.0 { seq_ms / wall_ms } else { 1.0 },
        }));
    }
    let seq_ms = seq.expect("the sweep ran").0;

    // --- Streaming mode: chunked ingestion at threads=1, with and without
    // durable checkpoints, against the batch sequential baseline. The
    // summary equality assert keeps the bench honest: a streaming path
    // that drifted from batch would report a meaningless overhead number.
    let summary = |out: &StudyOutputs| {
        (
            out.dataset.requests.len(),
            out.dataset.visits.len(),
            out.classification.abp.n_total_requests,
            out.tracker_ips.len(),
        )
    };
    let chunk_users = 5usize;
    let mut world = World::build(WorldConfig::small(seed).with_threads(1));
    let (batch_out, _) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
    let batch_summary = summary(&batch_out);
    drop(batch_out);

    let snapshot_windows = 6usize;
    let run_streaming = |stream_cfg: &StreamConfig| {
        if let Some(dir) = &stream_cfg.checkpoint_dir {
            // Every timed run starts cold: no chunks to replay.
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut world = World::build(WorldConfig::small(seed).with_threads(1));
        let t = Instant::now();
        let (out, report) =
            run_extension_pipeline_streaming(&mut world, &FaultPlan::none(), stream_cfg, &KillSwitch::none())
                .expect("un-killed streaming bench run succeeds");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            summary(&out),
            batch_summary,
            "streaming bench output drifted from batch"
        );
        assert_eq!(out.snapshots.len(), snapshot_windows, "rolling snapshots missing");
        (wall_ms, report.profile)
    };
    // Both variants emit rolling snapshots so the checkpoint-overhead
    // comparison stays apples-to-apples. checkpoint_overhead_pct is a
    // ratio of two same-scale wall times on a box whose clock swings ~2x
    // under load, so the two sides run back to back in alternating order
    // (a monotonic drift cannot bias one side) and the minimum of each —
    // the only noise-robust estimator of the work actually done — feeds
    // the ratio, instead of two medians measured minutes apart.
    let in_memory = StreamConfig::in_memory(chunk_users).with_snapshots(snapshot_windows);
    let ckpt_dir = std::env::temp_dir().join(format!("xborder-bench-ckpt-{}", std::process::id()));
    let durable = StreamConfig::durable(chunk_users, &ckpt_dir).with_snapshots(snapshot_windows);
    let _warmup = run_streaming(&in_memory);
    let _warmup = run_streaming(&durable);
    let mut mem_runs: Vec<(f64, Profile)> = Vec::new();
    let mut ckpt_runs: Vec<(f64, Profile)> = Vec::new();
    for round in 0..7 {
        if round % 2 == 0 {
            mem_runs.push(run_streaming(&in_memory));
            ckpt_runs.push(run_streaming(&durable));
        } else {
            ckpt_runs.push(run_streaming(&durable));
            mem_runs.push(run_streaming(&in_memory));
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (streaming_ms, stream_profile) = fastest(&mem_runs);
    let (streaming_ckpt_ms, ckpt_profile) = fastest(&ckpt_runs);
    let visits_per_sec = batch_summary.1 as f64 / (streaming_ckpt_ms / 1e3).max(f64::MIN_POSITIVE);
    let checkpoint_overhead_ms = streaming_ckpt_ms - streaming_ms;
    let checkpoint_overhead_pct = (streaming_ckpt_ms / streaming_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    let overhead_vs_batch_pct = (streaming_ms / seq_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    // Incremental-vs-batch classify is a ratio of two small stage times, so
    // clock drift between the thread sweep and the streaming block (minutes
    // apart on a noisy box) would dominate it. Interleave batch and
    // streaming runs back to back and compare their medians instead.
    let classify_ms = |profile: &Profile| profile.layer("classify").map_or(0.0, |l| l.wall_ms);
    let run_batch_classify = || {
        let mut world = World::build(WorldConfig::small(seed).with_threads(1));
        let (out, report) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
        assert_eq!(
            summary(&out),
            batch_summary,
            "batch classify-baseline run drifted"
        );
        classify_ms(&report.profile)
    };
    let mut batch_cls: Vec<f64> = Vec::new();
    let mut inc_cls: Vec<f64> = Vec::new();
    for round in 0..7 {
        // Alternate which variant goes first so a monotonically drifting
        // clock (thermal throttling) cannot bias one side.
        if round % 2 == 0 {
            batch_cls.push(run_batch_classify());
            inc_cls.push(classify_ms(&run_streaming(&in_memory).1));
        } else {
            inc_cls.push(classify_ms(&run_streaming(&in_memory).1));
            batch_cls.push(run_batch_classify());
        }
    }
    // Min, not median: both stages are sub-15 ms on a box whose clock swings
    // ~2x under load, so the minimum is the only noise-robust estimator of
    // the work actually done.
    let [batch_classify_ms, _] = spread(batch_cls.iter().copied());
    let [incremental_classify_ms, _] = spread(inc_cls.iter().copied());
    let classify_overhead_vs_batch_pct =
        (incremental_classify_ms / batch_classify_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    let snapshot_ms = stream_profile.layer("ingest/snapshot").map_or(0.0, |l| l.wall_ms);
    println!(
        "streaming (chunk {chunk_users} users, threads 1): {streaming_ms:.1} ms in-memory, \
         {streaming_ckpt_ms:.1} ms checkpointed ({checkpoint_overhead_ms:+.1} ms / \
         {checkpoint_overhead_pct:+.1}% checkpoint cost, \
         {overhead_vs_batch_pct:+.1}% vs batch, {visits_per_sec:.0} visits/s durable; \
         incremental classify {incremental_classify_ms:.2} ms \
         [{classify_overhead_vs_batch_pct:+.1}% vs batch], \
         {snapshot_windows} snapshots {snapshot_ms:.2} ms total)"
    );
    let mut stream_spreads = layer_spreads("profile", mem_runs.iter().map(|r| &r.1));
    stream_spreads.extend(layer_spreads("checkpoint_profile", ckpt_runs.iter().map(|r| &r.1)));
    stream_spreads.insert("streaming_ms".into(), spread(mem_runs.iter().map(|r| r.0)));
    stream_spreads.insert("streaming_ckpt_ms".into(), spread(ckpt_runs.iter().map(|r| r.0)));
    stream_spreads.insert("batch_classify_ms".into(), spread(batch_cls));
    stream_spreads.insert("incremental_classify_ms".into(), spread(inc_cls));
    // --- Rule-engine microbench: compiled Aho-Corasick engine vs the
    // naive per-rule oracle over a synthetic URL-dependent rule set (the
    // generated lists are all domain anchors, which engine and oracle both
    // resolve per-host; substring/path rules are where the automaton earns
    // its keep). Results are asserted equal while timing, so the speedup
    // number can never come from a divergent matcher.
    let (list, probes) = engine_workload(512, 4096, 97);
    let t_build = Instant::now();
    let mut engine = RuleEngine::compile(&[&list]);
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    let time_min5 = |f: &mut dyn FnMut() -> u64| {
        let mut walls = Vec::new();
        let mut hits = 0u64;
        for _ in 0..5 {
            let t = Instant::now();
            hits = f();
            walls.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (spread(walls), hits)
    };
    let (engine_spread, engine_hits) = time_min5(&mut || {
        probes
            .iter()
            .filter(|(host, url)| engine.matches(host, url))
            .count() as u64
    });
    let (oracle_spread, oracle_hits) = time_min5(&mut || {
        probes
            .iter()
            .filter(|(host, url)| list.matches(host, url))
            .count() as u64
    });
    assert_eq!(engine_hits, oracle_hits, "engine drifted from the rule oracle");
    let (engine_match_ms, oracle_match_ms) = (engine_spread[0], oracle_spread[0]);
    let speedup_vs_oracle = oracle_match_ms / engine_match_ms.max(f64::MIN_POSITIVE);
    println!(
        "rule engine ({} rules, {} urls): build {build_ms:.2} ms, match {engine_match_ms:.2} ms \
         vs oracle {oracle_match_ms:.2} ms ({speedup_vs_oracle:.1}x, {engine_hits} hits)",
        list.len(),
        probes.len()
    );
    let rule_engine_doc = serde_json::json!({
        "rules": list.len(),
        "urls": probes.len(),
        "build_ms": build_ms,
        "engine_match_ms": engine_match_ms,
        "oracle_match_ms": oracle_match_ms,
        "speedup_vs_oracle": speedup_vs_oracle,
        "spread": BTreeMap::from([
            ("engine_match_ms", engine_spread),
            ("oracle_match_ms", oracle_spread),
        ]),
    });
    let streaming_doc = serde_json::json!({
        "chunk_users": chunk_users,
        "threads": 1,
        "snapshot_windows": snapshot_windows,
        "streaming_ms": streaming_ms,
        "streaming_ckpt_ms": streaming_ckpt_ms,
        "visits_per_sec": visits_per_sec,
        "checkpoint_overhead_ms": checkpoint_overhead_ms,
        "checkpoint_overhead_pct": checkpoint_overhead_pct,
        "overhead_vs_batch_pct": overhead_vs_batch_pct,
        "batch_classify_ms": batch_classify_ms,
        "incremental_classify_ms": incremental_classify_ms,
        "classify_overhead_vs_batch_pct": classify_overhead_vs_batch_pct,
        "profile": stream_profile,
        "checkpoint_profile": ckpt_profile,
        "spread": stream_spreads,
    });
    let doc = serde_json::json!({
        "bench": "pipeline",
        "config": format!("WorldConfig::small({seed})"),
        "threads_available": n_threads,
        "runs": runs,
        "e2e_speedup_vs_sequential": best_e2e,
        "streaming": streaming_doc,
        "rule_engine": rule_engine_doc,
    });
    let out = "BENCH_pipeline.json";
    xborder_bench::write_bench_doc(out, &doc);
    println!("wrote {out} (best e2e speedup vs sequential: {best_e2e:.2}x; {n_threads} threads available)");
}
