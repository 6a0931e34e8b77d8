//! Pipeline bench smoke: end-to-end and per-stage wall-clock across a
//! sweep of thread budgets, written to `BENCH_pipeline.json` (run from the
//! repo root; see ci.sh). The per-stage numbers come from the pipeline's
//! own `DegradationReport::timings`, so the bench measures exactly what
//! production runs record.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xborder::ispstudy::{run_isp_study, IspStudyConfig};
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig};
use xborder::{Parallelism, World, WorldConfig};
use xborder_classify::{FilterList, FilterRule, RuleEngine};
use xborder_faults::{FaultPlan, KillSwitch};
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
/// `xborder_faults::install_alloc_probe` hook.
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

    let mut measured: Vec<(usize, f64, xborder_faults::StageTimings, usize)> = Vec::new();
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
            // stage split lands in the report next to the pipeline stages.
            let isp = run_isp_study(
                &mut world,
                &out.tracker_ips,
                &out.ipmap_estimates,
                &IspStudyConfig::small(),
            );
            report.timings.netflow_generate_ms = isp.timings.generate_ms;
            report.timings.netflow_match_ms = isp.timings.match_ms;
            (wall_ms, report.timings, out.dataset.visits.len())
        };
        let _warmup = run_once();
        let mut runs: Vec<(f64, xborder_faults::StageTimings, usize)> =
            (0..3).map(|_| run_once()).collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall_ms, timings, n_visits) = runs.swap_remove(1);
        println!(
            "threads {threads}: pipeline {wall_ms:.1} ms (study {:.1}, classify {:.1}, \
             completion {:.1}, geolocate {:.1}; study allocs {} / {} visits; \
             netflow gen {:.1} + match {:.1})",
            timings.study_ms,
            timings.classify_ms,
            timings.completion_ms,
            timings.geolocate_ms,
            timings.study_allocs,
            n_visits,
            timings.netflow_generate_ms,
            timings.netflow_match_ms
        );
        measured.push((threads, wall_ms, timings, n_visits));
    }

    let seq = &measured[0];
    assert_eq!(seq.0, 1, "sweep starts at the sequential budget");

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
        (wall_ms, out.dataset.visits.len(), report.timings)
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
    let mut mem_runs: Vec<(f64, usize, xborder_faults::StageTimings)> = Vec::new();
    let mut ckpt_runs: Vec<f64> = Vec::new();
    for round in 0..7 {
        if round % 2 == 0 {
            mem_runs.push(run_streaming(&in_memory));
            ckpt_runs.push(run_streaming(&durable).0);
        } else {
            ckpt_runs.push(run_streaming(&durable).0);
            mem_runs.push(run_streaming(&in_memory));
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    mem_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (streaming_ms, n_visits, stream_timings) = mem_runs.swap_remove(0);
    let streaming_ckpt_ms = ckpt_runs.iter().copied().fold(f64::INFINITY, f64::min);
    let visits_per_sec = n_visits as f64 / (streaming_ckpt_ms / 1e3).max(f64::MIN_POSITIVE);
    let checkpoint_overhead_ms = streaming_ckpt_ms - streaming_ms;
    let checkpoint_overhead_pct = (streaming_ckpt_ms / streaming_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    let overhead_vs_batch_pct = (streaming_ms / seq.1.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    // Incremental-vs-batch classify is a ratio of two small stage times, so
    // clock drift between the thread sweep and the streaming block (minutes
    // apart on a noisy box) would dominate it. Interleave batch and
    // streaming runs back to back and compare their medians instead.
    let run_batch_classify = || {
        let mut world = World::build(WorldConfig::small(seed).with_threads(1));
        let (out, report) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
        assert_eq!(
            summary(&out),
            batch_summary,
            "batch classify-baseline run drifted"
        );
        report.timings.classify_ms
    };
    let mut batch_cls: Vec<f64> = Vec::new();
    let mut inc_cls: Vec<f64> = Vec::new();
    for round in 0..7 {
        // Alternate which variant goes first so a monotonically drifting
        // clock (thermal throttling) cannot bias one side.
        if round % 2 == 0 {
            batch_cls.push(run_batch_classify());
            inc_cls.push(run_streaming(&in_memory).2.classify_ms);
        } else {
            inc_cls.push(run_streaming(&in_memory).2.classify_ms);
            batch_cls.push(run_batch_classify());
        }
    }
    // Min, not median: both stages are sub-15 ms on a box whose clock swings
    // ~2x under load, so the minimum is the only noise-robust estimator of
    // the work actually done.
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let batch_classify_ms = min(&batch_cls);
    let incremental_classify_ms = min(&inc_cls);
    let classify_overhead_vs_batch_pct =
        (incremental_classify_ms / batch_classify_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    let snapshot_ms = stream_timings.snapshot_ms;
    let snapshot_ms_per_window = snapshot_ms / snapshot_windows as f64;
    println!(
        "streaming (chunk {chunk_users} users, threads 1): {streaming_ms:.1} ms in-memory, \
         {streaming_ckpt_ms:.1} ms checkpointed ({checkpoint_overhead_ms:+.1} ms / \
         {checkpoint_overhead_pct:+.1}% checkpoint cost, \
         {overhead_vs_batch_pct:+.1}% vs batch, {visits_per_sec:.0} visits/s durable; \
         incremental classify {incremental_classify_ms:.2} ms \
         [{classify_overhead_vs_batch_pct:+.1}% vs batch], \
         {snapshot_windows} snapshots {snapshot_ms:.2} ms total)"
    );
    // --- Rule-engine microbench: compiled Aho-Corasick engine vs the
    // naive per-rule oracle over a synthetic URL-dependent rule set (the
    // generated lists are all domain anchors, which both paths resolve
    // per-host; substring/path rules are where the automaton earns its
    // keep). Results are asserted equal while timing, so the speedup
    // number can never come from a divergent matcher.
    let (list, probes) = engine_workload(512, 4096, 97);
    let t_build = Instant::now();
    let mut engine = RuleEngine::compile(&[&list]);
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    let time_min5 = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        let mut hits = 0u64;
        for _ in 0..5 {
            let t = Instant::now();
            hits = f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (best, hits)
    };
    let (engine_match_ms, engine_hits) = time_min5(&mut || {
        probes
            .iter()
            .filter(|(host, url)| engine.matches(host, url))
            .count() as u64
    });
    let (oracle_match_ms, oracle_hits) = time_min5(&mut || {
        probes
            .iter()
            .filter(|(host, url)| list.matches(host, url))
            .count() as u64
    });
    assert_eq!(engine_hits, oracle_hits, "engine drifted from the rule oracle");
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
    });
    let runs: Vec<serde_json::Value> = measured
        .iter()
        .map(|(threads, wall_ms, t, n_visits)| {
            serde_json::json!({
                "threads": threads,
                "pipeline_ms": wall_ms,
                "study_ms": t.study_ms,
                "classify_ms": t.classify_ms,
                "completion_ms": t.completion_ms,
                "geolocate_ms": t.geolocate_ms,
                "total_ms": t.total_ms,
                "study_allocs": t.study_allocs,
                "study_alloc_bytes": t.study_alloc_bytes,
                "netflow_generate_ms": t.netflow_generate_ms,
                "netflow_match_ms": t.netflow_match_ms,
                "study_allocs_per_visit": t.study_allocs as f64 / (*n_visits).max(1) as f64,
                "study_speedup_vs_sequential": if t.study_ms > 0.0 { seq.2.study_ms / t.study_ms } else { 1.0 },
                "e2e_speedup_vs_sequential": if *wall_ms > 0.0 { seq.1 / wall_ms } else { 1.0 },
            })
        })
        .collect();
    let best_e2e = measured
        .iter()
        .map(|(_, wall_ms, _, _)| seq.1 / wall_ms.max(f64::MIN_POSITIVE))
        .fold(1.0f64, f64::max);
    let streaming_doc = serde_json::json!({
        "chunk_users": chunk_users,
        "threads": 1,
        "streaming_ms": streaming_ms,
        "streaming_ckpt_ms": streaming_ckpt_ms,
        "visits_per_sec": visits_per_sec,
        "checkpoint_overhead_ms": checkpoint_overhead_ms,
        "checkpoint_overhead_pct": checkpoint_overhead_pct,
        "overhead_vs_batch_pct": overhead_vs_batch_pct,
        "incremental_classify_ms": incremental_classify_ms,
        "classify_overhead_vs_batch_pct": classify_overhead_vs_batch_pct,
        "snapshot_windows": snapshot_windows,
        "snapshot_ms": snapshot_ms,
        "snapshot_ms_per_window": snapshot_ms_per_window,
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
    let doc = match serde_json::to_string_pretty(&doc) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_pipeline: FAIL — bench doc does not serialize: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("bench_pipeline: FAIL — cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out} (best e2e speedup vs sequential: {best_e2e:.2}x; {n_threads} threads available)");
}
