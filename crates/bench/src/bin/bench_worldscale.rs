//! Worldscale bench: the out-of-core segmented driver at population scales
//! the batch pipeline cannot hold resident, written to
//! `BENCH_worldscale.json` (run from the repo root; see ci.sh).
//!
//! Sweeps users 10⁴/10⁵/10⁶ (capped by `XBORDER_WORLDSCALE_MAX_USERS` for
//! CI smoke runs) × segment sizes. Each row runs three times and records
//! the median run's wall time, users/sec and per-layer profile (with the
//! classifier's resident bytes and, through the shared counting
//! allocator, each layer's allocations), a `spread` map with the
//! `[min, max]` of `run_ms`, `users_per_sec` and every
//! `profile.{layer}.wall_ms` over the three, and the row's own process
//! high-water mark (`VmHWM`): the mark is reset through
//! `/proc/self/clear_refs` before every repeat, so a repeat reports what
//! its world build and run needed, not what an earlier one left behind,
//! and the row keeps the largest. Every repeat at a scale, at both
//! segment sizes, must land on the same [`ScaleOutputs::fingerprint`]
//! (the knob-invariance contract of DESIGN.md §5j at bench scale), so a
//! fast-but-wrong run cannot be reported.
//!
//! [`ScaleOutputs::fingerprint`]: xborder::worldscale::ScaleOutputs::fingerprint

#[path = "../counting_alloc.rs"]
mod counting_alloc;

use std::time::Instant;
use xborder::worldscale::{run_worldscale_pipeline, ScaleConfig};
use xborder::{Parallelism, World, WorldConfig};
use xborder_bench::{layer_spreads, spread};
use xborder_faults::{FaultPlan, KillSwitch, Profile};

/// Timed repeats per row; the row records the median.
const REPEATS: usize = 3;

/// One timed run of a row.
struct Repeat {
    build_ms: f64,
    run_ms: f64,
    hwm: Option<u64>,
    requests: usize,
    segments: usize,
    profile: Profile,
}

/// `VmHWM` (peak resident set size) from `/proc/self/status`, in bytes.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets `VmHWM` to the current resident set size (Linux ≥ 4.0);
/// `false` when `/proc` refuses, in which case the mark stays monotone
/// over the process and cannot be attributed to one row.
fn reset_vm_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn main() {
    counting_alloc::install();
    let n_threads = Parallelism::from_env().threads;
    let cap: usize = std::env::var("XBORDER_WORLDSCALE_MAX_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let scales: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    assert!(
        !scales.is_empty(),
        "XBORDER_WORLDSCALE_MAX_USERS below the smallest scale (1e4)"
    );
    let seed = 0x5CA1Eu64;
    let plan = FaultPlan::none();

    let mut runs: Vec<serde_json::Value> = Vec::new();
    let mut headline_users_per_sec = 0.0f64;
    for &users in &scales {
        let mut fingerprints: Vec<u64> = Vec::new();
        for &segment_users in &[5_000usize, 20_000] {
            let mut repeats: Vec<Repeat> = (0..REPEATS)
                .map(|_| {
                    let hwm_reset = reset_vm_hwm();
                    let t = Instant::now();
                    let mut world = World::build(WorldConfig::large(seed, users));
                    let build_ms = t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    let (out, report) = run_worldscale_pipeline(
                        &mut world,
                        &plan,
                        &ScaleConfig::in_memory(segment_users),
                        &KillSwitch::none(),
                    )
                    .expect("worldscale bench run succeeds");
                    let run_ms = t.elapsed().as_secs_f64() * 1e3;
                    let hwm = if hwm_reset { vm_hwm_bytes() } else { None };
                    assert_eq!(out.stats.n_users, users, "driver lost users");
                    fingerprints.push(out.fingerprint());
                    Repeat {
                        build_ms,
                        run_ms,
                        hwm,
                        requests: out.stats.n_third_party_requests,
                        segments: out.n_segments,
                        profile: report.profile,
                    }
                })
                .collect();
            let per_sec = |run_ms: f64| users as f64 / (run_ms / 1e3).max(f64::MIN_POSITIVE);
            let mut spreads = layer_spreads("profile", repeats.iter().map(|r| &r.profile));
            spreads.insert("run_ms".into(), spread(repeats.iter().map(|r| r.run_ms)));
            spreads.insert(
                "users_per_sec".into(),
                spread(repeats.iter().map(|r| per_sec(r.run_ms))),
            );
            // Every repeat's mark, or none if one could not be reset.
            let hwm = repeats.iter().map(|r| r.hwm).collect::<Option<Vec<u64>>>();
            let hwm = hwm.and_then(|marks| marks.into_iter().max());
            repeats.sort_by(|a, b| a.run_ms.total_cmp(&b.run_ms));
            let median = repeats.swap_remove(REPEATS / 2);
            let users_per_sec = per_sec(median.run_ms);
            let hwm_mib = hwm.map_or("n/a".to_string(), |b| {
                format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0))
            });
            println!(
                "{users} users, segment {segment_users}: {:.0} ms median of {REPEATS} \
                 ({:.0}..{:.0}; +{:.0} ms world build; {users_per_sec:.2e} users/s, \
                 {} requests, VmHWM {hwm_mib})",
                median.run_ms,
                spreads["run_ms"][0],
                spreads["run_ms"][1],
                median.build_ms,
                median.requests,
            );
            if users == *scales.last().unwrap() && segment_users == 20_000 {
                headline_users_per_sec = users_per_sec;
            }
            runs.push(serde_json::json!({
                "users": users,
                "segment_users": segment_users,
                "build_ms": median.build_ms,
                "run_ms": median.run_ms,
                "users_per_sec": users_per_sec,
                "requests": median.requests,
                "segments": median.segments,
                "vm_hwm_bytes": hwm,
                "profile": median.profile,
                "spread": spreads,
            }));
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "segment size changed the fingerprint at {users} users: {fingerprints:?}"
        );
    }

    let doc = serde_json::json!({
        "bench": "worldscale",
        "threads_available": n_threads,
        "worldscale_users_per_sec": headline_users_per_sec,
        "runs": runs,
    });
    let out = "BENCH_worldscale.json";
    xborder_bench::write_bench_doc(out, &doc);
    println!(
        "wrote {out} ({headline_users_per_sec:.2e} users/s headline at {} users / \
         segment 20000; {n_threads} threads available)",
        scales.last().unwrap()
    );
}
