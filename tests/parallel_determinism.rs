//! The determinism contract: the thread budget is a pure performance knob.
//!
//! `XBORDER_THREADS` (i.e. `WorldConfig::parallelism`) may shard the
//! extension study itself, stage-1 blocklist matching and the three
//! provider freezes, but it must never change a single output bit — not a
//! label, not an estimate, not a degradation counter. These tests pin that
//! contract:
//!
//! 1. Across ≥5 world seeds, under both `FaultPlan::none()` and an
//!    aggressive plan, thread budgets {1, 2, 8} produce bit-identical
//!    `StudyOutputs` fingerprints *and* identical `DegradationReport`s
//!    (profile zeroed — wall-clock is observational, not contractual).
//! 2. At the golden seed (`WorldConfig::small(11)`), every thread budget
//!    reproduces the pre-PR sequential pipeline's fingerprint exactly.
//!
//! Why this holds: every sharded unit of work depends only on its own
//! entity — study users draw from hash-derived `(study_seed, user_id)`
//! streams and resolve through private DNS caches, fault coins are
//! hash-derived from `(plan seed, class, entity key)`, per-IP measurement
//! RNG is seeded from the address, and stage-1 verdicts are per-request —
//! while all world-RNG draws stay sequential on the orchestrating thread.
//! Merges use original-index order (user-order concatenation with referrer
//! rebasing, pDNS replay in user order), and report counters commute under
//! addition.

use std::net::IpAddr;
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::{World, WorldConfig};
use xborder_classify::MethodCounts;
use xborder_faults::{DegradationReport, FaultPlan, Profile};

/// FNV-fold over every output surface the pipeline produces: request log
/// shape, Table-2 counts, tracker-IP set, and *all three* provider
/// estimate maps (the fault_injection golden only folds IPmap).
#[derive(Debug, PartialEq, Clone)]
struct Fingerprint {
    requests: usize,
    visits: usize,
    abp: u64,
    semi: u64,
    /// `(n_fqdn, n_tld, n_unique_urls)` of the ABP and semi rows.
    abp_distinct: [usize; 3],
    semi_distinct: [usize; 3],
    /// `(stage2_rounds, stage3_rounds)`.
    rounds: (usize, usize),
    trackers: usize,
    added: usize,
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
                // A miss is part of the output too.
                *slot = fold(*slot, "-");
            }
        }
    }
    Fingerprint {
        requests: out.dataset.requests.len(),
        visits: out.dataset.visits.len(),
        abp: out.classification.abp.n_total_requests as u64,
        semi: out.classification.semi.n_total_requests as u64,
        abp_distinct: distinct(&out.classification.abp),
        semi_distinct: distinct(&out.classification.semi),
        rounds: (
            out.classification.stage2_rounds,
            out.classification.stage3_rounds,
        ),
        trackers: out.tracker_ips.len(),
        added: out.completion.n_added,
        ip_hash,
        ipmap_hash: est[0],
        maxmind_hash: est[1],
        ipapi_hash: est[2],
    }
}

fn distinct(c: &MethodCounts) -> [usize; 3] {
    [c.n_fqdn, c.n_tld, c.n_unique_urls]
}

/// Small world (mirrors fault_injection.rs's tiny_config) so the
/// 5-seeds × 2-plans × 3-budgets sweep stays fast.
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

fn run(cfg: WorldConfig, plan: &FaultPlan) -> (Fingerprint, DegradationReport) {
    let mut world = World::build(cfg);
    let (out, mut report) = run_extension_pipeline_degraded(&mut world, plan);
    // Wall-clock is the one field allowed to differ across budgets.
    report.profile = Profile::default();
    (fingerprint(&out), report)
}

#[test]
fn thread_budget_never_changes_outputs() {
    for seed in [1u64, 3, 7, 11, 23] {
        for plan in [FaultPlan::none(), FaultPlan::aggressive(seed)] {
            let (base_fp, base_report) = run(tiny_config(seed).with_threads(1), &plan);
            // An odd budget too: each provider freeze then shards three ways.
            for threads in [2usize, 3, 8] {
                let (fp, report) = run(tiny_config(seed).with_threads(threads), &plan);
                assert_eq!(
                    fp, base_fp,
                    "outputs drifted at seed {seed}, threads {threads}, plan {plan:?}"
                );
                assert_eq!(
                    report, base_report,
                    "degradation report drifted at seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// Golden constants mirrored from tests/fault_injection.rs — the
/// fingerprint of `WorldConfig::small(11)` captured from the sequential
/// run of the per-user-stream study driver (DESIGN.md §5d). Every thread
/// budget must reproduce them.
const GOLDEN_REQUESTS: usize = 92_125;
const GOLDEN_ABP: u64 = 57_405;
const GOLDEN_SEMI: u64 = 11_310;
const GOLDEN_TRACKERS: usize = 660;
/// Table 2's distinct columns `(n_fqdn, n_tld, n_unique_urls)` and the
/// fixpoint rounds `(stage2, stage3)` of the same run.
const GOLDEN_ABP_DISTINCT: [usize; 3] = [157, 57, 34_435];
const GOLDEN_SEMI_DISTINCT: [usize; 3] = [78, 22, 7_263];
const GOLDEN_ROUNDS: (usize, usize) = (1, 0);
const GOLDEN_IP_HASH: u64 = 9_725_130_701_688_395_146;

#[test]
fn every_thread_budget_matches_the_sequential_golden() {
    let mut fps = Vec::new();
    for threads in [1usize, 2, 8] {
        let (fp, _) = run(
            WorldConfig::small(11).with_threads(threads),
            &FaultPlan::none(),
        );
        assert_eq!(fp.requests, GOLDEN_REQUESTS, "threads {threads}");
        assert_eq!(fp.abp, GOLDEN_ABP, "threads {threads}");
        assert_eq!(fp.semi, GOLDEN_SEMI, "threads {threads}");
        assert_eq!(fp.abp_distinct, GOLDEN_ABP_DISTINCT, "threads {threads}");
        assert_eq!(fp.semi_distinct, GOLDEN_SEMI_DISTINCT, "threads {threads}");
        assert_eq!(fp.rounds, GOLDEN_ROUNDS, "threads {threads}");
        assert_eq!(fp.trackers, GOLDEN_TRACKERS, "threads {threads}");
        assert_eq!(fp.ip_hash, GOLDEN_IP_HASH, "threads {threads}");
        fps.push(fp);
    }
    // All three provider maps bit-identical across budgets.
    assert_eq!(fps[0], fps[1]);
    assert_eq!(fps[0], fps[2]);
}
