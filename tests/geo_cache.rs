//! The geolocation assignment cache is a pure performance knob.
//!
//! DESIGN.md §5e: memoizing landmark baselines and nearest-`k` probe
//! assignments per location must never change an output bit — not an
//! estimate, not a fault counter — at any thread budget, with the cache
//! enabled or force-disabled. These tests pin that:
//!
//! 1. With the cache on (the default), thread budgets {1, 2, 8} produce
//!    bit-identical fingerprints *and* identical full `DegradationReport`s
//!    — including the cache counters themselves, which are constructed to
//!    be budget-invariant (fills and index visits counted only by
//!    insert-race winners).
//! 2. With the cache force-disabled (`IpMapConfig::disable_assign_cache`),
//!    every budget still reproduces the cached fingerprint exactly; only
//!    the cache counters differ (zero hits/misses, strictly more index
//!    probe visits, since nothing is memoized).
//! 3. The counters populate: tracker IPs share PoP locations, so a real
//!    run must record both misses (distinct locations) and hits (repeats).
//! 4. On the reference `small(11)` world the counters and the probes
//!    assigned are pinned exactly, and a freeze over the IP list in
//!    reverse order reproduces the estimate map and every counter.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;
use xborder::pipeline::{
    freeze_estimates_degraded, run_extension_pipeline, run_extension_pipeline_degraded,
    StudyOutputs,
};
use xborder::{World, WorldConfig};
use xborder_faults::{DegradationReport, FaultInjector, FaultPlan, Profile};
use xborder_geoloc::IpMap;

/// FNV-fold over the geolocation-relevant output surface: tracker-IP set
/// plus all three provider estimate maps.
fn fingerprint(out: &StudyOutputs) -> u64 {
    let fold = |h: u64, s: &str| {
        s.bytes()
            .fold(h, |h, b| h.wrapping_mul(1_099_511_628_211).wrapping_add(b as u64))
    };
    let mut ips: Vec<IpAddr> = out.tracker_ips.ips.keys().copied().collect();
    ips.sort();
    let mut h = out.dataset.requests.len() as u64;
    for ip in &ips {
        h = fold(h, &ip.to_string());
        for map in [
            &out.ipmap_estimates,
            &out.maxmind_estimates,
            &out.ipapi_estimates,
        ] {
            h = fold(h, map.get(ip).map_or("-", |e| e.country.as_str()));
        }
    }
    h
}

/// Small world (mirrors parallel_determinism.rs's tiny_config) so the
/// seeds × plans × budgets × cache-setting sweep stays fast.
fn tiny_config(seed: u64, threads: usize, disable_cache: bool) -> WorldConfig {
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
    cfg.ipmap.disable_assign_cache = disable_cache;
    cfg.with_threads(threads)
}

fn run(cfg: WorldConfig, plan: &FaultPlan) -> (u64, DegradationReport) {
    let mut world = World::build(cfg);
    let (out, mut report) = run_extension_pipeline_degraded(&mut world, plan);
    // Wall-clock is the one field allowed to differ between runs.
    report.profile = Profile::default();
    (fingerprint(&out), report)
}

#[test]
fn assign_cache_is_bit_transparent_across_thread_budgets() {
    for seed in [5u64, 11] {
        for plan in [FaultPlan::none(), FaultPlan::aggressive(seed)] {
            let (base_fp, base_report) = run(tiny_config(seed, 1, false), &plan);

            // Counters populate on a real run: distinct tracker locations
            // fill the cache, co-located tracker IPs hit it.
            assert!(base_report.geoloc_assign_cache_misses > 0, "seed {seed}");
            assert!(base_report.geoloc_assign_cache_hits > 0, "seed {seed}");
            assert!(base_report.geoloc_index_probe_visits > 0, "seed {seed}");

            // Cache on: full-report equality across budgets, cache
            // counters included.
            for threads in [2usize, 8] {
                let (fp, report) = run(tiny_config(seed, threads, false), &plan);
                assert_eq!(fp, base_fp, "seed {seed} threads {threads}");
                assert_eq!(report, base_report, "seed {seed} threads {threads}");
            }

            // Cache force-disabled: same outputs at every budget; only the
            // cache counters move (no traffic, strictly more index work).
            for threads in [1usize, 2, 8] {
                let (fp, mut report) = run(tiny_config(seed, threads, true), &plan);
                assert_eq!(fp, base_fp, "seed {seed} threads {threads} uncached");
                assert_eq!(report.geoloc_assign_cache_hits, 0);
                assert_eq!(report.geoloc_assign_cache_misses, 0);
                assert!(
                    report.geoloc_index_probe_visits > base_report.geoloc_index_probe_visits,
                    "disabling the cache cannot reduce index work \
                     (seed {seed} threads {threads})"
                );
                report.geoloc_assign_cache_hits = base_report.geoloc_assign_cache_hits;
                report.geoloc_assign_cache_misses = base_report.geoloc_assign_cache_misses;
                report.geoloc_index_probe_visits = base_report.geoloc_index_probe_visits;
                assert_eq!(report, base_report, "seed {seed} threads {threads} uncached");
            }
        }
    }
}

/// The reference world's geolocation work, counted: assignment-cache hits,
/// misses (distinct anchor and target locations), grid-index probe visits
/// and probes assigned, at threads=1. A memo that skipped or doubled a
/// lookup, or counted a fill twice, moves one of these.
#[test]
fn small11_geolocation_counters_are_pinned() {
    for (plan, want) in [
        (FaultPlan::none(), [1691u64, 289, 28805, 52800]),
        (FaultPlan::aggressive(11), [1460, 334, 33784, 47840]),
    ] {
        let mut world = World::build(WorldConfig::small(11).with_threads(1));
        let (_, report) = run_extension_pipeline_degraded(&mut world, &plan);
        let got = [
            report.geoloc_assign_cache_hits,
            report.geoloc_assign_cache_misses,
            report.geoloc_index_probe_visits,
            report.probes_assigned,
        ];
        assert_eq!(
            got, want,
            "plan {plan:?}: [hits, misses, index probe visits, probes assigned]"
        );
    }
}

/// Each IP's estimate is a function of the IP alone, and the counters are
/// counts over the set of lookups: freezing the tracker IPs in reverse
/// order gives the same map and the same counters, with and without
/// faults.
#[test]
fn freeze_is_independent_of_ip_order() {
    let mut world = World::build(WorldConfig::small(11).with_threads(1));
    let out = run_extension_pipeline(&mut world);
    let mut ips: Vec<IpAddr> = out.tracker_ips.ips.keys().copied().collect();
    ips.sort();
    for plan in [FaultPlan::none(), FaultPlan::aggressive(11)] {
        let inj = FaultInjector::new(plan);
        let freeze = |ips: &[IpAddr]| {
            let ipmap = IpMap::new(world.config.ipmap, &world.infra, &mut StdRng::seed_from_u64(7));
            let mut report = DegradationReport::default();
            let map = freeze_estimates_degraded(&ipmap, ips, &inj, &mut report);
            (map, report, ipmap.assign_cache_stats())
        };
        let forward = freeze(&ips);
        let reversed: Vec<IpAddr> = ips.iter().rev().copied().collect();
        let backward = freeze(&reversed);
        assert!(!forward.0.is_empty());
        assert_eq!(forward.0, backward.0, "estimate map depends on IP order");
        assert_eq!(forward.1, backward.1, "fault counters depend on IP order");
        assert_eq!(forward.2, backward.2, "cache counters depend on IP order");
    }
}
