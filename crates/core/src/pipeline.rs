//! The end-to-end measurement pipeline: study → classification → IP set →
//! geolocation.
//!
//! [`run_extension_pipeline`] is the workhorse behind every figure that
//! uses extension data: it runs the simulated 4.5-month study, classifies
//! the request log, completes the tracker IP set through passive DNS, and
//! geolocates every tracker IP with all three providers.

use crate::ips::{CompletionStats, TrackerFold, TrackerIpSet};
use crate::worldgen::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::IpAddr;
use xborder_browser::{run_study_sharded, ExtensionDataset};
use xborder_classify::{
    classify_with_stages_threads, generate_lists, ClassificationResult, ClassifierStages,
    FilterList,
};
use xborder_faults::{shard_map, DegradationReport, FaultInjector, FaultPlan, Profile};
use xborder_geo::Region;
use xborder_geoloc::{GeoEstimate, Geolocator, IpMap, RegistryDb, RegistryStyle};

/// Per-provider frozen estimates over the tracker IP set.
pub type EstimateMap = HashMap<IpAddr, GeoEstimate>;

/// Everything the downstream analyses consume.
pub struct StudyOutputs {
    /// The simulated extension dataset.
    pub dataset: ExtensionDataset,
    /// Per-request tracking labels and Table-2 counts.
    pub classification: ClassificationResult,
    /// The generated easylist analogue (kept for ablations).
    pub easylist: FilterList,
    /// The generated easyprivacy analogue.
    pub easyprivacy: FilterList,
    /// Tracker IPs (observed + pDNS-completed) with validity windows.
    pub tracker_ips: TrackerIpSet,
    /// pDNS completion summary (Sect. 3.3 numbers).
    pub completion: CompletionStats,
    /// IPmap estimates per tracker IP.
    pub ipmap_estimates: EstimateMap,
    /// MaxMind-style estimates per tracker IP.
    pub maxmind_estimates: EstimateMap,
    /// ip-api-style estimates per tracker IP.
    pub ipapi_estimates: EstimateMap,
    /// Rolling-window snapshots emitted during streaming ingestion
    /// (DESIGN.md §5g); empty for the batch pipeline, which publishes one
    /// report at the end instead.
    pub snapshots: Vec<crate::snapshots::RollingSnapshot>,
}

/// Freezes a provider's answers over an IP list into a map.
pub fn freeze_estimates<G: Geolocator + ?Sized>(provider: &G, ips: &[IpAddr]) -> EstimateMap {
    let inj = FaultInjector::inactive();
    let mut report = DegradationReport::default();
    freeze_estimates_degraded(provider, ips, &inj, &mut report)
}

/// [`freeze_estimates`] under fault injection: provider misses (and, for
/// IPmap, probe outages and quorum abstentions) leave gaps in the map and
/// are tallied in `report`.
pub fn freeze_estimates_degraded<G: Geolocator + ?Sized>(
    provider: &G,
    ips: &[IpAddr],
    inj: &FaultInjector,
    report: &mut DegradationReport,
) -> EstimateMap {
    ips.iter()
        .filter_map(|ip| {
            provider
                .locate_degraded(*ip, inj, report)
                .map(|e| (*ip, e))
        })
        .collect()
}

/// The geolocation stage, shared verbatim by the batch and streaming
/// drivers: freezes all three providers over the sorted tracker IP list.
///
/// All world-RNG draws come first, in a fixed order: the IPmap build
/// consumes `rng`, then the registry seeds are drawn. The freezes never
/// touch `rng` (per-IP measurement RNG is seeded from the address, fault
/// coins are hash-derived per entity), which is what lets each one shard
/// the IP list over the whole thread budget ([`shard_map`]). IPmap,
/// MaxMind and ip-api freeze in turn and their counters are absorbed in
/// that order; the first run's map is kept and later runs extend it.
pub(crate) fn geolocate_providers(
    world: &World,
    rng: &mut StdRng,
    tracker_ips: &TrackerIpSet,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    threads: usize,
) -> (EstimateMap, EstimateMap, EstimateMap) {
    let ip_list: Vec<IpAddr> = {
        let mut v: Vec<IpAddr> = tracker_ips.ips.keys().copied().collect();
        v.sort();
        v
    };
    let ipmap = IpMap::new(world.config.ipmap, &world.infra, rng);
    // MaxMind and ip-api share their seat-vs-truth coin (correlated errors,
    // Table 3) but perturb independently.
    let seat_seed: u64 = rng.gen();
    let mm_noise_seed: u64 = rng.gen();
    let ia_noise_seed: u64 = rng.gen();
    let registry = |style: RegistryStyle, noise_seed: u64| {
        let mut seat = StdRng::seed_from_u64(seat_seed);
        let mut noise = StdRng::seed_from_u64(noise_seed);
        RegistryDb::build(style, &world.infra, &mut seat, &mut noise)
    };
    let mut freeze = |provider: &(dyn Geolocator + Sync)| {
        let mut runs = shard_map(ip_list.len(), threads, |run| {
            let mut r = DegradationReport::default();
            (freeze_estimates_degraded(provider, &ip_list[run], inj, &mut r), r)
        })
        .into_iter();
        let (mut map, r) = runs.next().expect("shard_map returns at least one run");
        report.absorb_counters(&r);
        for (m, r) in runs {
            map.extend(m);
            report.absorb_counters(&r);
        }
        map
    };
    let ipmap_estimates = freeze(&ipmap);
    let maxmind_estimates = freeze(&registry(RegistryStyle::MaxMindLike, mm_noise_seed));
    let ipapi_estimates = freeze(&registry(RegistryStyle::IpApiLike, ia_noise_seed));
    // Assignment-cache counters accumulate inside the IpMap (shared
    // read-only across the shard threads); snapshot them into the report
    // after the freeze. Budget-invariant by construction (DESIGN.md §5e).
    let cache_stats = ipmap.assign_cache_stats();
    report.geoloc_assign_cache_hits = cache_stats.hits;
    report.geoloc_assign_cache_misses = cache_stats.misses;
    report.geoloc_index_probe_visits = cache_stats.index_probe_visits;
    (ipmap_estimates, maxmind_estimates, ipapi_estimates)
}

/// Runs the full extension pipeline against a built world.
///
/// Consumes the world's dedicated study RNG stream, so repeated calls on
/// the same `World` value continue the stream (build a fresh `World` for a
/// bit-identical rerun).
pub fn run_extension_pipeline(world: &mut World) -> StudyOutputs {
    run_extension_pipeline_degraded(world, &FaultPlan::none()).0
}

/// Runs the full extension pipeline under a fault plan.
///
/// This is the single implementation: [`run_extension_pipeline`] is this
/// function at [`FaultPlan::none`], which keeps every fault coin cold and
/// the RNG streams bit-identical to the fault-free pipeline. Returns the
/// outputs together with a [`DegradationReport`] quantifying what the
/// faults cost: delivery coverage, DNS retry pressure, pDNS gaps, probe
/// outages, quorum abstentions, geolocation coverage, and the headline
/// EU28 confinement computed from whatever survived.
pub fn run_extension_pipeline_degraded(
    world: &mut World,
    plan: &FaultPlan,
) -> (StudyOutputs, DegradationReport) {
    let inj = FaultInjector::new(plan.clone());
    let mut report = DegradationReport::default();
    let mut profile = Profile::default();
    let threads = world.config.parallelism.threads.max(1);

    // 1. The 4.5-month study (in-path resolver faults, post-hoc log faults).
    // Users shard across threads: each has a private hash-derived RNG
    // stream and stub-resolver cache, so the budget never shows in the
    // output (DESIGN.md §5d). With a counting-allocator probe installed
    // (bench builds), the span books the study's allocation traffic.
    let (mut rng, dataset) = profile.span("study", |_| {
        let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
        let dataset = run_study_sharded(
            &world.config.study,
            &world.graph,
            &mut world.dns,
            &mut rng,
            &inj,
            &mut report,
            threads,
        );
        (rng, dataset)
    });

    // 2. Classification (Table 2). Stage-1 blocklist matching shards over
    // the request log; labels never depend on the split.
    let (easylist, easyprivacy, classification) = profile.span("classify", |_| {
        let (easylist, easyprivacy) = generate_lists(&world.graph);
        let classification = classify_with_stages_threads(
            &dataset.requests,
            &dataset.domains,
            &easylist,
            &easyprivacy,
            ClassifierStages::default(),
            threads,
        );
        (easylist, easyprivacy, classification)
    });

    // 3. Tracker IP set + pDNS completion (Sect. 3.3). One fold over the
    // tracking rows gives the observed set and the EU28 tally the headline
    // reads after geolocation.
    let (fold, tracker_ips, completion) = profile.span("completion", |profile| {
        let (fold, mut tracker_ips) = profile.span("fold", |_| {
            let fold = TrackerFold::over_log(&dataset, &classification);
            let tracker_ips = fold.tracker_ips(&dataset.domains);
            (fold, tracker_ips)
        });
        let completion =
            tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), &inj, &mut report);
        (fold, tracker_ips, completion)
    });

    // 4. Geolocation with all three providers (Sect. 3.4).
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) = profile.span("geolocate", |_| {
        geolocate_providers(world, &mut rng, &tracker_ips, &inj, &mut report, threads)
    });

    // Headline metric over whatever survived the faults, so drift can be
    // compared against a fault-free run of the same seed.
    report.eu28_confinement = profile
        .span("fold", |_| fold.eu28_breakdown(&ipmap_estimates))
        .share(Region::Eu28);
    report.profile = profile;
    let out = StudyOutputs {
        dataset,
        classification,
        easylist,
        easyprivacy,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        snapshots: Vec::new(),
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worldgen::WorldConfig;
    use xborder_geo::WORLD;

    fn outputs() -> (World, StudyOutputs) {
        let mut world = World::build(WorldConfig::small(11));
        let out = run_extension_pipeline(&mut world);
        (world, out)
    }

    #[test]
    fn pipeline_produces_tracking_flows() {
        let (_, out) = outputs();
        assert!(out.dataset.requests.len() > 1_000);
        assert!(out.classification.abp.n_total_requests > 0);
        assert!(out.classification.semi.n_total_requests > 0);
        assert!(!out.tracker_ips.is_empty());
    }

    #[test]
    fn completion_adds_a_small_fraction() {
        let (_, out) = outputs();
        let frac = out.completion.added_fraction();
        assert!(frac > 0.0, "pDNS completion added nothing");
        assert!(frac < 0.5, "pDNS completion added {frac}, too much");
    }

    #[test]
    fn every_tracker_ip_is_geolocated_by_ipmap() {
        let (_, out) = outputs();
        for ip in out.tracker_ips.ips.keys() {
            assert!(out.ipmap_estimates.contains_key(ip), "{ip} missing from IPmap");
            assert!(out.maxmind_estimates.contains_key(ip), "{ip} missing from MaxMind");
        }
    }

    #[test]
    fn ipmap_beats_registries_on_accuracy() {
        let (world, out) = outputs();
        let acc = |map: &EstimateMap| {
            let mut right = 0usize;
            let mut total = 0usize;
            for (ip, est) in map {
                if let Some(truth) = world.infra.true_country_of(*ip) {
                    total += 1;
                    if est.country == truth {
                        right += 1;
                    }
                }
            }
            right as f64 / total.max(1) as f64
        };
        let ipmap_acc = acc(&out.ipmap_estimates);
        let mm_acc = acc(&out.maxmind_estimates);
        assert!(
            ipmap_acc > mm_acc + 0.1,
            "ipmap {ipmap_acc} vs maxmind {mm_acc}"
        );
        assert!(ipmap_acc > 0.8, "ipmap accuracy {ipmap_acc}");
    }

    #[test]
    fn registries_agree_with_each_other() {
        let (_, out) = outputs();
        let mut agree = 0usize;
        let mut total = 0usize;
        for (ip, mm) in &out.maxmind_estimates {
            if let Some(ia) = out.ipapi_estimates.get(ip) {
                total += 1;
                if mm.country == ia.country {
                    agree += 1;
                }
            }
        }
        let share = agree as f64 / total.max(1) as f64;
        assert!(share > 0.9, "registry agreement {share}");
    }

    #[test]
    fn v4_dominates_tracker_ips() {
        let (_, out) = outputs();
        let v4 = out.tracker_ips.ips.keys().filter(|ip| ip.is_ipv4()).count();
        let share = v4 as f64 / out.tracker_ips.len() as f64;
        assert!(share > 0.9, "v4 share {share}");
    }

    #[test]
    fn eu28_users_exist_in_dataset() {
        let (_, out) = outputs();
        let eu = out
            .dataset
            .users
            .users
            .iter()
            .filter(|u| WORLD.country_or_panic(u.country).eu28)
            .count();
        assert!(eu > 5);
    }
}
