//! The ISP NetFlow scale-up study (Sect. 7, Tables 7–8, Fig. 12).
//!
//! The tracker-IP list built from a few hundred extension users is joined
//! against sampled NetFlow from four ISPs with 60M+ subscribers. The join
//! happens per IP (subscriber side anonymized to a country code);
//! geolocation of the matched tracker IPs then gives the destination mix
//! per ISP and per snapshot day.
//!
//! Since the scale-up refactor (DESIGN.md §5i) the study runs as a
//! sharded columnar workload: the tracker list is compiled once per
//! snapshot day into a [`TrackerIntervalSet`], each of the 16 (ISP, day)
//! cells generates its flows as [`FlowBlock`](xborder_netflow::FlowBlock)s
//! from its own hash-derived RNG stream against a read-only DNS view, and
//! cells are partitioned across the world's [`Parallelism`] budget under
//! `std::thread::scope`. Per-cell results — statistics *and* the pDNS
//! observations the per-view stub caches buffered — merge in canonical
//! cell order, so every thread budget and every block size produces
//! bit-identical results.
//!
//! [`Parallelism`]: crate::par::Parallelism

use crate::ips::TrackerIpSet;
use crate::pipeline::EstimateMap;
use crate::worldgen::World;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::IpAddr;
use xborder_dns::PdnsIdObservation;
use xborder_faults::{derive_stream_seed, Profile};
use xborder_geo::{CountryCode, Region};
use xborder_netflow::{
    generate_snapshot_blocks, IspProfile, SnapshotConfig, TrackerIntervalSet, DEFAULT_BLOCK_LEN,
};
use xborder_netsim::time::{anchors, SimTime};

/// The four snapshot days of Table 8.
pub fn snapshot_days() -> Vec<(&'static str, SimTime)> {
    vec![
        ("Nov 8", anchors::ISP_SNAPSHOT_NOV8),
        ("April 4", anchors::ISP_SNAPSHOT_APR4),
        ("May 16", anchors::ISP_SNAPSHOT_MAY16),
        ("June 20", anchors::ISP_SNAPSHOT_JUN20),
    ]
}

/// Study configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IspStudyConfig {
    /// Sampled page views generated for one "unit" of ISP size; each ISP
    /// gets `base_page_views × subscribers_m × web_activity`. The paper's
    /// absolute sampled-flow counts (Table 8, billions) scale linearly
    /// with this knob.
    pub base_page_views: f64,
    /// Seed for the traffic generation streams.
    pub seed: u64,
    /// Whether to scope matching with pDNS validity windows.
    pub use_validity_windows: bool,
    /// Records per columnar flow block. A pure performance knob: results
    /// are bit-identical for every value (pinned in tests).
    pub block_len: usize,
}

impl Default for IspStudyConfig {
    fn default() -> Self {
        IspStudyConfig {
            base_page_views: 400.0,
            seed: 0xC0FFEE,
            use_validity_windows: true,
            block_len: DEFAULT_BLOCK_LEN,
        }
    }
}

impl IspStudyConfig {
    /// Small configuration for tests.
    pub fn small() -> Self {
        IspStudyConfig {
            base_page_views: 40.0,
            ..Default::default()
        }
    }
}

/// One ISP × day cell of Table 8.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Sampled tracking flows matched.
    pub tracking_flows: u64,
    /// All sampled flows ingested.
    pub total_flows: u64,
    /// Tracking flows on web ports.
    pub web_flows: u64,
    /// Tracking flows on port 443.
    pub encrypted_flows: u64,
    /// Destination-region mix of the tracking flows (canonical order, so
    /// serialized reports are byte-stable).
    pub region_counts: BTreeMap<Region, u64>,
    /// Destination-country mix of the tracking flows (canonical order).
    pub country_counts: BTreeMap<CountryCode, u64>,
}

impl SnapshotStats {
    /// Share of tracking flows terminating in `region`.
    pub fn region_share(&self, region: Region) -> f64 {
        let total: u64 = self.region_counts.values().sum();
        if total == 0 {
            0.0
        } else {
            self.region_counts.get(&region).copied().unwrap_or(0) as f64 / total as f64
        }
    }

    /// Top-`n` destination countries by share (Fig. 12).
    pub fn top_countries(&self, n: usize) -> Vec<(CountryCode, f64)> {
        let total: u64 = self.country_counts.values().sum();
        let mut v: Vec<(CountryCode, f64)> = self
            .country_counts
            .iter()
            .map(|(c, k)| (*c, *k as f64 / total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// National confinement: share terminating in `home`.
    pub fn national_share(&self, home: CountryCode) -> f64 {
        let total: u64 = self.country_counts.values().sum();
        if total == 0 {
            0.0
        } else {
            self.country_counts.get(&home).copied().unwrap_or(0) as f64 / total as f64
        }
    }
}

/// Full study results: `results[isp_name][day_name]`, in canonical
/// (lexicographic) order so serialization is byte-stable.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IspStudyResults {
    /// Per-ISP, per-day statistics.
    pub cells: BTreeMap<String, BTreeMap<String, SnapshotStats>>,
    /// The run profile: per-cell flow generation (`netflow/generate`) and
    /// interval-set matching (`netflow/match`), summed over cells.
    /// Machine-dependent: zero it (`results.profile = Profile::default()`)
    /// before comparing serialized results.
    pub profile: Profile,
}

impl IspStudyResults {
    /// The stats cell for an ISP/day pair.
    pub fn cell(&self, isp: &str, day: &str) -> Option<&SnapshotStats> {
        self.cells.get(isp)?.get(day)
    }
}

/// What one (ISP, day) cell's worker hands back to the merge step.
struct CellOutput {
    stats: SnapshotStats,
    observations: Vec<PdnsIdObservation>,
    profile: Profile,
}

/// Runs the four-ISP, four-day study, sharding the 16 cells across the
/// world's `Parallelism` budget. The budget is a pure performance knob:
/// each cell is generated from its own hash-derived seed against
/// read-only shared state, and cell outputs (statistics and buffered pDNS
/// observations alike) merge in canonical cell order — bit-identical
/// results at every thread count and block size.
pub fn run_isp_study(
    world: &mut World,
    tracker_ips: &TrackerIpSet,
    estimates: &EstimateMap,
    cfg: &IspStudyConfig,
) -> IspStudyResults {
    let days = snapshot_days();
    let profiles = IspProfile::all();

    // Compile the tracker list once per snapshot day: same interval set
    // for every ISP of that day, replacing a per-cell HashSet + two
    // HashMaps. Windows scope *start*, matching stays open-ended past the
    // snapshot (the paper kept collecting through July 2018).
    let day_sets: Vec<TrackerIntervalSet> = days
        .iter()
        .map(|(_, day_start)| {
            TrackerIntervalSet::build(tracker_ips.ips.iter().filter_map(|(ip, info)| {
                let IpAddr::V4(v) = ip else { return None };
                let w = cfg.use_validity_windows.then(|| {
                    let mut w = info.window;
                    w.extend_to(SimTime(day_start.0 + 2 * 86_400));
                    w
                });
                Some((*v, w))
            }))
        })
        .collect();

    // Canonical cell order: ISP-major, day-minor — the merge order, and
    // the order the sequential path runs in.
    let cells: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|p| (0..days.len()).map(move |d| (p, d)))
        .collect();
    let threads = world.config.parallelism.threads.clamp(1, cells.len());

    let outputs: Vec<CellOutput> = {
        let graph = &world.graph;
        let view = world.dns.indexed_view(graph.domains());
        let run_cell = |&(p_idx, d_idx): &(usize, usize)| -> CellOutput {
            let profile = &profiles[p_idx];
            let (_, day_start) = days[d_idx];
            let n_views = (cfg.base_page_views * profile.subscribers_m * profile.web_activity)
                .round() as usize;
            let snap_cfg = SnapshotConfig {
                day_start,
                n_page_views: n_views.max(1),
                ..Default::default()
            };
            // Per-cell stream (PR 3 pattern): any shard owning this cell
            // generates the same flows.
            let cell_seed =
                derive_stream_seed(cfg.seed, ((p_idx as u64) << 32) | d_idx as u64);
            let set = &day_sets[d_idx];
            let mut bstats = set.new_stats();
            let mut cell_profile = Profile::default();
            let gen = cell_profile.span("netflow/generate", |p| {
                generate_snapshot_blocks(
                    profile,
                    &snap_cfg,
                    graph,
                    &view,
                    cell_seed,
                    cfg.block_len.max(1),
                    |block| p.span("netflow/match", |_| set.match_block(block, &mut bstats)),
                )
            });
            let matched = bstats.to_match_stats(set);

            // Join matched IP counters with geolocation.
            let mut stats = SnapshotStats {
                tracking_flows: matched.tracking_flows,
                total_flows: matched.total_flows,
                web_flows: matched.tracking_web_flows,
                encrypted_flows: matched.tracking_encrypted_flows,
                ..Default::default()
            };
            for (ip, n) in &matched.per_ip {
                if let Some(est) = estimates.get(ip) {
                    *stats.region_counts.entry(est.region()).or_insert(0) += n;
                    *stats.country_counts.entry(est.country).or_insert(0) += n;
                }
            }
            CellOutput {
                stats,
                observations: gen.id_observations,
                profile: cell_profile,
            }
        };

        if threads == 1 {
            cells.iter().map(run_cell).collect()
        } else {
            // Contiguous cell runs per worker; outputs keep cell order.
            let per = cells.len().div_ceil(threads);
            let run_cell = &run_cell;
            std::thread::scope(|s| {
                let handles: Vec<_> = cells
                    .chunks(per)
                    .map(|chunk| s.spawn(move || chunk.iter().map(run_cell).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("ISP study worker panicked"))
                    .collect()
            })
        }
    };

    // Merge in canonical cell order: results into the table, buffered
    // pDNS observations into the central database (the replay the
    // read-only view deferred).
    let mut results = IspStudyResults::default();
    for (&(p_idx, d_idx), out) in cells.iter().zip(outputs) {
        world
            .dns
            .absorb_id_observations(&out.observations, world.graph.domains());
        results.profile.absorb(&out.profile);
        results
            .cells
            .entry(profiles[p_idx].name.to_owned())
            .or_default()
            .insert(days[d_idx].0.to_owned(), out.stats);
    }
    results
}

/// The paper's "rest of world" share: everything outside EU28, North
/// America, Rest-of-Europe and Asia.
pub fn rest_world_share(stats: &SnapshotStats) -> f64 {
    let known = stats.region_share(Region::Eu28)
        + stats.region_share(Region::NorthAmerica)
        + stats.region_share(Region::RestOfEurope)
        + stats.region_share(Region::Asia);
    (1.0 - known).max(0.0)
}

/// Scales a sampled flow count to the estimated total, given the ISP's
/// packet-sampling interval (the paper quotes >1 trillion daily flows for
/// DE-Broadband from ~1 billion sampled).
pub fn estimated_total_flows(sampled: u64, sampling_interval: u16) -> u64 {
    sampled.saturating_mul(sampling_interval as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_extension_pipeline;
    use crate::worldgen::WorldConfig;
    use xborder_geo::cc;

    fn study() -> (IspStudyResults, CountryCode) {
        let mut world = World::build(WorldConfig::small(17));
        let out = run_extension_pipeline(&mut world);
        let results = run_isp_study(
            &mut world,
            &out.tracker_ips,
            &out.ipmap_estimates,
            &IspStudyConfig::small(),
        );
        (results, cc!("DE"))
    }

    #[test]
    fn all_cells_populated() {
        let (r, _) = study();
        for isp in ["DE-Broadband", "DE-Mobile", "PL", "HU"] {
            for (day, _) in snapshot_days() {
                let cell = r.cell(isp, day).unwrap_or_else(|| panic!("{isp}/{day} missing"));
                assert!(cell.total_flows > 0, "{isp}/{day} empty");
            }
        }
    }

    #[test]
    fn tracking_flows_are_matched_and_mostly_web() {
        let (r, _) = study();
        let cell = r.cell("DE-Broadband", "April 4").unwrap();
        assert!(cell.tracking_flows > 50, "only {} tracking flows", cell.tracking_flows);
        // >99.5 % of tracking flows are web in the paper; ours are 100 %
        // by construction of the generator, background never matches.
        assert!(cell.web_flows as f64 / cell.tracking_flows as f64 > 0.99);
        // Encrypted share ~83 %.
        let enc = cell.encrypted_flows as f64 / cell.tracking_flows as f64;
        assert!((0.6..0.95).contains(&enc), "encrypted share {enc}");
    }

    #[test]
    fn de_broadband_has_most_flows() {
        let (r, _) = study();
        let de_b = r.cell("DE-Broadband", "Nov 8").unwrap().tracking_flows;
        let de_m = r.cell("DE-Mobile", "Nov 8").unwrap().tracking_flows;
        let pl = r.cell("PL", "Nov 8").unwrap().tracking_flows;
        assert!(de_b > de_m, "DE-B {de_b} <= DE-M {de_m}");
        assert!(de_b > pl, "DE-B {de_b} <= PL {pl}");
    }

    #[test]
    fn eu28_dominates_destinations() {
        let (r, _) = study();
        for isp in ["DE-Broadband", "DE-Mobile", "HU"] {
            let cell = r.cell(isp, "April 4").unwrap();
            let eu = cell.region_share(Region::Eu28);
            assert!(eu > 0.5, "{isp} EU28 share {eu}");
        }
    }

    #[test]
    fn top_countries_are_sorted_and_bounded() {
        let (r, _) = study();
        let cell = r.cell("DE-Broadband", "April 4").unwrap();
        let top = cell.top_countries(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let sum: f64 = top.iter().map(|(_, s)| s).sum();
        assert!(sum <= 1.0 + 1e-9);
    }

    #[test]
    fn estimated_totals_scale_by_sampling() {
        assert_eq!(estimated_total_flows(1_000, 1000), 1_000_000);
        assert_eq!(estimated_total_flows(u64::MAX, 2), u64::MAX);
    }

    #[test]
    fn rest_world_is_residual() {
        let (r, _) = study();
        let cell = r.cell("PL", "May 16").unwrap();
        let rest = rest_world_share(cell);
        assert!((0.0..=1.0).contains(&rest));
    }
}
