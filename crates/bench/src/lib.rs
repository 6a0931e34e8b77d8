//! Shared harness for the `repro` binary and the `bench_*` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use xborder::confine::{country_matrix_eu28, region_breakdown_eu28, region_matrix};
use xborder::dedicated::DedicatedAnalysis;
use xborder::ispstudy::{run_isp_study, IspStudyConfig, IspStudyResults};
use xborder::pipeline::run_extension_pipeline;
use xborder::sensitive::{detect_sensitive_sites, trace_sensitive_flows, DetectorConfig};
use xborder::whatif;
use xborder::{StudyOutputs, World, WorldConfig};
use xborder_faults::{profile::LAYERS, Profile};

/// Which configuration scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Test-sized world (seconds).
    Small,
    /// Paper-sized world (minutes).
    Paper,
}

impl Scale {
    /// Parses "small" / "paper".
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The world configuration at this scale.
    pub fn config(&self, seed: u64) -> WorldConfig {
        match self {
            Scale::Small => WorldConfig::small(seed),
            Scale::Paper => WorldConfig::paper_scale(seed),
        }
    }
}

/// Everything the repro targets need, computed once.
pub struct Repro {
    /// The built world.
    pub world: World,
    /// Extension-pipeline outputs.
    pub out: StudyOutputs,
}

impl Repro {
    /// Builds the world and runs the extension pipeline.
    pub fn run(scale: Scale, seed: u64) -> Repro {
        let mut world = World::build(scale.config(seed));
        let out = run_extension_pipeline(&mut world);
        Repro { world, out }
    }

    /// Region matrix over all users (Fig. 6).
    pub fn fig6(&self) -> xborder::confine::RegionMatrix {
        region_matrix(&self.out, &self.out.ipmap_estimates)
    }

    /// EU28 destination mixes under MaxMind and IPmap (Fig. 7).
    pub fn fig7(&self) -> (xborder::confine::DestBreakdown, xborder::confine::DestBreakdown) {
        (
            region_breakdown_eu28(&self.out, &self.out.maxmind_estimates),
            region_breakdown_eu28(&self.out, &self.out.ipmap_estimates),
        )
    }

    /// EU28 country matrix (Fig. 8).
    pub fn fig8(&self) -> xborder::confine::CountryMatrix {
        country_matrix_eu28(&self.out, &self.out.ipmap_estimates)
    }

    /// Dedicated-IP analysis (Figs. 4–5).
    pub fn dedicated(&self) -> DedicatedAnalysis {
        DedicatedAnalysis::run(&self.out, self.world.dns.pdns())
    }

    /// What-if scenarios (Tables 5–6).
    pub fn whatif(&self) -> whatif::WhatIfResults {
        whatif::run(&self.world, &self.out, &self.out.ipmap_estimates)
    }

    /// Sensitive-flow tracing (Figs. 9–11). Returns (sites, stats).
    pub fn sensitive(
        &self,
        seed: u64,
    ) -> (xborder::sensitive::SensitiveSites, xborder::sensitive::SensitiveFlowStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = detect_sensitive_sites(&self.world.graph, &DetectorConfig::default(), &mut rng);
        let stats = trace_sensitive_flows(&self.out, &sites, &self.out.ipmap_estimates);
        (sites, stats)
    }

    /// ISP study (Tables 7–8, Fig. 12).
    pub fn isp_study(&mut self, scale: Scale) -> IspStudyResults {
        let cfg = match scale {
            Scale::Small => IspStudyConfig::small(),
            Scale::Paper => IspStudyConfig::default(),
        };
        run_isp_study(
            &mut self.world,
            &self.out.tracker_ips,
            &self.out.ipmap_estimates,
            &cfg,
        )
    }

    /// Inter-tracker collaboration graph (paper future work).
    pub fn collab(&self) -> xborder::collab::CollabGraph {
        xborder::collab::CollabGraph::build(&self.world, &self.out, &self.out.ipmap_estimates)
    }
}

/// Headline metrics of one seeded run, for the stability study.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SeedMetrics {
    /// The seed.
    pub seed: u64,
    /// EU28 confinement of EU28 users' flows (IPmap estimates).
    pub eu28_confinement: f64,
    /// North-America share of EU28 users' flows.
    pub na_share: f64,
    /// Semi-automatic / blocklist request ratio (Table 2 expansion).
    pub semi_over_abp: f64,
    /// pDNS completion fraction.
    pub completion_fraction: f64,
}

/// Mean and (population) standard deviation of a metric across seeds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MeanStd {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
}

fn mean_std(values: impl Iterator<Item = f64> + Clone) -> MeanStd {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let var = values.map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    MeanStd { mean, std: var.sqrt() }
}

/// The multi-seed stability study: is the headline result a fluke of one
/// world, or a property of the model? Runs `n_seeds` independent small
/// worlds and reports per-metric mean ± std.
#[derive(Debug, Clone, Serialize)]
pub struct StabilityReport {
    /// Per-seed raw metrics.
    pub runs: Vec<SeedMetrics>,
    /// EU28 confinement across seeds.
    pub eu28_confinement: MeanStd,
    /// NA share across seeds.
    pub na_share: MeanStd,
    /// Semi/ABP expansion across seeds.
    pub semi_over_abp: MeanStd,
}

/// Runs the stability study.
pub fn stability_study(n_seeds: u64, base_seed: u64) -> StabilityReport {
    let mut runs = Vec::with_capacity(n_seeds as usize);
    for i in 0..n_seeds {
        let seed = base_seed + i;
        let repro = Repro::run(Scale::Small, seed);
        let b = region_breakdown_eu28(&repro.out, &repro.out.ipmap_estimates);
        runs.push(SeedMetrics {
            seed,
            eu28_confinement: b.share(xborder_geo::Region::Eu28),
            na_share: b.share(xborder_geo::Region::NorthAmerica),
            semi_over_abp: repro.out.classification.semi.n_total_requests as f64
                / repro.out.classification.abp.n_total_requests.max(1) as f64,
            completion_fraction: repro.out.completion.added_fraction(),
        });
    }
    StabilityReport {
        eu28_confinement: mean_std(runs.iter().map(|r| r.eu28_confinement)),
        na_share: mean_std(runs.iter().map(|r| r.na_share)),
        semi_over_abp: mean_std(runs.iter().map(|r| r.semi_over_abp)),
        runs,
    }
}

/// Writes a bench binary's document as pretty JSON to `path` (relative
/// to the working directory), exiting with status 1 if it cannot.
pub fn write_bench_doc(path: &str, doc: &serde_json::Value) {
    let written = serde_json::to_string_pretty(doc)
        .map_err(|e| format!("bench doc does not serialize: {e}"))
        .and_then(|json| std::fs::write(path, json).map_err(|e| format!("cannot write: {e}")));
    if let Err(e) = written {
        eprintln!("{path}: FAIL — {e}");
        std::process::exit(1);
    }
}

/// `[min, max]` of one timed value over its repeats.
pub fn spread(xs: impl IntoIterator<Item = f64>) -> [f64; 2] {
    xs.into_iter()
        .fold([f64::INFINITY, f64::NEG_INFINITY], |[lo, hi], x| {
            [lo.min(x), hi.max(x)]
        })
}

/// The spread of every layer's wall clock over repeated runs' profiles,
/// keyed by its path in a bench row (`{key}.{layer}.wall_ms`).
pub fn layer_spreads<'a>(
    key: &str,
    profiles: impl Iterator<Item = &'a Profile> + Clone,
) -> BTreeMap<String, [f64; 2]> {
    LAYERS
        .iter()
        .filter(|path| profiles.clone().any(|p| p.layer(path).is_some()))
        .map(|path| {
            let walls = profiles
                .clone()
                .filter_map(|p| p.layer(path))
                .map(|l| l.wall_ms);
            (format!("{key}.{path}.wall_ms"), spread(walls))
        })
        .collect()
}
