//! Sensitive-category detection and tracing (Sect. 6, Figs. 9–11).
//!
//! GDPR Article 9 protects racial/ethnic origin, political opinions,
//! religion, health, sex life and sexual orientation. The paper finds the
//! sites in those categories with a multi-stage filter — AdWords topic
//! tagging, then manual review because generic taggers *mask* sensitivity
//! (pregnancy → "Health", porn → "Men's Interests") — and then traces
//! where their tracking flows terminate.
//!
//! The simulation reproduces the filter: stage 1 matches tagger topics
//! against giveaway terms, stage 2 runs simulated examiners over the
//! site's content keywords with a 2-of-3 agreement rule. Detection is
//! imperfect by construction, like the paper's.

use crate::pipeline::{EstimateMap, StudyOutputs};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xborder_geo::{CountryCode, Region, WORLD};
use xborder_webgraph::{PublisherId, SiteCategory, WebGraph};

/// Detection tunables.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Probability one examiner recognizes a truly sensitive site from its
    /// content keywords.
    pub examiner_sensitivity: f64,
    /// Probability one examiner wrongly flags a non-sensitive site.
    pub examiner_false_positive: f64,
    /// Number of simulated examiners (agreement needs 2).
    pub n_examiners: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            examiner_sensitivity: 0.93,
            examiner_false_positive: 0.01,
            n_examiners: 3,
        }
    }
}

/// Output of the multi-stage sensitive-site filter.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SensitiveSites {
    /// Detected sites and the category assigned to each.
    pub detected: HashMap<PublisherId, SiteCategory>,
    /// Sites that went through inspection (had a sensitive-looking signal).
    pub inspected: usize,
}

/// Topics whose presence alone marks a site for inspection: the generic
/// tagger's closest approximations of the GDPR categories.
const GIVEAWAY_TOPICS: &[&str] = &[
    "health", "casino games", "lottery", "dating", "law & government", "men's interests",
    "people & society", "nightlife", "support groups", "family", "parenting",
];

/// Runs the detector over every publisher.
pub fn detect_sensitive_sites<R: Rng + ?Sized>(
    graph: &WebGraph,
    cfg: &DetectorConfig,
    rng: &mut R,
) -> SensitiveSites {
    let mut out = SensitiveSites::default();
    for p in &graph.publishers {
        // Stage 1: automated AdWords-topic screen.
        let topics = p.category.tagger_topics();
        let flagged_by_topics = topics
            .iter()
            .any(|t| GIVEAWAY_TOPICS.contains(&t.0));
        if !flagged_by_topics {
            continue;
        }
        out.inspected += 1;
        // Stage 2: examiners look at content keywords. A truly sensitive
        // site exposes its category's keywords; a masked-but-harmless site
        // (e.g. ordinary health-adjacent content) mostly doesn't.
        let truly_sensitive = p.category.is_sensitive();
        let mut agree = 0usize;
        for _ in 0..cfg.n_examiners {
            let p_detect = if truly_sensitive {
                cfg.examiner_sensitivity
            } else {
                cfg.examiner_false_positive
            };
            if rng.gen::<f64>() < p_detect {
                agree += 1;
            }
        }
        if agree >= 2 {
            // Examiners label with the true category when it is sensitive;
            // a false positive gets the nearest sensitive category.
            let label = if truly_sensitive {
                p.category
            } else {
                nearest_sensitive_label(p.category)
            };
            out.detected.insert(p.id, label);
        }
    }
    out
}

/// Which sensitive label a false positive would plausibly get.
fn nearest_sensitive_label(cat: SiteCategory) -> SiteCategory {
    match cat {
        SiteCategory::Games => SiteCategory::Gambling,
        SiteCategory::Food => SiteCategory::Alcohol,
        SiteCategory::News => SiteCategory::Politics,
        SiteCategory::Social => SiteCategory::SexualOrientation,
        _ => SiteCategory::Health,
    }
}

/// Per-category flow statistics (Figs. 9–10).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SensitiveFlowStats {
    /// Tracking flows per detected category.
    pub flows_per_category: HashMap<SiteCategory, u64>,
    /// Destination-region counts per category (EU28 users only).
    pub dest_by_category: HashMap<SiteCategory, HashMap<Region, u64>>,
    /// Per-EU28-country: (sensitive flows, flows leaving the country).
    pub per_country: HashMap<CountryCode, (u64, u64)>,
    /// Total tracking flows in the dataset (for the share headline).
    pub total_tracking_flows: u64,
    /// Total sensitive tracking flows.
    pub total_sensitive_flows: u64,
}

impl SensitiveFlowStats {
    /// Sensitive share of all tracking flows (paper: 2.89 %).
    pub fn sensitive_share(&self) -> f64 {
        if self.total_tracking_flows == 0 {
            0.0
        } else {
            self.total_sensitive_flows as f64 / self.total_tracking_flows as f64
        }
    }

    /// Flow share of a category among sensitive flows (Fig. 9).
    pub fn category_share(&self, cat: SiteCategory) -> f64 {
        if self.total_sensitive_flows == 0 {
            0.0
        } else {
            self.flows_per_category.get(&cat).copied().unwrap_or(0) as f64
                / self.total_sensitive_flows as f64
        }
    }

    /// Share of a category's EU28-origin flows leaving EU28 (Fig. 10's
    /// leakage view).
    pub fn category_leakage(&self, cat: SiteCategory) -> f64 {
        let Some(dests) = self.dest_by_category.get(&cat) else {
            return 0.0;
        };
        let total: u64 = dests.values().sum();
        if total == 0 {
            return 0.0;
        }
        let inside = dests.get(&Region::Eu28).copied().unwrap_or(0);
        (total - inside) as f64 / total as f64
    }

    /// Aggregate EU28 destination share over all sensitive flows.
    pub fn eu28_dest_share(&self) -> f64 {
        let mut total = 0u64;
        let mut inside = 0u64;
        for dests in self.dest_by_category.values() {
            for (region, n) in dests {
                total += n;
                if *region == Region::Eu28 {
                    inside += n;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            inside as f64 / total as f64
        }
    }
}

/// Traces every sensitive tracking flow of the study.
pub fn trace_sensitive_flows(
    out: &StudyOutputs,
    sites: &SensitiveSites,
    estimates: &EstimateMap,
) -> SensitiveFlowStats {
    let mut stats = SensitiveFlowStats::default();
    for (i, r) in out.dataset.requests.iter().enumerate() {
        if !out.classification.is_tracking(i) {
            continue;
        }
        stats.total_tracking_flows += 1;
        let Some(cat) = sites.detected.get(&r.publisher).copied() else {
            continue;
        };
        stats.total_sensitive_flows += 1;
        *stats.flows_per_category.entry(cat).or_insert(0) += 1;

        let user_country = out.dataset.user_country(r.user);
        let user_eu28 = WORLD.country_or_panic(user_country).eu28;
        if let Some(est) = estimates.get(&r.ip) {
            if user_eu28 {
                *stats
                    .dest_by_category
                    .entry(cat)
                    .or_default()
                    .entry(est.region())
                    .or_insert(0) += 1;
                let entry = stats.per_country.entry(user_country).or_insert((0, 0));
                entry.0 += 1;
                if est.country != user_country {
                    entry.1 += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_extension_pipeline;
    use crate::worldgen::{World, WorldConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_webgraph::{generate, WebGraphConfig};

    #[test]
    fn detector_finds_sensitive_sites_with_high_recall() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut cfg = WebGraphConfig::small();
        cfg.n_publishers = 1500;
        cfg.sensitive_fraction = 0.2;
        let graph = generate(&cfg, &mut rng);
        let sites = detect_sensitive_sites(&graph, &DetectorConfig::default(), &mut rng);

        let truly: Vec<_> = graph
            .publishers
            .iter()
            .filter(|p| p.category.is_sensitive())
            .collect();
        let detected_true = truly.iter().filter(|p| sites.detected.contains_key(&p.id)).count();
        let recall = detected_true as f64 / truly.len().max(1) as f64;
        assert!(recall > 0.85, "recall {recall}");

        // Precision: few false positives.
        let fp = sites
            .detected
            .keys()
            .filter(|id| !graph.publisher(**id).category.is_sensitive())
            .count();
        let precision = 1.0 - fp as f64 / sites.detected.len().max(1) as f64;
        assert!(precision > 0.95, "precision {precision}");
    }

    #[test]
    fn detected_labels_match_true_categories() {
        let mut rng = StdRng::seed_from_u64(32);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let sites = detect_sensitive_sites(&graph, &DetectorConfig::default(), &mut rng);
        for (id, label) in &sites.detected {
            let p = graph.publisher(*id);
            if p.category.is_sensitive() {
                assert_eq!(*label, p.category);
            }
            assert!(label.is_sensitive());
        }
    }

    #[test]
    fn sensitive_flows_are_a_small_share() {
        let mut world = World::build(WorldConfig::small(33));
        let out = run_extension_pipeline(&mut world);
        let mut rng = StdRng::seed_from_u64(34);
        let sites = detect_sensitive_sites(&world.graph, &DetectorConfig::default(), &mut rng);
        let stats = trace_sensitive_flows(&out, &sites, &out.ipmap_estimates);
        assert!(stats.total_sensitive_flows > 0, "no sensitive flows traced");
        let share = stats.sensitive_share();
        // Sensitive sites sit in the popularity tail; their flows must be a
        // small minority (paper: 2.89 %).
        assert!(share < 0.25, "sensitive share {share}");
    }

    #[test]
    fn category_shares_sum_to_one() {
        let mut world = World::build(WorldConfig::small(35));
        let out = run_extension_pipeline(&mut world);
        let mut rng = StdRng::seed_from_u64(36);
        let sites = detect_sensitive_sites(&world.graph, &DetectorConfig::default(), &mut rng);
        let stats = trace_sensitive_flows(&out, &sites, &out.ipmap_estimates);
        if stats.total_sensitive_flows > 0 {
            let sum: f64 = SiteCategory::SENSITIVE
                .iter()
                .map(|c| stats.category_share(*c))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        }
    }

    #[test]
    fn leakage_is_a_probability() {
        let mut world = World::build(WorldConfig::small(37));
        let out = run_extension_pipeline(&mut world);
        let mut rng = StdRng::seed_from_u64(38);
        let sites = detect_sensitive_sites(&world.graph, &DetectorConfig::default(), &mut rng);
        let stats = trace_sensitive_flows(&out, &sites, &out.ipmap_estimates);
        for cat in SiteCategory::SENSITIVE {
            let l = stats.category_leakage(cat);
            assert!((0.0..=1.0).contains(&l), "{cat}: {l}");
        }
        assert!((0.0..=1.0).contains(&stats.eu28_dest_share()));
    }
}
