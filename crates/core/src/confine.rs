//! Border-crossing and confinement analyses (Sect. 4, Figs. 6–8).
//!
//! A tracking flow's *origin* is the user's country (known exactly); its
//! *destination* is wherever the chosen geolocation provider places the
//! server IP. Confinement is measured at three granularities: the user's
//! country (national jurisdiction), the EU28 region (GDPR jurisdiction),
//! and the physical continent.
//!
//! Fig. 7's EU28 breakdown counts a flow by its origin filter and its
//! destination IP only, so it is read from a per-IP tally of EU28-origin
//! flows ([`DestBreakdown::absorb_eu28_tally`]) that the tracker fold in
//! `crate::ips` counts while it folds the tracking rows; every driver sets
//! its EU28 headline that way, without a second sweep over its log.
//! [`DestBreakdown::absorb_eu28_flow`] is the per-flow reference.

use crate::ips::TrackerFold;
use crate::pipeline::{EstimateMap, StudyOutputs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::IpAddr;
use xborder_geo::{CountryCode, Region, WORLD};
use xborder_webgraph::FxMap;

/// Serde helper: tuple-keyed maps as entry lists (JSON keys must be
/// strings).
mod tuple_map {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;
    use std::hash::Hash;

    pub fn serialize<K, V, S>(map: &HashMap<K, V>, ser: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize + Ord + Copy,
        V: Serialize + Copy,
        S: Serializer,
    {
        let mut entries: Vec<(K, V)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by_key(|e| e.0);
        entries.serialize(ser)
    }

    pub fn deserialize<'de, K, V, D>(de: D) -> Result<HashMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Eq + Hash,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        let entries: Vec<(K, V)> = Vec::deserialize(de)?;
        Ok(entries.into_iter().collect())
    }
}

/// Origin-region × destination-region flow counts (the Sankey data of
/// Figs. 6–7).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionMatrix {
    /// Flow counts keyed by (origin, destination).
    #[serde(with = "tuple_map")]
    pub counts: HashMap<(Region, Region), u64>,
    /// Total counted flows.
    pub total: u64,
}

impl RegionMatrix {
    /// Records one flow.
    pub fn add(&mut self, from: Region, to: Region) {
        *self.counts.entry((from, to)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Flows originating in `from`.
    pub fn outgoing(&self, from: Region) -> u64 {
        Region::ALL
            .iter()
            .map(|to| self.counts.get(&(from, *to)).copied().unwrap_or(0))
            .sum()
    }

    /// Flows terminating in `to` (Fig. 6's right-hand column).
    pub fn terminating(&self, to: Region) -> u64 {
        Region::ALL
            .iter()
            .map(|from| self.counts.get(&(*from, to)).copied().unwrap_or(0))
            .sum()
    }

    /// Share of all flows terminating in `to`.
    pub fn termination_share(&self, to: Region) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.terminating(to) as f64 / self.total as f64
        }
    }

    /// Confinement of `region`: share of its outgoing flows that stay.
    pub fn confinement(&self, region: Region) -> f64 {
        let out = self.outgoing(region);
        if out == 0 {
            return 0.0;
        }
        let stayed = self.counts.get(&(region, region)).copied().unwrap_or(0);
        stayed as f64 / out as f64
    }
}

/// Destination-region shares for one origin (Fig. 7's pie-like view).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DestBreakdown {
    /// Flow counts per destination region.
    pub counts: HashMap<Region, u64>,
    /// Total.
    pub total: u64,
}

impl DestBreakdown {
    /// Share of flows terminating in `region`.
    pub fn share(&self, region: Region) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts.get(&region).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }

    /// Share of flows staying on the physical continent of Europe
    /// (EU28 + Rest of Europe) — Table 5's "Cont." column.
    pub fn europe_continent_share(&self) -> f64 {
        self.share(Region::Eu28) + self.share(Region::RestOfEurope)
    }

    /// Absorbs one tracking flow, counting it only when the origin is an
    /// EU28 user country and the destination IP has a regioned estimate —
    /// the exact per-flow filter of [`region_breakdown_eu28`].
    pub fn absorb_eu28_flow(
        &mut self,
        user_country: CountryCode,
        ip: IpAddr,
        estimates: &EstimateMap,
    ) {
        if is_eu28_origin(user_country) {
            self.absorb_flows(ip, 1, estimates);
        }
    }

    /// Absorbs a `tracking IP → flow count` tally of EU28-origin flows:
    /// exactly what [`DestBreakdown::absorb_eu28_flow`] counts over the
    /// same flows one by one, because the per-flow count depends only on
    /// the origin filter (already applied by whoever built the tally) and
    /// the destination IP. Every driver tallies through the tracker fold
    /// (`crate::ips`) while it folds the tracking rows, before any estimate
    /// exists, and reads the breakdown from the tally after geolocation.
    pub fn absorb_eu28_tally(&mut self, tally: &FxMap<IpAddr, u64>, estimates: &EstimateMap) {
        for (&ip, &n) in tally {
            self.absorb_flows(ip, n, estimates);
        }
    }

    /// Counts `n` flows to `ip` when it has a regioned estimate.
    fn absorb_flows(&mut self, ip: IpAddr, n: u64, estimates: &EstimateMap) {
        let Some(to) = estimates.get(&ip).and_then(|est| est.try_region()) else {
            return;
        };
        self.total += n;
        *self.counts.entry(to).or_insert(0) += n;
    }
}

/// Whether flows from a user in `country` count as EU28-origin (Fig. 7);
/// countries missing from the world table never do.
pub fn is_eu28_origin(country: CountryCode) -> bool {
    WORLD.country(country).map(|c| c.eu28).unwrap_or(false)
}

/// Origin-country × destination-country counts for EU28 users (Fig. 8).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CountryMatrix {
    /// Flow counts keyed by (origin country, destination country).
    #[serde(with = "tuple_map")]
    pub counts: HashMap<(CountryCode, CountryCode), u64>,
    /// Total counted flows.
    pub total: u64,
}

impl CountryMatrix {
    /// Flows originating in `from`.
    pub fn outgoing(&self, from: CountryCode) -> u64 {
        self.counts
            .iter()
            .filter(|((f, _), _)| *f == from)
            .map(|(_, n)| n)
            .sum()
    }

    /// National confinement of `country`.
    pub fn confinement(&self, country: CountryCode) -> f64 {
        let out = self.outgoing(country);
        if out == 0 {
            return 0.0;
        }
        let stayed = self.counts.get(&(country, country)).copied().unwrap_or(0);
        stayed as f64 / out as f64
    }

    /// Share of all flows terminating in each destination country,
    /// descending (Fig. 8's right column).
    pub fn termination_shares(&self) -> Vec<(CountryCode, f64)> {
        let mut per_dest: HashMap<CountryCode, u64> = HashMap::new();
        for ((_, to), n) in &self.counts {
            *per_dest.entry(*to).or_insert(0) += n;
        }
        let mut v: Vec<(CountryCode, f64)> = per_dest
            .into_iter()
            .map(|(c, n)| (c, n as f64 / self.total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Origin countries present, by outgoing volume descending.
    pub fn origins(&self) -> Vec<(CountryCode, u64)> {
        let mut per_origin: HashMap<CountryCode, u64> = HashMap::new();
        for ((from, _), n) in &self.counts {
            *per_origin.entry(*from).or_insert(0) += n;
        }
        let mut v: Vec<(CountryCode, u64)> = per_origin.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Weighted-average national confinement over all origins — Table 5's
    /// "Default / Country" cell.
    pub fn mean_confinement(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let stayed: u64 = self
            .counts
            .iter()
            .filter(|((f, t), _)| f == t)
            .map(|(_, n)| n)
            .sum();
        stayed as f64 / self.total as f64
    }
}

/// Iterates `(request index, user country)` over all tracking flows.
fn tracking_flows<'a>(
    out: &'a StudyOutputs,
) -> impl Iterator<Item = (usize, &'a xborder_browser::LoggedRequest)> + 'a {
    out.dataset
        .requests
        .iter()
        .enumerate()
        .filter(|(i, _)| out.classification.is_tracking(*i))
}

/// Builds the full origin × destination region matrix over all users
/// (Fig. 6) under the given provider estimates.
pub fn region_matrix(out: &StudyOutputs, estimates: &EstimateMap) -> RegionMatrix {
    let mut m = RegionMatrix::default();
    for (_, r) in tracking_flows(out) {
        let Some(est) = estimates.get(&r.ip) else {
            continue;
        };
        // Records carrying a country missing from the world table are
        // skipped, not fatal — degraded inputs must not panic aggregation.
        let Ok(from) = WORLD.country(out.dataset.user_country(r.user)) else {
            continue;
        };
        let Some(to) = est.try_region() else {
            continue;
        };
        m.add(from.region(), to);
    }
    m
}

/// Destination breakdown of EU28-origin flows (Fig. 7a/7b depending on the
/// provider map passed), read from the tracker fold's per-IP tally.
pub fn region_breakdown_eu28(out: &StudyOutputs, estimates: &EstimateMap) -> DestBreakdown {
    TrackerFold::over_log(&out.dataset, &out.classification).eu28_breakdown(estimates)
}

/// EU28 confinement per 30-day period of the study window — the temporal
/// view behind the paper's claim of monitoring "continuously for a time
/// period of more than four months capturing any possible temporal
/// variations" (and behind Table 8's across-dates stability). With server
/// churn in the world, this is a non-trivial invariant.
pub fn monthly_series(out: &StudyOutputs, estimates: &EstimateMap) -> Vec<(u32, DestBreakdown)> {
    const SECS_PER_MONTH: u64 = 30 * 86_400;
    let mut months: HashMap<u32, DestBreakdown> = HashMap::new();
    for (_, r) in tracking_flows(out) {
        let Ok(user_country) = WORLD.country(out.dataset.user_country(r.user)) else {
            continue;
        };
        if !user_country.eu28 {
            continue;
        }
        let Some(est) = estimates.get(&r.ip) else {
            continue;
        };
        let Some(to) = est.try_region() else {
            continue;
        };
        let month = (r.time.0 / SECS_PER_MONTH) as u32;
        let b = months.entry(month).or_default();
        b.total += 1;
        *b.counts.entry(to).or_insert(0) += 1;
    }
    let mut v: Vec<(u32, DestBreakdown)> = months.into_iter().collect();
    v.sort_by_key(|(m, _)| *m);
    v
}

/// Country-level matrix for EU28-origin flows (Fig. 8).
pub fn country_matrix_eu28(out: &StudyOutputs, estimates: &EstimateMap) -> CountryMatrix {
    let mut m = CountryMatrix::default();
    for (_, r) in tracking_flows(out) {
        let from = out.dataset.user_country(r.user);
        if !WORLD.country(from).map(|c| c.eu28).unwrap_or(false) {
            continue;
        }
        let Some(est) = estimates.get(&r.ip) else {
            continue;
        };
        *m.counts.entry((from, est.country)).or_insert(0) += 1;
        m.total += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_geo::cc;

    #[test]
    fn region_matrix_accounting() {
        let mut m = RegionMatrix::default();
        m.add(Region::Eu28, Region::Eu28);
        m.add(Region::Eu28, Region::Eu28);
        m.add(Region::Eu28, Region::NorthAmerica);
        m.add(Region::SouthAmerica, Region::NorthAmerica);
        assert_eq!(m.total, 4);
        assert_eq!(m.outgoing(Region::Eu28), 3);
        assert_eq!(m.terminating(Region::NorthAmerica), 2);
        assert!((m.confinement(Region::Eu28) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.confinement(Region::SouthAmerica), 0.0);
        assert!((m.termination_share(Region::Eu28) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dest_breakdown_shares() {
        let mut b = DestBreakdown::default();
        b.counts.insert(Region::Eu28, 85);
        b.counts.insert(Region::NorthAmerica, 11);
        b.counts.insert(Region::RestOfEurope, 4);
        b.total = 100;
        assert!((b.share(Region::Eu28) - 0.85).abs() < 1e-9);
        assert!((b.europe_continent_share() - 0.89).abs() < 1e-9);
    }

    #[test]
    fn eu28_tally_equals_the_per_flow_fold() {
        use crate::pipeline::EstimateMap;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use xborder_geoloc::GeoEstimate;
        // EU28 and non-EU28 world countries plus "ZZ", which the world
        // table lacks: as an origin it never counts, as an estimate it has
        // no region.
        let countries = [
            cc!("DE"),
            cc!("FR"),
            cc!("GR"),
            cc!("US"),
            cc!("CH"),
            cc!("JP"),
            cc!("ZZ"),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let ips: Vec<IpAddr> = (0..rng.gen_range(1..40u8))
                .map(|i| IpAddr::from([10, 0, 0, i]))
                .collect();
            // Some IPs get no estimate at all.
            let mut estimates = EstimateMap::new();
            for &ip in &ips {
                if rng.gen_bool(0.7) {
                    let country = countries[rng.gen_range(0..countries.len())];
                    estimates.insert(ip, GeoEstimate { country });
                }
            }
            let mut per_flow = DestBreakdown::default();
            let mut tally: FxMap<IpAddr, u64> = FxMap::default();
            for _ in 0..rng.gen_range(0..300) {
                let origin = countries[rng.gen_range(0..countries.len())];
                let ip = ips[rng.gen_range(0..ips.len())];
                per_flow.absorb_eu28_flow(origin, ip, &estimates);
                if is_eu28_origin(origin) {
                    *tally.entry(ip).or_insert(0) += 1;
                }
            }
            let mut folded = DestBreakdown::default();
            folded.absorb_eu28_tally(&tally, &estimates);
            assert_eq!(folded.total, per_flow.total);
            assert_eq!(folded.counts, per_flow.counts);
        }
    }

    #[test]
    fn country_matrix_confinement() {
        let mut m = CountryMatrix::default();
        m.counts.insert((cc!("GB"), cc!("GB")), 58);
        m.counts.insert((cc!("GB"), cc!("US")), 42);
        m.counts.insert((cc!("GR"), cc!("DE")), 93);
        m.counts.insert((cc!("GR"), cc!("GR")), 7);
        m.total = 200;
        assert!((m.confinement(cc!("GB")) - 0.58).abs() < 1e-9);
        assert!((m.confinement(cc!("GR")) - 0.07).abs() < 1e-9);
        assert!((m.mean_confinement() - 65.0 / 200.0).abs() < 1e-9);
        let origins = m.origins();
        assert_eq!(origins[0].0, cc!("GB"));
        let dests = m.termination_shares();
        assert_eq!(dests[0].0, cc!("DE"));
    }

    #[test]
    fn monthly_series_is_stable_over_the_study() {
        let mut world = crate::worldgen::World::build(crate::worldgen::WorldConfig::small(19));
        let out = crate::pipeline::run_extension_pipeline(&mut world);
        let series = monthly_series(&out, &out.ipmap_estimates);
        // The 4.5-month window spans months 0..=4.
        assert!(series.len() >= 4, "{} months", series.len());
        let shares: Vec<f64> = series.iter().map(|(_, b)| b.share(Region::Eu28)).collect();
        let min = shares.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = shares.iter().cloned().fold(0.0, f64::max);
        // Confinement holds steady month over month despite server churn.
        assert!(max - min < 0.12, "monthly swing {min}..{max}");
    }

    #[test]
    fn empty_matrices_are_safe() {
        let m = RegionMatrix::default();
        assert_eq!(m.confinement(Region::Eu28), 0.0);
        assert_eq!(m.termination_share(Region::Asia), 0.0);
        let c = CountryMatrix::default();
        assert_eq!(c.mean_confinement(), 0.0);
        assert!(c.termination_shares().is_empty());
    }
}
