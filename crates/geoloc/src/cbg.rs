//! Constraint-based geolocation (CBG) — the classic alternative to
//! shortest-ping estimation (Gueye et al.; the family of techniques the
//! paper cites via Katz-Bassett et al. \[39\]).
//!
//! Each probe's best RTT yields a distance upper bound — a disc around the
//! probe the target must lie in. The feasible region is the intersection
//! of all discs; CBG picks the candidate location that violates the
//! constraints least. We evaluate candidates at country centroids, which
//! is exactly the granularity the study needs.
//!
//! Exposed as a second [`Geolocator`] so the probe-methodology ablation
//! can compare it against the IPmap-style majority vote on identical
//! measurements.

use crate::ipmap::IpMap;
use crate::truth::GroundTruth;
use crate::{GeoEstimate, Geolocator};
use std::net::IpAddr;
use xborder_geo::{CountryCode, WORLD};

/// CBG estimator wrapping an [`IpMap`]'s probe mesh and measurement
/// machinery.
pub struct Cbg<'w, G: GroundTruth + ?Sized> {
    inner: &'w IpMap<'w, G>,
}

impl<'w, G: GroundTruth + ?Sized> Cbg<'w, G> {
    /// Builds the estimator over an existing IPmap instance (shares the
    /// mesh, so comparisons use identical vantage points).
    pub fn new(inner: &'w IpMap<'w, G>) -> Self {
        Cbg { inner }
    }

    /// Runs the constraint evaluation, returning the best candidate and
    /// its violation score (km outside the feasible region; <= 0 means
    /// fully feasible).
    pub fn locate_scored(&self, ip: IpAddr) -> Option<(GeoEstimate, f64)> {
        let constraints = self.inner.measure_constraints(ip)?;
        if constraints.is_empty() {
            return None;
        }
        let mut best: Option<(CountryCode, f64)> = None;
        for country in WORLD.countries() {
            // Violation at this candidate: the worst exceedance of any
            // probe's distance bound, minus slack for the country's size
            // (the target can be anywhere inside it, not just at the
            // centroid).
            let mut violation = f64::NEG_INFINITY;
            for (probe_loc, bound_km) in &constraints {
                let d = probe_loc.distance_km(&country.centroid());
                let v = d - bound_km - country.radius_km;
                if v > violation {
                    violation = v;
                }
            }
            match best {
                Some((_, b)) if violation >= b => {}
                _ => best = Some((country.code, violation)),
            }
        }
        best.map(|(country, score)| (GeoEstimate { country }, score))
    }
}

impl<G: GroundTruth + ?Sized> Geolocator for Cbg<'_, G> {
    fn locate(&self, ip: IpAddr) -> Option<GeoEstimate> {
        self.locate_scored(ip).map(|(e, _)| e)
    }

    fn name(&self) -> &str {
        "CBG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipmap::IpMapConfig;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_geo::cc;
    use xborder_netsim::{Infrastructure, OrgKind, PopKind, ServerRole};

    fn world(countries: &[&str], per: usize) -> (Infrastructure, Vec<IpAddr>) {
        let mut infra = Infrastructure::new();
        let mut rng = StdRng::seed_from_u64(91);
        let org = infra.add_org("t", OrgKind::AdTech, cc!("US"));
        let mut ips = Vec::new();
        for c in countries {
            let code = CountryCode::parse(c).unwrap();
            let pop = infra.add_pop(PopKind::NationalColo, code, &mut rng).unwrap();
            for _ in 0..per {
                let s = infra.add_server(org, pop, ServerRole::DedicatedTracking, false).unwrap();
                ips.push(infra.server(s).unwrap().ip);
            }
        }
        (infra, ips)
    }

    #[test]
    fn cbg_locates_probe_dense_countries() {
        let (infra, ips) = world(&["DE", "FR", "US"], 8);
        let mut rng = StdRng::seed_from_u64(92);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let cbg = Cbg::new(&ipmap);
        let mut right = 0usize;
        for ip in &ips {
            if Some(cbg.locate(*ip).unwrap().country) == infra.true_country_of(*ip) {
                right += 1;
            }
        }
        let acc = right as f64 / ips.len() as f64;
        assert!(acc >= 0.7, "CBG accuracy {acc}");
    }

    #[test]
    fn cbg_feasible_scores_for_real_targets() {
        let (infra, ips) = world(&["NL"], 4);
        let mut rng = StdRng::seed_from_u64(93);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let cbg = Cbg::new(&ipmap);
        for ip in &ips {
            let (_, score) = cbg.locate_scored(*ip).unwrap();
            // RTT bounds are upper bounds, so the true region (and thus the
            // best candidate) should be feasible or nearly so.
            assert!(score < 200.0, "violation {score} km");
        }
    }

    #[test]
    fn cbg_agrees_with_ipmap_mostly() {
        let (infra, ips) = world(&["DE", "GB", "ES", "US", "JP"], 4);
        let mut rng = StdRng::seed_from_u64(94);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let cbg = Cbg::new(&ipmap);
        let agree = ips
            .iter()
            .filter(|ip| {
                let a = Geolocator::locate(&ipmap, **ip).unwrap().country;
                let b = cbg.locate(**ip).unwrap().country;
                a == b
            })
            .count();
        let share = agree as f64 / ips.len() as f64;
        assert!(share > 0.6, "agreement {share}");
    }

    #[test]
    fn unknown_ip_is_none() {
        let (infra, _) = world(&["NL"], 1);
        let mut rng = StdRng::seed_from_u64(95);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let cbg = Cbg::new(&ipmap);
        assert!(cbg.locate("203.0.113.9".parse().unwrap()).is_none());
    }
}
