//! RIPE-IPmap-style active geolocation.
//!
//! IPmap assigns ~100 RIPE-Atlas probes to each target, runs latency
//! measurements, and aggregates per-probe location estimates by majority
//! vote. The Atlas footprint is very dense in Europe (>5K probes of ~11K),
//! dense in the US (>1K), thin elsewhere — which is why the paper trusts it
//! at country level within Europe.
//!
//! The simulation reproduces the pipeline mechanically:
//!
//! 1. A [`ProbeMesh`] is generated with the Atlas-like density profile.
//! 2. For a target IP, the `k` probes nearest to the target's *announced
//!    region* are assigned (IPmap pre-selects plausibly-near probes using
//!    prior anchors; we model that with a coarse pre-localization step that
//!    picks the assignment neighbourhood from min-RTT to a few landmark
//!    probes).
//! 3. Every assigned probe measures min-of-n RTT through the
//!    [`xborder_netsim::LatencyModel`].
//! 4. Each probe votes for its own country *weighted by an RTT-derived
//!    plausibility*; the majority country wins (exact ties → the
//!    lexicographically last country).
//!
//! Errors emerge, rather than being injected: a target in a small country
//! whose nearest probes sit across a border gets outvoted — the paper's
//! observation that country-level disagreement clusters "around the borders
//! of neighboring countries".

use crate::grid::GridIndex;
use crate::truth::GroundTruth;
use crate::{GeoEstimate, Geolocator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value, ValueError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use xborder_faults::{ip_key, DegradationReport, DegradedResult, FaultError, FaultInjector};
use xborder_geo::{CountryCode, LatLon, WORLD};
use xborder_netsim::LatencyModel;

/// Floor (km) for the vote-weight denominator: the maximum weight any
/// single probe can carry is `MIN_VOTE_BOUND_KM⁻²`. Below this scale the
/// RTT bound is dominated by last-mile latency and jitter, not geography,
/// so a tighter bound is precision the measurement doesn't actually have.
pub const MIN_VOTE_BOUND_KM: f64 = 25.0;

/// One measurement probe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Probe {
    /// Country hosting the probe.
    pub country: CountryCode,
    /// Physical location.
    pub location: LatLon,
}

/// The Atlas-like probe mesh, with a spatial grid index over the probe
/// locations built once at construction (DESIGN.md §5e).
#[derive(Debug, Clone)]
pub struct ProbeMesh {
    probes: Vec<Probe>,
    index: GridIndex,
}

// Manual serde impls: only `probes` is data — the index is derived state,
// rebuilt on deserialize. The value tree matches what the derive would
// have produced for the pre-index struct, so serialized meshes are
// format-compatible across the change.
impl Serialize for ProbeMesh {
    fn to_value(&self) -> Value {
        Value::Object(vec![("probes".to_owned(), self.probes.to_value())])
    }
}

impl<'de> Deserialize<'de> for ProbeMesh {
    fn from_value(v: &Value) -> Result<Self, ValueError> {
        match v {
            Value::Object(fields) => {
                let probes: Vec<Probe> = serde::from_field(fields, "probes")?;
                Ok(ProbeMesh::from_probes(probes))
            }
            _ => Err(ValueError::msg("expected ProbeMesh object")),
        }
    }
}

impl ProbeMesh {
    /// Generates a mesh of roughly `total` probes with the Atlas density
    /// profile: European countries get a large fixed share, the US a
    /// sizeable one, everywhere else thin coverage proportional to
    /// population × IT index. Every country gets at least one probe.
    pub fn generate<R: Rng + ?Sized>(total: usize, rng: &mut R) -> ProbeMesh {
        let countries = WORLD.countries();
        // Density weights: Europe 6x, US 3x, rest 1x — scaled by
        // population^0.5 * it_index so small dense countries still show up.
        let weight = |c: &xborder_geo::Country| -> f64 {
            let base = c.population_m.sqrt() * (0.3 + c.it_index);
            match c.continent {
                xborder_geo::Continent::Europe => base * 6.0,
                _ if c.code.as_str() == "US" => base * 3.0,
                _ => base,
            }
        };
        let total_w: f64 = countries.iter().map(weight).sum();
        let mut probes = Vec::with_capacity(total);
        for c in countries {
            let n = ((weight(c) / total_w) * total as f64).round().max(1.0) as usize;
            for _ in 0..n {
                probes.push(Probe {
                    country: c.code,
                    location: c.centroid().jitter(c.radius_km * 0.9, rng),
                });
            }
        }
        ProbeMesh::from_probes(probes)
    }

    /// Builds a mesh from an explicit probe set (tests, replayed meshes)
    /// and indexes it.
    pub fn from_probes(probes: Vec<Probe>) -> ProbeMesh {
        let locations: Vec<LatLon> = probes.iter().map(|p| p.location).collect();
        ProbeMesh {
            probes,
            index: GridIndex::build(&locations),
        }
    }

    /// All probes.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Number of probes in `country`.
    pub fn count_in(&self, country: CountryCode) -> usize {
        self.probes.iter().filter(|p| p.country == country).count()
    }

    /// Indices of the `k` probes nearest to `loc`, plus the number of
    /// probes whose distance the index actually evaluated. Identical
    /// output to the brute-force stable sort this replaced — equal
    /// distances still resolve by ascending probe index.
    fn nearest_k_counted(&self, loc: LatLon, k: usize) -> (Vec<usize>, u64) {
        self.index.nearest_k(loc, k)
    }

    /// The pre-index implementation, kept as the reference the grid index
    /// is property-tested against.
    #[cfg(test)]
    fn nearest_k_brute(&self, loc: LatLon, k: usize) -> Vec<usize> {
        let mut order: Vec<(usize, f64)> = self
            .probes
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.location.distance_km(&loc)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        order.truncate(k);
        order.into_iter().map(|(i, _)| i).collect()
    }
}

/// Tunables of the IPmap simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IpMapConfig {
    /// Probe-mesh size (Atlas had ~11 K active probes in 2018).
    pub total_probes: usize,
    /// Probes assigned per geolocation request (paper: "more than 100").
    pub probes_per_target: usize,
    /// RTT samples each probe takes (min is used).
    pub samples_per_probe: usize,
    /// Landmark probes used for the coarse pre-localization.
    pub landmarks: usize,
    /// Disables every freeze-wide memo — assignments, landmark baselines
    /// and per-(anchor, target) probe baselines — so every lookup
    /// recomputes from the index. The cache is semantically transparent —
    /// this knob exists so tests can pin that outputs are bit-identical
    /// either way.
    pub disable_assign_cache: bool,
}

impl Default for IpMapConfig {
    fn default() -> Self {
        IpMapConfig {
            total_probes: 11_000,
            probes_per_target: 100,
            samples_per_probe: 5,
            landmarks: 64,
            disable_assign_cache: false,
        }
    }
}

impl IpMapConfig {
    /// Small mesh for tests.
    pub fn small() -> Self {
        IpMapConfig {
            total_probes: 1_200,
            probes_per_target: 40,
            samples_per_probe: 3,
            landmarks: 32,
            disable_assign_cache: false,
        }
    }
}

/// Counters from the per-location assignment cache (DESIGN.md §5e).
///
/// All three are **thread-budget invariant** by construction: lookups are
/// counted per geolocation call (same call set at every budget), fills and
/// index probe visits only by the thread that wins the insert race for a
/// key — so fills = distinct keys and visits = Σ per-key visit cost, no
/// matter how the calls interleave. `hits = lookups − fills`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignCacheStats {
    /// Cache lookups answered from a previously computed entry.
    pub hits: u64,
    /// Cache lookups that had to compute (== distinct cache keys).
    pub misses: u64,
    /// Probes whose distance the grid index evaluated across all
    /// `nearest_k` computations (cached or not).
    pub index_probe_visits: u64,
}

/// A memo table shared across shard threads.
type Memo<K, T> = RwLock<HashMap<K, Arc<T>>>;

/// Cache key for a coordinate: exact bit pattern, because only bit-equal
/// locations are guaranteed to produce bit-equal results.
type LocKey = (u64, u64);

/// Freeze-wide memoization shared read-only across shard threads: tracker
/// IPs cluster in a few PoP locations, so the (location-keyed) landmark
/// baselines, nearest-`k` assignments and assigned-probe baselines repeat
/// heavily.
#[derive(Debug, Default)]
struct AssignCache {
    /// anchor location bits → assigned probe indices.
    assignments: Memo<LocKey, Vec<usize>>,
    /// target location bits → per-landmark baseline RTTs (stride order).
    landmark_baselines: Memo<LocKey, Vec<f64>>,
    /// (anchor, target) location bits → the anchor's assigned probes, each
    /// with its baseline RTT to the target, in assignment order.
    assigned_baselines: Memo<(LocKey, LocKey), Vec<(usize, f64)>>,
    lookups: AtomicU64,
    fills: AtomicU64,
    probe_visits: AtomicU64,
}

fn loc_key(loc: LatLon) -> LocKey {
    (loc.lat.to_bits(), loc.lon.to_bits())
}

fn memo_get<K: Hash + Eq, T>(memo: &Memo<K, T>, key: &K) -> Option<Arc<T>> {
    memo.read().expect("cache lock").get(key).map(Arc::clone)
}

/// Stores `computed` under `key` unless another thread got there first.
/// Returns the stored value and whether this call filled the entry (won
/// the insert race).
fn memo_insert<K: Hash + Eq, T>(memo: &Memo<K, T>, key: K, computed: T) -> (Arc<T>, bool) {
    match memo.write().expect("cache lock").entry(key) {
        Entry::Occupied(e) => (Arc::clone(e.get()), false),
        Entry::Vacant(e) => (Arc::clone(e.insert(Arc::new(computed))), true),
    }
}

/// The IPmap-style geolocator bound to a ground-truth world.
///
/// Holding `&G` is how the simulation "sends packets": the latency model
/// needs the target's true coordinates to produce an RTT, just as the real
/// network does. The *estimate* is computed only from probe RTTs and probe
/// metadata.
pub struct IpMap<'w, G: GroundTruth + ?Sized> {
    mesh: ProbeMesh,
    cfg: IpMapConfig,
    latency: LatencyModel,
    truth: &'w G,
    /// Deterministic per-target measurement noise: seeds derive from the IP.
    seed: u64,
    /// Assignment memoization, shared read-only across shard threads.
    cache: AssignCache,
}

impl<'w, G: GroundTruth + ?Sized> IpMap<'w, G> {
    /// Builds the geolocator with a generated mesh.
    pub fn new<R: Rng + ?Sized>(cfg: IpMapConfig, truth: &'w G, rng: &mut R) -> Self {
        let mesh = ProbeMesh::generate(cfg.total_probes, rng);
        let seed = rng.gen();
        IpMap::with_mesh(cfg, mesh, truth, seed)
    }

    /// Builds the geolocator around an explicit mesh (tests that need
    /// probes at exact positions, e.g. co-located with a target).
    pub fn with_mesh(cfg: IpMapConfig, mesh: ProbeMesh, truth: &'w G, seed: u64) -> Self {
        IpMap {
            mesh,
            cfg,
            latency: LatencyModel::default(),
            truth,
            seed,
            cache: AssignCache::default(),
        }
    }

    /// Access to the probe mesh.
    pub fn mesh(&self) -> &ProbeMesh {
        &self.mesh
    }

    /// Snapshot of the assignment-cache counters (see
    /// [`AssignCacheStats`] for the budget-invariance argument).
    pub fn assign_cache_stats(&self) -> AssignCacheStats {
        let lookups = self.cache.lookups.load(Ordering::Relaxed);
        let fills = self.cache.fills.load(Ordering::Relaxed);
        AssignCacheStats {
            hits: lookups - fills,
            misses: fills,
            index_probe_visits: self.cache.probe_visits.load(Ordering::Relaxed),
        }
    }

    /// The probes assigned to a target anchored at `anchor`, each with its
    /// baseline RTT to `target`, in assignment order. One lookup is counted
    /// per call (one per measurement round). On a miss the assignment comes
    /// from the per-anchor memo without counting a second lookup: a fill
    /// and its index probe visits are counted there, by the insert-race
    /// winner only, so the counters equal one memo per anchor at every
    /// thread budget. The double-checked pattern computes outside the
    /// write lock.
    fn assigned_baselines(&self, anchor: LatLon, target: LatLon) -> Arc<Vec<(usize, f64)>> {
        let price = |idxs: &[usize]| -> Vec<(usize, f64)> {
            idxs.iter()
                .map(|&i| (i, self.latency.baseline_rtt_ms(self.mesh.probes[i].location, target)))
                .collect()
        };
        if self.cfg.disable_assign_cache {
            let (idxs, visits) = self.mesh.nearest_k_counted(anchor, self.cfg.probes_per_target);
            self.cache.probe_visits.fetch_add(visits, Ordering::Relaxed);
            return Arc::new(price(&idxs));
        }
        self.cache.lookups.fetch_add(1, Ordering::Relaxed);
        let key = (loc_key(anchor), loc_key(target));
        if let Some(hit) = memo_get(&self.cache.assigned_baselines, &key) {
            return hit;
        }
        let akey = loc_key(anchor);
        let assigned = memo_get(&self.cache.assignments, &akey).unwrap_or_else(|| {
            let (idxs, visits) = self.mesh.nearest_k_counted(anchor, self.cfg.probes_per_target);
            let (stored, filled) = memo_insert(&self.cache.assignments, akey, idxs);
            if filled {
                self.cache.fills.fetch_add(1, Ordering::Relaxed);
                self.cache.probe_visits.fetch_add(visits, Ordering::Relaxed);
            }
            stored
        });
        memo_insert(&self.cache.assigned_baselines, key, price(&assigned)).0
    }

    /// Baseline RTTs from each landmark probe (stride order) to `target`,
    /// memoized per target location. Only the deterministic *baselines*
    /// are cached — per-IP jitter draws still come from the caller's RNG
    /// in the original stream order, so repeat targets at the same
    /// location keep independent measurement noise.
    fn landmark_baselines(&self, target: LatLon) -> Arc<Vec<f64>> {
        let compute = || {
            let stride = (self.mesh.probes.len() / self.cfg.landmarks).max(1);
            (0..self.mesh.probes.len())
                .step_by(stride)
                .map(|i| {
                    self.latency
                        .baseline_rtt_ms(self.mesh.probes[i].location, target)
                })
                .collect::<Vec<f64>>()
        };
        if self.cfg.disable_assign_cache {
            return Arc::new(compute());
        }
        self.cache.lookups.fetch_add(1, Ordering::Relaxed);
        let key = loc_key(target);
        if let Some(hit) = memo_get(&self.cache.landmark_baselines, &key) {
            return hit;
        }
        let (stored, filled) = memo_insert(&self.cache.landmark_baselines, key, compute());
        if filled {
            self.cache.fills.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }

    fn rng_for(&self, ip: IpAddr) -> StdRng {
        // Stable measurement noise per target: repeat lookups agree.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use std::hash::Hasher;
        ip.hash(&mut h);
        self.seed.hash(&mut h);
        StdRng::seed_from_u64(h.finish())
    }

    /// Runs the measurement stages for `ip` (landmark pre-localization,
    /// assignment, two measurement rounds), returning the assigned probes'
    /// indices with their min-RTTs. This is the raw material both the
    /// majority-vote estimator and the CBG estimator consume.
    pub fn measure(&self, ip: IpAddr) -> Option<Vec<(usize, f64)>> {
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        self.measure_degraded(ip, &inj, &mut report)
    }

    /// [`IpMap::measure`] under fault injection: assigned probes can be
    /// dark (outage → no RTT at all) or flaky (RTT inflated by a congestion
    /// factor, loosening the distance bound). Returns `None` when *no*
    /// assigned probe answered in a round. Outage/flakiness coins key on
    /// `(target ip, probe index)`, so repeat lookups degrade identically
    /// and the measurement-noise RNG stream is untouched at plan `none`.
    pub fn measure_degraded(
        &self,
        ip: IpAddr,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Option<Vec<(usize, f64)>> {
        let target = self.truth.true_location(ip)?;
        let tkey = ip_key(ip);
        let mut rng = self.rng_for(ip);

        // Stage 1: coarse pre-localization from landmark RTTs. Real IPmap
        // narrows the probe assignment with prior knowledge; we use the
        // lowest-RTT landmark as the assignment anchor. Baselines come from
        // the freeze-wide cache; jitter stays on this IP's RNG stream, in
        // the same draw order as the unmemoized loop.
        let stride = (self.mesh.probes.len() / self.cfg.landmarks).max(1);
        let baselines = self.landmark_baselines(target);
        let mut anchor = target; // fallback
        let mut best_rtt = f64::INFINITY;
        for (j, i) in (0..self.mesh.probes.len()).step_by(stride).enumerate() {
            let rtt = self
                .latency
                .min_rtt_over_baseline_ms(baselines[j], self.cfg.samples_per_probe, &mut rng);
            if rtt < best_rtt {
                best_rtt = rtt;
                anchor = self.mesh.probes[i].location;
            }
        }

        // Stage 2: assign the probes nearest the anchor and measure; then
        // one refinement round re-anchored at the lowest-RTT probe (real
        // IPmap iterates its probe selection the same way). Baselines come
        // from the freeze-wide (anchor, target) memo; only the jitter draws
        // are per IP.
        let k = self.cfg.probes_per_target.min(self.mesh.probes.len());
        let mut measured: Vec<(usize, f64)> = Vec::with_capacity(k);
        for round in 0..2 {
            measured.clear();
            let assigned = self.assigned_baselines(anchor, target);
            for &(idx, base) in assigned.iter() {
                report.probes_assigned += 1;
                if inj.probe_out(tkey, idx as u64) {
                    report.probes_out += 1;
                    continue;
                }
                let mut rtt = self
                    .latency
                    .min_rtt_over_baseline_ms(base, self.cfg.samples_per_probe, &mut rng);
                if let Some(factor) = inj.probe_flaky_factor(tkey, idx as u64) {
                    report.probes_flaky += 1;
                    rtt *= factor;
                }
                measured.push((idx, rtt));
            }
            // Every assigned probe dark (or none assigned): no measurement.
            let &(best_idx, _) = measured.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
            if round == 0 {
                anchor = self.mesh.probes[best_idx].location;
            }
        }
        Some(measured)
    }

    /// Per-probe distance constraints for `ip`: `(probe location, distance
    /// upper bound in km)` — the CBG estimator's input.
    pub fn measure_constraints(&self, ip: IpAddr) -> Option<Vec<(LatLon, f64)>> {
        let measured = self.measure(ip)?;
        Some(
            measured
                .into_iter()
                .map(|(idx, rtt)| {
                    (
                        self.mesh.probes[idx].location,
                        self.latency.rtt_to_max_distance_km(rtt).max(1.0),
                    )
                })
                .collect(),
        )
    }

    /// Runs the full measurement pipeline for `ip`, returning per-probe
    /// votes alongside the final estimate (exposed for the probe-count
    /// ablation bench).
    pub fn locate_with_votes(&self, ip: IpAddr) -> Option<(GeoEstimate, Vec<(CountryCode, f64)>)> {
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        self.locate_with_votes_degraded(ip, &inj, &mut report).ok()
    }

    /// [`IpMap::locate_with_votes`] under fault injection, with a typed
    /// failure taxonomy: unknown targets, full probe blackouts, and — when
    /// the plan sets `min_quorum > 0` — abstention whenever fewer than
    /// `min_quorum` probes survive the RTT-bound filter to cast a vote
    /// (a majority over too few voters is noise, not a location).
    pub fn locate_with_votes_degraded(
        &self,
        ip: IpAddr,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> DegradedResult<(GeoEstimate, Vec<(CountryCode, f64)>)> {
        if self.truth.true_location(ip).is_none() {
            return Err(FaultError::GeoUnavailable { ip });
        }
        let measured = self
            .measure_degraded(ip, inj, report)
            .ok_or(FaultError::ProbeOutage { ip })?;

        // Stage 3: only probes whose RTT-derived distance bound is within
        // 1.5x of the tightest bound carry location information; farther
        // probes only confirm the continent. Each surviving probe votes its
        // own country, weighted by bound^-2. The weight denominator is
        // floored at MIN_VOTE_BOUND_KM: an RTT-derived bound near zero
        // (probe co-located with the target) would otherwise give that one
        // probe a weight thousands of times any other's, letting a single
        // mislocated probe decide the majority on its own. The *filter*
        // above still uses the raw bound — a tight bound should keep its
        // probe in the electorate, it just must not own the election.
        let min_bound = measured
            .iter()
            .map(|(_, rtt)| self.latency.rtt_to_max_distance_km(*rtt).max(1.0))
            .fold(f64::INFINITY, f64::min);
        let mut votes: Vec<(CountryCode, f64)> = Vec::with_capacity(measured.len());
        for (idx, rtt) in &measured {
            let bound_km = self.latency.rtt_to_max_distance_km(*rtt).max(1.0);
            if bound_km > min_bound * 1.5 + 50.0 {
                continue;
            }
            let p = &self.mesh.probes[*idx];
            let w_bound = bound_km.max(MIN_VOTE_BOUND_KM);
            votes.push((p.country, 1.0 / (w_bound * w_bound)));
        }

        // Quorum rule: abstain rather than answer from too few voters.
        // Plan `none` sets `min_quorum = 0`, which never abstains.
        let min_quorum = inj.plan().min_quorum;
        if votes.len() < min_quorum {
            report.quorum_abstentions += 1;
            return Err(FaultError::QuorumNotMet {
                votes: votes.len(),
                needed: min_quorum,
            });
        }

        // Stage 4: weighted majority.
        let winner = weighted_majority(&votes).ok_or(FaultError::QuorumNotMet {
            votes: 0,
            needed: min_quorum.max(1),
        })?;
        Ok((GeoEstimate { country: winner }, votes))
    }

    /// Majority agreement among the assigned probes for `ip`: the winning
    /// country's share of the total vote weight. The paper reports >90 %
    /// agreement, with dissent concentrated at borders.
    pub fn vote_agreement(&self, ip: IpAddr) -> Option<f64> {
        let (est, votes) = self.locate_with_votes(ip)?;
        let total: f64 = votes.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let winner: f64 = votes
            .iter()
            .filter(|(c, _)| *c == est.country)
            .map(|(_, w)| w)
            .sum();
        Some(winner / total)
    }
}

/// The country with the largest summed vote weight, `None` without votes.
/// Each country's weights add up in vote order. Ties go to the
/// lexicographically *last* country: `max_by` keeps the last of equal
/// maxima, and the tally iterates in ascending country order.
fn weighted_majority(votes: &[(CountryCode, f64)]) -> Option<CountryCode> {
    let mut tally: std::collections::BTreeMap<CountryCode, f64> = Default::default();
    for (c, w) in votes {
        *tally.entry(*c).or_insert(0.0) += *w;
    }
    tally
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(c, _)| c)
}

impl<G: GroundTruth + ?Sized> Geolocator for IpMap<'_, G> {
    fn locate(&self, ip: IpAddr) -> Option<GeoEstimate> {
        self.locate_with_votes(ip).map(|(e, _)| e)
    }

    fn name(&self) -> &str {
        "RIPE IPmap"
    }

    // Override: thread faults through the actual probe machinery instead of
    // modelling IPmap as a flat provider-miss coin. Provider-level misses
    // still apply on top (the IPmap API itself can be unreachable).
    fn locate_degraded(
        &self,
        ip: IpAddr,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Option<GeoEstimate> {
        report.geo_lookups += 1;
        if inj.geo_missed(ip_key(ip)) {
            report.geo_misses += 1;
            return None;
        }
        match self.locate_with_votes_degraded(ip, inj, report) {
            Ok((est, _)) => Some(est),
            Err(_) => {
                report.geo_misses += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_geo::cc;
    use xborder_netsim::{Infrastructure, OrgKind, PopKind, ServerRole};

    fn world_with_servers(countries: &[&str], per: usize) -> (Infrastructure, Vec<IpAddr>) {
        let mut infra = Infrastructure::new();
        let mut rng = StdRng::seed_from_u64(77);
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
    fn mesh_has_atlas_density_profile() {
        let mut rng = StdRng::seed_from_u64(1);
        let mesh = ProbeMesh::generate(11_000, &mut rng);
        let de = mesh.count_in(cc!("DE"));
        let us = mesh.count_in(cc!("US"));
        let cy = mesh.count_in(cc!("CY"));
        let ng = mesh.count_in(cc!("NG"));
        assert!(de > 300, "DE {de}");
        assert!(us > 300, "US {us}");
        assert!(cy >= 1);
        assert!(de > ng * 5, "DE {de} vs NG {ng}");
        // Every country covered.
        for c in WORLD.countries() {
            assert!(mesh.count_in(c.code) >= 1, "{} uncovered", c.code);
        }
        // Europe holds the majority of probes.
        let europe: usize = WORLD
            .on_continent(xborder_geo::Continent::Europe)
            .map(|c| mesh.count_in(c.code))
            .sum();
        assert!(europe * 2 > mesh.probes().len(), "europe {europe}");
    }

    #[test]
    fn locates_big_country_servers_correctly() {
        let (infra, ips) = world_with_servers(&["DE", "FR", "US"], 10);
        let mut rng = StdRng::seed_from_u64(2);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let mut right = 0;
        for ip in &ips {
            let est = ipmap.locate(*ip).unwrap();
            if Some(est.country) == infra.true_country_of(*ip) {
                right += 1;
            }
        }
        let acc = right as f64 / ips.len() as f64;
        assert!(acc >= 0.9, "accuracy {acc}");
    }

    #[test]
    fn continent_is_essentially_always_right() {
        let (infra, ips) = world_with_servers(&["DE", "GR", "US", "SG", "BR"], 6);
        let mut rng = StdRng::seed_from_u64(3);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        for ip in &ips {
            let est = ipmap.locate(*ip).unwrap();
            let truth = WORLD.country_or_panic(infra.true_country_of(*ip).unwrap());
            assert_eq!(est.continent(), truth.continent, "ip {ip}");
        }
    }

    #[test]
    fn repeat_lookups_are_stable() {
        let (infra, ips) = world_with_servers(&["NL"], 3);
        let mut rng = StdRng::seed_from_u64(4);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        for ip in &ips {
            let a = ipmap.locate(*ip).unwrap();
            let b = ipmap.locate(*ip).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn unknown_ip_is_none() {
        let (infra, _) = world_with_servers(&["NL"], 1);
        let mut rng = StdRng::seed_from_u64(5);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        assert!(ipmap.locate("203.0.113.7".parse().unwrap()).is_none());
    }

    #[test]
    fn validation_against_published_cloud_ranges() {
        // The paper validated IPmap against AWS/Azure ranges with
        // published locations: 99.58 % country, 100 % continent. Recreate
        // the setup: servers in cloud PoPs across probe-dense countries,
        // then measure accuracy over exactly those IPs.
        use xborder_netsim::CloudId;
        let mut infra = Infrastructure::new();
        let mut rng = StdRng::seed_from_u64(88);
        let org = infra.add_org("cloud-tenant", OrgKind::AdTech, cc!("US"));
        let mut ips = Vec::new();
        for c in ["US", "IE", "DE", "GB", "FR", "NL", "SE", "JP"] {
            let code = CountryCode::parse(c).unwrap();
            let pop = infra
                .add_pop(PopKind::Cloud(CloudId::Aws), code, &mut rng)
                .unwrap();
            for _ in 0..5 {
                let s = infra
                    .add_server(org, pop, ServerRole::DedicatedTracking, false)
                    .unwrap();
                ips.push(infra.server(s).unwrap().ip);
            }
        }
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let acc = crate::metrics::accuracy(&ipmap, &infra, &ips);
        assert_eq!(acc.n, ips.len());
        // Under IpMapConfig::small() (32 landmarks) country accuracy varies
        // 0.75–1.0 across RNG draws (median ~0.9 over seeds with the
        // vendored rand stream); continent accuracy is 1.0 everywhere,
        // matching the paper's 100 % continent / 99.58 % country result
        // qualitatively at this scale.
        assert!(acc.country >= 0.7, "country accuracy {}", acc.country);
        assert!(acc.continent >= 0.97, "continent accuracy {}", acc.continent);
    }

    /// A single-target world with a fixed location, for mesh-controlled tests.
    struct FixedTarget {
        ip: IpAddr,
        country: CountryCode,
        location: LatLon,
    }

    impl GroundTruth for FixedTarget {
        fn true_country(&self, ip: IpAddr) -> Option<CountryCode> {
            (ip == self.ip).then_some(self.country)
        }
        fn true_location(&self, ip: IpAddr) -> Option<LatLon> {
            (ip == self.ip).then_some(self.location)
        }
        fn operator_seat(&self, ip: IpAddr) -> Option<CountryCode> {
            (ip == self.ip).then_some(self.country)
        }
        fn all_server_ips(&self) -> Vec<IpAddr> {
            vec![self.ip]
        }
    }

    #[test]
    fn colocated_probe_cannot_outvote_the_neighborhood() {
        // Regression: vote weight is 1/bound², and a probe co-located with
        // the target gets an RTT-derived bound near zero — before the
        // MIN_VOTE_BOUND_KM floor, its single vote outweighed any number of
        // probes a few tens of km away. One mislocated (FR-labeled) probe
        // sitting on a Frankfurt server must not beat ten DE probes 40 km
        // out.
        let target = LatLon::new(50.1, 8.7); // Frankfurt
        let truth = FixedTarget {
            ip: "192.0.2.1".parse().unwrap(),
            country: cc!("DE"),
            location: target,
        };
        let mut probes = vec![Probe {
            country: cc!("FR"),
            location: target, // co-located, wrong label
        }];
        for i in 0..10 {
            probes.push(Probe {
                country: cc!("DE"),
                // ~40 km ring around the target.
                location: LatLon::new(
                    target.lat + 0.36 * ((i as f64) * 0.7).cos(),
                    target.lon + 0.55 * ((i as f64) * 0.7).sin(),
                ),
            });
        }
        let cfg = IpMapConfig {
            total_probes: probes.len(),
            probes_per_target: probes.len(),
            // Many samples: min-of-n converges to the baseline RTT, so the
            // 40 km bounds stay well inside the electorate filter.
            samples_per_probe: 64,
            landmarks: 4,
            disable_assign_cache: false,
        };
        let ipmap = IpMap::with_mesh(cfg, ProbeMesh::from_probes(probes), &truth, 9);

        let (est, votes) = ipmap.locate_with_votes(truth.ip).unwrap();
        assert_eq!(est.country, cc!("DE"), "co-located probe decided the vote");
        // The floor caps every individual weight at MIN_VOTE_BOUND_KM⁻².
        let cap = 1.0 / (MIN_VOTE_BOUND_KM * MIN_VOTE_BOUND_KM);
        for (c, w) in &votes {
            assert!(*w <= cap + 1e-12, "{c} vote weight {w} above cap {cap}");
        }
        // The co-located probe still votes (the electorate filter is
        // untouched) — it just can't own the election.
        assert!(votes.iter().any(|(c, _)| *c == cc!("FR")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        /// Satellite: random meshes × random targets (exact-distance ties,
        /// poles, antimeridian) — the grid index must return exactly the
        /// brute-force `(distance, index)`-ordered result.
        #[test]
        fn grid_nearest_k_matches_brute_force_on_random_meshes(seed in 0u64..10_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.gen_range(1usize..180);
                let mut probes: Vec<Probe> = Vec::with_capacity(n);
                while probes.len() < n {
                    // Mix of general positions, pole/antimeridian extremes,
                    // and exact duplicates (bit-equal distance ties).
                    let loc = match rng.gen_range(0u8..8) {
                        0 => LatLon::new(rng.gen_range(-90.0..=90.0), 180.0),
                        1 => LatLon::new(rng.gen_range(-90.0..=90.0), -180.0),
                        2 => LatLon::new(90.0, rng.gen_range(-180.0..=180.0)),
                        3 => LatLon::new(-90.0, rng.gen_range(-180.0..=180.0)),
                        4 if !probes.is_empty() => {
                            let j = rng.gen_range(0..probes.len());
                            probes[j].location
                        }
                        _ => LatLon::new(
                            rng.gen_range(-90.0..=90.0),
                            rng.gen_range(-180.0..=180.0),
                        ),
                    };
                    probes.push(Probe { country: cc!("DE"), location: loc });
                }
                let mesh = ProbeMesh::from_probes(probes);
                for _ in 0..6 {
                    let target = match rng.gen_range(0u8..4) {
                        0 => LatLon::new(rng.gen_range(-90.0..=90.0), rng.gen_range(179.9..=180.0)),
                        1 => LatLon::new(rng.gen_range(89.0..=90.0), rng.gen_range(-180.0..=180.0)),
                        2 => {
                            // Exactly on a probe: every tie class exercised.
                            let j = rng.gen_range(0..mesh.probes().len());
                            mesh.probes()[j].location
                        }
                        _ => LatLon::new(
                            rng.gen_range(-90.0..=90.0),
                            rng.gen_range(-180.0..=180.0),
                        ),
                    };
                    for k in [0usize, 1, 5, n / 2, n, n + 7] {
                        let (got, _) = mesh.nearest_k_counted(target, k);
                        let want = mesh.nearest_k_brute(target, k);
                        assert_eq!(got, want, "seed {seed} n {n} k {k} target {target:?}");
                    }
                }
        }
    }

    #[test]
    fn assign_cache_is_transparent_and_counts() {
        let (infra, ips) = world_with_servers(&["DE", "FR", "GR"], 4);
        let mut rng = StdRng::seed_from_u64(21);
        let mesh = ProbeMesh::generate(IpMapConfig::small().total_probes, &mut rng);
        let seed: u64 = rng.gen();

        let cached = IpMap::with_mesh(IpMapConfig::small(), mesh.clone(), &infra, seed);
        let uncached_cfg = IpMapConfig {
            disable_assign_cache: true,
            ..IpMapConfig::small()
        };
        let uncached = IpMap::with_mesh(uncached_cfg, mesh, &infra, seed);

        for ip in &ips {
            // Twice per IP: repeat lookups must hit and stay bit-stable.
            for _ in 0..2 {
                let a = cached.measure(*ip).expect("measurement");
                let b = uncached.measure(*ip).expect("measurement");
                assert_eq!(a.len(), b.len());
                for ((ia, ra), (ib, rb)) in a.iter().zip(&b) {
                    assert_eq!(ia, ib);
                    assert_eq!(ra.to_bits(), rb.to_bits(), "ip {ip}");
                }
            }
        }

        let with_cache = cached.assign_cache_stats();
        let without = uncached.assign_cache_stats();
        // Servers share PoP locations, and every IP was measured twice:
        // the cache must both fill and hit.
        assert!(with_cache.misses > 0, "{with_cache:?}");
        assert!(with_cache.hits > 0, "{with_cache:?}");
        assert!(with_cache.index_probe_visits > 0, "{with_cache:?}");
        // Disabled: no cache traffic, but the index still reports visits —
        // strictly more of them, since nothing is memoized.
        assert_eq!(without.hits, 0, "{without:?}");
        assert_eq!(without.misses, 0, "{without:?}");
        assert!(
            without.index_probe_visits > with_cache.index_probe_visits,
            "{without:?} vs {with_cache:?}"
        );
    }

    #[test]
    fn majority_ties_go_to_the_last_country() {
        // Exact weight ties: the lexicographically last country wins,
        // whatever the vote order.
        let (de, fr, nl) = (cc!("DE"), cc!("FR"), cc!("NL"));
        assert_eq!(weighted_majority(&[(de, 0.5), (fr, 0.5)]), Some(fr));
        assert_eq!(weighted_majority(&[(fr, 0.5), (de, 0.5)]), Some(fr));
        assert_eq!(weighted_majority(&[(nl, 0.25), (de, 0.5), (nl, 0.25), (fr, 0.5)]), Some(nl));
        // A strictly larger sum still wins outright.
        assert_eq!(weighted_majority(&[(de, 0.5), (fr, 0.25), (nl, 0.125)]), Some(de));
        assert_eq!(weighted_majority(&[]), None);
    }

    #[test]
    fn mesh_serde_roundtrip_rebuilds_the_index() {
        let mut rng = StdRng::seed_from_u64(13);
        let mesh = ProbeMesh::generate(400, &mut rng);
        let value = serde::Serialize::to_value(&mesh);
        let back: ProbeMesh = serde::Deserialize::from_value(&value).expect("roundtrip");
        assert_eq!(mesh.probes().len(), back.probes().len());
        let target = LatLon::new(48.2, 16.4);
        assert_eq!(
            mesh.nearest_k_counted(target, 25).0,
            back.nearest_k_counted(target, 25).0,
        );
    }

    #[test]
    fn vote_agreement_is_high_inland() {
        // Servers in the middle of big, probe-dense countries get
        // near-unanimous votes.
        let (infra, ips) = world_with_servers(&["DE", "FR"], 5);
        let mut rng = StdRng::seed_from_u64(6);
        let ipmap = IpMap::new(IpMapConfig::small(), &infra, &mut rng);
        let mean: f64 = ips
            .iter()
            .map(|ip| ipmap.vote_agreement(*ip).unwrap())
            .sum::<f64>()
            / ips.len() as f64;
        assert!(mean > 0.7, "mean agreement {mean}");
    }
}
