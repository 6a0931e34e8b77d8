//! Authoritative zones and mapping policies.

use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use xborder_geo::{CountryCode, LatLon};
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_netsim::ServerId;
use xborder_webgraph::{Domain, DomainId};

/// One candidate server in a zone's answer set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneServer {
    /// The server's registry id.
    pub server: ServerId,
    /// Its address (what goes in the A/AAAA answer).
    pub ip: IpAddr,
    /// Physical country of the server (ground truth; the authoritative
    /// operator knows where its own PoPs are).
    pub country: CountryCode,
    /// Physical location (used for nearest-PoP mapping).
    pub location: LatLon,
    /// When this server answers for the zone. Operators rotate addresses
    /// over a 4.5-month study — the paper's reason for attaching pDNS
    /// validity windows to every (domain, IP) pair (Sect. 3.3). `None`
    /// means the whole study.
    pub valid: Option<TimeWindow>,
}

impl ZoneServer {
    /// True if the server answers at time `t`.
    pub fn is_valid_at(&self, t: SimTime) -> bool {
        self.valid.map(|w| w.contains(t)).unwrap_or(true)
    }
}

/// How the authoritative side picks an answer among its servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Geo-DNS: answer with the server nearest to the *resolver* that
    /// asked. With probability `epsilon` the answer is instead a uniformly
    /// random server — capacity balancing and stale mappings make real
    /// geo-DNS much coarser than pure nearest-PoP, and that dispersion is
    /// precisely the slack the paper's DNS-redirection what-if recovers
    /// (Table 5).
    NearestToResolver {
        /// Probability of answering with a random PoP (load balancing).
        epsilon: f64,
    },
    /// Uniform rotation over all servers (small operators without geo-DNS).
    RoundRobin,
    /// Always the same single answer (typical single-server deployment).
    Pinned,
}

/// The authoritative state for one FQDN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZoneEntry {
    /// The name this entry answers for.
    pub host: Domain,
    /// Candidate servers.
    pub servers: Vec<ZoneServer>,
    /// Selection policy.
    pub policy: MappingPolicy,
    /// Answer TTL in seconds. Short TTLs (Google-like 300 s) make DNS
    /// redirection a fast lever, long ones (Facebook-like 7,200 s) a slow
    /// one — the paper cites both (Sect. 5.1).
    pub ttl_secs: u32,
}

/// Capacity acceptance probability of a PoP in `country`. Quadratic:
/// mapping efficiency falls off steeply below the hubs. Reverse-engineered
/// from the paper's Table 6 (TLD-redirection potential vs default
/// confinement per country: DE ~86 % efficient, GB ~71 %, ES ~38 %).
fn p_accept(country: CountryCode) -> f64 {
    let it = xborder_geo::WORLD
        .country(country)
        .map(|c| c.it_index)
        .unwrap_or(0.5);
    0.08 + 0.85 * it * it
}

impl ZoneEntry {
    /// Writes every server as a `(distance_km from resolver_loc, index)`
    /// pair into `keyed` (which must hold exactly one slot per server),
    /// stably sorted by distance: servers at equal distance keep the lower
    /// index first.
    ///
    /// Geo-DNS maps by resolver, never by user, so this order is a pure
    /// function of `(zone, resolver location)` — which is what lets
    /// [`PopOrders`] compute it once per resolver site.
    pub fn pop_order(&self, resolver_loc: LatLon, keyed: &mut [(f64, u32)]) {
        assert_eq!(keyed.len(), self.servers.len(), "one slot per server");
        for (i, (slot, s)) in keyed.iter_mut().zip(&self.servers).enumerate() {
            *slot = (resolver_loc.distance_km(&s.location), i as u32);
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// The one selection walk. `order` yields [`ZoneEntry::pop_order`]'s
    /// server indices; only the capacity walk asks for it, so pinned,
    /// round-robin and load-balanced answers never pay for an order.
    ///
    /// Draw order is part of the determinism contract: a nearest-policy
    /// zone with one valid server answers without a draw; otherwise one
    /// epsilon draw, then either one uniform pick over the valid servers
    /// in index order or one acceptance draw per valid server walked.
    fn select_in_order<R, I>(
        &self,
        t: SimTime,
        rng: &mut R,
        order: impl FnOnce() -> I,
    ) -> Option<ZoneServer>
    where
        R: rand::Rng + ?Sized,
        I: Iterator<Item = u32>,
    {
        let mut valid = self.servers.iter().filter(|s| s.is_valid_at(t));
        let first = *valid.next()?;
        let n = 1 + valid.count();
        let nth_valid = |k: usize| {
            self.servers
                .iter()
                .filter(|s| s.is_valid_at(t))
                .nth(k)
                .copied()
        };
        match self.policy {
            MappingPolicy::Pinned => Some(first),
            MappingPolicy::RoundRobin => nth_valid(rng.gen_range(0..n)),
            MappingPolicy::NearestToResolver { epsilon } => {
                if n == 1 {
                    return Some(first);
                }
                if rng.gen::<f64>() < epsilon {
                    // Load-balanced / stale answer: any PoP.
                    return nth_valid(rng.gen_range(0..n));
                }
                // Capacity-aware nearest mapping: walk PoPs by distance and
                // accept each with a probability tied to its country's
                // IT-infrastructure density. Small-country PoPs overflow to
                // the next site (typically a hub) — which is exactly the
                // correlation between datacenter density and national
                // confinement the paper reports (Sect. 5). When every PoP
                // declines, the nearest answers.
                let mut nearest = None;
                for i in order() {
                    let s = &self.servers[i as usize];
                    if !s.is_valid_at(t) {
                        continue;
                    }
                    nearest.get_or_insert(*s);
                    if rng.gen::<f64>() < p_accept(s.country) {
                        return Some(*s);
                    }
                }
                nearest
            }
        }
    }

    /// All distinct countries this zone can answer from.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut v: Vec<CountryCode> = self.servers.iter().map(|s| s.country).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Memoized PoP orders, one per `(zone, resolver site)` pair (DESIGN.md
/// §5f).
///
/// Geo-DNS sees the resolver, never the user, and every resolver sits at
/// a country centroid, so a study's cache misses touch a few dozen sites.
/// Each `(host id, site)` pair gets its [`ZoneEntry::pop_order`] computed
/// once; the memo never grows with users. A site is the resolver
/// location's exact `f64` bits, interned to a small index, and all orders
/// live in one arena.
///
/// Orders are keyed by host id, so they hold for one zone table: the memo
/// remembers the [`crate::IndexedZoneView`] it was filled against and
/// starts over when asked about another.
#[derive(Debug, Default)]
pub struct PopOrders {
    /// Identity of the view the orders were computed against (0: none).
    view: u64,
    /// Interned resolver sites: `(lat, lon)` bit patterns.
    sites: Vec<[u64; 2]>,
    /// `site → host id → 1 + arena offset` of the order (0: not yet).
    slots: Vec<Vec<u32>>,
    /// Server indices of every memoized order, back to back.
    arena: Vec<u32>,
    /// Reused `(distance, index)` buffer for computing one order.
    keyed: Vec<(f64, u32)>,
}

impl PopOrders {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks an answer from `zone` per its policy — the one production
    /// selection. `resolver_loc` is where the query came from (the
    /// resolver, not the end user — geo-DNS cannot see past it); `t`
    /// scopes the candidate set to servers valid at query time. The zone's
    /// PoP order for this resolver site is computed only on the site's
    /// first capacity walk. `view` identifies the zone table `zone` and
    /// `host` come from.
    pub(crate) fn select<R: rand::Rng + ?Sized>(
        &mut self,
        view: u64,
        host: DomainId,
        zone: &ZoneEntry,
        resolver_loc: LatLon,
        t: SimTime,
        rng: &mut R,
    ) -> Option<ZoneServer> {
        if self.view != view {
            *self = PopOrders {
                view,
                ..PopOrders::default()
            };
        }
        zone.select_in_order(t, rng, || {
            self.order(host, zone, resolver_loc).iter().copied()
        })
    }

    fn order(&mut self, host: DomainId, zone: &ZoneEntry, resolver_loc: LatLon) -> &[u32] {
        let key = [resolver_loc.lat.to_bits(), resolver_loc.lon.to_bits()];
        let site = match self.sites.iter().position(|s| *s == key) {
            Some(site) => site,
            None => {
                self.sites.push(key);
                self.slots.push(Vec::new());
                self.sites.len() - 1
            }
        };
        let slots = &mut self.slots[site];
        let idx = host.0 as usize;
        if slots.len() <= idx {
            slots.resize(idx + 1, 0);
        }
        let n = zone.servers.len();
        let start = match slots[idx] {
            0 => {
                let start = self.arena.len();
                self.keyed.resize(n, (0.0, 0));
                zone.pop_order(resolver_loc, &mut self.keyed);
                self.arena.extend(self.keyed.iter().map(|&(_, i)| i));
                slots[idx] = u32::try_from(start + 1).expect("PoP-order arena under 4 Gi entries");
                start
            }
            s => s as usize - 1,
        };
        &self.arena[start..start + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use xborder_geo::cc;

    fn server(id: u32, ip: &str, country: &str, lat: f64, lon: f64) -> ZoneServer {
        ZoneServer {
            server: ServerId(id),
            ip: ip.parse().unwrap(),
            country: CountryCode::parse(country).unwrap(),
            location: LatLon::new(lat, lon),
            valid: None,
        }
    }

    fn three_pop_zone(policy: MappingPolicy) -> ZoneEntry {
        ZoneEntry {
            host: Domain::new("t.gtrack.com"),
            servers: vec![
                server(0, "1.0.0.1", "US", 39.0, -98.0),
                server(1, "1.0.1.1", "DE", 51.0, 10.0),
                server(2, "1.0.2.1", "SG", 1.35, 103.8),
            ],
            policy,
            ttl_secs: 300,
        }
    }

    /// One selection through a new memo, so the PoP order is computed
    /// afresh on every call.
    fn select(zone: &ZoneEntry, loc: LatLon, t: SimTime, rng: &mut StdRng) -> Option<ZoneServer> {
        PopOrders::new().select(1, DomainId(0), zone, loc, t, rng)
    }

    /// The selection scan `select` ran before the PoP-order split, kept as
    /// the oracle: candidate indices and distances in stack arrays, and a
    /// selection scan (first candidate wins on equal distance) for the
    /// capacity walk.
    fn oracle_select(
        zone: &ZoneEntry,
        resolver_loc: LatLon,
        t: SimTime,
        rng: &mut StdRng,
    ) -> Option<ZoneServer> {
        const STACK_POPS: usize = 128;
        if zone.servers.len() > STACK_POPS {
            return oracle_select_large(zone, resolver_loc, t, rng);
        }
        let mut cand = [0u32; STACK_POPS];
        let mut n = 0usize;
        for (i, s) in zone.servers.iter().enumerate() {
            if s.is_valid_at(t) {
                cand[n] = i as u32;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        match zone.policy {
            MappingPolicy::Pinned => Some(zone.servers[cand[0] as usize]),
            MappingPolicy::RoundRobin => Some(zone.servers[cand[rng.gen_range(0..n)] as usize]),
            MappingPolicy::NearestToResolver { epsilon } => {
                if n == 1 {
                    return Some(zone.servers[cand[0] as usize]);
                }
                if rng.gen::<f64>() < epsilon {
                    return Some(zone.servers[cand[rng.gen_range(0..n)] as usize]);
                }
                let mut dist = [0.0f64; STACK_POPS];
                for (k, d) in dist.iter_mut().enumerate().take(n) {
                    *d = resolver_loc.distance_km(&zone.servers[cand[k] as usize].location);
                }
                let mut taken = [false; STACK_POPS];
                let mut nearest = 0usize;
                for round in 0..n {
                    let mut best = usize::MAX;
                    for k in 0..n {
                        if !taken[k] && (best == usize::MAX || dist[k] < dist[best]) {
                            best = k;
                        }
                    }
                    taken[best] = true;
                    if round == 0 {
                        nearest = best;
                    }
                    let s = &zone.servers[cand[best] as usize];
                    if rng.gen::<f64>() < p_accept(s.country) {
                        return Some(*s);
                    }
                }
                Some(zone.servers[cand[nearest] as usize])
            }
        }
    }

    /// The old heap fallback for zones above the scan's stack capacity.
    fn oracle_select_large(
        zone: &ZoneEntry,
        resolver_loc: LatLon,
        t: SimTime,
        rng: &mut StdRng,
    ) -> Option<ZoneServer> {
        let candidates: Vec<&ZoneServer> =
            zone.servers.iter().filter(|s| s.is_valid_at(t)).collect();
        if candidates.is_empty() {
            return None;
        }
        match zone.policy {
            MappingPolicy::Pinned => Some(*candidates[0]),
            MappingPolicy::RoundRobin => Some(*candidates[rng.gen_range(0..candidates.len())]),
            MappingPolicy::NearestToResolver { epsilon } => {
                if candidates.len() == 1 {
                    return Some(*candidates[0]);
                }
                if rng.gen::<f64>() < epsilon {
                    return Some(*candidates[rng.gen_range(0..candidates.len())]);
                }
                let mut order: Vec<(usize, f64)> = candidates
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, resolver_loc.distance_km(&s.location)))
                    .collect();
                order.sort_by(|a, b| a.1.total_cmp(&b.1));
                for (i, _) in &order {
                    if rng.gen::<f64>() < p_accept(candidates[*i].country) {
                        return Some(*candidates[*i]);
                    }
                }
                Some(*candidates[order[0].0])
            }
        }
    }

    #[test]
    fn memoized_walk_matches_the_old_scan() {
        use xborder_netsim::time::TimeWindow;
        // Random zones of 1..=150 servers (past the scan's 128-slot stack
        // path, so its heap fallback is an oracle too) drawn from a small
        // palette of sites, so co-located servers tie on distance; random
        // validity windows; every policy. The walk through a new memo and
        // the kept memo's walk, on first use and on a memo hit, must all
        // return the oracle's server and leave the RNG where the oracle
        // left it.
        let countries = ["DE", "US", "SG", "CY", "GB", "BR", "ZA", "JP"];
        let policies = [
            MappingPolicy::Pinned,
            MappingPolicy::RoundRobin,
            MappingPolicy::NearestToResolver { epsilon: 0.0 },
            MappingPolicy::NearestToResolver { epsilon: 0.3 },
            MappingPolicy::NearestToResolver { epsilon: 1.0 },
        ];
        let mut gen = StdRng::seed_from_u64(0x9e0_d15);
        let palette: Vec<LatLon> = (0..12)
            .map(|_| LatLon::new(gen.gen_range(-60.0..70.0), gen.gen_range(-180.0..180.0)))
            .collect();
        let resolvers: Vec<LatLon> = palette
            .iter()
            .take(4)
            .copied()
            .chain(
                (0..4)
                    .map(|_| LatLon::new(gen.gen_range(-60.0..70.0), gen.gen_range(-180.0..180.0))),
            )
            .collect();
        let mut orders = PopOrders::new();
        for case in 0..400u32 {
            let n = if case % 8 == 0 {
                gen.gen_range(129..=150)
            } else {
                gen.gen_range(1..=40)
            };
            let servers = (0..n)
                .map(|i| {
                    let start = gen.gen_range(0..100u64);
                    ZoneServer {
                        server: ServerId(i),
                        ip: std::net::IpAddr::from([10, 0, (i >> 8) as u8, i as u8]),
                        country: CountryCode::parse(countries[gen.gen_range(0..countries.len())])
                            .unwrap(),
                        location: palette[gen.gen_range(0..palette.len())],
                        valid: gen.gen_bool(0.3).then(|| {
                            TimeWindow::new(SimTime(start), SimTime(start + gen.gen_range(1..100)))
                        }),
                    }
                })
                .collect();
            let zone = ZoneEntry {
                host: Domain::new("t.prop.com"),
                servers,
                policy: policies[case as usize % policies.len()],
                ttl_secs: 300,
            };
            let host = DomainId(case % 7);
            for query in 0..24u64 {
                let loc = resolvers[gen.gen_range(0..resolvers.len())];
                let t = SimTime(gen.gen_range(0..200));
                let seed = case as u64 * 1000 + query;
                let mut r_oracle = StdRng::seed_from_u64(seed);
                let mut r_plain = StdRng::seed_from_u64(seed);
                let mut r_memo = StdRng::seed_from_u64(seed);
                let want = oracle_select(&zone, loc, t, &mut r_oracle);
                assert_eq!(
                    select(&zone, loc, t, &mut r_plain),
                    want,
                    "select, case {case}"
                );
                // The view id changes per case: each case is a new zone
                // under reused host ids, and must not see the last one's orders.
                let memo = orders.select(u64::from(case) + 1, host, &zone, loc, t, &mut r_memo);
                assert_eq!(memo, want, "memoized walk, case {case} query {query}");
                let next = r_oracle.gen::<u64>();
                assert_eq!(
                    r_plain.gen::<u64>(),
                    next,
                    "select RNG position, case {case}"
                );
                assert_eq!(r_memo.gen::<u64>(), next, "memo RNG position, case {case}");
            }
        }
    }

    #[test]
    fn nearest_picks_the_nearby_pop_mostly() {
        // Capacity-aware mapping is stochastic; the nearest high-capacity
        // PoP must still win the large majority of answers.
        let zone = three_pop_zone(MappingPolicy::NearestToResolver { epsilon: 0.0 });
        let mut rng = StdRng::seed_from_u64(1);
        let majority = |loc: LatLon, rng: &mut StdRng| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..300 {
                let answer = select(&zone, loc, SimTime(0), rng).unwrap();
                *counts.entry(answer.country).or_insert(0) += 1;
            }
            counts.into_iter().max_by_key(|(_, n)| *n).unwrap().0
        };
        // Resolver in Austria -> Germany.
        assert_eq!(majority(LatLon::new(48.2, 16.4), &mut rng), cc!("DE"));
        // Resolver in California -> US.
        assert_eq!(majority(LatLon::new(37.0, -122.0), &mut rng), cc!("US"));
        // Resolver in Jakarta -> Singapore.
        assert_eq!(majority(LatLon::new(-6.2, 106.8), &mut rng), cc!("SG"));
    }

    #[test]
    fn low_capacity_pops_overflow_to_hubs() {
        // A Cypriot PoP (it_index 0.10) next to a German one: even Cypriot
        // resolvers frequently get pushed to the hub.
        let zone = ZoneEntry {
            host: Domain::new("t.x.com"),
            servers: vec![
                server(0, "1.0.0.1", "CY", 35.1, 33.4),
                server(1, "1.0.1.1", "DE", 51.0, 10.0),
            ],
            policy: MappingPolicy::NearestToResolver { epsilon: 0.0 },
            ttl_secs: 300,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let nicosia = LatLon::new(35.2, 33.4);
        let n = 2000;
        let local = (0..n)
            .filter(|_| select(&zone, nicosia, SimTime(0), &mut rng).unwrap().country == cc!("CY"))
            .count();
        let share = local as f64 / n as f64;
        // Acceptance for CY is 0.08 + 0.85*0.10^2 = 0.0885; when CY
        // rejects, DE accepts with 0.847, otherwise the walk falls back to
        // the nearest (CY): 0.0885 + 0.9115 * 0.153 ≈ 0.228.
        assert!((share - 0.228).abs() < 0.04, "local share {share}");
    }

    #[test]
    fn epsilon_disperses_over_all_pops() {
        let zone = three_pop_zone(MappingPolicy::NearestToResolver { epsilon: 0.3 });
        let mut rng = StdRng::seed_from_u64(2);
        let vienna = LatLon::new(48.2, 16.4);
        let n = 3000;
        let mut non_de = 0usize;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let ans = select(&zone, vienna, SimTime(0), &mut rng).unwrap();
            seen.insert(ans.country);
            if ans.country != cc!("DE") {
                non_de += 1;
            }
        }
        // Random picks (epsilon * 2/3) plus occasional capacity overflow.
        let share = non_de as f64 / n as f64;
        assert!((0.15..0.40).contains(&share), "share {share}");
        assert_eq!(seen.len(), 3, "dispersion should reach every PoP");
    }

    #[test]
    fn round_robin_covers_all() {
        let zone = three_pop_zone(MappingPolicy::RoundRobin);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(select(&zone, LatLon::new(0.0, 0.0), SimTime(0), &mut rng).unwrap().server);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn pinned_always_first() {
        let zone = three_pop_zone(MappingPolicy::Pinned);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            assert_eq!(
                select(&zone, LatLon::new(48.0, 16.0), SimTime(0), &mut rng).unwrap().server,
                ServerId(0)
            );
        }
    }

    #[test]
    fn empty_zone_selects_none() {
        let zone = ZoneEntry {
            host: Domain::new("x.com"),
            servers: vec![],
            policy: MappingPolicy::Pinned,
            ttl_secs: 60,
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(select(&zone, LatLon::new(0.0, 0.0), SimTime(0), &mut rng).is_none());
    }

    #[test]
    fn validity_windows_scope_answers_in_time() {
        use xborder_netsim::time::TimeWindow;
        let mut old = server(0, "1.0.0.1", "US", 39.0, -98.0);
        old.valid = Some(TimeWindow::new(SimTime(0), SimTime(1000)));
        let mut new = server(1, "1.0.0.2", "US", 39.0, -98.0);
        new.valid = Some(TimeWindow::new(SimTime(1000), SimTime(u64::MAX)));
        let zone = ZoneEntry {
            host: Domain::new("rotating.x.com"),
            servers: vec![old, new],
            policy: MappingPolicy::NearestToResolver { epsilon: 0.0 },
            ttl_secs: 300,
        };
        let mut rng = StdRng::seed_from_u64(10);
        let la = LatLon::new(34.0, -118.0);
        for _ in 0..20 {
            assert_eq!(select(&zone, la, SimTime(500), &mut rng).unwrap().server, ServerId(0));
            assert_eq!(select(&zone, la, SimTime(1500), &mut rng).unwrap().server, ServerId(1));
        }
        // A gap with no valid server yields no answer.
        let gap_zone = ZoneEntry {
            host: Domain::new("gap.x.com"),
            servers: vec![{
                let mut s = server(2, "1.0.0.3", "US", 39.0, -98.0);
                s.valid = Some(TimeWindow::new(SimTime(0), SimTime(10)));
                s
            }],
            policy: MappingPolicy::Pinned,
            ttl_secs: 300,
        };
        assert!(select(&gap_zone, la, SimTime(11), &mut rng).is_none());
    }

    #[test]
    fn countries_deduplicated() {
        let mut zone = three_pop_zone(MappingPolicy::RoundRobin);
        zone.servers.push(server(3, "1.0.3.1", "DE", 50.0, 8.0));
        assert_eq!(zone.countries().len(), 3);
    }

    #[test]
    fn single_server_nearest_short_circuits() {
        let zone = ZoneEntry {
            host: Domain::new("x.com"),
            servers: vec![server(7, "1.2.3.4", "FR", 48.0, 2.0)],
            policy: MappingPolicy::NearestToResolver { epsilon: 0.5 },
            ttl_secs: 60,
        };
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let answer = select(&zone, LatLon::new(0.0, 0.0), SimTime(0), &mut rng);
            assert_eq!(answer.unwrap().server, ServerId(7));
        }
    }
}
