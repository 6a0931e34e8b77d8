//! The assembled DNS simulator: zones, the study's resolution view and
//! the pDNS sensor.
//!
//! Two faces, split for the parallel study (DESIGN.md §5d, §5f):
//!
//! * [`DnsSim`] — the owning simulator: mutable zone registry plus the
//!   passive-DNS sensor.
//! * [`IndexedZoneView`] — a dense, read-only, `DomainId`-indexed view
//!   over the zone table that many study shards resolve against
//!   concurrently. It never touches the sensor; each shard's
//!   [`crate::DnsCache`] buffers [`PdnsIdObservation`]s and the driver
//!   replays them into the simulator in a deterministic order afterwards
//!   ([`DnsSim::absorb_id_observations`]).

use crate::pdns::PassiveDnsDb;
use crate::resolver::ClientCtx;
use crate::zone::{PopOrders, ZoneEntry, ZoneServer};
use crate::DnsError;
use rand::Rng;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use xborder_faults::{stable_hash, DegradationReport, FaultError, FaultInjector};
use xborder_netsim::time::SimTime;
use xborder_webgraph::{Domain, DomainId, DomainTable};

/// One resolution a sensor would have seen, buffered by a study shard
/// with the host as an interned [`DomainId`] (DESIGN.md §5f) and replayed
/// into the central [`PassiveDnsDb`] after the shards join
/// ([`DnsSim::absorb_id_observations`] resolves ids back to domains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdnsIdObservation {
    /// The resolved name, interned in the world's [`DomainTable`].
    pub host: DomainId,
    /// The answer address.
    pub ip: IpAddr,
    /// Effective resolution time (query time plus any fault backoff).
    pub time: SimTime,
}

/// Authoritative DNS for a whole synthetic world, with a passive-DNS sensor
/// recording every resolution.
#[derive(Debug, Default)]
pub struct DnsSim {
    zones: HashMap<Domain, ZoneEntry>,
    pdns: PassiveDnsDb,
}

/// A dense, id-indexed snapshot of the zone table (DESIGN.md §5f), built
/// once per study by [`DnsSim::indexed_view`] and shared read-only across
/// shards. Zone lookup is a `Vec` index instead of a string hash, and the
/// per-host `stable_hash` of the host's bytes, which the fault coins and
/// miss-RNG seeds key on, is precomputed, so no host is hashed per miss.
#[derive(Debug, Clone)]
pub struct IndexedZoneView<'a> {
    /// Process-unique identity of this snapshot (clones share it), so a
    /// [`PopOrders`] memo can tell which zone table its orders belong to.
    id: u64,
    /// `DomainId → zone` (`None` for domains without a zone, e.g.
    /// publisher domains or unwired hosts).
    by_id: Vec<Option<&'a ZoneEntry>>,
    /// `DomainId → stable_hash(host bytes)`, precomputed.
    host_hash: Vec<u64>,
    domains: &'a DomainTable,
}

impl<'a> IndexedZoneView<'a> {
    /// The zone registered for the interned host, if any.
    pub fn zone_by_id(&self, id: DomainId) -> Option<&'a ZoneEntry> {
        self.by_id.get(id.0 as usize).copied().flatten()
    }

    /// `stable_hash` of the host's bytes — identical to
    /// `stable_hash(host.as_str().as_bytes())`, precomputed at view build.
    pub fn host_hash(&self, id: DomainId) -> u64 {
        self.host_hash[id.0 as usize]
    }

    /// The interner this view was built against.
    pub fn domains(&self) -> &'a DomainTable {
        self.domains
    }

    /// Resolves the interned host at time `t` for `client`, returning the
    /// answer together with the zone's TTL (so stub resolvers never need a
    /// second zone lookup). Each zone's PoP order is computed once per
    /// resolver site into `orders`.
    pub fn resolve_id<R: Rng + ?Sized>(
        &self,
        host_id: DomainId,
        client: &ClientCtx,
        t: SimTime,
        rng: &mut R,
        orders: &mut PopOrders,
    ) -> Result<(ZoneServer, u32), DnsError> {
        let zone = self
            .zone_by_id(host_id)
            .ok_or_else(|| DnsError::NxDomain(self.domains.domain(host_id).clone()))?;
        let answer = orders
            .select(self.id, host_id, zone, client.resolver.location, t, rng)
            .ok_or_else(|| DnsError::EmptyZone(self.domains.domain(host_id).clone()))?;
        Ok((answer, zone.ttl_secs))
    }

    /// Fault-aware resolution: each attempt can time out per the plan's
    /// `resolver_timeout` rate; a timed-out attempt backs off exponentially
    /// on the *sim clock* (base `resolver_backoff_secs`, doubling per
    /// retry) and retries up to `resolver_max_retries` more times. Returns
    /// the answer, the effective resolution time (query time plus
    /// accumulated backoff) and the zone TTL, or
    /// [`FaultError::ResolverTimeout`] once the budget is exhausted. The
    /// coins key on the precomputed [`IndexedZoneView::host_hash`].
    ///
    /// Under an inactive injector this is exactly
    /// [`IndexedZoneView::resolve_id`] (one attempt, no coins, no extra RNG
    /// draws), which is what keeps `FaultPlan::none()` runs bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_degraded_id<R: Rng + ?Sized>(
        &self,
        host_id: DomainId,
        client: &ClientCtx,
        t: SimTime,
        rng: &mut R,
        orders: &mut PopOrders,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Result<(ZoneServer, SimTime, u32), FaultError> {
        if !inj.is_active() {
            report.dns_attempts += 1;
            return self
                .resolve_id(host_id, client, t, rng, orders)
                .map(|(a, ttl)| (a, t, ttl))
                .map_err(|e| FaultError::Dns(e.to_string()));
        }
        let host_key = self.host_hash(host_id);
        let max_attempts = 1 + inj.plan().resolver_max_retries;
        let mut t_eff = t;
        for attempt in 0..max_attempts {
            report.dns_attempts += 1;
            if inj.resolver_timed_out(host_key, t.0, attempt) {
                report.dns_timeouts += 1;
                let backoff = inj.plan().resolver_backoff_secs << attempt;
                report.dns_backoff_secs += backoff;
                t_eff = SimTime(t_eff.0 + backoff);
                continue;
            }
            if attempt > 0 {
                report.dns_retries += 1;
            }
            return self
                .resolve_id(host_id, client, t_eff, rng, orders)
                .map(|(a, ttl)| (a, t_eff, ttl))
                .map_err(|e| FaultError::Dns(e.to_string()));
        }
        report.dns_failures += 1;
        Err(FaultError::ResolverTimeout {
            host: self.domains.domain(host_id).as_str().to_string(),
            attempts: max_attempts,
        })
    }
}

/// Shared body of [`DnsSim::indexed_view`] and
/// [`DnsSim::indexed_view_and_pdns`]: one string lookup plus one
/// `stable_hash` per interned domain.
fn build_indexed_view<'a>(
    zones: &'a HashMap<Domain, ZoneEntry>,
    domains: &'a DomainTable,
) -> IndexedZoneView<'a> {
    let mut by_id = vec![None; domains.len()];
    let mut host_hash = vec![0u64; domains.len()];
    for (id, d) in domains.iter() {
        by_id[id.0 as usize] = zones.get(d);
        host_hash[id.0 as usize] = stable_hash(d.as_str().as_bytes());
    }
    static NEXT_VIEW_ID: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the id only has to be unique, it publishes no other data.
    let id = NEXT_VIEW_ID.fetch_add(1, Ordering::Relaxed);
    IndexedZoneView {
        id,
        by_id,
        host_hash,
        domains,
    }
}

impl DnsSim {
    /// An empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the zone entry for a host.
    pub fn add_zone(&mut self, entry: ZoneEntry) -> Result<(), DnsError> {
        if entry.servers.is_empty() {
            return Err(DnsError::EmptyZone(entry.host.clone()));
        }
        self.zones.insert(entry.host.clone(), entry);
        Ok(())
    }

    /// Builds the dense id-indexed view for a study (DESIGN.md §5f): one
    /// string lookup plus one `stable_hash` per interned domain *here*,
    /// zero on the hot path afterwards.
    pub fn indexed_view<'a>(&'a self, domains: &'a DomainTable) -> IndexedZoneView<'a> {
        build_indexed_view(&self.zones, domains)
    }

    /// [`DnsSim::indexed_view`] plus mutable access to the passive-DNS
    /// sensor: the two borrow disjoint fields, so a streaming driver can
    /// absorb each chunk's observations as it commits while the study
    /// stream keeps resolving through the (read-only) zone view.
    pub fn indexed_view_and_pdns<'a>(
        &'a mut self,
        domains: &'a DomainTable,
    ) -> (IndexedZoneView<'a>, &'a mut PassiveDnsDb) {
        (build_indexed_view(&self.zones, domains), &mut self.pdns)
    }

    /// Replays shard-buffered observations into the passive-DNS sensor,
    /// resolving each interned host back to its domain through `domains`.
    /// Callers replay buffers in a fixed order (user order in the study) so
    /// the database is identical for any shard layout.
    pub fn absorb_id_observations(&mut self, obs: &[PdnsIdObservation], domains: &DomainTable) {
        for o in obs {
            self.pdns.observe(domains.domain(o.host), o.ip, o.time);
        }
    }

    /// The zone registered for `host`, if any.
    pub fn zone(&self, host: &Domain) -> Option<&ZoneEntry> {
        self.zones.get(host)
    }

    /// All registered zones.
    pub fn zones(&self) -> impl Iterator<Item = &ZoneEntry> {
        self.zones.values()
    }

    /// Number of registered zones.
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// Read access to the passive-DNS database.
    pub fn pdns(&self) -> &PassiveDnsDb {
        &self.pdns
    }

    /// Seeds the pDNS database with the *global* view: sensors all over the
    /// world see every zone answer over the study window, not just the
    /// answers our few hundred extension users happened to receive. This is
    /// what makes forward-pDNS completion find extra IPs (paper: +2.78 %).
    ///
    /// `coverage` is the fraction of (host, server) pairs the sensors catch
    /// (1.0 = perfect global visibility).
    pub fn seed_global_pdns<R: Rng + ?Sized>(
        &mut self,
        start: SimTime,
        end: SimTime,
        coverage: f64,
        rng: &mut R,
    ) {
        // Collect and sort first: the zone map has no stable iteration
        // order, and each entry consumes RNG coins — without sorting, two
        // worlds built from the same seed would diverge.
        let mut observations: Vec<(Domain, std::net::IpAddr, Option<xborder_netsim::time::TimeWindow>)> = self
            .zones
            .values()
            .flat_map(|z| z.servers.iter().map(|s| (z.host.clone(), s.ip, s.valid)))
            .collect();
        observations.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        for (host, ip, valid) in observations {
            if rng.gen::<f64>() <= coverage {
                // Sensors only see answers while the server actually
                // answers: clamp the observation span to the server's
                // validity window.
                let lo = valid.map(|w| w.start.max(start)).unwrap_or(start);
                let hi = valid.map(|w| SimTime(w.end.0.min(end.0))).unwrap_or(end);
                if hi.0 <= lo.0 {
                    continue;
                }
                let t0 = SimTime(lo.0 + rng.gen_range(0..(hi.0 - lo.0).max(1)));
                self.pdns.observe(&host, ip, t0);
                // A later observation widens the validity window.
                let t1 = SimTime(t0.0 + rng.gen_range(0..(hi.0 - t0.0).max(1)));
                self.pdns.observe(&host, ip, t1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DnsCache;
    use crate::zone::MappingPolicy;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_faults::FaultPlan;
    use xborder_geo::{cc, CountryCode, WORLD};
    use xborder_netsim::ServerId;

    fn zone(host: &str, servers: &[(u32, &str, &str)]) -> ZoneEntry {
        ZoneEntry {
            host: Domain::new(host),
            servers: servers
                .iter()
                .map(|(id, ip, country)| {
                    let c = WORLD.country_or_panic(CountryCode::parse(country).unwrap());
                    ZoneServer {
                        server: ServerId(*id),
                        ip: ip.parse().unwrap(),
                        country: c.code,
                        location: c.centroid(),
                        valid: None,
                    }
                })
                .collect(),
            policy: MappingPolicy::NearestToResolver { epsilon: 0.0 },
            ttl_secs: 300,
        }
    }

    fn de_client() -> ClientCtx {
        let de = WORLD.country_or_panic(cc!("DE"));
        ClientCtx::with_isp_resolver(cc!("DE"), de.centroid())
    }

    /// A fresh interner holding `hosts`, in order.
    fn table(hosts: &[&str]) -> (DomainTable, Vec<DomainId>) {
        let mut domains = DomainTable::new();
        let ids = hosts.iter().map(|h| domains.intern(&Domain::new(h))).collect();
        (domains, ids)
    }

    /// One user's lookup of `host` through a stub cache, its observation
    /// replayed into the sensor.
    fn resolve_and_absorb(
        dns: &mut DnsSim,
        domains: &DomainTable,
        host: DomainId,
        user: u64,
        t: SimTime,
    ) -> ZoneServer {
        let mut cache = DnsCache::new();
        cache.reset_for_user(0, user);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        let view = dns.indexed_view(domains);
        let (answer, _) = cache
            .resolve_shared_id(&view, host, &de_client(), t, &inj, &mut report)
            .unwrap();
        let obs: Vec<_> = cache.drain_id_observations().collect();
        dns.absorb_id_observations(&obs, domains);
        answer
    }

    #[test]
    fn resolve_records_into_pdns() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "DE"), (1, "1.0.1.1", "US")]))
            .unwrap();
        let (domains, ids) = table(&["t.x.com"]);
        let ans = resolve_and_absorb(&mut dns, &domains, ids[0], 1, SimTime(42));
        let fwd = dns.pdns().forward(&Domain::new("t.x.com"));
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].ip, ans.ip);
        assert_eq!(fwd[0].window.start, SimTime(42));
    }

    #[test]
    fn nxdomain() {
        let dns = DnsSim::new();
        let (domains, ids) = table(&["missing.com"]);
        let mut rng = StdRng::seed_from_u64(2);
        let err = dns.indexed_view(&domains).resolve_id(
            ids[0],
            &de_client(),
            SimTime(0),
            &mut rng,
            &mut PopOrders::new(),
        );
        assert!(matches!(err, Err(DnsError::NxDomain(_))));
    }

    #[test]
    fn empty_zone_rejected_at_registration() {
        let mut dns = DnsSim::new();
        let e = ZoneEntry {
            host: Domain::new("e.com"),
            servers: vec![],
            policy: MappingPolicy::Pinned,
            ttl_secs: 60,
        };
        assert!(matches!(dns.add_zone(e), Err(DnsError::EmptyZone(_))));
    }

    #[test]
    fn uncaptured_resolution_leaves_pdns_empty() {
        // Resolution through the view never captures: the sensor only
        // learns what a driver replays into it.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "DE")])).unwrap();
        let (domains, ids) = table(&["t.x.com"]);
        let mut rng = StdRng::seed_from_u64(3);
        let view = dns.indexed_view(&domains);
        view.resolve_id(ids[0], &de_client(), SimTime(0), &mut rng, &mut PopOrders::new())
            .unwrap();
        let mut cache = DnsCache::new();
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        cache
            .resolve_shared_id(&view, ids[0], &de_client(), SimTime(0), &inj, &mut report)
            .unwrap();
        assert!(dns.pdns().is_empty());
    }

    #[test]
    fn global_seed_sees_servers_users_never_hit() {
        let mut dns = DnsSim::new();
        // Pinned zone: clients only ever receive the first server, yet the
        // zone operates two more the sensors should know about.
        let mut z = zone(
            "t.x.com",
            &[(0, "1.0.0.1", "DE"), (1, "1.0.1.1", "US"), (2, "1.0.2.1", "SG")],
        );
        z.policy = MappingPolicy::Pinned;
        dns.add_zone(z).unwrap();
        let (domains, ids) = table(&["t.x.com"]);
        for user in 0..50 {
            let a = resolve_and_absorb(&mut dns, &domains, ids[0], user, SimTime(10));
            assert_eq!(a.country, cc!("DE"));
        }
        assert_eq!(dns.pdns().forward(&Domain::new("t.x.com")).len(), 1);
        // Global sensors see all three.
        let mut rng = StdRng::seed_from_u64(4);
        dns.seed_global_pdns(SimTime(0), SimTime(1000), 1.0, &mut rng);
        assert_eq!(dns.pdns().forward(&Domain::new("t.x.com")).len(), 3);
    }

    #[test]
    fn seed_respects_coverage_zero() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "DE")])).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        dns.seed_global_pdns(SimTime(0), SimTime(1000), 0.0, &mut rng);
        assert!(dns.pdns().is_empty());
    }

    #[test]
    fn indexed_view_matches_string_view_bit_for_bit() {
        // Every interned domain's slot holds exactly the zone the
        // string-keyed table holds (none for an unwired domain), and its
        // precomputed hash is `stable_hash` of the host's bytes, the key
        // of every fault coin and miss-RNG seed.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "DE"), (1, "1.0.1.1", "US")]))
            .unwrap();
        dns.add_zone(zone("u.y.com", &[(2, "1.0.2.1", "FR")])).unwrap();
        // The unwired domain comes first so the wired hosts' ids are offset.
        let (domains, ids) = table(&["nozone.example.com", "u.y.com", "t.x.com"]);
        let view = dns.indexed_view(&domains);
        assert!(view.zone_by_id(ids[0]).is_none());
        for (id, d) in domains.iter() {
            assert!(std::ptr::eq(
                view.zone_by_id(id).map_or(std::ptr::null(), |z| z as *const ZoneEntry),
                dns.zone(d).map_or(std::ptr::null(), |z| z as *const ZoneEntry),
            ));
            assert_eq!(view.host_hash(id), stable_hash(d.as_str().as_bytes()));
        }
    }

    #[test]
    fn degraded_resolution_backs_off_on_the_sim_clock() {
        // The one retry loop: under an inactive injector it is exactly one
        // plain resolution; under an aggressive plan every query ends in
        // an answer at or after its query time, or a timeout, and the
        // report's counters balance.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "DE"), (1, "1.0.1.1", "US")]))
            .unwrap();
        let (domains, ids) = table(&["t.x.com"]);
        let view = dns.indexed_view(&domains);
        let mut orders = PopOrders::new();
        let mut report = DegradationReport::default();
        let (mut r1, mut r2) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        let plain = view.resolve_id(ids[0], &de_client(), SimTime(5), &mut r1, &mut orders);
        let inactive = FaultInjector::inactive();
        let degraded = view.resolve_degraded_id(
            ids[0], &de_client(), SimTime(5), &mut r2, &mut orders, &inactive, &mut report,
        );
        assert_eq!(plain.map(|(a, ttl)| (a, SimTime(5), ttl)).ok(), degraded.ok());
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        assert_eq!(report.dns_attempts, 1);

        let inj = FaultInjector::new(FaultPlan::aggressive(3));
        let mut report = DegradationReport::default();
        let (mut answered, queries) = (0u64, 200u64);
        for i in 0..queries {
            let t = SimTime(i * 31);
            match view.resolve_degraded_id(
                ids[0], &de_client(), t, &mut r1, &mut orders, &inj, &mut report,
            ) {
                Ok((_, t_eff, ttl)) => {
                    assert!(t_eff >= t);
                    assert_eq!(ttl, 300);
                    answered += 1;
                }
                Err(e) => assert!(matches!(e, FaultError::ResolverTimeout { .. })),
            }
        }
        assert!(report.dns_timeouts > 0, "the aggressive plan never timed out");
        assert_eq!(answered + report.dns_failures, queries);
        assert_eq!(report.dns_attempts, report.dns_timeouts + answered);
    }

    #[test]
    fn id_observations_replay_like_string_observations() {
        // Replaying id observations records exactly what observing each
        // one's domain string directly records.
        let (domains, ids) = table(&["t.x.com", "u.y.com"]);
        let obs = [
            (ids[0], "1.0.0.1", 5),
            (ids[1], "1.0.0.2", 7),
            (ids[0], "1.0.0.1", 90),
            (ids[0], "1.0.0.3", 3),
        ]
        .map(|(host, ip, t)| PdnsIdObservation { host, ip: ip.parse().unwrap(), time: SimTime(t) });
        let mut dns = DnsSim::new();
        dns.absorb_id_observations(&obs, &domains);
        let mut want = PassiveDnsDb::new();
        for o in &obs {
            want.observe(domains.domain(o.host), o.ip, o.time);
        }
        assert_eq!(dns.pdns().len(), want.len());
        for (_, d) in domains.iter() {
            assert_eq!(dns.pdns().forward(d), want.forward(d));
        }
    }

    #[test]
    fn resolver_vantage_changes_mapping() {
        // A Greek user on public DNS egresses from a foreign hub (no GR PoP
        // in the public-DNS footprint); with a GR+IT zone the ISP-resolver
        // user maps home, the public-DNS one abroad.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", &[(0, "1.0.0.1", "GR"), (1, "1.0.1.1", "IT")]))
            .unwrap();
        let (domains, ids) = table(&["t.x.com"]);
        let view = dns.indexed_view(&domains);
        let mut orders = PopOrders::new();
        let gr = WORLD.country_or_panic(cc!("GR"));
        let mut rng = StdRng::seed_from_u64(6);

        let isp_user = ClientCtx::with_isp_resolver(cc!("GR"), gr.centroid());
        let (a, _) = view.resolve_id(ids[0], &isp_user, SimTime(0), &mut rng, &mut orders).unwrap();
        assert_eq!(a.country, cc!("GR"));

        let public_user = ClientCtx::with_public_resolver(cc!("GR"), gr.centroid());
        assert_ne!(public_user.resolver.country, cc!("GR"));
        let (b, _) =
            view.resolve_id(ids[0], &public_user, SimTime(0), &mut rng, &mut orders).unwrap();
        // Egress PoP is Italian -> mapping prefers the IT server.
        assert_eq!(b.country, cc!("IT"));
    }
}
