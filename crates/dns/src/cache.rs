//! A TTL-honouring stub-resolver cache.
//!
//! Why it matters for the paper: DNS redirection (Table 5's best lever)
//! only takes effect once cached answers expire. The paper contrasts
//! Google's 300 s TTLs with Facebook's 7,200 s ones (Sect. 5.1) — a
//! redirection rolls out "from seconds to a few hours". This cache makes
//! that dynamic measurable: resolve through it, flip the zone, and watch
//! the old answer linger for exactly one TTL.
//!
//! It is also the *per-user* resolver state of the extension study
//! (DESIGN.md §5d), mirroring the paper's per-client caching (Sect. 5.1):
//! each simulated user starts from an empty cache, resolves interned hosts
//! against a shared read-only [`IndexedZoneView`], and buffers the
//! [`PdnsIdObservation`]s its cache misses would have produced at a
//! production resolver. Lookup RNG is hash-derived from
//! `(user stream, host, time)`, so a lookup's answer never depends on how
//! many lookups ran before it — the property that lets user shards run
//! concurrently and still merge bit-identically.
//!
//! A study shard holds one `DnsCache` and hands it from user to user with
//! [`DnsCache::reset_for_user`] (DESIGN.md §5f): the user-visible state
//! starts over as if the cache were new, while the allocations and the
//! [`PopOrders`] memo carry over — the memo holds pure functions of the
//! zone table, never anything a user did.

use crate::resolver::ClientCtx;
use crate::sim::{IndexedZoneView, PdnsIdObservation};
use crate::zone::{PopOrders, ZoneServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xborder_faults::{derive_stream_seed, DegradationReport, FaultError, FaultInjector};
use xborder_netsim::time::SimTime;
use xborder_webgraph::DomainId;

/// One cached answer.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    answer: ZoneServer,
    expires: SimTime,
}

/// A per-client answer cache over interned hosts.
#[derive(Debug, Default)]
pub struct DnsCache {
    /// Dense id-indexed entries (DESIGN.md §5f); grown lazily to the
    /// highest id touched.
    by_id: Vec<Option<CacheEntry>>,
    /// Ids whose `by_id` slot this user filled, so a reset clears only
    /// those.
    touched: Vec<u32>,
    /// Per-resolver-site PoP orders of the zones missed so far; kept
    /// across users.
    orders: PopOrders,
    /// Seed of this client's lookup-RNG stream (see
    /// [`DnsCache::reset_for_user`]).
    lookup_seed: u64,
    /// Observations buffered on cache misses, for deterministic replay
    /// into the central pDNS database.
    id_observations: Vec<PdnsIdObservation>,
}

impl DnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes this cache the stub-resolver state of one study user without
    /// giving back its allocations: entries and buffered observations are
    /// dropped (clearing only the id slots the previous user filled), the
    /// PoP-order memo is kept, and lookup RNG now derives from
    /// `(study_seed, user)`, so two users' DNS answers are independent and
    /// a user's answers are independent of every other user's progress.
    /// Drain the previous user's observations first.
    pub fn reset_for_user(&mut self, study_seed: u64, user: u64) {
        for id in self.touched.drain(..) {
            self.by_id[id as usize] = None;
        }
        self.lookup_seed = derive_stream_seed(study_seed, user);
        self.id_observations.clear();
    }

    /// Resolves through the cache against a shared read-only zone view —
    /// the study's per-user path (DESIGN.md §5f). A hit answers from the
    /// cache (no authoritative query, no pDNS observation, no RNG); a miss
    /// resolves with a lookup RNG derived from `(user stream, host, time)`
    /// — the host keyed by the view's precomputed `stable_hash` of its
    /// bytes — buffers the observation a sensor would have recorded, and
    /// caches the answer until its TTL runs out (TTL measured from the
    /// *effective* resolve time, after any fault backoff). No `Domain` is
    /// cloned anywhere: cache slots are a dense `Vec` indexed by id and
    /// observations buffer the id. Each zone's PoP order is computed once
    /// per resolver site and kept in the cache's [`PopOrders`] memo.
    pub fn resolve_shared_id(
        &mut self,
        view: &IndexedZoneView<'_>,
        host_id: DomainId,
        client: &ClientCtx,
        now: SimTime,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Result<(ZoneServer, SimTime), FaultError> {
        let idx = host_id.0 as usize;
        if self.by_id.len() <= idx {
            self.by_id.resize(idx + 1, None);
        }
        if let Some(entry) = self.by_id[idx] {
            if now < entry.expires {
                report.dns_cache_hits += 1;
                return Ok((entry.answer, now));
            }
        }
        report.dns_cache_misses += 1;
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(
            self.lookup_seed,
            view.host_hash(host_id) ^ now.0.rotate_left(32),
        ));
        let (answer, t_eff, ttl) = view.resolve_degraded_id(
            host_id,
            client,
            now,
            &mut rng,
            &mut self.orders,
            inj,
            report,
        )?;
        self.id_observations.push(PdnsIdObservation {
            host: host_id,
            ip: answer.ip,
            time: t_eff,
        });
        if self.by_id[idx].is_none() {
            self.touched.push(host_id.0);
        }
        self.by_id[idx] = Some(CacheEntry {
            answer,
            expires: t_eff.plus_secs(ttl as u64),
        });
        Ok((answer, t_eff))
    }

    /// Drains the buffered observations (in lookup order) for replay into
    /// [`crate::DnsSim::absorb_id_observations`]; the buffer keeps its
    /// capacity for the next user.
    pub fn drain_id_observations(&mut self) -> std::vec::Drain<'_, PdnsIdObservation> {
        self.id_observations.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DnsSim;
    use crate::zone::{MappingPolicy, ZoneEntry};
    use xborder_faults::stable_hash;
    use xborder_geo::{cc, CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{Domain, DomainTable};

    fn zone(host: &str, ip: &str, country: &str, ttl: u32) -> ZoneEntry {
        let c = WORLD.country_or_panic(CountryCode::parse(country).unwrap());
        ZoneEntry {
            host: Domain::new(host),
            servers: vec![ZoneServer {
                server: ServerId(1),
                ip: ip.parse().unwrap(),
                country: c.code,
                location: c.centroid(),
                valid: None,
            }],
            policy: MappingPolicy::Pinned,
            ttl_secs: ttl,
        }
    }

    /// A geo-DNS zone with one PoP per country, in the order given.
    fn geo_zone(host: &str, k: u8, countries: &[&str], epsilon: f64, ttl: u32) -> ZoneEntry {
        let mut z = zone(host, "1.0.0.1", countries[0], ttl);
        z.servers = countries
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let c = WORLD.country_or_panic(CountryCode::parse(c).unwrap());
                ZoneServer {
                    server: ServerId(i as u32),
                    ip: std::net::IpAddr::from([1, k, i as u8, 1]),
                    country: c.code,
                    location: c.centroid(),
                    valid: None,
                }
            })
            .collect();
        z.policy = MappingPolicy::NearestToResolver { epsilon };
        z
    }

    /// A simulator serving `zones`, with their hosts interned in order.
    fn world(zones: Vec<ZoneEntry>) -> (DnsSim, DomainTable, Vec<DomainId>) {
        let mut dns = DnsSim::new();
        let mut domains = DomainTable::new();
        let ids = zones.iter().map(|z| domains.intern(&z.host)).collect();
        for z in zones {
            dns.add_zone(z).unwrap();
        }
        (dns, domains, ids)
    }

    fn client() -> ClientCtx {
        let de = WORLD.country_or_panic(cc!("DE"));
        ClientCtx::with_isp_resolver(cc!("DE"), de.centroid())
    }

    /// One fault-free lookup by the test client.
    fn lookup(
        cache: &mut DnsCache,
        view: &IndexedZoneView<'_>,
        host: DomainId,
        t: u64,
        report: &mut DegradationReport,
    ) -> Result<(ZoneServer, SimTime), FaultError> {
        let inj = FaultInjector::inactive();
        cache.resolve_shared_id(view, host, &client(), SimTime(t), &inj, report)
    }

    fn hits_misses(report: &DegradationReport) -> (u64, u64) {
        (report.dns_cache_hits, report.dns_cache_misses)
    }

    #[test]
    fn caches_within_ttl() {
        let (mut dns, domains, ids) = world(vec![zone("t.x.com", "1.0.0.1", "DE", 300)]);
        let mut cache = DnsCache::new();
        let mut report = DegradationReport::default();
        let view = dns.indexed_view(&domains);
        lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 299, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (1, 1));
        // The authoritative side (and, after replay, its pDNS sensor) saw
        // exactly one query.
        let obs: Vec<_> = cache.drain_id_observations().collect();
        dns.absorb_id_observations(&obs, &domains);
        let host = Domain::new("t.x.com");
        assert_eq!(dns.pdns().forward(&host).len(), 1);
        assert_eq!(dns.pdns().forward(&host)[0].count, 1);
    }

    #[test]
    fn expires_after_ttl() {
        let (dns, domains, ids) = world(vec![
            zone("a.x.com", "1.0.0.1", "DE", 300),
            zone("b.x.com", "1.0.0.2", "DE", 1000),
        ]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::new();
        let mut report = DegradationReport::default();
        lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 300, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (0, 2));
        // Each entry expires on its own zone's TTL: at t = 500 the 300 s
        // answer (refreshed at 300) still serves, at 800 it is gone while
        // the 1,000 s answer cached at 0 still serves.
        lookup(&mut cache, &view, ids[1], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 500, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 800, &mut report).unwrap();
        lookup(&mut cache, &view, ids[1], 800, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (2, 4));
    }

    #[test]
    fn ttl_boundary_is_half_open() {
        // An answer cached at t with TTL d serves [t, t+d) — the instant
        // `now == expires` is already a miss.
        let (dns, domains, ids) = world(vec![zone("t.x.com", "1.0.0.1", "DE", 100)]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::new();
        cache.reset_for_user(42, 7);
        let mut report = DegradationReport::default();
        lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        lookup(&mut cache, &view, ids[0], 99, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (1, 1));
        lookup(&mut cache, &view, ids[0], 100, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (1, 2));
        lookup(&mut cache, &view, ids[0], 199, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (2, 2));
        lookup(&mut cache, &view, ids[0], 200, &mut report).unwrap();
        assert_eq!(hits_misses(&report), (2, 3));
        assert_eq!(cache.drain_id_observations().len(), 3);
    }

    #[test]
    fn shared_path_buffers_observations_instead_of_capturing() {
        let (mut dns, domains, ids) = world(vec![zone("t.x.com", "1.0.0.1", "DE", 300)]);
        let host = Domain::new("t.x.com");
        let mut report = DegradationReport::default();
        let mut cache = DnsCache::new();
        cache.reset_for_user(1, 2);
        let view = dns.indexed_view(&domains);
        let (ans, t_eff) = lookup(&mut cache, &view, ids[0], 50, &mut report).unwrap();
        assert_eq!(t_eff, SimTime(50));
        // Hit within TTL: no new observation.
        lookup(&mut cache, &view, ids[0], 60, &mut report).unwrap();
        assert!(dns.pdns().is_empty(), "view resolution must not capture");

        let obs: Vec<_> = cache.drain_id_observations().collect();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].ip, ans.ip);
        assert_eq!(obs[0].host, ids[0]);
        dns.absorb_id_observations(&obs, &domains);
        assert_eq!(dns.pdns().forward(&host).len(), 1);
        assert_eq!(dns.pdns().forward(&host)[0].count, 1);
        assert_eq!(cache.drain_id_observations().len(), 0, "drain is one-shot");
    }

    #[test]
    fn redirection_takes_one_ttl_to_roll_out() {
        // The paper's Sect. 5.1 dynamic: flip the zone to a new country and
        // the old answer lingers until the TTL runs out.
        let (mut dns, domains, ids) = world(vec![zone("t.x.com", "1.0.0.1", "US", 7200)]);
        let mut cache = DnsCache::new();
        let mut report = DegradationReport::default();
        let before = lookup(&mut cache, &dns.indexed_view(&domains), ids[0], 0, &mut report);
        assert_eq!(before.unwrap().0.country, cc!("US"));

        // Operator redirects to a German server ("GDPR-friendly DNS"); the
        // view is rebuilt over the flipped zone table.
        dns.add_zone(zone("t.x.com", "1.0.0.2", "DE", 7200)).unwrap();
        let view = dns.indexed_view(&domains);
        // Mid-TTL: still the stale US answer.
        let stale = lookup(&mut cache, &view, ids[0], 3600, &mut report).unwrap().0;
        assert_eq!(stale.country, cc!("US"));
        // Post-TTL: the redirection is live.
        let fresh = lookup(&mut cache, &view, ids[0], 7200, &mut report).unwrap().0;
        assert_eq!(fresh.country, cc!("DE"));
        drop(view);

        // The kept PoP-order memo belongs to the table it was filled
        // against. Flip a geo-DNS zone so its PoP order for this resolver
        // reverses (BR, US → DE, US): after the flip the kept cache must
        // answer exactly like a new one, user after user.
        dns.add_zone(geo_zone("t.x.com", 1, &["BR", "US"], 0.0, 7200)).unwrap();
        let view = dns.indexed_view(&domains);
        for user in 0..32 {
            cache.reset_for_user(5, user);
            lookup(&mut cache, &view, ids[0], 0, &mut report).unwrap();
        }
        drop(view);
        dns.add_zone(geo_zone("t.x.com", 2, &["DE", "US"], 0.0, 7200)).unwrap();
        let view = dns.indexed_view(&domains);
        let mut answers = std::collections::HashSet::new();
        for user in 0..32 {
            cache.reset_for_user(5, user);
            let mut new = DnsCache::new();
            new.reset_for_user(5, user);
            let kept = lookup(&mut cache, &view, ids[0], 7200, &mut report).unwrap();
            assert_eq!(kept, lookup(&mut new, &view, ids[0], 7200, &mut report).unwrap());
            answers.insert(kept.0.ip);
        }
        assert!(answers.contains(&std::net::IpAddr::from([1, 2, 0, 1])), "DE never answered");
    }

    #[test]
    fn nxdomain_is_not_cached() {
        let (dns, mut domains, _) = world(vec![]);
        let missing = domains.intern(&Domain::new("missing.com"));
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::new();
        let mut report = DegradationReport::default();
        for _ in 0..3 {
            assert!(lookup(&mut cache, &view, missing, 0, &mut report).is_err());
        }
        assert_eq!(hits_misses(&report), (0, 3));
        assert_eq!(cache.drain_id_observations().len(), 0);
    }

    #[test]
    fn id_path_matches_string_path_bit_for_bit() {
        // Every miss draws from the stream the string-keyed resolver drew
        // from, seeded by the user stream, `stable_hash` of the host's
        // bytes and the query time, so interning hosts moved no answer.
        let (dns, domains, ids) = world(vec![
            geo_zone("a.x.com", 1, &["DE", "US", "SG"], 0.3, 100),
            geo_zone("b.x.com", 2, &["FR", "GB"], 0.3, 300),
        ]);
        let view = dns.indexed_view(&domains);
        let mut cache = DnsCache::new();
        let mut orders = PopOrders::new();
        let mut report = DegradationReport::default();
        for step in 0..40u64 {
            // A reset per step makes every lookup a miss.
            cache.reset_for_user(99, 3);
            let (id, t) = (ids[step as usize % 2], SimTime(step * 37));
            let got = lookup(&mut cache, &view, id, t.0, &mut report).unwrap();
            let host = domains.domain(id).as_str().as_bytes();
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                derive_stream_seed(99, 3),
                stable_hash(host) ^ t.0.rotate_left(32),
            ));
            let (want, _) = view.resolve_id(id, &client(), t, &mut rng, &mut orders).unwrap();
            assert_eq!(got, (want, t), "answers diverged at step {step}");
        }
    }

    #[test]
    fn reset_cache_matches_fresh_per_user_caches() {
        // One cache handed from user to user must behave exactly like a
        // new cache reset once per user: same answers, effective times,
        // hit/miss counts and observations. Users differ in resolver site
        // (so the kept PoP-order memo serves several sites), in which hosts
        // they touch (user 2 reaches a higher id than user 1 did), and in
        // time, so stale slots from an earlier user would show as hits.
        let (dns, domains, ids) = world(
            [&["DE", "US", "SG"][..], &["FR"], &["GB", "DE"], &["US", "BR", "JP", "DE"]]
                .iter()
                .enumerate()
                .map(|(k, countries)| {
                    let host = format!("h{k}.x.com");
                    let ttl = 300 + 100 * k as u32;
                    if countries.len() > 1 {
                        geo_zone(&host, k as u8, countries, 0.2, ttl)
                    } else {
                        zone(&host, "1.0.0.1", countries[0], ttl)
                    }
                })
                .collect(),
        );
        let view = dns.indexed_view(&domains);
        let inj = FaultInjector::inactive();
        let site = |c| ClientCtx::with_isp_resolver(c, WORLD.country_or_panic(c).centroid());
        // (user, resolver, hosts touched in order)
        let users: [(u64, ClientCtx, &[usize]); 4] = [
            (0, site(cc!("DE")), &[0, 1, 0, 0, 1]),
            (1, site(cc!("HU")), &[1, 0, 0]),
            (2, site(cc!("DE")), &[3, 0, 2, 3, 3, 1]),
            (3, site(cc!("BR")), &[0, 3]),
        ];
        let mut shared = DnsCache::new();
        for (user, client, hosts) in users {
            let mut fresh = DnsCache::new();
            fresh.reset_for_user(77, user);
            shared.reset_for_user(77, user);
            let (mut rep_f, mut rep_s) =
                (DegradationReport::default(), DegradationReport::default());
            for (step, &h) in hosts.iter().enumerate() {
                let t = SimTime(step as u64 * 250);
                let a = fresh
                    .resolve_shared_id(&view, ids[h], &client, t, &inj, &mut rep_f)
                    .unwrap();
                let b = shared
                    .resolve_shared_id(&view, ids[h], &client, t, &inj, &mut rep_s)
                    .unwrap();
                assert_eq!(a, b, "user {user} step {step}");
            }
            assert_eq!(hits_misses(&rep_f), hits_misses(&rep_s), "user {user}");
            let obs_f: Vec<_> = fresh.drain_id_observations().collect();
            let obs_s: Vec<_> = shared.drain_id_observations().collect();
            assert_eq!(obs_f, obs_s, "user {user}");
        }
    }

    #[test]
    fn lookup_streams_differ_per_user_and_are_reproducible() {
        // Two users' lookup seeds are decorrelated; the same user's seed is
        // stable, also on a cache that served another user in between —
        // the per-user determinism the parallel study rests on.
        let mut a = DnsCache::new();
        a.reset_for_user(9, 0);
        let mut b = DnsCache::new();
        b.reset_for_user(9, 1);
        assert_ne!(a.lookup_seed, b.lookup_seed);
        b.reset_for_user(9, 0);
        assert_eq!(a.lookup_seed, b.lookup_seed);
    }
}
