//! A TTL-honouring stub-resolver cache.
//!
//! Why it matters for the paper: DNS redirection (Table 5's best lever)
//! only takes effect once cached answers expire. The paper contrasts
//! Google's 300 s TTLs with Facebook's 7,200 s ones (Sect. 5.1) — a
//! redirection rolls out "from seconds to a few hours". This cache makes
//! that dynamic measurable: resolve through it, flip the zone, and watch
//! the old answer linger for exactly one TTL.
//!
//! Since the parallel-study refactor (DESIGN.md §5d) this is also the
//! *per-user* resolver state of the extension study, mirroring the paper's
//! per-client caching (Sect. 5.1): each simulated user starts from an
//! empty cache, resolves against a shared read-only [`ZoneView`], and
//! buffers the [`PdnsObservation`]s its cache misses would have produced
//! at a production resolver. Lookup RNG is hash-derived from
//! `(user stream, host, time)`, so a lookup's answer never depends on how
//! many lookups ran before it — the property that lets user shards run
//! concurrently and still merge bit-identically.
//!
//! A study shard holds one `DnsCache` and hands it from user to user with
//! [`DnsCache::reset_for_user`] (DESIGN.md §5f): the user-visible state
//! starts over exactly as [`DnsCache::for_user`] would build it, while
//! the allocations and the [`PopOrders`] memo carry over — the memo holds
//! pure functions of the zone table, never anything a user did.

use crate::resolver::ClientCtx;
use crate::sim::{DnsSim, IndexedZoneView, PdnsIdObservation, PdnsObservation, ZoneView};
use crate::zone::{PopOrders, ZoneServer};
use crate::DnsError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use xborder_faults::{
    derive_stream_seed, stable_hash, DegradationReport, FaultError, FaultInjector,
};
use xborder_netsim::time::SimTime;
use xborder_webgraph::{Domain, DomainId};

/// One cached answer.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    answer: ZoneServer,
    expires: SimTime,
}

/// A per-client (or per-resolver) answer cache.
#[derive(Debug, Default)]
pub struct DnsCache {
    entries: HashMap<Domain, CacheEntry>,
    /// Dense id-indexed entries for the allocation-free study path
    /// (DESIGN.md §5f); grown lazily to the highest id touched.
    by_id: Vec<Option<CacheEntry>>,
    /// Ids whose `by_id` slot this user filled, so a reset clears only
    /// those.
    touched: Vec<u32>,
    /// Per-resolver-site PoP orders of the zones missed so far; kept
    /// across users.
    orders: PopOrders,
    hits: u64,
    misses: u64,
    /// Seed of this client's lookup-RNG stream (see [`DnsCache::for_user`]).
    lookup_seed: u64,
    /// Observations buffered on cache misses, for deterministic replay
    /// into the central pDNS database.
    observations: Vec<PdnsObservation>,
    /// Id-form observations buffered by [`DnsCache::resolve_shared_id`].
    id_observations: Vec<PdnsIdObservation>,
}

impl DnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stub-resolver state of one study user: lookup RNG derives from
    /// `(study_seed, user)`, so two users' DNS answers are independent and
    /// a user's answers are independent of every other user's progress.
    pub fn for_user(study_seed: u64, user: u64) -> Self {
        DnsCache {
            lookup_seed: derive_stream_seed(study_seed, user),
            ..Self::default()
        }
    }

    /// Turns this cache into [`DnsCache::for_user`]`(study_seed, user)`
    /// without giving back its allocations: entries, counters and buffered
    /// observations are dropped (clearing only the id slots the previous
    /// user filled), the PoP-order memo is kept. Drain the previous user's
    /// observations first.
    pub fn reset_for_user(&mut self, study_seed: u64, user: u64) {
        self.entries.clear();
        for id in self.touched.drain(..) {
            self.by_id[id as usize] = None;
        }
        self.hits = 0;
        self.misses = 0;
        self.lookup_seed = derive_stream_seed(study_seed, user);
        self.observations.clear();
        self.id_observations.clear();
    }

    /// Resolves through the cache: returns the cached answer while its TTL
    /// lasts, otherwise asks the authoritative simulator and caches the
    /// fresh answer (one lookup: the answer carries its zone's TTL).
    pub fn resolve<R: Rng + ?Sized>(
        &mut self,
        dns: &mut DnsSim,
        host: &Domain,
        client: &ClientCtx,
        now: SimTime,
        rng: &mut R,
    ) -> Result<ZoneServer, DnsError> {
        if let Some(entry) = self.entries.get(host) {
            if now < entry.expires {
                self.hits += 1;
                return Ok(entry.answer);
            }
        }
        self.misses += 1;
        let (answer, ttl) = dns.resolve_with_ttl(host, client, now, rng)?;
        let fresh = CacheEntry {
            answer,
            expires: now.plus_secs(ttl as u64),
        };
        // Refresh in place when the host already has a (stale) slot; clone
        // the key only on a first-ever miss.
        match self.entries.get_mut(host) {
            Some(e) => *e = fresh,
            None => {
                self.entries.insert(host.clone(), fresh);
            }
        }
        Ok(answer)
    }

    /// Resolves through the cache against a shared read-only zone view —
    /// the study's per-user path. A hit answers from the cache (no
    /// authoritative query, no pDNS observation, no RNG); a miss resolves
    /// with a lookup RNG derived from `(user stream, host, time)`, buffers
    /// the observation a sensor would have recorded, and caches the answer
    /// until its TTL runs out (TTL measured from the *effective* resolve
    /// time, after any fault backoff).
    pub fn resolve_shared(
        &mut self,
        view: &ZoneView<'_>,
        host: &Domain,
        client: &ClientCtx,
        now: SimTime,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Result<(ZoneServer, SimTime), FaultError> {
        if let Some(entry) = self.entries.get(host) {
            if now < entry.expires {
                self.hits += 1;
                report.dns_cache_hits += 1;
                return Ok((entry.answer, now));
            }
        }
        self.misses += 1;
        report.dns_cache_misses += 1;
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(
            self.lookup_seed,
            stable_hash(host.as_str().as_bytes()) ^ now.0.rotate_left(32),
        ));
        let (answer, t_eff, ttl) = view.resolve_degraded(host, client, now, &mut rng, inj, report)?;
        self.observations.push(PdnsObservation {
            host: host.clone(),
            ip: answer.ip,
            time: t_eff,
        });
        let fresh = CacheEntry {
            answer,
            expires: t_eff.plus_secs(ttl as u64),
        };
        // One clone per steady-state miss (the observation above): expired
        // entries refresh in place, so the key is cloned again only on a
        // host's first-ever miss. The id path below clones nothing at all.
        match self.entries.get_mut(host) {
            Some(e) => *e = fresh,
            None => {
                self.entries.insert(host.clone(), fresh);
            }
        }
        Ok((answer, t_eff))
    }

    /// The allocation-free study path (DESIGN.md §5f): semantics of
    /// [`DnsCache::resolve_shared`] over interned host ids. The miss-RNG
    /// seed derives from the view's precomputed `stable_hash` of the host
    /// bytes — the same value the string path hashes per miss — so answers,
    /// effective times, and fault coins are bit-identical. No `Domain` is
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
                self.hits += 1;
                report.dns_cache_hits += 1;
                return Ok((entry.answer, now));
            }
        }
        self.misses += 1;
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

    /// Drains the buffered pDNS observations (in lookup order) for replay
    /// into [`DnsSim::absorb_observations`].
    pub fn take_observations(&mut self) -> Vec<PdnsObservation> {
        std::mem::take(&mut self.observations)
    }

    /// Drains the buffered id observations (in lookup order) for replay
    /// into [`DnsSim::absorb_id_observations`]; the buffer keeps its
    /// capacity for the next user.
    pub fn drain_id_observations(&mut self) -> std::vec::Drain<'_, PdnsIdObservation> {
        self.id_observations.drain(..)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (authoritative queries) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of live entries at `now`, on both the string-keyed and the
    /// id-indexed path.
    pub fn live_entries(&self, now: SimTime) -> usize {
        let by_id = self.by_id.iter().flatten().filter(|e| now < e.expires).count();
        self.entries.values().filter(|e| now < e.expires).count() + by_id
    }

    /// Drops expired entries on both paths (housekeeping; correctness never
    /// needs it: an expired entry already misses).
    pub fn evict_expired(&mut self, now: SimTime) {
        self.entries.retain(|_, e| now < e.expires);
        let by_id = &mut self.by_id;
        self.touched.retain(|&id| {
            let slot = &mut by_id[id as usize];
            if slot.is_some_and(|e| e.expires <= now) {
                *slot = None;
            }
            slot.is_some()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{MappingPolicy, ZoneEntry};
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_geo::{cc, CountryCode, WORLD};
    use xborder_netsim::ServerId;

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

    fn client() -> ClientCtx {
        let de = WORLD.country_or_panic(cc!("DE"));
        ClientCtx::with_isp_resolver(cc!("DE"), de.centroid())
    }

    #[test]
    fn caches_within_ttl() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(1);
        let host = Domain::new("t.x.com");

        cache.resolve(&mut dns, &host, &client(), SimTime(0), &mut rng).unwrap();
        cache.resolve(&mut dns, &host, &client(), SimTime(299), &mut rng).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // The authoritative side (and its pDNS sensor) saw exactly one query.
        assert_eq!(dns.pdns().forward(&host).len(), 1);
        assert_eq!(dns.pdns().forward(&host)[0].count, 1);
    }

    #[test]
    fn expires_after_ttl() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(2);
        let host = Domain::new("t.x.com");

        cache.resolve(&mut dns, &host, &client(), SimTime(0), &mut rng).unwrap();
        cache.resolve(&mut dns, &host, &client(), SimTime(300), &mut rng).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn ttl_boundary_is_half_open() {
        // An answer cached at t with TTL d serves [t, t+d) — the instant
        // `now == expires` is already a miss, on both resolve paths.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 100)).unwrap();
        let host = Domain::new("t.x.com");

        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(7);
        cache.resolve(&mut dns, &host, &client(), SimTime(0), &mut rng).unwrap();
        cache.resolve(&mut dns, &host, &client(), SimTime(99), &mut rng).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.resolve(&mut dns, &host, &client(), SimTime(100), &mut rng).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.live_entries(SimTime(199)), 1);
        assert_eq!(cache.live_entries(SimTime(200)), 0);

        let mut shared = DnsCache::for_user(42, 7);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        let view = dns.view();
        shared.resolve_shared(&view, &host, &client(), SimTime(0), &inj, &mut report).unwrap();
        shared.resolve_shared(&view, &host, &client(), SimTime(99), &inj, &mut report).unwrap();
        shared.resolve_shared(&view, &host, &client(), SimTime(100), &inj, &mut report).unwrap();
        assert_eq!((shared.hits(), shared.misses()), (1, 2));
        assert_eq!(report.dns_cache_hits, 1);
        assert_eq!(report.dns_cache_misses, 2);
        assert_eq!(shared.take_observations().len(), 2);
    }

    #[test]
    fn shared_path_buffers_observations_instead_of_capturing() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "DE", 300)).unwrap();
        let host = Domain::new("t.x.com");
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();

        let mut cache = DnsCache::for_user(1, 2);
        let view = dns.view();
        let (ans, t_eff) = cache
            .resolve_shared(&view, &host, &client(), SimTime(50), &inj, &mut report)
            .unwrap();
        assert_eq!(t_eff, SimTime(50));
        // Hit within TTL: no new observation.
        cache.resolve_shared(&view, &host, &client(), SimTime(60), &inj, &mut report).unwrap();
        assert!(dns.pdns().is_empty(), "view resolution must not capture");

        let obs = cache.take_observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].ip, ans.ip);
        dns.absorb_observations(&obs);
        assert_eq!(dns.pdns().forward(&host).len(), 1);
        assert_eq!(dns.pdns().forward(&host)[0].count, 1);
        assert!(cache.take_observations().is_empty(), "drain is one-shot");
    }

    #[test]
    fn redirection_takes_one_ttl_to_roll_out() {
        // The paper's Sect. 5.1 dynamic: flip the zone to a new country and
        // the old answer lingers until the TTL runs out.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("t.x.com", "1.0.0.1", "US", 7200)).unwrap();
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(3);
        let host = Domain::new("t.x.com");

        let before = cache.resolve(&mut dns, &host, &client(), SimTime(0), &mut rng).unwrap();
        assert_eq!(before.country, cc!("US"));

        // Operator redirects to a German server ("GDPR-friendly DNS").
        dns.add_zone(zone("t.x.com", "1.0.0.2", "DE", 7200)).unwrap();

        // Mid-TTL: still the stale US answer.
        let stale = cache.resolve(&mut dns, &host, &client(), SimTime(3600), &mut rng).unwrap();
        assert_eq!(stale.country, cc!("US"));
        // Post-TTL: the redirection is live.
        let fresh = cache.resolve(&mut dns, &host, &client(), SimTime(7200), &mut rng).unwrap();
        assert_eq!(fresh.country, cc!("DE"));
    }

    #[test]
    fn eviction_and_live_count() {
        let mut dns = DnsSim::new();
        dns.add_zone(zone("a.x.com", "1.0.0.1", "DE", 100)).unwrap();
        dns.add_zone(zone("b.x.com", "1.0.0.2", "DE", 1000)).unwrap();
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(4);
        cache.resolve(&mut dns, &Domain::new("a.x.com"), &client(), SimTime(0), &mut rng).unwrap();
        cache.resolve(&mut dns, &Domain::new("b.x.com"), &client(), SimTime(0), &mut rng).unwrap();
        assert_eq!(cache.live_entries(SimTime(50)), 2);
        assert_eq!(cache.live_entries(SimTime(500)), 1);
        cache.evict_expired(SimTime(500));
        assert_eq!(cache.live_entries(SimTime(50)), 1);
    }

    #[test]
    fn id_path_entries_are_counted_and_evicted() {
        use xborder_webgraph::DomainTable;
        let mut dns = DnsSim::new();
        dns.add_zone(zone("a.x.com", "1.0.0.1", "DE", 100)).unwrap();
        dns.add_zone(zone("b.x.com", "1.0.0.2", "DE", 1000)).unwrap();
        let mut domains = DomainTable::new();
        let a = domains.intern(&Domain::new("a.x.com"));
        let b = domains.intern(&Domain::new("b.x.com"));
        let iview = dns.indexed_view(&domains);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        let mut cache = DnsCache::for_user(5, 1);
        for h in [a, b] {
            cache.resolve_shared_id(&iview, h, &client(), SimTime(0), &inj, &mut report).unwrap();
        }
        assert_eq!(cache.live_entries(SimTime(99)), 2);
        // `a` expires at its TTL boundary (half-open, like `resolve`).
        assert_eq!(cache.live_entries(SimTime(100)), 1);
        cache.evict_expired(SimTime(100));
        assert_eq!(cache.live_entries(SimTime(0)), 1, "the expired id entry is gone");
        // The evicted host misses again and refills its slot.
        cache.resolve_shared_id(&iview, a, &client(), SimTime(100), &inj, &mut report).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert_eq!(cache.live_entries(SimTime(150)), 2);
        cache.evict_expired(SimTime(1000));
        assert_eq!(cache.live_entries(SimTime(0)), 0);
        // A reset after eviction still clears every slot it must.
        cache.resolve_shared_id(&iview, b, &client(), SimTime(1000), &inj, &mut report).unwrap();
        cache.reset_for_user(5, 2);
        assert_eq!(cache.live_entries(SimTime(1000)), 0);
    }

    #[test]
    fn nxdomain_is_not_cached() {
        let mut dns = DnsSim::new();
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(5);
        let host = Domain::new("missing.com");
        for _ in 0..3 {
            assert!(cache.resolve(&mut dns, &host, &client(), SimTime(0), &mut rng).is_err());
        }
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn id_path_matches_string_path_bit_for_bit() {
        use xborder_webgraph::DomainTable;
        // Same lookup stream, same hosts, same times: the dense id path
        // must produce identical answers, effective times, counters, and
        // (after id→domain replay) identical pDNS content.
        let mut dns = DnsSim::new();
        dns.add_zone(zone("a.x.com", "1.0.0.1", "DE", 100)).unwrap();
        dns.add_zone(zone("b.x.com", "1.0.0.2", "US", 300)).unwrap();
        let mut domains = DomainTable::new();
        let hosts = [Domain::new("a.x.com"), Domain::new("b.x.com")];
        let ids = [domains.intern(&hosts[0]), domains.intern(&hosts[1])];
        let view = dns.view();
        let iview = dns.indexed_view(&domains);
        let inj = FaultInjector::inactive();

        let mut string_cache = DnsCache::for_user(99, 3);
        let mut id_cache = DnsCache::for_user(99, 3);
        let mut rep_s = DegradationReport::default();
        let mut rep_i = DegradationReport::default();
        for step in 0..40u64 {
            let h = (step % 2) as usize;
            let t = SimTime(step * 37);
            let a = string_cache
                .resolve_shared(&view, &hosts[h], &client(), t, &inj, &mut rep_s)
                .unwrap();
            let b = id_cache
                .resolve_shared_id(&iview, ids[h], &client(), t, &inj, &mut rep_i)
                .unwrap();
            assert_eq!(a, b, "answers diverged at step {step}");
        }
        assert_eq!((string_cache.hits(), string_cache.misses()), (id_cache.hits(), id_cache.misses()));
        assert_eq!(rep_s.dns_cache_hits, rep_i.dns_cache_hits);
        assert_eq!(rep_s.dns_cache_misses, rep_i.dns_cache_misses);

        let obs_s = string_cache.take_observations();
        let obs_i: Vec<_> = id_cache.drain_id_observations().collect();
        assert_eq!(obs_s.len(), obs_i.len());
        let mut replay_s = DnsSim::new();
        let mut replay_i = DnsSim::new();
        replay_s.absorb_observations(&obs_s);
        replay_i.absorb_id_observations(&obs_i, &domains);
        for h in &hosts {
            assert_eq!(replay_s.pdns().forward(h), replay_i.pdns().forward(h));
        }
    }

    #[test]
    fn reset_cache_matches_fresh_per_user_caches() {
        use xborder_webgraph::DomainTable;
        // One cache handed from user to user must behave exactly like a
        // fresh `for_user` cache per user: same answers, effective times,
        // hit/miss counts and observations. Users differ in resolver site
        // (so the kept PoP-order memo serves several sites), in which hosts
        // they touch (user 2 reaches a higher id than user 1 did), and in
        // time, so stale slots from an earlier user would show as hits.
        let mut dns = DnsSim::new();
        let mut domains = DomainTable::new();
        let mut ids = Vec::new();
        for (k, countries) in [
            &["DE", "US", "SG"][..],
            &["FR"],
            &["GB", "DE"],
            &["US", "BR", "JP", "DE"],
        ]
        .iter()
        .enumerate()
        {
            let host = format!("h{k}.x.com");
            let mut z = zone(&host, "1.0.0.1", countries[0], 300 + 100 * k as u32);
            z.servers = countries
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let c = WORLD.country_or_panic(CountryCode::parse(c).unwrap());
                    ZoneServer {
                        server: ServerId(i as u32),
                        ip: std::net::IpAddr::from([1, k as u8, i as u8, 1]),
                        country: c.code,
                        location: c.centroid(),
                        valid: None,
                    }
                })
                .collect();
            if countries.len() > 1 {
                z.policy = MappingPolicy::NearestToResolver { epsilon: 0.2 };
            }
            dns.add_zone(z).unwrap();
            ids.push(domains.intern(&Domain::new(&host)));
        }
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
            let mut fresh = DnsCache::for_user(77, user);
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
            assert_eq!(
                (fresh.hits(), fresh.misses()),
                (shared.hits(), shared.misses()),
                "user {user}"
            );
            assert_eq!(rep_f.dns_cache_hits, rep_s.dns_cache_hits);
            assert_eq!(rep_f.dns_cache_misses, rep_s.dns_cache_misses);
            let obs_f: Vec<_> = fresh.drain_id_observations().collect();
            let obs_s: Vec<_> = shared.drain_id_observations().collect();
            assert_eq!(obs_f, obs_s, "user {user}");
        }
    }

    #[test]
    fn lookup_streams_differ_per_user_and_are_reproducible() {
        // Two users' lookup seeds are decorrelated; the same user's seed is
        // stable — the per-user determinism the parallel study rests on.
        let a = DnsCache::for_user(9, 0);
        let b = DnsCache::for_user(9, 1);
        let a2 = DnsCache::for_user(9, 0);
        assert_ne!(a.lookup_seed, b.lookup_seed);
        assert_eq!(a.lookup_seed, a2.lookup_seed);
    }
}
