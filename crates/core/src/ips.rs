//! Tracker IP-set construction and passive-DNS completion (Sect. 3.3).
//!
//! The extension logs give `(tracking FQDN, server IP)` pairs — but only
//! the IPs *our* users were mapped to. Forward passive-DNS lookups complete
//! the set with addresses other resolvers saw for the same names (the
//! paper gained +2.78 %), and attach validity windows that later scope the
//! NetFlow matching.
//!
//! Every driver builds the observed set through one fold, `TrackerFold`:
//! each tracking row lands in an `FxMap` entry keyed by its `(IP, host id)`
//! pair (request count, EU28-origin count, first and last time), and the
//! public [`TrackerIpSet`] is materialized once, one step per distinct
//! pair. The same entries give Fig. 7's per-IP EU28 tally, so no driver
//! walks its log a second time for the confinement headline. The per-row
//! [`TrackerIpSet::absorb_tracking_request`] stays as the reference the
//! fold is tested against.

use crate::confine::{is_eu28_origin, DestBreakdown};
use crate::pipeline::EstimateMap;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use xborder_browser::{ExtensionDataset, LoggedRequest, SegmentBlock, User, UserId};
use xborder_classify::ClassificationResult;
use xborder_dns::PassiveDnsDb;
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_webgraph::{Domain, DomainId, DomainTable, FxMap};

/// Everything known about one tracker IP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpInfo {
    /// Tracking requests observed to this IP in the extension dataset
    /// (zero for pDNS-completed IPs).
    pub requests: u64,
    /// Tracking FQDNs seen answering from this IP.
    pub hosts: HashSet<Domain>,
    /// Validity window: observation span, widened by pDNS records.
    pub window: TimeWindow,
    /// True if the IP came only from pDNS completion, never from a user.
    pub from_pdns_only: bool,
}

/// The tracker IP set.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TrackerIpSet {
    /// Per-IP records.
    pub ips: HashMap<IpAddr, IpInfo>,
}

/// Summary of the completion step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionStats {
    /// IPs observed directly by users.
    pub n_observed: usize,
    /// IPs added by forward pDNS.
    pub n_added: usize,
    /// Share of IPv4 among all tracker IPs.
    pub v4_share: f64,
    /// Share of IPv4 among the pDNS additions.
    pub added_v4_share: f64,
}

impl CompletionStats {
    /// pDNS increase over the observed set, as a fraction.
    pub fn added_fraction(&self) -> f64 {
        if self.n_observed == 0 {
            0.0
        } else {
            self.n_added as f64 / self.n_observed as f64
        }
    }
}

impl TrackerIpSet {
    /// Builds the observed IP set from classified extension data.
    pub fn from_dataset(dataset: &ExtensionDataset, labels: &ClassificationResult) -> TrackerIpSet {
        TrackerFold::over_log(dataset, labels).tracker_ips(&dataset.domains)
    }

    /// Absorbs one tracking request into the observed set. Request order
    /// never matters — the per-IP record is a commutative fold (count,
    /// host-set union, window hull) — so any split of a log into pieces
    /// lands on exactly [`TrackerIpSet::from_dataset`] over the whole log.
    /// The drivers fold through the pair-keyed `TrackerFold` instead; this
    /// per-row form is the reference its tests compare against.
    pub fn absorb_tracking_request(&mut self, ip: IpAddr, host: &Domain, time: SimTime) {
        let info = self.ips.entry(ip).or_insert_with(|| IpInfo {
            requests: 0,
            hosts: HashSet::new(),
            window: TimeWindow::new(time, time.plus_secs(1)),
            from_pdns_only: false,
        });
        info.requests += 1;
        // Hosts arrive as interned ids resolved through the domain table;
        // clone the string only on first sight of an (ip, host) pair —
        // repeat requests (the common case) stay allocation-free.
        if !info.hosts.contains(host) {
            info.hosts.insert(host.clone());
        }
        info.window.extend_to(time);
    }

    /// All tracking FQDNs currently in the set.
    pub fn tracking_hosts(&self) -> HashSet<Domain> {
        self.ips
            .values()
            .flat_map(|i| i.hosts.iter().cloned())
            .collect()
    }

    /// Forward-pDNS completion: for every known tracking FQDN, pull every
    /// address the sensors ever saw for it and add the missing ones with
    /// their validity windows. Returns the completion summary.
    pub fn complete_with_pdns(&mut self, pdns: &PassiveDnsDb) -> CompletionStats {
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        self.complete_with_pdns_degraded(pdns, &inj, &mut report)
    }

    /// [`TrackerIpSet::complete_with_pdns`] under fault injection: the
    /// sensor network can have gaps (records invisible → fewer completed
    /// IPs) and stale records (windows collapsed to first-seen → narrower
    /// validity scoping downstream). Per-record accounting lands in
    /// `report`.
    pub fn complete_with_pdns_degraded(
        &mut self,
        pdns: &PassiveDnsDb,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> CompletionStats {
        let n_observed = self.ips.len();
        // Canonical (sorted) host order: when two tracking FQDNs resolve to
        // the same pdns-only IP, the host recorded on the new record is the
        // first one iterated, so the iteration order must not depend on the
        // hasher. The out-of-core fingerprint hashes these host sets.
        let mut hosts: Vec<Domain> = self.tracking_hosts().into_iter().collect();
        hosts.sort_unstable();
        for host in &hosts {
            for rec in pdns.forward_degraded(host, inj, report) {
                match self.ips.get_mut(&rec.ip) {
                    Some(info) => {
                        // Known IP: pDNS can still widen its validity window.
                        info.window.extend_to(rec.window.start);
                        if rec.window.end.0 > 0 {
                            info.window.extend_to(SimTime(rec.window.end.0 - 1));
                        }
                    }
                    None => {
                        let mut hs = HashSet::new();
                        hs.insert(host.clone());
                        self.ips.insert(
                            rec.ip,
                            IpInfo {
                                requests: 0,
                                hosts: hs,
                                window: rec.window,
                                from_pdns_only: true,
                            },
                        );
                    }
                }
            }
        }
        let n_added = self.ips.len() - n_observed;
        let v4 = self.ips.keys().filter(|ip| ip.is_ipv4()).count();
        let added_v4 = self
            .ips
            .iter()
            .filter(|(ip, i)| i.from_pdns_only && ip.is_ipv4())
            .count();
        CompletionStats {
            n_observed,
            n_added,
            v4_share: if self.ips.is_empty() {
                0.0
            } else {
                v4 as f64 / self.ips.len() as f64
            },
            added_v4_share: if n_added == 0 {
                0.0
            } else {
                added_v4 as f64 / n_added as f64
            },
        }
    }

    /// `(ip, request_weight)` pairs for weighted geolocation evaluation.
    pub fn weighted_ips(&self) -> Vec<(IpAddr, u64)> {
        let mut v: Vec<(IpAddr, u64)> = self.ips.iter().map(|(ip, i)| (*ip, i.requests)).collect();
        v.sort();
        v
    }

    /// Number of tracker IPs.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }
}

/// One `(IP, host)` pair's share of the tracking log: its requests, how
/// many of them came from EU28-origin users, and its first and last time.
#[derive(Debug, Clone, Copy)]
struct PairFold {
    requests: u64,
    eu28: u64,
    first: SimTime,
    last: SimTime,
}

/// The tracker fold every driver feeds its tracking rows through: one
/// `FxMap` probe per row, keyed by `(IP, host id)` instead of hashing the
/// IP and then the host string as [`TrackerIpSet::absorb_tracking_request`]
/// does. Rows may arrive in any order and any split into segments: every
/// entry is a commutative fold (sums, min, max), and so is materializing
/// them, so the map's hash order never reaches an output.
#[derive(Debug, Default)]
pub(crate) struct TrackerFold {
    pairs: FxMap<(IpAddr, DomainId), PairFold>,
}

impl TrackerFold {
    /// Folds one tracking row; `eu28_origin` says whether its user counts
    /// as an EU28 origin (Fig. 7).
    #[inline]
    pub(crate) fn absorb(&mut self, ip: IpAddr, host: DomainId, time: SimTime, eu28_origin: bool) {
        let pair = self.pairs.entry((ip, host)).or_insert(PairFold {
            requests: 0,
            eu28: 0,
            first: time,
            last: time,
        });
        pair.requests += 1;
        pair.eu28 += u64::from(eu28_origin);
        pair.first = pair.first.min(time);
        pair.last = pair.last.max(time);
    }

    /// Folds the rows of `requests` that `tracking(row)` accepts.
    pub(crate) fn absorb_requests(
        &mut self,
        requests: &[LoggedRequest],
        tracking: impl Fn(usize) -> bool,
        eu28_user: impl Fn(UserId) -> bool,
    ) {
        for (i, r) in requests.iter().enumerate() {
            if tracking(i) {
                self.absorb(r.ip, r.host, r.time, eu28_user(r.user));
            }
        }
    }

    /// Folds a classified block's tracking rows straight from its columns.
    pub(crate) fn absorb_block(
        &mut self,
        block: &SegmentBlock,
        eu28_user: impl Fn(UserId) -> bool,
    ) {
        block.for_each_tracking_row(|user, host, time, ip| {
            self.absorb(ip, host, time, eu28_user(user));
        });
    }

    /// The fold of a whole classified log.
    pub(crate) fn over_log(
        dataset: &ExtensionDataset,
        labels: &ClassificationResult,
    ) -> TrackerFold {
        let mut fold = TrackerFold::default();
        let eu28_user = eu28_users(&dataset.users.users);
        fold.absorb_requests(&dataset.requests, |i| labels.is_tracking(i), eu28_user);
        fold
    }

    /// The observed tracker set, one step per distinct pair: each IP sums
    /// its pairs' requests, unions their hosts and takes the hull of their
    /// `[first, last + 1)` windows, which is what repeated
    /// [`TimeWindow::extend_to`] builds row by row.
    pub(crate) fn tracker_ips(&self, domains: &DomainTable) -> TrackerIpSet {
        let mut ips: HashMap<IpAddr, IpInfo> = HashMap::new();
        for (&(ip, host), pair) in &self.pairs {
            let info = ips.entry(ip).or_insert_with(|| IpInfo {
                requests: 0,
                hosts: HashSet::new(),
                window: TimeWindow::new(pair.first, pair.first.plus_secs(1)),
                from_pdns_only: false,
            });
            info.requests += pair.requests;
            info.hosts.insert(domains.domain(host).clone());
            info.window.extend_to(pair.first);
            info.window.extend_to(pair.last);
        }
        TrackerIpSet { ips }
    }

    /// Fig. 7's destination breakdown of EU28-origin flows under
    /// `estimates`, read from the per-IP tally of those flows. IPs with no
    /// such flow stay out of the tally: a zero count would still add its
    /// region to the breakdown's map.
    pub(crate) fn eu28_breakdown(&self, estimates: &EstimateMap) -> DestBreakdown {
        let mut tally: FxMap<IpAddr, u64> = FxMap::default();
        for (&(ip, _), pair) in &self.pairs {
            if pair.eu28 > 0 {
                *tally.entry(ip).or_insert(0) += pair.eu28;
            }
        }
        let mut b = DestBreakdown::default();
        b.absorb_eu28_tally(&tally, estimates);
        b
    }
}

/// Whether a user of `users` (a contiguous run of ids, as a population or
/// a segment holds them) is an EU28 origin, by user id. An id outside the
/// run never counts.
pub(crate) fn eu28_users(users: &[User]) -> impl Fn(UserId) -> bool {
    let start = users.first().map_or(0, |u| u.id.0);
    let flags: Vec<bool> = users.iter().map(|u| is_eu28_origin(u.country)).collect();
    move |user: UserId| {
        flags
            .get(user.0.wrapping_sub(start) as usize)
            .copied()
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xborder_browser::{Referrer, StudyChunk, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI};
    use xborder_geo::{cc, CountryCode, LatLon};
    use xborder_geoloc::GeoEstimate;
    use xborder_webgraph::url::{EncodedUrl, Scheme, UrlParts, UrlStyle};
    use xborder_webgraph::PublisherId;

    fn d(s: &str) -> Domain {
        Domain::new(s)
    }

    #[test]
    fn completion_adds_unseen_ips() {
        let mut set = TrackerIpSet::default();
        let mut hosts = HashSet::new();
        hosts.insert(d("t.x.com"));
        set.ips.insert(
            "1.0.0.1".parse().unwrap(),
            IpInfo {
                requests: 10,
                hosts,
                window: TimeWindow::new(SimTime(10), SimTime(20)),
                from_pdns_only: false,
            },
        );
        let mut pdns = PassiveDnsDb::new();
        pdns.observe(&d("t.x.com"), "1.0.0.1".parse().unwrap(), SimTime(5));
        pdns.observe(&d("t.x.com"), "1.0.0.2".parse().unwrap(), SimTime(7));
        pdns.observe(&d("other.com"), "1.0.0.3".parse().unwrap(), SimTime(8));

        let stats = set.complete_with_pdns(&pdns);
        assert_eq!(stats.n_observed, 1);
        assert_eq!(stats.n_added, 1);
        assert!((stats.added_fraction() - 1.0).abs() < 1e-9);
        // The unrelated domain's IP is not pulled in.
        assert!(!set.ips.contains_key(&"1.0.0.3".parse::<IpAddr>().unwrap()));
        // The added IP is flagged and windowed.
        let added = &set.ips[&"1.0.0.2".parse::<IpAddr>().unwrap()];
        assert!(added.from_pdns_only);
        assert_eq!(added.requests, 0);
        // Known IP's window got widened backwards to the pDNS first-seen.
        let known = &set.ips[&"1.0.0.1".parse::<IpAddr>().unwrap()];
        assert!(known.window.contains(SimTime(5)));
    }

    #[test]
    fn empty_set_completion_is_noop() {
        let mut set = TrackerIpSet::default();
        let pdns = PassiveDnsDb::new();
        let stats = set.complete_with_pdns(&pdns);
        assert_eq!(stats.n_observed, 0);
        assert_eq!(stats.n_added, 0);
        assert_eq!(stats.added_fraction(), 0.0);
        assert!(set.is_empty());
    }

    /// EU28 and non-EU28 world countries plus "ZZ", which the world table
    /// lacks: as an origin it never counts, as an estimate it has no region.
    const COUNTRIES: [CountryCode; 6] = [
        cc!("DE"),
        cc!("FR"),
        cc!("GR"),
        cc!("US"),
        cc!("JP"),
        cc!("ZZ"),
    ];

    /// Addresses drawn by index: v4 and v6, so blocks carry IPv6 side rows.
    fn addr(i: u8) -> IpAddr {
        if i % 3 == 0 {
            IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, u16::from(i)])
        } else {
            IpAddr::from([10, 0, 0, i])
        }
    }

    fn user(id: u32, country: CountryCode) -> User {
        User {
            id: UserId(id),
            country,
            location: LatLon { lat: 0.0, lon: 0.0 },
            resolver_kind: xborder_dns::ResolverKind::IspLocal,
            activity: 1.0,
            interaction_p: 0.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random tracking and clean rows (v4 and v6 IPs, repeated
        /// `(ip, host)` pairs, times in any order, EU28 and non-EU28
        /// users), split into segments at random and fed alternately
        /// through `absorb_requests` and `absorb_block`, materialize
        /// exactly the per-row `absorb_tracking_request` set, field by
        /// field, and a breakdown equal to per-flow `absorb_eu28_flow`.
        #[test]
        fn pair_fold_equals_the_per_row_reference(
            seed in any::<u64>(),
            n_users in 1u32..8,
            n_rows in 0usize..200,
            n_cuts in 0usize..6,
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let domains = {
                let mut t = DomainTable::default();
                for h in 0..5 {
                    t.intern(&Domain::new(format!("t{h}.tracker.example")));
                }
                t
            };
            let users: Vec<User> = (0..n_users)
                .map(|id| user(id, COUNTRIES[rng.gen_range(0..COUNTRIES.len())]))
                .collect();
            // Some IPs get no estimate at all.
            let mut estimates = EstimateMap::new();
            for i in 0..12 {
                if rng.gen_bool(0.7) {
                    let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
                    estimates.insert(addr(i), GeoEstimate { country });
                }
            }
            // Few IPs, hosts and times, so pairs and timestamps repeat.
            let requests: Vec<LoggedRequest> = (0..n_rows)
                .map(|_| LoggedRequest {
                    user: UserId(rng.gen_range(0..n_users)),
                    time: SimTime(rng.gen_range(0..10_000)),
                    first_party: DomainId(0),
                    publisher: PublisherId(0),
                    url: EncodedUrl::try_from(UrlParts {
                        scheme: Scheme::Https,
                        style: UrlStyle::Plain,
                        path_idx: 0,
                        event_idx: 0,
                        service: 0,
                        cb: None,
                    })
                    .unwrap(),
                    host: DomainId(rng.gen_range(0..5)),
                    referrer: Referrer::None,
                    ip: addr(rng.gen_range(0..12)),
                })
                .collect();
            let labels: Vec<u8> = (0..n_rows)
                .map(|_| [LABEL_ABP, LABEL_SEMI, LABEL_CLEAN][rng.gen_range(0..3)])
                .collect();

            let mut reference = TrackerIpSet::default();
            let mut per_flow = DestBreakdown::default();
            for (r, &label) in requests.iter().zip(&labels) {
                if label != LABEL_CLEAN {
                    reference.absorb_tracking_request(r.ip, domains.domain(r.host), r.time);
                    per_flow.absorb_eu28_flow(users[r.user.0 as usize].country, r.ip, &estimates);
                }
            }

            let mut bounds: Vec<usize> = (0..n_cuts)
                .map(|_| rng.gen_range(0..=n_rows))
                .chain([0, n_rows])
                .collect();
            bounds.sort_unstable();
            let mut fold = TrackerFold::default();
            for (k, seg) in bounds.windows(2).enumerate() {
                let (rows, tags) = (&requests[seg[0]..seg[1]], &labels[seg[0]..seg[1]]);
                if k % 2 == 0 {
                    fold.absorb_requests(rows, |i| tags[i] != LABEL_CLEAN, eu28_users(&users));
                } else {
                    let chunk = StudyChunk {
                        visits: Vec::new(),
                        requests: rows.to_vec(),
                        observations: Vec::new(),
                        report: DegradationReport::default(),
                    };
                    let block = SegmentBlock::from_chunk(&chunk, tags, 0, 0, (0, users.len() as u32));
                    fold.absorb_block(&block, eu28_users(&users));
                }
            }

            let folded = fold.tracker_ips(&domains);
            prop_assert_eq!(folded.len(), reference.len());
            for (ip, want) in &reference.ips {
                let got = &folded.ips[ip];
                prop_assert_eq!(got.requests, want.requests, "requests of {}", ip);
                prop_assert_eq!(&got.hosts, &want.hosts, "hosts of {}", ip);
                prop_assert_eq!(got.window, want.window, "window of {}", ip);
                prop_assert_eq!(got.from_pdns_only, want.from_pdns_only);
            }
            let breakdown = fold.eu28_breakdown(&estimates);
            prop_assert_eq!(breakdown.total, per_flow.total);
            prop_assert_eq!(breakdown.counts, per_flow.counts);
        }
    }
}
