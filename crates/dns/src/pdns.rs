//! Passive DNS replication (Weimer, FIRST 2005; Robtex-style database).
//!
//! Sensors at production resolvers record every (name, address) resolution;
//! the database keeps, per pair, the first and last time it was seen. The
//! paper uses the forward view to *complete* a tracker's IP set (finding
//! IPs our users were never mapped to, +2.78 %) and the reverse view to
//! check whether an IP is *dedicated* to one tracking domain or shared by
//! many (Figs. 4–5), plus the validity windows that scope the NetFlow join.
//!
//! The sensor absorbs one observation per study cache miss, so `observe` is
//! on every driver's ingest path (the `ingest/pdns` profile layer). Both
//! indexes are [`FxMap`]s, and a domain is cloned only when its first record
//! is created. Only the record lists' order is observable — each list is in
//! first-observation order — never the maps' hash order.

use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use xborder_faults::{ip_key, stable_hash, DegradationReport, FaultInjector};
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_webgraph::{Domain, FxMap};

/// One (domain, ip) association with its observed validity window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PdnsRecord {
    /// The resolved name.
    pub domain: Domain,
    /// The answer address.
    pub ip: IpAddr,
    /// First-seen .. last-seen window (half-open).
    pub window: TimeWindow,
    /// Number of observations folded into this record.
    pub count: u64,
}

/// The passive-DNS database: forward and reverse indexes over
/// [`PdnsRecord`]s.
#[derive(Debug, Default)]
pub struct PassiveDnsDb {
    records: Vec<PdnsRecord>,
    forward: FxMap<Domain, Vec<usize>>,
    reverse: FxMap<IpAddr, Vec<usize>>,
}

impl PassiveDnsDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record index of a (domain, ip) pair: one hash of the *borrowed*
    /// domain plus a scan of its record list. An FQDN maps to a handful of
    /// addresses, so the scan is shorter than hashing an owned
    /// `(Domain, IpAddr)` key would be — and needs no per-call clone,
    /// which used to dominate observation replay (DESIGN.md §5f).
    fn index_of(&self, domain: &Domain, ip: IpAddr) -> Option<usize> {
        self.forward
            .get(domain)?
            .iter()
            .copied()
            .find(|&i| self.records[i].ip == ip)
    }

    /// Records one observation of `domain` resolving to `ip` at time `t`:
    /// one hash of the borrowed domain, whether the pair is new or not.
    pub fn observe(&mut self, domain: &Domain, ip: IpAddr, t: SimTime) {
        let idx = self.records.len();
        match self.forward.get_mut(domain) {
            Some(idxs) => {
                if let Some(&i) = idxs.iter().find(|&&i| self.records[i].ip == ip) {
                    let rec = &mut self.records[i];
                    rec.window.extend_to(t);
                    rec.count += 1;
                    return;
                }
                idxs.push(idx);
            }
            // The index key is cloned on the domain's first record only.
            None => {
                self.forward.insert(domain.clone(), vec![idx]);
            }
        }
        self.records.push(PdnsRecord {
            domain: domain.clone(),
            ip,
            window: TimeWindow::new(t, SimTime(t.0 + 1)),
            count: 1,
        });
        self.reverse.entry(ip).or_default().push(idx);
    }

    /// Forward lookup: every address ever seen answering for `domain`.
    pub fn forward(&self, domain: &Domain) -> Vec<&PdnsRecord> {
        self.forward
            .get(domain)
            .map(|idxs| idxs.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Forward lookup under fault injection: sensor-gapped records are
    /// invisible, stale records keep only their first-seen stamp (the
    /// sensor stopped refreshing last-seen). Returns owned records because
    /// stale windows are rewritten. Coins key on the (domain, ip) pair, so
    /// repeated queries degrade identically.
    pub fn forward_degraded(
        &self,
        domain: &Domain,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Vec<PdnsRecord> {
        let mut out = Vec::new();
        for rec in self.forward(domain) {
            report.pdns_records_seen += 1;
            if !inj.is_active() {
                out.push(rec.clone());
                continue;
            }
            let key = stable_hash(rec.domain.as_str().as_bytes()) ^ ip_key(rec.ip);
            if inj.pdns_gapped(key) {
                report.pdns_records_gapped += 1;
                continue;
            }
            let mut rec = rec.clone();
            if inj.pdns_stale(key) {
                report.pdns_records_stale += 1;
                rec.window = TimeWindow::new(rec.window.start, SimTime(rec.window.start.0 + 1));
            }
            out.push(rec);
        }
        out
    }

    /// Reverse lookup: every name ever seen served from `ip`.
    pub fn reverse(&self, ip: IpAddr) -> Vec<&PdnsRecord> {
        self.reverse
            .get(&ip)
            .map(|idxs| idxs.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Forward lookup restricted to records whose window overlaps `w`.
    pub fn forward_in(&self, domain: &Domain, w: TimeWindow) -> Vec<&PdnsRecord> {
        self.forward(domain)
            .into_iter()
            .filter(|r| r.window.overlaps(&w))
            .collect()
    }

    /// Distinct pay-level domains ("TLDs") seen on `ip` within `w`.
    pub fn tlds_on_ip(&self, ip: IpAddr, w: TimeWindow) -> Vec<Domain> {
        let mut v: Vec<Domain> = self
            .reverse(ip)
            .into_iter()
            .filter(|r| r.window.overlaps(&w))
            .map(|r| r.domain.tld())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The validity window of a specific (domain, ip) pair, if recorded.
    pub fn window_of(&self, domain: &Domain, ip: IpAddr) -> Option<TimeWindow> {
        self.index_of(domain, ip).map(|i| self.records[i].window)
    }

    /// Total number of distinct (domain, ip) pairs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates all records.
    pub fn iter(&self) -> impl Iterator<Item = &PdnsRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::new(s)
    }
    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn observe_and_forward() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("1.2.3.5"), SimTime(200));
        let fwd = db.forward(&d("t.x.com"));
        assert_eq!(fwd.len(), 2);
        assert!(db.forward(&d("other.com")).is_empty());
    }

    #[test]
    fn windows_extend_with_observations() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(5000));
        let w = db.window_of(&d("t.x.com"), ip("1.2.3.4")).unwrap();
        assert_eq!(w.start, SimTime(100));
        assert!(w.contains(SimTime(5000)));
        assert_eq!(db.len(), 1);
        assert_eq!(db.forward(&d("t.x.com"))[0].count, 2);
    }

    #[test]
    fn reverse_lookup_collects_domains() {
        let mut db = PassiveDnsDb::new();
        let shared = ip("9.9.9.9");
        db.observe(&d("sync.a.com"), shared, SimTime(10));
        db.observe(&d("px.b.net"), shared, SimTime(20));
        db.observe(&d("t.a.com"), shared, SimTime(30));
        let rev = db.reverse(shared);
        assert_eq!(rev.len(), 3);
        let tlds = db.tlds_on_ip(shared, TimeWindow::new(SimTime(0), SimTime(100)));
        assert_eq!(tlds.len(), 2); // a.com appears twice but dedups
        assert!(tlds.contains(&d("a.com")));
        assert!(tlds.contains(&d("b.net")));
    }

    #[test]
    fn window_filter_excludes_stale_records() {
        let mut db = PassiveDnsDb::new();
        db.observe(&d("t.x.com"), ip("1.2.3.4"), SimTime(100));
        db.observe(&d("t.x.com"), ip("5.6.7.8"), SimTime(10_000));
        let early = db.forward_in(&d("t.x.com"), TimeWindow::new(SimTime(0), SimTime(200)));
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].ip, ip("1.2.3.4"));
        let tlds = db.tlds_on_ip(ip("5.6.7.8"), TimeWindow::new(SimTime(0), SimTime(200)));
        assert!(tlds.is_empty());
    }

    #[test]
    fn lookups_keep_first_observation_order() {
        // Interleaved names and addresses, with repeats that must not
        // reorder anything: every list is in first-observation order,
        // whatever order the hasher keeps the keys in.
        let mut db = PassiveDnsDb::new();
        let names: Vec<Domain> = (0..12)
            .map(|i| d(&format!("t{i}.x{}.com", i % 3)))
            .collect();
        let ips: Vec<IpAddr> = (0..9).map(|i| ip(&format!("10.0.{}.{i}", i % 2))).collect();
        let mut order: Vec<(usize, usize)> = Vec::new();
        for step in 0..200usize {
            let (n, a) = ((step * 7) % names.len(), (step * 5 + step / 3) % ips.len());
            db.observe(&names[n], ips[a], SimTime(1_000 - step as u64));
            if !order.contains(&(n, a)) {
                order.push((n, a));
            }
        }
        assert_eq!(db.len(), order.len());
        for (n, name) in names.iter().enumerate() {
            let want: Vec<IpAddr> = order
                .iter()
                .filter(|p| p.0 == n)
                .map(|p| ips[p.1])
                .collect();
            let got: Vec<IpAddr> = db.forward(name).iter().map(|r| r.ip).collect();
            assert_eq!(got, want, "forward({name})");
        }
        for (a, &addr) in ips.iter().enumerate() {
            let want: Vec<&Domain> = order
                .iter()
                .filter(|p| p.1 == a)
                .map(|p| &names[p.0])
                .collect();
            let got: Vec<&Domain> = db.reverse(addr).iter().map(|r| &r.domain).collect();
            assert_eq!(got, want, "reverse({addr})");
        }
        let all: Vec<(&Domain, IpAddr)> = db.iter().map(|r| (&r.domain, r.ip)).collect();
        let want: Vec<(&Domain, IpAddr)> = order.iter().map(|p| (&names[p.0], ips[p.1])).collect();
        assert_eq!(all, want);
    }

    #[test]
    fn empty_db() {
        let db = PassiveDnsDb::new();
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
        assert!(db.reverse(ip("1.1.1.1")).is_empty());
    }
}
