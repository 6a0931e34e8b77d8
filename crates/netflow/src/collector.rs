//! Flow collection: anonymization and the tracker-IP matchers.
//!
//! The paper's ethics setup (Sect. 7.2): subscriber IPs are replaced with
//! the ISP's country code before analysis, and flows are only ever counted
//! against the tracker-IP list via hashing — no per-user state. The
//! collector enforces the same shape: ingestion immediately rewrites the
//! subscriber side to a country label, and the only query surface is
//! per-tracker-IP counters.
//!
//! Two matchers live here:
//!
//! * [`FlowCollector`] — the original per-record `HashSet` + `HashMap`
//!   path. It stays as the **test oracle** (PR 8 rule-engine pattern):
//!   slow, obviously correct, and asserted equal to the fast path.
//! * [`TrackerIntervalSet`] — the scaled matcher (DESIGN.md §5i): the
//!   tracker list compiled into sorted, merged `u32` ranges probed with a
//!   branchless binary search, validity windows and per-IP counters held
//!   in dense side-tables indexed by *interval slot* instead of hashed by
//!   address. It consumes [`FlowBlock`] columns and accumulates into
//!   [`BlockMatchStats`], whose `u64` counters merge
//!   additively — the basis of the thread- and block-size-invariance
//!   guarantees.

use crate::block::FlowBlock;
use crate::record::{FlowRecord, V5View};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr};
use xborder_geo::CountryCode;
use xborder_netsim::time::{SimTime, TimeWindow};

/// A flow after subscriber-side anonymization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnonymizedFlow {
    /// Where the subscriber is (the only thing kept about them).
    pub subscriber_country: CountryCode,
    /// The remote (internet) endpoint.
    pub remote: IpAddr,
    /// Remote port.
    pub remote_port: u16,
    /// IP protocol.
    pub protocol: u8,
    /// Flow start time.
    pub start: SimTime,
}

/// Matching statistics over one ingestion run.
///
/// `per_ip` is a `BTreeMap` so reports serialize in one canonical order —
/// a `HashMap` here made every JSON emission byte-unstable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchStats {
    /// All ingested flows.
    pub total_flows: u64,
    /// Flows whose remote endpoint is a known tracker IP (within its
    /// validity window when windows are configured).
    pub tracking_flows: u64,
    /// Tracking flows on ports 80/443 (paper: >99.5 %).
    pub tracking_web_flows: u64,
    /// Tracking flows on port 443 (paper: >83 % encrypted).
    pub tracking_encrypted_flows: u64,
    /// Per-tracker-IP flow counters, in canonical address order.
    pub per_ip: BTreeMap<IpAddr, u64>,
}

/// The collector: holds the tracker-IP list (with optional validity
/// windows from passive DNS) and counts matches per record.
#[derive(Debug, Default)]
pub struct FlowCollector {
    tracker_ips: HashSet<IpAddr>,
    validity: HashMap<IpAddr, TimeWindow>,
    stats: MatchStats,
}

impl FlowCollector {
    /// A collector matching against `tracker_ips`.
    pub fn new(tracker_ips: impl IntoIterator<Item = IpAddr>) -> FlowCollector {
        FlowCollector {
            tracker_ips: tracker_ips.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Restricts matching of `ip` to a validity window (from pDNS): flows
    /// outside the window don't count, removing noise from IPs that were
    /// only temporarily bound to a tracking domain (paper Challenge 3).
    pub fn set_validity(&mut self, ip: IpAddr, window: TimeWindow) {
        self.validity.insert(ip, window);
    }

    /// Compiles the tracker list (and any validity windows set so far)
    /// into the dense interval-set matcher. IPv6 trackers are excluded —
    /// the block path carries v4 columns only; v6 flows ride the
    /// [`ingest_anonymized`](Self::ingest_anonymized) side channel.
    pub fn interval_set(&self) -> TrackerIntervalSet {
        TrackerIntervalSet::build(self.tracker_ips.iter().filter_map(|ip| match ip {
            IpAddr::V4(v) => Some((*v, self.validity.get(ip).copied())),
            IpAddr::V6(_) => None,
        }))
    }

    /// Ingests one already-decoded flow, applying anonymization.
    /// `subscriber_country` is the ISP's country (per the paper, all
    /// subscribers of an ISP are labelled with its country).
    pub fn ingest(&mut self, flow: &FlowRecord, subscriber_country: CountryCode) -> AnonymizedFlow {
        // Identify which side is the subscriber: the generator puts
        // subscribers in 10/8; everything else is remote.
        let (remote, remote_port) = if flow.src.octets()[0] == 10 {
            (flow.dst, flow.dst_port)
        } else {
            (flow.src, flow.src_port)
        };
        let anon = AnonymizedFlow {
            subscriber_country,
            remote: IpAddr::V4(remote),
            remote_port,
            protocol: flow.protocol,
            start: flow.start,
        };
        self.count(&anon);
        anon
    }

    /// Ingests a pre-anonymized flow (for non-v5 sources, e.g. IPv6).
    pub fn ingest_anonymized(&mut self, flow: AnonymizedFlow) {
        self.count(&flow);
    }

    /// Decodes and ingests a whole NetFlow v5 packet.
    ///
    /// Records are walked through a borrowed [`V5View`] over the wire
    /// bytes — no `Vec<FlowRecord>` is materialized per packet.
    pub fn ingest_v5(
        &mut self,
        wire: bytes::Bytes,
        subscriber_country: CountryCode,
    ) -> Result<usize, crate::record::CodecError> {
        let view = V5View::parse(&wire)?;
        let mut n = 0;
        for r in view.records() {
            self.ingest(&r, subscriber_country);
            n += 1;
        }
        Ok(n)
    }

    fn count(&mut self, flow: &AnonymizedFlow) {
        self.stats.total_flows += 1;
        if !self.tracker_ips.contains(&flow.remote) {
            return;
        }
        if let Some(w) = self.validity.get(&flow.remote) {
            if !w.contains(flow.start) {
                return;
            }
        }
        self.stats.tracking_flows += 1;
        if matches!(flow.remote_port, 80 | 443) {
            self.stats.tracking_web_flows += 1;
        }
        if flow.remote_port == 443 {
            self.stats.tracking_encrypted_flows += 1;
        }
        *self.stats.per_ip.entry(flow.remote).or_insert(0) += 1;
    }

    /// The statistics so far.
    pub fn stats(&self) -> &MatchStats {
        &self.stats
    }

    /// Consumes the collector, returning the statistics.
    pub fn into_stats(self) -> MatchStats {
        self.stats
    }
}

/// The tracker-IP list compiled to sorted, merged `u32` intervals with
/// dense side-tables (DESIGN.md §5i).
///
/// Layout: `starts[i] ..= ends[i]` are disjoint, ascending, inclusive
/// ranges. Every member address owns one *slot* — interval `i`'s addresses
/// occupy slots `slot_base[i] .. slot_base[i] + (ends[i] - starts[i] + 1)`
/// — and the validity window of a slot's address lives at
/// `valid_start[slot] .. valid_end[slot]` (half-open, mirroring
/// [`TimeWindow::contains`]; windowless addresses get `[0, u32::MAX)`).
/// Lookup is a branchless lower-bound search over `starts`, one `ends`
/// range check, and pure arithmetic to the slot — no hashing anywhere on
/// the hot path. Sampled ISP traffic is overwhelmingly non-tracker, so an
/// 8 KiB `/16`-prefix bitmap fronts the search: one bit test rejects any
/// address whose `/16` contains no interval, which is nearly every miss.
#[derive(Debug, Clone, Default)]
pub struct TrackerIntervalSet {
    starts: Vec<u32>,
    ends: Vec<u32>,
    slot_base: Vec<u32>,
    valid_start: Vec<u32>,
    valid_end: Vec<u32>,
    /// Bit `p` set iff some interval intersects the `/16` prefix `p`.
    prefix_filter: Vec<u64>,
}

impl TrackerIntervalSet {
    /// Compiles `(address, validity)` entries into the interval set.
    /// Entries may arrive in any order with duplicates (first window
    /// wins); adjacent addresses merge into one interval.
    pub fn build(entries: impl IntoIterator<Item = (Ipv4Addr, Option<TimeWindow>)>) -> Self {
        let mut items: Vec<(u32, Option<TimeWindow>)> = entries
            .into_iter()
            .map(|(ip, w)| (u32::from(ip), w))
            .collect();
        items.sort_by_key(|(ip, _)| *ip);
        items.dedup_by_key(|(ip, _)| *ip);

        let mut set = TrackerIntervalSet::default();
        for (ip, w) in items {
            let extend = match set.ends.last() {
                Some(&end) => end != u32::MAX && ip == end + 1,
                None => false,
            };
            if extend {
                *set.ends.last_mut().unwrap() = ip;
            } else {
                set.starts.push(ip);
                set.ends.push(ip);
                set.slot_base.push(set.valid_start.len() as u32);
            }
            let (vs, ve) = match w {
                Some(w) => (
                    w.start.0.min(u32::MAX as u64) as u32,
                    w.end.0.min(u32::MAX as u64) as u32,
                ),
                None => (0, u32::MAX),
            };
            set.valid_start.push(vs);
            set.valid_end.push(ve);
        }
        set.prefix_filter = vec![0u64; (1usize << 16) / 64];
        for (&s, &e) in set.starts.iter().zip(&set.ends) {
            for p in (s >> 16)..=(e >> 16) {
                set.prefix_filter[(p >> 6) as usize] |= 1u64 << (p & 63);
            }
        }
        set
    }

    /// Number of merged intervals.
    pub fn n_intervals(&self) -> usize {
        self.starts.len()
    }

    /// Number of member addresses (= counter slots).
    pub fn n_slots(&self) -> usize {
        self.valid_start.len()
    }

    /// A zeroed accumulator sized for this set.
    pub fn new_stats(&self) -> BlockMatchStats {
        BlockMatchStats {
            per_slot: vec![0; self.n_slots()],
            ..Default::default()
        }
    }

    /// The address owning `slot`.
    fn slot_ip(&self, slot: usize) -> Ipv4Addr {
        // Find the interval whose slot range covers `slot`.
        let i = match self.slot_base.binary_search(&(slot as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Ipv4Addr::from(self.starts[i] + (slot as u32 - self.slot_base[i]))
    }

    /// Index of the interval containing `ip`, if any. Branchless
    /// lower-bound over `starts` (base/half loop compiles to conditional
    /// moves), then a single inclusive-end check.
    #[inline]
    fn find(&self, ip: u32) -> Option<usize> {
        let n = self.starts.len();
        if n == 0 {
            return None;
        }
        let mut base = 0usize;
        let mut size = n;
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            // cmov, not a branch: `starts` is in-cache for realistic sets.
            base = if self.starts[mid] <= ip { mid } else { base };
            size -= half;
        }
        (self.starts[base] <= ip && ip <= self.ends[base]).then_some(base)
    }

    /// Matches every record of `block` into `stats`.
    pub fn match_block(&self, block: &FlowBlock, stats: &mut BlockMatchStats) {
        let n = block.len();
        stats.total_flows += n as u64;
        if self.starts.is_empty() {
            return;
        }
        for i in 0..n {
            let ip = block.remote[i];
            // One L1 load kills the overwhelming non-tracker majority
            // before the search runs.
            let p = ip >> 16;
            if self.prefix_filter[(p >> 6) as usize] & (1u64 << (p & 63)) == 0 {
                continue;
            }
            let Some(iv) = self.find(ip) else { continue };
            let slot = (self.slot_base[iv] + (ip - self.starts[iv])) as usize;
            let t = block.start[i];
            if t < self.valid_start[slot] || t >= self.valid_end[slot] {
                continue;
            }
            let port = block.remote_port[i];
            stats.tracking_flows += 1;
            stats.tracking_web_flows += (port == 80 || port == 443) as u64;
            stats.tracking_encrypted_flows += (port == 443) as u64;
            stats.per_slot[slot] += 1;
        }
    }

    /// True if `ip` is in the set (ignoring windows).
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.find(u32::from(ip)).is_some()
    }
}

/// Dense accumulator for the block matcher: the same counters as
/// [`MatchStats`], with per-IP counts in a slot-indexed `Vec` instead of a
/// map. All fields are `u64` sums, so [`absorb`](Self::absorb) commutes —
/// shard merges are order-insensitive in value (the code still merges in
/// shard order for auditability).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockMatchStats {
    /// All matched-against flows.
    pub total_flows: u64,
    /// Flows that hit the tracker list inside their validity window.
    pub tracking_flows: u64,
    /// Tracking flows on ports 80/443.
    pub tracking_web_flows: u64,
    /// Tracking flows on port 443.
    pub tracking_encrypted_flows: u64,
    /// Per-slot tracking-flow counters (index = interval-set slot).
    pub per_slot: Vec<u64>,
}

impl BlockMatchStats {
    /// Adds another shard's counters into this one.
    pub fn absorb(&mut self, other: &BlockMatchStats) {
        assert_eq!(
            self.per_slot.len(),
            other.per_slot.len(),
            "merging stats from different interval sets"
        );
        self.total_flows += other.total_flows;
        self.tracking_flows += other.tracking_flows;
        self.tracking_web_flows += other.tracking_web_flows;
        self.tracking_encrypted_flows += other.tracking_encrypted_flows;
        for (a, b) in self.per_slot.iter_mut().zip(&other.per_slot) {
            *a += b;
        }
    }

    /// Expands slots back to addresses, producing the oracle-comparable
    /// report shape.
    pub fn to_match_stats(&self, set: &TrackerIntervalSet) -> MatchStats {
        let mut per_ip = BTreeMap::new();
        for (slot, &n) in self.per_slot.iter().enumerate() {
            if n > 0 {
                per_ip.insert(IpAddr::V4(set.slot_ip(slot)), n);
            }
        }
        MatchStats {
            total_flows: self.total_flows,
            tracking_flows: self.tracking_flows,
            tracking_web_flows: self.tracking_web_flows,
            tracking_encrypted_flows: self.tracking_encrypted_flows,
            per_ip,
        }
    }
}

/// Convenience: an [`Ipv4Addr`] as [`IpAddr`].
pub fn v4(ip: Ipv4Addr) -> IpAddr {
    IpAddr::V4(ip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::proto;
    use xborder_geo::cc;

    fn flow(sub: [u8; 4], remote: [u8; 4], port: u16, t: u64) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::from(sub),
            dst: Ipv4Addr::from(remote),
            src_port: 40000,
            dst_port: port,
            protocol: proto::TCP,
            tos: 0,
            packets: 10,
            bytes: 1000,
            start: SimTime(t),
            end: SimTime(t + 5),
            input_if: 1,
            output_if: 2,
        }
    }

    #[test]
    fn matches_tracker_ips_only() {
        let tracker = v4(Ipv4Addr::new(1, 2, 3, 4));
        let mut c = FlowCollector::new([tracker]);
        c.ingest(&flow([10, 0, 0, 1], [1, 2, 3, 4], 443, 100), cc!("DE"));
        c.ingest(&flow([10, 0, 0, 2], [9, 9, 9, 9], 443, 100), cc!("DE"));
        let s = c.stats();
        assert_eq!(s.total_flows, 2);
        assert_eq!(s.tracking_flows, 1);
        assert_eq!(s.tracking_encrypted_flows, 1);
        assert_eq!(s.per_ip.get(&tracker), Some(&1));
    }

    #[test]
    fn direction_is_normalized() {
        // Server -> subscriber direction must match too.
        let tracker = v4(Ipv4Addr::new(1, 2, 3, 4));
        let mut c = FlowCollector::new([tracker]);
        let reverse = flow([1, 2, 3, 4], [10, 0, 0, 1], 40000, 100);
        // src is the tracker here, src_port 40000... build explicitly:
        let reverse = FlowRecord {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 443,
            dst_port: 40000,
            ..reverse
        };
        let anon = c.ingest(&reverse, cc!("HU"));
        assert_eq!(anon.remote, tracker);
        assert_eq!(anon.remote_port, 443);
        assert_eq!(c.stats().tracking_flows, 1);
    }

    #[test]
    fn anonymization_drops_subscriber_ip() {
        let mut c = FlowCollector::new([]);
        let anon = c.ingest(&flow([10, 77, 88, 99], [5, 6, 7, 8], 80, 50), cc!("PL"));
        assert_eq!(anon.subscriber_country, cc!("PL"));
        assert_eq!(anon.remote, v4(Ipv4Addr::new(5, 6, 7, 8)));
        // Nothing else about the subscriber survives the ingest call; the
        // type system has no field to even hold it.
    }

    #[test]
    fn validity_window_scopes_matches() {
        let tracker = v4(Ipv4Addr::new(1, 2, 3, 4));
        let mut c = FlowCollector::new([tracker]);
        c.set_validity(tracker, TimeWindow::new(SimTime(100), SimTime(200)));
        c.ingest(&flow([10, 0, 0, 1], [1, 2, 3, 4], 443, 150), cc!("DE"));
        c.ingest(&flow([10, 0, 0, 1], [1, 2, 3, 4], 443, 500), cc!("DE"));
        assert_eq!(c.stats().tracking_flows, 1);
    }

    #[test]
    fn v5_wire_ingestion() {
        let tracker = v4(Ipv4Addr::new(1, 2, 3, 4));
        let flows = vec![
            flow([10, 0, 0, 1], [1, 2, 3, 4], 443, 10),
            flow([10, 0, 0, 2], [8, 8, 8, 8], 53, 11),
        ];
        let packets = crate::record::encode_flows(&flows, 1, 1000);
        let mut c = FlowCollector::new([tracker]);
        for p in packets {
            c.ingest_v5(p, cc!("DE")).unwrap();
        }
        assert_eq!(c.stats().total_flows, 2);
        assert_eq!(c.stats().tracking_flows, 1);
    }

    #[test]
    fn ipv6_side_channel() {
        let tracker: IpAddr = "2001:db8::1".parse().unwrap();
        let mut c = FlowCollector::new([tracker]);
        c.ingest_anonymized(AnonymizedFlow {
            subscriber_country: cc!("DE"),
            remote: tracker,
            remote_port: 443,
            protocol: proto::UDP,
            start: SimTime(5),
        });
        assert_eq!(c.stats().tracking_flows, 1);
    }

    #[test]
    fn interval_set_merges_adjacent_addresses() {
        let ips: Vec<Ipv4Addr> = [
            // One run of 4, a gap, a singleton, another run of 2.
            0x0A00_0001u32,
            0x0A00_0002,
            0x0A00_0003,
            0x0A00_0004,
            0x0A00_0009,
            0x0B00_0000,
            0x0B00_0001,
        ]
        .iter()
        .map(|&v| Ipv4Addr::from(v))
        .collect();
        let set = TrackerIntervalSet::build(ips.iter().map(|&ip| (ip, None)));
        assert_eq!(set.n_intervals(), 3);
        assert_eq!(set.n_slots(), 7);
        for ip in &ips {
            assert!(set.contains(*ip), "{ip} missing");
        }
        assert!(!set.contains(Ipv4Addr::from(0x0A00_0005u32)));
        assert!(!set.contains(Ipv4Addr::from(0x0A00_0000u32)));
        assert!(!set.contains(Ipv4Addr::from(0x0B00_0002u32)));
        // Slot -> IP round trip covers every member, in order.
        let members: Vec<Ipv4Addr> = (0..set.n_slots()).map(|s| set.slot_ip(s)).collect();
        let mut sorted = ips.clone();
        sorted.sort();
        assert_eq!(members, sorted);
    }

    #[test]
    fn interval_set_handles_address_space_edges() {
        let set = TrackerIntervalSet::build([
            (Ipv4Addr::from(0u32), None),
            (Ipv4Addr::from(1u32), None),
            (Ipv4Addr::from(u32::MAX), None),
        ]);
        assert!(set.contains(Ipv4Addr::from(0u32)));
        assert!(set.contains(Ipv4Addr::from(1u32)));
        assert!(set.contains(Ipv4Addr::from(u32::MAX)));
        assert!(!set.contains(Ipv4Addr::from(2u32)));
        assert!(!set.contains(Ipv4Addr::from(u32::MAX - 1)));
    }

    #[test]
    fn empty_interval_set_matches_nothing() {
        let set = TrackerIntervalSet::build([]);
        let mut block = FlowBlock::default();
        block.push(12345, 443, proto::TCP, SimTime(9));
        let mut stats = set.new_stats();
        set.match_block(&block, &mut stats);
        assert_eq!(stats.total_flows, 1);
        assert_eq!(stats.tracking_flows, 0);
    }

    #[test]
    fn match_stats_json_is_byte_stable() {
        // per_ip used to be a HashMap: the same stats serialized in a
        // different key order on every run. Pin the exact bytes now.
        let mut stats = MatchStats {
            total_flows: 5,
            tracking_flows: 3,
            tracking_web_flows: 3,
            tracking_encrypted_flows: 2,
            per_ip: BTreeMap::new(),
        };
        // Scrambled insertion order must not matter.
        for (ip, n) in [("9.9.9.9", 1u64), ("1.2.3.4", 1), ("3.3.3.3", 1)] {
            stats.per_ip.insert(ip.parse().unwrap(), n);
        }
        let expected = "{\"total_flows\":5,\"tracking_flows\":3,\
                        \"tracking_web_flows\":3,\"tracking_encrypted_flows\":2,\
                        \"per_ip\":{\"1.2.3.4\":1,\"3.3.3.3\":1,\"9.9.9.9\":1}}"
            .replace(' ', "");
        assert_eq!(serde_json::to_string(&stats).unwrap(), expected);
        // And the round trip is lossless.
        let back: MatchStats = serde_json::from_str(&expected).unwrap();
        assert_eq!(back, stats);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::record::proto;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xborder_geo::cc;

    /// Clustered tracker addresses: runs of adjacent IPs (so merged
    /// intervals actually form) plus scattered singletons. The base space
    /// is small (offsets 0..2006) so runs overlap and duplicate addresses
    /// arise — `build()` must cope with both.
    fn tracker_entries(rng: &mut StdRng) -> Vec<(Ipv4Addr, Option<TimeWindow>)> {
        let n_runs = rng.gen_range(1..20usize);
        let mut out = Vec::new();
        for _ in 0..n_runs {
            let base = rng.gen_range(0u32..2000);
            let len = rng.gen_range(1u32..6);
            let w = rng.gen_bool(0.5).then(|| {
                let s = rng.gen_range(0u64..500);
                TimeWindow::new(SimTime(s), SimTime(s + rng.gen_range(1u64..500)))
            });
            for i in 0..len {
                out.push((Ipv4Addr::from(0x0808_0000 + base + i), w));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn interval_set_equals_hashset_oracle(case_seed in any::<u64>()) {
            let rng = &mut StdRng::seed_from_u64(case_seed);
            let entries = tracker_entries(rng);
            // Oracle: first window per address wins, same as build().
            let mut oracle = FlowCollector::new(
                entries.iter().map(|(ip, _)| v4(*ip)),
            );
            let mut seen = std::collections::HashSet::new();
            for (ip, w) in &entries {
                if seen.insert(*ip) {
                    if let Some(w) = w {
                        oracle.set_validity(v4(*ip), *w);
                    }
                }
            }
            let set = TrackerIntervalSet::build(entries.iter().copied());
            let mut stats = set.new_stats();
            let mut block = FlowBlock::default();

            let n_probes = rng.gen_range(1..200usize);
            for _ in 0..n_probes {
                // Probes land on members, near-misses (gaps, one-off the
                // run edges) and far misses alike.
                let ip = Ipv4Addr::from(0x0808_0000 + rng.gen_range(0u32..2200));
                let port = [80u16, 443, 8080][rng.gen_range(0..3)];
                // Probe a raw time AND the window edges of this address,
                // if it has one: start-1, start, end-1, end exercise both
                // sides of the half-open boundary.
                let mut times = vec![rng.gen_range(0u64..1100)];
                if let Some(w) = entries.iter().find(|(e, _)| *e == ip).and_then(|(_, w)| *w) {
                    times.extend([w.start.0.saturating_sub(1), w.start.0, w.end.0 - 1, w.end.0]);
                }
                for t in times {
                    block.push(u32::from(ip), port, proto::TCP, SimTime(t));
                    oracle.ingest(&FlowRecord {
                        src: Ipv4Addr::new(10, 0, 0, 1),
                        dst: ip,
                        src_port: 40000,
                        dst_port: port,
                        protocol: proto::TCP,
                        tos: 0,
                        packets: 1,
                        bytes: 64,
                        start: SimTime(t),
                        end: SimTime(t + 1),
                        input_if: 1,
                        output_if: 2,
                    }, cc!("DE"));
                }
            }
            set.match_block(&block, &mut stats);
            prop_assert_eq!(stats.to_match_stats(&set), oracle.into_stats());
        }
    }
}
