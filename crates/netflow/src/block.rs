//! Columnar flow blocks and the line-rate synthetic generator.
//!
//! The paper's Sect. 7 join runs over *billions* of sampled flows per ISP
//! day; holding one `Vec<FlowRecord>` per day in RAM caps the repro at toy
//! scale. This module is the scaled substrate (DESIGN.md §5i):
//!
//! * [`FlowBlock`] — a fixed-size struct-of-arrays batch of anonymized
//!   flows. The tracker matcher only ever needs the remote endpoint, the
//!   remote port, the protocol and the flow start, so that is all a block
//!   carries: four dense columns the matcher streams through without
//!   touching a hash table or a 48-byte record.
//! * [`SyntheticFlowGen`] — a seeded line-rate generator for the scale
//!   bench: each block is a pure function of `(config, block index)`
//!   (hash-derived per-block RNG streams, the PR 3 per-user pattern), so
//!   any shard may produce any block and resident memory stays at
//!   `O(threads × block_len)` no matter how many records stream by.
//! * [`generate_and_match_sharded`] — the sharded join: block indices are
//!   partitioned into contiguous runs across a thread budget by
//!   [`shard_map`], each shard matches its blocks against the
//!   shared read-only [`TrackerIntervalSet`], and the per-shard
//!   [`BlockMatchStats`] are merged in shard order. Every counter is a
//!   `u64` sum, so any partition — any thread count, any block size for a
//!   fixed record stream — yields bit-identical totals.
//!
//! The per-record [`FlowRecord`] path and the
//! `HashSet` matcher in [`collector`](crate::collector) survive as the
//! test oracle, exactly like the PR 8 rule-engine oracle.

use crate::collector::{BlockMatchStats, TrackerIntervalSet};
use crate::record::{proto, FlowRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use xborder_faults::{derive_stream_seed, shard_map};
use xborder_netsim::time::SimTime;

/// Default records per block: large enough that per-block overhead
/// (RNG setup, loop prologue) vanishes, small enough that a block's four
/// columns (~11 B/record) stay comfortably inside L2.
pub const DEFAULT_BLOCK_LEN: usize = 65_536;

/// A fixed-size columnar batch of anonymized flows (struct-of-arrays).
///
/// Columns are index-aligned: record `i` is
/// `(remote[i], remote_port[i], proto[i], start[i])`. The subscriber side
/// never enters a block — anonymization is structural, as in
/// [`AnonymizedFlow`](crate::collector::AnonymizedFlow).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowBlock {
    /// Remote (internet-side) IPv4 endpoint, as a big-endian-ordered `u32`.
    pub remote: Vec<u32>,
    /// Remote port.
    pub remote_port: Vec<u16>,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: Vec<u8>,
    /// Flow start, seconds on the simulation axis. The simulation horizon
    /// is under a year, so `u32` holds every reachable instant; pushes
    /// debug-assert the invariant.
    pub start: Vec<u32>,
}

impl FlowBlock {
    /// An empty block with `cap` reserved records per column.
    pub fn with_capacity(cap: usize) -> FlowBlock {
        FlowBlock {
            remote: Vec::with_capacity(cap),
            remote_port: Vec::with_capacity(cap),
            proto: Vec::with_capacity(cap),
            start: Vec::with_capacity(cap),
        }
    }

    /// Records in the block.
    pub fn len(&self) -> usize {
        self.remote.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.remote.is_empty()
    }

    /// Clears all columns, keeping capacity.
    pub fn clear(&mut self) {
        self.remote.clear();
        self.remote_port.clear();
        self.proto.clear();
        self.start.clear();
    }

    /// Appends one anonymized flow.
    #[inline]
    pub fn push(&mut self, remote: u32, remote_port: u16, proto: u8, start: SimTime) {
        debug_assert!(u32::try_from(start.0).is_ok(), "sim time exceeds u32");
        self.remote.push(remote);
        self.remote_port.push(remote_port);
        self.proto.push(proto);
        self.start.push(start.0 as u32);
    }

    /// Appends one [`FlowRecord`], applying the collector's direction
    /// normalization: the generator keeps subscribers in 10/8, so the
    /// other side is the remote endpoint.
    #[inline]
    pub fn push_record(&mut self, r: &FlowRecord) {
        let (remote, port) = if r.src.octets()[0] == 10 {
            (r.dst, r.dst_port)
        } else {
            (r.src, r.src_port)
        };
        self.push(u32::from(remote), port, r.protocol, r.start);
    }

    /// Expands record `i` back into a [`FlowRecord`] with a placeholder
    /// subscriber side — the per-record oracle path ingests these and must
    /// recover exactly the block's match statistics.
    pub fn to_record(&self, i: usize) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::from(self.remote[i]),
            src_port: 40_000,
            dst_port: self.remote_port[i],
            protocol: self.proto[i],
            tos: 0,
            packets: 1,
            bytes: 64,
            start: SimTime(self.start[i] as u64),
            end: SimTime(self.start[i] as u64 + 1),
            input_if: 1,
            output_if: 2,
        }
    }
}

/// Configuration of the synthetic line-rate workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Master seed; block `i`'s stream is `derive_stream_seed(seed, i)`.
    pub seed: u64,
    /// Total records to emit.
    pub n_records: u64,
    /// Records per block (the last block may be shorter).
    pub block_len: usize,
    /// Probability a record's remote endpoint is drawn from the tracker
    /// pool (the rest goes to the benchmark-range background pool).
    pub tracker_share: f64,
    /// Probability a tracker-pool record rides 443 (the remainder splits
    /// between 80 and ephemeral ports like real sampled traffic).
    pub encrypted_share: f64,
    /// Midnight of the synthetic snapshot day.
    pub day_start: SimTime,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            seed: 0xF10E5,
            n_records: 1_000_000,
            block_len: DEFAULT_BLOCK_LEN,
            tracker_share: 0.03,
            encrypted_share: 0.83,
            day_start: SimTime::EPOCH,
        }
    }
}

/// Seeded synthetic flow generator: emits the sampled-flow stream as
/// columnar blocks, each block an independent pure function of
/// `(config, block index)`.
#[derive(Debug, Clone)]
pub struct SyntheticFlowGen {
    cfg: SyntheticConfig,
    /// Remote endpoints that are on the tracker list.
    tracker_pool: Vec<u32>,
    /// Remote endpoints that never match: the 198.18/15 benchmark range,
    /// which the simulator's server allocator never assigns.
    background_pool: Vec<u32>,
}

impl SyntheticFlowGen {
    /// A generator whose tracker-destined records draw from `tracker_ips`.
    ///
    /// Panics if the tracker pool is empty and `tracker_share > 0`.
    pub fn new(cfg: SyntheticConfig, tracker_ips: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        let mut tracker_pool: Vec<u32> = tracker_ips.into_iter().map(u32::from).collect();
        tracker_pool.sort_unstable();
        tracker_pool.dedup();
        assert!(
            !tracker_pool.is_empty() || cfg.tracker_share == 0.0,
            "tracker share without tracker IPs"
        );
        // A deterministic spread of benchmark-range endpoints; 4096 is
        // enough that per-IP locality doesn't flatter the matcher.
        let background_pool = (0..4096u32)
            .map(|i| u32::from(Ipv4Addr::new(198, 18 + (i % 2) as u8, (i / 256) as u8, (i % 256) as u8)))
            .collect();
        SyntheticFlowGen {
            cfg,
            tracker_pool,
            background_pool,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Number of blocks the record budget spans.
    pub fn n_blocks(&self) -> u64 {
        self.cfg.n_records.div_ceil(self.cfg.block_len.max(1) as u64)
    }

    /// Records in block `idx` (the tail block may be short).
    pub fn block_records(&self, idx: u64) -> usize {
        let start = idx * self.cfg.block_len as u64;
        (self.cfg.n_records.saturating_sub(start)).min(self.cfg.block_len as u64) as usize
    }

    /// Fills `out` with block `idx`'s records. Pure in `(config, idx)`:
    /// the block's RNG stream is hash-derived, never shared.
    pub fn fill_block(&self, idx: u64, out: &mut FlowBlock) {
        out.clear();
        let n = self.block_records(idx);
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(self.cfg.seed, idx));
        let tracker_cut = (self.cfg.tracker_share * (1u64 << 32) as f64) as u64;
        let encrypted_cut = (self.cfg.encrypted_share * (1u64 << 16) as f64) as u64;
        let day = self.cfg.day_start.0;
        for _ in 0..n {
            // Two u64 draws per record; every field is carved out of their
            // bits so the generator stays RNG-bound, not branch-bound.
            let a = rng.gen::<u64>();
            let b = rng.gen::<u64>();
            let is_tracker = (a & 0xFFFF_FFFF) < tracker_cut;
            let pool = if is_tracker {
                &self.tracker_pool
            } else {
                &self.background_pool
            };
            let remote = pool[((a >> 32) as usize) % pool.len()];
            let port_sel = b & 0xFFFF;
            let port = if port_sel < encrypted_cut {
                443
            } else if port_sel < encrypted_cut + ((1u64 << 16) - encrypted_cut) / 2 {
                80
            } else {
                8080
            };
            let protocol = if (b >> 16) & 0x3 == 0 { proto::UDP } else { proto::TCP };
            let start = SimTime(day + ((b >> 18) % 86_400));
            out.push(remote, port, protocol, start);
        }
    }
}

/// Generates and matches the whole synthetic stream, sharded across
/// `threads` contiguous runs of block indices ([`shard_map`]).
///
/// Per-run [`BlockMatchStats`] merge in run order. Totals are `u64` sums
/// of per-record indicator counts, so the result is bit-identical for
/// every thread budget and for every `block_len` that partitions the same
/// record stream.
pub fn generate_and_match_sharded(
    gen: &SyntheticFlowGen,
    set: &TrackerIntervalSet,
    threads: usize,
) -> BlockMatchStats {
    let mut runs = shard_map(block_count(gen), threads, |run| {
        let mut stats = set.new_stats();
        let mut block = FlowBlock::with_capacity(gen.cfg.block_len);
        for idx in run {
            gen.fill_block(idx as u64, &mut block);
            set.match_block(&block, &mut stats);
        }
        stats
    })
    .into_iter();
    let mut merged = runs.next().expect("shard_map returns at least one run");
    for run in runs {
        merged.absorb(&run);
    }
    merged
}

fn block_count(gen: &SyntheticFlowGen) -> usize {
    usize::try_from(gen.n_blocks()).expect("the block count fits the address space")
}

/// Generation-only sweep (no matching), for per-stage bench attribution.
/// Returns the records produced, folding each block's length so the
/// optimizer cannot elide the work.
pub fn generate_only_sharded(gen: &SyntheticFlowGen, threads: usize) -> u64 {
    shard_map(block_count(gen), threads, |run| {
        let mut block = FlowBlock::with_capacity(gen.cfg.block_len);
        let mut total = 0u64;
        for idx in run {
            gen.fill_block(idx as u64, &mut block);
            total += block.len() as u64;
        }
        total
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{v4, FlowCollector};
    use xborder_netsim::time::TimeWindow;

    fn tracker_ips() -> Vec<Ipv4Addr> {
        // Adjacent runs plus singletons, so the interval set has real ranges.
        let mut ips = Vec::new();
        for i in 0..40u32 {
            ips.push(Ipv4Addr::from(0x0400_1000 + i)); // one 40-wide run
        }
        for i in 0..25u32 {
            ips.push(Ipv4Addr::from(0x0500_0000 + i * 97)); // singletons
        }
        ips
    }

    fn gen_and_set(n_records: u64, block_len: usize) -> (SyntheticFlowGen, TrackerIntervalSet) {
        let ips = tracker_ips();
        let cfg = SyntheticConfig {
            n_records,
            block_len,
            tracker_share: 0.25,
            ..Default::default()
        };
        let gen = SyntheticFlowGen::new(cfg, ips.iter().copied());
        let set = TrackerIntervalSet::build(ips.into_iter().map(|ip| (ip, None)));
        (gen, set)
    }

    #[test]
    fn blocks_are_pure_functions_of_their_index() {
        let (gen, _) = gen_and_set(10_000, 1024);
        let mut a = FlowBlock::default();
        let mut b = FlowBlock::default();
        gen.fill_block(3, &mut a);
        gen.fill_block(7, &mut b); // dirty the buffer
        gen.fill_block(3, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1024);
        // Tail block is short.
        gen.fill_block(gen.n_blocks() - 1, &mut b);
        assert_eq!(b.len(), 10_000 % 1024);
    }

    #[test]
    fn sharded_join_is_thread_invariant() {
        let (gen, set) = gen_and_set(50_000, 512);
        let t1 = generate_and_match_sharded(&gen, &set, 1);
        let t2 = generate_and_match_sharded(&gen, &set, 2);
        let t8 = generate_and_match_sharded(&gen, &set, 8);
        let t97 = generate_and_match_sharded(&gen, &set, 97); // > n_blocks
        assert_eq!(t1, t2);
        assert_eq!(t1, t8);
        assert_eq!(t1, t97);
        assert_eq!(t1.total_flows, 50_000);
        assert!(t1.tracking_flows > 0);
    }

    #[test]
    fn columnar_join_equals_per_record_oracle() {
        let (gen, set) = gen_and_set(20_000, 2048);
        let stats = generate_and_match_sharded(&gen, &set, 4);

        let mut oracle = FlowCollector::new(tracker_ips().into_iter().map(v4));
        let mut block = FlowBlock::default();
        for idx in 0..gen.n_blocks() {
            gen.fill_block(idx, &mut block);
            for i in 0..block.len() {
                oracle.ingest(&block.to_record(i), xborder_geo::cc!("DE"));
            }
        }
        let o = oracle.into_stats();
        let m = stats.to_match_stats(&set);
        assert_eq!(m, o);
    }

    #[test]
    fn validity_windows_scope_block_matches_like_the_oracle() {
        let ips = tracker_ips();
        let day = SimTime::EPOCH;
        let window = TimeWindow::new(SimTime(day.0 + 10_000), SimTime(day.0 + 50_000));
        // Half the IPs get the window.
        let entries: Vec<(Ipv4Addr, Option<TimeWindow>)> = ips
            .iter()
            .enumerate()
            .map(|(i, ip)| (*ip, (i % 2 == 0).then_some(window)))
            .collect();
        let set = TrackerIntervalSet::build(entries.iter().copied());
        let cfg = SyntheticConfig {
            n_records: 30_000,
            block_len: 1000,
            tracker_share: 0.3,
            day_start: day,
            ..Default::default()
        };
        let gen = SyntheticFlowGen::new(cfg, ips.iter().copied());
        let stats = generate_and_match_sharded(&gen, &set, 3);

        let mut oracle = FlowCollector::new(ips.iter().copied().map(v4));
        for (ip, w) in &entries {
            if let Some(w) = w {
                oracle.set_validity(v4(*ip), *w);
            }
        }
        let mut block = FlowBlock::default();
        for idx in 0..gen.n_blocks() {
            gen.fill_block(idx, &mut block);
            for i in 0..block.len() {
                oracle.ingest(&block.to_record(i), xborder_geo::cc!("HU"));
            }
        }
        let o = oracle.into_stats();
        assert_eq!(stats.to_match_stats(&set), o);
        // The window actually rejected something (otherwise this test is vacuous).
        assert!(o.tracking_flows < stats.total_flows);
        assert!(o.per_ip.values().sum::<u64>() == o.tracking_flows);
    }

    #[test]
    fn block_size_does_not_change_the_record_stream_totals() {
        // Same records regardless of how they are *matched* in blocks:
        // materialize one stream, then re-block it at different sizes.
        let (gen, set) = gen_and_set(8_192, 1024);
        let mut whole = FlowBlock::default();
        let mut tmp = FlowBlock::default();
        for idx in 0..gen.n_blocks() {
            gen.fill_block(idx, &mut tmp);
            for i in 0..tmp.len() {
                whole.push(tmp.remote[i], tmp.remote_port[i], tmp.proto[i], SimTime(tmp.start[i] as u64));
            }
        }
        let mut direct = set.new_stats();
        set.match_block(&whole, &mut direct);
        for chunk in [37usize, 512, 8192] {
            let mut chunked = set.new_stats();
            let mut buf = FlowBlock::default();
            let mut i = 0;
            while i < whole.len() {
                buf.clear();
                for j in i..(i + chunk).min(whole.len()) {
                    buf.push(whole.remote[j], whole.remote_port[j], whole.proto[j], SimTime(whole.start[j] as u64));
                }
                set.match_block(&buf, &mut chunked);
                i += chunk;
            }
            assert_eq!(direct, chunked, "chunk {chunk} diverged");
        }
    }
}
