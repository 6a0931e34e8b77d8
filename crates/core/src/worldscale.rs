//! Million-user worlds: the out-of-core extension pipeline (DESIGN.md §5j).
//!
//! [`crate::stream`] bounds the resident *study log* but still
//! materializes the full population up front and reassembles the full
//! [`xborder_browser::ExtensionDataset`] at finalization — both `O(world)`
//! allocations that cap it near 10⁵ users. This module is the pipeline for
//! [`crate::worldgen::WorldConfig::large`] worlds: the population is never
//! materialized (segments of users regenerate on demand from
//! `(pop_seed, user_range)`), and every downstream analysis folds segment
//! by segment, in one pass, into aggregates instead of touching a
//! concatenated log.
//!
//! The loop (replay, ingest, the completion checkpoint and geolocation)
//! is the segment driver `crate::segment`, shared with [`crate::stream`];
//! this module is its *fold* sink, `Aggregates`. No segment outlives
//! its iteration: a committed segment becomes a columnar
//! [`xborder_browser::SegmentBlock`] only as the payload of a checkpoint
//! chunk. EU28 confinement needs each flow's origin country, which the
//! fold state never keeps, so the sink tallies `tracking IP → flow count`
//! for EU28-origin users while the segment's users are at hand; the tally
//! (bounded by the tracker-IP set) folds into the destination breakdown
//! once geolocation has produced estimates. Resident memory is one segment
//! of simulation plus the fold state plus the classifier's interned
//! state, which still grows with the number of unique URLs.
//!
//! ## The determinism contract, unchanged
//!
//! Segment size, thread budget, kill schedule and checkpointing remain
//! pure performance/availability knobs. The mechanisms are the streaming
//! driver's (per-user RNG streams, offset-keyed log faults,
//! delta-fixpoint classification), plus two aggregate-level rules that
//! make segmentation invisible in the folded outputs:
//!
//! * **Commutative folds stay commutative.** The visit digest XORs
//!   per-visit hashes, so the batch driver's final timestamp sort cannot
//!   show; dataset stats fold through bitsets (users never span segments,
//!   so distinct counts are unions of segment-local sets); the tracker IP
//!   set folds through [`TrackerIpSet::absorb_tracking_request`]; the EU28
//!   tally is a per-IP count ([`DestBreakdown::absorb_eu28_tally`]).
//! * **Order-sensitive folds key on global coordinates.** The request
//!   digest chains in global log order and rebases cascade referrers to
//!   the *global* row index before hashing — a segment-local index would
//!   make the segment size observable.
//!
//! `tests/worldscale.rs` pins [`ScaleOutputs::fingerprint`] across segment
//! sizes × thread budgets × fault plans × kill schedules, and pins
//! every aggregate against the materialized batch pipeline on a shared
//! segmented config.

use crate::confine::{is_eu28_origin, DestBreakdown};
use crate::ips::{CompletionStats, TrackerIpSet};
use crate::pipeline::EstimateMap;
use crate::segment::{put_ip, put_tracker_state, run_segments, Located, Segment, SegmentSink};
use crate::stream::StreamError;
use crate::worldgen::World;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::IpAddr;
use std::ops::Range;
use std::path::PathBuf;
use xborder_browser::{
    Referrer, RequestId, StudyChunk, StudyConfig, User, UserId, UserPopulation,
    UserPopulationConfig, LABEL_CLEAN,
};
use xborder_checkpoint::ByteWriter;
use xborder_classify::{ClassificationResult, MethodCounts};
use xborder_faults::{checksum64, stable_hash, DegradationReport, FaultPlan, KillSwitch, Profile};
use xborder_geo::Region;
use xborder_netsim::Infrastructure;
use xborder_webgraph::DomainTable;

/// How the out-of-core driver segments and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Users per segment (clamped to ≥ 1). A pure performance knob.
    pub segment_users: usize,
    /// Checkpoint directory; `None` disables durability. The format is
    /// the streaming driver's (same chunk payloads, same manifest), so
    /// kill-anywhere resume works identically.
    pub checkpoint_dir: Option<PathBuf>,
}

impl ScaleConfig {
    /// In-memory out-of-core run: segmented execution, no checkpoints.
    pub fn in_memory(segment_users: usize) -> ScaleConfig {
        ScaleConfig {
            segment_users,
            checkpoint_dir: None,
        }
    }

    /// Durable run: checkpoint every segment and stage into `dir`.
    pub fn durable(segment_users: usize, dir: impl Into<PathBuf>) -> ScaleConfig {
        ScaleConfig {
            checkpoint_dir: Some(dir.into()),
            ..ScaleConfig::in_memory(segment_users)
        }
    }
}

/// Everything the out-of-core pipeline distills from a world: the folded
/// analyses of [`crate::pipeline::StudyOutputs`] without the `O(world)`
/// dataset behind them.
#[derive(Debug)]
pub struct ScaleOutputs {
    /// Segments ingested (a function of the segment-size knob; excluded
    /// from [`ScaleOutputs::fingerprint`]).
    pub n_segments: usize,
    /// Table-1 statistics, folded through per-segment bitsets.
    pub stats: xborder_browser::DatasetStats,
    /// Order-insensitive digest of every visit row.
    pub visit_hash: u64,
    /// Order-sensitive digest of every request row (global log order,
    /// referrers rebased to global row indices).
    pub request_hash: u64,
    /// Table-2 counts for the easylist method.
    pub abp: MethodCounts,
    /// Table-2 counts for the semi-automatic method.
    pub semi: MethodCounts,
    /// Stage-2 fixpoint rounds (max across segments + 1, the batch figure).
    pub stage2_rounds: usize,
    /// Stage-3 fixpoint rounds.
    pub stage3_rounds: usize,
    /// Tracker IPs (observed + pDNS-completed) with validity windows.
    pub tracker_ips: TrackerIpSet,
    /// pDNS completion summary.
    pub completion: CompletionStats,
    /// IPmap estimates per tracker IP.
    pub ipmap_estimates: EstimateMap,
    /// MaxMind-style estimates per tracker IP.
    pub maxmind_estimates: EstimateMap,
    /// ip-api-style estimates per tracker IP.
    pub ipapi_estimates: EstimateMap,
    /// Destination breakdown of EU28-origin tracking flows under IPmap.
    pub eu28: DestBreakdown,
}

impl ScaleOutputs {
    /// Canonical digest of every knob-invariant output. Bit-identical
    /// across segment sizes, thread budgets and kill schedules;
    /// `n_segments` (a knob echo) is deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_usize(self.stats.n_users);
        w.put_usize(self.stats.n_first_party_domains);
        w.put_usize(self.stats.n_first_party_requests);
        w.put_usize(self.stats.n_third_party_domains);
        w.put_usize(self.stats.n_third_party_requests);
        w.put_u64(self.visit_hash);
        w.put_u64(self.request_hash);
        for m in [&self.abp, &self.semi] {
            w.put_usize(m.n_fqdn);
            w.put_usize(m.n_tld);
            w.put_usize(m.n_unique_urls);
            w.put_usize(m.n_total_requests);
        }
        w.put_usize(self.stage2_rounds);
        w.put_usize(self.stage3_rounds);
        put_tracker_state(&mut w, &self.tracker_ips, &self.completion);
        for map in [
            &self.ipmap_estimates,
            &self.maxmind_estimates,
            &self.ipapi_estimates,
        ] {
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_by_key(|(ip, _)| **ip);
            w.put_usize(entries.len());
            for (ip, est) in entries {
                put_ip(&mut w, *ip);
                w.put_bytes(&est.country.bytes());
            }
        }
        w.put_u64(self.eu28.total);
        for r in Region::ALL {
            w.put_u64(self.eu28.counts.get(&r).copied().unwrap_or(0));
        }
        stable_hash(&w.into_bytes())
    }
}

/// Digest of one visit row (XOR-folded by the caller, so the fold is
/// order-insensitive).
fn visit_row_hash(user: u32, publisher: u32, time: u64) -> u64 {
    let mut b = [0u8; 16];
    b[..4].copy_from_slice(&user.to_le_bytes());
    b[4..8].copy_from_slice(&publisher.to_le_bytes());
    b[8..16].copy_from_slice(&time.to_le_bytes());
    checksum64(&b)
}

/// Digest of one request row at `global_row`. `parent` must already be a
/// *global* row index — hashing a segment-local index would make the
/// segment size observable in the chained fold.
fn request_row_hash(
    buf: &mut Vec<u8>,
    global_row: u64,
    r: &xborder_browser::LoggedRequest,
    parent: Option<u64>,
    first_party_ref: bool,
    label: u8,
) -> u64 {
    buf.clear();
    buf.extend_from_slice(&global_row.to_le_bytes());
    buf.extend_from_slice(&r.user.0.to_le_bytes());
    buf.extend_from_slice(&r.time.0.to_le_bytes());
    buf.extend_from_slice(&r.first_party.0.to_le_bytes());
    buf.extend_from_slice(&r.publisher.0.to_le_bytes());
    buf.extend_from_slice(&r.host.0.to_le_bytes());
    match (parent, first_party_ref) {
        (Some(p), _) => {
            buf.push(2);
            buf.extend_from_slice(&p.to_le_bytes());
        }
        (None, true) => buf.push(1),
        (None, false) => buf.push(0),
    }
    match r.ip {
        IpAddr::V4(v4) => {
            buf.push(4);
            buf.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            buf.push(6);
            buf.extend_from_slice(&v6.octets());
        }
    }
    buf.push(label);
    buf.extend_from_slice(r.url.as_bytes());
    checksum64(buf)
}

/// Folds a *materialized* log into the `(visit_hash, request_hash)`
/// digests of [`ScaleOutputs`] — the bridge the equality tests use to pin
/// the out-of-core fold against the batch pipeline. `requests` must be in
/// global log order with global referrers (a batch
/// [`crate::pipeline::StudyOutputs`] dataset qualifies as-is); the visit
/// fold is order-insensitive.
pub fn dataset_digests(
    visits: &[xborder_browser::Visit],
    requests: &[xborder_browser::LoggedRequest],
    labels: &[u8],
) -> (u64, u64) {
    assert_eq!(labels.len(), requests.len(), "one label byte per request");
    let mut visit_hash = 0u64;
    for v in visits {
        visit_hash ^= visit_row_hash(v.user.0, v.publisher.0, v.time.0);
    }
    let mut request_hash = 0u64;
    let mut buf = Vec::with_capacity(256);
    for (i, r) in requests.iter().enumerate() {
        let (parent, fp) = match r.referrer {
            Referrer::None => (None, false),
            Referrer::FirstParty => (None, true),
            Referrer::Request(RequestId(p)) => (Some(p as u64), false),
        };
        request_hash = request_hash.rotate_left(3)
            ^ request_row_hash(&mut buf, i as u64, r, parent, fp, labels[i]);
    }
    (visit_hash, request_hash)
}

/// Dense-id membership set: the out-of-core stand-in for the batch
/// driver's `HashSet<PublisherId>` / `HashSet<DomainId>` — same distinct
/// counts, `n/8` bytes, no per-insert allocation.
struct Bitset {
    words: Vec<u64>,
    count: usize,
}

impl Bitset {
    fn new(n: usize) -> Bitset {
        Bitset {
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.count += 1;
        }
    }
}

/// The fold state every segment absorbs into. All fields are either
/// commutative (bitsets, XOR digest, tracker set, EU28 tally) or chained
/// in global log order with global coordinates (request digest), so the
/// final values are invariant to how the stream was segmented. Only the
/// tracker set and the EU28 tally grow, both bounded by the tracker IPs.
struct Aggregates {
    visited_publishers: Bitset,
    request_hosts: Bitset,
    n_visits: u64,
    n_requests: u64,
    visit_hash: u64,
    request_hash: u64,
    tracker_ips: TrackerIpSet,
    /// Tracking flows from EU28-origin users, per destination IP.
    eu28_tally: HashMap<IpAddr, u64>,
    row_buf: Vec<u8>,
}

impl Aggregates {
    fn new(n_publishers: usize, n_domains: usize) -> Aggregates {
        Aggregates {
            visited_publishers: Bitset::new(n_publishers),
            request_hosts: Bitset::new(n_domains),
            n_visits: 0,
            n_requests: 0,
            visit_hash: 0,
            request_hash: 0,
            tracker_ips: TrackerIpSet::default(),
            eu28_tally: HashMap::new(),
            row_buf: Vec::with_capacity(256),
        }
    }

    /// Folds one classified chunk. `labels` are the per-request tag bytes;
    /// `eu28_user` says whether a user of the chunk is an EU28 origin.
    /// Chunks must arrive in user (= global log) order for the request
    /// digest to chain correctly.
    fn absorb_chunk(
        &mut self,
        chunk: &StudyChunk,
        labels: &[u8],
        eu28_user: impl Fn(UserId) -> bool,
        domains: &DomainTable,
    ) {
        debug_assert_eq!(labels.len(), chunk.requests.len());
        for v in &chunk.visits {
            self.visited_publishers.insert(v.publisher.0 as usize);
            // XOR fold: the batch dataset sorts visits by timestamp at
            // finalization; an order-insensitive digest sees through that.
            self.visit_hash ^= visit_row_hash(v.user.0, v.publisher.0, v.time.0);
        }
        self.n_visits += chunk.visits.len() as u64;
        let base = self.n_requests;
        for (i, r) in chunk.requests.iter().enumerate() {
            self.request_hosts.insert(r.host.0 as usize);
            // Chunk-local parent row → global row: referrers never cross
            // users (hence never chunks), so parent and child share the
            // same base offset.
            let (parent, fp) = match r.referrer {
                Referrer::None => (None, false),
                Referrer::FirstParty => (None, true),
                Referrer::Request(RequestId(p)) => (Some(base + p as u64), false),
            };
            self.request_hash = self.request_hash.rotate_left(3)
                ^ request_row_hash(&mut self.row_buf, base + i as u64, r, parent, fp, labels[i]);
            if labels[i] != LABEL_CLEAN {
                self.tracker_ips
                    .absorb_tracking_request(r.ip, domains.domain(r.host), r.time);
                if eu28_user(r.user) {
                    *self.eu28_tally.entry(r.ip).or_insert(0) += 1;
                }
            }
        }
        self.n_requests += chunk.requests.len() as u64;
    }

    fn stats(&self, n_users: usize) -> xborder_browser::DatasetStats {
        xborder_browser::DatasetStats {
            n_users,
            n_first_party_domains: self.visited_publishers.count,
            n_first_party_requests: self.n_visits as usize,
            n_third_party_domains: self.request_hosts.count,
            n_third_party_requests: self.n_requests as usize,
        }
    }
}

/// Runs the extension pipeline out of core against a segmented world.
///
/// Requires a [`crate::worldgen::WorldConfig::large`]-style config
/// (`study.population.segmented` set); panics otherwise, because a
/// non-segmented population cannot be regenerated range by range.
/// Checkpointing, kill-anywhere resume and the error surface match
/// [`crate::stream::run_extension_pipeline_streaming`].
pub fn run_worldscale_pipeline(
    world: &mut World,
    plan: &FaultPlan,
    scale_cfg: &ScaleConfig,
    kill: &KillSwitch,
) -> Result<(ScaleOutputs, DegradationReport), StreamError> {
    assert!(
        world.config.study.population.segmented,
        "worldscale requires a segmented population config (WorldConfig::large)"
    );
    let fold = Fold {
        agg: Aggregates::new(world.graph.publishers.len(), world.graph.domains().len()),
        pop_cfg: world.config.study.population.clone(),
        pop_seed: 0,
    };
    run_segments(
        world,
        plan,
        scale_cfg.segment_users,
        scale_cfg.checkpoint_dir.as_deref(),
        kill,
        fold,
    )
}

/// The fold sink: every segment, replayed or ingested, folds into the
/// aggregates and dies. Replayed blocks materialize once for the fold, and
/// their EU28 tally reads users regenerated for the chunk's range, so a
/// resumed run accumulates exactly what the killed run had and the
/// checkpoint format carries no countries.
struct Fold {
    agg: Aggregates,
    /// The population is never materialized: any user range regenerates
    /// from `(pop_cfg, pop_seed, range)`.
    pop_cfg: UserPopulationConfig,
    pop_seed: u64,
}

impl SegmentSink for Fold {
    type Output = ScaleOutputs;
    type Study = (Fold, ClassificationResult);
    const KEEPS_BLOCKS: bool = false;

    /// The single `pop_seed` draw segmented population generation
    /// consumes, without materializing a single user.
    fn draw_population(&mut self, _study: &StudyConfig, rng: &mut StdRng) -> f64 {
        self.pop_seed = rng.gen();
        UserPopulation::mean_activity_segmented(&self.pop_cfg, self.pop_seed)
    }

    fn users(&self, range: Range<usize>) -> Vec<User> {
        UserPopulation::generate_range(
            &self.pop_cfg,
            self.pop_seed,
            range.start as u32..range.end as u32,
        )
    }

    fn absorb(
        &mut self,
        segment: Segment<'_>,
        users: &[User],
        domains: &DomainTable,
        _infra: &Infrastructure,
        _profile: &mut Profile,
    ) {
        let (chunk, labels) = match segment {
            Segment::Replayed(block) => {
                let (chunk, labels, _, _) = block.to_chunk();
                (Cow::Owned(chunk), Cow::Owned(labels))
            }
            Segment::Ingested { chunk, labels, .. } => {
                (Cow::Borrowed(chunk), Cow::Borrowed(labels))
            }
        };
        // Users are contiguous ids, and the driver has checked that every
        // request's user lies in the segment's range.
        let user_start = users.first().map_or(0, |u| u.id.0 as usize);
        let eu28: Vec<bool> = users.iter().map(|u| is_eu28_origin(u.country)).collect();
        self.agg.absorb_chunk(
            &chunk,
            &labels,
            |u| eu28[u.0 as usize - user_start],
            domains,
        );
    }

    fn finish_study(
        self,
        classification: ClassificationResult,
        _domains: &DomainTable,
    ) -> Result<Self::Study, StreamError> {
        Ok((self, classification))
    }

    /// The observed set was folded during ingest; only the pDNS walk is
    /// left for the completion stage.
    fn observed_tracker_ips((fold, _): &mut Self::Study) -> TrackerIpSet {
        std::mem::take(&mut fold.agg.tracker_ips)
    }

    /// The EU28 tally was counted during ingest, keyed by destination IP;
    /// with estimates in hand it folds into the destination breakdown.
    fn finish(
        (fold, cls): Self::Study,
        located: Located,
        report: &mut DegradationReport,
    ) -> ScaleOutputs {
        let agg = fold.agg;
        let mut eu28 = DestBreakdown::default();
        eu28.absorb_eu28_tally(&agg.eu28_tally, &located.ipmap_estimates);
        report.eu28_confinement = eu28.share(Region::Eu28);
        ScaleOutputs {
            n_segments: located.n_segments,
            stats: agg.stats(fold.pop_cfg.n_users),
            visit_hash: agg.visit_hash,
            request_hash: agg.request_hash,
            abp: cls.abp,
            semi: cls.semi,
            stage2_rounds: cls.stage2_rounds,
            stage3_rounds: cls.stage3_rounds,
            tracker_ips: located.tracker_ips,
            completion: located.completion,
            ipmap_estimates: located.ipmap_estimates,
            maxmind_estimates: located.maxmind_estimates,
            ipapi_estimates: located.ipapi_estimates,
            eu28,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_counts_distinct_inserts() {
        let mut b = Bitset::new(130);
        for i in [0, 1, 64, 64, 129, 0] {
            b.insert(i);
        }
        assert_eq!(b.count, 4);
    }

    #[test]
    fn aggregates_request_digest_is_order_sensitive() {
        // Two chunks absorbed in opposite orders must disagree: the
        // request digest is chained, not commutative (the global log has
        // one order).
        use xborder_browser::{LoggedRequest, LABEL_ABP};
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::{DomainId, PublisherId};
        let domains = {
            let mut t = DomainTable::default();
            t.intern(&xborder_webgraph::Domain::new("a.example"));
            t.intern(&xborder_webgraph::Domain::new("b.example"));
            t
        };
        let req = |host: u32, url: &str| LoggedRequest {
            user: UserId(0),
            time: SimTime(1),
            first_party: DomainId(0),
            publisher: PublisherId(0),
            url: url.into(),
            host: DomainId(host),
            referrer: Referrer::FirstParty,
            ip: "10.0.0.1".parse().unwrap(),
        };
        let chunk = |host: u32, url: &str| StudyChunk {
            visits: vec![],
            requests: vec![req(host, url)],
            observations: vec![],
            report: DegradationReport::default(),
        };
        let (c1, c2) = (chunk(0, "https://a.example/x"), chunk(1, "https://b.example/y"));
        let mut fwd = Aggregates::new(4, 4);
        fwd.absorb_chunk(&c1, &[LABEL_ABP], |_| false, &domains);
        fwd.absorb_chunk(&c2, &[LABEL_ABP], |_| false, &domains);
        let mut rev = Aggregates::new(4, 4);
        rev.absorb_chunk(&c2, &[LABEL_ABP], |_| false, &domains);
        rev.absorb_chunk(&c1, &[LABEL_ABP], |_| false, &domains);
        assert_ne!(fwd.request_hash, rev.request_hash);
        // The visit digest and distinct counts stay commutative.
        assert_eq!(fwd.visit_hash, rev.visit_hash);
        assert_eq!(fwd.request_hosts.count, rev.request_hosts.count);
    }
}
