//! Million-user worlds: the out-of-core extension pipeline (DESIGN.md §5j).
//!
//! [`crate::stream`] bounds the resident *study log* but still
//! materializes the full population up front and reassembles the full
//! [`xborder_browser::ExtensionDataset`] at finalization — both `O(world)`
//! allocations that cap it near 10⁵ users. This module is the driver for
//! [`crate::worldgen::WorldConfig::large`] worlds: the population is never
//! materialized (segments of users regenerate on demand from
//! `(pop_seed, user_range)`), and every downstream analysis folds segment
//! by segment, in one pass, into aggregates instead of touching a
//! concatenated log. No segment outlives its iteration: a committed
//! segment becomes a columnar [`SegmentBlock`] only as the payload of a
//! checkpoint chunk. EU28 confinement needs each flow's origin country,
//! which the fold state never keeps, so ingest tallies `tracking IP → flow
//! count` for EU28-origin users while the segment's users are at hand; the
//! tally (bounded by the tracker-IP set) folds into the destination
//! breakdown once geolocation has produced estimates. Resident memory is
//! one segment of simulation plus the fold state plus the classifier's
//! interned state, which still grows with the number of unique URLs.
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
use crate::ips::{CompletionStats, IpInfo, TrackerIpSet};
use crate::pipeline::{geolocate_providers, EstimateMap};
use crate::stream::{
    apply_chunk_delta, config_fingerprint, corrupt, decode_chunk_payload, decode_completion_state,
    encode_chunk_payload, encode_completion_state, killable, labels_to_bytes, StreamError,
};
use crate::worldgen::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::IpAddr;
use std::path::PathBuf;
use std::time::Instant;
use xborder_browser::{
    Referrer, RequestId, SegmentBlock, StudyChunk, StudyCtx, User, UserId, UserPopulation,
    LABEL_CLEAN,
};
use xborder_checkpoint::{ByteWriter, CheckpointError, CheckpointStore, DecodeError};
use xborder_classify::{
    generate_lists, ClassifierStages, IncrementalClassifier, MethodCounts,
};
use xborder_faults::{
    checksum64, stable_hash, DegradationReport, FaultInjector, FaultPlan, KillSwitch,
};
use xborder_geo::Region;
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
        // Canonical tracker-set order: sorted by IP, hosts sorted within.
        let mut sorted: Vec<(&IpAddr, &IpInfo)> = self.tracker_ips.ips.iter().collect();
        sorted.sort_by_key(|(ip, _)| **ip);
        w.put_usize(sorted.len());
        for (ip, info) in sorted {
            put_ip(&mut w, *ip);
            w.put_u64(info.requests);
            let mut hosts: Vec<&str> = info.hosts.iter().map(|h| h.as_str()).collect();
            hosts.sort_unstable();
            w.put_usize(hosts.len());
            for h in hosts {
                w.put_str(h);
            }
            w.put_u64(info.window.start.0);
            w.put_u64(info.window.end.0);
            w.put_u8(info.from_pdns_only as u8);
        }
        w.put_usize(self.completion.n_observed);
        w.put_usize(self.completion.n_added);
        w.put_f64(self.completion.v4_share);
        w.put_f64(self.completion.added_v4_share);
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

fn put_ip(w: &mut ByteWriter, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            w.put_u8(4);
            w.put_bytes(&v4.octets());
        }
        IpAddr::V6(v6) => {
            w.put_u8(6);
            w.put_bytes(&v6.octets());
        }
    }
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

    /// Folds one segment whose users are `users` (ids `user_start..`).
    fn absorb_segment(
        &mut self,
        chunk: &StudyChunk,
        labels: &[u8],
        users: &[User],
        user_start: usize,
        domains: &DomainTable,
    ) {
        let eu28: Vec<bool> = users.iter().map(|u| is_eu28_origin(u.country)).collect();
        self.absorb_chunk(chunk, labels, |u| eu28[u.0 as usize - user_start], domains);
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
    let inj = FaultInjector::new(plan.clone());
    let mut report = DegradationReport::default();
    let threads = world.config.parallelism.threads.max(1);
    let t_total = Instant::now();

    let fingerprint = config_fingerprint(&world.config, plan)?;
    let mut store = match &scale_cfg.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, fingerprint)?),
        None => None,
    };

    // World-RNG draws mirror the batch/streaming drivers on a segmented
    // config bit for bit: one study-stream draw, then the single
    // `pop_seed` draw segmented population generation consumes, then the
    // study seed — without materializing a single user.
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let pop_seed: u64 = rng.gen();
    let study_seed: u64 = rng.gen();
    let pop_cfg = world.config.study.population.clone();
    let n_users = pop_cfg.n_users;
    let segment_users = scale_cfg.segment_users.max(1);
    // Population-wide mean activity, streamed without a user vector (the
    // per-user visit budget normalizes by it, so it must never be
    // computed per segment).
    let mean_activity = UserPopulation::mean_activity_segmented(&pop_cfg, pop_seed);

    let (easylist, easyprivacy) = generate_lists(&world.graph);
    let stages = ClassifierStages::default();
    let t_compile = Instant::now();
    let mut classifier = IncrementalClassifier::new(&easylist, &easyprivacy, stages);
    let mut classify_ms = t_compile.elapsed().as_secs_f64() * 1e3;

    let mut n_segments = 0usize;
    let mut agg = Aggregates::new(world.graph.publishers.len(), world.graph.domains().len());
    let mut stage2_depth = 0usize;
    let mut stage3_rounds = 0usize;
    let mut pre_fault_offset: u64 = 0;
    let mut next_user = 0usize;

    // Replay durable segments instead of simulating them; aggregates fold
    // from the decoded blocks, and the EU28 tally from users regenerated
    // for the chunk's range, so a resumed run accumulates exactly what the
    // killed run had and the checkpoint format carries no countries.
    if let Some(store) = &store {
        for entry in store.chunks().to_vec() {
            if entry.user_start != next_user as u64
                || entry.user_end < entry.user_start
                || entry.user_end > n_users as u64
            {
                return Err(CheckpointError::ManifestInvalid {
                    detail: format!(
                        "chunk {} covers users {}..{} but {} of {} users are accounted for",
                        entry.index, entry.user_start, entry.user_end, next_user, n_users
                    ),
                }
                .into());
            }
            let payload = store.load_chunk(&entry)?;
            let (block, cls_bytes) = decode_chunk_payload(&entry.file, &payload)?;
            apply_chunk_delta(
                &mut classifier,
                &entry.file,
                cls_bytes,
                &block,
                world.graph.domains(),
            )?;
            let observations = block.observations_vec();
            world
                .dns
                .absorb_id_observations(&observations, world.graph.domains());
            let (chunk, label_bytes, seg_stage2, seg_stage3) = block.to_chunk();
            // The EU28 tally looks users up by id: a request naming a user
            // outside the chunk's range is corruption, not an index.
            if let Some(r) = chunk
                .requests
                .iter()
                .find(|r| !(entry.user_start..entry.user_end).contains(&u64::from(r.user.0)))
            {
                return Err(corrupt(
                    &entry.file,
                    DecodeError {
                        offset: 0,
                        detail: format!(
                            "request of user {} outside the chunk's users {}..{}",
                            r.user.0, entry.user_start, entry.user_end
                        ),
                    },
                ));
            }
            let users = UserPopulation::generate_range(
                &pop_cfg,
                pop_seed,
                entry.user_start as u32..entry.user_end as u32,
            );
            agg.absorb_segment(
                &chunk,
                &label_bytes,
                &users,
                next_user,
                world.graph.domains(),
            );
            report.absorb_counters(&chunk.report);
            stage2_depth = stage2_depth.max((seg_stage2 as usize).saturating_sub(1));
            stage3_rounds = stage3_rounds.max(seg_stage3 as usize);
            pre_fault_offset += block.counters().requests_generated;
            next_user = entry.user_end as usize;
            n_segments += 1;
        }
    }

    // Ingest the remaining users segment by segment. Each iteration holds
    // one regenerated user slice and one AoS chunk (plus, when durable,
    // its columnar block); all die before the next segment starts, so
    // live memory is one segment of simulation plus the fold state.
    let t_ingest = Instant::now();
    let cls_ms_before_ingest = classify_ms;
    {
        let (view, pdns) = world.dns.indexed_view_and_pdns(world.graph.domains());
        let ctx = StudyCtx::new(
            &world.config.study,
            &world.graph,
            view,
            study_seed,
            mean_activity,
        );
        while next_user < n_users {
            let index = n_segments as u64;
            let end = (next_user + segment_users).min(n_users);
            killable(kill, &format!("chunk-{index}:begin"))?;
            let users =
                UserPopulation::generate_range(&pop_cfg, pop_seed, next_user as u32..end as u32);
            let chunk = ctx.simulate_users(&users, &inj, threads, pre_fault_offset);
            let t_cls = Instant::now();
            let cls = classifier.append_chunk(&chunk.requests, world.graph.domains());
            classify_ms += t_cls.elapsed().as_secs_f64() * 1e3;
            let labels_u8 = labels_to_bytes(&cls.labels);
            if let Some(store) = &mut store {
                // The columnar block exists only as the durable payload.
                let block = SegmentBlock::from_chunk(
                    &chunk,
                    &labels_u8,
                    cls.stage2_rounds as u32,
                    cls.stage3_rounds as u32,
                    (next_user as u32, end as u32),
                );
                let payload = encode_chunk_payload(&block, &mut classifier);
                store.append_chunk(index, next_user as u64, end as u64, &payload, kill)?;
            }
            killable(kill, &format!("chunk-{index}:committed"))?;
            for o in &chunk.observations {
                pdns.observe(world.graph.domains().domain(o.host), o.ip, o.time);
            }
            agg.absorb_segment(&chunk, &labels_u8, &users, next_user, world.graph.domains());
            report.absorb_counters(&chunk.report);
            stage2_depth = stage2_depth.max(cls.stage2_rounds.saturating_sub(1));
            stage3_rounds = stage3_rounds.max(cls.stage3_rounds);
            pre_fault_offset += chunk.report.requests_generated;
            next_user = end;
            n_segments += 1;
        }
    }
    killable(kill, "stage:study:done")?;
    report.timings.study_ms =
        t_ingest.elapsed().as_secs_f64() * 1e3 - (classify_ms - cls_ms_before_ingest);

    let (abp, semi) = classifier.counts();
    let stage2_rounds = 1 + stage2_depth;
    report.timings.classify_ms = classify_ms;
    killable(kill, "stage:classify:done")?;

    // Tracker completion — the stage-boundary checkpoint, shared format
    // with the streaming driver. The observed set was folded during
    // ingest; only the pDNS walk happens here.
    let t_stage = Instant::now();
    let durable_completion = match &store {
        Some(s) => s.load_stage("completion")?,
        None => None,
    };
    let (tracker_ips, completion) = match durable_completion {
        Some(payload) => {
            let (ips, stats, delta) = decode_completion_state(&payload)?;
            report.absorb_counters(&delta);
            (ips, stats)
        }
        None => {
            let mut tracker_ips = std::mem::take(&mut agg.tracker_ips);
            let mut delta = DegradationReport::default();
            let stats =
                tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), &inj, &mut delta);
            report.absorb_counters(&delta);
            if let Some(store) = &mut store {
                let payload = encode_completion_state(&tracker_ips, &stats, &delta);
                store.put_stage("completion", &payload, kill)?;
            }
            (tracker_ips, stats)
        }
    };
    report.timings.completion_ms = t_stage.elapsed().as_secs_f64() * 1e3;
    killable(kill, "stage:completion:done")?;

    let t_stage = Instant::now();
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate_providers(world, &mut rng, &tracker_ips, &inj, &mut report, threads);
    report.timings.geolocate_ms = t_stage.elapsed().as_secs_f64() * 1e3;
    killable(kill, "stage:geolocate:done")?;

    // The EU28 tally was counted during ingest, keyed by destination IP;
    // with estimates in hand it folds into the destination breakdown.
    let mut eu28 = DestBreakdown::default();
    eu28.absorb_eu28_tally(&agg.eu28_tally, &ipmap_estimates);
    report.eu28_confinement = eu28.share(Region::Eu28);
    report.timings.total_ms = t_total.elapsed().as_secs_f64() * 1e3;

    let stats = agg.stats(n_users);
    Ok((
        ScaleOutputs {
            n_segments,
            stats,
            visit_hash: agg.visit_hash,
            request_hash: agg.request_hash,
            abp,
            semi,
            stage2_rounds,
            stage3_rounds,
            tracker_ips,
            completion,
            ipmap_estimates,
            maxmind_estimates,
            ipapi_estimates,
            eu28,
        },
        report,
    ))
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
