//! The segment driver shared by the streaming and out-of-core pipelines
//! (DESIGN.md §5g, §5j).
//!
//! [`crate::stream`] and [`crate::worldscale`] run one loop, [`run_segments`],
//! and differ only in the [`SegmentSink`] each committed segment goes to.
//! The driver does, once for both:
//!
//! 1. open the checkpoint store under the config fingerprint, so a seed,
//!    scale or plan mismatch refuses before any simulation;
//! 2. the batch pipeline's world-RNG draws: the study stream, the
//!    population (drawn the sink's way), the study seed;
//! 3. replay every durable chunk: user-range check, payload decode,
//!    id checks (users, publishers, hosts), classifier delta, pDNS and
//!    counter absorption, the tracker fold;
//! 4. ingest the remaining users segment by segment: simulate, classify,
//!    persist when a store exists, observe pDNS, the tracker fold;
//! 5. the completion stage (loaded from its checkpoint, or completed from
//!    the folded tracker set and checkpointed), geolocation, and the EU28
//!    breakdown read from the fold's tally.
//!
//! The tracker fold (`crate::ips`) absorbs every committed segment, replayed
//! or ingested, while it is at hand, so neither sink keeps tracker state and
//! no driver sweeps its log again after geolocation.
//!
//! Every kill site outside the sink (`chunk-{i}:begin`,
//! `chunk-{i}:committed`, `stage:*:done` and the store's own) is the
//! driver's, so both pipelines crash and resume at the same labels.
//!
//! The typed blob codecs live here too: the checkpoint crate stores
//! opaque bytes, and these encodings sit next to the driver that writes
//! them. Floats are stored as IEEE-754 bit patterns, so round trips are
//! bit-exact.

use crate::confine::DestBreakdown;
use crate::ips::{eu28_users, CompletionStats, IpInfo, TrackerFold, TrackerIpSet};
use crate::pipeline::{geolocate_providers, EstimateMap};
use crate::stream::{config_fingerprint, StreamError};
use crate::worldgen::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use xborder_browser::{
    SegmentBlock, StudyChunk, StudyConfig, StudyCtx, User, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointStore, DecodeError};
use xborder_classify::{
    generate_lists, Classification, ClassificationResult, ClassifierStages, FilterList,
    IncrementalClassifier,
};
use xborder_faults::{DegradationReport, FaultInjector, FaultPlan, KillSwitch, Profile};
use xborder_geo::Region;
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_netsim::Infrastructure;
use xborder_webgraph::{Domain, DomainTable};

/// One committed segment, handed to the sink once, in user order.
pub(crate) enum Segment<'a> {
    /// A durable chunk replayed from the store, columnar only. Its labels
    /// and ids are already validated.
    Replayed(SegmentBlock),
    /// A segment this run simulated and classified.
    Ingested {
        /// The simulated rows (referrers segment-local).
        chunk: &'a StudyChunk,
        /// Per-request label tags.
        labels: &'a [u8],
        /// The columnar form, built when a store persisted the segment or
        /// the sink keeps blocks ([`SegmentSink::KEEPS_BLOCKS`]).
        block: Option<SegmentBlock>,
    },
}

/// What the driver's completion and geolocation stages produced.
pub(crate) struct Located {
    pub(crate) easylist: FilterList,
    pub(crate) easyprivacy: FilterList,
    pub(crate) n_segments: usize,
    pub(crate) tracker_ips: TrackerIpSet,
    pub(crate) completion: CompletionStats,
    pub(crate) ipmap_estimates: EstimateMap,
    pub(crate) maxmind_estimates: EstimateMap,
    pub(crate) ipapi_estimates: EstimateMap,
    /// Destination breakdown of EU28-origin tracking flows under IPmap.
    pub(crate) eu28: DestBreakdown,
}

/// What a pipeline does with the segments [`run_segments`] commits.
pub(crate) trait SegmentSink: Sized {
    /// The pipeline's outputs.
    type Output;
    /// The sink once ingest has ended.
    type Study;
    /// Ingest builds a columnar block for every segment, not only for the
    /// ones a store persists.
    const KEEPS_BLOCKS: bool;

    /// Draws the population from the world RNG, between the study-stream
    /// draw and the study seed, and returns its mean activity (the visit
    /// budget normalizes by it).
    fn draw_population(&mut self, study: &StudyConfig, rng: &mut StdRng) -> f64;

    /// The users `range` of the drawn population.
    fn users(&self, range: Range<usize>) -> Vec<User>;

    /// Absorbs one committed segment, booking any work of its own into
    /// `profile`.
    fn absorb(&mut self, segment: Segment<'_>, infra: &Infrastructure, profile: &mut Profile);

    /// Runs after every absorbed segment, and once after ingest, with the
    /// number of users now durable.
    fn committed(
        &mut self,
        _users_ingested: usize,
        _kill: &KillSwitch,
        _profile: &mut Profile,
    ) -> Result<(), StreamError> {
        Ok(())
    }

    /// Ends ingest. `classification` carries the run's Table-2 rows and
    /// fixpoint rounds; its labels are empty (the sink holds them).
    fn finish_study(
        self,
        classification: ClassificationResult,
        domains: &DomainTable,
    ) -> Result<Self::Study, StreamError>;

    /// Assembles the outputs.
    fn finish(study: Self::Study, located: Located) -> Self::Output;
}

/// Fires a driver-level kill site, turning a hit into the typed error.
pub(crate) fn killable(kill: &KillSwitch, label: &str) -> Result<(), StreamError> {
    if kill.fire(label) {
        let site = kill.fired().map(|(s, _)| s).unwrap_or_default();
        return Err(StreamError::Killed {
            site,
            label: label.to_string(),
        });
    }
    Ok(())
}

/// Runs the extension pipeline in segments of `segment_users` users,
/// checkpointed into `checkpoint_dir` when one is given, and hands every
/// committed segment to `sink`.
///
/// Chunk size, kill schedule and thread budget never change an output: a
/// killed run called again on the same directory replays the durable
/// chunks and continues from the first missing one.
///
/// The report's profile books the ingest loop as `study`, with the
/// classify, `ingest/checkpoint`, `ingest/pdns`, `fold` and sink spans
/// inside it booked to their own layers; outside those spans replay is
/// booked to no layer. `ingest/pdns` and `fold` book one call per segment,
/// replayed or ingested; `fold` also books materializing the tracker set
/// and the EU28 breakdown. `ingest/checkpoint` books one call per chunk
/// append and every journal byte this run wrote past the header, the
/// completion stage record included.
pub(crate) fn run_segments<S: SegmentSink>(
    world: &mut World,
    plan: &FaultPlan,
    segment_users: usize,
    checkpoint_dir: Option<&Path>,
    kill: &KillSwitch,
    mut sink: S,
) -> Result<(S::Output, DegradationReport), StreamError> {
    let inj = FaultInjector::new(plan.clone());
    let mut report = DegradationReport::default();
    let mut profile = Profile::default();
    let threads = world.config.parallelism.threads.max(1);

    // Open (and validate) the checkpoint directory before burning any
    // simulation time: a seed/version mismatch must refuse up front.
    let fingerprint = config_fingerprint(&world.config, plan)?;
    let mut store = match checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, fingerprint)?),
        None => None,
    };

    // World-RNG draws mirror the batch pipeline exactly: one study-stream
    // draw, then the population, then the study seed. Resume runs repeat
    // these draws (they are cheap and deterministic), which leaves `rng`
    // positioned where the geolocation stage expects it.
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let mean_activity = sink.draw_population(&world.config.study, &mut rng);
    let study_seed: u64 = rng.gen();
    let n_users = world.config.study.population.n_users;
    let segment_users = segment_users.max(1);
    let domains = world.graph.domains();

    // Filter lists are a pure function of the web graph (no RNG).
    // Constructing the classifier compiles the rule engine, so the compile
    // cost books under classify time, as it does in the batch pipeline.
    let (easylist, easyprivacy) = generate_lists(&world.graph);
    let mut classifier = profile.span("classify", |_| {
        IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default())
    });

    let mut n_segments = 0usize;
    // Segment propagation rounds are BFS depths over segment-disjoint
    // component sets, so the batch depth is the max across segments.
    let mut stage2_depth = 0usize;
    let mut stage3_rounds = 0usize;
    let mut pre_fault_offset: u64 = 0;
    let mut next_user = 0usize;
    let mut fold = TrackerFold::default();

    // Replay: every chunk the journal holds is loaded and
    // validated instead of simulated. The loader never writes: a corrupt
    // chunk surfaces as a typed error with the directory untouched. The
    // classifier deltas, pDNS observations and counters re-apply in chunk
    // order, which reconstructs the killed run's state exactly.
    if let Some(store) = &store {
        for entry in store.chunks().to_vec() {
            if entry.user_start != next_user as u64
                || entry.user_end < entry.user_start
                || entry.user_end > n_users as u64
            {
                return Err(CheckpointError::Invalid {
                    detail: format!(
                        "chunk {} covers users {}..{} but {} of {} users are accounted for",
                        entry.index, entry.user_start, entry.user_end, next_user, n_users
                    ),
                }
                .into());
            }
            let payload = store.load_chunk(&entry)?;
            let (block, cls_bytes) = decode_chunk_payload(&entry.file, &payload)?;
            // Sinks look users, publishers and hosts up by id: an id
            // outside the chunk's users or the world's tables is
            // corruption, not an index.
            block
                .check_ids(
                    entry.user_start..entry.user_end,
                    world.graph.publishers.len(),
                    domains.len(),
                    world.graph.services.len(),
                )
                .map_err(|e| corrupt(&entry.file, e))?;
            apply_chunk_delta(&mut classifier, &entry.file, cls_bytes, &block, domains)?;
            profile.span("ingest/pdns", |_| {
                world
                    .dns
                    .absorb_id_observations(&block.observations_vec(), domains)
            });
            let users = sink.users(next_user..entry.user_end as usize);
            profile.span("fold", |_| fold.absorb_block(&block, eu28_users(&users)));
            let counters = block.counters();
            report.absorb_counters(&counters);
            pre_fault_offset += counters.requests_generated;
            stage2_depth = stage2_depth.max((block.stage2_rounds as usize).saturating_sub(1));
            stage3_rounds = stage3_rounds.max(block.stage3_rounds as usize);
            sink.absorb(Segment::Replayed(block), &world.infra, &mut profile);
            next_user = entry.user_end as usize;
            n_segments += 1;
            sink.committed(next_user, kill, &mut profile)?;
        }
    }

    // Ingest the remaining users segment by segment. The view over the
    // world's DNS zones is read-only; the pDNS sensor is borrowed mutably
    // alongside it (disjoint fields) so each committed segment's buffered
    // observations absorb immediately, in segment order. Each iteration's
    // AoS chunk dies with it: what outlives it is the sink's business.
    let study = profile.span("study", |profile| -> Result<S::Study, StreamError> {
        let (view, pdns) = world.dns.indexed_view_and_pdns(domains);
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
            let users = sink.users(next_user..end);
            let chunk = ctx.simulate_users(&users, &inj, threads, pre_fault_offset);
            // Delta-fixpoint classification: only this segment's frontier
            // is walked; interner/memo/count state persists across
            // segments, so labels and counts equal the batch pass.
            let cls = profile.span("classify", |_| {
                classifier.append_chunk(&chunk.requests, domains)
            });
            let label_bytes = labels_to_bytes(&cls.labels);
            let block = (S::KEEPS_BLOCKS || store.is_some()).then(|| {
                SegmentBlock::from_chunk(
                    &chunk,
                    &label_bytes,
                    cls.stage2_rounds as u32,
                    cls.stage3_rounds as u32,
                    (next_user as u32, end as u32),
                )
            });
            if let (Some(store), Some(block)) = (&mut store, &block) {
                profile.span("ingest/checkpoint", |_| {
                    let payload = encode_chunk_payload(block, &mut classifier);
                    store.append_chunk(index, next_user as u64, end as u64, &payload, kill)
                })?;
                let written = store.chunks().last().map_or(0, |c| c.bytes);
                profile.layer_mut("ingest/checkpoint").bytes_written += written;
            }
            killable(kill, &format!("chunk-{index}:committed"))?;
            profile.span("ingest/pdns", |_| {
                for o in &chunk.observations {
                    pdns.observe(domains.domain(o.host), o.ip, o.time);
                }
            });
            profile.span("fold", |_| {
                let tracking = |i: usize| label_bytes[i] != LABEL_CLEAN;
                fold.absorb_requests(&chunk.requests, tracking, eu28_users(&users))
            });
            report.absorb_counters(&chunk.report);
            pre_fault_offset += chunk.report.requests_generated;
            stage2_depth = stage2_depth.max(cls.stage2_rounds.saturating_sub(1));
            stage3_rounds = stage3_rounds.max(cls.stage3_rounds);
            let segment = Segment::Ingested {
                chunk: &chunk,
                labels: &label_bytes,
                block,
            };
            sink.absorb(segment, &world.infra, profile);
            next_user = end;
            n_segments += 1;
            sink.committed(next_user, kill, profile)?;
        }
        // The read-only view dies here, before the sink reassembles its log.
        drop(ctx);
        // Degenerate streams (zero users) never enter the loop; the sink
        // still hears that ingest is complete.
        sink.committed(next_user, kill, profile)?;
        killable(kill, "stage:study:done")?;

        // Table-2 distinct counts absorbed segment by segment through the
        // classifier's persistent seen-bits: no full-log recount.
        let (abp, semi) = classifier.counts();
        let resident = classifier.resident_bytes();
        profile.layer_mut("classify").resident_bytes =
            (resident.state() + resident.chunk_scratch) as u64;
        drop(classifier);
        let stage2_rounds = 1 + stage2_depth;
        let classification = ClassificationResult {
            labels: Vec::new(),
            abp,
            semi,
            propagation_rounds: stage2_rounds + stage3_rounds,
            stage2_rounds,
            stage3_rounds,
        };
        sink.finish_study(classification, domains)
    })?;
    killable(kill, "stage:classify:done")?;

    // Tracker IP set + pDNS completion: the stage-boundary checkpoint. A
    // resume that already has the completion blob loads it (with its
    // counter delta) instead of recomputing; both paths are bit-identical
    // because completion is a deterministic function of (labels, pDNS).
    let (tracker_ips, completion) = profile.span("completion", |profile| {
        let durable_completion = match &store {
            Some(s) => s.load_stage("completion")?,
            None => None,
        };
        Ok::<_, StreamError>(match durable_completion {
            Some(payload) => {
                let (ips, stats, delta) = decode_completion_state(&payload)?;
                report.absorb_counters(&delta);
                (ips, stats)
            }
            None => {
                let mut tracker_ips = profile.span("fold", |_| fold.tracker_ips(domains));
                let mut delta = DegradationReport::default();
                let stats =
                    tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), &inj, &mut delta);
                report.absorb_counters(&delta);
                if let Some(store) = &mut store {
                    let payload = encode_completion_state(&tracker_ips, &stats, &delta);
                    let before = store.records_len();
                    store.put_stage("completion", &payload, kill)?;
                    // Every journal byte past the header is booked to
                    // `ingest/checkpoint`; its calls stay one per chunk.
                    profile.layer_mut("ingest/checkpoint").bytes_written +=
                        store.records_len() - before;
                }
                (tracker_ips, stats)
            }
        })
    })?;
    killable(kill, "stage:completion:done")?;

    // Geolocation, shared verbatim with the batch pipeline. Nothing after
    // this point is checkpointed: a crash here re-runs geolocation
    // deterministically from the durable completion state.
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) = profile.span("geolocate", |_| {
        geolocate_providers(world, &mut rng, &tracker_ips, &inj, &mut report, threads)
    });
    killable(kill, "stage:geolocate:done")?;
    let eu28 = profile.span("fold", |_| fold.eu28_breakdown(&ipmap_estimates));
    report.eu28_confinement = eu28.share(Region::Eu28);

    let located = Located {
        easylist,
        easyprivacy,
        n_segments,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        eu28,
    };
    let out = S::finish(study, located);
    report.profile = profile;
    Ok((out, report))
}

// ---------------------------------------------------------------------------
// Blob codecs.
// ---------------------------------------------------------------------------

pub(crate) fn corrupt(file: &str, e: DecodeError) -> StreamError {
    StreamError::Checkpoint(CheckpointError::Corrupt {
        path: PathBuf::from(file),
        detail: e.to_string(),
    })
}

/// Maps chunk labels onto the [`SegmentBlock`] tag bytes (the tag values
/// are part of the checkpoint format; `xborder_browser::colog` documents
/// them as matching this codec).
pub(crate) fn labels_to_bytes(labels: &[Classification]) -> Vec<u8> {
    labels
        .iter()
        .map(|l| match l {
            Classification::AbpTracking => LABEL_ABP,
            Classification::SemiTracking => LABEL_SEMI,
            Classification::Clean => LABEL_CLEAN,
        })
        .collect()
}

/// Reverses [`labels_to_bytes`]; an unknown tag is typed corruption (the
/// bytes may have come from a checkpoint blob).
pub(crate) fn labels_from_bytes(
    file: &str,
    bytes: &[u8],
) -> Result<Vec<Classification>, StreamError> {
    bytes.iter().map(|&b| label_from_byte(file, b)).collect()
}

fn label_from_byte(file: &str, b: u8) -> Result<Classification, StreamError> {
    match b {
        LABEL_ABP => Ok(Classification::AbpTracking),
        LABEL_SEMI => Ok(Classification::SemiTracking),
        LABEL_CLEAN => Ok(Classification::Clean),
        tag => Err(corrupt(
            file,
            DecodeError {
                offset: 0,
                detail: format!("unknown classification tag {tag}"),
            },
        )),
    }
}

pub(crate) fn put_ip(w: &mut ByteWriter, ip: IpAddr) {
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

fn read_ip(r: &mut ByteReader<'_>) -> Result<IpAddr, DecodeError> {
    match r.u8()? {
        4 => {
            let b = r.bytes(4)?;
            Ok(IpAddr::from([b[0], b[1], b[2], b[3]]))
        }
        6 => {
            let b = r.bytes(16)?;
            let mut o = [0u8; 16];
            o.copy_from_slice(b);
            Ok(IpAddr::from(o))
        }
        tag => Err(DecodeError {
            offset: 0,
            detail: format!("unknown IP tag {tag}"),
        }),
    }
}

/// The fixed counter order of the report codec
/// ([`DegradationReport::counter_values`]). Only counters travel in
/// blobs: chunk reports carry deltas, and `eu28_confinement`/the profile are
/// finalization-time observations that are never absorbed.
fn put_counters(w: &mut ByteWriter, r: &DegradationReport) {
    for v in r.counter_values() {
        w.put_u64(v);
    }
}

fn read_counters(rd: &mut ByteReader<'_>) -> Result<DegradationReport, DecodeError> {
    let mut values = [0u64; DegradationReport::N_COUNTERS];
    for slot in &mut values {
        *slot = rd.u64()?;
    }
    Ok(DegradationReport::from_counter_values(&values))
}

/// The durable chunk payload: two length-prefixed sections — the columnar
/// segment block, then the incremental-classifier *delta* for this chunk.
/// Encoding advances the classifier's delta baseline (the only caller
/// encodes each chunk exactly once, in order); replay applies every
/// durable chunk's delta in the same order to reconstruct the state.
fn encode_chunk_payload(block: &SegmentBlock, classifier: &mut IncrementalClassifier) -> Vec<u8> {
    let seg = block.encode_bytes();
    let mut w = ByteWriter::with_capacity(16 + seg.len());
    w.put_blob(&seg);
    drop(seg);
    // The block bytes are gone before the delta is encoded, in place
    // behind its back-patched length; the delta reserves its exact size,
    // so the payload grows once and is never held twice (without the
    // reservation, doubling slack raised a durable run's peak heap).
    w.put_blob_with(|w| classifier.encode_delta(w));
    w.into_bytes()
}

/// Applies a replayed chunk's classifier delta (the second half of its
/// payload). The delta's running request total is the one count in it that
/// none of its own bytes back; the chunk's rows do, so the two must agree
/// before a resumed run sizes anything from that total.
fn apply_chunk_delta(
    classifier: &mut IncrementalClassifier,
    file: &str,
    cls_bytes: &[u8],
    block: &SegmentBlock,
    domains: &DomainTable,
) -> Result<(), StreamError> {
    let expected = classifier.n_requests() + block.n_requests() as u64;
    let mut rd = ByteReader::new(cls_bytes);
    classifier
        .apply_delta(&mut rd, domains)
        .map_err(|e| corrupt(file, e))?;
    rd.finish().map_err(|e| corrupt(file, e))?;
    if classifier.n_requests() != expected {
        return Err(corrupt(
            file,
            DecodeError {
                offset: 0,
                detail: format!(
                    "delta request total {} does not match the {expected} requests replayed",
                    classifier.n_requests()
                ),
            },
        ));
    }
    Ok(())
}

/// Splits a chunk payload into its decoded segment block and the raw bytes
/// of the classifier delta section (applied by [`apply_chunk_delta`]). Every
/// label byte is checked here: sinks treat any tag other than
/// [`LABEL_CLEAN`] as tracking, so an unknown tag must be refused as
/// corruption rather than counted.
pub(crate) fn decode_chunk_payload<'p>(
    file: &str,
    payload: &'p [u8],
) -> Result<(SegmentBlock, &'p [u8]), StreamError> {
    let mut rd = ByteReader::new(payload);
    let seg = rd.blob().map_err(|e| corrupt(file, e))?;
    let cls = rd.blob().map_err(|e| corrupt(file, e))?;
    rd.finish().map_err(|e| corrupt(file, e))?;
    let block = SegmentBlock::decode_bytes(seg).map_err(|e| corrupt(file, e))?;
    // Durable chunks are always classified: one label byte per request.
    if block.labels().len() != block.n_requests() {
        return Err(corrupt(
            file,
            DecodeError {
                offset: 0,
                detail: format!(
                    "label count {} does not match request count {}",
                    block.labels().len(),
                    block.n_requests()
                ),
            },
        ));
    }
    for &b in block.labels() {
        label_from_byte(file, b)?;
    }
    Ok((block, cls))
}

/// Writes the tracker set in canonical order (sorted by IP, hosts sorted
/// within each record; the in-memory maps hash-order freely) followed by
/// the four completion stats. These are the bytes the completion
/// checkpoint stores and [`crate::worldscale::ScaleOutputs::fingerprint`]
/// hashes.
pub(crate) fn put_tracker_state(w: &mut ByteWriter, ips: &TrackerIpSet, stats: &CompletionStats) {
    let mut sorted: Vec<(&IpAddr, &IpInfo)> = ips.ips.iter().collect();
    sorted.sort_by_key(|(ip, _)| **ip);
    w.put_usize(sorted.len());
    for (ip, info) in sorted {
        put_ip(w, *ip);
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
    w.put_usize(stats.n_observed);
    w.put_usize(stats.n_added);
    w.put_f64(stats.v4_share);
    w.put_f64(stats.added_v4_share);
}

pub(crate) fn encode_completion_state(
    ips: &TrackerIpSet,
    stats: &CompletionStats,
    delta: &DegradationReport,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + ips.len() * 48);
    put_tracker_state(&mut w, ips, stats);
    put_counters(&mut w, delta);
    w.into_bytes()
}

/// Smallest encoded tracker-IP record of the completion stage: a v4
/// address (tag + 4), the request count, the host count, the window and
/// the pDNS flag. Each host adds at least its 8-byte length prefix.
const IP_RECORD_MIN: usize = 5 + 8 + 8 + 16 + 1;

pub(crate) fn decode_completion_state(
    payload: &[u8],
) -> Result<(TrackerIpSet, CompletionStats, DegradationReport), StreamError> {
    const FILE: &str = "journal.xbj#completion";
    let mut rd = ByteReader::new(payload);
    let inner = |rd: &mut ByteReader<'_>| -> Result<
        (TrackerIpSet, CompletionStats, DegradationReport),
        DecodeError,
    > {
        let n = rd.count(IP_RECORD_MIN)?;
        let mut ips: HashMap<IpAddr, IpInfo> = HashMap::with_capacity(n);
        for _ in 0..n {
            let ip = read_ip(rd)?;
            let requests = rd.u64()?;
            let n_hosts = rd.count(8)?;
            let mut hosts = HashSet::with_capacity(n_hosts);
            for _ in 0..n_hosts {
                hosts.insert(Domain::new(rd.str()?));
            }
            let window = TimeWindow::new(SimTime(rd.u64()?), SimTime(rd.u64()?));
            let from_pdns_only = rd.u8()? != 0;
            ips.insert(
                ip,
                IpInfo {
                    requests,
                    hosts,
                    window,
                    from_pdns_only,
                },
            );
        }
        let stats = CompletionStats {
            n_observed: rd.len_prefix()?,
            n_added: rd.len_prefix()?,
            v4_share: rd.f64()?,
            added_v4_share: rd.f64()?,
        };
        let delta = read_counters(rd)?;
        Ok((TrackerIpSet { ips }, stats, delta))
    };
    let out = inner(&mut rd).map_err(|e| corrupt(FILE, e))?;
    rd.finish().map_err(|e| corrupt(FILE, e))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{run_extension_pipeline_streaming, StreamConfig};
    use crate::worldgen::WorldConfig;
    use proptest::prelude::*;
    use xborder_checkpoint::ChunkEntry;

    /// A small world, its filter lists, and the genuine records of the
    /// first two chunks of a durable run over it.
    struct Fixture {
        world: World,
        lists: (FilterList, FilterList),
        chunks: Vec<(ChunkEntry, Vec<u8>)>,
    }

    fn fixture() -> Fixture {
        let mut cfg = WorldConfig::small(11);
        cfg.web.n_publishers = 60;
        cfg.web.n_adtech_orgs = 20;
        cfg.web.n_clean_orgs = 10;
        cfg.study.population.n_users = 6;
        cfg.study.visits_per_user_mean = 6.0;
        let plan = FaultPlan::none();
        let dir = tmp_dir("fixture");
        run_extension_pipeline_streaming(
            &mut World::build(cfg.clone()),
            &plan,
            &StreamConfig::durable(3, &dir),
            &KillSwitch::none(),
        )
        .expect("fixture run succeeds");
        let store = CheckpointStore::open(&dir, config_fingerprint(&cfg, &plan).unwrap()).unwrap();
        let chunks = store
            .chunks()
            .iter()
            .map(|e| (e.clone(), store.load_chunk(e).unwrap()))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        let world = World::build(cfg);
        let lists = generate_lists(&world.graph);
        Fixture {
            world,
            lists,
            chunks,
        }
    }

    thread_local! {
        static FIXTURE: Fixture = fixture();
    }

    /// A fresh directory per call: tests run on parallel threads.
    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xborder-segment-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The shared replay of one chunk record, as `run_segments` runs it:
    /// decode, id checks, classifier delta, then what the sinks and the
    /// pDNS absorption read first.
    fn replay(
        f: &Fixture,
        classifier: &mut IncrementalClassifier,
        entry: &ChunkEntry,
        payload: &[u8],
    ) -> Result<(), StreamError> {
        let domains = f.world.graph.domains();
        let (block, cls_bytes) = decode_chunk_payload(&entry.file, payload)?;
        block
            .check_ids(
                entry.user_start..entry.user_end,
                f.world.graph.publishers.len(),
                domains.len(),
                f.world.graph.services.len(),
            )
            .map_err(|e| corrupt(&entry.file, e))?;
        apply_chunk_delta(classifier, &entry.file, cls_bytes, &block, domains)?;
        block.observations_vec();
        block.counters();
        classifier.counts();
        Ok(())
    }

    /// Re-seals `mutated` as chunk 1 of a fresh journal through
    /// `append_chunk`, so its frame checksum is valid, then replays chunk 0
    /// and the re-sealed chunk 1 from that journal.
    fn reseal_and_replay(f: &Fixture, mutated: &[u8]) -> Result<(), StreamError> {
        let dir = tmp_dir("reseal");
        let none = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        for (i, (entry, payload)) in f.chunks[..2].iter().enumerate() {
            let payload = if i == 1 { mutated } else { &payload[..] };
            store
                .append_chunk(
                    entry.index,
                    entry.user_start,
                    entry.user_end,
                    payload,
                    &none,
                )
                .unwrap();
        }
        let store = CheckpointStore::open(&dir, 1).unwrap();
        let (easylist, easyprivacy) = &f.lists;
        let mut classifier =
            IncrementalClassifier::new(easylist, easyprivacy, ClassifierStages::default());
        let mut result = Ok(());
        for entry in store.chunks() {
            let payload = store.load_chunk(entry).expect("a re-sealed record loads");
            result = replay(f, &mut classifier, entry, &payload);
            if result.is_err() {
                assert_eq!(entry.index, 1, "the genuine chunk 0 replays");
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    /// The replay's contract on checksum-valid bytes: `Ok` or typed
    /// corruption, never a panic and never another error.
    fn assert_ok_or_corrupt(result: Result<(), StreamError>, what: &str) {
        assert!(
            matches!(
                result,
                Ok(()) | Err(StreamError::Checkpoint(CheckpointError::Corrupt { .. }))
            ),
            "{what}: {result:?}"
        );
    }

    /// Where a classifier delta's new-URL entries start and how many bytes
    /// they take: past four header counts, 5 bytes a new host and the
    /// new-URL count, each entry is 15 bytes plus 8 when its shape byte
    /// flags a cache buster.
    fn delta_url_entries(delta: &[u8]) -> (usize, usize) {
        let mut rd = ByteReader::new(delta);
        let n_new_hosts = (0..4).map(|_| rd.u64().unwrap()).last().unwrap() as usize;
        rd.bytes(5 * n_new_hosts).unwrap();
        let n_new_urls = rd.u64().unwrap();
        let at = delta.len() - rd.remaining();
        for _ in 0..n_new_urls {
            let entry = rd.bytes(15).unwrap();
            if entry[5] & xborder_webgraph::url::URL_CB != 0 {
                rd.bytes(8).unwrap();
            }
        }
        (at, delta.len() - rd.remaining() - at)
    }

    #[test]
    fn chunk_payload_is_the_two_step_encoding() {
        // The block blob, then the delta encoded in place behind its
        // back-patched length: the same bytes as encoding the delta apart
        // and copying both blobs in, and as the durable run's chunk 0.
        FIXTURE.with(|f| {
            let (easylist, easyprivacy) = &f.lists;
            let domains = f.world.graph.domains();
            let (block, _) = decode_chunk_payload("chunk-0", &f.chunks[0].1).unwrap();
            let requests = block.to_chunk().0.requests;
            let fresh = || {
                let mut c =
                    IncrementalClassifier::new(easylist, easyprivacy, ClassifierStages::default());
                c.append_chunk(&requests, domains);
                c
            };
            let in_place = encode_chunk_payload(&block, &mut fresh());
            let mut cw = ByteWriter::new();
            fresh().encode_delta(&mut cw);
            let mut w = ByteWriter::new();
            w.put_blob(&block.encode_bytes());
            w.put_blob(&cw.into_bytes());
            assert_eq!(in_place, w.into_bytes());
            assert_eq!(in_place, f.chunks[0].1);
        });
    }

    #[test]
    fn genuine_chunks_replay() {
        FIXTURE.with(|f| {
            assert!(f.chunks.len() >= 2, "the fixture run writes two chunks");
            reseal_and_replay(f, &f.chunks[1].1).expect("a genuine chunk 1 replays");
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A genuine chunk payload damaged by bit flips, a truncation or a
        /// byte-range overwrite — aimed at the whole payload, at its
        /// classifier-delta section, at the block's URL columns or at the
        /// delta's new-URL entries — and re-sealed with a valid frame
        /// checksum replays to `Ok` or typed corruption, never a panic.
        #[test]
        fn resealed_mutated_chunks_replay_or_refuse_typed(
            mutation in 0u8..3,
            target in 0u8..4,
            at in any::<u64>(),
            fill in any::<u64>(),
        ) {
            FIXTURE.with(|f| {
                let genuine = &f.chunks[1].1;
                let mut rd = ByteReader::new(genuine);
                let seg = rd.blob().unwrap();
                let delta_len = rd.blob().unwrap().len();
                let (lo, span) = match target {
                    0 => (0, genuine.len()),
                    1 => (genuine.len() - delta_len, delta_len),
                    2 => {
                        // The URL columns follow the 72-byte header, the
                        // counters, the visit columns (16 bytes a row) and
                        // six request columns (28 bytes a row); they hold
                        // 6 bytes a row and 8 per cache buster.
                        let block = SegmentBlock::decode_bytes(seg).unwrap();
                        let (nv, nr) = (block.n_visits(), block.n_requests());
                        let n_cb = block.to_chunk().0.requests.iter()
                            .filter(|r| r.url.parts().cb.is_some())
                            .count();
                        let seg_at = seg.as_ptr() as usize - genuine.as_ptr() as usize;
                        let shape_at = 72 + 8 * DegradationReport::N_COUNTERS + 16 * nv + 28 * nr;
                        (seg_at + shape_at, 6 * nr + 8 * n_cb)
                    }
                    _ => {
                        let delta_at = genuine.len() - delta_len;
                        let (at, len) = delta_url_entries(&genuine[delta_at..]);
                        assert!(len > 0, "chunk 1 interns new URLs");
                        (delta_at + at, len)
                    }
                };
                let pos = |salt: u32| lo + (at.rotate_left(salt) % span as u64) as usize;
                let mut mutated = genuine.clone();
                match mutation {
                    0 => {
                        for k in 0..1 + fill % 4 {
                            let p = pos(16 * k as u32);
                            mutated[p] ^= 1 << (fill.rotate_left(8 * k as u32) % 8);
                        }
                    }
                    1 => mutated.truncate(pos(0)),
                    _ => {
                        let start = pos(0);
                        let end = (start + 1 + (fill % 16) as usize).min(genuine.len());
                        for (i, b) in mutated[start..end].iter_mut().enumerate() {
                            *b = fill.rotate_left(8 * i as u32) as u8;
                        }
                    }
                }
                let what = format!("mutation {mutation}, target {target}, at {at}, fill {fill}");
                assert_ok_or_corrupt(reseal_and_replay(f, &mutated), &what);
            });
        }
    }
}
