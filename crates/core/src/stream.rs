//! Crash-safe streaming ingestion: the checkpointed incremental twin of
//! [`crate::pipeline::run_extension_pipeline_degraded`] (DESIGN.md §5g).
//!
//! The paper's study ran for 4.5 months; operated as a standing service
//! (the WhoTracks.Me model), ingestion must survive kills, torn writes and
//! restarts. This module cuts the extension study into append-only chunks
//! of users, classifies each chunk as it lands, and — when a checkpoint
//! directory is configured — makes every chunk durable through
//! `xborder-checkpoint` before moving on. A killed run re-opened on the
//! same directory replays the durable chunks from disk and continues from
//! the first missing one.
//!
//! ## The determinism contract, extended
//!
//! Chunk size, kill schedule and thread budget are all pure
//! performance/availability knobs: any chunking × any crash schedule ×
//! any budget produces the dataset, classification, tracker IP set,
//! estimates and degradation counters of the uninterrupted batch run, bit
//! for bit (`tests/streaming_resume.rs` pins this against the batch
//! fingerprint). The mechanisms:
//!
//! * **Per-user everything.** A user's simulation depends only on
//!   `(study_seed, user_id)` (DESIGN.md §5d), so any contiguous grouping
//!   of users reproduces the batch log after concatenation; cascade
//!   referrers never cross users, hence never chunks.
//! * **Offset-keyed log faults.** Post-hoc loss coins key on the *global
//!   pre-fault request index*; each chunk carries its offset into that
//!   sequence, so chunk-local fault application drops exactly the batch
//!   entries.
//! * **Delta-fixpoint classification.** An
//!   [`xborder_classify::IncrementalClassifier`] persists the URL/host
//!   interner, gate/keyword memos and distinct-count seen-bits across
//!   chunks, so each chunk's stage-1/2/3 labels fall out of a worklist
//!   seeded only by the chunk's frontier — and the Table-2 counts absorb
//!   per chunk, with **no** full-log rebuild at finalization. Sequential
//!   chunk order reproduces the batch first-occurrence interning order,
//!   so labels and counts are bit-identical (pinned in
//!   `crates/classify/src/incremental.rs` tests). Propagation-round
//!   telemetry reassembles as the max across chunks (disjoint BFS
//!   components). Each chunk blob carries the classifier's state *delta*
//!   for that chunk (new unique URLs/hosts plus sparse memo/seen-bit
//!   updates — O(unique values) total across the stream, not O(chunks ×
//!   state)); resume re-applies the deltas in order instead of
//!   re-deriving.
//! * **Ordered per-chunk side effects.** pDNS observations are buffered
//!   with the chunk (and checkpointed with it), then absorbed into the
//!   world's sensor as each chunk commits — chunk (= user) order, the
//!   batch replay order. The pDNS first/last-seen windows therefore
//!   advance with the sim clock as the stream runs, which is what lets
//!   rolling snapshots read a live view mid-stream.
//! * **Rolling window snapshots.** With [`StreamConfig::with_snapshots`],
//!   the study window splits into `K` equal sim-time windows and a
//!   cumulative [`crate::snapshots::RollingSnapshot`] is emitted as soon
//!   as every user a window covers is durable. Snapshot coverage is a
//!   pure function of the window boundary (see `crate::snapshots`), so
//!   each emitted snapshot equals the batch pipeline on the log truncated
//!   at that boundary, regardless of chunking, threads or kills
//!   (`tests/rolling_snapshots.rs`).
//! * **Resume replays, never re-randomizes.** A resuming run rebuilds the
//!   world, regenerates the population and re-draws `study_seed` from the
//!   same world RNG stream — leaving the RNG exactly where geolocation
//!   expects it — then loads chunk outputs from disk instead of
//!   simulating them.
//!
//! With no checkpoint directory the chunk loop runs the same arithmetic
//! minus the IO; with `chunk_users >= n_users` it is structurally the
//! batch pipeline.

use crate::ips::{CompletionStats, IpInfo, TrackerIpSet};
use crate::pipeline::{geolocate_providers, StudyOutputs};
use crate::snapshots::SnapshotAccumulator;
use crate::worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::IpAddr;
use std::path::PathBuf;
use std::time::Instant;
use xborder_browser::{
    ExtensionDataset, LoggedRequest, Referrer, RequestId, SegmentBlock, StudyStream,
    UserPopulation, Visit, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{
    ByteReader, ByteWriter, CheckpointError, CheckpointStore, DecodeError,
};
use xborder_classify::{
    generate_lists, Classification, ClassificationResult, ClassifierStages,
    IncrementalClassifier,
};
use xborder_faults::{
    stable_hash, DegradationReport, FaultInjector, FaultPlan, KillSwitch,
};
use xborder_geo::Region;
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_webgraph::{Domain, DomainTable};

/// How the streaming driver chunks and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Users per append-only chunk (clamped to ≥ 1). A pure availability
    /// knob: every value yields bit-identical outputs.
    pub chunk_users: usize,
    /// Where to write checkpoints; `None` disables durability (the chunk
    /// loop still runs, with zero IO).
    pub checkpoint_dir: Option<PathBuf>,
    /// Number of rolling report windows to emit during the stream; `0`
    /// disables them. A pure observability knob: snapshots never feed
    /// back into the pipeline outputs, and — like chunking — the value is
    /// excluded from the checkpoint fingerprint, so a resume may change
    /// it freely.
    pub snapshot_windows: usize,
}

impl StreamConfig {
    /// In-memory streaming: chunked execution, no checkpoints.
    pub fn in_memory(chunk_users: usize) -> StreamConfig {
        StreamConfig {
            chunk_users,
            checkpoint_dir: None,
            snapshot_windows: 0,
        }
    }

    /// Durable streaming: checkpoint every chunk and stage into `dir`.
    pub fn durable(chunk_users: usize, dir: impl Into<PathBuf>) -> StreamConfig {
        StreamConfig {
            chunk_users,
            checkpoint_dir: Some(dir.into()),
            snapshot_windows: 0,
        }
    }

    /// Emits `windows` cumulative rolling snapshots over the study window
    /// as ingestion progresses (DESIGN.md §5g).
    pub fn with_snapshots(mut self, windows: usize) -> StreamConfig {
        self.snapshot_windows = windows;
        self
    }
}

/// Why a streaming run stopped without producing outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A seeded kill point fired — the simulated crash. Resume by calling
    /// the driver again on the same checkpoint directory.
    Killed {
        /// Kill-site counter value at which the switch fired.
        site: u64,
        /// Label of the site that fired.
        label: String,
    },
    /// The checkpoint layer refused or failed (corrupt blob, version or
    /// seed mismatch, IO error).
    Checkpoint(CheckpointError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Killed { site, label } => {
                write!(f, "streaming run killed at site {site} ({label})")
            }
            StreamError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        match e {
            CheckpointError::Killed { site, label } => StreamError::Killed { site, label },
            other => StreamError::Checkpoint(other),
        }
    }
}

/// Fires a driver-level kill site, turning a hit into the typed error.
pub(crate) fn killable(kill: &KillSwitch, label: &str) -> Result<(), StreamError> {
    if kill.fire(label) {
        let site = kill.fired().map(|(s, _)| s).unwrap_or_default();
        return Err(StreamError::Killed { site, label: label.to_string() });
    }
    Ok(())
}

/// Emits every rolling snapshot whose window is fully covered now that
/// `users_ingested` users are durable. Each emission is a kill site
/// (`snapshot-{i}:emitted`): a crash immediately after publishing a
/// snapshot is a scheduled scenario in the resume tests.
fn emit_due_snapshots(
    acc: &mut Option<SnapshotAccumulator>,
    users_ingested: usize,
    kill: &KillSwitch,
    snapshot_ms: &mut f64,
) -> Result<(), StreamError> {
    let Some(acc) = acc.as_mut() else { return Ok(()) };
    while acc.due(users_ingested) {
        let t = Instant::now();
        let i = acc.emit_next();
        *snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
        killable(kill, &format!("snapshot-{i}:emitted"))?;
    }
    Ok(())
}

/// The configuration fingerprint stored in the manifest: a stable hash of
/// the world config and fault plan with the performance/availability knobs
/// canonicalised away (the thread budget never changes outputs, so a
/// checkpoint written at 8 threads legitimately resumes at 1 — while any
/// seed, scale or plan change is refused as [`CheckpointError::SeedMismatch`]).
///
/// Chunking is likewise excluded: it lives in [`StreamConfig`], not the
/// world config, so resuming with a different chunk size is legal too.
pub fn config_fingerprint(config: &WorldConfig, plan: &FaultPlan) -> Result<u64, StreamError> {
    let mut canonical = config.clone();
    canonical.parallelism = crate::par::Parallelism::sequential();
    let cfg_json = serde_json::to_string(&canonical).map_err(|e| {
        StreamError::Checkpoint(CheckpointError::ManifestInvalid {
            detail: format!("world config does not serialize: {e}"),
        })
    })?;
    let plan_json = serde_json::to_string(plan).map_err(|e| {
        StreamError::Checkpoint(CheckpointError::ManifestInvalid {
            detail: format!("fault plan does not serialize: {e}"),
        })
    })?;
    let mut h = stable_hash(cfg_json.as_bytes());
    h ^= stable_hash(plan_json.as_bytes()).rotate_left(17);
    Ok(h)
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

/// Runs the extension pipeline as checkpointed streaming ingestion.
///
/// Identical outputs to [`crate::pipeline::run_extension_pipeline_degraded`]
/// for every `(stream, kill schedule)` — see the module docs. On
/// [`StreamError::Killed`] the process is assumed dead; call again with
/// the same world seed and checkpoint directory to resume from the last
/// durable chunk. `kill` is the fault harness's crash trigger; pass
/// [`KillSwitch::none`] in production.
pub fn run_extension_pipeline_streaming(
    world: &mut World,
    plan: &FaultPlan,
    stream_cfg: &StreamConfig,
    kill: &KillSwitch,
) -> Result<(StudyOutputs, DegradationReport), StreamError> {
    let inj = FaultInjector::new(plan.clone());
    let mut report = DegradationReport::default();
    let threads = world.config.parallelism.threads.max(1);
    let t_total = Instant::now();

    // Open (and validate) the checkpoint directory before burning any
    // simulation time: a seed/version mismatch must refuse up front.
    let fingerprint = config_fingerprint(&world.config, plan)?;
    let mut store = match &stream_cfg.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, fingerprint)?),
        None => None,
    };

    // World-RNG draws mirror the batch pipeline exactly: one study-stream
    // draw, then population generation, then the study seed. Resume runs
    // repeat these draws (they are cheap and deterministic), which leaves
    // `rng` positioned where the geolocation stage expects it.
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let population = UserPopulation::generate(&world.config.study.population, &mut rng);
    let study_seed: u64 = rng.gen();
    let n_users = population.users.len();
    let chunk_users = stream_cfg.chunk_users.max(1);

    // Filter lists are a pure function of the web graph (no RNG); build
    // them once for the delta-fixpoint classifier. Constructing the
    // classifier compiles the rule engine (automaton, anchor buckets,
    // prefilter), so the compile cost books under classify time — the
    // batch path pays the same compile inside `classify_with_stages`.
    let (easylist, easyprivacy) = generate_lists(&world.graph);
    let stages = ClassifierStages::default();
    let t_compile = Instant::now();
    let mut classifier = IncrementalClassifier::new(&easylist, &easyprivacy, stages);
    let mut classify_ms = t_compile.elapsed().as_secs_f64() * 1e3;
    let mut snap_acc = (stream_cfg.snapshot_windows > 0).then(|| {
        SnapshotAccumulator::new(
            world.config.study.window,
            &population,
            stream_cfg.snapshot_windows,
        )
    });
    let mut snapshot_ms = 0.0f64;

    // Committed segments stay resident as columnar blocks until
    // finalization reassembles the global log from them.
    let mut segments: Vec<SegmentBlock> = Vec::new();
    let mut pre_fault_offset: u64 = 0;
    let mut next_user = 0usize;

    // Replay: every chunk the manifest says is durable is loaded and
    // validated instead of simulated. The loader never writes — a corrupt
    // chunk surfaces as a typed error with the directory untouched. Side
    // effects (pDNS absorption, snapshot accumulation) re-apply in chunk
    // order, and so do the classifier state deltas: applying them in
    // order reconstructs the exact live classifier, so the resumed run
    // continues without re-deriving it.
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
            if let Some(acc) = &mut snap_acc {
                // Snapshots absorb AoS rows; materialize this segment once.
                let (chunk, label_bytes, _, _) = block.to_chunk();
                let labels = labels_from_bytes(&entry.file, &label_bytes)?;
                let t = Instant::now();
                acc.absorb_chunk(&chunk.visits, &chunk.requests, &labels, &world.infra);
                snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
            }
            pre_fault_offset += block.counters().requests_generated;
            next_user = entry.user_end as usize;
            segments.push(block);
            emit_due_snapshots(&mut snap_acc, next_user, kill, &mut snapshot_ms)?;
        }
    }

    // Ingest the remaining users chunk by chunk. The view over the
    // world's DNS zones is read-only; the pDNS sensor is borrowed
    // mutably alongside it (disjoint fields) so each committed chunk's
    // buffered observations absorb immediately, in chunk order.
    let t_ingest = Instant::now();
    let snap_ms_before_ingest = snapshot_ms;
    let cls_ms_before_ingest = classify_ms;
    let users = {
        let (view, pdns) = world.dns.indexed_view_and_pdns(world.graph.domains());
        let stream = StudyStream::with_view(
            &world.config.study,
            &world.graph,
            view,
            population,
            study_seed,
        );
        let mut index = segments.len() as u64;
        while next_user < n_users {
            let end = (next_user + chunk_users).min(n_users);
            killable(kill, &format!("chunk-{index}:begin"))?;
            let chunk = stream.simulate_chunk(next_user..end, &inj, threads, pre_fault_offset);
            // Delta-fixpoint classification: only this chunk's frontier is
            // walked; interner/memo/count state persists across chunks.
            // Sequential absorption is label- and count-identical to the
            // batch pass (and trivially thread-invariant).
            let t_cls = Instant::now();
            let cls = classifier.append_chunk(&chunk.requests, world.graph.domains());
            classify_ms += t_cls.elapsed().as_secs_f64() * 1e3;
            // The AoS chunk condenses into its columnar twin; the AoS form
            // dies with this iteration, so resident memory during ingest
            // is one live chunk plus the committed columnar blocks.
            let block = SegmentBlock::from_chunk(
                &chunk,
                &labels_to_bytes(&cls.labels),
                cls.stage2_rounds as u32,
                cls.stage3_rounds as u32,
                (next_user as u32, end as u32),
            );
            if let Some(store) = &mut store {
                let payload = encode_chunk_payload(&block, &mut classifier);
                store.append_chunk(index, next_user as u64, end as u64, &payload, kill)?;
            }
            killable(kill, &format!("chunk-{index}:committed"))?;
            for o in &chunk.observations {
                pdns.observe(world.graph.domains().domain(o.host), o.ip, o.time);
            }
            if let Some(acc) = &mut snap_acc {
                let t = Instant::now();
                acc.absorb_chunk(&chunk.visits, &chunk.requests, &cls.labels, &world.infra);
                snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
            }
            pre_fault_offset += chunk.report.requests_generated;
            segments.push(block);
            next_user = end;
            emit_due_snapshots(&mut snap_acc, next_user, kill, &mut snapshot_ms)?;
            index += 1;
        }
        stream.into_users()
    };
    // Degenerate streams (zero users) never enter the loop; drain any
    // windows whose coverage is trivially complete.
    emit_due_snapshots(&mut snap_acc, next_user, kill, &mut snapshot_ms)?;
    killable(kill, "stage:study:done")?;

    // Finalize the study: reassemble the global log in chunk (= user)
    // order, exactly the batch merge. pDNS observations were already
    // absorbed as each chunk committed (or replayed), so finalization is
    // pure concatenation.
    let mut visits: Vec<Visit> = Vec::new();
    let mut requests: Vec<LoggedRequest> = Vec::new();
    let mut labels: Vec<Classification> = Vec::new();
    let mut stage2_depth = 0usize;
    let mut stage3_rounds = 0usize;
    for (i, block) in segments.into_iter().enumerate() {
        // Consume segments in append (= user) order; each block is freed
        // once its rows have moved into the global log.
        let (chunk, label_bytes, seg_stage2, seg_stage3) = block.to_chunk();
        labels.extend(labels_from_bytes(&format!("segment-{i:05}"), &label_bytes)?);
        report.absorb_counters(&chunk.report);
        let offset = requests.len() as u32;
        visits.extend(chunk.visits);
        requests.extend(chunk.requests.into_iter().map(|mut r| {
            if let Referrer::Request(RequestId(p)) = r.referrer {
                r.referrer = Referrer::Request(RequestId(p + offset));
            }
            r
        }));
        // Chunk propagation rounds are BFS depths over chunk-disjoint
        // component sets, so the batch depth is the max across chunks.
        stage2_depth = stage2_depth.max((seg_stage2 as usize).saturating_sub(1));
        stage3_rounds = stage3_rounds.max(seg_stage3 as usize);
    }
    // Same stable timestamp sort as the batch driver (the pre-sort order —
    // user-major, generation order within a user — is identical).
    visits.sort_by_key(|v| v.time);
    let dataset = ExtensionDataset {
        users,
        visits,
        requests,
        domains: world.graph.domains().clone(),
    };
    report.timings.study_ms = t_ingest.elapsed().as_secs_f64() * 1e3
        - (classify_ms - cls_ms_before_ingest)
        - (snapshot_ms - snap_ms_before_ingest);

    // Table-2 distinct counts absorbed chunk by chunk through the
    // classifier's persistent seen-bits — no full-log recount. The
    // running totals equal `method_counts` over the concatenated log
    // (pinned in the classify crate's incremental tests).
    let (abp, semi) = classifier.counts();
    let stage2_rounds = 1 + stage2_depth;
    let classification = ClassificationResult {
        labels,
        abp,
        semi,
        propagation_rounds: stage2_rounds + stage3_rounds,
        stage2_rounds,
        stage3_rounds,
    };
    report.timings.classify_ms = classify_ms;
    report.timings.snapshot_ms = snapshot_ms;
    killable(kill, "stage:classify:done")?;

    // Tracker IP set + pDNS completion — the stage-boundary checkpoint. A
    // resume that already has the completion blob loads it (with its
    // counter delta) instead of recomputing; both paths are bit-identical
    // because completion is a deterministic function of (labels, pDNS).
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
            let mut tracker_ips = TrackerIpSet::from_dataset(&dataset, &classification);
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

    // Geolocation — shared verbatim with the batch pipeline. Nothing
    // after this point is checkpointed: a crash here re-runs geolocation
    // deterministically from the durable completion state.
    let t_stage = Instant::now();
    let (ipmap_estimates, maxmind_estimates, ipapi_estimates) =
        geolocate_providers(world, &mut rng, &tracker_ips, &inj, &mut report, threads);
    report.timings.geolocate_ms = t_stage.elapsed().as_secs_f64() * 1e3;
    killable(kill, "stage:geolocate:done")?;

    // The classifier borrows the filter lists; it is fully consumed
    // (labels emitted, counts read) before the lists move into the output.
    drop(classifier);
    let out = StudyOutputs {
        dataset,
        classification,
        easylist,
        easyprivacy,
        tracker_ips,
        completion,
        ipmap_estimates,
        maxmind_estimates,
        ipapi_estimates,
        snapshots: snap_acc.map(SnapshotAccumulator::into_snapshots).unwrap_or_default(),
    };
    report.eu28_confinement =
        crate::confine::region_breakdown_eu28(&out, &out.ipmap_estimates).share(Region::Eu28);
    report.timings.total_ms = t_total.elapsed().as_secs_f64() * 1e3;
    Ok((out, report))
}

// ---------------------------------------------------------------------------
// Blob codecs. The checkpoint crate stores opaque bytes; the typed
// encodings live here, next to the domain types they serialize. Floats are
// stored as IEEE-754 bit patterns, so round trips are bit-exact.
// ---------------------------------------------------------------------------

pub(crate) fn corrupt(file: &str, e: DecodeError) -> StreamError {
    StreamError::Checkpoint(CheckpointError::Corrupt {
        path: PathBuf::from(file),
        detail: e.to_string(),
    })
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
/// blobs: chunk reports carry deltas, and `eu28_confinement`/timings are
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
pub(crate) fn encode_chunk_payload(
    block: &SegmentBlock,
    classifier: &mut IncrementalClassifier,
) -> Vec<u8> {
    let mut cw = ByteWriter::new();
    classifier.encode_delta(&mut cw);
    let cls = cw.into_bytes();
    let seg = block.encode_bytes();
    let mut w = ByteWriter::with_capacity(16 + seg.len() + cls.len());
    w.put_blob(&seg);
    w.put_blob(&cls);
    w.into_bytes()
}

/// Applies a replayed chunk's classifier delta (the second half of its
/// payload). The delta's running request total is the one count in it that
/// none of its own bytes back; the chunk's rows do, so the two must agree
/// before a resumed run sizes anything from that total.
pub(crate) fn apply_chunk_delta(
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
/// label byte is checked here, once for both drivers: downstream folds
/// treat any tag other than [`LABEL_CLEAN`] as tracking, so an unknown
/// tag must be refused as corruption rather than counted.
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

pub(crate) fn encode_completion_state(
    ips: &TrackerIpSet,
    stats: &CompletionStats,
    delta: &DegradationReport,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + ips.len() * 48);
    // Canonical order: sorted by IP, hosts sorted within each record. The
    // in-memory maps hash-order freely; the blob does not.
    let mut sorted: Vec<(&IpAddr, &IpInfo)> = ips.ips.iter().collect();
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
    w.put_usize(stats.n_observed);
    w.put_usize(stats.n_added);
    w.put_f64(stats.v4_share);
    w.put_f64(stats.added_v4_share);
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
    const FILE: &str = "stage-completion.xbc";
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
    use xborder_browser::{StudyChunk, UserId};
    use xborder_dns::PdnsIdObservation;
    use xborder_webgraph::{DomainId, PublisherId};

    fn sample_block() -> SegmentBlock {
        let report = DegradationReport {
            requests_generated: 3,
            requests_delivered: 2,
            dns_cache_hits: 7,
            ..Default::default()
        };
        let chunk = StudyChunk {
            visits: vec![Visit {
                user: UserId(1),
                publisher: PublisherId(9),
                time: SimTime(100),
            }],
            requests: vec![
                LoggedRequest {
                    user: UserId(1),
                    time: SimTime(101),
                    first_party: DomainId(2),
                    publisher: PublisherId(9),
                    url: "https://t.example/px?id=1".into(),
                    host: DomainId(3),
                    referrer: Referrer::FirstParty,
                    ip: "10.1.2.3".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(1),
                    time: SimTime(102),
                    first_party: DomainId(2),
                    publisher: PublisherId(9),
                    url: "https://u.example/js".into(),
                    host: DomainId(4),
                    referrer: Referrer::Request(RequestId(0)),
                    ip: "2001:db8::7".parse().unwrap(),
                },
            ],
            observations: vec![PdnsIdObservation {
                host: DomainId(3),
                ip: "10.1.2.3".parse().unwrap(),
                time: SimTime(101),
            }],
            report,
        };
        SegmentBlock::from_chunk(&chunk, &[LABEL_ABP, LABEL_SEMI], 1, 0, (0, 2))
    }

    #[test]
    fn labels_round_trip_and_reject_unknown_tags() {
        let labels = vec![
            Classification::AbpTracking,
            Classification::SemiTracking,
            Classification::Clean,
        ];
        let bytes = labels_to_bytes(&labels);
        assert_eq!(bytes, vec![LABEL_ABP, LABEL_SEMI, LABEL_CLEAN]);
        assert_eq!(labels_from_bytes("seg", &bytes).unwrap(), labels);
        let err = labels_from_bytes("seg", &[LABEL_ABP, 9]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn chunk_payload_framing_splits_sections() {
        // The classifier section is opaque at the framing layer; framing
        // must hand it back byte-exact and reject trailing garbage.
        let block = sample_block();
        let mut w = ByteWriter::new();
        w.put_blob(&block.encode_bytes());
        w.put_blob(&[0xAB, 0xCD, 0xEF]);
        let payload = w.into_bytes();
        let (back, cls) = decode_chunk_payload("chunk-00000.xbc", &payload).unwrap();
        assert_eq!(back, block);
        assert_eq!(cls, &[0xAB, 0xCD, 0xEF]);

        let mut with_trailer = payload.clone();
        with_trailer.push(0);
        let err = decode_chunk_payload("chunk-00000.xbc", &with_trailer).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_chunk_payload_is_typed_corruption() {
        // A torn segment blob inside valid framing must surface as typed
        // corruption, not a panic.
        let seg = sample_block().encode_bytes();
        let mut w = ByteWriter::new();
        w.put_blob(&seg[..seg.len() - 3]);
        w.put_blob(&[]);
        let err = decode_chunk_payload("chunk-00000.xbc", &w.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn unclassified_chunk_payload_is_rejected() {
        // The streaming format stores one label byte per request; a block
        // whose labels column is missing (or short) is corrupt.
        let (chunk, _, _, _) = sample_block().to_chunk();
        let unlabeled = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (0, 2));
        let mut w = ByteWriter::new();
        w.put_blob(&unlabeled.encode_bytes());
        w.put_blob(&[]);
        let err = decode_chunk_payload("chunk-00000.xbc", &w.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn completion_state_round_trips() {
        let mut ips = HashMap::new();
        let mut hosts = HashSet::new();
        hosts.insert(Domain::new("t.x.com"));
        hosts.insert(Domain::new("u.y.net"));
        ips.insert(
            "9.8.7.6".parse().unwrap(),
            IpInfo {
                requests: 12,
                hosts,
                window: TimeWindow::new(SimTime(5), SimTime(900)),
                from_pdns_only: false,
            },
        );
        let set = TrackerIpSet { ips };
        let stats = CompletionStats {
            n_observed: 1,
            n_added: 0,
            v4_share: 1.0,
            added_v4_share: 0.0,
        };
        let delta = DegradationReport {
            pdns_records_seen: 4,
            ..Default::default()
        };
        let bytes = encode_completion_state(&set, &stats, &delta);
        let (set2, stats2, delta2) = decode_completion_state(&bytes).unwrap();
        assert_eq!(set2.ips.len(), 1);
        let info = &set2.ips[&"9.8.7.6".parse::<IpAddr>().unwrap()];
        assert_eq!(info.requests, 12);
        assert_eq!(info.hosts.len(), 2);
        assert_eq!(info.window, TimeWindow::new(SimTime(5), SimTime(900)));
        assert_eq!(stats2, stats);
        assert_eq!(delta2, delta);
    }

    #[test]
    fn inflated_completion_counts_are_typed_corruption() {
        // A few dozen checksum-valid bytes must not reserve a table from
        // an unchecked count: both the IP-record count and a record's host
        // count are bounded by the bytes left.
        let delta = DegradationReport::default();
        let stats = CompletionStats {
            n_observed: 0,
            n_added: 0,
            v4_share: 0.0,
            added_v4_share: 0.0,
        };
        let empty = encode_completion_state(&TrackerIpSet::default(), &stats, &delta);
        let mut one = HashMap::new();
        one.insert(
            "9.8.7.6".parse().unwrap(),
            IpInfo {
                requests: 1,
                hosts: HashSet::new(),
                window: TimeWindow::new(SimTime(0), SimTime(1)),
                from_pdns_only: false,
            },
        );
        let single = encode_completion_state(&TrackerIpSet { ips: one }, &stats, &delta);
        // The record count leads the blob; a record's host count follows
        // its address (tag + 4 bytes) and request count.
        for (what, base, at) in [("ip records", &empty, 0), ("hosts", &single, 8 + 5 + 8)] {
            for inflated in [1u64 << 20, 1 << 40, u64::MAX] {
                let mut bad = base.clone();
                bad[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
                match decode_completion_state(&bad) {
                    Err(StreamError::Checkpoint(CheckpointError::Corrupt { detail, .. })) => {
                        assert!(
                            detail.contains("bytes left") || detail.contains("exceeds usize"),
                            "{what} = {inflated}: {detail}"
                        );
                    }
                    other => panic!("{what} = {inflated}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fingerprint_ignores_performance_knobs_only() {
        let base = WorldConfig::small(11);
        let plan = FaultPlan::none();
        let a = config_fingerprint(&base, &plan).unwrap();
        // Thread budget is canonicalised away.
        let b = config_fingerprint(&base.clone().with_threads(8), &plan).unwrap();
        assert_eq!(a, b);
        // A different world seed is a different run.
        let c = config_fingerprint(&WorldConfig::small(12), &plan).unwrap();
        assert_ne!(a, c);
        // A different fault plan is a different run.
        let d = config_fingerprint(&base, &FaultPlan::aggressive(11)).unwrap();
        assert_ne!(a, d);
    }
}
