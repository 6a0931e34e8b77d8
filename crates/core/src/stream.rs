//! Crash-safe streaming ingestion: the checkpointed incremental twin of
//! [`crate::pipeline::run_extension_pipeline_degraded`] (DESIGN.md §5g).
//!
//! The paper's study ran for 4.5 months; operated as a standing service
//! (the WhoTracks.Me model), ingestion must survive kills, torn writes and
//! restarts. The extension study is cut into append-only chunks of users,
//! each classified as it lands and, when a checkpoint directory is
//! configured, made durable through `xborder-checkpoint` before moving on.
//! A killed run re-opened on the same directory replays the durable chunks
//! from disk and continues from the first missing one.
//!
//! The loop itself (replay, ingest, the completion checkpoint and
//! geolocation) is the segment driver `crate::segment`, shared with
//! [`crate::worldscale`]. This module is its *materialize* sink: every
//! committed chunk stays resident as a columnar [`SegmentBlock`], the
//! optional rolling-snapshot accumulator absorbs it, and once ingest ends
//! the blocks reassemble into the batch pipeline's [`StudyOutputs`].
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

use crate::pipeline::StudyOutputs;
use crate::segment::{killable, labels_from_bytes, run_segments, Located, Segment, SegmentSink};
use crate::snapshots::{RollingSnapshot, SnapshotAccumulator};
use crate::worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use xborder_browser::{
    ExtensionDataset, LoggedRequest, Referrer, RequestId, SegmentBlock, StudyConfig, User,
    UserPopulation, Visit,
};
use xborder_checkpoint::CheckpointError;
use xborder_classify::ClassificationResult;
use xborder_faults::{stable_hash, DegradationReport, FaultPlan, KillSwitch, Profile};
use xborder_netsim::Infrastructure;
use xborder_webgraph::DomainTable;

/// How the streaming pipeline chunks and checkpoints.
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

/// The configuration fingerprint stored in the journal header: a stable hash of
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
        StreamError::Checkpoint(CheckpointError::Invalid {
            detail: format!("world config does not serialize: {e}"),
        })
    })?;
    let plan_json = serde_json::to_string(plan).map_err(|e| {
        StreamError::Checkpoint(CheckpointError::Invalid {
            detail: format!("fault plan does not serialize: {e}"),
        })
    })?;
    let mut h = stable_hash(cfg_json.as_bytes());
    h ^= stable_hash(plan_json.as_bytes()).rotate_left(17);
    Ok(h)
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
    let sink = Materialize {
        windows: stream_cfg.snapshot_windows,
        population: UserPopulation { users: Vec::new() },
        snapshots: None,
        segments: Vec::new(),
    };
    run_segments(
        world,
        plan,
        stream_cfg.chunk_users,
        stream_cfg.checkpoint_dir.as_deref(),
        kill,
        sink,
    )
}

/// The materialize sink: committed segments stay resident as columnar
/// blocks until ingest ends and they reassemble the global log.
struct Materialize {
    /// Rolling snapshot windows requested (`0` = none).
    windows: usize,
    population: UserPopulation,
    snapshots: Option<SnapshotAccumulator>,
    segments: Vec<SegmentBlock>,
}

/// The materialize sink once ingest has ended.
struct Materialized {
    dataset: ExtensionDataset,
    classification: ClassificationResult,
    snapshots: Vec<RollingSnapshot>,
}

impl SegmentSink for Materialize {
    type Output = StudyOutputs;
    type Study = Materialized;
    const KEEPS_BLOCKS: bool = true;

    fn draw_population(&mut self, study: &StudyConfig, rng: &mut StdRng) -> f64 {
        self.population = UserPopulation::generate(&study.population, rng);
        self.snapshots = (self.windows > 0)
            .then(|| SnapshotAccumulator::new(study.window, &self.population, self.windows));
        self.population.mean_activity()
    }

    fn users(&self, range: Range<usize>) -> Vec<User> {
        self.population.users[range].to_vec()
    }

    fn absorb(&mut self, segment: Segment<'_>, infra: &Infrastructure, profile: &mut Profile) {
        if let Some(acc) = &mut self.snapshots {
            profile.span("ingest/snapshot", |_| match &segment {
                Segment::Replayed(block) => {
                    // Snapshots absorb AoS rows; materialize this segment
                    // once, on the snapshot clock (nothing else needs it).
                    let (chunk, labels, _, _) = block.to_chunk();
                    acc.absorb_chunk(&chunk.visits, &chunk.requests, &labels, infra);
                }
                Segment::Ingested { chunk, labels, .. } => {
                    acc.absorb_chunk(&chunk.visits, &chunk.requests, labels, infra);
                }
            });
        }
        self.segments.push(match segment {
            Segment::Replayed(block) => block,
            Segment::Ingested { block, .. } => {
                block.expect("the driver builds a block for a sink that keeps them")
            }
        });
    }

    /// Emits every rolling snapshot whose window is fully covered now that
    /// `users_ingested` users are durable. Each emission is a kill site
    /// (`snapshot-{i}:emitted`): a crash immediately after publishing a
    /// snapshot is a scheduled scenario in the resume tests.
    fn committed(
        &mut self,
        users_ingested: usize,
        kill: &KillSwitch,
        profile: &mut Profile,
    ) -> Result<(), StreamError> {
        let Some(acc) = self.snapshots.as_mut() else {
            return Ok(());
        };
        while acc.due(users_ingested) {
            let i = profile.span("ingest/snapshot", |_| acc.emit_next());
            killable(kill, &format!("snapshot-{i}:emitted"))?;
        }
        Ok(())
    }

    /// Reassembles the global log in chunk (= user) order, exactly the
    /// batch merge. pDNS observations were absorbed as each chunk
    /// committed (or replayed), so this is pure concatenation.
    fn finish_study(
        self,
        mut classification: ClassificationResult,
        domains: &DomainTable,
    ) -> Result<Materialized, StreamError> {
        let n_requests: usize = self.segments.iter().map(SegmentBlock::n_requests).sum();
        let mut visits: Vec<Visit> = Vec::new();
        let mut requests: Vec<LoggedRequest> = Vec::new();
        for (i, block) in self.segments.into_iter().enumerate() {
            // Each block is freed once its rows have moved into the log.
            let (chunk, labels, _, _) = block.to_chunk();
            classification
                .labels
                .extend(labels_from_bytes(&format!("segment-{i:05}"), &labels)?);
            let offset = requests.len() as u32;
            // Grow by doubling, as `extend` would, but never past the whole
            // log: the last growth happens while unconverted blocks are
            // still resident, at the run's high-water mark.
            let need = requests.len() + chunk.requests.len();
            if need > requests.capacity() {
                let grown = (2 * requests.capacity()).clamp(need, n_requests.max(need));
                requests.reserve_exact(grown - requests.len());
            }
            visits.extend(chunk.visits);
            requests.extend(chunk.requests.into_iter().map(|mut r| {
                if let Referrer::Request(RequestId(p)) = r.referrer {
                    r.referrer = Referrer::Request(RequestId(p + offset));
                }
                r
            }));
        }
        // Same stable timestamp sort as the batch driver (the pre-sort
        // order — user-major, generation order within a user — is
        // identical).
        visits.sort_by_key(|v| v.time);
        Ok(Materialized {
            dataset: ExtensionDataset {
                users: self.population,
                visits,
                requests,
                domains: domains.clone(),
            },
            classification,
            snapshots: self
                .snapshots
                .map(SnapshotAccumulator::into_snapshots)
                .unwrap_or_default(),
        })
    }

    fn finish(study: Materialized, located: Located) -> StudyOutputs {
        StudyOutputs {
            dataset: study.dataset,
            classification: study.classification,
            easylist: located.easylist,
            easyprivacy: located.easyprivacy,
            tracker_ips: located.tracker_ips,
            completion: located.completion,
            ipmap_estimates: located.ipmap_estimates,
            maxmind_estimates: located.maxmind_estimates,
            ipapi_estimates: located.ipapi_estimates,
            snapshots: study.snapshots,
        }
    }
}

// The chunk and completion codecs of the checkpoint format are the segment
// driver's; these tests pin them through the streaming pipeline's module.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ips::{CompletionStats, IpInfo, TrackerIpSet};
    use crate::segment::{
        decode_chunk_payload, decode_completion_state, encode_completion_state, labels_to_bytes,
    };
    use std::collections::{HashMap, HashSet};
    use std::net::IpAddr;
    use xborder_browser::{StudyChunk, UserId, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI};
    use xborder_checkpoint::ByteWriter;
    use xborder_classify::Classification;
    use xborder_dns::PdnsIdObservation;
    use xborder_netsim::time::{SimTime, TimeWindow};
    use xborder_webgraph::url::{EncodedUrl, Scheme, UrlParts, UrlStyle};
    use xborder_webgraph::{Domain, DomainId, PublisherId};

    fn url(style: UrlStyle, path_idx: u8, service: u32) -> EncodedUrl {
        EncodedUrl::try_from(UrlParts {
            scheme: Scheme::Https,
            style,
            path_idx,
            event_idx: 0,
            service,
            cb: None,
        })
        .unwrap()
    }

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
                    url: url(UrlStyle::Args, 2, 1),
                    host: DomainId(3),
                    referrer: Referrer::FirstParty,
                    ip: "10.1.2.3".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(1),
                    time: SimTime(102),
                    first_party: DomainId(2),
                    publisher: PublisherId(9),
                    url: url(UrlStyle::Plain, 3, 0),
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
        let (back, cls) = decode_chunk_payload("journal.xbj#0", &payload).unwrap();
        assert_eq!(back, block);
        assert_eq!(cls, &[0xAB, 0xCD, 0xEF]);

        let mut with_trailer = payload.clone();
        with_trailer.push(0);
        let err = decode_chunk_payload("journal.xbj#0", &with_trailer).unwrap_err();
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
        let err = decode_chunk_payload("journal.xbj#0", &w.into_bytes()).unwrap_err();
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
        let err = decode_chunk_payload("journal.xbj#0", &w.into_bytes()).unwrap_err();
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
