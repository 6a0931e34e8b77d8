//! The workloads: inputs built from the seed, a closed loop of timed pipeline
//! calls, the output checks, and the metrics one run reports.

use crate::alloc;
use crate::rebuild::{self, Summary};
use crate::stats;
use crate::trace::{Profile, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xborder::confine::region_breakdown_eu28;
use xborder::pipeline::run_extension_pipeline_degraded;
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig};
use xborder::worldscale::{dataset_digests, run_worldscale_pipeline, ScaleConfig};
use xborder::{StudyOutputs, World, WorldConfig};
use xborder_faults::{derive_stream_seed, FaultPlan, KillSwitch};
use xborder_geo::CountryCode;
use xborder_netflow::{
    generate_and_match_sharded, FlowBlock, FlowCollector, SyntheticConfig, SyntheticFlowGen,
    TrackerIntervalSet,
};
use xborder_netsim::{SimTime, TimeWindow};

/// Config seed of the world every pipeline workload runs on: the
/// paper-reference `small(11)` world that the repository's goldens pin.
pub const REFERENCE_WORLD: u64 = 11;
/// Seed of the `bench_netflow` bin's tracker list. With the default flow
/// seed it makes the reference NetFlow inputs, the same as that bin's 10^6
/// record run.
const REFERENCE_LIST: u64 = 0x7EAC;
/// Flow records per NetFlow call. Short calls let the speed reference taken
/// between them track the host's speed during each call: on the 2-vCPU
/// host, under contention, eight seeds' quartile spread was 9.8 % with 10^8
/// records per call, 7.1 % with 10^7 and 0.95 % with 10^6.
const FLOW_RECORDS: u64 = 1_000_000;
/// Studies per run: study 0 is the reference input (the reference world's
/// own population, or the reference NetFlow inputs), the same for every
/// seed; study 1 is drawn from the run's seed.
pub const STUDIES: usize = 2;
/// Users per durable chunk in the streaming workloads.
pub const CHUNK_USERS: usize = 5;
/// Input constructions whose median is `setup_s`: at least this many, and
/// more until `SETUP_SECONDS` have passed, so that a sub-millisecond
/// construction (NetFlow's) still gives a steady median.
pub const SETUP_REPS: usize = 11;
const SETUP_SECONDS: f64 = 0.5;
/// Users in the worldscale workload's world. Each call's time varies about
/// 8 % around the speed reference's prediction, mostly independently from
/// call to call, so a run's median steadies with the calls it makes: on
/// the 2-vCPU host, ten seeds' quartile spread of `iter_ms` was 6.1 % at
/// 5,000 users (about 5 calls per study in 20 s), 4.2 % at 2,000 (15) and
/// 3.0 % at 1,000 (33).
const WORLDSCALE_USERS: usize = 2_000;
/// Users in the worldscale-vs-batch equality check.
const CROSS_CHECK_USERS: usize = 2_000;
/// Addresses in the NetFlow tracker list.
const TRACKER_ADDRESSES: usize = 4096;
/// Milliseconds `speed_reference` takes on the 2-vCPU Xeon host the bounds
/// were set on; every reported time is scaled to this speed.
const REFERENCE_MS: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    StreamIngest,
    StreamReplay,
    Worldscale,
    Netflow,
}

impl Kind {
    /// How far the workload's calls slow when `speed_reference` slows, as
    /// an exponent: a call is scaled by `(REFERENCE_MS / reference)` raised
    /// to it. Fitted on the 2-vCPU host from the call and reference times
    /// of ten-seed series: the replay's file reads slow about half as much
    /// as the reference (per-call log-log slopes 0.46-0.55; 0.5 and 0.7
    /// fitted best in two series hours apart), and worldscale's calls, of
    /// 0.6 s at 2,000 users, outlast the reference samples around them,
    /// which dilutes the fit to 0.65-0.8. NetFlow's calls slow more than the reference under
    /// heavy contention (run-to-run slopes 1.2-1.3 in three two-set
    /// self-checks of 10^6-record calls), and batch-small's a little more
    /// (1.1 gave the narrowest quartile spreads and the smallest set-to-set
    /// shifts in each of four two-set self-checks). stream-ingest slows as
    /// much as the reference.
    fn sensitivity(self) -> f64 {
        match self {
            Kind::StreamReplay => 0.6,
            Kind::Worldscale => 0.8,
            Kind::StreamIngest => 1.0,
            Kind::Batch => 1.1,
            Kind::Netflow => 1.2,
        }
    }
}

pub const WORKLOADS: [(&str, Kind); 5] = [
    ("batch-small", Kind::Batch),
    ("stream-ingest", Kind::StreamIngest),
    ("stream-replay", Kind::StreamReplay),
    ("worldscale-2k", Kind::Worldscale),
    ("netflow-1e6", Kind::Netflow),
];

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Population of the worldscale world.
    pub users: usize,
}

/// One run's verdict and numbers.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Setup or reference checks that failed (no iteration to blame).
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// One timed pipeline call and what it produced.
struct Iter {
    ms: f64,
    /// Mean of `speed_reference` just before and just after the call.
    reference_ms: f64,
    summary: Summary,
    /// `ScaleOutputs::fingerprint` for worldscale, the summary digest
    /// otherwise.
    fingerprint: u64,
    /// Bytes in the checkpoint directory afterwards (streaming only).
    dir_bytes: u64,
}

/// The NetFlow workload's inputs.
struct Flows {
    list: Vec<(Ipv4Addr, Option<TimeWindow>)>,
    set: TrackerIntervalSet,
    gen: SyntheticFlowGen,
}

impl Flows {
    /// The `bench_netflow` bin's tracker list, drawn from `list_seed`: 4096
    /// addresses in runs of 1-8 (co-hosted endpoints), validity windows on
    /// half the runs with staggered edges so the window check has work; and
    /// a flow stream of `FLOW_RECORDS` drawn from `flow_seed`.
    fn new(list_seed: u64, flow_seed: u64) -> Flows {
        let mut rng = StdRng::seed_from_u64(list_seed);
        let mut list = Vec::new();
        while list.len() < TRACKER_ADDRESSES {
            let base: u32 = rng.gen_range(0x0B00_0000..0xDF00_0000);
            let run = rng.gen_range(1..=8u32);
            let windowed = rng.gen_bool(0.5);
            for k in 0..run {
                let edge = u64::from(k) * 500;
                let window = windowed
                    .then(|| TimeWindow::new(SimTime(1_000 + edge), SimTime(80_000 - edge)));
                list.push((Ipv4Addr::from(base.wrapping_add(k)), window));
            }
        }
        let set = TrackerIntervalSet::build(list.iter().copied());
        let cfg = SyntheticConfig {
            seed: flow_seed,
            n_records: FLOW_RECORDS,
            ..SyntheticConfig::default()
        };
        let gen = SyntheticFlowGen::new(cfg, list.iter().map(|(ip, _)| *ip));
        Flows { list, set, gen }
    }
}

impl Workload {
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let &(_, kind) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
        Some(Workload {
            kind,
            seed,
            users: WORLDSCALE_USERS,
        })
    }

    fn config(&self) -> WorldConfig {
        match self.kind {
            Kind::Worldscale => WorldConfig::large(REFERENCE_WORLD, self.users),
            _ => WorldConfig::small(REFERENCE_WORLD),
        }
        .with_threads(1)
    }

    /// A fresh world for study `k`: every pipeline consumes the world's
    /// study stream and feeds its pDNS sensor, so no world is reused.
    fn world(&self, config: WorldConfig, k: usize) -> World {
        let mut world = World::build(config);
        if k > 0 {
            world.study_rng = StdRng::seed_from_u64(derive_stream_seed(self.seed, k as u64));
        }
        world
    }

    fn segment_users(&self) -> usize {
        (self.users / 10).max(1)
    }

    /// A call's `ms` at the speed where `speed_reference` takes
    /// `REFERENCE_MS`, given the reference time around the call.
    fn scaled(&self, ms: f64, reference_ms: f64) -> f64 {
        ms * (REFERENCE_MS / reference_ms).powf(self.kind.sensitivity())
    }

    /// Runs the workload for `seconds`. With `traced`, each pipeline call
    /// is followed by a traced rebuild of the same study, so both are timed
    /// at the same host speed; otherwise the rebuild runs once, untraced, as
    /// an output check.
    pub fn run(&self, seconds: f64, traced: bool) -> Outcome {
        let root = PathBuf::from(".xbench_scratch");
        let scratch = root.join(std::process::id().to_string());
        let mut out = Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(traced),
        };
        if let Err(e) = std::fs::create_dir_all(&scratch) {
            out.errors
                .push(format!("cannot create {}: {e}", scratch.display()));
        } else if let Err(e) = self.run_in(&scratch, seconds, traced, &mut out) {
            out.errors.push(e);
        }
        let _ = std::fs::remove_dir_all(&scratch);
        let _ = std::fs::remove_dir(&root);
        out
    }

    fn run_in(
        &self,
        scratch: &Path,
        seconds: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let (flows, setup_s, build_s) = self.setup(scratch)?;
        let expected = self.references(&flows)?;

        // Closed loop: each call starts when the previous one returned.
        let budget = Duration::from_secs_f64(seconds);
        let mut iters: Vec<Vec<Iter>> = (0..STUDIES).map(|_| Vec::new()).collect();
        // (study, run id, wall ms, scaled ms) of each correct traced rebuild
        let mut runs: Vec<(usize, u32, f64, f64)> = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        let mut peak_mib = f64::NAN;
        let mut heap_base = 0;
        // Each call's speed reference is the mean of the samples taken just
        // before and just after it.
        let mut reference_ms = speed_reference();
        while i < STUDIES || start.elapsed() < budget {
            let k = i % STUDIES;
            i += 1;
            out.attempted += 1;
            // The first call measures how far the heap rises above its level
            // at the call's start. It is the reference study's, whose inputs
            // no seed changes, so the figure repeats from run to run and seed
            // to seed.
            if i == 1 {
                heap_base = alloc::reset_peak();
            }
            let called = self.drive(k, scratch, &flows);
            if i == 1 {
                peak_mib = (alloc::peak_bytes() - heap_base) as f64 / (1u64 << 20) as f64;
            }
            let before = reference_ms;
            reference_ms = speed_reference();
            let checked = called.and_then(|mut it| {
                it.reference_ms = (before + reference_ms) / 2.0;
                let want = iters[k]
                    .first()
                    .map(|f| (&f.summary, f.fingerprint, f.dir_bytes));
                match (want, &expected[k]) {
                    (Some(w), _) if w != (&it.summary, it.fingerprint, it.dir_bytes) => {
                        Err(format!("study {k}: output differs from the first call"))
                    }
                    (_, Some(e)) if *e != it.summary => {
                        Err(format!("study {k}: output differs from the batch pipeline"))
                    }
                    _ => Ok(it),
                }
            });
            match checked {
                Ok(it) => iters[k].push(it),
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("FAIL call {i}: {e}"));
                }
            }
            if let (true, Some(first)) = (traced, iters[k].first()) {
                let want = first.summary.clone();
                runs.extend(self.checked_rebuild(
                    k,
                    scratch,
                    &flows,
                    &want,
                    &mut reference_ms,
                    out,
                ));
            }
        }
        if iters.iter().any(Vec::is_empty) {
            return Err("no call succeeded for some study".into());
        }
        if !traced {
            let want = iters[0][0].summary.clone();
            self.checked_rebuild(0, scratch, &flows, &want, &mut reference_ms, out);
        }

        let scaled = |v: &[Iter]| -> Vec<f64> {
            v.iter()
                .map(|it| self.scaled(it.ms, it.reference_ms))
                .collect()
        };
        let call_ms: Vec<(usize, f64)> = iters
            .iter()
            .enumerate()
            .flat_map(|(k, v)| scaled(v).into_iter().map(move |ms| (k, ms)))
            .collect();
        let iter_ms = per_study_mean(&call_ms);
        for (k, v) in iters.iter().enumerate() {
            let raw: Vec<f64> = v.iter().map(|it| it.ms).collect();
            let reference: Vec<f64> = v.iter().map(|it| it.reference_ms).collect();
            out.notes.push(format!(
                "study {k}: {} rows, {} calls, wall p50 {:.3} ms p90 {:.3} ms, \
                 speed reference p50 {:.3} ms, scaled p50 {:.3} ms",
                v[0].summary.rows,
                raw.len(),
                stats::median(&raw),
                stats::percentile(&raw, 0.9),
                stats::median(&reference),
                stats::median(&scaled(v)),
            ));
        }
        if traced {
            // NetFlow builds no world.
            let build_ms = if build_s.is_empty() {
                0.0
            } else {
                stats::median(&build_s) * 1e3
            };
            out.metrics = per_layer(&out.tracer, &runs, iter_ms, build_ms);
        } else {
            // Rows per second over the studies: their rows over the sum of
            // their median call times.
            let rows: f64 = iters.iter().map(|v| v[0].summary.rows as f64).sum();
            let secs: f64 = iters.iter().map(|v| stats::median(&scaled(v)) / 1e3).sum();
            out.metrics = vec![
                ("setup_s", stats::median(&setup_s)),
                ("iter_ms", iter_ms),
                ("rows_per_s", rows / secs),
                ("peak_heap_mib", peak_mib),
            ];
        }
        Ok(())
    }

    /// One rebuild of study `k` from the layers' public calls, which must
    /// reproduce `want`, the pipeline's outputs. `reference_ms` is the speed
    /// sample taken just before; it is replaced by one taken just after.
    /// Returns `(study, run id, wall ms, scaled ms)` of a correct rebuild.
    fn checked_rebuild(
        &self,
        k: usize,
        scratch: &Path,
        flows: &[Flows],
        want: &Summary,
        reference_ms: &mut f64,
        out: &mut Outcome,
    ) -> Option<(usize, u32, f64, f64)> {
        out.attempted += 1;
        let rebuilt = self.rebuild(k, scratch, flows, &mut out.tracer);
        let before = *reference_ms;
        *reference_ms = speed_reference();
        let fail = match rebuilt {
            Ok((run, ms, summary)) if summary == *want => {
                let scaled = self.scaled(ms, (before + *reference_ms) / 2.0);
                return Some((k, run, ms, scaled));
            }
            Ok(_) => "outputs differ from the pipeline's".to_string(),
            Err(e) => e,
        };
        out.failed += 1;
        out.notes.push(format!("FAIL rebuild of study {k}: {fail}"));
        None
    }

    /// Builds the inputs repeatedly (`SETUP_REPS`, `SETUP_SECONDS`),
    /// cycling through the studies, and returns each study's NetFlow inputs
    /// (none for the pipelines) with each construction's seconds and each
    /// world build's seconds, all scaled. The replay workload's input is the
    /// durable directory a cold ingest leaves behind.
    #[allow(clippy::type_complexity)]
    fn setup(&self, scratch: &Path) -> Result<(Vec<Flows>, Vec<f64>, Vec<f64>), String> {
        let mut setup_s = Vec::new();
        let mut build_s = Vec::new();
        let mut flows = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        let mut reference_ms = speed_reference();
        while i < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            let k = i % STUDIES;
            i += 1;
            let t = Instant::now();
            // Each block reads the clock before its inputs are dropped.
            let (secs, build) = if self.kind == Kind::Netflow {
                let built = if k == 0 {
                    Flows::new(REFERENCE_LIST, SyntheticConfig::default().seed)
                } else {
                    Flows::new(self.seed, self.seed)
                };
                let secs = t.elapsed().as_secs_f64();
                if flows.len() <= k {
                    flows.push(built);
                }
                (secs, None)
            } else {
                let mut world = self.world(self.config(), k);
                let build = t.elapsed().as_secs_f64();
                if self.kind == Kind::StreamReplay {
                    let dir = fresh_dir(scratch, &format!("replay-{k}"))?;
                    run_extension_pipeline_streaming(
                        &mut world,
                        &FaultPlan::none(),
                        &StreamConfig::durable(CHUNK_USERS, &dir),
                        &KillSwitch::none(),
                    )
                    .map_err(|e| format!("setup ingest: {e}"))?;
                }
                (t.elapsed().as_secs_f64(), Some(build))
            };
            let before = reference_ms;
            reference_ms = speed_reference();
            // World builds and cold ingests slow as the reference does,
            // whatever the workload's own calls do.
            let scale = 2.0 * REFERENCE_MS / (before + reference_ms);
            setup_s.push(secs * scale);
            build_s.extend(build.map(|b| b * scale));
        }
        Ok((flows, setup_s, build_s))
    }

    /// Untimed checks against independent computations. Returns, per
    /// study, the summary every call must equal, if there is one.
    fn references(&self, flows: &[Flows]) -> Result<Vec<Option<Summary>>, String> {
        let none = vec![None; STUDIES];
        match self.kind {
            Kind::Batch => Ok(none),
            // Streaming, cold or replayed, must equal the batch pipeline.
            Kind::StreamIngest | Kind::StreamReplay => Ok((0..STUDIES)
                .map(|k| {
                    let mut world = self.world(self.config(), k);
                    let (out, _) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
                    Some(study_summary(&out))
                })
                .collect()),
            Kind::Worldscale => {
                self.cross_check()?;
                Ok(none)
            }
            Kind::Netflow => {
                flows.iter().try_for_each(oracle_check)?;
                Ok(none)
            }
        }
    }

    /// On a smaller segmented world browsed by the seed's population, the
    /// out-of-core pipeline must equal the batch pipeline: the same row
    /// digests, Table-2 rows, tracker set, estimates and EU28 breakdown.
    fn cross_check(&self) -> Result<(), String> {
        let users = CROSS_CHECK_USERS.min(self.users);
        let config = WorldConfig::large(REFERENCE_WORLD, users).with_threads(1);
        let mut world = self.world(config.clone(), 1);
        let (batch, _) = run_extension_pipeline_degraded(&mut world, &FaultPlan::none());
        let mut world = self.world(config, 1);
        let (scale, _) = run_worldscale_pipeline(
            &mut world,
            &FaultPlan::none(),
            &ScaleConfig::in_memory((users / 10).max(1)),
            &KillSwitch::none(),
        )
        .map_err(|e| format!("cross-check: {e}"))?;
        let labels = rebuild::label_bytes(&batch.classification.labels);
        let digests = dataset_digests(&batch.dataset.visits, &batch.dataset.requests, &labels);
        if digests != (scale.visit_hash, scale.request_hash) {
            return Err(format!(
                "cross-check at {users} users: row digests differ from batch"
            ));
        }
        if study_summary(&batch) != Summary::scale(&scale) {
            return Err(format!(
                "cross-check at {users} users: outputs differ from batch"
            ));
        }
        Ok(())
    }

    /// One timed pipeline call on a fresh world.
    fn drive(&self, k: usize, scratch: &Path, flows: &[Flows]) -> Result<Iter, String> {
        let plan = FaultPlan::none();
        let kill = KillSwitch::none();
        match self.kind {
            Kind::Batch => {
                let mut world = self.world(self.config(), k);
                let t = Instant::now();
                let (out, _) = run_extension_pipeline_degraded(&mut world, &plan);
                Ok(Iter::study(ms_since(t), &out, 0))
            }
            Kind::StreamIngest | Kind::StreamReplay => {
                let dir = match self.kind {
                    Kind::StreamIngest => fresh_dir(scratch, "ingest")?,
                    _ => scratch.join(format!("replay-{k}")),
                };
                let mut world = self.world(self.config(), k);
                let t = Instant::now();
                let (out, _) = run_extension_pipeline_streaming(
                    &mut world,
                    &plan,
                    &StreamConfig::durable(CHUNK_USERS, &dir),
                    &kill,
                )
                .map_err(|e| e.to_string())?;
                Ok(Iter::study(ms_since(t), &out, dir_bytes(&dir)?))
            }
            Kind::Worldscale => {
                let mut world = self.world(self.config(), k);
                let t = Instant::now();
                let (out, _) = run_worldscale_pipeline(
                    &mut world,
                    &plan,
                    &ScaleConfig::in_memory(self.segment_users()),
                    &kill,
                )
                .map_err(|e| e.to_string())?;
                let ms = ms_since(t);
                Ok(Iter {
                    ms,
                    reference_ms: f64::NAN,
                    summary: Summary::scale(&out),
                    fingerprint: out.fingerprint(),
                    dir_bytes: 0,
                })
            }
            Kind::Netflow => {
                let f = flows.get(k).ok_or("no NetFlow inputs")?;
                let t = Instant::now();
                let stats = generate_and_match_sharded(&f.gen, &f.set, 1);
                let ms = ms_since(t);
                let summary = Summary::flows(&stats);
                Ok(Iter {
                    ms,
                    reference_ms: f64::NAN,
                    fingerprint: summary.digest,
                    summary,
                    dir_bytes: 0,
                })
            }
        }
    }

    /// One traced rebuild on a fresh world: its run id, milliseconds and
    /// summary. The rebuild reads and writes only its own checkpoint
    /// directories; stream-replay's is filled by an untraced rebuilt cold
    /// ingest first.
    fn rebuild(
        &self,
        k: usize,
        scratch: &Path,
        flows: &[Flows],
        tr: &mut Tracer,
    ) -> Result<(u32, f64, Summary), String> {
        let dir = fresh_dir(scratch, "rebuild")?;
        if self.kind == Kind::StreamReplay {
            let mut world = self.world(self.config(), k);
            rebuild::stream(&mut world, &dir, CHUNK_USERS, &mut Tracer::new(false))?;
        }
        let mut world = (self.kind != Kind::Netflow).then(|| self.world(self.config(), k));
        let run = tr.begin_run();
        // As for the timed calls, the clock stops before the outputs are
        // summarised and dropped.
        let t = Instant::now();
        let (ms, summary) = match (self.kind, world.as_mut()) {
            (Kind::Batch, Some(w)) => {
                let (out, eu28) = rebuild::batch(w, tr);
                (ms_since(t), Summary::study(&out, &eu28))
            }
            (Kind::StreamIngest | Kind::StreamReplay, Some(w)) => {
                let (out, eu28) = rebuild::stream(w, &dir, CHUNK_USERS, tr)?;
                (ms_since(t), Summary::study(&out, &eu28))
            }
            (Kind::Worldscale, Some(w)) => {
                let summary = rebuild::worldscale(w, self.segment_users(), tr);
                (ms_since(t), summary)
            }
            (Kind::Netflow, None) => {
                let f = flows.get(k).ok_or("no NetFlow inputs")?;
                let summary = rebuild::netflow(&f.gen, &f.set, tr);
                (ms_since(t), summary)
            }
            _ => unreachable!("a world exists exactly for the pipeline workloads"),
        };
        Ok((run, ms, summary))
    }
}

impl Iter {
    fn study(ms: f64, out: &StudyOutputs, dir_bytes: u64) -> Iter {
        let summary = study_summary(out);
        Iter {
            ms,
            reference_ms: f64::NAN,
            fingerprint: summary.digest,
            summary,
            dir_bytes,
        }
    }
}

/// Times a fixed computation in this benchmark's own code and returns its
/// milliseconds. It hashes, allocates, sorts and formats, as the pipelines
/// do, and no change to the repository's crates can alter it. Timed just
/// before each call, it gives the host's speed at that moment (see "End-to-end
/// metrics" in the crate docs).
fn speed_reference() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut values = Vec::new();
    for _ in 0..60_000 {
        *counts.entry(next() % 50_000).or_default() += 1;
        values.push(next());
    }
    values.sort_unstable();
    let text: usize = values
        .iter()
        .step_by(16)
        .map(|v| format!("{v:x}").len())
        .sum();
    std::hint::black_box((counts.len(), values[values.len() / 2], text));
    ms_since(t)
}

fn study_summary(out: &StudyOutputs) -> Summary {
    Summary::study(out, &region_breakdown_eu28(out, &out.ipmap_estimates))
}

/// The interval-set join must equal the per-record `FlowCollector` oracle
/// on the whole stream.
fn oracle_check(f: &Flows) -> Result<(), String> {
    let gen = &f.gen;
    let mut oracle = FlowCollector::new(f.list.iter().map(|(ip, _)| IpAddr::V4(*ip)));
    for (ip, window) in &f.list {
        if let Some(w) = window {
            oracle.set_validity(IpAddr::V4(*ip), *w);
        }
    }
    let country = CountryCode::new(*b"DE");
    let mut block = FlowBlock::with_capacity(gen.config().block_len);
    for idx in 0..gen.n_blocks() {
        gen.fill_block(idx, &mut block);
        for i in 0..block.len() {
            oracle.ingest(&block.to_record(i), country);
        }
    }
    let joined = generate_and_match_sharded(gen, &f.set, 1).to_match_stats(&f.set);
    if joined != oracle.into_stats() {
        return Err(format!(
            "interval-set join differs from the oracle on {} records",
            gen.config().n_records
        ));
    }
    Ok(())
}

/// Mean over studies of each study's median.
fn per_study_mean(values: &[(usize, f64)]) -> f64 {
    let n = values.iter().map(|(k, _)| k + 1).max().unwrap_or(0);
    let medians: Vec<f64> = (0..n)
        .map(|k| {
            let v: Vec<f64> = values
                .iter()
                .filter(|(j, _)| *j == k)
                .map(|(_, x)| *x)
                .collect();
            stats::median(&v)
        })
        .filter(|m| !m.is_nan())
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Where a per-layer metric comes from in one traced run.
enum Src {
    /// Self time of the named spans as a share of the traced run.
    SelfPct(&'static str),
    Allocs(&'static str),
    AllocBytes(&'static str),
    Calls(&'static str),
    RowsIn(&'static str),
    RowsOut(&'static str),
    Bytes(&'static [&'static str]),
    Counter(&'static str),
}

const LAYER_METRICS: &[(&str, Src)] = &[
    ("browser.study.self_pct", Src::SelfPct("browser.study")),
    ("browser.study.allocs", Src::Allocs("browser.study")),
    (
        "browser.study.alloc_bytes",
        Src::AllocBytes("browser.study"),
    ),
    ("browser.study.rows_out", Src::RowsOut("browser.study")),
    ("browser.users.self_pct", Src::SelfPct("browser.users")),
    ("classify.lists.self_pct", Src::SelfPct("classify.lists")),
    (
        "classify.compile.self_pct",
        Src::SelfPct("classify.compile"),
    ),
    ("classify.batch.self_pct", Src::SelfPct("classify.batch")),
    ("classify.batch.allocs", Src::Allocs("classify.batch")),
    ("classify.append.self_pct", Src::SelfPct("classify.append")),
    ("classify.append.calls", Src::Calls("classify.append")),
    ("classify.append.allocs", Src::Allocs("classify.append")),
    (
        "classify.delta_encode.self_pct",
        Src::SelfPct("classify.delta_encode"),
    ),
    (
        "classify.delta_bytes",
        Src::Bytes(&["classify.delta_encode"]),
    ),
    (
        "classify.delta_apply.self_pct",
        Src::SelfPct("classify.delta_apply"),
    ),
    (
        "colog.from_chunk.self_pct",
        Src::SelfPct("colog.from_chunk"),
    ),
    ("colog.encode.self_pct", Src::SelfPct("colog.encode")),
    ("colog.block_bytes", Src::Bytes(&["colog.encode"])),
    ("colog.decode.self_pct", Src::SelfPct("colog.decode")),
    ("colog.to_chunk.self_pct", Src::SelfPct("colog.to_chunk")),
    ("colog.resident_bytes", Src::Counter("colog.resident_bytes")),
    ("checkpoint.open.self_pct", Src::SelfPct("checkpoint.open")),
    (
        "checkpoint.append.self_pct",
        Src::SelfPct("checkpoint.append"),
    ),
    (
        "checkpoint.stage.self_pct",
        Src::SelfPct("checkpoint.stage"),
    ),
    (
        "checkpoint.bytes_written",
        Src::Bytes(&["checkpoint.append", "checkpoint.stage"]),
    ),
    ("checkpoint.load.self_pct", Src::SelfPct("checkpoint.load")),
    ("checkpoint.bytes_read", Src::Bytes(&["checkpoint.load"])),
    (
        "dns.pdns_observe.self_pct",
        Src::SelfPct("dns.pdns_observe"),
    ),
    ("dns.pdns_observe.calls", Src::RowsIn("dns.pdns_observe")),
    ("ips.fold.self_pct", Src::SelfPct("ips.fold")),
    ("ips.complete.self_pct", Src::SelfPct("ips.complete")),
    ("ips.tracker_ips", Src::Counter("ips.tracker_ips")),
    ("ips.added", Src::RowsOut("ips.complete")),
    (
        "geoloc.ipmap_build.self_pct",
        Src::SelfPct("geoloc.ipmap_build"),
    ),
    (
        "geoloc.registry_build.self_pct",
        Src::SelfPct("geoloc.registry_build"),
    ),
    ("geoloc.freeze.self_pct", Src::SelfPct("geoloc.freeze")),
    ("geoloc.freeze.calls", Src::Calls("geoloc.freeze")),
    (
        "geoloc.assign_cache_hit_ratio",
        Src::Counter("geoloc.assign_cache_hit_ratio"),
    ),
    (
        "geoloc.index_probe_visits",
        Src::Counter("geoloc.index_probe_visits"),
    ),
    ("confine.eu28.self_pct", Src::SelfPct("confine.eu28")),
    ("confine.eu28.rows_in", Src::RowsIn("confine.eu28")),
    (
        "netflow.generate.self_pct",
        Src::SelfPct("netflow.generate"),
    ),
    ("netflow.match.self_pct", Src::SelfPct("netflow.match")),
    ("netflow.blocks", Src::Calls("netflow.generate")),
    ("netflow.match_rate", Src::Counter("netflow.match_rate")),
];

/// Per-layer metrics: each the mean over studies of its median over the
/// traced runs of that study. Shares are of the rebuild's wall time;
/// `trace.iter_ms` and the overhead use scaled times, as `iter_ms` does.
fn per_layer(
    tr: &Tracer,
    runs: &[(usize, u32, f64, f64)],
    untraced_ms: f64,
    build_ms: f64,
) -> Vec<(&'static str, f64)> {
    let profiles: Vec<(usize, Profile, f64)> = runs
        .iter()
        .map(|&(k, run, ms, _)| (k, tr.profile(run), ms))
        .collect();
    let each = |f: &dyn Fn(&Profile, f64) -> f64| {
        let v: Vec<(usize, f64)> = profiles.iter().map(|(k, p, ms)| (*k, f(p, *ms))).collect();
        per_study_mean(&v)
    };
    let mut out: Vec<(&'static str, f64)> = LAYER_METRICS
        .iter()
        .map(|(name, src)| {
            let value = each(&|p: &Profile, ms: f64| match src {
                Src::SelfPct(n) => p.get(n).self_ns as f64 / 1e6 / ms * 100.0,
                Src::Allocs(n) => p.get(n).allocs as f64,
                Src::AllocBytes(n) => p.get(n).alloc_bytes as f64,
                Src::Calls(n) => p.get(n).calls as f64,
                Src::RowsIn(n) => p.get(n).rows_in as f64,
                Src::RowsOut(n) => p.get(n).rows_out as f64,
                Src::Bytes(ns) => ns.iter().map(|n| p.get(n).bytes as f64).sum(),
                Src::Counter(n) => p.counters.get(n).copied().unwrap_or(0.0),
            });
            (*name, value)
        })
        .collect();
    let scaled: Vec<(usize, f64)> = runs.iter().map(|&(k, _, _, ms)| (k, ms)).collect();
    let traced_ms = per_study_mean(&scaled);
    out.push(("worldgen.build_ms", build_ms));
    out.push(("trace.iter_ms", traced_ms));
    out.push((
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    ));
    // Share of the traced iteration inside top-level spans: what the
    // spans explain, unaffected by how the machine's speed drifted
    // between the untraced and traced halves of the run.
    out.push((
        "trace.coverage",
        each(&|p, ms| p.root_ns as f64 / 1e6 / ms * 100.0),
    ));
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `scratch/name`, emptied.
fn fresh_dir(scratch: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(name);
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => Ok(dir),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(dir),
        Err(e) => Err(format!("cannot empty {}: {e}", dir.display())),
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("cannot list {}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.map_err(err)?.metadata().map_err(err)?.len();
    }
    Ok(total)
}
