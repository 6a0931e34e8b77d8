//! Each workload rebuilt from the layers' public calls, in its entry
//! point's order, with a span around every call.
//!
//! World-RNG draws mirror the entry points exactly (study-stream seed, then the
//! population or `pop_seed` draw and `study_seed`, then the IpMap build,
//! then the three registry seeds), so a rebuild's outputs must equal its
//! entry point's; the runner checks that they do. The streaming rebuild
//! reads and writes only checkpoint directories it wrote itself, framed
//! through the public codec, so the streaming pipeline's private chunk and
//! stage formats can change without touching the benchmark. Pipeline work
//! with no public entry point (the worldscale row digests, concatenating
//! the final log) runs outside any span and shows up as `trace.coverage`
//! below 100 %.

use crate::trace::{Io, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;
use std::path::Path;
use xborder::confine::{region_breakdown_eu28, DestBreakdown};
use xborder::ips::{CompletionStats, IpInfo, TrackerIpSet};
use xborder::pipeline::{freeze_estimates_degraded, EstimateMap};
use xborder::stream::config_fingerprint;
use xborder::worldscale::ScaleOutputs;
use xborder::{StudyOutputs, World};
use xborder_browser::{
    run_study_sharded, ExtensionDataset, Referrer, RequestId, SegmentBlock, StudyCtx, StudyStream,
    UserPopulation, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI,
};
use xborder_checkpoint::{ByteReader, ByteWriter, CheckpointStore, DecodeError};
use xborder_classify::{
    classify_with_stages_threads, generate_lists, Classification, ClassificationResult,
    ClassifierStages, FilterList, IncrementalClassifier, MethodCounts,
};
use xborder_faults::{stable_hash, DegradationReport, FaultInjector, FaultPlan, KillSwitch};
use xborder_geo::Region;
use xborder_geoloc::{IpMap, RegistryDb, RegistryStyle};
use xborder_netflow::{BlockMatchStats, FlowBlock, SyntheticFlowGen, TrackerIntervalSet};

/// What every iteration is checked on: row counts, the Table-2 rows and
/// one digest over every other output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Logged requests (pipelines) or matched flow records (NetFlow).
    pub rows: u64,
    pub visits: u64,
    pub abp: MethodCounts,
    pub semi: MethodCounts,
    /// Tracker IPs (pipelines) or tracker slots hit (NetFlow).
    pub trackers: usize,
    pub digest: u64,
}

impl Summary {
    /// The surfaces of the resume-smoke fingerprint (request and visit
    /// counts, Table-2 rows, the sorted tracker set with every provider's
    /// answer, pDNS completion) plus the full tracker records and the EU28
    /// destination breakdown.
    #[allow(clippy::too_many_arguments)]
    fn pipeline(
        rows: usize,
        visits: usize,
        abp: MethodCounts,
        semi: MethodCounts,
        ips: &TrackerIpSet,
        completion: &CompletionStats,
        maps: [&EstimateMap; 3],
        eu28: &DestBreakdown,
    ) -> Summary {
        let mut w = ByteWriter::new();
        let sorted = put_tracker_set(&mut w, ips);
        put_completion(&mut w, completion);
        for map in maps {
            w.put_usize(map.len());
            for ip in &sorted {
                w.put_bytes(&map.get(ip).map_or([0, 0], |e| e.country.bytes()));
            }
        }
        w.put_u64(eu28.total);
        for r in Region::ALL {
            w.put_u64(eu28.counts.get(&r).copied().unwrap_or(0));
        }
        Summary {
            rows: rows as u64,
            visits: visits as u64,
            abp,
            semi,
            trackers: ips.len(),
            digest: stable_hash(&w.into_bytes()),
        }
    }

    /// A batch or streaming pipeline's outputs, with `eu28` computed over
    /// them under IPmap.
    pub fn study(out: &StudyOutputs, eu28: &DestBreakdown) -> Summary {
        Summary::pipeline(
            out.dataset.requests.len(),
            out.dataset.visits.len(),
            out.classification.abp,
            out.classification.semi,
            &out.tracker_ips,
            &out.completion,
            [
                &out.ipmap_estimates,
                &out.maxmind_estimates,
                &out.ipapi_estimates,
            ],
            eu28,
        )
    }

    pub fn scale(out: &ScaleOutputs) -> Summary {
        Summary::pipeline(
            out.stats.n_third_party_requests,
            out.stats.n_first_party_requests,
            out.abp,
            out.semi,
            &out.tracker_ips,
            &out.completion,
            [
                &out.ipmap_estimates,
                &out.maxmind_estimates,
                &out.ipapi_estimates,
            ],
            &out.eu28,
        )
    }

    pub fn flows(stats: &BlockMatchStats) -> Summary {
        let mut w = ByteWriter::new();
        w.put_u64(stats.tracking_flows);
        w.put_u64(stats.tracking_web_flows);
        w.put_u64(stats.tracking_encrypted_flows);
        for &n in &stats.per_slot {
            w.put_u64(n);
        }
        Summary {
            rows: stats.total_flows,
            visits: 0,
            abp: MethodCounts::default(),
            semi: MethodCounts::default(),
            trackers: stats.per_slot.iter().filter(|&&n| n > 0).count(),
            digest: stable_hash(&w.into_bytes()),
        }
    }
}

/// The batch pipeline (`run_extension_pipeline_degraded`, no faults).
pub fn batch(world: &mut World, tr: &mut Tracer) -> (StudyOutputs, DestBreakdown) {
    let inj = FaultInjector::new(FaultPlan::none());
    let mut report = DegradationReport::default();
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let s = tr.enter("browser.study");
    let dataset = run_study_sharded(
        &world.config.study,
        &world.graph,
        &mut world.dns,
        &mut rng,
        &inj,
        &mut report,
        1,
    );
    tr.exit(s, Io::rows(0, dataset.requests.len()));
    let (easylist, easyprivacy) = lists(world, tr);
    let s = tr.enter("classify.batch");
    let classification = classify_with_stages_threads(
        &dataset.requests,
        &dataset.domains,
        &easylist,
        &easyprivacy,
        ClassifierStages::default(),
        1,
    );
    let n_tracking = classification.total_tracking_requests();
    tr.exit(s, Io::rows(dataset.requests.len(), n_tracking));
    let s = tr.enter("ips.fold");
    let mut tracker_ips = TrackerIpSet::from_dataset(&dataset, &classification);
    tr.exit(s, Io::rows(n_tracking, tracker_ips.len()));
    let completion = complete(world, &mut tracker_ips, &inj, &mut report, tr);
    let [ipmap, mm, ia] = geolocate(world, &mut rng, &tracker_ips, &inj, &mut report, tr);
    with_eu28(
        StudyOutputs {
            dataset,
            classification,
            easylist,
            easyprivacy,
            tracker_ips,
            completion,
            ipmap_estimates: ipmap,
            maxmind_estimates: mm,
            ipapi_estimates: ia,
            snapshots: Vec::new(),
        },
        n_tracking,
        tr,
    )
}

/// Durable streaming (`run_extension_pipeline_streaming` with
/// `StreamConfig::durable(chunk_users, dir)`): replays every chunk `dir`
/// already holds, then ingests the remaining users. Unlike the pipeline,
/// a replay recomputes pDNS completion (`ips.fold`, `ips.complete`) and
/// checks it against the stored stage.
pub fn stream(
    world: &mut World,
    dir: &Path,
    chunk_users: usize,
    tr: &mut Tracer,
) -> Result<(StudyOutputs, DestBreakdown), String> {
    let plan = FaultPlan::none();
    let inj = FaultInjector::new(plan.clone());
    let kill = KillSwitch::none();
    let mut report = DegradationReport::default();
    let fingerprint = config_fingerprint(&world.config, &plan).map_err(|e| e.to_string())?;
    let s = tr.enter("checkpoint.open");
    let mut store = CheckpointStore::open(dir, fingerprint).map_err(|e| e.to_string())?;
    tr.exit(s, Io::rows(0, store.chunks().len()));

    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let s = tr.enter("browser.users");
    let population = UserPopulation::generate(&world.config.study.population, &mut rng);
    tr.exit(s, Io::rows(0, population.users.len()));
    let study_seed: u64 = rng.gen();
    let n_users = population.users.len();
    let (easylist, easyprivacy) = lists(world, tr);
    let s = tr.enter("classify.compile");
    let mut classifier =
        IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default());
    tr.exit(s, Io::NONE);

    let mut blocks: Vec<SegmentBlock> = Vec::new();
    let mut pre_fault_offset = 0u64;
    let mut next_user = 0usize;
    for entry in store.chunks().to_vec() {
        if entry.user_start != next_user as u64
            || entry.user_end < entry.user_start
            || entry.user_end > n_users as u64
        {
            return Err(format!(
                "chunk {} does not continue at user {next_user}",
                entry.index
            ));
        }
        let s = tr.enter("checkpoint.load");
        let payload = store.load_chunk(&entry).map_err(|e| e.to_string())?;
        tr.exit(s, Io::bytes(payload.len()));
        let mut rd = ByteReader::new(&payload);
        let seg = rd.blob().map_err(|e| decode_err(&entry.file, e))?;
        let cls = rd.blob().map_err(|e| decode_err(&entry.file, e))?;
        rd.finish().map_err(|e| decode_err(&entry.file, e))?;
        let s = tr.enter("colog.decode");
        let block = SegmentBlock::decode_bytes(seg).map_err(|e| decode_err(&entry.file, e))?;
        let observations = block.observations_vec();
        tr.exit(
            s,
            Io {
                rows_in: 0,
                rows_out: block.n_requests() as u64,
                bytes: seg.len() as u64,
            },
        );
        if block.labels().len() != block.n_requests() {
            return Err(format!("{}: one label per request expected", entry.file));
        }
        let s = tr.enter("classify.delta_apply");
        let mut rd = ByteReader::new(cls);
        classifier
            .apply_delta(&mut rd, world.graph.domains())
            .map_err(|e| decode_err(&entry.file, e))?;
        rd.finish().map_err(|e| decode_err(&entry.file, e))?;
        tr.exit(s, Io::bytes(cls.len()));
        let s = tr.enter("dns.pdns_observe");
        world
            .dns
            .absorb_id_observations(&observations, world.graph.domains());
        tr.exit(s, Io::rows(observations.len(), 0));
        pre_fault_offset += block.counters().requests_generated;
        next_user = entry.user_end as usize;
        blocks.push(block);
    }

    let users = {
        let (view, pdns) = world.dns.indexed_view_and_pdns(world.graph.domains());
        let stream = StudyStream::with_view(
            &world.config.study,
            &world.graph,
            view,
            population,
            study_seed,
        );
        let mut index = blocks.len() as u64;
        while next_user < n_users {
            let end = (next_user + chunk_users).min(n_users);
            let s = tr.enter("browser.study");
            let chunk = stream.simulate_chunk(next_user..end, &inj, 1, pre_fault_offset);
            tr.exit(s, Io::rows(end - next_user, chunk.requests.len()));
            let s = tr.enter("classify.append");
            let cls = classifier.append_chunk(&chunk.requests, world.graph.domains());
            tr.exit(s, Io::rows(chunk.requests.len(), n_tracking(&cls.labels)));
            let labels = label_bytes(&cls.labels);
            let s = tr.enter("colog.from_chunk");
            let block = SegmentBlock::from_chunk(
                &chunk,
                &labels,
                cls.stage2_rounds as u32,
                cls.stage3_rounds as u32,
                (next_user as u32, end as u32),
            );
            tr.exit(s, Io::rows(chunk.requests.len(), block.n_requests()));
            let s = tr.enter("classify.delta_encode");
            let mut cw = ByteWriter::new();
            classifier.encode_delta(&mut cw);
            let delta = cw.into_bytes();
            tr.exit(s, Io::bytes(delta.len()));
            let s = tr.enter("colog.encode");
            let seg = block.encode_bytes();
            tr.exit(s, Io::bytes(seg.len()));
            let mut w = ByteWriter::with_capacity(16 + seg.len() + delta.len());
            w.put_blob(&seg);
            w.put_blob(&delta);
            let payload = w.into_bytes();
            let s = tr.enter("checkpoint.append");
            store
                .append_chunk(index, next_user as u64, end as u64, &payload, &kill)
                .map_err(|e| e.to_string())?;
            tr.exit(s, Io::bytes(payload.len()));
            let s = tr.enter("dns.pdns_observe");
            for o in &chunk.observations {
                pdns.observe(world.graph.domains().domain(o.host), o.ip, o.time);
            }
            tr.exit(s, Io::rows(chunk.observations.len(), 0));
            pre_fault_offset += chunk.report.requests_generated;
            blocks.push(block);
            next_user = end;
            index += 1;
        }
        stream.into_users()
    };
    count_resident(&blocks, tr);

    // Reassemble the log in user order, referrers rebased to global rows.
    let mut visits = Vec::new();
    let mut requests = Vec::new();
    let mut labels = Vec::new();
    let mut stage2_depth = 0usize;
    let mut stage3_rounds = 0usize;
    for block in &blocks {
        let s = tr.enter("colog.to_chunk");
        let (chunk, label_bytes, stage2, stage3) = block.to_chunk();
        tr.exit(s, Io::rows(block.n_requests(), chunk.requests.len()));
        labels.extend(labels_from_bytes(&label_bytes)?);
        let offset = requests.len() as u32;
        visits.extend(chunk.visits);
        requests.extend(chunk.requests.into_iter().map(|mut r| {
            if let Referrer::Request(RequestId(p)) = r.referrer {
                r.referrer = Referrer::Request(RequestId(p + offset));
            }
            r
        }));
        stage2_depth = stage2_depth.max((stage2 as usize).saturating_sub(1));
        stage3_rounds = stage3_rounds.max(stage3 as usize);
    }
    visits.sort_by_key(|v| v.time);
    let dataset = ExtensionDataset {
        users,
        visits,
        requests,
        domains: world.graph.domains().clone(),
    };
    let (abp, semi) = classifier.counts();
    drop(classifier);
    let stage2_rounds = 1 + stage2_depth;
    let classification = ClassificationResult {
        labels,
        abp,
        semi,
        propagation_rounds: stage2_rounds + stage3_rounds,
        stage2_rounds,
        stage3_rounds,
    };
    let n_tracking = classification.total_tracking_requests();

    // The completion stage. The pipeline decodes a stored stage with a
    // private codec; the rebuild recomputes it through the public calls
    // and, on replay, checks the stored bytes against the recomputation.
    let s = tr.enter("checkpoint.load");
    let stored = store.load_stage("completion").map_err(|e| e.to_string())?;
    tr.exit(s, Io::bytes(stored.as_ref().map_or(0, Vec::len)));
    let s = tr.enter("ips.fold");
    let mut tracker_ips = TrackerIpSet::from_dataset(&dataset, &classification);
    tr.exit(s, Io::rows(n_tracking, tracker_ips.len()));
    let completion = complete(world, &mut tracker_ips, &inj, &mut report, tr);
    let payload = completion_bytes(&tracker_ips, &completion);
    match stored {
        Some(bytes) if bytes != payload => {
            return Err("stored completion stage differs from the recomputed one".into());
        }
        Some(_) => {}
        None => {
            let s = tr.enter("checkpoint.stage");
            store
                .put_stage("completion", &payload, &kill)
                .map_err(|e| e.to_string())?;
            tr.exit(s, Io::bytes(payload.len()));
        }
    }
    let [ipmap, mm, ia] = geolocate(world, &mut rng, &tracker_ips, &inj, &mut report, tr);
    Ok(with_eu28(
        StudyOutputs {
            dataset,
            classification,
            easylist,
            easyprivacy,
            tracker_ips,
            completion,
            ipmap_estimates: ipmap,
            maxmind_estimates: mm,
            ipapi_estimates: ia,
            snapshots: Vec::new(),
        },
        n_tracking,
        tr,
    ))
}

/// The out-of-core pipeline (`run_worldscale_pipeline` with
/// `ScaleConfig::in_memory(segment_users)`), minus its row digests.
pub fn worldscale(world: &mut World, segment_users: usize, tr: &mut Tracer) -> Summary {
    let inj = FaultInjector::new(FaultPlan::none());
    let mut report = DegradationReport::default();
    let mut rng = StdRng::seed_from_u64(world.study_rng.gen());
    let pop_seed: u64 = rng.gen();
    let study_seed: u64 = rng.gen();
    let pop_cfg = world.config.study.population.clone();
    let n_users = pop_cfg.n_users;
    let s = tr.enter("browser.users");
    let mean_activity = UserPopulation::mean_activity_segmented(&pop_cfg, pop_seed);
    tr.exit(s, Io::rows(0, n_users));
    let (easylist, easyprivacy) = lists(world, tr);
    let s = tr.enter("classify.compile");
    let mut classifier =
        IncrementalClassifier::new(&easylist, &easyprivacy, ClassifierStages::default());
    tr.exit(s, Io::NONE);

    let mut tracker_ips = TrackerIpSet::default();
    let mut blocks: Vec<SegmentBlock> = Vec::new();
    let (mut n_requests, mut n_visits) = (0usize, 0usize);
    {
        let (view, pdns) = world.dns.indexed_view_and_pdns(world.graph.domains());
        let ctx = StudyCtx::new(
            &world.config.study,
            &world.graph,
            view,
            study_seed,
            mean_activity,
        );
        let mut pre_fault_offset = 0u64;
        let mut next_user = 0usize;
        while next_user < n_users {
            let end = (next_user + segment_users.max(1)).min(n_users);
            let s = tr.enter("browser.users");
            let users =
                UserPopulation::generate_range(&pop_cfg, pop_seed, next_user as u32..end as u32);
            tr.exit(s, Io::rows(0, users.len()));
            let s = tr.enter("browser.study");
            let chunk = ctx.simulate_users(&users, &inj, 1, pre_fault_offset);
            tr.exit(s, Io::rows(users.len(), chunk.requests.len()));
            drop(users);
            let s = tr.enter("classify.append");
            let cls = classifier.append_chunk(&chunk.requests, world.graph.domains());
            tr.exit(s, Io::rows(chunk.requests.len(), n_tracking(&cls.labels)));
            let labels = label_bytes(&cls.labels);
            let s = tr.enter("colog.from_chunk");
            let block = SegmentBlock::from_chunk(
                &chunk,
                &labels,
                cls.stage2_rounds as u32,
                cls.stage3_rounds as u32,
                (next_user as u32, end as u32),
            );
            tr.exit(s, Io::rows(chunk.requests.len(), block.n_requests()));
            let s = tr.enter("dns.pdns_observe");
            for o in &chunk.observations {
                pdns.observe(world.graph.domains().domain(o.host), o.ip, o.time);
            }
            tr.exit(s, Io::rows(chunk.observations.len(), 0));
            let s = tr.enter("ips.fold");
            let mut folded = 0usize;
            for (r, &label) in chunk.requests.iter().zip(&labels) {
                if label != LABEL_CLEAN {
                    tracker_ips.absorb_tracking_request(
                        r.ip,
                        world.graph.domains().domain(r.host),
                        r.time,
                    );
                    folded += 1;
                }
            }
            tr.exit(s, Io::rows(folded, tracker_ips.len()));
            report.absorb_counters(&chunk.report);
            n_requests += chunk.requests.len();
            n_visits += chunk.visits.len();
            pre_fault_offset += chunk.report.requests_generated;
            blocks.push(block);
            next_user = end;
        }
    }
    count_resident(&blocks, tr);
    let (abp, semi) = classifier.counts();
    drop(classifier);
    let completion = complete(world, &mut tracker_ips, &inj, &mut report, tr);
    let [ipmap, mm, ia] = geolocate(world, &mut rng, &tracker_ips, &inj, &mut report, tr);

    // The second sweep: regenerate each segment's users for their
    // countries and fold every tracking flow.
    let s = tr.enter("confine.eu28");
    let mut eu28 = DestBreakdown::default();
    let mut flows = 0usize;
    for block in &blocks {
        let u = tr.enter("browser.users");
        let users =
            UserPopulation::generate_range(&pop_cfg, pop_seed, block.user_start..block.user_end);
        tr.exit(u, Io::rows(0, users.len()));
        for row in 0..block.n_requests() {
            if block.is_tracking(row) {
                let local = (block.request_user(row) - block.user_start) as usize;
                eu28.absorb_eu28_flow(users[local].country, block.request_ip(row), &ipmap);
                flows += 1;
            }
        }
    }
    tr.exit(s, Io::rows(flows, eu28.total as usize));
    Summary::pipeline(
        n_requests,
        n_visits,
        abp,
        semi,
        &tracker_ips,
        &completion,
        [&ipmap, &mm, &ia],
        &eu28,
    )
}

/// The Sect. 7 join (`generate_and_match_sharded` at one thread).
pub fn netflow(gen: &SyntheticFlowGen, set: &TrackerIntervalSet, tr: &mut Tracer) -> Summary {
    let mut stats = set.new_stats();
    let mut block = FlowBlock::with_capacity(gen.config().block_len);
    for idx in 0..gen.n_blocks() {
        let s = tr.enter("netflow.generate");
        gen.fill_block(idx, &mut block);
        tr.exit(s, Io::rows(0, block.len()));
        let before = stats.tracking_flows;
        let s = tr.enter("netflow.match");
        set.match_block(&block, &mut stats);
        tr.exit(
            s,
            Io::rows(block.len(), (stats.tracking_flows - before) as usize),
        );
    }
    tr.count(
        "netflow.match_rate",
        stats.tracking_flows as f64 / stats.total_flows.max(1) as f64,
    );
    Summary::flows(&stats)
}

fn lists(world: &World, tr: &mut Tracer) -> (FilterList, FilterList) {
    let s = tr.enter("classify.lists");
    let lists = generate_lists(&world.graph);
    tr.exit(s, Io::rows(0, lists.0.len() + lists.1.len()));
    lists
}

fn complete(
    world: &World,
    tracker_ips: &mut TrackerIpSet,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    tr: &mut Tracer,
) -> CompletionStats {
    let s = tr.enter("ips.complete");
    let stats = tracker_ips.complete_with_pdns_degraded(world.dns.pdns(), inj, report);
    tr.exit(s, Io::rows(stats.n_observed, stats.n_added));
    stats
}

/// The pipelines' shared geolocation stage at one thread: IPmap, then the
/// MaxMind-like and ip-api-like registries, each frozen over the sorted
/// tracker IP list.
fn geolocate(
    world: &World,
    rng: &mut StdRng,
    tracker_ips: &TrackerIpSet,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    tr: &mut Tracer,
) -> [EstimateMap; 3] {
    tr.count("ips.tracker_ips", tracker_ips.len() as f64);
    let mut ip_list: Vec<IpAddr> = tracker_ips.ips.keys().copied().collect();
    ip_list.sort();
    let s = tr.enter("geoloc.ipmap_build");
    let ipmap = IpMap::new(world.config.ipmap, &world.infra, rng);
    tr.exit(s, Io::NONE);
    let seat_seed: u64 = rng.gen();
    let mm_noise_seed: u64 = rng.gen();
    let ia_noise_seed: u64 = rng.gen();
    let s = tr.enter("geoloc.freeze");
    let a = freeze_estimates_degraded(&ipmap, &ip_list, inj, report);
    tr.exit(s, Io::rows(ip_list.len(), a.len()));
    let mut registry = |style: RegistryStyle, noise_seed: u64, tr: &mut Tracer| {
        let s = tr.enter("geoloc.registry_build");
        let db = RegistryDb::build(
            style,
            &world.infra,
            &mut StdRng::seed_from_u64(seat_seed),
            &mut StdRng::seed_from_u64(noise_seed),
        );
        tr.exit(s, Io::rows(0, db.len()));
        let s = tr.enter("geoloc.freeze");
        let map = freeze_estimates_degraded(&db, &ip_list, inj, report);
        tr.exit(s, Io::rows(ip_list.len(), map.len()));
        map
    };
    let b = registry(RegistryStyle::MaxMindLike, mm_noise_seed, tr);
    let c = registry(RegistryStyle::IpApiLike, ia_noise_seed, tr);
    let cache = ipmap.assign_cache_stats();
    tr.count(
        "geoloc.assign_cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    tr.count("geoloc.index_probe_visits", cache.index_probe_visits as f64);
    [a, b, c]
}

/// The pipelines' closing EU28 breakdown.
fn with_eu28(
    out: StudyOutputs,
    n_tracking: usize,
    tr: &mut Tracer,
) -> (StudyOutputs, DestBreakdown) {
    let s = tr.enter("confine.eu28");
    let eu28 = region_breakdown_eu28(&out, &out.ipmap_estimates);
    tr.exit(s, Io::rows(n_tracking, eu28.total as usize));
    (out, eu28)
}

fn count_resident(blocks: &[SegmentBlock], tr: &mut Tracer) {
    let bytes: usize = blocks
        .iter()
        .map(SegmentBlock::resident_bytes_logical)
        .sum();
    tr.count("colog.resident_bytes", bytes as f64);
}

fn n_tracking(labels: &[Classification]) -> usize {
    labels.iter().filter(|l| l.is_tracking()).count()
}

/// Label tags as the streaming checkpoint format stores them.
pub fn label_bytes(labels: &[Classification]) -> Vec<u8> {
    labels
        .iter()
        .map(|l| match l {
            Classification::AbpTracking => LABEL_ABP,
            Classification::SemiTracking => LABEL_SEMI,
            Classification::Clean => LABEL_CLEAN,
        })
        .collect()
}

fn labels_from_bytes(bytes: &[u8]) -> Result<Vec<Classification>, String> {
    bytes
        .iter()
        .map(|&b| match b {
            LABEL_ABP => Ok(Classification::AbpTracking),
            LABEL_SEMI => Ok(Classification::SemiTracking),
            LABEL_CLEAN => Ok(Classification::Clean),
            tag => Err(format!("unknown classification tag {tag}")),
        })
        .collect()
}

fn decode_err(file: &str, e: DecodeError) -> String {
    format!("{file}: {e}")
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

/// Writes the tracker set in canonical order and returns its sorted IPs.
fn put_tracker_set(w: &mut ByteWriter, ips: &TrackerIpSet) -> Vec<IpAddr> {
    let mut sorted: Vec<(&IpAddr, &IpInfo)> = ips.ips.iter().collect();
    sorted.sort_by_key(|(ip, _)| **ip);
    w.put_usize(sorted.len());
    for (ip, info) in &sorted {
        put_ip(w, **ip);
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
    sorted.into_iter().map(|(ip, _)| *ip).collect()
}

fn put_completion(w: &mut ByteWriter, stats: &CompletionStats) {
    w.put_usize(stats.n_observed);
    w.put_usize(stats.n_added);
    w.put_f64(stats.v4_share);
    w.put_f64(stats.added_v4_share);
}

/// The completion stage as the rebuild stores it: the canonical tracker
/// set, then the completion stats.
fn completion_bytes(ips: &TrackerIpSet, stats: &CompletionStats) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + ips.len() * 48);
    put_tracker_set(&mut w, ips);
    put_completion(&mut w, stats);
    w.into_bytes()
}
