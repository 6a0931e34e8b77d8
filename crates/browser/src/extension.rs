//! The study driver: simulates the 4.5-month extension deployment and
//! produces the dataset behind the paper's Tables 1–2 and Figures 2–8.

use crate::render::{RenderConfig, RenderEngine};
use crate::request::{LoggedRequest, Referrer, RequestId};
use crate::user::{User, UserId, UserPopulation, UserPopulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use xborder_dns::{DnsCache, DnsSim, IndexedZoneView, PdnsIdObservation};
use xborder_faults::{derive_stream_seed, shard_map, DegradationReport, FaultInjector};
use xborder_geo::CountryCode;
use xborder_netsim::time::{anchors, SimTime, TimeWindow};
use xborder_webgraph::{Audience, DomainId, DomainTable, PublisherId, WebGraph};

/// Configuration of the whole extension study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Recruited population.
    pub population: UserPopulationConfig,
    /// Mean site visits per user over the study (paper: 76,507 first-party
    /// requests over 350 users ≈ 219 each).
    pub visits_per_user_mean: f64,
    /// Study window.
    pub window: TimeWindow,
    /// Render model.
    pub render: RenderConfig,
    /// Share of a user's visits going to national sites of their own
    /// country (domestic browsing locality; ~35-45 % in European traffic
    /// studies). Within each stage, sites are drawn by popularity.
    pub home_visit_share: f64,
    /// Weight multiplier for *foreign* national sites in the global stage
    /// (a Greek user rarely reads Polish local news).
    pub foreign_site_damping: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            population: UserPopulationConfig::default(),
            visits_per_user_mean: 219.0,
            window: TimeWindow::new(anchors::STUDY_START, anchors::STUDY_END),
            render: RenderConfig::default(),
            home_visit_share: 0.42,
            foreign_site_damping: 0.02,
        }
    }
}

impl StudyConfig {
    /// Small study for tests.
    pub fn small() -> Self {
        StudyConfig {
            population: UserPopulationConfig::small(),
            visits_per_user_mean: 30.0,
            ..Default::default()
        }
    }
}

/// One first-party page view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Visit {
    /// Who.
    pub user: UserId,
    /// Which site.
    pub publisher: PublisherId,
    /// When.
    pub time: SimTime,
}

/// The produced dataset.
#[derive(Debug)]
pub struct ExtensionDataset {
    /// The recruited users.
    pub users: UserPopulation,
    /// Every first-party page view, in generation order.
    pub visits: Vec<Visit>,
    /// Every logged third-party request, in generation order (cascade
    /// referrers index into this vector).
    pub requests: Vec<LoggedRequest>,
    /// The world's domain interner (DESIGN.md §5f): resolves the
    /// `DomainId`s stored in [`LoggedRequest`] back to strings. A clone of
    /// [`WebGraph::domains`], carried here so the dataset stays
    /// self-contained for downstream analyses.
    pub domains: DomainTable,
}

impl ExtensionDataset {
    /// Table-1-style dataset statistics.
    pub fn stats(&self) -> DatasetStats {
        let mut visited_publishers: HashSet<PublisherId> = HashSet::new();
        for v in &self.visits {
            visited_publishers.insert(v.publisher);
        }
        let third_party_domains: HashSet<DomainId> = self.requests.iter().map(|r| r.host).collect();
        DatasetStats {
            n_users: self.users.users.len(),
            n_first_party_domains: visited_publishers.len(),
            n_first_party_requests: self.visits.len(),
            n_third_party_domains: third_party_domains.len(),
            n_third_party_requests: self.requests.len(),
        }
    }

    /// Distinct server IPs observed across all requests.
    pub fn observed_ips(&self) -> HashSet<std::net::IpAddr> {
        self.requests.iter().map(|r| r.ip).collect()
    }

    /// Request count per publisher (Fig. 2's per-website distribution).
    pub fn requests_per_publisher(&self) -> HashMap<PublisherId, usize> {
        let mut m = HashMap::new();
        for r in &self.requests {
            *m.entry(r.publisher).or_insert(0) += 1;
        }
        m
    }

    /// The country of a user, or `None` for an id outside the population.
    pub fn try_user_country(&self, id: UserId) -> Option<CountryCode> {
        self.users.users.get(id.0 as usize).map(|u| u.country)
    }

    /// The country of a user.
    ///
    /// Invariant: `UserId`s in a dataset's `visits`/`requests` are dense
    /// indices into `users.users` (the population generator assigns
    /// `id == position`), so lookups with ids taken from this dataset
    /// cannot miss. Panics (with a debug assertion first) on foreign ids —
    /// use [`ExtensionDataset::try_user_country`] for those.
    pub fn user_country(&self, id: UserId) -> CountryCode {
        debug_assert!(
            (id.0 as usize) < self.users.users.len(),
            "UserId {} outside population of {}",
            id.0,
            self.users.users.len()
        );
        self.try_user_country(id)
            .expect("UserId must index the dataset's own population")
    }
}

/// Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Recruited users.
    pub n_users: usize,
    /// Distinct first-party domains visited.
    pub n_first_party_domains: usize,
    /// Total first-party page views.
    pub n_first_party_requests: usize,
    /// Distinct third-party FQDNs contacted.
    pub n_third_party_domains: usize,
    /// Total third-party requests logged.
    pub n_third_party_requests: usize,
}

/// Per-country publisher sampling, built once per country on demand.
///
/// Two-stage locality model shared by the extension study and the ISP
/// traffic generator: with probability `home_visit_share` a user visits a
/// national site of their own country (a Greek reader's top sites are
/// Greek portals, whatever their global rank); otherwise they draw from
/// the global pool (with foreign national sites damped). Within each
/// stage, sites are drawn by Zipf popularity.
#[derive(Debug, Default)]
pub struct VisitSampler {
    /// Per-country cumulative weights over the country's national sites.
    home: HashMap<CountryCode, (Vec<u32>, Vec<f64>)>,
    /// Per-country cumulative weights over the global/foreign pool.
    away: HashMap<CountryCode, Vec<f64>>,
}

impl VisitSampler {
    /// An empty sampler; per-country tables build lazily.
    pub fn new() -> Self {
        VisitSampler::default()
    }

    fn home_for(&mut self, country: CountryCode, graph: &WebGraph) -> &(Vec<u32>, Vec<f64>) {
        self.home.entry(country).or_insert_with(|| {
            let mut ids = Vec::new();
            let mut cum = Vec::new();
            let mut acc = 0.0;
            for p in &graph.publishers {
                if p.audience == Audience::National(country) {
                    ids.push(p.id.0);
                    acc += p.popularity;
                    cum.push(acc);
                }
            }
            (ids, cum)
        })
    }

    fn away_for(
        &mut self,
        country: CountryCode,
        graph: &WebGraph,
        foreign_site_damping: f64,
    ) -> &[f64] {
        self.away.entry(country).or_insert_with(|| {
            let mut acc = 0.0;
            graph
                .publishers
                .iter()
                .map(|p| {
                    let factor = match p.audience {
                        Audience::Global => 1.0,
                        // Home sites live in the home stage; excluded here.
                        Audience::National(c) if c == country => 0.0,
                        Audience::National(_) => foreign_site_damping,
                    };
                    acc += p.popularity * factor;
                    acc
                })
                .collect()
        })
    }

    /// Draws one publisher for a user in `country`.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        country: CountryCode,
        graph: &WebGraph,
        home_visit_share: f64,
        foreign_site_damping: f64,
        rng: &mut R,
    ) -> PublisherId {
        if rng.gen::<f64>() < home_visit_share {
            let (ids, cum) = self.home_for(country, graph);
            if let Some(&total) = cum.last() {
                if total > 0.0 {
                    let x = rng.gen::<f64>() * total;
                    let idx = cum.partition_point(|&c| c < x).min(cum.len() - 1);
                    return PublisherId(ids[idx]);
                }
            }
            // No national sites for this country: fall through to global.
        }
        let cum = self.away_for(country, graph, foreign_site_damping);
        let total = *cum.last().expect("publishers exist");
        let x = rng.gen::<f64>() * total;
        let idx = cum.partition_point(|&c| c < x).min(cum.len() - 1);
        PublisherId(idx as u32)
    }
}

/// Simulates one contiguous run of users. Each user gets an independent
/// hash-derived RNG stream (`derive_stream_seed(study_seed, user_id)`) and
/// starts from an empty stub-resolver cache (the shard's one [`DnsCache`],
/// reset per user), so this function's output depends only on
/// `(study_seed, the users given)` — never on which shard, thread, or
/// order it runs in. The returned chunk is the run's alone and pre-fault:
/// [`StudyCtx::simulate_users`] merges the runs, then applies the log
/// faults and the generated/delivered counts.
#[allow(clippy::too_many_arguments)]
fn simulate_shard(
    shard: &[User],
    cfg: &StudyConfig,
    graph: &WebGraph,
    view: &IndexedZoneView<'_>,
    inj: &FaultInjector,
    study_seed: u64,
    mean_activity: f64,
    window_len: u64,
) -> StudyChunk {
    let engine = RenderEngine::new(graph, cfg.render);
    // Sampler tables are deterministic functions of the graph (no RNG), so
    // a per-shard instance reproduces the shared sequential tables.
    let mut sampler = VisitSampler::new();
    let mut out = StudyChunk {
        visits: Vec::new(),
        requests: Vec::new(),
        observations: Vec::new(),
        report: DegradationReport::default(),
    };
    let mut cache = DnsCache::new();
    let visit_budget = |user: &User| {
        ((cfg.visits_per_user_mean * user.activity / mean_activity).round() as usize).max(1)
    };
    let mut visits_left: usize = shard.iter().map(visit_budget).sum();
    out.visits.reserve_exact(visits_left);
    for user in shard {
        let mut urng = StdRng::seed_from_u64(derive_stream_seed(study_seed, user.id.0 as u64));
        cache.reset_for_user(study_seed, user.id.0 as u64);
        let n_visits = visit_budget(user);
        for _ in 0..n_visits {
            reserve_log(&mut out.requests, out.visits.len(), visits_left);
            visits_left -= 1;
            let t = SimTime(cfg.window.start.0 + urng.gen_range(0..window_len));
            let pid = sampler.sample(
                user.country,
                graph,
                cfg.home_visit_share,
                cfg.foreign_site_damping,
                &mut urng,
            );
            let publisher = graph.publisher(pid);
            out.visits.push(Visit {
                user: user.id,
                publisher: pid,
                time: t,
            });
            engine.render_visit_cached(
                user,
                publisher,
                t,
                view,
                &mut cache,
                &mut out.requests,
                &mut urng,
                inj,
                &mut out.report,
            );
        }
        // The user's would-have-been sensor observations replay centrally
        // afterwards, in user order.
        out.observations.extend(cache.drain_id_observations());
    }
    out
}

/// Sizes the request log from the visit budget. When the log is nearly
/// full, it is extended to the requests the `visits_left` visits will log
/// at the rate of the `visits_done` so far (two a visit before the first),
/// plus a sixteenth. Doubling instead would leave up to half the log's
/// capacity unused at the study's high-water mark.
fn reserve_log(requests: &mut Vec<LoggedRequest>, visits_done: usize, visits_left: usize) {
    // Room for a visit's requests; a visit that logs more falls back to
    // the vector's doubling.
    const ROOM: usize = 256;
    if requests.capacity() - requests.len() >= ROOM {
        return;
    }
    let per_visit = if visits_done == 0 { 2.0 } else { requests.len() as f64 / visits_done as f64 };
    let more = (per_visit * visits_left as f64 * 17.0 / 16.0) as usize;
    requests.reserve_exact(more + ROOM);
}

/// What one append-only chunk of the study produces — the unit of work the
/// streaming ingestion path checkpoints after.
///
/// Everything is local to the chunk: request indices (and cascade
/// referrers into them) start at 0 and are already post-fault compacted,
/// counters count only the chunk's own events, and pDNS observations are
/// buffered for ordered replay at finalization. Appending chunks in user
/// order — rebasing referrers by the running request count — reproduces
/// the batch log byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyChunk {
    /// First-party page views, in generation (user-major) order.
    pub visits: Vec<Visit>,
    /// Logged requests, faults applied, referrers chunk-local.
    pub requests: Vec<LoggedRequest>,
    /// Buffered pDNS sensor observations, in user order.
    pub observations: Vec<PdnsIdObservation>,
    /// Counter deltas (including `requests_generated`/`_delivered`) for
    /// exactly this chunk; absorb into the run's report.
    pub report: DegradationReport,
}

/// The session-long state the per-chunk study simulation shares: the
/// generated population, the drawn `study_seed`, the population-wide mean
/// activity, and the read-only indexed DNS view.
///
/// Built once per run (batch or streaming); [`StudyStream::simulate_chunk`]
/// then simulates any contiguous user range independently. Chunking is a
/// pure availability knob for the same reason the thread budget is a pure
/// performance knob (DESIGN.md §5d): each user draws from a private
/// hash-derived RNG stream and resolves through a private cache, so a
/// user's output never depends on which chunk — or how large a chunk —
/// simulated them.
pub struct StudyStream<'a> {
    ctx: StudyCtx<'a>,
    users: UserPopulation,
}

/// The population-independent share of the study session: config, graph,
/// DNS view, `study_seed` and the population-wide mean activity.
///
/// [`StudyStream`] owns one next to its materialized population; the
/// out-of-core driver (`xborder::worldscale`) builds one directly and
/// feeds it regenerated user segments, never holding the population —
/// both paths run the same [`StudyCtx::simulate_users`], so segmenting
/// cannot change a single byte of output.
pub struct StudyCtx<'a> {
    cfg: &'a StudyConfig,
    graph: &'a WebGraph,
    view: IndexedZoneView<'a>,
    study_seed: u64,
    mean_activity: f64,
    window_len: u64,
}

impl<'a> StudyCtx<'a> {
    /// Builds the shared session state. `mean_activity` must be the
    /// *population-wide* mean (never a per-segment mean — visit budgets
    /// normalize by it, so a segment-local figure would make segment size
    /// observable).
    pub fn new(
        cfg: &'a StudyConfig,
        graph: &'a WebGraph,
        view: IndexedZoneView<'a>,
        study_seed: u64,
        mean_activity: f64,
    ) -> StudyCtx<'a> {
        StudyCtx {
            cfg,
            graph,
            view,
            study_seed,
            mean_activity,
            window_len: cfg.window.len_secs().max(1),
        }
    }

    /// Simulates `chunk_users` as one append-only chunk.
    ///
    /// `pre_fault_offset` is the total number of requests *generated*
    /// (pre-fault) by all earlier chunks: post-hoc log-loss coins key on
    /// the global pre-fault request index, so the chunk must know where in
    /// the global sequence its requests fall. Referrers in the returned
    /// chunk are chunk-local (they never cross users, hence never chunks).
    /// The users shard over `threads` contiguous runs ([`shard_map`]).
    pub fn simulate_users(
        &self,
        chunk_users: &[User],
        inj: &FaultInjector,
        threads: usize,
        pre_fault_offset: u64,
    ) -> StudyChunk {
        // Merge in user order: appending runs 2.. onto run 1's vectors,
        // with referrers rebased, reproduces the single-run vectors exactly.
        let mut runs = shard_map(chunk_users.len(), threads, |r| {
            self.simulate(&chunk_users[r], inj)
        })
        .into_iter();
        let mut out = runs.next().expect("shard_map returns at least one run");
        for run in runs {
            let offset = out.requests.len() as u32;
            out.visits.extend(run.visits);
            out.requests.extend(run.requests.into_iter().map(|mut r| {
                if let Referrer::Request(RequestId(p)) = r.referrer {
                    r.referrer = Referrer::Request(RequestId(p + offset));
                }
                r
            }));
            out.observations.extend(run.observations);
            out.report.absorb_counters(&run.report);
        }
        // The request log was sized from the visit budget with a sixteenth
        // to spare (and merged runs grew by doubling), and the chunk
        // outlives this call (the batch log, the segment driver's classify
        // and block), so the slack goes back.
        out.visits.shrink_to_fit();
        out.requests.shrink_to_fit();
        out.observations.shrink_to_fit();

        out.report.requests_generated += out.requests.len() as u64;
        if inj.is_active() {
            let cutoff = truncation_cutoff(&self.cfg.window);
            out.requests = apply_log_faults(
                out.requests,
                inj,
                &mut out.report,
                cutoff,
                pre_fault_offset,
            );
            out.visits
                .retain(|v| !(inj.log_truncated(v.user.0 as u64) && v.time.0 >= cutoff.0));
        }
        out.report.requests_delivered += out.requests.len() as u64;
        out
    }

    fn simulate(&self, shard: &[User], inj: &FaultInjector) -> StudyChunk {
        simulate_shard(
            shard,
            self.cfg,
            self.graph,
            &self.view,
            inj,
            self.study_seed,
            self.mean_activity,
            self.window_len,
        )
    }
}

impl<'a> StudyStream<'a> {
    /// Prepares a chunked study over an already-generated population.
    ///
    /// `study_seed` must be the draw that followed population generation
    /// on the caller's world RNG (see [`run_study_sharded`]); `dns` is
    /// borrowed read-only for the stream's lifetime — observations are
    /// buffered per chunk and absorbed by the caller afterwards.
    pub fn new(
        cfg: &'a StudyConfig,
        graph: &'a WebGraph,
        dns: &'a DnsSim,
        users: UserPopulation,
        study_seed: u64,
    ) -> StudyStream<'a> {
        Self::with_view(cfg, graph, dns.indexed_view(graph.domains()), users, study_seed)
    }

    /// [`StudyStream::new`] over an externally built zone view — the
    /// split-borrow variant for callers that need the DNS sensor mutable
    /// between chunks (`DnsSim::indexed_view_and_pdns`) while the zones
    /// stay borrowed read-only here.
    pub fn with_view(
        cfg: &'a StudyConfig,
        graph: &'a WebGraph,
        view: IndexedZoneView<'a>,
        users: UserPopulation,
        study_seed: u64,
    ) -> StudyStream<'a> {
        StudyStream {
            ctx: StudyCtx::new(cfg, graph, view, study_seed, users.mean_activity()),
            users,
        }
    }

    /// Number of users in the population (the stream's total extent).
    pub fn n_users(&self) -> usize {
        self.users.users.len()
    }

    /// The recruited population.
    pub fn users(&self) -> &UserPopulation {
        &self.users
    }

    /// Simulates users `user_range` as one append-only chunk — see
    /// [`StudyCtx::simulate_users`] (this is that, over the owned
    /// population's slice).
    pub fn simulate_chunk(
        &self,
        user_range: std::ops::Range<usize>,
        inj: &FaultInjector,
        threads: usize,
        pre_fault_offset: u64,
    ) -> StudyChunk {
        self.ctx
            .simulate_users(&self.users.users[user_range], inj, threads, pre_fault_offset)
    }

    /// Consumes the stream, releasing the DNS borrow and yielding the
    /// population for the final dataset.
    pub fn into_users(self) -> UserPopulation {
        self.users
    }
}

/// Runs the full study — generates the population, simulates every visit
/// and returns the dataset — over a thread budget: the parallel study
/// driver (DESIGN.md §5d). Every resolution's observation is replayed into
/// `dns`'s passive-DNS sensor.
///
/// Two fault layers apply:
///
/// * **In-path** (during rendering): resolver timeouts with bounded retry
///   and sim-clock backoff — a request whose resolution fails outright
///   never enters the log, and its cascade children fall back to the page
///   as referrer.
/// * **Post-hoc** (at the log layer): per-entry log loss and per-user log
///   truncation drop entries *after* generation — the request happened
///   (its DNS resolution fed the pDNS sensor) but never reached the
///   collection server. Referrers pointing at dropped entries are remapped
///   to [`Referrer::FirstParty`], mirroring what a real log-joiner sees
///   when a parent entry is missing.
///
/// With an inactive injector neither layer draws a coin.
///
/// The thread budget is a pure performance knob: every budget produces
/// bit-identical datasets, reports and pDNS state. That invariance rests
/// on three mechanisms:
///
/// 1. **Per-user RNG streams.** The caller's `rng` is consumed exactly
///    twice (population generation, then one `study_seed` draw); each
///    user's visits then draw from a private stream seeded by
///    `derive_stream_seed(study_seed, user_id)` — the same hash-derived
///    construction `xborder-faults` uses for fault coins.
/// 2. **A shardable DNS layer.** Shards resolve against a shared
///    read-only [`IndexedZoneView`] through a [`DnsCache`] reset per user (the
///    paper's per-client caching, Sect. 5.1); cache-miss lookups use RNG derived
///    from `(user stream, host, time)`, and pDNS observations are
///    buffered and replayed into `dns` in user order after the join.
/// 3. **Order-restoring merges.** Shards cover contiguous user ranges;
///    their local vectors concatenate in user order with cascade referrer
///    indices rebased by the shard's request offset (referrers never
///    cross users, so rebasing is a pure shift). Report counters are
///    commutative sums. Post-hoc log faults key on global request index
///    and run after the merge, so they see identical state at any budget.
///
/// Structurally this is the streaming ingestion path run as one
/// whole-population chunk: [`StudyStream::simulate_chunk`] over
/// `0..n_users` at offset 0, followed by the same finalization
/// (observation replay, counter absorption, timestamp sort). The
/// checkpointed path in `xborder`'s `stream` module cuts the same
/// machinery into many chunks; both produce bit-identical datasets.
pub fn run_study_sharded<R: Rng>(
    cfg: &StudyConfig,
    graph: &WebGraph,
    dns: &mut DnsSim,
    rng: &mut R,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    threads: usize,
) -> ExtensionDataset {
    let users = UserPopulation::generate(&cfg.population, rng);
    let study_seed: u64 = rng.gen();

    // The stream's indexed view borrows `dns` and the graph's interner; it
    // lives in this block so the borrow ends before observations are
    // absorbed back.
    let (chunk, users) = {
        let stream = StudyStream::new(cfg, graph, dns, users, study_seed);
        let chunk = stream.simulate_chunk(0..stream.n_users(), inj, threads, 0);
        (chunk, stream.into_users())
    };
    dns.absorb_id_observations(&chunk.observations, graph.domains());
    report.absorb_counters(&chunk.report);

    // Logs arrive at the collection server in timestamp order. The
    // pre-sort order (user-major, generation order within a user) is the
    // same at every thread budget, so this stable sort is too.
    // (Requests keep generation order because cascade referrers are
    // positional; visits can be sorted freely.)
    let mut visits = chunk.visits;
    visits.sort_by_key(|v| v.time);

    ExtensionDataset {
        users,
        visits,
        requests: chunk.requests,
        domains: graph.domains().clone(),
    }
}

/// A truncated user's log stops 3/4 of the way through the study window
/// (upload pipeline died; everything after never reached the server).
fn truncation_cutoff(window: &TimeWindow) -> SimTime {
    SimTime(window.start.0 + window.len_secs() / 4 * 3)
}

/// Applies per-entry log loss and per-user truncation to a generated
/// request log, remapping referrers so surviving entries stay consistent:
/// a child whose parent entry was dropped refers to the first party, and
/// surviving `Referrer::Request` indices are rewritten to the compacted
/// positions.
///
/// `offset` is the chunk's position in the global pre-fault request
/// sequence: loss coins key on `offset + local index`, so chunk-local
/// application is exact — the same requests drop whether faults run once
/// over the whole log (batch, offset 0) or chunk by chunk (streaming).
fn apply_log_faults(
    requests: Vec<LoggedRequest>,
    inj: &FaultInjector,
    report: &mut DegradationReport,
    cutoff: SimTime,
    offset: u64,
) -> Vec<LoggedRequest> {
    let mut keep = vec![true; requests.len()];
    for (i, r) in requests.iter().enumerate() {
        if inj.log_truncated(r.user.0 as u64) && r.time.0 >= cutoff.0 {
            keep[i] = false;
            report.requests_dropped_truncation += 1;
        } else if inj.log_lost(offset + i as u64) {
            keep[i] = false;
            report.requests_dropped_loss += 1;
        }
    }
    let mut new_idx = vec![u32::MAX; requests.len()];
    let mut kept = Vec::with_capacity(requests.len());
    for (i, mut r) in requests.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Referrer::Request(RequestId(p)) = r.referrer {
            // Referrers always point backwards, so the parent's fate and
            // compacted index are already known.
            r.referrer = if keep[p as usize] {
                Referrer::Request(RequestId(new_idx[p as usize]))
            } else {
                Referrer::FirstParty
            };
        }
        new_idx[i] = kept.len() as u32;
        kept.push(r);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_dns::{MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_geo::WORLD;
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, WebGraphConfig};

    fn wire_all(graph: &WebGraph, dns: &mut DnsSim) {
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                let ip = std::net::Ipv4Addr::from(0x0200_0000u32 + next);
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: std::net::IpAddr::V4(ip),
                        country: de.code,
                        location: de.centroid(),
                        valid: None,
                    }],
                    policy: MappingPolicy::Pinned,
                    ttl_secs: 300,
                })
                .unwrap();
            }
        }
    }

    /// One fault-free study over a freshly generated small world at a
    /// given thread budget, with its report and the replayed simulator.
    fn run_sharded(
        seed: u64,
        threads: usize,
    ) -> (WebGraph, ExtensionDataset, DegradationReport, DnsSim) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        wire_all(&graph, &mut dns);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        let ds = run_study_sharded(
            &StudyConfig::small(),
            &graph,
            &mut dns,
            &mut rng,
            &inj,
            &mut report,
            threads,
        );
        (graph, ds, report, dns)
    }

    fn run_small(seed: u64) -> (WebGraph, ExtensionDataset) {
        let (graph, ds, _, _) = run_sharded(seed, 1);
        (graph, ds)
    }

    #[test]
    fn study_produces_consistent_stats() {
        let (_, ds) = run_small(1);
        let stats = ds.stats();
        assert_eq!(stats.n_users, 40);
        assert!(stats.n_first_party_requests >= 40);
        assert_eq!(stats.n_first_party_requests, ds.visits.len());
        assert_eq!(stats.n_third_party_requests, ds.requests.len());
        assert!(stats.n_third_party_requests > stats.n_first_party_requests,
            "third-party requests should dominate");
        assert!(stats.n_third_party_domains > 50);
    }

    #[test]
    fn study_is_deterministic() {
        let (_, a) = run_small(9);
        let (_, b) = run_small(9);
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.visits, b.visits);
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.ip, y.ip);
        }
    }

    #[test]
    fn visits_fall_in_window() {
        let (_, ds) = run_small(2);
        let w = StudyConfig::small().window;
        for v in &ds.visits {
            assert!(w.contains(v.time));
        }
    }

    #[test]
    fn national_users_visit_home_sites_more() {
        let (graph, ds) = run_small(3);
        // Count, per user country, the share of visits to national sites of
        // that same country vs foreign national sites.
        let mut home = 0usize;
        let mut foreign = 0usize;
        for v in &ds.visits {
            let p = graph.publisher(v.publisher);
            if let Audience::National(c) = p.audience {
                if c == ds.user_country(v.user) {
                    home += 1;
                } else {
                    foreign += 1;
                }
            }
        }
        assert!(home > foreign, "home {home} vs foreign {foreign}");
    }

    #[test]
    fn pdns_sensor_saw_resolutions() {
        let (_, ds, _, dns) = run_sharded(4, 1);
        assert!(!dns.pdns().is_empty());
        assert!(dns.pdns().len() <= ds.stats().n_third_party_domains.max(1) * 2);
    }

    #[test]
    fn observed_ips_are_a_subset_of_wired_ips() {
        let (_, ds) = run_small(5);
        for ip in ds.observed_ips() {
            assert!(xborder_netsim::ip::is_simulator_address(ip));
        }
    }

    #[test]
    fn requests_per_publisher_sums_to_total() {
        let (_, ds) = run_small(6);
        let total: usize = ds.requests_per_publisher().values().sum();
        assert_eq!(total, ds.requests.len());
    }

    #[test]
    fn user_country_lookup_is_fallible_out_of_range() {
        let (_, ds) = run_small(7);
        let n = ds.users.users.len();
        assert!(ds.try_user_country(UserId(0)).is_some());
        assert!(ds.try_user_country(UserId(n as u32)).is_none());
    }

    #[test]
    fn thread_budget_is_invisible_in_output() {
        let (_, a, ra, dns_a) = run_sharded(11, 1);
        for threads in [2, 3, 8, 64] {
            let (_, b, rb, dns_b) = run_sharded(11, threads);
            assert_eq!(a.visits, b.visits, "visits differ at {threads} threads");
            assert_eq!(
                a.requests.len(),
                b.requests.len(),
                "request count differs at {threads} threads"
            );
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert_eq!(x.url, y.url);
                assert_eq!(x.ip, y.ip);
                assert_eq!(x.referrer, y.referrer);
                assert_eq!(x.time, y.time);
            }
            // Per-shard caches merge hit/miss counters to sequential totals.
            assert_eq!(ra.dns_cache_hits, rb.dns_cache_hits);
            assert_eq!(ra.dns_cache_misses, rb.dns_cache_misses);
            assert_eq!(ra.dns_attempts, rb.dns_attempts);
            // The replayed pDNS state matches too.
            assert_eq!(dns_a.pdns().len(), dns_b.pdns().len());
        }
        assert!(ra.dns_cache_hits > 0, "cache never hit in a whole study");
        assert!(ra.dns_cache_misses > 0);
    }
}
