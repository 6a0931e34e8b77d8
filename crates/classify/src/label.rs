//! The slice labeller both classifiers run (paper Sect. 3.2).
//!
//! [`Labeller`] labels one request slice at a time: [`crate::classify`]
//! runs a fresh one over a whole borrowed log, and
//! [`crate::IncrementalClassifier`] keeps one across a stream's chunks.
//! The two differ only in how a URL gets its id in the state bytes
//! ([`UrlIds`]): batch uses the slice's own URL ranks, the incremental
//! classifier stream-global ids from its owned URL store. The rest runs
//! here, once:
//!
//! - [`ChunkIndex`] dedups a slice's URLs on their compact keys in one
//!   pass and extracts its referrer edges, and the host table maps each
//!   distinct URL's world host to a dense id, resolving every new host once
//!   through the compiled [`RuleEngine`] to its [`HostRow`];
//! - stage 1 decides each distinct URL once, sharded over the thread
//!   budget and memoized in the URL's state byte, and its verdicts are
//!   projected onto the requests;
//! - [`semi_automatic`] runs stage 2 (referrer propagation over URLs with
//!   arguments) and stage 3 (keywords);
//! - [`Tally::absorb`] adds the slice's labels to the Table-2 counts
//!   through host/TLD/URL seen-bits.
//!
//! Per-URL predicates and seen-bits share one state byte per URL
//! ([`UrlStates`], [`memo_get`]).

use crate::classifier::{Classification, ClassifierStages, MethodCounts};
use crate::engine::{HostRow, KeywordScanner, RuleEngine};
use crate::incremental::ChunkClassification;
use crate::rules::FilterList;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::mem::size_of;
use xborder_browser::{LoggedRequest, Referrer, UrlKey};
use xborder_faults::shard_map;
use xborder_webgraph::{DomainId, DomainTable, FxHasher};

/// Sentinel in [`ChunkIndex::referrer_of`] for "no positional referrer".
const NO_REFERRER: u32 = u32::MAX;

/// Tri-state memo values of a state-byte field.
const MEMO_UNKNOWN: u8 = 0;
const MEMO_NO: u8 = 1;
pub(crate) const MEMO_YES: u8 = 2;

/// Bit offsets of the 2-bit fields of a URL's state byte: the argument,
/// keyword and URL-dependent stage-1 memos, and the Table-2 seen-bits
/// (bit 0 = ABP, bit 1 = semi).
pub(crate) const ARGS: u32 = 0;
pub(crate) const KW: u32 = 2;
pub(crate) const GATE: u32 = 4;
pub(crate) const SEEN: u32 = 6;

/// One state byte per URL id. The batch classifier keeps them in a slice
/// sized for the log, the incremental one in pages that never move.
pub(crate) trait UrlStates {
    fn state(&self, url: usize) -> u8;
    fn set_state(&mut self, url: usize, state: u8);
}

impl UrlStates for [u8] {
    #[inline]
    fn state(&self, url: usize) -> u8 {
        self[url]
    }

    #[inline]
    fn set_state(&mut self, url: usize, state: u8) {
        self[url] = state;
    }
}

/// Tri-state memo lookup in the `field` bits of a URL's state byte:
/// unknown until first asked, then cached. Every memoized predicate is a
/// pure function of the URL string (so of its compact key), so filling
/// lazily is invisible in the output — and stage 2 only asks about
/// requests whose parent is tracking, stage 3 only about requests still
/// clean, a small minority of the URLs.
fn memo_get<S: UrlStates + ?Sized>(
    states: &mut S,
    url: usize,
    field: u32,
    eval: impl FnOnce() -> bool,
) -> bool {
    let s = states.state(url);
    match (s >> field) & 3 {
        MEMO_UNKNOWN => {
            let hit = eval();
            let memo = if hit { MEMO_YES } else { MEMO_NO };
            states.set_state(url, s | memo << field);
            hit
        }
        m => m == MEMO_YES,
    }
}

/// Each request's URL id in the state bytes: its slice-local rank, or, for
/// ids that outlive the slice, the id a rank-indexed table gives it.
#[derive(Clone, Copy)]
pub(crate) struct UrlIds<'a> {
    /// Request -> slice-local URL rank ([`ChunkIndex::url_of`]).
    ranks: &'a [u32],
    /// Rank -> stream-global id; `None` when the ranks are the ids.
    global: Option<&'a [u32]>,
}

impl UrlIds<'_> {
    /// The id of the URL with rank `k`.
    #[inline]
    fn of_rank(self, k: usize) -> usize {
        self.global.map_or(k, |ids| ids[k] as usize)
    }

    /// The id of request `i`'s URL.
    #[inline]
    fn of(self, i: usize) -> usize {
        self.of_rank(self.ranks[i] as usize)
    }
}

/// The dense view of one request slice: slice-local URL ids and referrer
/// positions, built by one pass over an open-addressing dedup table.
///
/// URLs are deduped on their compact [`UrlKey`]s, never on rendered bytes:
/// two rows render equal strings exactly when their keys are equal, and a
/// key is a few words read from the row itself, so a probe chases no
/// pointer. Two things make the table faster than a general-purpose map
/// here:
/// - slots are 12 bytes (tag, id, last occurrence) and the table is sized
///   for the slice up front at under 3/4 load, so it never grows;
/// - equality is checked against the *most recent* row with the URL, not
///   the first, which is usually still in cache.
///
/// Lookups stay exact: a 32-bit hash tag only short-circuits the key
/// comparison, it never replaces it. URL ids are first-occurrence ranks,
/// so walking them in order preserves first-occurrence order. The buffers
/// are reused from slice to slice.
#[derive(Default)]
pub(crate) struct ChunkIndex {
    slots: Vec<IndexSlot>,
    mask: usize,
    /// Whether `build` keeps [`ChunkIndex::hashes`].
    keep_hashes: bool,
    /// Request -> slice-local URL id.
    pub(crate) url_of: Vec<u32>,
    /// URL id -> its first request.
    pub(crate) first: Vec<u32>,
    /// URL id -> its [`key_hash`], for an index made by
    /// [`ChunkIndex::keeping_hashes`]; empty otherwise.
    pub(crate) hashes: Vec<u64>,
    /// Request -> referrer position, or [`NO_REFERRER`] for first-party
    /// and absent referrers.
    pub(crate) referrer_of: Vec<u32>,
}

/// `id1` is the URL id plus one (0 = empty slot); `last` is the most
/// recent request that carried the URL.
#[derive(Clone, Copy, Default)]
struct IndexSlot {
    tag: u32,
    id1: u32,
    last: u32,
}

/// The dedup table's hash of a compact key.
pub(crate) fn key_hash(key: &UrlKey) -> u64 {
    std::hash::BuildHasherDefault::<FxHasher>::default().hash_one(key)
}

impl ChunkIndex {
    /// An index whose `build` also keeps each URL's hash, for a caller
    /// that probes a second table with it.
    pub(crate) fn keeping_hashes() -> ChunkIndex {
        ChunkIndex {
            keep_hashes: true,
            ..ChunkIndex::default()
        }
    }

    /// Indexes `requests`, replacing the previous slice's view.
    ///
    /// The dedup table is a random probe per request, so the key
    /// HASH_AHEAD rows out is hashed early and its slot pulled into cache,
    /// leaving the probe at row `i` to hit a warm line. `ring` carries the
    /// HASH_AHEAD in-flight hashes.
    pub(crate) fn build(&mut self, requests: &[LoggedRequest]) {
        let n = requests.len();
        // Under 3/4 load for `n` insertions, so no grow path. A larger
        // table from an earlier slice is kept: table size only shifts
        // probe positions, never ids.
        let want = (n * 4 / 3 + 1).max(16).next_power_of_two();
        if self.slots.len() < want {
            self.slots.clear();
            self.slots.resize(want, IndexSlot::default());
        } else {
            self.slots.fill(IndexSlot::default());
        }
        self.mask = self.slots.len() - 1;
        self.url_of.clear();
        self.first.clear();
        self.hashes.clear();
        self.referrer_of.clear();
        self.url_of.reserve(n);
        self.referrer_of.reserve(n);

        const HASH_AHEAD: usize = 8;
        let mut ring = [0u64; HASH_AHEAD];
        for (j, slot) in ring.iter_mut().enumerate().take(n.min(HASH_AHEAD)) {
            *slot = key_hash(&requests[j].url_key());
            self.prefetch(*slot);
        }
        for (i, r) in requests.iter().enumerate() {
            let hash = if let Some(ahead) = requests.get(i + HASH_AHEAD) {
                let h = key_hash(&ahead.url_key());
                self.prefetch(h);
                std::mem::replace(&mut ring[i % HASH_AHEAD], h)
            } else {
                ring[i % HASH_AHEAD]
            };
            let u = self.intern(hash, r.url_key(), i as u32, requests);
            self.url_of.push(u);
            self.referrer_of.push(match r.referrer {
                Referrer::Request(parent) => parent.0,
                Referrer::FirstParty | Referrer::None => NO_REFERRER,
            });
        }
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[hash as usize & self.mask].id1);
    }

    /// The URL id of request `i`, assigning the next id on first sight.
    fn intern(&mut self, hash: u64, key: UrlKey, i: u32, requests: &[LoggedRequest]) -> u32 {
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                let u = self.first.len() as u32;
                self.slots[s] = IndexSlot {
                    tag,
                    id1: u + 1,
                    last: i,
                };
                self.first.push(i);
                if self.keep_hashes {
                    self.hashes.push(hash);
                }
                return u;
            }
            if slot.tag == tag && requests[slot.last as usize].url_key() == key {
                self.slots[s].last = i;
                return slot.id1 - 1;
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Bytes held by the table and the views, from their capacities.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<IndexSlot>()
            + (self.url_of.capacity() + self.first.capacity() + self.referrer_of.capacity())
                * size_of::<u32>()
            + self.hashes.capacity() * size_of::<u64>()
    }
}

/// Renders request URLs into one reused buffer, for the predicates that
/// read bytes (the stage-1 URL scan and the stage-3 keyword scan).
struct UrlRenderer<'a> {
    domains: &'a DomainTable,
    buf: String,
}

impl<'a> UrlRenderer<'a> {
    fn new(domains: &'a DomainTable) -> UrlRenderer<'a> {
        UrlRenderer {
            domains,
            buf: String::new(),
        }
    }

    /// `r`'s URL string, valid until the next call.
    fn render(&mut self, r: &LoggedRequest) -> &str {
        self.buf.clear();
        r.write_url(self.domains, &mut self.buf);
        &self.buf
    }
}

/// Stages 2 and 3 over one indexed slice whose stage-1 labels are set.
/// `ids` maps each request to its URL's state byte. Returns the
/// `(stage2_rounds, stage3_rounds)` of [`crate::ClassificationResult`].
///
/// Stage 2 propagates tracking labels along referrer edges. Referrer
/// indices in a compacted log point *backwards* (a parent is logged before
/// its children), so one ordered forward sweep reaches the fixpoint — no
/// repeated whole-log rescans. Should an input ever violate that ordering,
/// the sweep detects the forward edge and falls back to an explicit
/// worklist that runs to true convergence, so deep chains are never
/// silently truncated at a round cap.
///
/// Stage 3 keyword-matches the remaining argument-carrying requests, then
/// re-propagates from exactly the newly labeled requests via the worklist
/// — again to true convergence. `has_keyword` is the keyword scan of a
/// request's URL string; the memo asks it once per URL.
///
/// Referrer edges are positional; children of dropped parents were
/// remapped to `Referrer::FirstParty` by the log compaction, and chains
/// never cross users, so every index is inside the slice (debug-asserted).
fn semi_automatic<S: UrlStates + ?Sized>(
    requests: &[LoggedRequest],
    ids: UrlIds<'_>,
    referrer_of: &[u32],
    labels: &mut [Classification],
    stages: ClassifierStages,
    mut has_keyword: impl FnMut(&LoggedRequest) -> bool,
    states: &mut S,
) -> (usize, usize) {
    let n = requests.len();
    let mut children: Option<ChildIndex> = None;
    let mut stage2_rounds = 0usize;
    if stages.referrer_propagation {
        stage2_rounds = 1;
        let mut forward_edges = false;
        for i in 0..n {
            let p = referrer_of[i] as usize;
            if p == NO_REFERRER as usize {
                continue;
            }
            debug_assert!(
                p < n,
                "referrer index {p} out of range ({n} requests): log compaction must \
                 rewrite surviving referrer indices"
            );
            if p >= i {
                forward_edges = true;
                continue;
            }
            if labels[i].is_tracking() || !labels[p].is_tracking() {
                continue;
            }
            if stages.require_args && !memo_get(states, ids.of(i), ARGS, || requests[i].has_args())
            {
                continue;
            }
            labels[i] = Classification::SemiTracking;
        }
        if forward_edges {
            let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
            let seeds: Vec<usize> = (0..n).filter(|&i| labels[i].is_tracking()).collect();
            stage2_rounds += propagate_worklist(requests, ids, labels, stages, states, idx, seeds);
        }
    }

    let mut stage3_rounds = 0usize;
    if stages.keywords {
        let mut newly: Vec<usize> = Vec::new();
        for i in 0..n {
            if labels[i].is_tracking() {
                continue;
            }
            let u = ids.of(i);
            if !memo_get(states, u, ARGS, || requests[i].has_args())
                || !memo_get(states, u, KW, || has_keyword(&requests[i]))
            {
                continue;
            }
            labels[i] = Classification::SemiTracking;
            newly.push(i);
        }
        if stages.referrer_propagation && !newly.is_empty() {
            let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
            stage3_rounds = propagate_worklist(requests, ids, labels, stages, states, idx, newly);
        }
    }
    (stage2_rounds, stage3_rounds)
}

/// Referrer children adjacency in CSR form, built once on demand.
struct ChildIndex {
    starts: Vec<u32>,
    children: Vec<u32>,
}

impl ChildIndex {
    fn build(referrer_of: &[u32]) -> ChildIndex {
        let n = referrer_of.len();
        let mut counts = vec![0u32; n + 1];
        for &p in referrer_of {
            if p != NO_REFERRER {
                counts[p as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut fill = counts;
        let mut children = vec![0u32; starts[n] as usize];
        for (i, &p) in referrer_of.iter().enumerate() {
            if p != NO_REFERRER {
                children[fill[p as usize] as usize] = i as u32;
                fill[p as usize] += 1;
            }
        }
        ChildIndex { starts, children }
    }

    fn children_of(&self, i: usize) -> &[u32] {
        &self.children[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// BFS worklist propagation from `seeds` (already-tracking requests) to
/// true convergence. Returns the propagation depth (0 when nothing new was
/// labeled). Labels are monotone, so the result is independent of
/// processing order.
fn propagate_worklist<S: UrlStates + ?Sized>(
    requests: &[LoggedRequest],
    ids: UrlIds<'_>,
    labels: &mut [Classification],
    stages: ClassifierStages,
    states: &mut S,
    idx: &ChildIndex,
    seeds: Vec<usize>,
) -> usize {
    let mut queue: VecDeque<(usize, usize)> = seeds.into_iter().map(|i| (i, 0)).collect();
    let mut depth = 0usize;
    while let Some((i, d)) = queue.pop_front() {
        for &c in idx.children_of(i) {
            let c = c as usize;
            if labels[c].is_tracking() {
                continue;
            }
            if stages.require_args && !memo_get(states, ids.of(c), ARGS, || requests[c].has_args())
            {
                continue;
            }
            labels[c] = Classification::SemiTracking;
            depth = depth.max(d + 1);
            queue.push_back((c, d + 1));
        }
    }
    depth
}

/// The Table-2 rows and the host/TLD seen-bits behind them (bit 0 = ABP,
/// bit 1 = semi); the URL seen-bits live in the state bytes. A fresh tally
/// counts one log; a kept one absorbs a stream chunk by chunk, so a host
/// first counted in chunk 0 never counts again in chunk 3.
#[derive(Default)]
pub(crate) struct Tally {
    /// Seen-bits by dense host id.
    pub(crate) host_seen: Vec<u8>,
    /// Seen-bits by engine TLD id.
    pub(crate) tld_seen: Vec<u8>,
    pub(crate) abp: MethodCounts,
    pub(crate) semi: MethodCounts,
}

impl Tally {
    /// Adds one labeled slice: distinctness is a seen-bit per dense id
    /// instead of a hash-set insert, and `rows` carries each host's TLD id,
    /// so `tld()` is never re-derived here. `url_host` is the dense host of
    /// each URL rank.
    fn absorb<S: UrlStates + ?Sized>(
        &mut self,
        labels: &[Classification],
        ids: UrlIds<'_>,
        url_host: &[u32],
        rows: &[HostRow],
        states: &mut S,
    ) {
        for (i, l) in labels.iter().enumerate() {
            let (counts, bit) = match l {
                Classification::AbpTracking => (&mut self.abp, 1u8),
                Classification::SemiTracking => (&mut self.semi, 2u8),
                Classification::Clean => continue,
            };
            counts.n_total_requests += 1;
            let h = url_host[ids.ranks[i] as usize] as usize;
            if self.host_seen[h] & bit == 0 {
                self.host_seen[h] |= bit;
                counts.n_fqdn += 1;
                // A TLD can only first appear alongside a new host (the TLD
                // is a function of the host), so the check nests here.
                let t = rows[h].tld() as usize;
                if self.tld_seen[t] & bit == 0 {
                    self.tld_seen[t] |= bit;
                    counts.n_tld += 1;
                }
            }
            let u = ids.of(i);
            let state = states.state(u);
            if (state >> SEEN) & bit == 0 {
                states.set_state(u, state | bit << SEEN);
                counts.n_unique_urls += 1;
            }
        }
    }
}

/// The slice-labelling front end of both classifiers: the compiled
/// stage-1 engine, the keyword scanner and the stage toggles, the chunk
/// index, the host table, and the Table-2 tally. A fresh one labels one
/// log; a kept one labels a stream chunk by chunk, resolving and counting
/// every host once across the stream.
pub(crate) struct Labeller {
    engine: RuleEngine,
    scanner: KeywordScanner,
    stages: ClassifierStages,
    /// The current slice's index.
    pub(crate) index: ChunkIndex,
    /// URL rank of the current slice -> dense host id.
    pub(crate) url_host: Vec<u32>,
    /// World `DomainId` -> dense host id (`u32::MAX` = unseen), lazily
    /// grown.
    host_remap: Vec<u32>,
    /// Dense host id -> world `DomainId`.
    pub(crate) host_ids: Vec<DomainId>,
    /// Dense host id -> compiled engine row (stage-1 gate and TLD id).
    pub(crate) rows: Vec<HostRow>,
    pub(crate) tally: Tally,
}

impl Labeller {
    /// Compiles the lists once, here; `index` is the (empty) chunk index
    /// every slice is built into.
    pub(crate) fn new(
        easylist: &FilterList,
        easyprivacy: &FilterList,
        stages: ClassifierStages,
        index: ChunkIndex,
    ) -> Labeller {
        Labeller {
            engine: RuleEngine::compile(&[easylist, easyprivacy]),
            scanner: KeywordScanner::new(),
            stages,
            index,
            url_host: Vec::new(),
            host_remap: Vec::new(),
            host_ids: Vec::new(),
            rows: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// The running Table-2 rows `(abp, semi)`.
    pub(crate) fn counts(&self) -> (MethodCounts, MethodCounts) {
        (self.tally.abp, self.tally.semi)
    }

    /// Interns a world host, resolving its engine row (gate and TLD id)
    /// on first sight, and returns its dense id. The tally's host and TLD
    /// seen-bits grow with the table.
    pub(crate) fn intern_host(&mut self, host: DomainId, domains: &DomainTable) -> u32 {
        let hid = host.0 as usize;
        if hid >= self.host_remap.len() {
            self.host_remap.resize(hid + 1, u32::MAX);
        }
        if self.host_remap[hid] != u32::MAX {
            return self.host_remap[hid];
        }
        let h = self.host_ids.len() as u32;
        self.host_remap[hid] = h;
        self.host_ids.push(host);
        self.tally.host_seen.push(0);
        let row = self.engine.host_row(host, domains);
        self.rows.push(row);
        let t = row.tld() as usize;
        if t >= self.tally.tld_seen.len() {
            self.tally.tld_seen.resize(t + 1, 0);
        }
        h
    }

    /// Sizes the host table for `additional` more hosts out of a world of
    /// `n_domains`, so a replay that interns many at once never regrows.
    pub(crate) fn reserve_hosts(&mut self, additional: usize, n_domains: usize) {
        self.host_ids.reserve(additional);
        self.tally.host_seen.reserve(additional);
        self.rows.reserve(additional);
        if self.host_remap.len() < n_domains {
            self.host_remap.resize(n_domains, u32::MAX);
        }
    }

    /// Indexes a slice and interns the host of each of its distinct URLs.
    /// A URL's key holds its host, so equal URLs share a host, and walking
    /// the URLs in rank order assigns host and TLD ids in first-occurrence
    /// order.
    pub(crate) fn index_slice(&mut self, requests: &[LoggedRequest], domains: &DomainTable) {
        self.index.build(requests);
        self.url_host.clear();
        self.url_host.reserve(self.index.first.len());
        for k in 0..self.index.first.len() {
            let host = requests[self.index.first[k] as usize].host;
            let h = self.intern_host(host, domains);
            self.url_host.push(h);
        }
    }

    /// Labels the slice [`Labeller::index_slice`] indexed and adds it to
    /// the tally. `global` gives each URL rank its id in `states`; without
    /// it the ranks are the ids.
    pub(crate) fn label<S: UrlStates + Sync + ?Sized>(
        &mut self,
        requests: &[LoggedRequest],
        global: Option<&[u32]>,
        states: &mut S,
        domains: &DomainTable,
        threads: usize,
    ) -> ChunkClassification {
        let ids = UrlIds {
            ranks: &self.index.url_of,
            global,
        };
        let hit = self.stage1(requests, ids, states, domains, threads);
        let mut labels: Vec<Classification> = ids
            .ranks
            .iter()
            .map(|&k| {
                if hit[k as usize] {
                    Classification::AbpTracking
                } else {
                    Classification::Clean
                }
            })
            .collect();
        let (scanner, mut urls) = (&self.scanner, UrlRenderer::new(domains));
        let (stage2_rounds, stage3_rounds) = semi_automatic(
            requests,
            ids,
            &self.index.referrer_of,
            &mut labels,
            self.stages,
            |r| scanner.matches(urls.render(r)),
            states,
        );
        self.tally
            .absorb(&labels, ids, &self.url_host, &self.rows, states);
        ChunkClassification {
            labels,
            stage2_rounds,
            stage3_rounds,
        }
    }

    /// Stage 1: the blocklist verdict of each distinct URL. Anchor-decided
    /// rows need no URL; the rest take the URL's `GATE` memo, or render
    /// the URL and take one engine scan. The URLs shard over `threads`
    /// contiguous runs ([`shard_map`]), each with its own render buffer;
    /// the engine and the memos are shared read-only, so no run-local
    /// state can diverge, and the new verdicts fill the memos behind them.
    fn stage1<S: UrlStates + Sync + ?Sized>(
        &self,
        requests: &[LoggedRequest],
        ids: UrlIds<'_>,
        states: &mut S,
        domains: &DomainTable,
        threads: usize,
    ) -> Vec<bool> {
        let (engine, first, url_host, rows) =
            (&self.engine, &self.index.first, &self.url_host, &self.rows);
        let memos: &S = states;
        let mut runs = shard_map(first.len(), threads, |run| {
            let mut urls = UrlRenderer::new(domains);
            run.map(|k| {
                let row = rows[url_host[k] as usize];
                row.always()
                    || (!row.never()
                        && match (memos.state(ids.of_rank(k)) >> GATE) & 3 {
                            MEMO_UNKNOWN => {
                                let r = &requests[first[k] as usize];
                                engine.url_verdict(row, domains.domain(r.host), urls.render(r))
                            }
                            m => m == MEMO_YES,
                        })
            })
            .collect::<Vec<bool>>()
        })
        .into_iter();
        let mut hit = runs.next().expect("shard_map returns at least one run");
        for run in runs {
            hit.extend(run);
        }
        for (k, &h) in hit.iter().enumerate() {
            if rows[url_host[k] as usize].url_dependent() {
                memo_get(states, ids.of_rank(k), GATE, || h);
            }
        }
        hit
    }

    /// Bytes held by the host table and the tally's seen-bits, from their
    /// capacities.
    pub(crate) fn host_bytes(&self) -> usize {
        self.host_remap.capacity() * size_of::<u32>()
            + self.host_ids.capacity() * size_of::<DomainId>()
            + self.rows.capacity() * size_of::<HostRow>()
            + self.tally.host_seen.capacity()
            + self.tally.tld_seen.capacity()
    }

    /// Bytes held by the per-slice index and host column, from their
    /// capacities.
    pub(crate) fn slice_bytes(&self) -> usize {
        self.index.resident_bytes() + self.url_host.capacity() * size_of::<u32>()
    }
}
