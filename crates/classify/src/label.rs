//! The labelling core both classifiers run (paper Sect. 3.2).
//!
//! [`crate::classify`] labels a whole borrowed log and
//! [`crate::IncrementalClassifier`] one chunk at a time; both call the
//! functions here and differ only in where their ids and state live:
//!
//! - [`ChunkIndex`] dedups a slice's URLs on their compact keys in one
//!   pass and extracts its referrer edges;
//! - [`semi_automatic`] runs stage 2 (referrer propagation over URLs with
//!   arguments) and stage 3 (keywords) on top of the caller's stage-1
//!   labels;
//! - [`Tally::absorb`] adds the slice's labels to the Table-2 counts
//!   through host/TLD/URL seen-bits.
//!
//! Per-URL predicates and seen-bits share one state byte per URL
//! ([`UrlStates`], [`memo_get`]), indexed by whatever URL id the caller
//! assigns: slice-local ranks for the batch classifier, stream-global ids
//! for the incremental one.

use crate::classifier::{Classification, ClassifierStages, MethodCounts};
use crate::engine::HostRow;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::mem::size_of;
use xborder_browser::{LoggedRequest, Referrer, UrlKey};
use xborder_webgraph::{DomainTable, FxHasher};

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
pub(crate) fn memo_get<S: UrlStates + ?Sized>(
    states: &mut S,
    url: u32,
    field: u32,
    eval: impl FnOnce() -> bool,
) -> bool {
    let s = states.state(url as usize);
    match (s >> field) & 3 {
        MEMO_UNKNOWN => {
            let hit = eval();
            let memo = if hit { MEMO_YES } else { MEMO_NO };
            states.set_state(url as usize, s | memo << field);
            hit
        }
        m => m == MEMO_YES,
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
pub(crate) struct UrlRenderer<'a> {
    domains: &'a DomainTable,
    buf: String,
}

impl<'a> UrlRenderer<'a> {
    pub(crate) fn new(domains: &'a DomainTable) -> UrlRenderer<'a> {
        UrlRenderer {
            domains,
            buf: String::new(),
        }
    }

    /// `r`'s URL string, valid until the next call.
    pub(crate) fn render(&mut self, r: &LoggedRequest) -> &str {
        self.buf.clear();
        r.write_url(self.domains, &mut self.buf);
        &self.buf
    }
}

/// Stages 2 and 3 over one indexed slice whose stage-1 labels are set.
/// `url_of` maps each request to its id in `states`. Returns the
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
pub(crate) fn semi_automatic<S: UrlStates + ?Sized>(
    requests: &[LoggedRequest],
    url_of: &[u32],
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
            if stages.require_args && !memo_get(states, url_of[i], ARGS, || requests[i].has_args())
            {
                continue;
            }
            labels[i] = Classification::SemiTracking;
        }
        if forward_edges {
            let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
            let seeds: Vec<usize> = (0..n).filter(|&i| labels[i].is_tracking()).collect();
            stage2_rounds +=
                propagate_worklist(requests, url_of, labels, stages, states, idx, seeds);
        }
    }

    let mut stage3_rounds = 0usize;
    if stages.keywords {
        let mut newly: Vec<usize> = Vec::new();
        for i in 0..n {
            if labels[i].is_tracking() {
                continue;
            }
            let u = url_of[i];
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
            stage3_rounds =
                propagate_worklist(requests, url_of, labels, stages, states, idx, newly);
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
    url_of: &[u32],
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
            if stages.require_args && !memo_get(states, url_of[c], ARGS, || requests[c].has_args())
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
    /// so `tld()` is never re-derived here.
    pub(crate) fn absorb<S: UrlStates + ?Sized>(
        &mut self,
        labels: &[Classification],
        host_of: &[u32],
        url_of: &[u32],
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
            let h = host_of[i] as usize;
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
            let u = url_of[i] as usize;
            let state = states.state(u);
            if (state >> SEEN) & bit == 0 {
                states.set_state(u, state | bit << SEEN);
                counts.n_unique_urls += 1;
            }
        }
    }
}
