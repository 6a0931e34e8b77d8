//! Delta-fixpoint incremental classifier for the streaming driver.
//!
//! The batch classifier ([`crate::classify_with_stages_threads`]) interns
//! the whole log, labels it, and derives the Table-2 distinct counts in one
//! final pass. The streaming driver ingests the log in append-only chunks,
//! and until this module existed it re-ran the batch classifier per chunk
//! *and* re-interned the full concatenated log once more at finalize to
//! recover the distinct FQDN/TLD/URL counts — ~17% over batch at chunk=5.
//!
//! [`IncrementalClassifier`] closes that gap by persisting the classifier's
//! cross-chunk state between [`IncrementalClassifier::append_chunk`] calls:
//!
//! - the URL interner (owned strings + open-addressing dedup table), the
//!   host remap, and the compiled [`RuleEngine`] with its dense
//!   [`HostRow`] table (DESIGN.md §5h), so every string is hashed, every
//!   host gate-resolved and `tld()`-ed, once per *unique* value across the
//!   whole stream, not once per chunk it appears in — and the engine
//!   itself (automaton, anchor buckets, prefilter) is compiled exactly
//!   once, at construction;
//! - the per-unique-URL predicate memos (argument presence, keyword
//!   verdict, URL-dependent stage-1 gate verdict) — all pure functions of
//!   the URL string, so a memo filled in chunk 0 is exact in chunk 40;
//! - the Table-2 seen-bit arrays and running [`MethodCounts`], making the
//!   counts absorbable per chunk: finalize no longer re-walks anything.
//!
//! The propagation stages still run the PR 2 worklist, but only over the
//! frontier the new chunk introduces: referrer edges are positional within
//! a chunk and never cross users (hence never cross chunk boundaries —
//! chunks are whole-user ranges), so the fixpoint over the concatenated log
//! decomposes exactly into per-chunk fixpoints. Labels are monotone
//! (Clean → Semi/AbpTracking, never back), so a chunk's labels are final
//! the moment the chunk is processed.
//!
//! # Determinism
//!
//! Feeding chunks in log order reproduces the batch classifier bit for
//! bit, for every chunking: a URL's (and host's, and TLD's) dense id is
//! its global first-occurrence rank either way, the stage verdicts are
//! per-request or per-chunk-closed, and the absorbed counts walk requests
//! in the same global order over the same seen-bits as the batch
//! `method_counts_both` pass. `tests/streaming_resume.rs` pins this
//! against the batch fingerprints.
//!
//! # Serialization
//!
//! [`IncrementalClassifier::encode_delta`]/[`IncrementalClassifier::apply_delta`]
//! move the state through the `xborder-checkpoint` codec so a killed
//! streaming run resumes without re-deriving it (format: DESIGN.md §5g).
//! Each delta carries only what changed since the previous one — new
//! unique URLs/hosts plus the sparse memo/seen-bit mutations to older
//! entries — so the total serialized volume across a stream is O(unique
//! values), not O(chunks × state). Replaying a checkpoint applies the
//! chunk deltas in order, which reconstructs the exact live state. Gates,
//! TLD ids and the dedup table are *rebuilt* on apply from the stored
//! unique strings — they are deterministic functions of (filter lists,
//! domain table), both of which the resuming process re-derives from the
//! seed before the store is opened.

use crate::classifier::{url_hash, ChildIndex, Classification, ClassifierStages, MethodCounts, NO_REFERRER};
use crate::engine::{HostRow, KeywordScanner, RuleEngine};
use crate::rules::FilterList;
use std::collections::VecDeque;
use xborder_browser::{LoggedRequest, Referrer};
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_webgraph::{DomainId, DomainTable};

/// Tri-state memo values (shared by the args/keyword/gate memos).
const MEMO_UNKNOWN: u8 = 0;
const MEMO_NO: u8 = 1;
const MEMO_YES: u8 = 2;

/// One chunk's classification, emitted by
/// [`IncrementalClassifier::append_chunk`]. `labels` is parallel to the
/// chunk's request slice; the rounds fields have the same per-chunk
/// semantics as [`crate::ClassificationResult`], so the streaming driver
/// reassembles whole-log rounds the same way it did for per-chunk batch
/// classification (`1 + max(stage2 - 1)` / `max(stage3)`).
#[derive(Debug, Clone)]
pub struct ChunkClassification {
    /// Per-request labels, parallel to the chunk slice.
    pub labels: Vec<Classification>,
    /// Stage-2 sweep count for this chunk (1 = ordered sweep sufficed).
    pub stage2_rounds: usize,
    /// Post-keyword re-propagation depth for this chunk.
    pub stage3_rounds: usize,
}

/// Owned unique-URL store: one contiguous byte buffer plus per-id spans.
///
/// The batch interner never copies a URL — it borrows equality targets
/// from the request log. Across chunks the log is gone, so the classifier
/// must own one copy per unique URL; an arena makes that ownership an
/// amortized byte append instead of a per-string allocation, and keeps
/// cold equality probes walking one linear buffer.
#[derive(Default)]
struct UrlArena {
    bytes: Vec<u8>,
    spans: Vec<(usize, u32)>,
}

impl UrlArena {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn push(&mut self, url: &str) {
        self.spans.push((self.bytes.len(), url.len() as u32));
        self.bytes.extend_from_slice(url.as_bytes());
    }

    fn bytes_of(&self, id: usize) -> &[u8] {
        let (off, len) = self.spans[id];
        &self.bytes[off..off + len as usize]
    }

    fn str_of(&self, id: usize) -> &str {
        std::str::from_utf8(self.bytes_of(id)).expect("arena bytes come from pushed &str")
    }
}

/// Cross-chunk dedup table over the classifier's owned URL strings —
/// level two of the two-level intern (see `append_chunk`). Same load
/// factor and linear probing as the batch `UrlTable`, so ids are assigned
/// in the same first-occurrence order, but it is only ever probed once
/// per *chunk-distinct* URL (the chunk-local [`ScratchSlots`] absorbs all
/// within-chunk repeats), so its slots carry no occurrence index — 8
/// bytes, equality always against the owned arena.
struct UrlSlots {
    slots: Vec<Slot>,
    mask: usize,
    len: u32,
    /// Interned id -> full 64-bit hash, dense. Kept so a table grow is a
    /// sequential re-insert of (hash, id) pairs instead of re-hashing
    /// every owned string through cold arena reads — on the streaming
    /// workload each of those rehashes cost multiple milliseconds (the
    /// arena is several MB by the time the table crosses a power of two).
    hashes: Vec<u64>,
}

/// `id1` is the interned id plus one (0 = empty slot).
#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u32,
    id1: u32,
}

/// Chunk-local dedup table — level one of the two-level intern. Exactly
/// the batch `UrlTable`: ids are chunk-first-occurrence ranks, equality
/// compares against the most recent occurrence in the live chunk slice
/// (always warm), and the table is sized for the chunk up front, so at
/// streaming chunk sizes it stays cache-resident and absorbs the ~40% of
/// requests that repeat a URL within their own chunk without ever
/// touching the big cross-chunk table.
#[derive(Default)]
struct ScratchSlots {
    slots: Vec<ScratchSlot>,
    mask: usize,
}

#[derive(Clone, Copy, Default)]
struct ScratchSlot {
    tag: u32,
    uid1: u32,
    last: u32,
}

impl ScratchSlots {
    /// Re-sizes/clears the persistent table so `n` insertions stay under
    /// 3/4 load: no grow path needed, and at steady-state chunk sizes no
    /// allocation either — just a `fill` of an already-warm buffer. A
    /// larger-than-needed table from an earlier chunk is kept (table size
    /// only shifts probe positions; interned ids are first-occurrence
    /// ranks either way).
    fn reset_for_chunk(&mut self, n: usize) {
        let want = (n * 4 / 3 + 1).max(16).next_power_of_two();
        if self.slots.len() < want {
            self.slots.clear();
            self.slots.resize(want, ScratchSlot::default());
        } else {
            self.slots.fill(ScratchSlot::default());
        }
        self.mask = self.slots.len() - 1;
    }

    /// Interns one request against the live chunk slice. `next_uid` is the
    /// chunk-local id to assign on first occurrence.
    fn intern(
        &mut self,
        hash: u64,
        url: &str,
        requests: &[LoggedRequest],
        i: u32,
        next_uid: u32,
    ) -> UrlSlot {
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.uid1 == 0 {
                self.slots[s] = ScratchSlot { tag, uid1: next_uid + 1, last: i };
                return UrlSlot::New(next_uid);
            }
            if slot.tag == tag && &*requests[slot.last as usize].url == url {
                self.slots[s].last = i;
                return UrlSlot::Existing(slot.uid1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }
}

enum UrlSlot {
    /// URL was seen before; its id.
    Existing(u32),
    /// First occurrence; the caller must push the per-unique side tables.
    New(u32),
}

impl UrlSlots {
    fn with_capacity(n: usize) -> UrlSlots {
        let slots = n.max(16).next_power_of_two();
        UrlSlots {
            slots: vec![Slot::default(); slots],
            mask: slots - 1,
            len: 0,
            hashes: Vec::new(),
        }
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[hash as usize & self.mask].id1);
    }

    /// Chases a probed slot into the arena: if the hash's home slot holds
    /// a tag match, its string is about to be equality-compared — touching
    /// the span and first byte a few iterations early overlaps those two
    /// dependent DRAM loads with the resolve loop.
    fn prefetch_arena(&self, hash: u64, urls: &UrlArena) {
        let slot = self.slots[hash as usize & self.mask];
        if slot.id1 != 0 && slot.tag == (hash >> 32) as u32 {
            std::hint::black_box(urls.bytes_of((slot.id1 - 1) as usize).first().copied());
        }
    }

    /// Interns against the owned unique-string store (both the pass-2
    /// resolve loop and the `apply_delta` path, where no chunk slice
    /// exists).
    fn intern_owned(&mut self, hash: u64, url: &str, urls: &UrlArena) -> UrlSlot {
        if self.len as usize * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.len += 1;
                self.slots[s] = Slot { tag, id1: self.len };
                self.hashes.push(hash);
                return UrlSlot::New(self.len - 1);
            }
            // Tag (high 32 bits) filters in the slot line itself; the full
            // 64-bit hash from the dense sidecar then rejects nearly every
            // residual false tag match without touching the (colder) arena
            // bytes. The byte equality stays authoritative.
            if slot.tag == tag
                && self.hashes[(slot.id1 - 1) as usize] == hash
                && urls.bytes_of((slot.id1 - 1) as usize) == url.as_bytes()
            {
                return UrlSlot::Existing(slot.id1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Sizes the table for a cumulative request total, rehashing at most
    /// once — the exact sizing rule of the batch `UrlTable::with_capacity`
    /// (one slot per request, rounded up to a power of two), applied per
    /// chunk with the running total. Matching batch sizing matters twice
    /// over: a table left to the 3/4 load-factor doublings runs ~2x longer
    /// probe chains (measurably dragging the pipelined intern pass), while
    /// oversizing it past the batch rule doubles the cache footprint every
    /// probe has to miss through. It also means a chunk never pays
    /// repeated doublings mid-pass.
    fn reserve_for_total(&mut self, total_requests: usize) {
        let target = total_requests.max(16).next_power_of_two();
        if target > self.slots.len() {
            self.grow_to(target);
        }
    }

    /// Doubles the table.
    fn grow(&mut self) {
        self.grow_to(self.slots.len() * 2);
    }

    /// Rebuilds the table at `n` slots from the dense id -> hash sidecar:
    /// one sequential walk, no arena reads. Linear-probe lookups only need
    /// every key reachable from its home slot without crossing an empty
    /// slot, and re-inserting every key into an empty table preserves that
    /// regardless of insertion order — slot layout is not part of the
    /// determinism contract (interned ids are, and they don't move).
    fn grow_to(&mut self, n: usize) {
        let mut slots = vec![Slot::default(); n];
        let mask = n - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut d = hash as usize & mask;
            while slots[d].id1 != 0 {
                d = (d + 1) & mask;
            }
            slots[d] = Slot { tag: (hash >> 32) as u32, id1: id as u32 + 1 };
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// Reusable per-chunk working memory: the chunk-local dedup table and the
/// dense per-request/per-chunk-distinct views. `append_chunk` used to
/// allocate these eight buffers afresh every chunk; at streaming chunk
/// sizes (~1.3K requests) that fixed cost repeats hundreds of times over a
/// stream, so the buffers persist across chunks and are cleared instead.
#[derive(Default)]
struct ChunkScratch {
    scratch: ScratchSlots,
    chunk_of: Vec<u32>,
    uid_first: Vec<u32>,
    uid_hash: Vec<u64>,
    uid_verdict: Vec<bool>,
    gid_of: Vec<u32>,
    url_of: Vec<u32>,
    host_of: Vec<u32>,
    referrer_of: Vec<u32>,
}

impl ChunkScratch {
    fn reset_for_chunk(&mut self, n: usize) {
        self.scratch.reset_for_chunk(n);
        self.chunk_of.clear();
        self.uid_first.clear();
        self.uid_hash.clear();
        self.uid_verdict.clear();
        self.gid_of.clear();
        self.url_of.clear();
        self.host_of.clear();
        self.referrer_of.clear();
        self.chunk_of.reserve(n);
        self.url_of.reserve(n);
        self.host_of.reserve(n);
        self.referrer_of.reserve(n);
    }
}

/// Cross-chunk classifier state. See the module docs for what persists and
/// why feeding chunks in order is bit-identical to batch classification.
pub struct IncrementalClassifier {
    /// The compiled filter-list engine (DESIGN.md §5h) — automaton, anchor
    /// buckets, prefilter, and the dense per-host row cache, all owned, so
    /// nothing about the frozen lists is re-derived per chunk.
    engine: RuleEngine,
    stages: ClassifierStages,
    scanner: KeywordScanner,

    /// Owned unique-URL arena. The batch classifier borrows equality
    /// targets from the request log; across chunks the log is gone, so the
    /// interner owns one copy per *unique* URL (contiguous, span-indexed).
    urls: UrlArena,
    url_slots: UrlSlots,
    /// Unique-URL id -> unique-host id (a URL embeds its host, so equal
    /// URLs share a host — same invariant the batch interner debug-asserts).
    host_of_url: Vec<u32>,
    /// World `DomainId` -> classifier-local dense host id (`u32::MAX` =
    /// unseen), lazily grown.
    host_remap: Vec<u32>,
    /// Dense host id -> world `DomainId` (serialization + row re-resolution
    /// on decode).
    host_ids: Vec<DomainId>,
    /// Dense host id -> compiled engine row (gate verdict + TLD id).
    rows: Vec<HostRow>,

    /// Per-unique-URL memos, all pure functions of the URL string:
    /// argument presence, keyword verdict, and the stage-1 URL-dependent
    /// gate verdict (shard-local in the batch classifier; persisting it is
    /// invisible because the verdict is the same every time).
    args_memo: Vec<u8>,
    kw_memo: Vec<u8>,
    gate_memo: Vec<u8>,

    /// Table-2 seen-bits (bit 0 = ABP, bit 1 = semi), indexed by dense id.
    host_seen: Vec<u8>,
    tld_seen: Vec<u8>,
    url_seen: Vec<u8>,
    abp: MethodCounts,
    semi: MethodCounts,
    n_requests: u64,

    /// Serialization baseline: high-water marks plus byte snapshots of the
    /// mutable per-entry state as of the last `encode_delta`/`apply_delta`,
    /// so the next delta carries only entries created or mutated since. A
    /// fresh classifier's baseline is empty, making its first delta a full
    /// encoding.
    enc_urls: usize,
    enc_hosts: usize,
    enc_args: Vec<u8>,
    enc_kw: Vec<u8>,
    enc_gate: Vec<u8>,
    enc_url_seen: Vec<u8>,
    enc_host_seen: Vec<u8>,

    /// Reusable per-chunk working memory (see [`ChunkScratch`]).
    chunk_scratch: ChunkScratch,
}

impl IncrementalClassifier {
    /// A fresh classifier over the given filter lists and stage toggles.
    /// Compiles the lists into a [`RuleEngine`] once, here — the
    /// classifier owns the compiled form, so the lists themselves are not
    /// borrowed past construction.
    pub fn new(
        easylist: &FilterList,
        easyprivacy: &FilterList,
        stages: ClassifierStages,
    ) -> IncrementalClassifier {
        IncrementalClassifier {
            engine: RuleEngine::compile(&[easylist, easyprivacy]),
            stages,
            scanner: KeywordScanner::new(),
            urls: UrlArena::default(),
            url_slots: UrlSlots::with_capacity(1024),
            host_of_url: Vec::new(),
            host_remap: Vec::new(),
            host_ids: Vec::new(),
            rows: Vec::new(),
            args_memo: Vec::new(),
            kw_memo: Vec::new(),
            gate_memo: Vec::new(),
            host_seen: Vec::new(),
            tld_seen: Vec::new(),
            url_seen: Vec::new(),
            abp: MethodCounts::default(),
            semi: MethodCounts::default(),
            n_requests: 0,
            enc_urls: 0,
            enc_hosts: 0,
            enc_args: Vec::new(),
            enc_kw: Vec::new(),
            enc_gate: Vec::new(),
            enc_url_seen: Vec::new(),
            enc_host_seen: Vec::new(),
            chunk_scratch: ChunkScratch::default(),
        }
    }

    /// Total requests absorbed so far.
    pub fn n_requests(&self) -> u64 {
        self.n_requests
    }

    /// The running Table-2 rows `(abp, semi)` over everything absorbed so
    /// far. Equals `classify` / `method_counts` over the concatenated log.
    pub fn counts(&self) -> (MethodCounts, MethodCounts) {
        (self.abp, self.semi)
    }

    /// Interns a first-occurrence URL's host, resolving its gate and TLD
    /// id exactly as the batch interner/stage-1 would (same order, same
    /// combine rule), and returns the dense host id.
    fn intern_host(&mut self, host_id: DomainId, domains: &DomainTable) -> u32 {
        let hid = host_id.0 as usize;
        if hid >= self.host_remap.len() {
            self.host_remap.resize(hid + 1, u32::MAX);
        }
        if self.host_remap[hid] != u32::MAX {
            return self.host_remap[hid];
        }
        let h = self.host_ids.len() as u32;
        self.host_remap[hid] = h;
        self.host_ids.push(host_id);
        self.host_seen.push(0);
        let row = self.engine.host_row(host_id, domains);
        self.rows.push(row);
        let t = row.tld() as usize;
        if t >= self.tld_seen.len() {
            self.tld_seen.resize(t + 1, 0);
        }
        h
    }

    /// Classifies one appended chunk and absorbs its counts.
    ///
    /// Chunks must arrive in log order; `requests` must be a whole-user
    /// range (referrer indices are chunk-local positions — the same
    /// contract the streaming driver already holds for per-chunk batch
    /// classification).
    pub fn append_chunk(
        &mut self,
        requests: &[LoggedRequest],
        domains: &DomainTable,
    ) -> ChunkClassification {
        let n = requests.len();
        // Size the cross-chunk table for the worst case (every request
        // unique) before the resolve pass, like the batch interner's
        // whole-log `with_capacity` — the pipelined loop never rehashes.
        self.url_slots
            .reserve_for_total(self.n_requests as usize + n);
        // Per-chunk working memory persists across chunks (reset, not
        // reallocated); taken out of `self` so the borrow checker lets the
        // passes below index `self`'s per-unique tables while filling it.
        let mut sc = std::mem::take(&mut self.chunk_scratch);
        sc.reset_for_chunk(n);
        let ChunkScratch {
            scratch,
            chunk_of,
            uid_first,
            uid_hash,
            uid_verdict,
            gid_of,
            url_of,
            host_of,
            referrer_of,
        } = &mut sc;

        // Two-level interning. Pass 1 dedups the chunk against itself in a
        // cache-resident scratch table — the batch interner's exact loop,
        // equality always against the live chunk slice (string bytes
        // touched BYTES_AHEAD out so each fresh pointer chase overlaps the
        // previous iterations). Chunk-local ids are first-occurrence
        // ranks, so walking them in order preserves the global
        // first-occurrence id assignment the determinism contract pins.
        const BYTES_AHEAD: usize = 16;
        for (i, r) in requests.iter().enumerate() {
            if let Some(ahead) = requests.get(i + BYTES_AHEAD) {
                let u = ahead.url.as_bytes();
                std::hint::black_box(u.first().copied());
                std::hint::black_box(u.last().copied());
            }
            let hash = url_hash(r.url.as_bytes());
            let uid = match scratch.intern(hash, &r.url, requests, i as u32, uid_first.len() as u32)
            {
                UrlSlot::New(uid) => {
                    uid_first.push(i as u32);
                    uid_hash.push(hash);
                    uid
                }
                UrlSlot::Existing(uid) => uid,
            };
            chunk_of.push(uid);
        }

        // Pass 2 resolves each chunk-distinct URL to its cross-chunk id in
        // one tight pipelined loop: the big table's slot is prefetched
        // SLOT_AHEAD out, and the arena span it points at (the equality
        // target for a recurring URL) ARENA_AHEAD out, once the slot line
        // has had time to arrive — the two dependent DRAM chases that
        // otherwise stall every first-recurrence-this-chunk probe.
        const SLOT_AHEAD: usize = 8;
        const ARENA_AHEAD: usize = 4;
        gid_of.reserve(uid_first.len());
        // Worst case every chunk-distinct URL is stream-new: reserving the
        // per-unique side tables once keeps the New arm's scattered pushes
        // from re-amortizing six separate grows mid-loop.
        let worst_new = uid_first.len();
        self.urls.spans.reserve(worst_new);
        self.host_of_url.reserve(worst_new);
        self.args_memo.reserve(worst_new);
        self.kw_memo.reserve(worst_new);
        self.gate_memo.reserve(worst_new);
        self.url_seen.reserve(worst_new);
        for (j, &h) in uid_hash.iter().enumerate().take(SLOT_AHEAD.min(uid_hash.len())) {
            self.url_slots.prefetch(h);
            if j < ARENA_AHEAD {
                self.url_slots.prefetch_arena(h, &self.urls);
            }
        }
        for (k, &hash) in uid_hash.iter().enumerate() {
            if let Some(&h) = uid_hash.get(k + SLOT_AHEAD) {
                self.url_slots.prefetch(h);
            }
            if let Some(&h) = uid_hash.get(k + ARENA_AHEAD) {
                self.url_slots.prefetch_arena(h, &self.urls);
            }
            let r = &requests[uid_first[k] as usize];
            let u = match self.url_slots.intern_owned(hash, &r.url, &self.urls) {
                UrlSlot::New(u) => {
                    self.urls.push(&r.url);
                    self.args_memo.push(MEMO_UNKNOWN);
                    self.kw_memo.push(MEMO_UNKNOWN);
                    self.gate_memo.push(MEMO_UNKNOWN);
                    self.url_seen.push(0);
                    let h = self.intern_host(r.host, domains);
                    self.host_of_url.push(h);
                    u
                }
                UrlSlot::Existing(u) => u,
            };
            debug_assert_eq!(
                self.host_ids[self.host_of_url[u as usize] as usize],
                r.host,
                "requests sharing a URL string must share its embedded host"
            );
            // Stage-1 verdict, hoisted to the chunk-distinct level: the
            // blocklist verdict is a pure function of the URL (the host is
            // embedded in it), so it is decided once per chunk-distinct
            // URL here — where the request string is already in cache —
            // and the per-request loop below only projects a bool.
            let row = self.rows[self.host_of_url[u as usize] as usize];
            let hit = if row.always() {
                true
            } else if row.never() {
                false
            } else {
                match self.gate_memo[u as usize] {
                    MEMO_UNKNOWN => {
                        let hit = self.engine.url_verdict(row, domains.domain(r.host), &r.url);
                        self.gate_memo[u as usize] = 1 + hit as u8;
                        hit
                    }
                    v => v == MEMO_YES,
                }
            };
            uid_verdict.push(hit);
            gid_of.push(u);
        }

        // Pass 3 projects the per-request views (and the stage-1 labels)
        // through the two maps — linear over arrays that are all still
        // warm.
        let mut labels = vec![Classification::Clean; n];
        for (i, r) in requests.iter().enumerate() {
            let cu = chunk_of[i] as usize;
            let u = gid_of[cu];
            url_of.push(u);
            host_of.push(self.host_of_url[u as usize]);
            referrer_of.push(match r.referrer {
                Referrer::Request(parent) => parent.0,
                Referrer::FirstParty | Referrer::None => NO_REFERRER,
            });
            if uid_verdict[cu] {
                labels[i] = Classification::AbpTracking;
            }
        }

        // Stage 2: ordered forward sweep over the chunk's (backward-
        // pointing) referrer edges, with the worklist fallback for forward
        // edges — the frontier is exactly the new chunk, since chains
        // never cross chunk boundaries.
        let mut children: Option<ChildIndex> = None;
        let mut stage2_rounds = 0usize;
        if self.stages.referrer_propagation {
            stage2_rounds = 1;
            let mut forward_edges = false;
            for i in 0..n {
                let p = referrer_of[i] as usize;
                if p == NO_REFERRER as usize {
                    continue;
                }
                debug_assert!(
                    p < n,
                    "referrer index {p} out of range ({n} requests): chunk referrers \
                     must be chunk-local positions"
                );
                if p >= i {
                    forward_edges = true;
                    continue;
                }
                if labels[i].is_tracking() || !labels[p].is_tracking() {
                    continue;
                }
                if self.stages.require_args
                    && !memo_get(&mut self.args_memo, url_of[i], || requests[i].has_args())
                {
                    continue;
                }
                labels[i] = Classification::SemiTracking;
            }
            if forward_edges {
                let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
                let seeds: Vec<usize> = (0..n).filter(|&i| labels[i].is_tracking()).collect();
                stage2_rounds += propagate_worklist(
                    requests,
                    url_of,
                    &mut labels,
                    self.stages,
                    &mut self.args_memo,
                    idx,
                    seeds,
                );
            }
        }

        // Stage 3: argument + keyword matching on what's left, then re-
        // propagation from exactly the newly labeled requests.
        let mut stage3_rounds = 0usize;
        if self.stages.keywords {
            let mut newly: Vec<usize> = Vec::new();
            for i in 0..n {
                if labels[i].is_tracking() {
                    continue;
                }
                let u = url_of[i];
                if !memo_get(&mut self.args_memo, u, || requests[i].has_args())
                    || !memo_get(&mut self.kw_memo, u, || self.scanner.matches(&requests[i].url))
                {
                    continue;
                }
                labels[i] = Classification::SemiTracking;
                newly.push(i);
            }
            if self.stages.referrer_propagation && !newly.is_empty() {
                let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
                stage3_rounds = propagate_worklist(
                    requests,
                    url_of,
                    &mut labels,
                    self.stages,
                    &mut self.args_memo,
                    idx,
                    newly,
                );
            }
        }

        // Absorb the Table-2 counts: identical walk to the batch
        // `method_counts_both`, except the seen-bits persist so a host
        // first counted in chunk 0 never counts again in chunk 3.
        for (i, l) in labels.iter().enumerate() {
            let (slot, bit) = match l {
                Classification::AbpTracking => (&mut self.abp, 1u8),
                Classification::SemiTracking => (&mut self.semi, 2u8),
                Classification::Clean => continue,
            };
            slot.n_total_requests += 1;
            let h = host_of[i] as usize;
            if self.host_seen[h] & bit == 0 {
                self.host_seen[h] |= bit;
                slot.n_fqdn += 1;
                let t = self.rows[h].tld() as usize;
                if self.tld_seen[t] & bit == 0 {
                    self.tld_seen[t] |= bit;
                    slot.n_tld += 1;
                }
            }
            let u = url_of[i] as usize;
            if self.url_seen[u] & bit == 0 {
                self.url_seen[u] |= bit;
                slot.n_unique_urls += 1;
            }
        }
        self.n_requests += n as u64;
        self.chunk_scratch = sc;

        ChunkClassification {
            labels,
            stage2_rounds,
            stage3_rounds,
        }
    }

    /// Serializes everything that changed since the previous
    /// `encode_delta`/`apply_delta` (format: DESIGN.md §5g) and advances
    /// the baseline. New hosts come first so new URLs can reference them;
    /// the sparse update sections carry pre-baseline entries whose memos
    /// filled in or whose seen-bits gained bits when an old value recurred.
    /// Gates, TLD ids and the dedup table are derivable and not stored.
    /// On a fresh classifier this is a full encoding of the state.
    pub fn encode_delta(&mut self, w: &mut ByteWriter) {
        w.put_u64(self.n_requests);
        w.put_usize(self.enc_hosts);
        w.put_usize(self.enc_urls);
        w.put_usize(self.host_ids.len() - self.enc_hosts);
        for h in self.enc_hosts..self.host_ids.len() {
            w.put_u32(self.host_ids[h].0);
            w.put_u8(self.host_seen[h]);
        }
        w.put_usize(self.urls.len() - self.enc_urls);
        for u in self.enc_urls..self.urls.len() {
            w.put_str(self.urls.str_of(u));
            w.put_u32(self.host_of_url[u]);
            w.put_u8(self.args_memo[u]);
            w.put_u8(self.kw_memo[u]);
            w.put_u8(self.gate_memo[u]);
            w.put_u8(self.url_seen[u]);
        }
        let dirty_hosts: Vec<u32> = (0..self.enc_hosts)
            .filter(|&h| self.host_seen[h] != self.enc_host_seen[h])
            .map(|h| h as u32)
            .collect();
        w.put_usize(dirty_hosts.len());
        for &h in &dirty_hosts {
            w.put_u32(h);
            w.put_u8(self.host_seen[h as usize]);
        }
        let dirty_urls: Vec<u32> = (0..self.enc_urls)
            .filter(|&u| {
                self.args_memo[u] != self.enc_args[u]
                    || self.kw_memo[u] != self.enc_kw[u]
                    || self.gate_memo[u] != self.enc_gate[u]
                    || self.url_seen[u] != self.enc_url_seen[u]
            })
            .map(|u| u as u32)
            .collect();
        w.put_usize(dirty_urls.len());
        for &u in &dirty_urls {
            let u = u as usize;
            w.put_u32(u as u32);
            w.put_u8(self.args_memo[u]);
            w.put_u8(self.kw_memo[u]);
            w.put_u8(self.gate_memo[u]);
            w.put_u8(self.url_seen[u]);
        }
        for c in [&self.abp, &self.semi] {
            w.put_usize(c.n_fqdn);
            w.put_usize(c.n_tld);
            w.put_usize(c.n_unique_urls);
            w.put_usize(c.n_total_requests);
        }
        self.sync_baseline();
    }

    /// Applies one [`IncrementalClassifier::encode_delta`] chunk onto the
    /// current state and advances the baseline. Deltas must be applied in
    /// the order they were encoded, starting from a fresh classifier — the
    /// baseline counts in the delta pin this, so an out-of-order or
    /// skipped chunk is a typed error, not silent corruption.
    ///
    /// The filter lists, stage toggles and `domains` must be the ones the
    /// encoding run used — the streaming driver guarantees this by
    /// re-deriving all three from the seed before opening the store (and
    /// the store refuses foreign seeds via the config fingerprint).
    pub fn apply_delta(
        &mut self,
        r: &mut ByteReader<'_>,
        domains: &DomainTable,
    ) -> Result<(), DecodeError> {
        let bad = |detail: String| DecodeError { offset: 0, detail };
        let n_requests = r.u64()?;
        if n_requests < self.n_requests {
            return Err(bad(format!(
                "delta total {} below the {} requests already applied",
                n_requests, self.n_requests
            )));
        }
        let base_hosts = r.len_prefix()?;
        let base_urls = r.len_prefix()?;
        if base_hosts != self.host_ids.len() || base_urls != self.urls.len() {
            return Err(bad(format!(
                "delta baseline ({base_hosts} hosts, {base_urls} urls) does not match \
                 state ({} hosts, {} urls): chunk deltas must be applied in order",
                self.host_ids.len(),
                self.urls.len()
            )));
        }
        // Each new host is a u32 id plus a seen byte.
        let n_new_hosts = r.count(5)?;
        // Pre-reserve the host-side tables from the delta header, and the
        // world-id remap to its final extent, so cross-segment replay
        // never pays doubling spikes mid-chunk (the same cold-growth
        // class `reserve_for_total` kills for the URL table below).
        self.host_ids.reserve(n_new_hosts);
        self.host_seen.reserve(n_new_hosts);
        self.rows.reserve(n_new_hosts);
        if self.host_remap.len() < domains.len() {
            self.host_remap.resize(domains.len(), u32::MAX);
        }
        for _ in 0..n_new_hosts {
            let wid = r.u32()?;
            if wid as usize >= domains.len() {
                return Err(bad(format!(
                    "host id {wid} out of range ({} interned domains)",
                    domains.len()
                )));
            }
            let seen = r.u8()?;
            if seen > 3 {
                return Err(bad(format!("host seen-bits {seen} out of range")));
            }
            let h = self.intern_host(DomainId(wid), domains);
            if h as usize + 1 != self.host_ids.len() {
                return Err(bad(format!("duplicate host id {wid} in delta")));
            }
            self.host_seen[h as usize] = seen;
        }
        // Each new URL is at least a string length prefix, a u32 host ref
        // and four state bytes.
        let n_new_urls = r.count(16)?;
        if (base_urls + n_new_urls) as u64 > n_requests {
            return Err(bad(format!(
                "{} unique urls exceed {n_requests} total requests",
                base_urls + n_new_urls
            )));
        }
        // Size the open-addressing URL table for the post-chunk total
        // before interning (the batch interner's sizing rule; without
        // this, replaying a large run rehashes the full table mid-delta),
        // and every dense per-URL column alongside it. The total itself is
        // not backed by any bytes here, so the table is sized for at most
        // four slots per URL the state will hold: a corrupt total cannot
        // size an allocation, and a valid total above that only leaves the
        // table at a load factor of 1/4 instead of lower.
        let unique_after = (base_urls + n_new_urls) as u64;
        self.url_slots
            .reserve_for_total(n_requests.min(unique_after.saturating_mul(4)) as usize);
        self.urls.spans.reserve(n_new_urls);
        self.host_of_url.reserve(n_new_urls);
        self.args_memo.reserve(n_new_urls);
        self.kw_memo.reserve(n_new_urls);
        self.gate_memo.reserve(n_new_urls);
        self.url_seen.reserve(n_new_urls);
        for _ in 0..n_new_urls {
            let url = r.str()?;
            match self.url_slots.intern_owned(url_hash(url.as_bytes()), url, &self.urls) {
                UrlSlot::New(u) => debug_assert_eq!(u as usize, self.urls.len()),
                UrlSlot::Existing(_) => {
                    return Err(bad(format!("duplicate url in delta: {url}")));
                }
            }
            self.urls.push(url);
            let h = r.u32()?;
            if h as usize >= self.host_ids.len() {
                return Err(bad(format!(
                    "url host ref {h} out of range ({} hosts)",
                    self.host_ids.len()
                )));
            }
            self.host_of_url.push(h);
            let memos = [r.u8()?, r.u8()?, r.u8()?];
            for m in memos {
                if m > MEMO_YES {
                    return Err(bad(format!("memo byte {m} out of range")));
                }
            }
            self.args_memo.push(memos[0]);
            self.kw_memo.push(memos[1]);
            self.gate_memo.push(memos[2]);
            let seen = r.u8()?;
            if seen > 3 {
                return Err(bad(format!("url seen-bits {seen} out of range")));
            }
            self.url_seen.push(seen);
        }
        let n_host_updates = r.count(5)?;
        for _ in 0..n_host_updates {
            let h = r.u32()? as usize;
            if h >= base_hosts {
                return Err(bad(format!(
                    "host update {h} outside the {base_hosts}-host baseline"
                )));
            }
            let seen = r.u8()?;
            // Seen-bits are monotone: an update that drops a bit means the
            // delta does not belong to this state.
            if seen > 3 || seen & self.host_seen[h] != self.host_seen[h] {
                return Err(bad(format!(
                    "host {h} seen-bits update {seen} is not a superset of {}",
                    self.host_seen[h]
                )));
            }
            self.host_seen[h] = seen;
        }
        let n_url_updates = r.count(8)?;
        for _ in 0..n_url_updates {
            let u = r.u32()? as usize;
            if u >= base_urls {
                return Err(bad(format!(
                    "url update {u} outside the {base_urls}-url baseline"
                )));
            }
            let memos = [r.u8()?, r.u8()?, r.u8()?];
            for m in memos {
                if m > MEMO_YES {
                    return Err(bad(format!("memo byte {m} out of range")));
                }
            }
            self.args_memo[u] = memos[0];
            self.kw_memo[u] = memos[1];
            self.gate_memo[u] = memos[2];
            let seen = r.u8()?;
            if seen > 3 || seen & self.url_seen[u] != self.url_seen[u] {
                return Err(bad(format!(
                    "url {u} seen-bits update {seen} is not a superset of {}",
                    self.url_seen[u]
                )));
            }
            self.url_seen[u] = seen;
        }
        // TLD seen-bits are the union of their hosts' (a TLD bit is only
        // ever set alongside a host bit in the absorb pass), so they are
        // recomputed rather than stored.
        self.tld_seen.fill(0);
        for h in 0..self.host_ids.len() {
            self.tld_seen[self.rows[h].tld() as usize] |= self.host_seen[h];
        }
        for c in [&mut self.abp, &mut self.semi] {
            c.n_fqdn = r.len_prefix()?;
            c.n_tld = r.len_prefix()?;
            c.n_unique_urls = r.len_prefix()?;
            c.n_total_requests = r.len_prefix()?;
        }
        self.n_requests = n_requests;
        self.sync_baseline();
        Ok(())
    }

    /// Advances the serialization baseline to the current state.
    fn sync_baseline(&mut self) {
        self.enc_urls = self.urls.len();
        self.enc_hosts = self.host_ids.len();
        self.enc_args.clone_from(&self.args_memo);
        self.enc_kw.clone_from(&self.kw_memo);
        self.enc_gate.clone_from(&self.gate_memo);
        self.enc_url_seen.clone_from(&self.url_seen);
        self.enc_host_seen.clone_from(&self.host_seen);
    }
}

/// Tri-state memo lookup (free function so callers can split borrows of
/// the classifier's fields inside loops).
fn memo_get(memo: &mut [u8], url_id: u32, eval: impl FnOnce() -> bool) -> bool {
    let slot = &mut memo[url_id as usize];
    if *slot == MEMO_UNKNOWN {
        *slot = if eval() { MEMO_YES } else { MEMO_NO };
    }
    *slot == MEMO_YES
}

/// BFS worklist propagation to true convergence within one chunk — the
/// incremental twin of the batch `propagate_worklist`, over chunk-local
/// arrays and the persistent args memo.
fn propagate_worklist(
    requests: &[LoggedRequest],
    url_of: &[u32],
    labels: &mut [Classification],
    stages: ClassifierStages,
    args_memo: &mut [u8],
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
            if stages.require_args && !memo_get(args_memo, url_of[c], || requests[c].has_args()) {
                continue;
            }
            labels[c] = Classification::SemiTracking;
            depth = depth.max(d + 1);
            queue.push_back((c, d + 1));
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{classify, classify_with_stages_threads};
    use crate::listgen::generate_lists;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_browser::{run_study, StudyConfig};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_geo::{CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, Domain, WebGraph, WebGraphConfig};

    fn dataset(seed: u64) -> (WebGraph, Vec<LoggedRequest>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0300_0000u32 + next)),
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
        let ds = run_study(&StudyConfig::small(), &graph, &mut dns, &mut rng);
        (graph, ds.requests)
    }

    /// User-boundary chunk splits (referrer chains never cross users, so
    /// any split at a user boundary is a legal chunking).
    fn user_chunks(requests: &[LoggedRequest], users_per_chunk: usize) -> Vec<&[LoggedRequest]> {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < requests.len() {
            let first_user = requests[start].user.0 as usize;
            let mut end = start;
            while end < requests.len()
                && (requests[end].user.0 as usize) < first_user + users_per_chunk
            {
                end += 1;
            }
            chunks.push(&requests[start..end]);
            start = end;
        }
        chunks
    }

    /// Rebase chunk-global referrers to chunk-local positions, as the
    /// streaming study emits them.
    fn rebased(chunk: &[LoggedRequest], offset: usize) -> Vec<LoggedRequest> {
        chunk
            .iter()
            .map(|r| {
                let mut r = r.clone();
                if let Referrer::Request(p) = r.referrer {
                    r.referrer =
                        Referrer::Request(xborder_browser::RequestId(p.0 - offset as u32));
                }
                r
            })
            .collect()
    }

    fn run_incremental(
        requests: &[LoggedRequest],
        graph: &WebGraph,
        users_per_chunk: usize,
    ) -> (Vec<Classification>, MethodCounts, MethodCounts, IncrementalClassifier) {
        let (el, ep) = generate_lists(graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut labels = Vec::new();
        let mut offset = 0usize;
        for chunk in user_chunks(requests, users_per_chunk) {
            let local = rebased(chunk, offset);
            let out = cls.append_chunk(&local, graph.domains());
            labels.extend(out.labels);
            offset += chunk.len();
        }
        let (abp, semi) = cls.counts();
        (labels, abp, semi, cls)
    }

    #[test]
    fn incremental_matches_batch_across_chunkings() {
        let (graph, requests) = dataset(21);
        let (el, ep) = generate_lists(&graph);
        let batch = classify(&requests, graph.domains(), &el, &ep);
        for users_per_chunk in [1, 3, 1000] {
            let (labels, abp, semi, cls) = run_incremental(&requests, &graph, users_per_chunk);
            assert_eq!(labels, batch.labels, "labels differ at chunk={users_per_chunk}");
            assert_eq!(abp, batch.abp, "abp counts differ at chunk={users_per_chunk}");
            assert_eq!(semi, batch.semi, "semi counts differ at chunk={users_per_chunk}");
            assert_eq!(cls.n_requests(), requests.len() as u64);
        }
    }

    #[test]
    fn incremental_matches_per_chunk_batch_rounds() {
        // Per-chunk labels and rounds must equal running the batch
        // classifier on the chunk alone — the contract the streaming
        // driver's rounds reassembly depends on.
        let (graph, requests) = dataset(22);
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut offset = 0usize;
        for chunk in user_chunks(&requests, 4) {
            let local = rebased(chunk, offset);
            let inc = cls.append_chunk(&local, graph.domains());
            let batch = classify_with_stages_threads(
                &local,
                graph.domains(),
                &el,
                &ep,
                ClassifierStages::default(),
                1,
            );
            assert_eq!(inc.labels, batch.labels);
            assert_eq!(inc.stage2_rounds, batch.stage2_rounds);
            assert_eq!(inc.stage3_rounds, batch.stage3_rounds);
            offset += chunk.len();
        }
    }

    #[test]
    fn state_roundtrip_mid_stream_continues_identically() {
        let (graph, requests) = dataset(23);
        let (el, ep) = generate_lists(&graph);
        let chunks = user_chunks(&requests, 3);
        let split = chunks.len() / 2;

        // Encode one delta per chunk (exactly what the streaming driver
        // persists) and replay them in order onto a fresh classifier.
        let mut live = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0usize;
        for chunk in &chunks[..split] {
            let local = rebased(chunk, offset);
            live.append_chunk(&local, graph.domains());
            let mut w = ByteWriter::new();
            live.encode_delta(&mut w);
            deltas.push(w.into_bytes());
            offset += chunk.len();
        }

        let mut resumed = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        for bytes in &deltas {
            let mut r = ByteReader::new(bytes);
            resumed
                .apply_delta(&mut r, graph.domains())
                .expect("delta applies");
            r.finish().expect("no trailing bytes");
        }

        for chunk in &chunks[split..] {
            let local = rebased(chunk, offset);
            let a = live.append_chunk(&local, graph.domains());
            let b = resumed.append_chunk(&local, graph.domains());
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.stage2_rounds, b.stage2_rounds);
            assert_eq!(a.stage3_rounds, b.stage3_rounds);
            offset += chunk.len();
        }
        assert_eq!(live.counts(), resumed.counts());
        let batch = classify(&requests, graph.domains(), &el, &ep);
        assert_eq!(resumed.counts(), (batch.abp, batch.semi));
    }

    #[test]
    fn truncated_state_is_typed_error() {
        let (graph, requests) = dataset(24);
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        cls.append_chunk(&requests, graph.domains());
        let mut w = ByteWriter::new();
        cls.encode_delta(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut fresh = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
            assert!(
                fresh.apply_delta(&mut r, graph.domains()).is_err(),
                "truncation at {cut} must not apply"
            );
        }
    }

    #[test]
    fn inflated_delta_counts_never_size_an_allocation() {
        // A delta whose header is otherwise empty, with one count inflated.
        // Every item count must fail as a `DecodeError` before anything is
        // reserved from it (at 2^40 an unchecked `reserve` aborts the
        // process). The request total is backed by no bytes of the delta:
        // it may apply, but must not size the URL table (the replay
        // drivers then check it against the chunk's rows).
        let (graph, _) = dataset(26);
        let (el, ep) = generate_lists(&graph);
        let header = [
            "n_requests",
            "base_hosts",
            "base_urls",
            "n_new_hosts",
            "n_new_urls",
            "n_host_updates",
            "n_url_updates",
        ];
        for (k, field) in header.iter().enumerate() {
            for inflated in [1u64 << 40, u64::MAX] {
                let mut w = ByteWriter::new();
                for (j, _) in header.iter().enumerate() {
                    w.put_u64(if j == k { inflated } else { 0 });
                }
                for _ in 0..8 {
                    w.put_usize(0);
                }
                let bytes = w.into_bytes();
                let mut fresh = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
                let applied = fresh.apply_delta(&mut ByteReader::new(&bytes), graph.domains());
                if *field == "n_requests" {
                    assert!(applied.is_ok(), "{field} = {inflated}: {applied:?}");
                    assert!(
                        fresh.url_slots.slots.len() <= 1024,
                        "{field} sized the URL table"
                    );
                } else {
                    assert!(applied.is_err(), "{field} = {inflated} must not apply");
                }
            }
        }
    }

    #[test]
    fn out_of_order_delta_is_typed_error() {
        // Applying chunk 1's delta without chunk 0's (or the same delta
        // twice when it interned anything) must fail the baseline pin.
        let (graph, requests) = dataset(25);
        let (el, ep) = generate_lists(&graph);
        let chunks = user_chunks(&requests, 2);
        assert!(chunks.len() >= 2, "dataset must span multiple chunks");
        let mut live = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0usize;
        for chunk in &chunks[..2] {
            let local = rebased(chunk, offset);
            live.append_chunk(&local, graph.domains());
            let mut w = ByteWriter::new();
            live.encode_delta(&mut w);
            deltas.push(w.into_bytes());
            offset += chunk.len();
        }
        let mut fresh = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut r = ByteReader::new(&deltas[1]);
        let err = fresh
            .apply_delta(&mut r, graph.domains())
            .expect_err("skipping chunk 0's delta must not apply");
        assert!(err.detail.contains("baseline"), "unexpected error: {err}");
        // The failed apply interned nothing, so chunk 0's delta still fits.
        let mut r = ByteReader::new(&deltas[0]);
        fresh
            .apply_delta(&mut r, graph.domains())
            .expect("chunk 0's delta applies after the rejected skip");
        let mut r = ByteReader::new(&deltas[0]);
        fresh
            .apply_delta(&mut r, graph.domains())
            .expect_err("re-applying a state-growing delta must fail");
    }

    /// A deep forward-pointing chain inside one chunk still exercises the
    /// worklist fallback (same guarantee the batch classifier pins).
    #[test]
    fn forward_chain_within_chunk_fully_labeled() {
        use xborder_browser::{RequestId, UserId};
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::PublisherId;
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mk = |i: usize, referrer: Referrer, domains: &mut DomainTable| {
            let host = Domain::new(format!("h{i}.example.com"));
            LoggedRequest {
                user: UserId(0),
                time: SimTime(i as u64),
                first_party: domains.intern(&Domain::new("pub.example.org")),
                publisher: PublisherId(0),
                url: format!("https://{host}/p?x={i}").into_boxed_str(),
                host: domains.intern(&host),
                referrer,
                ip: "10.0.0.1".parse().unwrap(),
            }
        };
        let mut requests: Vec<LoggedRequest> = (0..LEN - 1)
            .map(|i| mk(i, Referrer::Request(RequestId(i as u32 + 1)), &mut domains))
            .collect();
        requests.push(mk(LEN - 1, Referrer::FirstParty, &mut domains));
        let mut el = FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new(format!(
            "h{}.example.com",
            LEN - 1
        ))));
        let ep = FilterList::new("easyprivacy");
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let out = cls.append_chunk(&requests, &domains);
        assert!(out.labels.iter().all(|l| l.is_tracking()));
        assert!(out.stage2_rounds > 16);
    }
}
