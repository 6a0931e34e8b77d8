//! Delta-fixpoint incremental classifier for the streaming driver.
//!
//! The streaming and out-of-core drivers ingest the log in append-only
//! chunks. [`IncrementalClassifier`] labels each chunk with the same
//! labelling core as the batch classifier (`label.rs`: chunk index,
//! stages 2–3, Table-2 count walk) and keeps, between
//! [`IncrementalClassifier::append_chunk`] calls, what batch rebuilds per
//! log:
//!
//! - the URL interner (owned URLs + open-addressing dedup table), the
//!   host remap, and the compiled [`RuleEngine`] with its dense
//!   [`HostRow`] table (DESIGN.md §5h), so every string is hashed, every
//!   host gate-resolved and `tld()`-ed, once per *unique* value across the
//!   whole stream, not once per chunk it appears in — and the engine
//!   itself (automaton, anchor buckets) is compiled exactly
//!   once, at construction;
//! - the per-unique-URL state bytes: the argument, keyword and
//!   URL-dependent stage-1 gate memos — all pure functions of the URL
//!   string, so a memo filled in chunk 0 is exact in chunk 40 — and the
//!   URL seen-bits;
//! - the Table-2 tally (host/TLD seen-bits and running [`MethodCounts`]),
//!   so the counts absorb per chunk and finalize re-walks nothing.
//!
//! What only this classifier does is the cross-chunk resolve: the core's
//! chunk index dedups the chunk against itself on compact URL keys, pass 2
//! renders each chunk-distinct URL's suffix once and resolves it against
//! the owned store to its stream-global id, and pass 3 projects those ids
//! onto the requests. Propagation runs over the frontier the new chunk
//! introduces only: referrer edges are positional
//! within a chunk and never cross users (hence never cross chunk
//! boundaries — chunks are whole-user ranges), so the fixpoint over the
//! concatenated log decomposes exactly into per-chunk fixpoints. Labels are
//! monotone (Clean → Semi/AbpTracking, never back), so a chunk's labels are
//! final the moment the chunk is processed.
//!
//! # Per-URL layout
//!
//! The per-unique-URL state is what grows with the stream (DESIGN.md §5g,
//! "Classifier state layout"), so it is kept to about 17 bytes plus the
//! URL's suffix:
//!
//! - a rendered URL is `http(s)://` + its request's host name + a suffix,
//!   and is stored in *split form*: a scheme, the host id it already
//!   carries, and only the suffix bytes. Equal URLs share a host, so
//!   comparing form, host id and suffix is exact;
//! - suffix bytes and the fixed-width columns (locator, host id, the low
//!   half of the URL hash, one state byte) live in fixed-size pages that
//!   are never reallocated, so growth copies nothing and leaves at most
//!   one page of slack per structure;
//! - the three tri-state memos and the two seen-bits share one state byte.
//!
//! # Determinism
//!
//! Feeding chunks in log order reproduces the batch classifier bit for
//! bit, for every chunking: the stage verdicts are per-URL or
//! per-chunk-closed, and the absorbed counts walk requests in the same
//! global order through the same count walk, over seen-bits that persist
//! instead of starting fresh. `tests/streaming_resume.rs` pins this
//! against the batch fingerprints.
//!
//! # Serialization
//!
//! [`IncrementalClassifier::encode_delta`]/[`IncrementalClassifier::apply_delta`]
//! move the state through the `xborder-checkpoint` codec so a killed
//! streaming run resumes without re-deriving it (format: DESIGN.md §5g).
//! Each delta carries only what changed since the previous one — new
//! unique URLs/hosts plus the sparse state-byte updates of older entries —
//! so the total serialized volume across a stream is O(unique values),
//! not O(chunks × state). Replaying a checkpoint applies the chunk deltas
//! in order, which reconstructs the exact live state. Gates, TLD ids and
//! the dedup table are *rebuilt* on apply from the stored unique values —
//! they are deterministic functions of (filter lists, domain table), both
//! of which the resuming process re-derives from the seed before the store
//! is opened.

use crate::classifier::{Classification, ClassifierStages, MethodCounts};
use crate::engine::{HostRow, KeywordScanner, RuleEngine};
use crate::label::{
    memo_get, semi_automatic, ChunkIndex, Tally, UrlRenderer, UrlStates, ARGS, GATE, KW, MEMO_YES,
    SEEN,
};
use crate::rules::FilterList;
use std::mem::size_of;
use xborder_browser::LoggedRequest;
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_webgraph::{fx_hash, DomainId, DomainTable};

/// True if no memo field of a decoded state byte holds the unused value 3.
fn valid_state(state: u8) -> bool {
    [ARGS, KW, GATE].iter().all(|&f| (state >> f) & 3 <= MEMO_YES)
}

/// Storage forms of a unique URL: the scheme it is split under, so that
/// the URL is `http://` (form 1) or `https://` (form 2) + host + suffix.
/// The values are part of the delta format; 0 is no form.
const FORM_HTTP: u8 = 1;
const FORM_HTTPS: u8 = 2;

/// The storage form of a request's URL.
fn url_form(r: &LoggedRequest) -> u8 {
    if r.is_https() {
        FORM_HTTPS
    } else {
        FORM_HTTP
    }
}

/// Probe hash of a split-form URL: FxHash over the suffix's final 32
/// bytes, mixed with its length, form and world host id. Simulator URLs
/// differ in their identity-token/query tails, so the tail carries nearly
/// all the entropy at a fraction of the whole-string hashing cost. Safe to
/// weaken: the hash only *locates* probe slots — equality is always
/// verified on form, host and suffix bytes, and ids are assigned in
/// insertion order, so collisions cost a compare, never a wrong id.
fn url_hash(form: u8, host: DomainId, suffix: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let shape = (suffix.len() as u64) << 34 | (host.0 as u64) << 2 | form as u64;
    fx_hash(&suffix[suffix.len().saturating_sub(32)..]).wrapping_add(shape.wrapping_mul(K))
}

/// A unique URL as the store compares and keeps it.
#[derive(Clone, Copy)]
struct UrlKey<'a> {
    form: u8,
    /// Dense host id.
    host: u32,
    suffix: &'a [u8],
}

/// One chunk's classification, emitted by
/// [`IncrementalClassifier::append_chunk`]. `labels` is parallel to the
/// chunk's request slice; the rounds fields have the same per-chunk
/// semantics as [`crate::ClassificationResult`], so the segment driver
/// reassembles whole-log rounds from them (`1 + max(stage2 - 1)` /
/// `max(stage3)`).
#[derive(Debug, Clone)]
pub struct ChunkClassification {
    /// Per-request labels, parallel to the chunk slice.
    pub labels: Vec<Classification>,
    /// Stage-2 sweep count for this chunk (1 = ordered sweep sufficed).
    pub stage2_rounds: usize,
    /// Post-keyword re-propagation depth for this chunk.
    pub stage3_rounds: usize,
}

/// Bytes held by an [`IncrementalClassifier`]'s per-URL and per-host
/// structures, from their capacities (what the allocator handed out, not
/// what is filled). The compiled rule engine is fixed at construction and
/// not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// Pages of unique-URL suffix bytes.
    pub url_suffixes: usize,
    /// Fixed-width per-URL columns: locator, host id, hash half, state
    /// byte, and the serialization snapshot of the state bytes.
    pub url_columns: usize,
    /// The cross-chunk dedup table: one 8-byte slot per request absorbed,
    /// rounded up to a power of two.
    pub url_slots: usize,
    /// Per-host and per-TLD tables: world-id remap, host ids, engine rows
    /// and seen-bits.
    pub hosts: usize,
    /// Per-chunk working memory. It is reused from chunk to chunk and sized
    /// by the largest chunk, not by the stream, so it is reported apart.
    pub chunk_scratch: usize,
}

impl ResidentBytes {
    /// Everything that grows with the stream: all but the chunk scratch.
    pub fn state(&self) -> usize {
        self.url_suffixes + self.url_columns + self.url_slots + self.hosts
    }
}

/// Entries per page of a [`Paged`] column.
const COLUMN_PAGE: usize = 1 << 12;

/// An append-only column in fixed-size pages that are never reallocated:
/// growing it allocates one more page and copies nothing, and at most one
/// page is slack.
#[derive(Default)]
struct Paged<T> {
    pages: Vec<Box<[T]>>,
    len: usize,
}

impl<T: Copy + Default + PartialEq> Paged<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, v: T) {
        if self.len == self.pages.len() * COLUMN_PAGE {
            self.pages.push(vec![T::default(); COLUMN_PAGE].into_boxed_slice());
        }
        self.pages[self.len / COLUMN_PAGE][self.len % COLUMN_PAGE] = v;
        self.len += 1;
    }

    #[inline]
    fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} past {} entries", self.len);
        self.pages[i / COLUMN_PAGE][i % COLUMN_PAGE]
    }

    #[inline]
    fn set(&mut self, i: usize, v: T) {
        debug_assert!(i < self.len, "index {i} past {} entries", self.len);
        self.pages[i / COLUMN_PAGE][i % COLUMN_PAGE] = v;
    }

    /// The filled entries, one slice per page.
    fn filled_pages(&self) -> impl Iterator<Item = &[T]> {
        let len = self.len;
        self.pages
            .iter()
            .enumerate()
            .map(move |(p, page)| &page[..(len - p * COLUMN_PAGE).min(COLUMN_PAGE)])
    }

    /// Makes `self` equal to `src`, overwriting the pages it already has.
    fn copy_from(&mut self, src: &Paged<T>) {
        self.pages.truncate(src.pages.len());
        for (p, page) in src.pages.iter().enumerate() {
            match self.pages.get_mut(p) {
                Some(dst) => dst.copy_from_slice(page),
                None => self.pages.push(page.clone()),
            }
        }
        self.len = src.len;
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * COLUMN_PAGE * size_of::<T>() + self.pages.capacity() * size_of::<Box<[T]>>()
    }
}

impl UrlStates for Paged<u8> {
    #[inline]
    fn state(&self, url: usize) -> u8 {
        self.get(url)
    }

    #[inline]
    fn set_state(&mut self, url: usize, state: u8) {
        self.set(url, state);
    }
}

/// Suffix bytes per page of a [`UrlStore`].
const SUFFIX_PAGE: usize = 1 << 16;
/// Locator length field of a suffix too long for a shared page: it has a
/// page of its own and is the whole of it.
const WHOLE_PAGE: u64 = 0xFFFF;

/// Owned unique-URL store: suffix bytes in fixed-size pages plus one
/// locator and one host id per URL.
///
/// The core's chunk index never copies a URL — it borrows equality
/// targets from the request slice. Across chunks the log is gone, so the classifier
/// must own one copy per unique URL. In split form only the bytes after
/// `scheme://host` are kept (about a third of a simulator URL is that
/// prefix). Pages are never reallocated, so the store never copies what it
/// holds as it grows.
#[derive(Default)]
struct UrlStore {
    pages: Vec<Vec<u8>>,
    /// Whether the last page takes further suffixes (a page holding one
    /// oversized suffix does not).
    tail_open: bool,
    /// Per URL: form (2 bits) | page (30) | offset in the page (16) |
    /// length (16, or [`WHOLE_PAGE`]).
    loc: Paged<u64>,
    /// Per URL: dense host id.
    host: Paged<u32>,
}

impl UrlStore {
    fn len(&self) -> usize {
        self.loc.len()
    }

    fn push(&mut self, key: UrlKey<'_>) {
        let len = key.suffix.len();
        let (off, len_field) = if len as u64 >= WHOLE_PAGE {
            self.pages.push(key.suffix.to_vec());
            self.tail_open = false;
            (0, WHOLE_PAGE)
        } else {
            // Offset plus length stays below SUFFIX_PAGE, so both fit 16 bits.
            if !self.tail_open || self.pages.last().is_some_and(|p| p.len() + len >= SUFFIX_PAGE) {
                self.pages.push(Vec::with_capacity(SUFFIX_PAGE));
                self.tail_open = true;
            }
            let page = self.pages.last_mut().expect("a page was just ensured");
            let off = page.len() as u64;
            page.extend_from_slice(key.suffix);
            (off, len as u64)
        };
        let page = (self.pages.len() - 1) as u64;
        assert!(page < 1 << 30, "suffix page index overflows its locator field");
        self.loc.push((key.form as u64) << 62 | page << 32 | off << 16 | len_field);
        self.host.push(key.host);
    }

    fn key(&self, id: usize) -> UrlKey<'_> {
        let l = self.loc.get(id);
        let page = &self.pages[(l >> 32 & 0x3FFF_FFFF) as usize];
        let suffix = if l & 0xFFFF == WHOLE_PAGE {
            &page[..]
        } else {
            let off = (l >> 16 & 0xFFFF) as usize;
            &page[off..off + (l & 0xFFFF) as usize]
        };
        UrlKey { form: (l >> 62) as u8, host: self.host.get(id), suffix }
    }

    fn matches(&self, id: usize, key: UrlKey<'_>) -> bool {
        let stored = self.key(id);
        stored.form == key.form && stored.host == key.host && stored.suffix == key.suffix
    }

    /// Bytes held by the suffix pages (the columns are counted apart).
    fn suffix_bytes(&self) -> usize {
        self.pages.iter().map(Vec::capacity).sum::<usize>()
            + self.pages.capacity() * size_of::<Vec<u8>>()
    }
}

/// Cross-chunk dedup table over the classifier's owned URLs — level two
/// of the two-level intern (see `append_chunk`). Linear probing at under
/// 3/4 load, ids in insertion order, but it is only ever probed once per
/// *chunk-distinct* URL (the core's chunk index absorbs all within-chunk
/// repeats), so its slots carry no occurrence index — 8 bytes, equality
/// always against the owned store.
struct UrlSlots {
    slots: Vec<Slot>,
    mask: usize,
    len: u32,
    /// Interned id -> low 32 bits of its hash (the slot's tag holds the
    /// high 32). Together they reject nearly every false tag match without
    /// touching the colder suffix bytes, and let a table grow re-insert
    /// from the old slots alone instead of re-hashing every owned URL.
    hash_lo: Paged<u32>,
}

/// `id1` is the interned id plus one (0 = empty slot).
#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u32,
    id1: u32,
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
            hash_lo: Paged::default(),
        }
    }

    /// Home slot of a hash (from its low half, the part the sidecar keeps).
    fn home(&self, hash: u64) -> usize {
        hash as u32 as usize & self.mask
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[self.home(hash)].id1);
    }

    /// Chases a probed slot into the store: if the hash's home slot holds
    /// a tag match, its hash half and suffix are about to be compared —
    /// touching them a few iterations early overlaps those dependent DRAM
    /// loads with the resolve loop.
    fn prefetch_url(&self, hash: u64, urls: &UrlStore) {
        let slot = self.slots[self.home(hash)];
        if slot.id1 != 0 && slot.tag == (hash >> 32) as u32 {
            let id = (slot.id1 - 1) as usize;
            std::hint::black_box(self.hash_lo.get(id));
            std::hint::black_box(urls.key(id).suffix.first().copied());
        }
    }

    /// Interns against the owned unique-URL store (both the pass-2 resolve
    /// loop and the `apply_delta` path, where no chunk slice exists).
    /// `hash` is the URL's [`url_hash`].
    fn intern_owned(&mut self, hash: u64, key: UrlKey<'_>, urls: &UrlStore) -> UrlSlot {
        if self.len as usize * 4 >= self.slots.len() * 3 {
            self.grow_to(self.slots.len() * 2);
        }
        let tag = (hash >> 32) as u32;
        let mut s = self.home(hash);
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.len += 1;
                self.slots[s] = Slot { tag, id1: self.len };
                self.hash_lo.push(hash as u32);
                return UrlSlot::New(self.len - 1);
            }
            // Tag (high 32 bits) filters in the slot line itself; the low
            // half from the dense sidecar then rejects nearly every
            // residual false tag match without touching the (colder)
            // suffix bytes. The key comparison stays authoritative.
            let id = (slot.id1 - 1) as usize;
            if slot.tag == tag && self.hash_lo.get(id) == hash as u32 && urls.matches(id, key) {
                return UrlSlot::Existing(slot.id1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Sizes the table for a cumulative request total, rehashing at most
    /// once: one slot per request, rounded up to a power of two, applied
    /// per chunk with the running total. The rule matters twice over: a
    /// table left to the 3/4 load-factor doublings runs ~2x longer probe
    /// chains (measurably dragging the pipelined resolve pass), while a
    /// larger one doubles the cache footprint every probe has to miss
    /// through. It also means a chunk never pays repeated doublings
    /// mid-pass.
    fn reserve_for_total(&mut self, total_requests: usize) {
        let target = total_requests.max(16).next_power_of_two();
        if target > self.slots.len() {
            self.grow_to(target);
        }
    }

    /// Rebuilds the table at `n` slots from the old slots, which carry
    /// each entry's tag and id; the home slot comes from the hash half in
    /// the sidecar. Linear-probe lookups only need every key reachable
    /// from its home slot without crossing an empty slot, and re-inserting
    /// every key into an empty table preserves that regardless of
    /// insertion order — slot layout is not part of the determinism
    /// contract (interned ids are, and they don't move).
    fn grow_to(&mut self, n: usize) {
        let mut slots = vec![Slot::default(); n];
        let mask = n - 1;
        for &old in &self.slots {
            if old.id1 == 0 {
                continue;
            }
            let mut d = self.hash_lo.get((old.id1 - 1) as usize) as usize & mask;
            while slots[d].id1 != 0 {
                d = (d + 1) & mask;
            }
            slots[d] = old;
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// How far ahead of the resolve loop a chunk-distinct URL is rendered,
/// hashed and its dedup slot prefetched.
const SLOT_AHEAD: usize = 8;
/// How far ahead the stored URL a slot points at is prefetched.
const URL_AHEAD: usize = 4;

/// Reusable per-chunk working memory: the core's chunk index, the URLs in
/// flight in the resolve loop, and the dense per-request/per-chunk-distinct
/// views. At streaming chunk sizes (~1.3K requests) allocating these
/// afresh would repeat hundreds of times over a stream, so the buffers
/// persist across chunks and are cleared instead.
#[derive(Default)]
struct ChunkScratch {
    index: ChunkIndex,
    /// The rendered suffixes and [`url_hash`]es of the chunk-distinct
    /// URLs in flight in the resolve loop: URL `k` is in entry
    /// `k % SLOT_AHEAD`.
    ahead: [(String, u64); SLOT_AHEAD],
    /// Chunk-local URL id -> stream-global URL id, dense host id, and
    /// stage-1 verdict.
    gid_of: Vec<u32>,
    gid_host: Vec<u32>,
    hit: Vec<bool>,
    /// Request -> stream-global URL id / dense host id.
    url_of: Vec<u32>,
    host_of: Vec<u32>,
}

impl ChunkScratch {
    fn resident_bytes(&self) -> usize {
        self.index.resident_bytes()
            + self.ahead.iter().map(|(s, _)| s.capacity()).sum::<usize>()
            + self.hit.capacity()
            + (self.gid_of.capacity()
                + self.gid_host.capacity()
                + self.url_of.capacity()
                + self.host_of.capacity())
                * size_of::<u32>()
    }
}

/// Cross-chunk classifier state. See the module docs for what persists and
/// why feeding chunks in order is bit-identical to batch classification.
pub struct IncrementalClassifier {
    /// The compiled filter-list engine (DESIGN.md §5h) — automaton, anchor
    /// buckets and the dense per-host row cache, all owned, so
    /// nothing about the frozen lists is re-derived per chunk.
    engine: RuleEngine,
    stages: ClassifierStages,
    scanner: KeywordScanner,

    /// Owned unique URLs (split or raw form) with their host ids.
    urls: UrlStore,
    url_slots: UrlSlots,
    /// World `DomainId` -> classifier-local dense host id (`u32::MAX` =
    /// unseen), lazily grown.
    host_remap: Vec<u32>,
    /// Dense host id -> world `DomainId` (serialization, host names, and
    /// row re-resolution on decode).
    host_ids: Vec<DomainId>,
    /// Dense host id -> compiled engine row (gate verdict + TLD id).
    rows: Vec<HostRow>,

    /// Per-unique-URL state byte (the core's memo fields and URL
    /// seen-bits), by stream-global URL id.
    url_state: Paged<u8>,
    /// Host/TLD seen-bits and the running Table-2 rows.
    tally: Tally,
    n_requests: u64,

    /// Serialization baseline: snapshots of the mutable per-entry state as
    /// of the last `encode_delta`/`apply_delta` (their lengths are the
    /// baseline's URL and host counts), so the next delta carries only
    /// entries created or mutated since. A fresh classifier's baseline is
    /// empty, making its first delta a full encoding.
    enc_state: Paged<u8>,
    enc_host_seen: Vec<u8>,

    /// Reusable per-chunk working memory (see [`ChunkScratch`]).
    chunk_scratch: ChunkScratch,
}

/// Minimum encoded widths of the delta's items: a new host (u32 id + seen
/// byte), a new URL (u32 host ref, form byte, state byte, u64 suffix
/// length), a host update (u32 + seen byte), a URL update (u32 + state).
const NEW_HOST_MIN: usize = 5;
const NEW_URL_MIN: usize = 4 + 1 + 1 + 8;
const HOST_UPDATE_MIN: usize = 5;
const URL_UPDATE_MIN: usize = 5;

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
            urls: UrlStore::default(),
            url_slots: UrlSlots::with_capacity(1024),
            host_remap: Vec::new(),
            host_ids: Vec::new(),
            rows: Vec::new(),
            url_state: Paged::default(),
            tally: Tally::default(),
            n_requests: 0,
            enc_state: Paged::default(),
            enc_host_seen: Vec::new(),
            chunk_scratch: ChunkScratch::default(),
        }
    }

    /// Total requests absorbed so far.
    pub fn n_requests(&self) -> u64 {
        self.n_requests
    }

    /// The running Table-2 rows `(abp, semi)` over everything absorbed so
    /// far. Equals the counts [`crate::classify`] returns over the concatenated
    /// log.
    pub fn counts(&self) -> (MethodCounts, MethodCounts) {
        (self.tally.abp, self.tally.semi)
    }

    /// Bytes held by the per-URL and per-host structures, with the chunk
    /// scratch reported apart (see [`ResidentBytes`]).
    pub fn resident_bytes(&self) -> ResidentBytes {
        ResidentBytes {
            url_suffixes: self.urls.suffix_bytes(),
            url_columns: self.urls.loc.resident_bytes()
                + self.urls.host.resident_bytes()
                + self.url_slots.hash_lo.resident_bytes()
                + self.url_state.resident_bytes()
                + self.enc_state.resident_bytes(),
            url_slots: self.url_slots.slots.capacity() * size_of::<Slot>(),
            hosts: self.host_remap.capacity() * size_of::<u32>()
                + self.host_ids.capacity() * size_of::<DomainId>()
                + self.rows.capacity() * size_of::<HostRow>()
                + self.tally.host_seen.capacity()
                + self.tally.tld_seen.capacity()
                + self.enc_host_seen.capacity(),
            chunk_scratch: self.chunk_scratch.resident_bytes(),
        }
    }

    /// Interns a URL's host, resolving its engine row (gate and TLD id),
    /// and returns the dense host id.
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
        self.tally.host_seen.push(0);
        let row = self.engine.host_row(host_id, domains);
        self.rows.push(row);
        let t = row.tld() as usize;
        if t >= self.tally.tld_seen.len() {
            self.tally.tld_seen.resize(t + 1, 0);
        }
        h
    }

    /// Classifies one appended chunk and absorbs its counts.
    ///
    /// Chunks must arrive in log order; `requests` must be a whole-user
    /// range (referrer indices are chunk-local positions — the same
    /// contract the batch classifier holds for a whole log).
    pub fn append_chunk(
        &mut self,
        requests: &[LoggedRequest],
        domains: &DomainTable,
    ) -> ChunkClassification {
        let n = requests.len();
        // Size the cross-chunk table for the worst case (every request
        // unique) before the resolve pass — the pipelined loop never
        // rehashes.
        self.url_slots
            .reserve_for_total(self.n_requests as usize + n);
        // Per-chunk working memory persists across chunks (reset, not
        // reallocated); taken out of `self` so the borrow checker lets the
        // passes below index `self`'s per-unique tables while filling it.
        let mut sc = std::mem::take(&mut self.chunk_scratch);
        let ChunkScratch {
            index,
            ahead,
            gid_of,
            gid_host,
            hit,
            url_of,
            host_of,
        } = &mut sc;

        // Two-level interning. Pass 1 is the core's chunk index: it dedups
        // the chunk against itself on compact keys in a cache-resident
        // table, absorbing the ~40% of requests that repeat a URL within
        // their own chunk.
        // Chunk-local ids are first-occurrence ranks, so walking them in
        // order preserves the global first-occurrence id assignment the
        // determinism contract pins.
        index.build(requests);

        // Pass 2 resolves each chunk-distinct URL to its cross-chunk id in
        // one tight pipelined loop. Each URL's suffix (what follows
        // `scheme://host`; the owned store keeps the rendered string in
        // split form) is rendered and hashed SLOT_AHEAD iterations before
        // it is resolved, and its slot in the big table prefetched then;
        // the stored URL the slot points at (the equality target for a
        // recurring URL) is prefetched URL_AHEAD out, once the slot line
        // has had time to arrive — the dependent DRAM chases that
        // otherwise stall every first-recurrence-this-chunk probe.
        let first = &index.first;
        let render = |k: usize, (suffix, hash): &mut (String, u64)| {
            let r = &requests[first[k] as usize];
            suffix.clear();
            r.url.write_suffix(r.user.0, suffix);
            *hash = url_hash(url_form(r), r.host, suffix.as_bytes());
        };
        let m = first.len();
        gid_of.clear();
        gid_host.clear();
        hit.clear();
        gid_of.reserve(m);
        gid_host.reserve(m);
        for (k, entry) in ahead.iter_mut().enumerate().take(m) {
            render(k, entry);
            self.url_slots.prefetch(entry.1);
        }
        for entry in ahead.iter().take(m.min(URL_AHEAD)) {
            self.url_slots.prefetch_url(entry.1, &self.urls);
        }
        let mut urls = UrlRenderer::new(domains);
        for k in 0..m {
            if k + URL_AHEAD < m {
                let h = ahead[(k + URL_AHEAD) % SLOT_AHEAD].1;
                self.url_slots.prefetch_url(h, &self.urls);
            }
            let r = &requests[index.first[k] as usize];
            // A recurring URL's host is already interned (equal URLs share
            // a host), so interning it first assigns new host ids in the
            // same first-occurrence order as interning it for new URLs only.
            let h = self.intern_host(r.host, domains);
            let (suffix, hash) = &ahead[k % SLOT_AHEAD];
            let key = UrlKey { form: url_form(r), host: h, suffix: suffix.as_bytes() };
            let u = match self.url_slots.intern_owned(*hash, key, &self.urls) {
                UrlSlot::New(u) => {
                    self.urls.push(key);
                    self.url_state.push(0);
                    u
                }
                UrlSlot::Existing(u) => u,
            };
            // Stage 1, decided once per chunk-distinct URL here and
            // memoized across chunks (a URL-dependent row renders the
            // whole string once); the projection below only copies a bool.
            let row = self.rows[h as usize];
            hit.push(
                row.always()
                    || (!row.never()
                        && memo_get(&mut self.url_state, u, GATE, || {
                            self.engine.url_verdict(row, domains.domain(r.host), urls.render(r))
                        })),
            );
            gid_of.push(u);
            gid_host.push(h);
            if k + SLOT_AHEAD < m {
                let entry = &mut ahead[k % SLOT_AHEAD];
                render(k + SLOT_AHEAD, entry);
                self.url_slots.prefetch(entry.1);
            }
        }

        // Pass 3 projects the per-request views and the stage-1 labels
        // through the two maps — linear over arrays that are all still
        // warm.
        url_of.clear();
        host_of.clear();
        url_of.reserve(n);
        host_of.reserve(n);
        let mut labels = Vec::with_capacity(n);
        for &cu in &index.url_of {
            let cu = cu as usize;
            url_of.push(gid_of[cu]);
            host_of.push(gid_host[cu]);
            labels.push(if hit[cu] {
                Classification::AbpTracking
            } else {
                Classification::Clean
            });
        }

        let (stage2_rounds, stage3_rounds) = semi_automatic(
            requests,
            url_of,
            &index.referrer_of,
            &mut labels,
            self.stages,
            |r| self.scanner.matches(urls.render(r)),
            &mut self.url_state,
        );
        self.tally
            .absorb(&labels, host_of, url_of, &self.rows, &mut self.url_state);
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
        let (enc_hosts, enc_urls) = (self.enc_host_seen.len(), self.enc_state.len());
        w.put_u64(self.n_requests);
        w.put_usize(enc_hosts);
        w.put_usize(enc_urls);
        w.put_usize(self.host_ids.len() - enc_hosts);
        for h in enc_hosts..self.host_ids.len() {
            w.put_u32(self.host_ids[h].0);
            w.put_u8(self.tally.host_seen[h]);
        }
        w.put_usize(self.urls.len() - enc_urls);
        for u in enc_urls..self.urls.len() {
            let key = self.urls.key(u);
            w.put_u32(key.host);
            w.put_u8(key.form);
            w.put_u8(self.url_state.get(u));
            w.put_blob(key.suffix);
        }
        let dirty_hosts: Vec<u32> = (0..enc_hosts)
            .filter(|&h| self.tally.host_seen[h] != self.enc_host_seen[h])
            .map(|h| h as u32)
            .collect();
        w.put_usize(dirty_hosts.len());
        for &h in &dirty_hosts {
            w.put_u32(h);
            w.put_u8(self.tally.host_seen[h as usize]);
        }
        // Page by page: an unchanged page is one slice comparison.
        let mut dirty_urls: Vec<u32> = Vec::new();
        for (p, (now, then)) in self
            .url_state
            .filled_pages()
            .zip(self.enc_state.filled_pages())
            .enumerate()
        {
            if now[..then.len()] != *then {
                let base = p * COLUMN_PAGE;
                dirty_urls.extend(
                    (0..then.len())
                        .filter(|&k| now[k] != then[k])
                        .map(|k| (base + k) as u32),
                );
            }
        }
        w.put_usize(dirty_urls.len());
        for &u in &dirty_urls {
            w.put_u32(u);
            w.put_u8(self.url_state.get(u as usize));
        }
        for c in [&self.tally.abp, &self.tally.semi] {
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
        let n_new_hosts = r.count(NEW_HOST_MIN)?;
        // Pre-reserve the host-side tables from the delta header, and the
        // world-id remap to its final extent, so cross-segment replay
        // never pays doubling spikes mid-chunk (the same cold-growth
        // class `reserve_for_total` kills for the URL table below).
        self.host_ids.reserve(n_new_hosts);
        self.tally.host_seen.reserve(n_new_hosts);
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
            self.tally.host_seen[h as usize] = seen;
        }
        let n_new_urls = r.count(NEW_URL_MIN)?;
        if (base_urls + n_new_urls) as u64 > n_requests {
            return Err(bad(format!(
                "{} unique urls exceed {n_requests} total requests",
                base_urls + n_new_urls
            )));
        }
        // Size the open-addressing URL table for the post-chunk total
        // before interning (`append_chunk`'s sizing rule; without
        // this, replaying a large run rehashes the full table mid-delta).
        // The total itself is not backed by any bytes here, so the table
        // is sized for at most four slots per URL the state will hold: a
        // corrupt total cannot size an allocation, and a valid total above
        // that only leaves the table at a load factor of 1/4 instead of
        // lower.
        let unique_after = (base_urls + n_new_urls) as u64;
        self.url_slots
            .reserve_for_total(n_requests.min(unique_after.saturating_mul(4)) as usize);
        for _ in 0..n_new_urls {
            let h = r.u32()?;
            if h as usize >= self.host_ids.len() {
                return Err(bad(format!(
                    "url host ref {h} out of range ({} hosts)",
                    self.host_ids.len()
                )));
            }
            let form = r.u8()?;
            if form != FORM_HTTP && form != FORM_HTTPS {
                return Err(bad(format!("url form {form} out of range")));
            }
            let state = r.u8()?;
            if !valid_state(state) {
                return Err(bad(format!("url state byte {state:#04x} out of range")));
            }
            let suffix = r.str()?.as_bytes();
            let hash = url_hash(form, self.host_ids[h as usize], suffix);
            let key = UrlKey { form, host: h, suffix };
            match self.url_slots.intern_owned(hash, key, &self.urls) {
                UrlSlot::New(u) => debug_assert_eq!(u as usize, self.urls.len()),
                UrlSlot::Existing(u) => {
                    return Err(bad(format!("duplicate of url {u} in delta")));
                }
            }
            self.urls.push(key);
            self.url_state.push(state);
        }
        let n_host_updates = r.count(HOST_UPDATE_MIN)?;
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
            if seen > 3 || seen & self.tally.host_seen[h] != self.tally.host_seen[h] {
                return Err(bad(format!(
                    "host {h} seen-bits update {seen} is not a superset of {}",
                    self.tally.host_seen[h]
                )));
            }
            self.tally.host_seen[h] = seen;
        }
        let n_url_updates = r.count(URL_UPDATE_MIN)?;
        for _ in 0..n_url_updates {
            let u = r.u32()? as usize;
            if u >= base_urls {
                return Err(bad(format!(
                    "url update {u} outside the {base_urls}-url baseline"
                )));
            }
            let state = r.u8()?;
            let (seen, was) = (state >> SEEN, self.url_state.get(u) >> SEEN);
            if !valid_state(state) || seen & was != was {
                return Err(bad(format!(
                    "url {u} state update {state:#04x} is out of range or drops \
                     seen-bits {was}"
                )));
            }
            self.url_state.set(u, state);
        }
        // TLD seen-bits are the union of their hosts' (a TLD bit is only
        // ever set alongside a host bit in the absorb pass), so they are
        // recomputed rather than stored.
        self.tally.tld_seen.fill(0);
        for h in 0..self.host_ids.len() {
            self.tally.tld_seen[self.rows[h].tld() as usize] |= self.tally.host_seen[h];
        }
        for c in [&mut self.tally.abp, &mut self.tally.semi] {
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
        self.enc_state.copy_from(&self.url_state);
        self.enc_host_seen.clone_from(&self.tally.host_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{classify, classify_with_stages_threads};
    use crate::listgen::generate_lists;
    use crate::testkit::{dataset, rebased, reversed_chain, user_chunks};
    use rand::{rngs::StdRng, SeedableRng};
    use std::mem::size_of;
    use xborder_browser::Referrer;
    use xborder_webgraph::url::{EncodedUrl, Scheme, UrlParts, UrlStyle};
    use xborder_webgraph::{Domain, WebGraph};

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
        // Minimum encoded width of one item of each count field.
        let min_width = |field: &str| match field {
            "n_new_hosts" => Some(NEW_HOST_MIN),
            "n_new_urls" => Some(NEW_URL_MIN),
            "n_host_updates" => Some(HOST_UPDATE_MIN),
            "n_url_updates" => Some(URL_UPDATE_MIN),
            _ => None,
        };
        assert_eq!(
            [NEW_HOST_MIN, NEW_URL_MIN, HOST_UPDATE_MIN, URL_UPDATE_MIN],
            [5, 14, 5, 5]
        );
        for (k, field) in header.iter().enumerate() {
            // Past the header come the later counts and the 8 running
            // totals, all zero: the bytes left after this field's count.
            let left = 8 * (header.len() - k - 1) + 8 * 8;
            let mut values = vec![1u64 << 40, u64::MAX];
            if let Some(w) = min_width(field) {
                // The smallest count those bytes cannot back at the item's
                // minimum width: refused by the count check itself, not by
                // a short read further on.
                values.push((left / w + 1) as u64);
            }
            for inflated in values {
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
                } else if min_width(field).is_some() {
                    let err = applied.expect_err("an unbacked count must not apply");
                    assert!(
                        err.detail.contains("bytes left"),
                        "{field} = {inflated} refused by the wrong check: {err}"
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
        const LEN: usize = 40;
        let (domains, requests, el, ep) = reversed_chain(LEN);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let out = cls.append_chunk(&requests, &domains);
        assert!(out.labels.iter().all(|l| l.is_tracking()));
        assert!(out.stage2_rounds > 16);
    }

    #[test]
    fn url_store_keeps_every_suffix_length() {
        // Empty, page-filling and oversized suffixes, mixed with enough
        // small ones to cross page boundaries, all read back exactly.
        let mut store = UrlStore::default();
        let lens = [0usize, 1, 40, 65_534, 3, 65_535, 0, 70_000, 2, SUFFIX_PAGE, 7];
        let mut want: Vec<(u8, u32, Vec<u8>)> = Vec::new();
        for round in 0..3u32 {
            for (i, &len) in lens.iter().enumerate() {
                let suffix: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
                let form = (i % 3) as u8;
                let host = round * 100 + i as u32;
                store.push(UrlKey { form, host, suffix: &suffix });
                want.push((form, host, suffix));
            }
        }
        for _ in 0..3 * COLUMN_PAGE {
            store.push(UrlKey { form: FORM_HTTPS, host: 9, suffix: b"/p?x=1" });
            want.push((FORM_HTTPS, 9, b"/p?x=1".to_vec()));
        }
        assert_eq!(store.len(), want.len());
        for (id, (form, host, suffix)) in want.iter().enumerate() {
            let key = store.key(id);
            assert_eq!((key.form, key.host, key.suffix), (*form, *host, &suffix[..]), "url {id}");
            assert!(store.matches(id, UrlKey { form: *form, host: *host, suffix }));
            assert!(!store.matches(id, UrlKey { form: *form, host: *host + 1, suffix }));
            assert!(!store.matches(id, UrlKey { form: (*form + 1) % 3, host: *host, suffix }));
        }
        // Shared pages are never grown past their first allocation.
        assert!(store.pages.iter().all(|p| p.capacity() == SUFFIX_PAGE || p.len() >= 0xFFFF));
    }

    #[test]
    fn resident_bytes_stay_within_the_layout_bound() {
        // Per-URL state may cost the suffix bytes plus at most 32 bytes per
        // unique URL, beside the request-sized slot table and one page of
        // slack per paged structure. A layout that regrows past that (or
        // that stops dropping the `scheme://host` prefix) fails here.
        let (graph, requests) = dataset(27);
        let domains = graph.domains();
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut offset = 0usize;
        for chunk in user_chunks(&requests, 5) {
            cls.append_chunk(&rebased(chunk, offset), domains);
            offset += chunk.len();
        }
        let mut unique: std::collections::HashMap<String, DomainId> = Default::default();
        for r in &requests {
            unique.entry(r.url_string(domains)).or_insert(r.host);
        }
        let suffix_bytes: usize = unique
            .iter()
            .map(|(url, &host)| {
                let host = domains.domain(host).as_str();
                ["https://", "http://"]
                    .iter()
                    .find_map(|scheme| url.strip_prefix(scheme)?.strip_prefix(host))
                    .unwrap_or(url)
                    .len()
            })
            .sum();
        let slot_table = requests.len().max(1024).next_power_of_two() * size_of::<Slot>();
        let one_page = SUFFIX_PAGE + COLUMN_PAGE * (size_of::<u64>() + 2 * size_of::<u32>() + 1);
        let rb = cls.resident_bytes();
        let bound = suffix_bytes + 32 * unique.len() + slot_table + one_page;
        assert!(
            rb.state() <= bound,
            "{rb:?}: {} resident bytes past the bound {bound} ({} unique urls, {suffix_bytes} \
             suffix bytes)",
            rb.state(),
            unique.len()
        );
        assert!(rb.url_suffixes >= suffix_bytes && rb.url_slots == slot_table);
        assert!(rb.chunk_scratch > 0, "the chunk scratch is reported apart");
    }

    /// Hosts whose names prefix one another (`a.co` / `a.com`), so a
    /// suffix split off one host's URL could be read under another.
    const HOSTS: [&str; 6] = ["a.com", "a.co", "ads.b.com", "b.com", "tr1.net", "x.zz"];

    /// A canonical compact URL drawn from small value sets, so that rows of
    /// one host and user often share it.
    fn adversarial_url(rng: &mut StdRng) -> EncodedUrl {
        use rand::Rng;
        let styles = [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords];
        loop {
            let style = styles[rng.gen_range(0..3)];
            let plain = style == UrlStyle::Plain;
            let parts = UrlParts {
                scheme: if rng.gen_bool(0.8) { Scheme::Https } else { Scheme::Http },
                style,
                path_idx: rng.gen_range(0..10),
                event_idx: if style == UrlStyle::Args { rng.gen_range(0..5) } else { 0 },
                service: if plain { 0 } else { rng.gen_range(0..3) },
                cb: (!plain && rng.gen_bool(0.2)).then_some(*b"a0cb0000"),
            };
            // Rejection keeps the path index inside the style's table.
            if let Ok(url) = EncodedUrl::try_from(parts) {
                return url;
            }
        }
    }

    proptest::proptest! {
        /// Random logs over compact URLs on hosts that prefix one another:
        /// the incremental classifier's labels equal batch per chunk,
        /// `counts()` equals batch over the log so far after every chunk,
        /// and a classifier rebuilt mid-stream from the encoded deltas
        /// continues exactly.
        #[test]
        fn adversarial_urls_match_batch_through_a_delta_round_trip(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            use xborder_browser::{RequestId, UserId};
            use xborder_netsim::time::SimTime;
            use xborder_webgraph::PublisherId;
            let rng = &mut StdRng::seed_from_u64(seed);
            let mut domains = DomainTable::new();
            let hosts: Vec<DomainId> =
                HOSTS.iter().map(|h| domains.intern(&Domain::new(*h))).collect();
            let site = domains.intern(&Domain::new("pub.example.org"));
            let mut el = FilterList::new("easylist");
            el.push(crate::rules::FilterRule::DomainAnchor(Domain::new("ads.b.com")));
            el.push(crate::rules::FilterRule::DomainWithPath {
                domain: Domain::new("a.com"),
                path_prefix: "/ad".into(),
            });
            let mut ep = FilterList::new("easyprivacy");
            ep.push(crate::rules::FilterRule::UrlSubstring("/imp?".into()));
            ep.push(crate::rules::FilterRule::UrlSubstring("&cb=a".into()));

            // A pool of (URL, host) pairs; a row's string also depends on
            // its user, so rows of few users share URLs often.
            let pool: Vec<(EncodedUrl, DomainId)> = (0..rng.gen_range(4..40))
                .map(|_| (adversarial_url(rng), hosts[rng.gen_range(0..HOSTS.len())]))
                .collect();
            let mut requests: Vec<LoggedRequest> = Vec::new();
            for user in 0..rng.gen_range(1..30u32) {
                let first = requests.len();
                for k in 0..rng.gen_range(1..8usize) {
                    let (url, host) = pool[rng.gen_range(0..pool.len())];
                    let referrer = if k > 0 && rng.gen_bool(0.6) {
                        Referrer::Request(RequestId(rng.gen_range(first..first + k) as u32))
                    } else {
                        Referrer::FirstParty
                    };
                    requests.push(LoggedRequest {
                        user: UserId(user),
                        time: SimTime(requests.len() as u64),
                        first_party: site,
                        publisher: PublisherId(0),
                        url,
                        host,
                        referrer,
                        ip: "10.0.0.1".parse().unwrap(),
                    });
                }
            }
            let batch = classify(&requests, &domains, &el, &ep);
            let chunks = user_chunks(&requests, rng.gen_range(1..5));
            let split = rng.gen_range(0..=chunks.len());

            let fresh = || IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
            let mut live = fresh();
            let mut resumed: Option<IncrementalClassifier> = None;
            let mut deltas: Vec<Vec<u8>> = Vec::new();
            let mut offset = 0usize;
            for (c, chunk) in chunks.iter().enumerate() {
                if c == split {
                    let mut r = fresh();
                    for bytes in &deltas {
                        let mut rd = ByteReader::new(bytes);
                        r.apply_delta(&mut rd, &domains).expect("delta applies");
                        rd.finish().expect("no trailing bytes");
                    }
                    proptest::prop_assert_eq!(r.counts(), live.counts());
                    resumed = Some(r);
                }
                let local = rebased(chunk, offset);
                let out = live.append_chunk(&local, &domains);
                let end = offset + chunk.len();
                proptest::prop_assert_eq!(&out.labels[..], &batch.labels[offset..end]);
                let prefix = classify(&requests[..end], &domains, &el, &ep);
                proptest::prop_assert_eq!(live.counts(), (prefix.abp, prefix.semi));
                if let Some(r) = resumed.as_mut() {
                    let again = r.append_chunk(&local, &domains);
                    proptest::prop_assert_eq!(&again.labels, &out.labels);
                    proptest::prop_assert_eq!(r.counts(), live.counts());
                }
                let mut w = ByteWriter::new();
                live.encode_delta(&mut w);
                deltas.push(w.into_bytes());
                offset = end;
            }
            proptest::prop_assert_eq!(live.counts(), (batch.abp, batch.semi));
        }
    }
}
