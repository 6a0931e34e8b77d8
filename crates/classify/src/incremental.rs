//! Delta-fixpoint incremental classifier for the streaming driver.
//!
//! The streaming and out-of-core drivers ingest the log in append-only
//! chunks. [`IncrementalClassifier`] keeps one slice labeller
//! (`label.rs`, the same one the batch classifier runs once over a whole
//! log) across [`IncrementalClassifier::append_chunk`] calls, so the
//! compiled [`crate::RuleEngine`] (DESIGN.md §5h), the host table and the
//! Table-2 tally persist: the engine is compiled exactly once, at
//! construction, every host is gate-resolved and `tld()`-ed once across
//! the whole stream, and the counts absorb per chunk, so finalizing
//! re-walks nothing.
//!
//! What only this classifier does is give each URL a stream-global id.
//! It owns the unique-URL store (compact URL keys, dense host ids, an
//! open-addressing dedup table) and one state byte per unique URL: the
//! argument, keyword and URL-dependent stage-1 gate memos — all pure
//! functions of the URL string, so a memo filled in chunk 0 is exact in
//! chunk 40 — and the URL seen-bits. The labeller's chunk index dedups
//! the chunk against itself on compact URL keys and keeps each
//! chunk-distinct URL's hash; a pipelined pass then resolves each
//! chunk-distinct URL against the owned store to its stream-global id
//! with that hash, and the labeller labels the chunk over those ids. No
//! URL string is rendered to dedup; strings are rendered only where bytes
//! are scanned (a URL-dependent stage-1 rule, the stage-3 keyword scan),
//! once per unique URL, since both verdicts are memoized. Propagation
//! runs over the frontier the new chunk introduces only: referrer edges
//! are positional within a chunk and never cross users (hence never cross
//! chunk boundaries — chunks are whole-user ranges), so the fixpoint over
//! the concatenated log decomposes exactly into per-chunk fixpoints.
//! Labels are monotone (Clean → Semi/AbpTracking, never back), so a
//! chunk's labels are final the moment the chunk is processed. The other
//! things it owns are the delta codec below and the checkpoint replay,
//! which re-interns hosts through the same host table.
//!
//! # Per-URL layout
//!
//! The per-unique-URL state is what grows with the stream (DESIGN.md §5g,
//! "Classifier state layout"), so it is a fixed 30 bytes per URL, however
//! long the string it renders:
//!
//! - the URL's canonical compact key, 24 bytes: the [`EncodedUrl`] plus
//!   the user its string renders (the row's user, 0 for a plain URL), the
//!   row key of `LoggedRequest::url_key` without the host. Rendering is
//!   injective on these keys, so for one host two URLs are equal strings
//!   exactly when their keys are equal, and comparing fixed-width records
//!   is exact;
//! - the dense host id (4 bytes), in a column of its own;
//! - one state byte shared by the three tri-state memos and the two
//!   seen-bits, and its serialization snapshot;
//! - every column lives in fixed-size pages that are never reallocated,
//!   so growth copies nothing and leaves at most one page of slack per
//!   column. Beside them sits the dedup table, one 8-byte slot per request
//!   absorbed, rounded up to a power of two, whose tags are the high half
//!   of each URL's hash; growing it re-hashes the stored keys.
//!
//! # Determinism
//!
//! Feeding chunks in log order reproduces the batch classifier bit for
//! bit, for every chunking: the stage verdicts are per-URL or
//! per-chunk-closed, and the absorbed counts walk requests in the same
//! global order through the same labeller, over seen-bits that persist
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
use crate::label::{key_hash, ChunkIndex, Labeller, UrlStates, ARGS, GATE, KW, MEMO_YES, SEEN};
use crate::rules::FilterList;
use std::mem::size_of;
use xborder_browser::{LoggedRequest, UrlKey};
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_webgraph::url::{pack_url, unpack_url, EncodedUrl, URL_CB};
use xborder_webgraph::{DomainId, DomainTable};

/// True if no memo field of a decoded state byte holds the unused value 3.
fn valid_state(state: u8) -> bool {
    [ARGS, KW, GATE].iter().all(|&f| (state >> f) & 3 <= MEMO_YES)
}

/// A unique URL as the store keeps it: a row's [`UrlKey`] without the
/// host, which has a column of its own.
#[derive(Clone, Copy, PartialEq, Eq)]
struct StoredUrl {
    url: EncodedUrl,
    /// The user the string renders: the row's user, or 0 for a plain URL.
    user: u32,
}

/// The store's per-URL record stays within 24 bytes.
const _: () = assert!(size_of::<StoredUrl>() <= 24);

impl StoredUrl {
    fn of(key: UrlKey) -> StoredUrl {
        StoredUrl {
            url: key.url,
            user: key.user,
        }
    }

    /// The row key this URL has on world host `host`.
    fn on(self, host: DomainId) -> UrlKey {
        UrlKey {
            host,
            user: self.user,
            url: self.url,
        }
    }
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
    /// Pages of unique-URL compact keys, 24 bytes each.
    pub url_keys: usize,
    /// The other fixed-width per-URL columns: host id, state byte, and the
    /// serialization snapshot of the state bytes.
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
        self.url_keys + self.url_columns + self.url_slots + self.hosts
    }
}

/// Entries per page of a [`Paged`] column.
const COLUMN_PAGE: usize = 1 << 12;

/// An append-only column in fixed-size pages that are never reallocated:
/// growing it allocates one more page and copies nothing, and at most one
/// page is slack.
struct Paged<T> {
    pages: Vec<Box<[T]>>,
    len: usize,
}

impl<T> Default for Paged<T> {
    fn default() -> Paged<T> {
        Paged {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy + PartialEq> Paged<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, v: T) {
        if self.len == self.pages.len() * COLUMN_PAGE {
            // A fresh page is filled with the value that opens it.
            self.pages.push(vec![v; COLUMN_PAGE].into_boxed_slice());
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

/// Owned unique-URL store: one fixed-width compact key and one dense host
/// id per URL, each in its own [`Paged`] column.
///
/// The labeller's chunk index never copies a URL — it borrows equality
/// targets from the request slice. Across chunks the log is gone, so the
/// classifier keeps each unique URL's key, which is what a row's string
/// is a function of: equal keys on equal hosts render equal strings and
/// unequal ones never do, so comparing records is exact and no string is
/// ever rendered to dedup.
#[derive(Default)]
struct UrlStore {
    key: Paged<StoredUrl>,
    host: Paged<u32>,
}

impl UrlStore {
    fn len(&self) -> usize {
        self.key.len()
    }

    fn push(&mut self, key: StoredUrl, host: u32) {
        self.key.push(key);
        self.host.push(host);
    }

    fn matches(&self, id: usize, key: StoredUrl, host: u32) -> bool {
        self.key.get(id) == key && self.host.get(id) == host
    }

    /// URL `id`'s [`key_hash`], the hash its first row had in its chunk.
    fn hash(&self, id: usize, host_ids: &[DomainId]) -> u64 {
        key_hash(&self.key.get(id).on(host_ids[self.host.get(id) as usize]))
    }
}

/// Cross-chunk dedup table over the classifier's owned URLs — level two
/// of the two-level intern (see `append_chunk`). Linear probing at under
/// 3/4 load, ids in insertion order, but it is only ever probed once per
/// *chunk-distinct* URL (the labeller's chunk index absorbs all within-chunk
/// repeats), so its slots carry no occurrence index — 8 bytes, equality
/// always against the owned store. A slot holds the high half of the
/// URL's [`key_hash`] as its tag; growing the table re-hashes the stored
/// keys.
struct UrlSlots {
    slots: Vec<Slot>,
    mask: usize,
    len: u32,
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
        }
    }

    /// Home slot of a hash.
    fn home(&self, hash: u64) -> usize {
        hash as usize & self.mask
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[self.home(hash)].id1);
    }

    /// Chases a probed slot into the store: if the hash's home slot holds
    /// a tag match, its stored key is about to be compared — touching it a
    /// few iterations early overlaps that dependent DRAM load with the
    /// resolve loop.
    fn prefetch_url(&self, hash: u64, urls: &UrlStore) {
        let slot = self.slots[self.home(hash)];
        if slot.id1 != 0 && slot.tag == (hash >> 32) as u32 {
            std::hint::black_box(urls.key.get((slot.id1 - 1) as usize).user);
        }
    }

    /// Interns against the owned unique-URL store (both the level-two resolve
    /// loop and the `apply_delta` path, where no chunk slice exists).
    /// `hash` is the URL's [`key_hash`]; `host_ids` maps the store's dense
    /// host ids to world ids, for re-hashing should the table grow.
    fn intern_owned(
        &mut self,
        hash: u64,
        key: StoredUrl,
        host: u32,
        urls: &UrlStore,
        host_ids: &[DomainId],
    ) -> UrlSlot {
        if self.len as usize * 4 >= self.slots.len() * 3 {
            self.grow_to(self.slots.len() * 2, urls, host_ids);
        }
        let tag = (hash >> 32) as u32;
        let mut s = self.home(hash);
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.len += 1;
                self.slots[s] = Slot { tag, id1: self.len };
                return UrlSlot::New(self.len - 1);
            }
            // The tag filters in the slot line itself; the fixed-width key
            // comparison stays authoritative.
            if slot.tag == tag && urls.matches((slot.id1 - 1) as usize, key, host) {
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
    fn reserve_for_total(&mut self, total_requests: usize, urls: &UrlStore, host_ids: &[DomainId]) {
        let target = total_requests.max(16).next_power_of_two();
        if target > self.slots.len() {
            self.grow_to(target, urls, host_ids);
        }
    }

    /// Rebuilds the table at `n` slots by re-inserting every stored URL in
    /// id order, which reads the key column front to back. Linear-probe
    /// lookups only need every key reachable from its home slot without
    /// crossing an empty slot, and re-inserting every key into an empty
    /// table preserves that regardless of insertion order — slot layout is
    /// not part of the determinism contract (interned ids are, and they
    /// don't move).
    fn grow_to(&mut self, n: usize, urls: &UrlStore, host_ids: &[DomainId]) {
        debug_assert_eq!(urls.len(), self.len as usize, "every slot has a stored URL");
        let mut slots = vec![Slot::default(); n];
        let mask = n - 1;
        for id in 0..urls.len() {
            let hash = urls.hash(id, host_ids);
            let mut d = hash as usize & mask;
            while slots[d].id1 != 0 {
                d = (d + 1) & mask;
            }
            slots[d] = Slot {
                tag: (hash >> 32) as u32,
                id1: id as u32 + 1,
            };
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// How far ahead of the resolve loop a chunk-distinct URL's dedup slot is
/// prefetched.
const SLOT_AHEAD: usize = 8;
/// How far ahead the stored URL a slot points at is prefetched.
const URL_AHEAD: usize = 4;

/// Cross-chunk classifier state. See the module docs for what persists and
/// why feeding chunks in order is bit-identical to batch classification.
pub struct IncrementalClassifier {
    /// The slice labeller — compiled engine, host table and Table-2
    /// tally — kept across chunks.
    labeller: Labeller,

    /// Owned unique URLs (compact keys) with their host ids.
    urls: UrlStore,
    url_slots: UrlSlots,
    /// Per-unique-URL state byte (the labeller's memo fields and URL
    /// seen-bits), by stream-global URL id.
    url_state: Paged<u8>,
    n_requests: u64,

    /// Serialization baseline: snapshots of the mutable per-entry state as
    /// of the last `encode_delta`/`apply_delta` (their lengths are the
    /// baseline's URL and host counts), so the next delta carries only
    /// entries created or mutated since. A fresh classifier's baseline is
    /// empty, making its first delta a full encoding.
    enc_state: Paged<u8>,
    enc_host_seen: Vec<u8>,

    /// Chunk-local URL rank -> stream-global URL id, reused from chunk to
    /// chunk.
    gid_of: Vec<u32>,
}

/// Minimum encoded widths of the delta's items: a new host (u32 id + seen
/// byte), a new URL (u32 host ref, state byte, shape byte, index byte, u32
/// service, u32 user; 8 cache-buster bytes follow only when the shape
/// flags them), a host update (u32 + seen byte), a URL update (u32 +
/// state).
const NEW_HOST_MIN: usize = 5;
const NEW_URL_MIN: usize = 4 + 1 + 1 + 1 + 4 + 4;
const HOST_UPDATE_MIN: usize = 5;
const URL_UPDATE_MIN: usize = 5;

impl IncrementalClassifier {
    /// A fresh classifier over the given filter lists and stage toggles.
    /// Compiles the lists into a [`crate::RuleEngine`] once, here — the
    /// classifier owns the compiled form, so the lists themselves are not
    /// borrowed past construction.
    pub fn new(
        easylist: &FilterList,
        easyprivacy: &FilterList,
        stages: ClassifierStages,
    ) -> IncrementalClassifier {
        IncrementalClassifier {
            labeller: Labeller::new(easylist, easyprivacy, stages, ChunkIndex::keeping_hashes()),
            urls: UrlStore::default(),
            url_slots: UrlSlots::with_capacity(1024),
            url_state: Paged::default(),
            n_requests: 0,
            enc_state: Paged::default(),
            enc_host_seen: Vec::new(),
            gid_of: Vec::new(),
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
        self.labeller.counts()
    }

    /// Bytes held by the per-URL and per-host structures, with the chunk
    /// scratch reported apart (see [`ResidentBytes`]).
    pub fn resident_bytes(&self) -> ResidentBytes {
        ResidentBytes {
            url_keys: self.urls.key.resident_bytes(),
            url_columns: self.urls.host.resident_bytes()
                + self.url_state.resident_bytes()
                + self.enc_state.resident_bytes(),
            url_slots: self.url_slots.slots.capacity() * size_of::<Slot>(),
            hosts: self.labeller.host_bytes() + self.enc_host_seen.capacity(),
            chunk_scratch: self.labeller.slice_bytes() + self.gid_of.capacity() * size_of::<u32>(),
        }
    }

    /// Interns one URL in the owned store, given its [`key_hash`] and its
    /// host's dense id: its stream-global id, and whether it is new (then
    /// its state byte is pushed as `state`).
    fn intern_url(&mut self, hash: u64, key: StoredUrl, host: u32, state: u8) -> UrlSlot {
        let host_ids = &self.labeller.host_ids;
        let slot = self.url_slots.intern_owned(hash, key, host, &self.urls, host_ids);
        if let UrlSlot::New(u) = slot {
            debug_assert_eq!(u as usize, self.urls.len());
            self.urls.push(key, host);
            self.url_state.push(state);
        }
        slot
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
        self.url_slots.reserve_for_total(
            self.n_requests as usize + n,
            &self.urls,
            &self.labeller.host_ids,
        );

        // Two-level interning. Level one is the labeller's chunk index: it
        // dedups the chunk against itself on compact keys in a
        // cache-resident table, absorbing the ~40% of requests that repeat
        // a URL within their own chunk, and keeps each chunk-distinct
        // URL's hash. Chunk-local ids are first-occurrence ranks, so
        // walking them in order preserves the global first-occurrence id
        // assignment the determinism contract pins.
        self.labeller.index_slice(requests, domains);

        // Level two resolves each chunk-distinct URL to its cross-chunk id
        // in one tight pipelined loop, probing with the hash the index
        // kept and comparing fixed-width keys. Each URL's slot in the big
        // table is prefetched SLOT_AHEAD iterations before it is resolved;
        // the stored key the slot points at (the equality target for a
        // recurring URL) is prefetched URL_AHEAD out, once the slot line
        // has had time to arrive — the dependent DRAM chases that
        // otherwise stall every first-recurrence-this-chunk probe.
        let m = self.labeller.index.first.len();
        self.gid_of.clear();
        self.gid_of.reserve(m);
        for &hash in self.labeller.index.hashes.iter().take(SLOT_AHEAD) {
            self.url_slots.prefetch(hash);
        }
        for &hash in self.labeller.index.hashes.iter().take(URL_AHEAD) {
            self.url_slots.prefetch_url(hash, &self.urls);
        }
        for k in 0..m {
            let index = &self.labeller.index;
            if let Some(&hash) = index.hashes.get(k + SLOT_AHEAD) {
                self.url_slots.prefetch(hash);
            }
            if let Some(&hash) = index.hashes.get(k + URL_AHEAD) {
                self.url_slots.prefetch_url(hash, &self.urls);
            }
            let (hash, i) = (index.hashes[k], index.first[k] as usize);
            let key = StoredUrl::of(requests[i].url_key());
            let (UrlSlot::New(u) | UrlSlot::Existing(u)) =
                self.intern_url(hash, key, self.labeller.url_host[k], 0);
            self.gid_of.push(u);
        }

        // No thread budget here: stage 1 shards only in the batch run.
        let out = self.labeller.label(
            requests,
            Some(&self.gid_of),
            &mut self.url_state,
            domains,
            1,
        );
        self.n_requests += n as u64;
        out
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
        let dirty_hosts: Vec<u32> = (0..enc_hosts)
            .filter(|&h| self.labeller.tally.host_seen[h] != self.enc_host_seen[h])
            .map(|h| h as u32)
            .collect();
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
        // The exact length, so the writer grows once.
        let new_urls = enc_urls..self.urls.len();
        let n_cb = new_urls
            .clone()
            .filter(|&u| self.urls.key.get(u).url.parts().cb.is_some())
            .count();
        let len = 8 * 7
            + NEW_HOST_MIN * (self.labeller.host_ids.len() - enc_hosts)
            + NEW_URL_MIN * new_urls.len()
            + 8 * n_cb
            + HOST_UPDATE_MIN * dirty_hosts.len()
            + URL_UPDATE_MIN * dirty_urls.len()
            + 8 * 8;
        w.reserve(len);
        let start = w.len();
        w.put_u64(self.n_requests);
        w.put_usize(enc_hosts);
        w.put_usize(enc_urls);
        w.put_usize(self.labeller.host_ids.len() - enc_hosts);
        for h in enc_hosts..self.labeller.host_ids.len() {
            w.put_u32(self.labeller.host_ids[h].0);
            w.put_u8(self.labeller.tally.host_seen[h]);
        }
        w.put_usize(new_urls.len());
        for u in new_urls {
            let key = self.urls.key.get(u);
            let parts = key.url.parts();
            let (shape, index) = pack_url(&parts);
            w.put_u32(self.urls.host.get(u));
            w.put_u8(self.url_state.get(u));
            w.put_u8(shape);
            w.put_u8(index);
            w.put_u32(parts.service);
            w.put_u32(key.user);
            if let Some(cb) = parts.cb {
                w.put_bytes(&cb);
            }
        }
        w.put_usize(dirty_hosts.len());
        for &h in &dirty_hosts {
            w.put_u32(h);
            w.put_u8(self.labeller.tally.host_seen[h as usize]);
        }
        w.put_usize(dirty_urls.len());
        for &u in &dirty_urls {
            w.put_u32(u);
            w.put_u8(self.url_state.get(u as usize));
        }
        for c in [&self.labeller.tally.abp, &self.labeller.tally.semi] {
            w.put_usize(c.n_fqdn);
            w.put_usize(c.n_tld);
            w.put_usize(c.n_unique_urls);
            w.put_usize(c.n_total_requests);
        }
        debug_assert_eq!(w.len() - start, len, "the reserved length is exact");
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
        if base_hosts != self.labeller.host_ids.len() || base_urls != self.urls.len() {
            return Err(bad(format!(
                "delta baseline ({base_hosts} hosts, {base_urls} urls) does not match \
                 state ({} hosts, {} urls): chunk deltas must be applied in order",
                self.labeller.host_ids.len(),
                self.urls.len()
            )));
        }
        let n_new_hosts = r.count(NEW_HOST_MIN)?;
        // Pre-reserve the host-side tables from the delta header, and the
        // world-id remap to its final extent, so cross-segment replay
        // never pays doubling spikes mid-chunk (the same cold-growth
        // class `reserve_for_total` kills for the URL table below).
        self.labeller.reserve_hosts(n_new_hosts, domains.len());
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
            let h = self.labeller.intern_host(DomainId(wid), domains);
            if h as usize + 1 != self.labeller.host_ids.len() {
                return Err(bad(format!("duplicate host id {wid} in delta")));
            }
            self.labeller.tally.host_seen[h as usize] = seen;
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
        self.url_slots.reserve_for_total(
            n_requests.min(unique_after.saturating_mul(4)) as usize,
            &self.urls,
            &self.labeller.host_ids,
        );
        for k in base_urls..base_urls + n_new_urls {
            let h = r.u32()?;
            if h as usize >= self.labeller.host_ids.len() {
                return Err(bad(format!(
                    "url host ref {h} out of range ({} hosts)",
                    self.labeller.host_ids.len()
                )));
            }
            let state = r.u8()?;
            if !valid_state(state) {
                return Err(bad(format!("url state byte {state:#04x} out of range")));
            }
            let (shape, index, service, user) = (r.u8()?, r.u8()?, r.u32()?, r.u32()?);
            let cb = if shape & URL_CB != 0 {
                Some(r.bytes(8)?.try_into().expect("8 bytes"))
            } else {
                None
            };
            // The same canonical-form check a block's URL columns pass.
            let url = unpack_url(shape, index, service, cb)
                .map_err(|e| bad(format!("url {k}: {e}")))?;
            if url.rendered_user(user) != user {
                return Err(bad(format!("url {k}: plain URL carries user {user}")));
            }
            let key = StoredUrl { url, user };
            let hash = key_hash(&key.on(self.labeller.host_ids[h as usize]));
            if let UrlSlot::Existing(u) = self.intern_url(hash, key, h, state) {
                return Err(bad(format!("url {k}: duplicate of url {u} in delta")));
            }
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
            if seen > 3
                || seen & self.labeller.tally.host_seen[h] != self.labeller.tally.host_seen[h]
            {
                return Err(bad(format!(
                    "host {h} seen-bits update {seen} is not a superset of {}",
                    self.labeller.tally.host_seen[h]
                )));
            }
            self.labeller.tally.host_seen[h] = seen;
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
        let Labeller { rows, tally, .. } = &mut self.labeller;
        tally.tld_seen.fill(0);
        for (row, &seen) in rows.iter().zip(&tally.host_seen) {
            tally.tld_seen[row.tld() as usize] |= seen;
        }
        for c in [&mut self.labeller.tally.abp, &mut self.labeller.tally.semi] {
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
        self.enc_host_seen.clone_from(&self.labeller.tally.host_seen);
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
    use xborder_webgraph::url::{Scheme, UrlParts, UrlStyle, URL_HTTPS, URL_STYLE};
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
            [5, 15, 5, 5]
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
    fn url_store_keeps_every_key() {
        // Keys of every style, with and without users and cache busters,
        // enough of them to cross column pages, all read back exactly; a
        // key matches only under its own host and with its own user.
        let mut store = UrlStore::default();
        let mut want: Vec<(StoredUrl, u32)> = Vec::new();
        for i in 0..3 * COLUMN_PAGE as u32 + 17 {
            let url = compact(
                [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords][i as usize % 3],
                (i % 4) as u8,
                if i % 3 == 1 { (i % 5) as u8 } else { 0 },
                if i % 3 == 0 { 0 } else { i },
                (i % 3 != 0 && i % 7 == 0).then_some(*b"a0cb0000"),
            );
            let key = StoredUrl { url, user: url.rendered_user(i / 2) };
            store.push(key, i % 11);
            want.push((key, i % 11));
        }
        assert_eq!(store.len(), want.len());
        for (id, &(key, host)) in want.iter().enumerate() {
            assert!(store.key.get(id) == key && store.host.get(id) == host, "url {id}");
            assert!(store.matches(id, key, host));
            assert!(!store.matches(id, key, host + 1));
            assert!(!store.matches(id, StoredUrl { user: key.user + 1, ..key }, host));
        }
    }

    #[test]
    fn resident_bytes_stay_within_the_layout_bound() {
        // Per-URL state may cost at most 32 bytes per unique URL, whatever
        // its string's length, beside the request-sized slot table and one
        // page of slack over the paged columns. A layout that regrows past
        // that, or that keeps bytes per rendered character, fails here.
        let (graph, requests) = dataset(27);
        let domains = graph.domains();
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut offset = 0usize;
        for chunk in user_chunks(&requests, 5) {
            cls.append_chunk(&rebased(chunk, offset), domains);
            offset += chunk.len();
        }
        let unique: std::collections::HashSet<String> =
            requests.iter().map(|r| r.url_string(domains)).collect();
        let slot_table = requests.len().max(1024).next_power_of_two() * size_of::<Slot>();
        // A key, a host id, a state byte and its snapshot.
        let per_url = size_of::<StoredUrl>() + size_of::<u32>() + 2;
        let one_page = COLUMN_PAGE * per_url;
        let rb = cls.resident_bytes();
        let bound = 32 * unique.len() + slot_table + one_page;
        assert!(
            rb.state() <= bound,
            "{rb:?}: {} resident bytes past the bound {bound} ({} unique urls)",
            rb.state(),
            unique.len()
        );
        assert_eq!(cls.urls.len(), unique.len());
        assert!(rb.url_keys >= 24 * unique.len() && rb.url_slots == slot_table);
        assert!(rb.chunk_scratch > 0, "the chunk scratch is reported apart");
    }

    /// A canonical compact URL (panics on a non-canonical one).
    fn compact(
        style: UrlStyle,
        path_idx: u8,
        event_idx: u8,
        service: u32,
        cb: Option<[u8; 8]>,
    ) -> EncodedUrl {
        EncodedUrl::try_from(UrlParts {
            scheme: Scheme::Https,
            style,
            path_idx,
            event_idx,
            service,
            cb,
        })
        .expect("a canonical URL")
    }

    /// A first-party-referred row of `user` on `host`.
    fn row(user: u32, host: DomainId, url: EncodedUrl) -> LoggedRequest {
        LoggedRequest {
            user: xborder_browser::UserId(user),
            time: xborder_netsim::time::SimTime(0),
            first_party: host,
            publisher: xborder_webgraph::PublisherId(0),
            url,
            host,
            referrer: Referrer::FirstParty,
            ip: "10.0.0.1".parse().unwrap(),
        }
    }

    /// One tracker host, blocklisted, so every row counts in Table 2.
    fn tracker_world() -> (DomainTable, DomainId, FilterList, FilterList) {
        let mut domains = DomainTable::new();
        let host = domains.intern(&Domain::new("t.example.com"));
        let mut el = FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new("t.example.com")));
        (domains, host, el, FilterList::new("easyprivacy"))
    }

    #[test]
    fn store_keys_are_equal_exactly_when_strings_are() {
        // Two users log the same plain URL (one string) and the same args
        // URL (two strings, one per user), in two chunks. The plain rows
        // share an id across the chunk boundary, the args rows do not, and
        // the unique-URL count is the number of distinct strings, both
        // live and for a classifier rebuilt from the deltas.
        let (domains, host, el, ep) = tracker_world();
        let plain = compact(UrlStyle::Plain, 1, 0, 0, None);
        let args = compact(UrlStyle::Args, 0, 1, 3, None);
        let chunks = [
            vec![row(0, host, plain), row(0, host, args)],
            vec![row(1, host, plain), row(1, host, args)],
        ];
        let strings: std::collections::HashSet<String> =
            chunks.iter().flatten().map(|r| r.url_string(&domains)).collect();
        assert_eq!(strings.len(), 3);

        let fresh = || IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut live = fresh();
        let mut deltas = Vec::new();
        let mut ids = Vec::new();
        for chunk in &chunks {
            live.append_chunk(chunk, &domains);
            ids.push(live.gid_of.clone());
            let mut w = ByteWriter::new();
            live.encode_delta(&mut w);
            deltas.push(w.into_bytes());
        }
        assert_eq!(ids, [[0, 1], [0, 2]], "plain: one id; args: one per user");
        assert_eq!(live.counts().0.n_unique_urls, strings.len());

        // Chunk 0's delta, then chunk 1 live: the same ids.
        let mut resumed = fresh();
        resumed
            .apply_delta(&mut ByteReader::new(&deltas[0]), &domains)
            .expect("delta applies");
        resumed.append_chunk(&chunks[1], &domains);
        assert_eq!(resumed.gid_of, [0, 2]);
        assert_eq!(resumed.counts(), live.counts());

        // Both deltas: the same store, and a replayed row finds its id.
        let mut replayed = fresh();
        for bytes in &deltas {
            replayed
                .apply_delta(&mut ByteReader::new(bytes), &domains)
                .expect("delta applies");
        }
        assert_eq!(replayed.urls.len(), strings.len());
        assert_eq!(replayed.counts(), live.counts());
        replayed.append_chunk(&[row(2, host, plain), row(1, host, args)], &domains);
        assert_eq!(replayed.gid_of, [0, 2]);
        assert_eq!(replayed.counts().0.n_unique_urls, strings.len());
    }

    #[test]
    fn tampered_delta_urls_are_typed_errors() {
        // A writer bug that keeps the delta's framing intact, aimed at one
        // field of a new-URL entry. Each must be refused as a
        // `DecodeError` naming the fault, never a panic or a wrong store.
        let (domains, host, el, ep) = tracker_world();
        let user = 5;
        let requests = [
            row(user, host, compact(UrlStyle::Args, 1, 2, 7, Some(*b"k3v9q0zz"))),
            row(user, host, compact(UrlStyle::Plain, 2, 0, 0, None)),
            row(user, host, compact(UrlStyle::Plain, 3, 0, 0, None)),
        ];
        let fresh = || IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut cls = fresh();
        cls.append_chunk(&requests, &domains);
        let mut w = ByteWriter::new();
        cls.encode_delta(&mut w);
        let good = w.into_bytes();

        // Four header counts and one new host, then the new-URL count and
        // the entries: host ref, state, shape, index, service, user, and
        // the first entry's cache buster.
        const SHAPE: usize = 5;
        const INDEX: usize = 6;
        const SERVICE: usize = 7;
        const USER: usize = 11;
        const CB: usize = 15;
        let e0 = 4 * 8 + NEW_HOST_MIN + 8;
        let (e1, e2) = (e0 + NEW_URL_MIN + 8, e0 + 2 * NEW_URL_MIN + 8);
        assert_eq!(good[e0 + SHAPE], URL_HTTPS | 1 << 1 | URL_CB);
        assert_eq!(good[e0 + USER..e0 + USER + 4], user.to_le_bytes());
        assert_eq!(good[e0 + CB..e0 + CB + 8], *b"k3v9q0zz");
        assert_eq!((good[e1 + INDEX], good[e2 + INDEX]), (2, 3));
        fresh()
            .apply_delta(&mut ByteReader::new(&good), &domains)
            .expect("the genuine delta applies");

        // Each edit gets the offsets of the three entries.
        type Edit = fn(&mut [u8], usize, usize, usize);
        let cases: [(&str, Edit); 9] = [
            ("unknown bits", |b, e0, _, _| b[e0 + SHAPE] |= 0x10),
            ("style tag 3", |b, e0, _, _| b[e0 + SHAPE] |= URL_STYLE),
            ("path index 15", |b, e0, _, _| b[e0 + INDEX] |= 0x0F),
            ("event index 5", |b, e0, _, _| b[e0 + INDEX] = 1 | 5 << 4),
            ("cache-buster byte", |b, e0, _, _| b[e0 + CB + 3] = b'A'),
            ("plain URL carries service", |b, _, e1, _| b[e1 + SERVICE] = 1),
            ("plain URL carries user", |b, _, e1, _| b[e1 + USER] = 1),
            ("url host ref 1 out of range", |b, _, e1, _| b[e1] = 1),
            ("duplicate of url 1", |b, _, e1, e2| b[e2 + INDEX] = b[e1 + INDEX]),
        ];
        for (what, edit) in cases {
            let mut bad = good.clone();
            edit(&mut bad, e0, e1, e2);
            let err = fresh()
                .apply_delta(&mut ByteReader::new(&bad), &domains)
                .expect_err(what);
            assert!(err.detail.contains(what), "{what}: {err}");
        }
    }

    /// Hosts whose names prefix one another (`a.co` / `a.com`), so a key
    /// matched without its host would join URLs of two hosts.
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
