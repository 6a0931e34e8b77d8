//! The three-stage tracking-flow classifier (paper Sect. 3.2).
//!
//! # Algorithm
//!
//! A prelude pass interns the log's URLs into dense ids (the log repeats a
//! few tens of thousands of URLs across ~100k requests) and remaps the
//! world-level `DomainId`s on each request (DESIGN.md §5f) to log-local
//! dense host ids — an array lookup, since hosts arrive pre-interned from
//! the study. Every stage below is then an array pass and all per-string
//! work — `tld()`, gate resolution, keyword scanning — runs once per
//! *unique* value, with host strings resolved through the caller's
//! [`DomainTable`] only at those once-per-unique sites.
//!
//! Stage 1 matches the blocklists through the compiled
//! [`RuleEngine`](crate::engine::RuleEngine) (DESIGN.md §5h): hosts
//! resolve once per unique host to a dense [`HostRow`] (always / never /
//! url-dependent + the host's TLD id), and URL-dependent verdicts are one
//! Aho-Corasick pass, memoized per unique URL. Stage 1 is embarrassingly
//! parallel and shards over the request log when given a thread budget.
//!
//! Stage 2 propagates tracking labels along referrer edges. Referrer
//! indices in a compacted log point *backwards* (a parent is logged before
//! its children), so one ordered forward sweep reaches the fixpoint — no
//! repeated whole-log rescans. Should an input ever violate that ordering,
//! the sweep detects the forward edge and falls back to an explicit
//! worklist that runs to true convergence, so deep chains are never
//! silently truncated (a previous revision capped the fixpoint at 16/32
//! rounds and mislabeled chains deeper than the cap).
//!
//! Stage 3 keyword-matches the remaining argument-carrying requests
//! (memoized per unique URL), then re-propagates from exactly the newly
//! labeled requests via the worklist — again to true convergence.

use crate::engine::{HostRow, KeywordScanner, RuleEngine};
use crate::rules::FilterList;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use xborder_browser::{LoggedRequest, Referrer};
use xborder_webgraph::{fx_hash, DomainTable};

/// Per-request classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classification {
    /// Matched by the easylist/easyprivacy rules (stage 1).
    AbpTracking,
    /// Added by the semi-automatic pass: referrer propagation (stage 2) or
    /// keyword matching (stage 3).
    SemiTracking,
    /// Not identified as tracking ("clean" third-party flow).
    Clean,
}

impl Classification {
    /// True for either tracking class.
    pub fn is_tracking(&self) -> bool {
        !matches!(self, Classification::Clean)
    }
}

/// Per-method aggregate counts — the columns of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MethodCounts {
    /// Distinct FQDNs among this method's tracking flows.
    pub n_fqdn: usize,
    /// Distinct pay-level domains ("TLD" in paper terms).
    pub n_tld: usize,
    /// Distinct request URLs.
    pub n_unique_urls: usize,
    /// Total requests.
    pub n_total_requests: usize,
}

/// The classifier's full output.
///
/// # Index invariant
///
/// `labels` is parallel to the classified request slice: label `i` belongs
/// to request `i`. Callers must index with positions from the *same* slice
/// the classifier ran over — after log faults drop entries, the remapping
/// in `xborder-browser`'s `extension.rs` compacts both the requests and
/// their referrer indices together, so compacted positions stay valid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationResult {
    /// Per-request labels, parallel to the input slice.
    pub labels: Vec<Classification>,
    /// Stage-1 (blocklist) counts: Table 2, row 1.
    pub abp: MethodCounts,
    /// Stage-2/3 (semi-automatic) counts: Table 2, row 2.
    pub semi: MethodCounts,
    /// Total propagation sweeps across both referrer stages (back-compat:
    /// the sum of [`ClassificationResult::stage2_rounds`] and
    /// [`ClassificationResult::stage3_rounds`]).
    pub propagation_rounds: usize,
    /// Sweeps the stage-2 referrer propagation needed: 1 for the ordered
    /// forward pass, plus the worklist depth if the input had forward-
    /// pointing referrers.
    pub stage2_rounds: usize,
    /// Propagation depth of the post-keyword re-propagation (0 when the
    /// keyword stage enabled nothing further).
    pub stage3_rounds: usize,
}

impl ClassificationResult {
    /// Label of request `i`.
    ///
    /// `i` must be a position in the request slice this result was computed
    /// from (see the struct-level index invariant).
    pub fn label(&self, i: usize) -> Classification {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i]
    }

    /// True if request `i` was classified as tracking by any stage.
    ///
    /// Same index invariant as [`ClassificationResult::label`].
    pub fn is_tracking(&self, i: usize) -> bool {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i].is_tracking()
    }

    /// Total tracking requests over both methods (Table 2, "Total" row).
    pub fn total_tracking_requests(&self) -> usize {
        self.abp.n_total_requests + self.semi.n_total_requests
    }
}

/// Stage toggles for the classifier-ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifierStages {
    /// Run the referrer-propagation stage.
    pub referrer_propagation: bool,
    /// Require URL arguments for referrer propagation (the paper does).
    pub require_args: bool,
    /// Run the keyword stage.
    pub keywords: bool,
}

impl Default for ClassifierStages {
    fn default() -> Self {
        ClassifierStages {
            referrer_propagation: true,
            require_args: true,
            keywords: true,
        }
    }
}

/// Runs the full classifier over a request log, single-threaded.
///
/// `domains` is the world interner the log's `DomainId`s index into
/// (`ExtensionDataset::domains` / `WebGraph::domains`).
pub fn classify(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
) -> ClassificationResult {
    classify_with_stages(
        requests,
        domains,
        easylist,
        easyprivacy,
        ClassifierStages::default(),
    )
}

/// Runs the classifier with configurable stages (ablation entry point).
pub fn classify_with_stages(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
) -> ClassificationResult {
    classify_with_stages_threads(requests, domains, easylist, easyprivacy, stages, 1)
}

/// [`classify_with_stages`] with a thread budget for stage 1.
///
/// Output is bit-identical for every `threads` value: the shards write
/// disjoint label ranges and each request's stage-1 verdict depends only on
/// the request itself, never on shard-local state that could differ across
/// splits.
pub fn classify_with_stages_threads(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
    threads: usize,
) -> ClassificationResult {
    let mut engine = RuleEngine::compile(&[easylist, easyprivacy]);
    classify_with_engine(requests, domains, &mut engine, stages, threads)
}

/// Runs the classifier against an already-compiled [`RuleEngine`] (the
/// union of the lists it was compiled from). This is the amortized entry
/// point: compile once per filter-list freeze, classify many logs —
/// verdicts are identical to [`classify_with_stages_threads`] on the same
/// lists. `engine` is `&mut` only to let it fill its host-row/TLD caches;
/// reusing a warm engine across calls is the point.
pub fn classify_with_engine(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    engine: &mut RuleEngine,
    stages: ClassifierStages,
    threads: usize,
) -> ClassificationResult {
    // Intern the log's heavily-repeated URLs into dense ids once and remap
    // the pre-interned host ids to log-local ones; every stage after this
    // is an array pass instead of repeated string hashing.
    let mut interned = Interned::build(requests);
    // One engine resolution per unique host yields the stage-1 gate AND
    // the dense TLD id in the same pass — the separate per-unique-host
    // `tld()` derivation the interner used to run is gone.
    let rows: Vec<HostRow> = interned
        .host_rep
        .iter()
        .map(|&rep| engine.host_row(requests[rep as usize].host, domains))
        .collect();
    interned.tld_of_host = rows.iter().map(|r| r.tld()).collect();
    interned.n_tlds = engine.n_tlds();
    // Per-unique-URL predicate memos, filled on demand. Stage 2 only ever
    // asks about requests whose parent is tracking, and stage 3 only about
    // requests still clean afterwards — in a tracker-heavy log that is a
    // small minority of the unique URLs, so evaluating eagerly during
    // interning (as a previous revision did) wastes the bulk of the
    // keyword-scanning work. Laziness is invisible in the output: both
    // predicates are pure functions of the URL string.
    let mut args_memo = UrlMemo::new(interned.n_urls());
    let mut kw_memo = UrlMemo::new(interned.n_urls());
    let scanner = KeywordScanner::new();

    // Stage 1: blocklists, matched passively against every request.
    let mut labels = stage1_blocklists(requests, &interned, domains, engine, &rows, threads.max(1));

    // Referrer edges are positional; children of dropped parents were
    // remapped to `Referrer::FirstParty` by the log compaction, so every
    // surviving index is in range (debug-asserted in the sweep).
    let mut children: Option<ChildIndex> = None;

    // Stage 2: referrer propagation to fixpoint. Referrers point backwards
    // in a compacted log, so one ordered forward sweep converges; if a
    // forward-pointing edge is ever present, fall back to the worklist for
    // true convergence instead of silently under-labeling.
    let mut stage2_rounds = 0usize;
    if stages.referrer_propagation {
        stage2_rounds = 1;
        let mut forward_edges = false;
        for i in 0..requests.len() {
            let p = interned.referrer_of[i] as usize;
            if p == NO_REFERRER as usize {
                continue;
            }
            debug_assert!(
                p < requests.len(),
                "referrer index {p} out of range ({} requests): log compaction must \
                 rewrite surviving referrer indices",
                requests.len()
            );
            if p >= i {
                forward_edges = true;
                continue;
            }
            if labels[i].is_tracking() || !labels[p].is_tracking() {
                continue;
            }
            if stages.require_args
                && !args_memo.get(interned.url_of[i], || requests[i].has_args())
            {
                continue;
            }
            labels[i] = Classification::SemiTracking;
        }
        if forward_edges {
            let idx = children.get_or_insert_with(|| ChildIndex::build(&interned.referrer_of));
            let seeds: Vec<usize> = (0..requests.len())
                .filter(|&i| labels[i].is_tracking())
                .collect();
            stage2_rounds +=
                propagate_worklist(requests, &interned, &mut labels, stages, &mut args_memo, idx, seeds);
        }
    }

    // Stage 3: argument + keyword matching on what's left, memoized per
    // unique URL so each distinct string is scanned at most once.
    let mut stage3_rounds = 0usize;
    if stages.keywords {
        let mut newly: Vec<usize> = Vec::new();
        for i in 0..requests.len() {
            if labels[i].is_tracking() {
                continue;
            }
            let u = interned.url_of[i];
            if !args_memo.get(u, || requests[i].has_args())
                || !kw_memo.get(u, || scanner.matches(&requests[i].url))
            {
                continue;
            }
            labels[i] = Classification::SemiTracking;
            newly.push(i);
        }
        // Keyword additions may unlock more referrer propagation: re-
        // propagate from exactly the newly labeled requests.
        if stages.referrer_propagation && !newly.is_empty() {
            let idx = children.get_or_insert_with(|| ChildIndex::build(&interned.referrer_of));
            stage3_rounds =
                propagate_worklist(requests, &interned, &mut labels, stages, &mut args_memo, idx, newly);
        }
    }

    let (abp, semi) = method_counts_both(&interned, &labels);

    ClassificationResult {
        labels,
        abp,
        semi,
        propagation_rounds: stage2_rounds + stage3_rounds,
        stage2_rounds,
        stage3_rounds,
    }
}

/// Open-addressing URL interner specialized for one pass over a request log.
///
/// Two things make it faster than a general-purpose map here:
/// - slots are 12 bytes (tag, id, last occurrence), so the whole table for
///   ~47k unique URLs fits in ~768 KiB instead of ~1.4 MiB of key pointers;
/// - equality is verified against the *most recent* occurrence of the URL,
///   not the first. High-frequency URLs recur every few dozen requests, so
///   the comparison target is usually still in cache, where the first
///   occurrence of a hot URL is tens of megabytes of allocations away.
///
/// Lookups stay exact: a 32-bit hash tag only short-circuits the full byte
/// comparison, it never replaces it.
struct UrlTable {
    /// Slot array, length a power of two. One slot is 12 bytes so a probe
    /// costs at most one cache line.
    slots: Vec<Slot>,
    mask: usize,
    len: u32,
}

/// `id1` is the interned id plus one (0 = empty slot); `last` is the index
/// of the most recent request that carried this URL.
#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u32,
    id1: u32,
    last: u32,
}

enum UrlSlot {
    /// URL was seen before; its id.
    Existing(u32),
    /// First occurrence; the caller must push the per-unique side tables.
    New(u32),
}

impl UrlTable {
    fn with_capacity(n: usize) -> UrlTable {
        // Slots ≈ 2× expected uniques keeps the load factor under ~0.75
        // without a growth path for the common case.
        let slots = n.max(16).next_power_of_two();
        UrlTable {
            slots: vec![Slot::default(); slots],
            mask: slots - 1,
            len: 0,
        }
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[hash as usize & self.mask].id1);
    }

    fn intern(&mut self, hash: u64, url: &str, i: u32, requests: &[LoggedRequest]) -> UrlSlot {
        if self.len as usize * 4 >= self.slots.len() * 3 {
            self.grow(requests);
        }
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.len += 1;
                self.slots[s] = Slot {
                    tag,
                    id1: self.len,
                    last: i,
                };
                return UrlSlot::New(self.len - 1);
            }
            if slot.tag == tag && &*requests[slot.last as usize].url == url {
                self.slots[s].last = i;
                return UrlSlot::Existing(slot.id1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Doubles the table, recomputing each slot's hash from its last-seen
    /// occurrence. Cold path: only reached if the caller's capacity guess
    /// undershot the unique-URL count by more than 2×.
    fn grow(&mut self, requests: &[LoggedRequest]) {
        let n = self.slots.len() * 2;
        let mut next = UrlTable {
            slots: vec![Slot::default(); n],
            mask: n - 1,
            len: self.len,
        };
        for slot in &self.slots {
            if slot.id1 == 0 {
                continue;
            }
            let hash = url_hash(requests[slot.last as usize].url.as_bytes());
            let mut d = hash as usize & next.mask;
            while next.slots[d].id1 != 0 {
                d = (d + 1) & next.mask;
            }
            next.slots[d] = *slot;
        }
        *self = next;
    }
}

/// Sentinel in [`Interned::referrer_of`] for "no positional referrer".
pub(crate) const NO_REFERRER: u32 = u32::MAX;

/// Dedup-probe hash for URL strings: FxHash over the final 32 bytes,
/// mixed with the length. Simulator URLs share long `scheme://host/path`
/// prefixes and differ in their identity-token/query tails, so the tail
/// carries nearly all the entropy at a fraction of the whole-string
/// hashing cost. Safe to weaken: the hash only *locates* probe slots —
/// equality is always verified byte-for-byte, and interned ids are
/// assigned in first-occurrence order, so collisions cost a compare, never
/// a wrong id.
pub(crate) fn url_hash(bytes: &[u8]) -> u64 {
    fx_hash(&bytes[bytes.len().saturating_sub(32)..])
        .wrapping_add((bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Dense-id view of a request log, built in one sequential pass. Requests
/// repeat a small set of hosts and URLs thousands of times over; interning
/// them up front turns every later stage into an array pass and confines
/// expensive per-string work (`tld()`, gate resolution, keyword scans) to
/// once per *unique* value.
struct Interned {
    /// Request index -> unique-host id.
    host_of: Vec<u32>,
    /// Request index -> unique-URL id.
    url_of: Vec<u32>,
    /// Unique-host id -> a representative request index (to borrow the
    /// host string back without storing lifetimes here).
    host_rep: Vec<u32>,
    /// Unique-URL id -> a representative request index.
    url_rep: Vec<u32>,
    /// Unique-host id -> dense pay-level-domain id (one `tld()` call per
    /// unique host instead of one per request).
    tld_of_host: Vec<u32>,
    n_tlds: usize,
    /// Request index -> referrer request index, or `NO_REFERRER` for
    /// first-party/absent referrers. Extracted here so the propagation
    /// stages run over a dense array instead of re-streaming the (much
    /// larger) request structs.
    referrer_of: Vec<u32>,
}

/// Tri-state per-unique-URL memo for predicates that are pure functions of
/// the URL string (argument presence, keyword verdict): unknown until first
/// asked, then cached by dense URL id.
struct UrlMemo {
    v: Vec<u8>,
}

impl UrlMemo {
    const UNKNOWN: u8 = 0;
    const NO: u8 = 1;
    const YES: u8 = 2;

    fn new(n_urls: usize) -> UrlMemo {
        UrlMemo {
            v: vec![Self::UNKNOWN; n_urls],
        }
    }

    fn get(&mut self, url_id: u32, eval: impl FnOnce() -> bool) -> bool {
        let slot = &mut self.v[url_id as usize];
        if *slot == Self::UNKNOWN {
            *slot = if eval() { Self::YES } else { Self::NO };
        }
        *slot == Self::YES
    }
}

impl Interned {
    /// Interns hosts/URLs/referrers but leaves `tld_of_host`/`n_tlds`
    /// empty: [`classify_with_engine`] fills them from the rule
    /// engine's host rows.
    fn build(requests: &[LoggedRequest]) -> Interned {
        let n = requests.len();
        // World `DomainId` -> log-local dense host id (`u32::MAX` =
        // unseen), lazily grown. Hosts arrive pre-interned from the study,
        // so the former per-request host-string hashing collapses to an
        // array lookup.
        let mut host_remap: Vec<u32> = Vec::new();
        let mut url_ids = UrlTable::with_capacity(n);
        let mut host_of = Vec::with_capacity(n);
        let mut url_of = Vec::with_capacity(n);
        let mut host_rep: Vec<u32> = Vec::new();
        let mut url_rep: Vec<u32> = Vec::new();
        let mut referrer_of = Vec::with_capacity(n);
        // Unique-URL id -> unique-host id. A URL string embeds its host,
        // so equal URLs share a host: repeated URLs resolve their host id
        // through the URL map without touching the host map — or the host
        // string — at all (debug-asserted below).
        let mut host_of_url: Vec<u32> = Vec::new();
        // The pass is software-pipelined around the log's two cache-hostile
        // access patterns:
        //  - each URL string is a fresh pointer chase the hardware
        //    prefetcher cannot follow, so a byte of the string BYTES_AHEAD
        //    iterations out is touched early to overlap the DRAM latency
        //    (`copied()` matters: it forces the load, not just the address);
        //  - the dedup table is a random probe per request, so the URL
        //    HASH_AHEAD iterations out is hashed early (its bytes arrived
        //    via the byte prefetch) and its slot pulled into cache, leaving
        //    the probe at iteration `i` to hit warm lines.
        // `ring` carries the HASH_AHEAD in-flight hashes; request `i` is
        // interned with the hash computed HASH_AHEAD iterations ago, while
        // its string bytes are still in L1.
        const BYTES_AHEAD: usize = 16;
        const HASH_AHEAD: usize = 8;
        let mut ring = [0u64; HASH_AHEAD];
        for (j, slot) in ring.iter_mut().enumerate().take(n.min(HASH_AHEAD)) {
            *slot = url_hash(requests[j].url.as_bytes());
            url_ids.prefetch(*slot);
        }
        for (i, r) in requests.iter().enumerate() {
            if let Some(ahead) = requests.get(i + BYTES_AHEAD) {
                let u = ahead.url.as_bytes();
                std::hint::black_box(u.first().copied());
                std::hint::black_box(u.last().copied());
            }
            let hash = if let Some(ahead) = requests.get(i + HASH_AHEAD) {
                let h = url_hash(ahead.url.as_bytes());
                url_ids.prefetch(h);
                std::mem::replace(&mut ring[i % HASH_AHEAD], h)
            } else {
                ring[i % HASH_AHEAD]
            };
            let u = match url_ids.intern(hash, &r.url, i as u32, requests) {
                UrlSlot::New(u) => {
                    url_rep.push(i as u32);
                    let hid = r.host.0 as usize;
                    if hid >= host_remap.len() {
                        host_remap.resize(hid + 1, u32::MAX);
                    }
                    let h = if host_remap[hid] == u32::MAX {
                        let next_h = host_rep.len() as u32;
                        host_remap[hid] = next_h;
                        host_rep.push(i as u32);
                        next_h
                    } else {
                        host_remap[hid]
                    };
                    host_of_url.push(h);
                    u
                }
                UrlSlot::Existing(u) => u,
            };
            debug_assert_eq!(
                requests[url_rep[u as usize] as usize].host,
                r.host,
                "requests sharing a URL string must share its embedded host"
            );
            url_of.push(u);
            host_of.push(host_of_url[u as usize]);
            referrer_of.push(match r.referrer {
                Referrer::Request(parent) => parent.0,
                Referrer::FirstParty | Referrer::None => NO_REFERRER,
            });
        }
        Interned {
            host_of,
            url_of,
            host_rep,
            url_rep,
            tld_of_host: Vec::new(),
            n_tlds: 0,
            referrer_of,
        }
    }

    fn n_hosts(&self) -> usize {
        self.host_rep.len()
    }

    fn n_urls(&self) -> usize {
        self.url_rep.len()
    }
}

/// Stage 1: blocklist matching through the compiled engine. Host rows are
/// already resolved (once per unique host, TLD ids included); the request
/// log shards over `threads` contiguous chunks, each a lookup pass over
/// dense ids, with a per-shard unique-URL memo where URL-dependent rules
/// remain. The engine is shared read-only across shards — `url_verdict`
/// takes `&self`, so no shard-local state can diverge.
fn stage1_blocklists(
    requests: &[LoggedRequest],
    interned: &Interned,
    domains: &DomainTable,
    engine: &RuleEngine,
    rows: &[HostRow],
    threads: usize,
) -> Vec<Classification> {
    let mut labels = vec![Classification::Clean; requests.len()];
    let n_urls = interned.n_urls();
    if threads <= 1 || requests.len() < 2 * threads {
        stage1_shard(
            requests,
            domains,
            n_urls,
            &interned.host_of,
            &interned.url_of,
            engine,
            rows,
            &mut labels,
        );
        return labels;
    }
    let chunk = requests.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for ((req_chunk, label_chunk), (host_ids, url_ids)) in requests
            .chunks(chunk)
            .zip(labels.chunks_mut(chunk))
            .zip(interned.host_of.chunks(chunk).zip(interned.url_of.chunks(chunk)))
        {
            scope.spawn(move || {
                stage1_shard(
                    req_chunk, domains, n_urls, host_ids, url_ids, engine, rows, label_chunk,
                )
            });
        }
    });
    labels
}

/// One stage-1 shard. A request's verdict depends only on its own host and
/// URL, so shards are independent; the unique-URL memo is shard-local (two
/// shards re-deriving the same URL's verdict produce the same bit).
#[allow(clippy::too_many_arguments)]
fn stage1_shard(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    n_urls: usize,
    host_of: &[u32],
    url_of: &[u32],
    engine: &RuleEngine,
    rows: &[HostRow],
    labels: &mut [Classification],
) {
    // Per-unique-URL verdict: 0 = unevaluated, 1 = no match, 2 = match.
    // Allocated lazily — generated lists are all domain-anchored, so the
    // URL-dependent path usually never runs.
    let mut url_memo: Vec<u8> = Vec::new();
    for i in 0..requests.len() {
        let row = rows[host_of[i] as usize];
        let matched = if row.always() {
            true
        } else if row.never() {
            false
        } else {
            if url_memo.is_empty() {
                url_memo = vec![0u8; n_urls];
            }
            let u = url_of[i] as usize;
            match url_memo[u] {
                0 => {
                    let r = &requests[i];
                    let hit = engine.url_verdict(row, domains.domain(r.host), &r.url);
                    url_memo[u] = 1 + hit as u8;
                    hit
                }
                v => v == 2,
            }
        };
        if matched {
            labels[i] = Classification::AbpTracking;
        }
    }
}

/// Referrer children adjacency in CSR form, built once on demand.
pub(crate) struct ChildIndex {
    starts: Vec<u32>,
    children: Vec<u32>,
}

impl ChildIndex {
    pub(crate) fn build(referrer_of: &[u32]) -> ChildIndex {
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

    pub(crate) fn children_of(&self, i: usize) -> &[u32] {
        &self.children[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// BFS worklist propagation from `seeds` (already-tracking requests) to
/// true convergence. Returns the propagation depth (0 when nothing new was
/// labeled). Labels are monotone, so the result is independent of
/// processing order.
#[allow(clippy::too_many_arguments)]
fn propagate_worklist(
    requests: &[LoggedRequest],
    interned: &Interned,
    labels: &mut [Classification],
    stages: ClassifierStages,
    args_memo: &mut UrlMemo,
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
            if stages.require_args
                && !args_memo.get(interned.url_of[c], || requests[c].has_args())
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

/// Single-pass computation of both Table-2 rows over the interned ids:
/// distinctness is a seen-bit per dense id (bit 0 = ABP, bit 1 = semi)
/// instead of hash-set inserts, and `tld()` is never re-derived here.
fn method_counts_both(interned: &Interned, labels: &[Classification]) -> (MethodCounts, MethodCounts) {
    let mut counts = [MethodCounts::default(), MethodCounts::default()];
    let mut host_seen = vec![0u8; interned.n_hosts()];
    let mut tld_seen = vec![0u8; interned.n_tlds];
    let mut url_seen = vec![0u8; interned.n_urls()];
    for (i, l) in labels.iter().enumerate() {
        let (slot, bit) = match l {
            Classification::AbpTracking => (0usize, 1u8),
            Classification::SemiTracking => (1usize, 2u8),
            Classification::Clean => continue,
        };
        counts[slot].n_total_requests += 1;
        let h = interned.host_of[i] as usize;
        if host_seen[h] & bit == 0 {
            host_seen[h] |= bit;
            counts[slot].n_fqdn += 1;
            // A TLD can only first appear alongside a new host (the TLD is
            // a function of the host), so the check nests here.
            let t = interned.tld_of_host[h] as usize;
            if tld_seen[t] & bit == 0 {
                tld_seen[t] |= bit;
                counts[slot].n_tld += 1;
            }
        }
        let u = interned.url_of[i] as usize;
        if url_seen[u] & bit == 0 {
            url_seen[u] |= bit;
            counts[slot].n_unique_urls += 1;
        }
    }
    (counts[0], counts[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listgen::generate_lists;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_browser::{run_study, StudyConfig};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_geo::{CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, Domain, WebGraph, WebGraphConfig};

    fn wire_all(graph: &WebGraph, dns: &mut DnsSim) {
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
    }

    fn dataset(seed: u64) -> (WebGraph, Vec<xborder_browser::LoggedRequest>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        wire_all(&graph, &mut dns);
        let ds = run_study(&StudyConfig::small(), &graph, &mut dns, &mut rng);
        (graph, ds.requests)
    }

    #[test]
    fn semi_pass_finds_more_than_lists_alone() {
        let (graph, requests) = dataset(1);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert!(res.abp.n_total_requests > 0);
        assert!(res.semi.n_total_requests > 0, "semi pass found nothing");
        // The headline mechanism: the semi pass adds a substantial fraction
        // on top of the lists (paper: ~80 % more; the small synthetic config
        // yields 0.12–0.20 across seeds under the vendored RNG stream, so the
        // threshold checks the mechanism rather than the paper's magnitude).
        let ratio = res.semi.n_total_requests as f64 / res.abp.n_total_requests as f64;
        assert!(ratio > 0.1, "semi/abp ratio {ratio}");
    }

    #[test]
    fn false_positives_on_clean_services_are_rare() {
        // The keyword stage string-matches the whole URL (as the paper
        // does), so a random identifier can spuriously contain "rtb" —
        // a tiny, realistic noise floor rather than a defect.
        let (graph, requests) = dataset(2);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let mut clean_total = 0usize;
        let mut clean_flagged = 0usize;
        for (i, r) in requests.iter().enumerate() {
            let svc = graph.service_by_host_id(r.host).expect("known host");
            if !graph.service(svc).is_tracking() {
                clean_total += 1;
                if res.is_tracking(i) {
                    clean_flagged += 1;
                }
            }
        }
        assert!(clean_total > 0);
        let fp_rate = clean_flagged as f64 / clean_total as f64;
        assert!(fp_rate < 0.005, "false-positive rate {fp_rate}");
    }

    #[test]
    fn recall_improves_with_semi_stage() {
        let (graph, requests) = dataset(3);
        let (el, ep) = generate_lists(&graph);
        let full = classify(&requests, graph.domains(), &el, &ep);
        let lists_only = classify_with_stages(
            &requests,
            graph.domains(),
            &el,
            &ep,
            ClassifierStages {
                referrer_propagation: false,
                require_args: true,
                keywords: false,
            },
        );
        let tracking_truth = requests
            .iter()
            .filter(|r| {
                graph
                    .service_by_host_id(r.host)
                    .map(|s| graph.service(s).is_tracking())
                    .unwrap_or(false)
            })
            .count();
        let full_found = full.labels.iter().filter(|l| l.is_tracking()).count();
        let lists_found = lists_only.labels.iter().filter(|l| l.is_tracking()).count();
        assert!(full_found > lists_found);
        assert!(full_found <= tracking_truth, "classifier overshoots truth");
    }

    #[test]
    fn counts_are_consistent() {
        let (graph, requests) = dataset(4);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let tracked = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(res.total_tracking_requests(), tracked);
        assert!(res.abp.n_unique_urls <= res.abp.n_total_requests);
        assert!(res.abp.n_tld <= res.abp.n_fqdn);
        assert!(res.semi.n_tld <= res.semi.n_fqdn);
    }

    #[test]
    fn labels_parallel_to_input() {
        let (graph, requests) = dataset(5);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert_eq!(res.labels.len(), requests.len());
    }

    #[test]
    fn empty_input() {
        let (graph, _) = dataset(6);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&[], graph.domains(), &el, &ep);
        assert!(res.labels.is_empty());
        assert_eq!(res.abp.n_total_requests, 0);
        assert_eq!(res.semi.n_total_requests, 0);
    }

    /// Hand-built request with a clean (keyword-free) URL carrying args,
    /// interning its hosts into the test's own `DomainTable`.
    fn chain_request(
        i: usize,
        referrer: Referrer,
        domains: &mut DomainTable,
    ) -> xborder_browser::LoggedRequest {
        use xborder_browser::UserId;
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::PublisherId;
        let host = Domain::new(format!("h{i}.example.com"));
        xborder_browser::LoggedRequest {
            user: UserId(0),
            time: SimTime(i as u64),
            first_party: domains.intern(&Domain::new("pub.example.org")),
            publisher: PublisherId(0),
            url: format!("https://{host}/p?x={i}").into_boxed_str(),
            host: domains.intern(&host),
            referrer,
            ip: "10.0.0.1".parse().unwrap(),
        }
    }

    /// A 40-link referrer chain stored in *reverse* order (each request's
    /// parent sits at a higher index), rooted in one blocklisted request.
    /// The pre-fix classifier labeled one link per whole-log rescan and
    /// stopped at the `rounds > 16` cap, silently dropping the deep tail;
    /// the worklist must label the entire chain.
    #[test]
    fn deep_reversed_chain_fully_labeled() {
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mut requests: Vec<xborder_browser::LoggedRequest> = (0..LEN - 1)
            .map(|i| {
                chain_request(
                    i,
                    Referrer::Request(xborder_browser::RequestId(i as u32 + 1)),
                    &mut domains,
                )
            })
            .collect();
        requests.push(chain_request(LEN - 1, Referrer::FirstParty, &mut domains)); // root
        let mut el = crate::rules::FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new(format!(
            "h{}.example.com",
            LEN - 1
        ))));
        let ep = crate::rules::FilterList::new("easyprivacy");

        let res = classify(&requests, &domains, &el, &ep);
        let labeled = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(labeled, LEN, "whole chain must be labeled, got {labeled}/{LEN}");
        assert_eq!(res.labels[LEN - 1], Classification::AbpTracking);
        assert!(res.labels[0].is_tracking(), "deepest link dropped");
        // Depth bookkeeping: the chain needed more rounds than the old cap.
        assert!(
            res.stage2_rounds > 16,
            "stage-2 depth {} should exceed the old round cap",
            res.stage2_rounds
        );
        assert_eq!(res.stage3_rounds, 0);
        assert_eq!(res.propagation_rounds, res.stage2_rounds + res.stage3_rounds);
    }

    /// A chain stored in log order (referrers point backwards) converges in
    /// the single forward sweep — no worklist fallback.
    #[test]
    fn backward_chain_converges_in_one_sweep() {
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mut requests = vec![chain_request(0, Referrer::FirstParty, &mut domains)];
        requests.extend((1..LEN).map(|i| {
            chain_request(
                i,
                Referrer::Request(xborder_browser::RequestId(i as u32 - 1)),
                &mut domains,
            )
        }));
        let mut el = crate::rules::FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new("h0.example.com")));
        let ep = crate::rules::FilterList::new("easyprivacy");

        let res = classify(&requests, &domains, &el, &ep);
        assert!(res.labels.iter().all(|l| l.is_tracking()));
        assert_eq!(res.stage2_rounds, 1, "backward chain must converge in one sweep");
    }

    /// The thread count must not change a single label.
    #[test]
    fn stage1_sharding_is_deterministic() {
        let (graph, requests) = dataset(7);
        let (el, ep) = generate_lists(&graph);
        let base = classify(&requests, graph.domains(), &el, &ep);
        for threads in [2, 3, 8] {
            let par = classify_with_stages_threads(
                &requests,
                graph.domains(),
                &el,
                &ep,
                ClassifierStages::default(),
                threads,
            );
            assert_eq!(par.labels, base.labels, "labels differ at threads={threads}");
            assert_eq!(par.abp, base.abp);
            assert_eq!(par.semi, base.semi);
        }
    }
}
