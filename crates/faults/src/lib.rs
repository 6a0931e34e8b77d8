//! Fault injection and graceful-degradation accounting for the `xborder`
//! measurement pipeline.
//!
//! Real measurement campaigns degrade: extension logs get lost or cut off
//! mid-upload, resolvers time out, passive-DNS sensors have blind spots and
//! stale last-seen stamps, Atlas probes go dark or return inflated RTTs,
//! and geolocation providers simply miss addresses. The paper's pipeline
//! weathers all of this silently; this crate makes the weathering explicit
//! so its effect on the headline numbers can be *measured*.
//!
//! Four pieces:
//!
//! * [`FaultPlan`] — a seeded, serializable description of which fault
//!   classes fire and how often. [`FaultPlan::none`] is the identity plan:
//!   a pipeline run under it is bit-identical to a run without any fault
//!   machinery, because every fault coin derives from a hash of
//!   `(plan seed, fault class, entity key)` and never touches the
//!   simulation's RNG streams.
//! * [`FaultInjector`] — the stateless coin-flipper the pipeline stages
//!   consult. Probability-zero classes short-circuit before hashing.
//! * [`DegradationReport`] — counters quantifying what was dropped,
//!   retried, abstained or missed, with a self-consistency invariant
//!   (`dropped + delivered == generated`) the property tests enforce.
//! * [`Profile`] — the per-layer run profile every driver books into
//!   [`DegradationReport::profile`] (module [`profile`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;

pub use profile::{install_alloc_probe, Profile};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// A typed result for degradation-aware lookups.
pub type DegradedResult<T> = Result<T, FaultError>;

/// The error taxonomy surfaced by formerly-infallible hot paths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultError {
    /// A resolver query exhausted its retry budget.
    ResolverTimeout {
        /// The queried name.
        host: String,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// An underlying DNS error (NXDOMAIN, empty zone) on the degraded path.
    Dns(String),
    /// A passive-DNS record fell into a sensor gap.
    PdnsGap {
        /// The affected name.
        domain: String,
    },
    /// All probes assigned to a target were dark.
    ProbeOutage {
        /// The target address.
        ip: IpAddr,
    },
    /// Too few probe votes survived to call a country.
    QuorumNotMet {
        /// Surviving votes.
        votes: usize,
        /// Plan's minimum.
        needed: usize,
    },
    /// The geolocation provider has no answer for the address.
    GeoUnavailable {
        /// The target address.
        ip: IpAddr,
    },
    /// A country code missing from the world table (graceful replacement
    /// for `country_or_panic` on request paths).
    UnknownCountry(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ResolverTimeout { host, attempts } => {
                write!(f, "resolver timed out on {host} after {attempts} attempts")
            }
            FaultError::Dns(e) => write!(f, "dns error: {e}"),
            FaultError::PdnsGap { domain } => write!(f, "pDNS sensor gap for {domain}"),
            FaultError::ProbeOutage { ip } => write!(f, "all probes dark for {ip}"),
            FaultError::QuorumNotMet { votes, needed } => {
                write!(f, "quorum not met: {votes} votes < {needed} required")
            }
            FaultError::GeoUnavailable { ip } => write!(f, "no geolocation coverage for {ip}"),
            FaultError::UnknownCountry(c) => write!(f, "unknown country {c}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A seeded, serializable description of every fault class's rate.
///
/// All probabilities are per-entity (per request, per attempt, per probe,
/// per record, per address). `seed` decorrelates plans with identical
/// rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the hash-derived fault coins.
    pub seed: u64,
    /// Probability an individual extension log entry is lost in upload.
    pub log_loss: f64,
    /// Probability a user's log is truncated (the tail of the study window
    /// never reaches the collection server).
    pub log_truncation: f64,
    /// Probability one resolver attempt times out.
    pub resolver_timeout: f64,
    /// Retries after the first attempt before giving up.
    pub resolver_max_retries: u32,
    /// Base backoff after a timed-out attempt, in sim-clock seconds;
    /// doubles per retry.
    pub resolver_backoff_secs: u64,
    /// Probability a pDNS record is invisible (sensor gap).
    pub pdns_gap: f64,
    /// Probability a pDNS record's validity window is stale (only the
    /// first-seen stamp survives).
    pub pdns_stale: f64,
    /// Probability an assigned probe is dark for a target.
    pub probe_outage: f64,
    /// Probability a probe's RTT is inflated (congested path).
    pub probe_flaky: f64,
    /// Minimum surviving probe votes to call a country; below this the
    /// estimator abstains.
    pub min_quorum: usize,
    /// Probability a geolocation provider misses an address entirely.
    pub geo_miss: f64,
}

impl FaultPlan {
    /// The identity plan: nothing fires, outputs are bit-identical to a
    /// pipeline without fault machinery.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            log_loss: 0.0,
            log_truncation: 0.0,
            resolver_timeout: 0.0,
            resolver_max_retries: 0,
            resolver_backoff_secs: 0,
            pdns_gap: 0.0,
            pdns_stale: 0.0,
            probe_outage: 0.0,
            probe_flaky: 0.0,
            min_quorum: 0,
            geo_miss: 0.0,
        }
    }

    /// The stress plan the acceptance tests run: 20 % log loss, 10 %
    /// resolver timeouts, 30 % probe outages, plus moderate rates
    /// everywhere else.
    pub fn aggressive(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            log_loss: 0.20,
            log_truncation: 0.10,
            resolver_timeout: 0.10,
            resolver_max_retries: 2,
            resolver_backoff_secs: 5,
            pdns_gap: 0.30,
            pdns_stale: 0.20,
            probe_outage: 0.30,
            probe_flaky: 0.20,
            min_quorum: 3,
            geo_miss: 0.05,
        }
    }

    /// A random plan with every rate drawn from a bounded range — the
    /// property tests sweep these.
    pub fn random(seed: u64) -> FaultPlan {
        let mut s = seed.wrapping_add(0x6a09_e667_f3bc_c909);
        let mut unit = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (mix64(s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        FaultPlan {
            seed,
            log_loss: unit() * 0.3,
            log_truncation: unit() * 0.3,
            resolver_timeout: unit() * 0.2,
            resolver_max_retries: (unit() * 4.0) as u32,
            resolver_backoff_secs: 1 + (unit() * 29.0) as u64,
            pdns_gap: unit() * 0.5,
            pdns_stale: unit() * 0.5,
            probe_outage: unit() * 0.5,
            probe_flaky: unit() * 0.5,
            min_quorum: (unit() * 6.0) as usize,
            geo_miss: unit() * 0.2,
        }
    }

    /// True when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.log_loss == 0.0
            && self.log_truncation == 0.0
            && self.resolver_timeout == 0.0
            && self.pdns_gap == 0.0
            && self.pdns_stale == 0.0
            && self.probe_outage == 0.0
            && self.probe_flaky == 0.0
            && self.min_quorum == 0
            && self.geo_miss == 0.0
    }
}

/// SplitMix64 finalizer: the avalanche behind every fault coin — and, via
/// [`derive_stream_seed`], behind every hash-derived RNG stream in the
/// simulator (per-user study streams, per-lookup DNS streams).
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives an independent RNG seed from a parent seed and an entity key —
/// the same construction the fault coins use, reused wherever the
/// simulator needs *many* decorrelated streams that must not depend on
/// processing order (one per study user, one per DNS lookup). Each part is
/// avalanched before combining so structured keys (small integers,
/// sequential ids) still land far apart.
pub fn derive_stream_seed(parent: u64, key: u64) -> u64 {
    mix64(mix64(parent ^ 0x9E37_79B9_7F4A_7C15) ^ mix64(key.wrapping_add(0x6a09_e667_f3bc_c909)))
}

/// FNV-1a over bytes, for keying coins and seeds on names: fault coins,
/// DNS lookup RNG streams and passive-DNS keys all derive from it, so its
/// output is pinned by every golden and must never change. It runs a
/// byte at a time — never use it for bulk bytes; integrity checksums and
/// row digests use [`checksum64`].
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte lane"))
}

/// XXH64 (seed 0) over bytes: the integrity hash for checkpoint frames
/// and the digest of bulk rows. It reads 32-byte stripes into four
/// 64-bit lanes, so it runs at memory speed where [`stable_hash`] walks a
/// byte at a time. Not for coins or seeds — those stay on
/// [`stable_hash`], whose values the goldens pin.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut rest = bytes;
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, le64(lane));
            }
        }
        rest = stripes.remainder();
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| xxh_merge(h, a))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = rest.chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("4-byte word"));
        h = (h ^ (w as u64).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// A stable 64-bit key for an address, for keying coins on IPs.
pub fn ip_key(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => u32::from(v4) as u64,
        IpAddr::V6(v6) => {
            let o = v6.octets();
            stable_hash(&o)
        }
    }
}

/// Per-class salt so the same entity key draws independent coins for
/// different fault classes.
mod class {
    pub const LOG_LOSS: u64 = 0x01;
    pub const LOG_TRUNCATION: u64 = 0x02;
    pub const RESOLVER_TIMEOUT: u64 = 0x03;
    pub const PDNS_GAP: u64 = 0x04;
    pub const PDNS_STALE: u64 = 0x05;
    pub const PROBE_OUTAGE: u64 = 0x06;
    pub const PROBE_FLAKY: u64 = 0x07;
    pub const GEO_MISS: u64 = 0x08;
}

/// The stateless coin-flipper the pipeline stages consult.
///
/// Coins derive from `(plan seed, class, entity key)` hashes, so they are
/// reproducible, order-independent, and consume no simulation RNG — the
/// property that makes [`FaultPlan::none`] bit-identical to the fault-free
/// pipeline.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
}

impl FaultInjector {
    /// Builds an injector for a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let active = !plan.is_none();
        FaultInjector { plan, active }
    }

    /// The identity injector (never fires).
    pub fn inactive() -> FaultInjector {
        FaultInjector::new(FaultPlan::none())
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// False for the identity plan — degraded code paths use this to skip
    /// whole fault blocks.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn coin(&self, p: f64, cls: u64, key: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.unit(cls, key) < p
    }

    /// A uniform draw in `[0, 1)` keyed on `(plan seed, class, key)`.
    fn unit(&self, cls: u64, key: u64) -> f64 {
        let h = mix64(
            self.plan
                .seed
                .wrapping_add(cls.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ mix64(key),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Is log entry `request_idx` lost in upload?
    pub fn log_lost(&self, request_idx: u64) -> bool {
        self.coin(self.plan.log_loss, class::LOG_LOSS, request_idx)
    }

    /// Is `user`'s log truncated (study tail missing)?
    pub fn log_truncated(&self, user: u64) -> bool {
        self.coin(self.plan.log_truncation, class::LOG_TRUNCATION, user)
    }

    /// Does resolver attempt `attempt` for `(host_key, time)` time out?
    pub fn resolver_timed_out(&self, host_key: u64, time: u64, attempt: u32) -> bool {
        let key = mix64(host_key ^ mix64(time)).wrapping_add(attempt as u64);
        self.coin(self.plan.resolver_timeout, class::RESOLVER_TIMEOUT, key)
    }

    /// Is the pDNS record keyed by `key` invisible to the sensors?
    pub fn pdns_gapped(&self, key: u64) -> bool {
        self.coin(self.plan.pdns_gap, class::PDNS_GAP, key)
    }

    /// Is the pDNS record's validity window stale?
    pub fn pdns_stale(&self, key: u64) -> bool {
        self.coin(self.plan.pdns_stale, class::PDNS_STALE, key)
    }

    /// Is probe `probe_idx` dark for target `target_key`?
    pub fn probe_out(&self, target_key: u64, probe_idx: u64) -> bool {
        self.coin(
            self.plan.probe_outage,
            class::PROBE_OUTAGE,
            mix64(target_key).wrapping_add(probe_idx),
        )
    }

    /// RTT inflation factor for probe `probe_idx` on `target_key`:
    /// `None` when the probe is healthy, else a multiplier in `[2, 5)`.
    pub fn probe_flaky_factor(&self, target_key: u64, probe_idx: u64) -> Option<f64> {
        let key = mix64(target_key ^ 0x5bd1_e995).wrapping_add(probe_idx);
        if !self.coin(self.plan.probe_flaky, class::PROBE_FLAKY, key) {
            return None;
        }
        Some(2.0 + 3.0 * self.unit(class::PROBE_FLAKY ^ 0xff, key))
    }

    /// Does the provider miss `target_key` entirely?
    pub fn geo_missed(&self, target_key: u64) -> bool {
        self.coin(self.plan.geo_miss, class::GEO_MISS, target_key)
    }
}

/// Which kill point a [`KillSwitch`] triggers on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillRule {
    /// Never fire (the identity switch — streaming runs use this in
    /// production).
    Never,
    /// Fire at the `n`-th kill site the run visits (0-based). Site numbering
    /// is deterministic for a fixed (config, chunking) because sites are
    /// visited in program order.
    AtSite(u64),
    /// Fire at the first site whose label matches exactly. Labels name
    /// stage/chunk boundaries and write phases (e.g. `chunk-2:blob:mid`),
    /// so harnesses can target "kill at chunk 2, mid-write" without
    /// counting sites.
    AtLabel(String),
}

/// A seeded crash simulator for the streaming pipeline.
///
/// The checkpointed ingestion path calls [`KillSwitch::fire`] at every
/// *kill site*: chunk boundaries, stage boundaries, and inside the atomic
/// write protocol (before the tmp write, mid-write with a torn file on
/// disk, after the tmp is complete but unrenamed, and after the rename).
/// When the switch fires, the caller abandons all in-memory state and
/// returns a typed "killed" error — exactly what a real `kill -9` leaves
/// behind, including half-written tmp files.
///
/// The site counter is monotonic per switch, so a harness can first run
/// with [`KillSwitch::none`] to learn how many sites a configuration
/// visits ([`KillSwitch::sites_visited`]), then sweep `AtSite(0..n)`.
#[derive(Debug)]
pub struct KillSwitch {
    rule: KillRule,
    sites: std::sync::atomic::AtomicU64,
    fired: std::sync::Mutex<Option<(u64, String)>>,
}

impl KillSwitch {
    /// A switch with an explicit rule.
    pub fn new(rule: KillRule) -> KillSwitch {
        KillSwitch {
            rule,
            sites: std::sync::atomic::AtomicU64::new(0),
            fired: std::sync::Mutex::new(None),
        }
    }

    /// The identity switch: never fires, only counts sites.
    pub fn none() -> KillSwitch {
        KillSwitch::new(KillRule::Never)
    }

    /// Fires at the `n`-th kill site visited.
    pub fn at_site(n: u64) -> KillSwitch {
        KillSwitch::new(KillRule::AtSite(n))
    }

    /// Fires at the first site whose label equals `label`.
    pub fn at_label(label: impl Into<String>) -> KillSwitch {
        KillSwitch::new(KillRule::AtLabel(label.into()))
    }

    /// A seeded switch: derives a site index in `[0, n_sites)` from `seed`
    /// with the same [`mix64`] avalanche the fault coins use, so kill
    /// schedules are reproducible and decorrelated across seeds.
    pub fn seeded(seed: u64, n_sites: u64) -> KillSwitch {
        KillSwitch::at_site(mix64(seed ^ 0x6b5f_27c4_9d13_a8e2) % n_sites.max(1))
    }

    /// Visits one kill site. Returns `true` when the simulated crash fires
    /// here — the caller must then abandon its state and propagate a typed
    /// killed error without any cleanup.
    pub fn fire(&self, label: &str) -> bool {
        let site = self
            .sites
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let hit = match &self.rule {
            KillRule::Never => false,
            KillRule::AtSite(n) => site == *n,
            KillRule::AtLabel(l) => l == label,
        };
        if hit {
            let mut fired = self.fired.lock().expect("kill switch mutex");
            if fired.is_none() {
                *fired = Some((site, label.to_string()));
            } else {
                // Only the first match simulates the crash; a well-behaved
                // caller never reaches a second site after firing.
                return false;
            }
        }
        hit
    }

    /// How many kill sites this switch has visited so far.
    pub fn sites_visited(&self) -> u64 {
        self.sites.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The `(site index, label)` where the switch fired, if it did.
    pub fn fired(&self) -> Option<(u64, String)> {
        self.fired.lock().expect("kill switch mutex").clone()
    }
}

/// Counters quantifying how much the pipeline degraded under a plan.
///
/// Invariant (checked by [`DegradationReport::is_self_consistent`]):
/// `requests_delivered + requests_dropped_loss + requests_dropped_truncation
/// == requests_generated`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Requests the browser issued and resolved (entered the log pipeline).
    pub requests_generated: u64,
    /// Requests that reached the collection server.
    pub requests_delivered: u64,
    /// Requests lost to per-entry log loss.
    pub requests_dropped_loss: u64,
    /// Requests lost to per-user log truncation.
    pub requests_dropped_truncation: u64,

    /// Stub-resolver cache hits (answered without an authoritative query).
    pub dns_cache_hits: u64,
    /// Stub-resolver cache misses (each one became ≥ 1 authoritative
    /// attempt below).
    pub dns_cache_misses: u64,
    /// Resolver attempts made (including retries).
    pub dns_attempts: u64,
    /// Attempts that timed out.
    pub dns_timeouts: u64,
    /// Retries that eventually succeeded.
    pub dns_retries: u64,
    /// Queries abandoned after exhausting the retry budget.
    pub dns_failures: u64,
    /// Total sim-clock seconds spent backing off.
    pub dns_backoff_secs: u64,

    /// pDNS records the completion step looked at.
    pub pdns_records_seen: u64,
    /// Records invisible due to sensor gaps.
    pub pdns_records_gapped: u64,
    /// Records used with a stale (start-only) validity window.
    pub pdns_records_stale: u64,

    /// Probes assigned across all geolocation targets.
    pub probes_assigned: u64,
    /// Assigned probes that were dark.
    pub probes_out: u64,
    /// Assigned probes that returned inflated RTTs.
    pub probes_flaky: u64,
    /// Targets where the estimator abstained for lack of quorum.
    pub quorum_abstentions: u64,

    /// Geolocation lookups attempted.
    pub geo_lookups: u64,
    /// Lookups the provider missed (no estimate).
    pub geo_misses: u64,

    /// Geolocation assignment-cache lookups answered from memoized
    /// per-location state (landmark baselines / nearest-`k` assignments).
    /// Like `dns_cache_*`, a performance counter, not a fault counter:
    /// excluded from [`DegradationReport::is_clean`]. Thread-budget
    /// invariant by construction (fills counted only by insert-race
    /// winners), so it participates in full-report equality checks.
    pub geoloc_assign_cache_hits: u64,
    /// Assignment-cache lookups that had to compute (distinct locations).
    pub geoloc_assign_cache_misses: u64,
    /// Probes whose distance the spatial grid index evaluated across all
    /// nearest-`k` computations — the index's work metric (the brute-force
    /// scan this replaced would count every probe for every computation).
    pub geoloc_index_probe_visits: u64,

    /// EU28 confinement (share of EU28-origin tracking flows terminating
    /// in EU28, IPmap estimates) measured on the degraded outputs — the
    /// metric-drift headline.
    pub eu28_confinement: f64,

    /// Per-layer run profile of the producing pipeline run. Observational,
    /// never part of the determinism contract: zero it
    /// (`profile = Profile::default()`) before comparing reports.
    #[serde(default)]
    pub profile: Profile,
}

impl DegradationReport {
    /// Adds `other`'s counters into `self`.
    ///
    /// Counter addition is commutative, so per-shard reports merged in any
    /// fixed order equal the sequential run's totals — this is what lets
    /// the pipeline shard degraded stages without perturbing the report.
    /// `eu28_confinement` and `profile` are *not* counters and are left
    /// untouched (the pipeline sets them once, at the end).
    pub fn absorb_counters(&mut self, other: &DegradationReport) {
        for (slot, v) in self.counter_slots().into_iter().zip(other.counter_values()) {
            *slot += v;
        }
    }

    /// Number of commutative-additive counters (the fields
    /// [`DegradationReport::absorb_counters`] adds, in its order).
    pub const N_COUNTERS: usize = 23;

    /// The commutative counters as a fixed-order array — the single
    /// source of truth for byte codecs (checkpoint chunk blobs, columnar
    /// segment blocks) that serialize counter deltas. The order is
    /// `absorb_counters`'s field order and is part of the checkpoint
    /// format: append new counters at the end and bump the checkpoint
    /// version.
    pub fn counter_values(&self) -> [u64; Self::N_COUNTERS] {
        [
            self.requests_generated,
            self.requests_delivered,
            self.requests_dropped_loss,
            self.requests_dropped_truncation,
            self.dns_cache_hits,
            self.dns_cache_misses,
            self.dns_attempts,
            self.dns_timeouts,
            self.dns_retries,
            self.dns_failures,
            self.dns_backoff_secs,
            self.pdns_records_seen,
            self.pdns_records_gapped,
            self.pdns_records_stale,
            self.probes_assigned,
            self.probes_out,
            self.probes_flaky,
            self.quorum_abstentions,
            self.geo_lookups,
            self.geo_misses,
            self.geoloc_assign_cache_hits,
            self.geoloc_assign_cache_misses,
            self.geoloc_index_probe_visits,
        ]
    }

    /// Rebuilds a counters-only report from [`DegradationReport::counter_values`]'s
    /// order (`eu28_confinement` and `profile` stay default).
    pub fn from_counter_values(values: &[u64; Self::N_COUNTERS]) -> DegradationReport {
        let mut r = DegradationReport::default();
        for (slot, &v) in r.counter_slots().into_iter().zip(values) {
            *slot = v;
        }
        r
    }

    /// The counters as mutable slots, in [`DegradationReport::counter_values`]'s
    /// order.
    fn counter_slots(&mut self) -> [&mut u64; Self::N_COUNTERS] {
        [
            &mut self.requests_generated,
            &mut self.requests_delivered,
            &mut self.requests_dropped_loss,
            &mut self.requests_dropped_truncation,
            &mut self.dns_cache_hits,
            &mut self.dns_cache_misses,
            &mut self.dns_attempts,
            &mut self.dns_timeouts,
            &mut self.dns_retries,
            &mut self.dns_failures,
            &mut self.dns_backoff_secs,
            &mut self.pdns_records_seen,
            &mut self.pdns_records_gapped,
            &mut self.pdns_records_stale,
            &mut self.probes_assigned,
            &mut self.probes_out,
            &mut self.probes_flaky,
            &mut self.quorum_abstentions,
            &mut self.geo_lookups,
            &mut self.geo_misses,
            &mut self.geoloc_assign_cache_hits,
            &mut self.geoloc_assign_cache_misses,
            &mut self.geoloc_index_probe_visits,
        ]
    }

    /// The log-layer accounting invariant.
    pub fn is_self_consistent(&self) -> bool {
        self.requests_delivered + self.requests_dropped_loss + self.requests_dropped_truncation
            == self.requests_generated
            && self.dns_cache_misses <= self.dns_attempts
            && self.dns_timeouts <= self.dns_attempts
            && self.dns_retries + self.dns_failures <= self.dns_attempts
            && self.pdns_records_gapped + self.pdns_records_stale <= self.pdns_records_seen
            && self.probes_out + self.probes_flaky <= self.probes_assigned
            && self.geo_misses <= self.geo_lookups
    }

    /// Share of generated requests that survived to delivery.
    pub fn delivery_coverage(&self) -> f64 {
        if self.requests_generated == 0 {
            1.0
        } else {
            self.requests_delivered as f64 / self.requests_generated as f64
        }
    }

    /// Share of geolocation lookups that produced an estimate.
    pub fn geo_coverage(&self) -> f64 {
        if self.geo_lookups == 0 {
            1.0
        } else {
            (self.geo_lookups - self.geo_misses) as f64 / self.geo_lookups as f64
        }
    }

    /// True when no fault counter fired (expected under [`FaultPlan::none`]).
    pub fn is_clean(&self) -> bool {
        self.requests_dropped_loss == 0
            && self.requests_dropped_truncation == 0
            && self.dns_timeouts == 0
            && self.dns_retries == 0
            && self.dns_failures == 0
            && self.dns_backoff_secs == 0
            && self.pdns_records_gapped == 0
            && self.pdns_records_stale == 0
            && self.probes_out == 0
            && self.probes_flaky == 0
            && self.quorum_abstentions == 0
            && self.geo_misses == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "delivered {}/{} requests ({:.1} % coverage), dns {} timeouts / {} failures, \
             pdns {} gapped + {} stale of {}, probes {} out + {} flaky of {}, \
             {} abstentions, geo {}/{} answered, assign cache {} hits / {} \
             misses ({} probe visits), eu28 confinement {:.3}",
            self.requests_delivered,
            self.requests_generated,
            100.0 * self.delivery_coverage(),
            self.dns_timeouts,
            self.dns_failures,
            self.pdns_records_gapped,
            self.pdns_records_stale,
            self.pdns_records_seen,
            self.probes_out,
            self.probes_flaky,
            self.probes_assigned,
            self.quorum_abstentions,
            self.geo_lookups - self.geo_misses,
            self.geo_lookups,
            self.geoloc_assign_cache_hits,
            self.geoloc_assign_cache_misses,
            self.geoloc_index_probe_visits,
            self.eu28_confinement,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let inj = FaultInjector::inactive();
        assert!(!inj.is_active());
        for k in 0..1000 {
            assert!(!inj.log_lost(k));
            assert!(!inj.log_truncated(k));
            assert!(!inj.resolver_timed_out(k, k, 0));
            assert!(!inj.pdns_gapped(k));
            assert!(!inj.probe_out(k, k));
            assert!(inj.probe_flaky_factor(k, k).is_none());
            assert!(!inj.geo_missed(k));
        }
    }

    #[test]
    fn coins_are_deterministic_and_rate_accurate() {
        let inj = FaultInjector::new(FaultPlan {
            log_loss: 0.2,
            ..FaultPlan::none()
        });
        assert!(inj.is_active());
        let hits = (0..10_000u64).filter(|&k| inj.log_lost(k)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
        // Same key, same answer.
        for k in 0..100 {
            assert_eq!(inj.log_lost(k), inj.log_lost(k));
        }
    }

    #[test]
    fn classes_are_decorrelated() {
        let mut plan = FaultPlan::none();
        plan.log_loss = 0.5;
        plan.pdns_gap = 0.5;
        let inj = FaultInjector::new(plan);
        let both = (0..10_000u64)
            .filter(|&k| inj.log_lost(k) && inj.pdns_gapped(k))
            .count();
        let rate = both as f64 / 10_000.0;
        // Independent coins: joint rate ~0.25, not 0.5 or 0.
        assert!((rate - 0.25).abs() < 0.03, "joint rate {rate}");
    }

    #[test]
    fn seed_changes_coins() {
        let ia = FaultInjector::new(FaultPlan::aggressive(1));
        let ib = FaultInjector::new(FaultPlan::aggressive(2));
        let diff = (0..1000u64)
            .filter(|&k| ia.log_lost(k) != ib.log_lost(k))
            .count();
        assert!(diff > 100, "only {diff} coins differ across seeds");
    }

    #[test]
    fn random_plans_are_bounded() {
        for seed in 0..200 {
            let p = FaultPlan::random(seed);
            assert!((0.0..=0.3).contains(&p.log_loss));
            assert!((0.0..=0.2).contains(&p.resolver_timeout));
            assert!(p.resolver_max_retries <= 3);
            assert!((1..=30).contains(&p.resolver_backoff_secs));
            assert!(p.min_quorum <= 5);
            assert!((0.0..=0.5).contains(&p.probe_outage));
        }
    }

    #[test]
    fn report_consistency() {
        let mut r = DegradationReport::default();
        assert!(r.is_self_consistent());
        assert!(r.is_clean());
        assert_eq!(r.delivery_coverage(), 1.0);
        r.requests_generated = 100;
        r.requests_delivered = 80;
        r.requests_dropped_loss = 15;
        r.requests_dropped_truncation = 5;
        assert!(r.is_self_consistent());
        assert!(!r.is_clean());
        assert!((r.delivery_coverage() - 0.8).abs() < 1e-12);
        r.requests_delivered = 81;
        assert!(!r.is_self_consistent());
    }

    /// A report whose every counter is a distinct pseudo-random value, so
    /// algebraic identities can't pass by accident (e.g. via zeros or
    /// symmetric values).
    fn scrambled_report(seed: u64) -> DegradationReport {
        let mut k = seed;
        let mut next = || {
            k = k.wrapping_add(1);
            mix64(seed ^ k) % 10_000
        };
        DegradationReport {
            requests_generated: next(),
            requests_delivered: next(),
            requests_dropped_loss: next(),
            requests_dropped_truncation: next(),
            dns_cache_hits: next(),
            dns_cache_misses: next(),
            dns_attempts: next(),
            dns_timeouts: next(),
            dns_retries: next(),
            dns_failures: next(),
            dns_backoff_secs: next(),
            pdns_records_seen: next(),
            pdns_records_gapped: next(),
            pdns_records_stale: next(),
            probes_assigned: next(),
            probes_out: next(),
            probes_flaky: next(),
            quorum_abstentions: next(),
            geo_lookups: next(),
            geo_misses: next(),
            geoloc_assign_cache_hits: next(),
            geoloc_assign_cache_misses: next(),
            geoloc_index_probe_visits: next(),
            eu28_confinement: 0.0,
            profile: Profile::default(),
        }
    }

    /// The property the sharded and streaming merge orders both rest on:
    /// absorbing per-shard (or per-chunk) counter deltas is commutative and
    /// associative, so any grouping of the same deltas yields the same
    /// totals — and the identity (default) report is neutral.
    #[test]
    fn absorb_counters_commutes_and_associates() {
        for seed in 0..50u64 {
            let a = scrambled_report(seed);
            let b = scrambled_report(seed ^ 0xdead_beef);
            let c = scrambled_report(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

            // Commutativity: a + b == b + a.
            let mut ab = a.clone();
            ab.absorb_counters(&b);
            let mut ba = b.clone();
            ba.absorb_counters(&a);
            assert_eq!(ab, ba, "absorb_counters not commutative at seed {seed}");

            // Associativity: (a + b) + c == a + (b + c).
            let mut ab_c = ab.clone();
            ab_c.absorb_counters(&c);
            let mut bc = b.clone();
            bc.absorb_counters(&c);
            let mut a_bc = a.clone();
            a_bc.absorb_counters(&bc);
            assert_eq!(ab_c, a_bc, "absorb_counters not associative at seed {seed}");

            // Identity: default + a == a (counters only; confinement and
            // the profile are excluded from absorption by contract).
            let mut id_a = DegradationReport::default();
            id_a.absorb_counters(&a);
            assert_eq!(id_a, a, "default report not neutral at seed {seed}");

            // Non-counters stay untouched.
            let mut carrier = a.clone();
            carrier.eu28_confinement = 0.75;
            carrier.profile.layer_mut("study").wall_ms = 123.0;
            let profile = carrier.profile.clone();
            carrier.absorb_counters(&b);
            assert_eq!(carrier.eu28_confinement, 0.75);
            assert_eq!(carrier.profile, profile);
        }
    }

    #[test]
    fn kill_switch_never_rule_only_counts() {
        let k = KillSwitch::none();
        for i in 0..10 {
            assert!(!k.fire(&format!("site-{i}")));
        }
        assert_eq!(k.sites_visited(), 10);
        assert!(k.fired().is_none());
    }

    #[test]
    fn kill_switch_fires_at_site_once() {
        let k = KillSwitch::at_site(3);
        let fires: Vec<bool> = (0..6).map(|i| k.fire(&format!("s{i}"))).collect();
        assert_eq!(fires, [false, false, false, true, false, false]);
        assert_eq!(k.fired(), Some((3, "s3".to_string())));
    }

    #[test]
    fn kill_switch_fires_at_label() {
        let k = KillSwitch::at_label("chunk-2:blob:mid");
        assert!(!k.fire("chunk-1:blob:mid"));
        assert!(!k.fire("chunk-2:blob:pre"));
        assert!(k.fire("chunk-2:blob:mid"));
        let (site, label) = k.fired().expect("fired");
        assert_eq!(site, 2);
        assert_eq!(label, "chunk-2:blob:mid");
    }

    #[test]
    fn seeded_kill_switch_is_deterministic_and_in_range() {
        for seed in 0..100u64 {
            let a = KillSwitch::seeded(seed, 17);
            let b = KillSwitch::seeded(seed, 17);
            let mut fired_at = None;
            for site in 0..17u64 {
                let fa = a.fire("x");
                let fb = b.fire("x");
                assert_eq!(fa, fb, "seeded switch diverged at seed {seed}");
                if fa {
                    fired_at = Some(site);
                }
            }
            assert!(fired_at.is_some(), "seeded switch never fired for seed {seed}");
        }
    }

    #[test]
    fn counter_values_round_trip_and_match_absorb() {
        let vals: [u64; DegradationReport::N_COUNTERS] =
            core::array::from_fn(|i| (i as u64 + 1) * 3);
        let r = DegradationReport::from_counter_values(&vals);
        assert_eq!(r.counter_values(), vals);
        // absorb_counters adds exactly the fields counter_values lists.
        let mut acc = DegradationReport::default();
        acc.absorb_counters(&r);
        assert_eq!(acc.counter_values(), vals);
        assert_eq!(acc.eu28_confinement, 0.0);
        assert_eq!(acc.profile, Profile::default());
    }

    /// XXH64 (seed 0) written the plainest way: words assembled a byte
    /// at a time by index, so its stripe, word and tail splitting shares
    /// nothing with [`checksum64`]'s `chunks_exact` path.
    fn xxh64_reference(bytes: &[u8]) -> u64 {
        let word = |at: usize, n: usize| {
            (0..n).fold(0u64, |w, k| w | (bytes[at + k] as u64) << (8 * k))
        };
        let mut i = 0;
        let mut h = if bytes.len() >= 32 {
            let mut acc = [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ];
            while i + 32 <= bytes.len() {
                for a in acc.iter_mut() {
                    *a = xxh_round(*a, word(i, 8));
                    i += 8;
                }
            }
            let mut h = acc[0]
                .rotate_left(1)
                .wrapping_add(acc[1].rotate_left(7))
                .wrapping_add(acc[2].rotate_left(12))
                .wrapping_add(acc[3].rotate_left(18));
            for a in acc {
                h = xxh_merge(h, a);
            }
            h
        } else {
            XXH_P5
        };
        h = h.wrapping_add(bytes.len() as u64);
        while i + 8 <= bytes.len() {
            h ^= xxh_round(0, word(i, 8));
            h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            i += 8;
        }
        if i + 4 <= bytes.len() {
            h ^= word(i, 4).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            i += 4;
        }
        while i < bytes.len() {
            h ^= (bytes[i] as u64).wrapping_mul(XXH_P5);
            h = h.rotate_left(11).wrapping_mul(XXH_P1);
            i += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }

    #[test]
    fn checksum64_known_answers() {
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn checksum64_matches_the_bytewise_reference_at_every_length() {
        // Lengths 0..=200 cover the short path, every 8/4/1-byte tail
        // combination, and one to six 32-byte stripes.
        let buf: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(151) ^ (i >> 3)) as u8)
            .collect();
        for n in 0..=buf.len() {
            assert_eq!(
                checksum64(&buf[..n]),
                xxh64_reference(&buf[..n]),
                "length {n}"
            );
        }
    }

    #[test]
    fn stable_hash_is_unchanged_fnv1a() {
        // Coins, DNS seeds and pDNS keys derive from these values.
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn plan_serializes_round_trip() {
        // Round-trip through the serde value tree (serde_json sits
        // downstream of this crate).
        let p = FaultPlan::aggressive(42);
        let v = serde::Serialize::to_value(&p);
        let back: FaultPlan = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(p, back);
    }
}
