//! Rolling confinement/report snapshots emitted *during* streaming
//! ingestion (DESIGN.md §5g).
//!
//! The paper's measurement is longitudinal — months of logs — and a
//! standing service must publish intermediate tracking numbers as data
//! arrives, not one report at finalize. The streaming driver divides the
//! study window into `K` equal sim-time windows and emits one cumulative
//! [`RollingSnapshot`] per window boundary as soon as every user it covers
//! has been ingested.
//!
//! ## What a snapshot covers
//!
//! Users are recruited linearly over the study window in the model:
//! snapshot `i` (window end `W_i`, `i` from 0) covers exactly the requests
//! and visits with `user < u_cap_i` **and** `time < W_i`, where
//! `u_cap_i = floor((W_i - start) · n_users / window_len)`. That coverage
//! set is a pure function of `(W_i, n_users, study window)` — chunking,
//! thread budget and kill schedule cannot move an event across a snapshot
//! boundary, so every emitted snapshot equals the batch pipeline run on
//! the same log truncated at the window's end
//! (`tests/rolling_snapshots.rs` pins this against the independent
//! [`batch_snapshots`] recomputation).
//!
//! ## What a snapshot reports
//!
//! Cumulative visit/request/tracking-request totals, distinct tracker IPs,
//! and a *truth-based* EU28 confinement split: origin = the user's
//! (EU28?) country, destination = [`Infrastructure::true_country_of`] the
//! request's IP. Unlike the finalize-time Fig. 7 numbers, no geolocation
//! provider runs mid-stream — provider freezes draw RNG and are a
//! finalize-stage concern; the rolling view is the ground-truth confinement
//! the sim world knows exactly, with zero RNG draws (and therefore zero
//! effect on the determinism contract).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::net::IpAddr;
use xborder_browser::{
    ExtensionDataset, LoggedRequest, UserPopulation, Visit, LABEL_ABP, LABEL_SEMI,
};
use xborder_classify::Classification;
use xborder_geo::WORLD;
use xborder_netsim::time::{SimTime, TimeWindow};
use xborder_netsim::Infrastructure;
use xborder_webgraph::FxHasher;

/// One cumulative rolling-window snapshot, emitted mid-stream after every
/// user covered by its window has been ingested.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollingSnapshot {
    /// Zero-based window index (`0..K`).
    pub index: usize,
    /// Exclusive sim-time upper bound of the window.
    pub window_end: SimTime,
    /// Users covered (`user id < users_covered`): the prefix of the
    /// population recruited by `window_end` under linear recruitment.
    pub users_covered: usize,
    /// Visits covered.
    pub visits: u64,
    /// Requests covered.
    pub requests: u64,
    /// Blocklist-labeled (stage 1) tracking requests covered.
    pub abp_requests: u64,
    /// Semi-automatic (stage 2/3) tracking requests covered.
    pub semi_requests: u64,
    /// Distinct IPs among covered tracking requests.
    pub distinct_tracker_ips: usize,
    /// Tracking requests originating from EU28 users.
    pub eu28_tracking: u64,
    /// Of those, requests whose destination IP's true country is EU28.
    pub eu28_confined: u64,
    /// Of those, requests whose destination IP has no known true country.
    pub eu28_unresolved: u64,
}

impl RollingSnapshot {
    /// Total tracking requests covered (both methods).
    pub fn tracking_requests(&self) -> u64 {
        self.abp_requests + self.semi_requests
    }

    /// Share of resolved EU28-origin tracking requests confined to EU28
    /// destinations (0.0 when nothing resolved yet).
    pub fn confinement(&self) -> f64 {
        let resolved = self.eu28_tracking - self.eu28_unresolved;
        if resolved == 0 {
            0.0
        } else {
            self.eu28_confined as f64 / resolved as f64
        }
    }
}

/// The `K` window boundaries and their user-coverage caps, all in exact
/// integer math (`u128` intermediates) so every chunking computes the
/// same boundaries.
#[derive(Debug)]
struct SnapshotWindows {
    ends: Vec<SimTime>,
    user_caps: Vec<usize>,
}

impl SnapshotWindows {
    fn new(study: TimeWindow, n_users: usize, windows: usize) -> SnapshotWindows {
        let start = study.start.0;
        let len = study.len_secs();
        let k = windows as u128;
        let ends: Vec<SimTime> = (1..=windows as u128)
            .map(|i| SimTime(start + (i * len as u128 / k) as u64))
            .collect();
        let user_caps: Vec<usize> = ends
            .iter()
            .map(|e| {
                if len == 0 {
                    n_users
                } else {
                    ((e.0 - start) as u128 * n_users as u128 / len as u128) as usize
                }
            })
            .collect();
        debug_assert_eq!(ends.last().map(|e| e.0), Some(start + len));
        debug_assert_eq!(user_caps.last().copied(), Some(n_users));
        SnapshotWindows { ends, user_caps }
    }

    /// First snapshot index whose coverage includes `(user, t)` — events
    /// land in the *delta bucket* of that snapshot.
    fn entry(&self, user: u32, t: SimTime) -> usize {
        let by_time = self.ends.partition_point(|w| w.0 <= t.0);
        let by_user = self.user_caps.partition_point(|c| *c <= user as usize);
        let e = by_time.max(by_user);
        debug_assert!(
            e < self.ends.len(),
            "event (user {user}, t {}) outside the study window",
            t.0
        );
        e.min(self.ends.len() - 1)
    }
}

/// Per-bucket deltas, absorbed into cumulative totals at emission.
#[derive(Debug, Default)]
struct Delta {
    visits: u64,
    requests: u64,
    abp: u64,
    semi: u64,
    eu28_tracking: u64,
    eu28_confined: u64,
    eu28_unresolved: u64,
    tracker_ips: Vec<IpAddr>,
}

/// Streaming accumulator: chunks feed per-bucket deltas as they commit;
/// a snapshot emits once every user its window covers has been ingested.
#[derive(Debug)]
pub(crate) struct SnapshotAccumulator {
    wins: SnapshotWindows,
    /// Per-user "is the user's country EU28" truth, precomputed from the
    /// population (user ids are recruitment order, densely 0..n).
    user_eu28: Vec<bool>,
    buckets: Vec<Delta>,
    /// Buckets absorbed so far == snapshots emitted so far.
    emitted: usize,
    cum: Delta,
    /// Distinct tracker IPs so far: one insert per tracking row, so the
    /// set is Fx-hashed; only its size is ever read.
    cum_ips: HashSet<IpAddr, BuildHasherDefault<FxHasher>>,
    snapshots: Vec<RollingSnapshot>,
}

impl SnapshotAccumulator {
    pub(crate) fn new(
        study: TimeWindow,
        population: &UserPopulation,
        windows: usize,
    ) -> SnapshotAccumulator {
        let user_eu28 = population
            .users
            .iter()
            .map(|u| WORLD.country(u.country).map(|c| c.eu28).unwrap_or(false))
            .collect();
        SnapshotAccumulator {
            wins: SnapshotWindows::new(study, population.users.len(), windows),
            user_eu28,
            buckets: (0..windows).map(|_| Delta::default()).collect(),
            emitted: 0,
            cum: Delta::default(),
            cum_ips: HashSet::default(),
            snapshots: Vec::new(),
        }
    }

    /// Buckets one committed chunk's events. `labels` are the label tags
    /// ([`LABEL_ABP`] / [`LABEL_SEMI`] / clean), parallel to `requests`;
    /// both are chunk-local (user ids are global).
    pub(crate) fn absorb_chunk(
        &mut self,
        visits: &[Visit],
        requests: &[LoggedRequest],
        labels: &[u8],
        infra: &Infrastructure,
    ) {
        debug_assert_eq!(requests.len(), labels.len());
        for v in visits {
            self.buckets[self.wins.entry(v.user.0, v.time)].visits += 1;
        }
        for (r, l) in requests.iter().zip(labels) {
            let d = &mut self.buckets[self.wins.entry(r.user.0, r.time)];
            d.requests += 1;
            match *l {
                LABEL_ABP => d.abp += 1,
                LABEL_SEMI => d.semi += 1,
                _ => continue,
            }
            d.tracker_ips.push(r.ip);
            if self.user_eu28.get(r.user.0 as usize).copied().unwrap_or(false) {
                d.eu28_tracking += 1;
                match infra.true_country_of(r.ip) {
                    Some(code) => {
                        if WORLD.country(code).map(|c| c.eu28).unwrap_or(false) {
                            d.eu28_confined += 1;
                        }
                    }
                    None => d.eu28_unresolved += 1,
                }
            }
        }
    }

    /// Is the next snapshot fully covered once `users_ingested` users are
    /// durable?
    pub(crate) fn due(&self, users_ingested: usize) -> bool {
        self.emitted < self.buckets.len() && self.wins.user_caps[self.emitted] <= users_ingested
    }

    /// Absorbs the next bucket into the cumulative totals and emits its
    /// snapshot, returning the snapshot index (for the kill-site label).
    pub(crate) fn emit_next(&mut self) -> usize {
        let i = self.emitted;
        let d = std::mem::take(&mut self.buckets[i]);
        self.cum.visits += d.visits;
        self.cum.requests += d.requests;
        self.cum.abp += d.abp;
        self.cum.semi += d.semi;
        self.cum.eu28_tracking += d.eu28_tracking;
        self.cum.eu28_confined += d.eu28_confined;
        self.cum.eu28_unresolved += d.eu28_unresolved;
        self.cum_ips.extend(d.tracker_ips);
        self.snapshots.push(RollingSnapshot {
            index: i,
            window_end: self.wins.ends[i],
            users_covered: self.wins.user_caps[i],
            visits: self.cum.visits,
            requests: self.cum.requests,
            abp_requests: self.cum.abp,
            semi_requests: self.cum.semi,
            distinct_tracker_ips: self.cum_ips.len(),
            eu28_tracking: self.cum.eu28_tracking,
            eu28_confined: self.cum.eu28_confined,
            eu28_unresolved: self.cum.eu28_unresolved,
        });
        self.emitted = i + 1;
        i
    }

    /// The emitted snapshots, consumed at finalize.
    pub(crate) fn into_snapshots(self) -> Vec<RollingSnapshot> {
        self.snapshots
    }
}

/// Recomputes what the rolling snapshots must be, from a *completed*
/// dataset — a deliberately naive, independent implementation (per-window
/// filter + count over the whole log) used by the prefix-consistency pin
/// in `tests/rolling_snapshots.rs` and by batch-side consumers that want
/// the same windows without streaming.
///
/// `labels` is parallel to `dataset.requests`.
pub fn batch_snapshots(
    dataset: &ExtensionDataset,
    labels: &[Classification],
    infra: &Infrastructure,
    study: TimeWindow,
    windows: usize,
) -> Vec<RollingSnapshot> {
    assert_eq!(dataset.requests.len(), labels.len());
    let wins = SnapshotWindows::new(study, dataset.users.users.len(), windows);
    let user_eu28: Vec<bool> = dataset
        .users
        .users
        .iter()
        .map(|u| WORLD.country(u.country).map(|c| c.eu28).unwrap_or(false))
        .collect();
    (0..windows)
        .map(|i| {
            let end = wins.ends[i];
            let cap = wins.user_caps[i] as u32;
            let covered =
                |user: u32, t: SimTime| -> bool { user < cap && t.0 < end.0 };
            let visits = dataset
                .visits
                .iter()
                .filter(|v| covered(v.user.0, v.time))
                .count() as u64;
            let mut snap = RollingSnapshot {
                index: i,
                window_end: end,
                users_covered: cap as usize,
                visits,
                requests: 0,
                abp_requests: 0,
                semi_requests: 0,
                distinct_tracker_ips: 0,
                eu28_tracking: 0,
                eu28_confined: 0,
                eu28_unresolved: 0,
            };
            let mut ips: HashSet<IpAddr> = HashSet::new();
            for (r, l) in dataset.requests.iter().zip(labels) {
                if !covered(r.user.0, r.time) {
                    continue;
                }
                snap.requests += 1;
                match l {
                    Classification::AbpTracking => snap.abp_requests += 1,
                    Classification::SemiTracking => snap.semi_requests += 1,
                    Classification::Clean => continue,
                }
                ips.insert(r.ip);
                if user_eu28.get(r.user.0 as usize).copied().unwrap_or(false) {
                    snap.eu28_tracking += 1;
                    match infra.true_country_of(r.ip) {
                        Some(code) => {
                            if WORLD.country(code).map(|c| c.eu28).unwrap_or(false) {
                                snap.eu28_confined += 1;
                            }
                        }
                        None => snap.eu28_unresolved += 1,
                    }
                }
            }
            snap.distinct_tracker_ips = ips.len();
            snap
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundaries_are_exact_and_monotone() {
        let study = TimeWindow::new(SimTime(1000), SimTime(1000 + 997));
        let wins = SnapshotWindows::new(study, 13, 5);
        assert_eq!(wins.ends.len(), 5);
        assert_eq!(wins.ends.last().unwrap().0, 1997, "last window end = study end");
        assert_eq!(*wins.user_caps.last().unwrap(), 13, "last cap = all users");
        for w in wins.ends.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for c in wins.user_caps.windows(2) {
            assert!(c[0] <= c[1]);
        }
    }

    #[test]
    fn entry_bucket_is_max_of_both_dimensions() {
        let study = TimeWindow::new(SimTime(0), SimTime(100));
        let wins = SnapshotWindows::new(study, 10, 4);
        // ends = 25, 50, 75, 100; caps = 2, 5, 7, 10 (floor(e*10/100)).
        assert_eq!(wins.entry(0, SimTime(0)), 0);
        // User 0 but late time → time dimension wins.
        assert_eq!(wins.entry(0, SimTime(60)), 2);
        // Early time but late user → user dimension wins.
        assert_eq!(wins.entry(8, SimTime(0)), 3);
        // Boundary: t == window end is *not* covered by that window.
        assert_eq!(wins.entry(0, SimTime(25)), 1);
        // Boundary: user == cap is *not* covered by that window.
        assert_eq!(wins.entry(2, SimTime(0)), 1);
    }

    #[test]
    fn single_window_covers_everything() {
        let study = TimeWindow::new(SimTime(0), SimTime(50));
        let wins = SnapshotWindows::new(study, 3, 1);
        assert_eq!(wins.entry(2, SimTime(49)), 0);
        assert_eq!(wins.user_caps, vec![3]);
    }
}
