//! The one sharding primitive every parallel stage runs on.
//!
//! The determinism contract (DESIGN.md §5c) lets a stage shard only work
//! whose per-item results never depend on which run or thread computes
//! them: hash-derived RNG streams and fault coins per entity, additive
//! counters, results merged in run order. Given that, the split itself is
//! a pure performance decision, and [`shard_map`] is the one place it is
//! made.

use std::ops::Range;

/// Splits `0..n` into `threads.clamp(1, n.max(1))` contiguous runs of
/// near-equal length, calls `f` once per run and returns the results in
/// run order.
///
/// One run is called inline on the caller's thread, so a budget of 1 (or
/// `n <= 1`) spawns nothing. Otherwise each run gets its own scoped
/// thread; a worker's panic is re-raised on the caller with its original
/// payload.
#[allow(clippy::disallowed_methods)] // the workspace's one thread scope
pub fn shard_map<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let runs = threads.clamp(1, n.max(1));
    if runs == 1 {
        return vec![f(0..n)];
    }
    // The first `n % runs` runs take one extra item.
    let (base, extra) = (n / runs, n % runs);
    let start = |i: usize| i * base + i.min(extra);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..runs)
            .map(|i| s.spawn(move || f(start(i)..start(i + 1))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_cover_every_index_once_in_order() {
        for n in [0usize, 1, 5, 97] {
            for threads in [1usize, 2, 3, 8, 200] {
                let runs = shard_map(n, threads, |r| r);
                assert_eq!(
                    runs.len(),
                    threads.clamp(1, n.max(1)),
                    "n {n} threads {threads}"
                );
                let covered: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(
                    covered,
                    (0..n).collect::<Vec<_>>(),
                    "n {n} threads {threads}"
                );
                let (lo, hi) = runs.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(hi - lo <= 1, "unbalanced runs {runs:?}");
            }
        }
    }

    #[test]
    fn one_run_is_one_inline_call() {
        let caller = std::thread::current().id();
        for (n, threads) in [(0usize, 4usize), (1, 8), (97, 1)] {
            let calls = AtomicUsize::new(0);
            let out = shard_map(n, threads, |r| {
                calls.fetch_add(1, Ordering::Relaxed);
                (r, std::thread::current().id())
            });
            assert_eq!(calls.into_inner(), 1);
            assert_eq!(out, vec![(0..n, caller)]);
        }
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        let caught = std::panic::catch_unwind(|| {
            shard_map(10, 3, |r| {
                if r.contains(&5) {
                    std::panic::panic_any(Payload(r.start));
                }
                r.len()
            })
        })
        .expect_err("the worker's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(4)));
    }
}
