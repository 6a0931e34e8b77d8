//! Pipeline parallelism configuration.
//!
//! The pipeline's determinism contract (DESIGN.md §5c) allows sharding
//! only stages whose per-entity results are independent of processing
//! order: the study (per-user RNG streams), stage-1 blocklist matching,
//! the provider freezes, the NetFlow join and the ISP × day cells, whose
//! RNG streams and fault coins are hash-derived from `(seed, class,
//! entity)` rather than drawn from a shared stream. All five shard
//! through [`xborder_faults::shard_map`]; a budget of 1 is one run,
//! called inline.

use serde::{Deserialize, Serialize};

/// Environment variable overriding the thread budget (`1` = sequential).
pub const THREADS_ENV: &str = "XBORDER_THREADS";

/// Thread budget for the shardable pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads for sharded stages. `1` runs every stage inline on
    /// the calling thread; values are clamped to at least 1.
    pub threads: usize,
}

impl Parallelism {
    /// A budget of one thread.
    pub fn sequential() -> Parallelism {
        Parallelism { threads: 1 }
    }

    /// An explicit thread budget (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Parallelism {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// Reads `XBORDER_THREADS`, defaulting to the machine's available
    /// cores. Unparseable or zero values fall back to the default.
    pub fn from_env() -> Parallelism {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(available_cores);
        Parallelism { threads }
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::from_env()
    }
}

/// Available cores, with a sequential fallback when the OS won't say.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_thread() {
        assert_eq!(Parallelism::sequential().threads, 1);
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert_eq!(Parallelism::with_threads(8).threads, 8);
    }

    #[test]
    fn from_env_yields_at_least_one() {
        // Whatever the environment says, the budget is usable.
        assert!(Parallelism::from_env().threads >= 1);
    }
}
