//! Tracking-flow classification (paper Sect. 3.2).
//!
//! The paper identifies tracking flows in three stages:
//!
//! 1. **Blocklists, used passively.** The easylist/easyprivacy rules are
//!    matched against every logged request, but nothing is blocked — the
//!    extension let the page run, so cascade requests exist in the log.
//!    Matching requests form the initial *list of tracking flows* (LTF).
//! 2. **Referrer propagation.** A request whose referrer URL is already in
//!    the LTF *and* whose URL carries arguments (argument passing is how
//!    trackers move identifiers) joins the LTF. This is what catches the
//!    RTB cascade the blocklists never see, roughly doubling detected
//!    flows (Table 2).
//! 3. **Keyword matching.** Remaining requests with arguments and telltale
//!    keywords ("usermatch", "rtb", "cookiesync", ...) join the LTF.
//!
//! [`rules`] is the filter-list engine, [`listgen`] writes
//! easylist/easyprivacy-style lists from the synthetic world's blocklist
//! bits, and [`eval`] scores the result against ground truth.
//!
//! One slice labeller (`label.rs`) implements the algorithm: the chunk
//! index that dedups a request slice's URLs, the host table and its
//! compiled stage-1 rows, stage 1 (sharded over the thread budget), the
//! projection of its verdicts onto requests, stages 2 and 3, and the
//! Table-2 count walk. [`classifier`] runs a fresh labeller once over a
//! whole borrowed log, with the log's own URL ranks as URL ids;
//! [`incremental`] keeps one across the chunks of the streaming and
//! out-of-core drivers, and adds only what gives a URL a stream-global id
//! and what checkpoints it: the owned URL store and its dedup table, and
//! the delta codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod engine;
pub mod eval;
pub mod incremental;
mod label;
pub mod listgen;
#[cfg(test)]
mod oracle;
pub mod rules;
#[cfg(test)]
mod testkit;

pub use classifier::{
    classify, classify_with_stages, classify_with_stages_threads, Classification,
    ClassificationResult, ClassifierStages, MethodCounts,
};
pub use engine::{AhoCorasick, HostRow, KeywordScanner, RuleEngine};
pub use eval::{evaluate, Evaluation};
pub use incremental::{ChunkClassification, IncrementalClassifier, ResidentBytes};
pub use listgen::generate_lists;
pub use rules::{FilterList, FilterRule};
