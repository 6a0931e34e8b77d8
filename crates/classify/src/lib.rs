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
//! bits, [`classifier`] runs the three stages over a whole log,
//! [`incremental`] is the chunk-at-a-time delta-fixpoint twin the
//! streaming driver uses, and [`eval`] scores the result against ground
//! truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod engine;
pub mod eval;
pub mod incremental;
pub mod listgen;
pub mod rules;

pub use classifier::{
    classify, classify_with_stages, classify_with_stages_threads, Classification,
    ClassificationResult, ClassifierStages, MethodCounts,
};
pub use engine::{AhoCorasick, HostRow, KeywordScanner, RuleEngine, TokenPrefilter};
pub use incremental::{ChunkClassification, IncrementalClassifier, ResidentBytes};
pub use eval::{evaluate, Evaluation};
pub use listgen::generate_lists;
pub use rules::{FilterList, FilterRule, HostGate};
