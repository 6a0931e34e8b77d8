//! Browser-extension measurement simulator.
//!
//! The paper's primary dataset comes from a Chrome extension on 350 real
//! CrowdFlower users: every outgoing third-party request is logged with the
//! first-party domain, the third-party URL, and the final server IP from
//! the response (Sect. 3.1). This crate simulates that instrument:
//!
//! * [`user`] — the recruited population (country mix, resolver choice,
//!   activity levels); ad-block users are excluded, as in the paper.
//! * [`render`] — the page-render model: embeds fire stochastically,
//!   user interaction reveals lazy ad slots (the reason real users see more
//!   than crawlers), and every rendered ad network runs its RTB cascade
//!   with realistic referrer chains.
//! * [`request`] — the compact logged-request record (the extension's
//!   schema: domains, URL, IP — never full browsing history), which carries
//!   its URL in compact form and renders the string on demand.
//! * [`extension`] — the study driver producing an [`ExtensionDataset`]
//!   over the simulated study window, plus Table-1-style statistics.
//! * [`colog`] — the log's columnar (SoA) twin: per-segment
//!   [`SegmentBlock`]s, the durable chunk payload of the streaming and
//!   out-of-core drivers (DESIGN.md §5j).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colog;
pub mod extension;
pub mod render;
pub mod request;
pub mod user;

pub use colog::{SegmentBlock, LABEL_ABP, LABEL_CLEAN, LABEL_SEMI};
pub use extension::{
    run_study_sharded, DatasetStats, ExtensionDataset, StudyChunk, StudyConfig, StudyCtx,
    StudyStream, Visit, VisitSampler,
};
pub use render::{RenderConfig, RenderEngine};
pub use request::{LoggedRequest, Referrer, RequestId, UrlKey};
pub use user::{User, UserId, UserPopulation, UserPopulationConfig};
