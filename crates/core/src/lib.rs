//! `xborder` — an end-to-end reproduction of *Tracing Cross Border Web
//! Tracking* (Iordanou, Smaragdakis, Poese & Laoutaris, IMC 2018).
//!
//! The paper's datasets (350 real users' browsing logs, four ISPs' NetFlow,
//! RIPE IPmap, Robtex passive DNS) are closed, so this library pairs the
//! paper's *measurement pipeline* with a deterministic synthetic world that
//! exercises the same code paths — see DESIGN.md for the substitution
//! table.
//!
//! # Quick start
//!
//! ```no_run
//! use xborder::{World, WorldConfig};
//!
//! // Build a seeded world: web graph, infrastructure, DNS.
//! let mut world = World::build(WorldConfig::small(42));
//! // Run the 4.5-month browser-extension study.
//! let study = xborder::pipeline::run_extension_pipeline(&mut world);
//! // Headline result: confinement of EU28 users' tracking flows.
//! let fig7 = xborder::confine::region_breakdown_eu28(&study, &study.ipmap_estimates);
//! println!("EU28 -> EU28: {:.1}%", fig7.share(xborder_geo::Region::Eu28) * 100.0);
//! ```
//!
//! # Module map
//!
//! * [`worldgen`] — materializes a synthetic world (orgs, PoPs, servers,
//!   DNS zones) from a [`WorldConfig`].
//! * [`pipeline`] — runs the extension study, classification, IP-set
//!   completion and geolocation, producing a [`pipeline::StudyOutputs`].
//! * [`stream`] — the checkpointed streaming twin of the pipeline:
//!   chunked ingestion, crash-safe resume (DESIGN.md §5g).
//! * [`ips`] — tracker IP set construction + passive-DNS completion
//!   (Sect. 3.3).
//! * [`dedicated`] — dedicated-IP analysis (Figs. 4–5).
//! * [`confine`] — border-crossing / confinement analyses (Figs. 6–8).
//! * [`whatif`] — DNS-redirection and PoP-mirroring scenarios (Tables 5–6).
//! * [`sensitive`] — sensitive-category detection and tracing (Figs. 9–11).
//! * [`ispstudy`] — the ISP NetFlow scale-up (Tables 7–8, Fig. 12).
//! * [`collab`] — inter-tracker collaboration graphs (the paper's stated
//!   future work: data exchange *between* trackers, and whether it
//!   crosses the EU28 boundary).
//! * [`regulations`] — multi-regulation compliance audits (GDPR, COPPA,
//!   US-state scope), the paper's proposed monitoring generalization.
//! * [`related`] — the related-work comparison matrix (Table 9).
//! * [`report`] — text/JSON rendering of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collab;
pub mod confine;
pub mod dedicated;
pub mod ips;
pub mod ispstudy;
pub mod par;
pub mod pipeline;
pub mod regulations;
pub mod related;
pub mod report;
mod segment;
pub mod sensitive;
pub mod snapshots;
pub mod stream;
pub mod whatif;
pub mod worldgen;
pub mod worldscale;

pub use par::Parallelism;
pub use pipeline::StudyOutputs;
pub use worldgen::{World, WorldConfig};
