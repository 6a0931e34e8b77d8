//! Synthetic web ecosystem for the `xborder` reproduction.
//!
//! The paper's browser-extension dataset is a sample of the real web: users
//! visit publisher sites, the sites embed third-party advertising and
//! tracking code, and executing that code opens further connections (the
//! RTB cascade: ad network → exchange → bidders → cookie-sync partners).
//! This crate models the *static structure* of that ecosystem:
//!
//! * [`domain`] — domain names and the pay-level-domain ("TLD" in the
//!   paper's terminology) extraction the classifier aggregates by.
//! * [`category`] — publisher content categories including the 12
//!   GDPR-sensitive ones of Sect. 6, plus the AdWords-style interest-topic
//!   vocabulary the sensitive-site tagger consumes.
//! * [`service`] — third-party services, their operating organizations,
//!   hosting policies, and whether the easylist-style blocklists know them.
//! * [`cascade`] — RTB cascade templates: which downstream requests an
//!   executed ad-network embed triggers, with referrer semantics.
//! * [`publisher`] — publisher sites with popularity ranks and embed lists.
//! * [`url`] — a small URL type plus synthesis of realistic tracking URLs
//!   (query arguments, cookie-sync keywords).
//! * [`gen`] — the deterministic generator assembling a [`WebGraph`] from a
//!   [`gen::WebGraphConfig`].
//! * [`intern`] — the worldgen-time domain interner ([`DomainId`] /
//!   [`DomainTable`]) the study hot path moves ids through instead of
//!   cloning strings (DESIGN.md §5f).
//!
//! Dynamic behaviour (who visits what, which coins get flipped) lives in
//! `xborder-browser`; this crate is the schema and the world content.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade;
pub mod category;
pub mod domain;
pub mod gen;
pub mod graph;
pub mod intern;
pub mod publisher;
pub mod service;
pub mod url;

pub use cascade::{CascadeStep, CascadeTemplate};
pub use category::{SiteCategory, Topic};
pub use domain::Domain;
pub use gen::{generate, WebGraphConfig};
pub use graph::WebGraph;
pub use intern::{fx_hash, DomainId, DomainTable, FxHasher, FxMap};
pub use publisher::{Audience, Embed, EmbedMode, Publisher, PublisherId};
pub use service::{HostingPolicy, ServiceId, ServiceKind, ServiceOrg, ServiceOrgId, ThirdPartyService};
pub use url::Url;
