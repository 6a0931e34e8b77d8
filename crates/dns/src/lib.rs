//! DNS simulator for the `xborder` reproduction.
//!
//! Two paper mechanisms live here:
//!
//! 1. **Mapping users onto tracker servers.** Tracking operators with
//!    multiple PoPs use geo-DNS: the authoritative server answers with the
//!    PoP nearest *the resolver* that asked. Mobile subscribers use their
//!    ISP's resolver (in-country → mapped to nearby PoPs), while broadband
//!    users increasingly use third-party public DNS whose egress PoP may sit
//!    in another country — the paper's explanation for mobile ISPs showing
//!    higher national confinement (Sect. 7.3). [`resolver`] and the
//!    [`zone::MappingPolicy`] reproduce that machinery.
//!
//! 2. **Passive DNS replication** (Sect. 3.3). Production resolutions are
//!    recorded into a [`pdns::PassiveDnsDb`] with first/last-seen windows.
//!    Forward queries complete a tracker's IP set (the paper's +2.78 %);
//!    reverse queries tell whether an IP serves one domain (dedicated
//!    tracking) or many (ad exchange), Fig. 4/5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pdns;
pub mod resolver;
pub mod sim;
pub mod zone;

pub use cache::DnsCache;
pub use pdns::{PassiveDnsDb, PdnsRecord};
pub use resolver::{ClientCtx, Resolver, ResolverKind};
pub use sim::{DnsSim, IndexedZoneView, PdnsIdObservation, PdnsObservation, ZoneView};
pub use zone::{MappingPolicy, PopOrders, ZoneEntry, ZoneServer};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// The queried name has no zone.
    NxDomain(xborder_webgraph::Domain),
    /// A zone was registered with no servers.
    EmptyZone(xborder_webgraph::Domain),
}

impl std::fmt::Display for DnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnsError::NxDomain(d) => write!(f, "NXDOMAIN: {d}"),
            DnsError::EmptyZone(d) => write!(f, "zone {d} has no servers"),
        }
    }
}

impl std::error::Error for DnsError {}
