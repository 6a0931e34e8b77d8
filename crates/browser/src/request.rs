//! The logged third-party request record.
//!
//! Mirrors the extension's ethics-constrained schema (paper Sect. 3.1):
//! first-party *domain* (never the full first-party URL), the third-party
//! request URL, the referrer relation, and the final server IP from the
//! response. User identity is a study-local index.
//!
//! The row does not own its URL string. It carries the URL in the compact
//! form the study synthesized ([`EncodedUrl`], DESIGN.md §5f) and renders
//! the bytes on demand with [`LoggedRequest::write_url`]: the string is a
//! function of the row's host, user and compact URL, so the log holds no
//! heap string per request, and a row stays 72 bytes.

use crate::user::UserId;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use xborder_netsim::time::SimTime;
use xborder_webgraph::url::{EncodedUrl, Scheme};
use xborder_webgraph::{DomainId, DomainTable, PublisherId};

/// Index of a request within an [`crate::ExtensionDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u32);

/// What the `Referer` header pointed at.
///
/// Stored as a relation rather than a copied URL string: the classifier
/// resolves [`Referrer::Request`] back to the parent's URL through the
/// dataset, which keeps 7M-record datasets compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Referrer {
    /// No referrer was sent.
    None,
    /// The first-party page URL (embeds executing in first-party context).
    FirstParty,
    /// The URL of an earlier logged request (RTB cascade step).
    Request(RequestId),
}

/// One logged third-party request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedRequest {
    /// Who made it.
    pub user: UserId,
    /// When.
    pub time: SimTime,
    /// The site being visited (first party), interned in the world's
    /// `DomainTable` (DESIGN.md §5f) — resolve through
    /// `ExtensionDataset::domains` / `WebGraph::domains` for the string.
    pub first_party: DomainId,
    /// Generator-internal publisher id (stable join key for analyses; the
    /// real extension only had the domain, which maps 1:1 to this).
    pub publisher: PublisherId,
    /// The requested third-party URL in compact form; the string is
    /// [`LoggedRequest::write_url`].
    pub url: EncodedUrl,
    /// The request host, pre-extracted and interned for cheap grouping
    /// (4-byte `Copy` id instead of a cloned string per request).
    pub host: DomainId,
    /// Referrer relation.
    pub referrer: Referrer,
    /// Final server IP observed in the response.
    pub ip: IpAddr,
}

/// The row stays the size it had when it owned a boxed URL string.
const _: () = assert!(std::mem::size_of::<LoggedRequest>() <= 72);

/// Everything a row's URL string is a function of: the host, the compact
/// URL and, for identity-bearing styles, the user. Two rows render equal
/// URL strings exactly when their keys are equal, so classifiers dedup
/// URLs on this key without rendering them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UrlKey {
    /// The request host.
    pub host: DomainId,
    /// The user half of the identity, or 0 for a plain URL.
    pub user: u32,
    /// The compact URL.
    pub url: EncodedUrl,
}

impl LoggedRequest {
    /// Appends the URL string to `buf`, its host name looked up in
    /// `domains` (the world interner the row's ids index into) —
    /// byte-identical to the string the extension logged.
    pub fn write_url(&self, domains: &DomainTable, buf: &mut String) {
        self.url
            .write_into(domains.domain(self.host).as_str(), self.user.0, buf);
    }

    /// The URL string in a fresh `String`: one allocation per call, for
    /// oracles, digests of small logs and tests.
    pub fn url_string(&self, domains: &DomainTable) -> String {
        let mut buf = String::new();
        self.write_url(domains, &mut buf);
        buf
    }

    /// The row's URL identity (see [`UrlKey`]).
    pub fn url_key(&self) -> UrlKey {
        UrlKey {
            host: self.host,
            user: self.url.rendered_user(self.user.0),
            url: self.url,
        }
    }

    /// True if the URL carries query arguments.
    pub fn has_args(&self) -> bool {
        self.url.has_args()
    }

    /// True if the URL is HTTPS.
    pub fn is_https(&self) -> bool {
        self.url.scheme() == Scheme::Https
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_webgraph::url::{UrlParts, UrlStyle};
    use xborder_webgraph::Domain;

    fn sample(domains: &mut DomainTable, parts: UrlParts) -> LoggedRequest {
        LoggedRequest {
            user: UserId(3),
            time: SimTime(1000),
            first_party: domains.intern(&Domain::new("pub.example.org")),
            publisher: PublisherId(9),
            url: EncodedUrl::try_from(parts).unwrap(),
            host: domains.intern(&Domain::new("sync.t.com")),
            referrer: Referrer::FirstParty,
            ip: "1.2.3.4".parse().unwrap(),
        }
    }

    const KEYWORD: UrlParts = UrlParts {
        scheme: Scheme::Https,
        style: UrlStyle::ArgsAndKeywords,
        path_idx: 0,
        event_idx: 0,
        service: 5,
        cb: None,
    };

    #[test]
    fn url_roundtrip() {
        let mut domains = DomainTable::new();
        let r = sample(&mut domains, KEYWORD);
        let s = r.url_string(&domains);
        assert_eq!(s, r.url.to_url(&Domain::new("sync.t.com"), 3).to_string());
        assert!(
            s.starts_with("https://sync.t.com/usermatch?partner="),
            "{s}"
        );
        let url = xborder_webgraph::Url::parse(&s).unwrap();
        assert!(url.has_args() && url.has_tracking_keyword());
        assert!(r.has_args() && r.is_https());
    }

    #[test]
    fn args_check_without_query() {
        let mut domains = DomainTable::new();
        let plain = UrlParts {
            scheme: Scheme::Http,
            style: UrlStyle::Plain,
            service: 0,
            ..KEYWORD
        };
        let r = sample(&mut domains, plain);
        assert_eq!(r.url_string(&domains), "http://sync.t.com/js/widget.js");
        assert!(!r.has_args() && !r.is_https());
    }

    #[test]
    fn url_key_ignores_the_user_of_a_plain_url() {
        let mut domains = DomainTable::new();
        let plain = UrlParts {
            style: UrlStyle::Plain,
            service: 0,
            ..KEYWORD
        };
        for (parts, same) in [(plain, true), (KEYWORD, false)] {
            let a = sample(&mut domains, parts);
            let b = LoggedRequest {
                user: UserId(4),
                ..a.clone()
            };
            assert_eq!(a.url_key() == b.url_key(), same);
            assert_eq!(a.url_string(&domains) == b.url_string(&domains), same);
        }
    }
}
