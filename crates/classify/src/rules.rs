//! An easylist-style filter-rule engine.
//!
//! Supports the two rule shapes that do almost all the work in the real
//! lists: domain anchors (`||tracker.com^`, matching the domain and every
//! subdomain) and URL substrings (`/usermatch?`). Rules are indexed by
//! pay-level domain so matching a request is O(rules-on-that-TLD), not
//! O(all rules) — the real engines do the same.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xborder_webgraph::Domain;

/// One filter rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterRule {
    /// `||domain^` — matches the domain itself and any subdomain.
    DomainAnchor(Domain),
    /// `||domain^path` — domain anchor plus a path prefix requirement.
    DomainWithPath {
        /// Anchored domain.
        domain: Domain,
        /// Required path prefix (starting with `/`).
        path_prefix: String,
    },
    /// A bare substring that must occur in the full URL string.
    UrlSubstring(String),
}

impl FilterRule {
    /// True if the rule matches a request to `host` with full URL `url`.
    pub fn matches(&self, host: &Domain, url: &str) -> bool {
        match self {
            FilterRule::DomainAnchor(d) => host.is_subdomain_of(d),
            FilterRule::DomainWithPath { domain, path_prefix } => {
                if !host.is_subdomain_of(domain) {
                    return false;
                }
                // Path starts right after the host in simulator URLs.
                match url.find(host.as_str()) {
                    Some(i) => url[i + host.as_str().len()..].starts_with(path_prefix.as_str()),
                    None => false,
                }
            }
            FilterRule::UrlSubstring(s) => url.contains(s.as_str()),
        }
    }

    /// The pay-level domain this rule is specific to (`None` for global
    /// substring rules).
    pub fn tld_key(&self) -> Option<Domain> {
        match self {
            FilterRule::DomainAnchor(d) => Some(d.tld()),
            FilterRule::DomainWithPath { domain, .. } => Some(domain.tld()),
            FilterRule::UrlSubstring(_) => None,
        }
    }
}

/// A named, indexed rule list (easylist / easyprivacy analogue).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FilterList {
    /// List name ("easylist", "easyprivacy").
    pub name: String,
    rules: Vec<FilterRule>,
    by_tld: HashMap<Domain, Vec<usize>>,
    global: Vec<usize>,
}

impl FilterList {
    /// An empty list.
    pub fn new(name: impl Into<String>) -> FilterList {
        FilterList {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: FilterRule) {
        let idx = self.rules.len();
        match rule.tld_key() {
            Some(tld) => self.by_tld.entry(tld).or_default().push(idx),
            None => self.global.push(idx),
        }
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the list has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules, in insertion order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.rules
    }

    /// True if any rule matches the request.
    pub fn matches(&self, host: &Domain, url: &str) -> bool {
        if let Some(idxs) = self.by_tld.get(&host.tld()) {
            if idxs.iter().any(|&i| self.rules[i].matches(host, url)) {
                return true;
            }
        }
        self.global.iter().any(|&i| self.rules[i].matches(host, url))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::new(s)
    }

    #[test]
    fn domain_anchor_matches_subdomains() {
        let r = FilterRule::DomainAnchor(d("tracker.com"));
        assert!(r.matches(&d("tracker.com"), "https://tracker.com/x"));
        assert!(r.matches(&d("px.tracker.com"), "https://px.tracker.com/x"));
        assert!(!r.matches(&d("nottracker.com"), "https://nottracker.com/x"));
        assert!(!r.matches(&d("tracker.com.evil.net"), "https://tracker.com.evil.net/x"));
    }

    #[test]
    fn domain_with_path() {
        let r = FilterRule::DomainWithPath {
            domain: d("cdn.com"),
            path_prefix: "/ads/".into(),
        };
        assert!(r.matches(&d("cdn.com"), "https://cdn.com/ads/banner.js"));
        assert!(!r.matches(&d("cdn.com"), "https://cdn.com/static/app.js"));
        assert!(r.matches(&d("a.cdn.com"), "http://a.cdn.com/ads/x?y=1"));
    }

    #[test]
    fn substring_rule() {
        let r = FilterRule::UrlSubstring("/usermatch".into());
        assert!(r.matches(&d("x.com"), "https://x.com/usermatch?p=1"));
        assert!(!r.matches(&d("x.com"), "https://x.com/collect?p=1"));
    }

    #[test]
    fn list_indexing_by_tld() {
        let mut list = FilterList::new("easylist");
        list.push(FilterRule::DomainAnchor(d("tracker.com")));
        list.push(FilterRule::DomainAnchor(d("ads.net")));
        list.push(FilterRule::UrlSubstring("cookiesync".into()));
        assert_eq!(list.len(), 3);
        assert!(list.matches(&d("px.tracker.com"), "https://px.tracker.com/t"));
        assert!(list.matches(&d("ads.net"), "https://ads.net/"));
        assert!(!list.matches(&d("clean.org"), "https://clean.org/app.js"));
        // Global substring applies to any host.
        assert!(list.matches(&d("clean.org"), "https://clean.org/cookiesync?x=1"));
    }

    #[test]
    fn empty_list_matches_nothing() {
        let list = FilterList::new("empty");
        assert!(list.is_empty());
        assert!(!list.matches(&d("a.com"), "https://a.com/"));
    }
}
