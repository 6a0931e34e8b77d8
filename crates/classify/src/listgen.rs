//! Generates the easylist/easyprivacy analogues for a synthetic world.
//!
//! Real filter lists are crowd-maintained: canonical ad and tracking
//! domains are well covered, cascade-only RTB endpoints much less so. The
//! web-graph generator decided per service whether the community "knows"
//! it (`in_blocklist`); this module renders those bits into actual rule
//! lists, split the way the real ones are: **easylist** carries
//! advertising rules, **easyprivacy** carries tracker/analytics rules.

use crate::rules::{FilterList, FilterRule};
use xborder_webgraph::{ServiceKind, WebGraph};

/// Builds `(easylist, easyprivacy)` from a web graph's blocklist bits.
pub fn generate_lists(graph: &WebGraph) -> (FilterList, FilterList) {
    let mut easylist = FilterList::new("easylist");
    let mut easyprivacy = FilterList::new("easyprivacy");
    for s in &graph.services {
        if !s.in_blocklist {
            continue;
        }
        let rule = FilterRule::DomainAnchor(s.tld.clone());
        match s.kind {
            // Advertising-delivery kinds -> easylist.
            ServiceKind::AdNetwork | ServiceKind::AdExchange | ServiceKind::Ssp
            | ServiceKind::Dsp | ServiceKind::AdCdn => easylist.push(rule),
            // Tracking/analytics kinds -> easyprivacy.
            ServiceKind::Analytics | ServiceKind::CookieSync | ServiceKind::SocialWidget => {
                easyprivacy.push(rule)
            }
            // Clean kinds are never listed (the generator should not have
            // set the bit; tolerate it without emitting a rule).
            ServiceKind::ChatWidget | ServiceKind::Comments | ServiceKind::Fonts
            | ServiceKind::Video => {}
        }
    }
    (easylist, easyprivacy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RuleEngine;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_webgraph::{generate, WebGraphConfig};

    fn graph() -> WebGraph {
        let mut rng = StdRng::seed_from_u64(21);
        generate(&WebGraphConfig::small(), &mut rng)
    }

    #[test]
    fn lists_are_nonempty_and_disjoint_by_role() {
        let g = graph();
        let (el, ep) = generate_lists(&g);
        assert!(!el.is_empty());
        assert!(!ep.is_empty());
    }

    #[test]
    fn listed_services_match_their_own_hosts() {
        let g = graph();
        let (el, ep) = generate_lists(&g);
        for s in &g.services {
            if !s.in_blocklist || !s.kind.is_tracking() {
                continue;
            }
            for h in &s.hosts {
                let url = format!("https://{h}/t?x=1");
                assert!(
                    el.matches(h, &url) || ep.matches(h, &url),
                    "listed service host {h} unmatched"
                );
            }
        }
    }

    #[test]
    fn unlisted_clean_services_never_match() {
        let g = graph();
        let (el, ep) = generate_lists(&g);
        for s in &g.services {
            if s.kind.is_tracking() {
                continue;
            }
            for h in &s.hosts {
                let url = format!("https://{h}/js/widget.js");
                assert!(!el.matches(h, &url), "clean host {h} in easylist");
                assert!(!ep.matches(h, &url), "clean host {h} in easyprivacy");
            }
        }
    }

    #[test]
    fn compiled_engine_agrees_with_lists_on_every_service_host() {
        // The compiled engine's verdict equals the union of the two
        // lists' on every host the generator can emit, listed or not.
        let g = graph();
        let (el, ep) = generate_lists(&g);
        let mut engine = RuleEngine::compile(&[&el, &ep]);
        for s in &g.services {
            for h in &s.hosts {
                for url in [format!("https://{h}/t?x=1"), format!("https://{h}/js/widget.js")] {
                    assert_eq!(
                        engine.matches(h, &url),
                        el.matches(h, &url) || ep.matches(h, &url),
                        "engine/list divergence on {h} {url}"
                    );
                }
            }
        }
    }

    #[test]
    fn coverage_is_partial() {
        // The whole point: some tracking services are NOT in the lists.
        let g = graph();
        let (el, ep) = generate_lists(&g);
        let unlisted_tracking = g
            .services
            .iter()
            .filter(|s| s.kind.is_tracking())
            .filter(|s| {
                let h = &s.hosts[0];
                let url = format!("https://{h}/t?x=1");
                !el.matches(h, &url) && !ep.matches(h, &url)
            })
            .count();
        assert!(unlisted_tracking > 0, "lists cover everything — gap model broken");
    }
}
