//! The page-render model: embeds fire, cascades run, requests get logged.

use crate::request::{LoggedRequest, Referrer, RequestId};
use crate::user::{User, UserId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use xborder_dns::{DnsCache, IndexedZoneView};
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_netsim::time::SimTime;
use xborder_webgraph::{url, EmbedMode, Publisher, ServiceId, ServiceKind, WebGraph};

/// Tunables of the render model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RenderConfig {
    /// Mean number of *additional* requests a fired embed issues beyond its
    /// first (script fetch + beacons + refreshes).
    pub extra_requests_mean: f64,
    /// Share of requests expected over HTTPS (paper: 83.14 %).
    pub https_share: f64,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            extra_requests_mean: 1.6,
            https_share: 0.8314,
        }
    }
}

/// Renders visits against a web graph, resolving hosts through a stub
/// cache over the shared zone view and appending [`LoggedRequest`]s to
/// the dataset under construction.
#[derive(Debug)]
pub struct RenderEngine<'a> {
    graph: &'a WebGraph,
    cfg: RenderConfig,
    /// Reused URL scratch buffer: the hot path renders each URL here and
    /// pays exactly one allocation per logged request (the `Box<str>`).
    /// `RefCell` keeps `issue_request` callable through `&self`; engines
    /// are per-shard (never shared across threads), so the non-`Sync`
    /// cell is fine.
    scratch: RefCell<String>,
    /// One-slot memo of the current user's [`ClientCtx`]: resolving the
    /// public-anycast egress PoP is a 14-country haversine scan, and the
    /// context is a pure function of the user — computing it per request
    /// dominated the study hot path. `None` in the slot records a failed
    /// lookup (corrupted user record), matching the per-request error
    /// behavior of `try_client_ctx` (the request is suppressed; RNG draws
    /// before the DNS stage still happen, so streams are unchanged).
    ctx_memo: RefCell<Option<(UserId, Option<xborder_dns::ClientCtx>)>>,
    /// Reused RTB-cascade scratch (`fired` step table), cleared per
    /// cascade instead of allocated per ad-network embed.
    cascade_scratch: RefCell<Vec<Option<RequestId>>>,
}

impl<'a> RenderEngine<'a> {
    /// Creates an engine over a web graph.
    pub fn new(graph: &'a WebGraph, cfg: RenderConfig) -> Self {
        RenderEngine {
            graph,
            cfg,
            scratch: RefCell::new(String::with_capacity(128)),
            ctx_memo: RefCell::new(None),
            cascade_scratch: RefCell::new(Vec::new()),
        }
    }

    /// The memoized client context for `user` (see `ctx_memo`). Shards
    /// walk users sequentially, so one slot keyed by [`UserId`] already
    /// hits on every request after a user's first.
    fn client_ctx_memo(&self, user: &User) -> Option<xborder_dns::ClientCtx> {
        let mut memo = self.ctx_memo.borrow_mut();
        match *memo {
            Some((id, ctx)) if id == user.id => ctx,
            _ => {
                let ctx = user.try_client_ctx().ok();
                *memo = Some((user.id, ctx));
                ctx
            }
        }
    }

    /// The underlying web graph.
    pub fn graph(&self) -> &WebGraph {
        self.graph
    }

    /// Issues one request to `service` and logs it. Returns the new
    /// request's id, or `None` if DNS could not resolve the chosen host
    /// (unwired worlds in tests, or a resolver that timed out past its
    /// retry budget under fault injection).
    ///
    /// `style_override` lets the caller force the URL shape: the first
    /// request of an embed is the tag/script fetch (plain), follow-ups are
    /// beacons in the service's own style.
    #[allow(clippy::too_many_arguments)]
    fn issue_request<R: Rng + ?Sized>(
        &self,
        out: &mut Vec<LoggedRequest>,
        user: &User,
        publisher: &Publisher,
        service: ServiceId,
        referrer: Referrer,
        style_override: Option<xborder_webgraph::url::UrlStyle>,
        t: SimTime,
        view: &IndexedZoneView<'_>,
        cache: &mut DnsCache,
        rng: &mut R,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> Option<RequestId> {
        let svc = self.graph.service(service);
        // Same RNG draw as the pre-interning host pick over `svc.hosts`;
        // the id table is parallel to it (validated by the graph).
        let host_idx = rng.gen_range(0..svc.hosts.len());
        let host_id = self.graph.service_host_id(service, host_idx);
        let host = self.graph.domains().domain(host_id);
        let ctx = self.client_ctx_memo(user)?;
        let (answer, t_eff) = cache.resolve_shared_id(view, host_id, &ctx, t, inj, report).ok()?;
        // Stable per-(user, service) identity: the tracker's cookie id.
        let identity = (user.id.0 as u64) << 32 | service.0 as u64;
        let style = style_override.unwrap_or(svc.url_style);
        let enc = url::EncodedUrl::synth(rng, style, self.cfg.https_share, identity);
        // Deferred materialization: render into the reused scratch buffer
        // (byte-identical to the eager `Url` Display) and pay a single
        // allocation for the log's own `Box<str>`.
        let url = {
            let mut buf = self.scratch.borrow_mut();
            buf.clear();
            enc.write_into(host.as_str(), &mut buf);
            Box::<str>::from(buf.as_str())
        };
        let id = RequestId(out.len() as u32);
        out.push(LoggedRequest {
            user: user.id,
            time: t_eff,
            first_party: self.graph.publisher_domain_id(publisher.id),
            publisher: publisher.id,
            url,
            host: host_id,
            referrer,
            ip: answer.ip,
        });
        Some(id)
    }

    /// Additional requests a fired embed issues beyond its first.
    fn extra_requests<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mean = self.cfg.extra_requests_mean;
        if mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (mean + 1.0);
        let cap = (mean * 6.0).ceil() as usize;
        let mut n = 0usize;
        while n < cap && rng.gen::<f64>() > p {
            n += 1;
        }
        n
    }

    /// Renders one visit of `user` to `publisher` at time `t`, appending
    /// all generated requests to `out`. Returns how many were appended.
    ///
    /// Hosts resolve through the user's own stub cache against a shared
    /// dense id-indexed zone view. DNS never draws from the visit RNG
    /// (cache misses use hash-derived per-lookup streams), which is what
    /// makes per-user renders independent and the study shardable
    /// (DESIGN.md §5d); host lookups and cache slots are all
    /// `DomainId`-indexed, so no strings are hashed or cloned (DESIGN.md
    /// §5f). Resolver timeouts under fault injection (sim-clock backoff,
    /// bounded retry) can delay a request or suppress it; with an inactive
    /// injector the render is fault-free.
    #[allow(clippy::too_many_arguments)]
    pub fn render_visit_cached<R: Rng + ?Sized>(
        &self,
        user: &User,
        publisher: &Publisher,
        t: SimTime,
        view: &IndexedZoneView<'_>,
        cache: &mut DnsCache,
        out: &mut Vec<LoggedRequest>,
        rng: &mut R,
        inj: &FaultInjector,
        report: &mut DegradationReport,
    ) -> usize {
        let before = out.len();
        for embed in &publisher.embeds {
            // Does the embed fire on this page view?
            let gate = match embed.mode {
                EmbedMode::OnInteraction => embed.probability * user.interaction_p,
                _ => embed.probability,
            };
            if rng.gen::<f64>() >= gate {
                continue;
            }
            // First request of the embed always has the first-party page as
            // its referrer (the snippet/iframe src is on the page).
            let Some(first_id) = self.issue_request(
                out,
                user,
                publisher,
                embed.service,
                Referrer::FirstParty,
                Some(xborder_webgraph::url::UrlStyle::Plain),
                t,
                view,
                cache,
                rng,
                inj,
                report,
            ) else {
                continue;
            };
            // Follow-up requests: first-party-context embeds keep the page
            // as referrer; third-party-context (iframe) requests refer to
            // the iframe's own first request.
            let followup_ref = match embed.mode {
                EmbedMode::FirstPartyContext | EmbedMode::OnInteraction => Referrer::FirstParty,
                EmbedMode::ThirdPartyContext => Referrer::Request(first_id),
            };
            for _ in 0..self.extra_requests(rng) {
                self.issue_request(
                    out, user, publisher, embed.service, followup_ref, None, t, view, cache, rng,
                    inj, report,
                );
            }
            // RTB cascade: only ad networks fan out further.
            let svc = self.graph.service(embed.service);
            if svc.kind == ServiceKind::AdNetwork {
                if let Some(template) = self.graph.cascades.get(&embed.service) {
                    // Track which steps fired and the request id of each, so
                    // children can refer to their parent's URL (reused
                    // scratch — cascades never nest).
                    let mut fired = self.cascade_scratch.borrow_mut();
                    fired.clear();
                    fired.resize(template.steps.len(), None);
                    for (i, step) in template.steps.iter().enumerate() {
                        let parent_req = match step.parent {
                            Some(p) => {
                                let Some(id) = fired[p as usize] else {
                                    continue; // parent never fired
                                };
                                Referrer::Request(id)
                            }
                            None => Referrer::Request(first_id),
                        };
                        if rng.gen::<f64>() >= step.probability {
                            continue;
                        }
                        fired[i] = self.issue_request(
                            out, user, publisher, step.service, parent_req, None, t, view, cache,
                            rng, inj, report,
                        );
                    }
                }
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{UserPopulation, UserPopulationConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_geo::{CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, WebGraphConfig};

    /// Wires every host in the graph to a single-server zone in a fixed
    /// country (enough for render-path tests).
    fn wire_all(graph: &WebGraph, dns: &mut DnsSim) {
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                let ip = std::net::Ipv4Addr::from(0x0100_0000u32 + next);
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: std::net::IpAddr::V4(ip),
                        country: de.code,
                        location: de.centroid(),
                        valid: None,
                    }],
                    policy: MappingPolicy::Pinned,
                    ttl_secs: 300,
                })
                .unwrap();
            }
        }
    }

    fn setup() -> (WebGraph, DnsSim, UserPopulation) {
        let mut rng = StdRng::seed_from_u64(1);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        wire_all(&graph, &mut dns);
        let pop = UserPopulation::generate(&UserPopulationConfig::small(), &mut rng);
        (graph, dns, pop)
    }

    /// Renders one fault-free visit of `user` to each of `publishers` at
    /// time `t` through one stub cache and one visit RNG; returns the log
    /// and the summed per-visit counts.
    fn render<'p>(
        graph: &WebGraph,
        dns: &DnsSim,
        user: &User,
        publishers: impl IntoIterator<Item = &'p Publisher>,
        t: SimTime,
        seed: u64,
    ) -> (Vec<LoggedRequest>, usize) {
        let engine = RenderEngine::new(graph, RenderConfig::default());
        let view = dns.indexed_view(graph.domains());
        let mut cache = DnsCache::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let inj = FaultInjector::inactive();
        let mut report = DegradationReport::default();
        let mut out = Vec::new();
        let total = publishers
            .into_iter()
            .map(|p| {
                engine.render_visit_cached(
                    user, p, t, &view, &mut cache, &mut out, &mut rng, &inj, &mut report,
                )
            })
            .sum();
        (out, total)
    }

    #[test]
    fn render_produces_requests() {
        let (graph, dns, pop) = setup();
        let publishers = graph.publishers.iter().take(30);
        let (out, total) = render(&graph, &dns, &pop.users[0], publishers, SimTime(100), 2);
        assert_eq!(total, out.len());
        assert!(total > 100, "only {total} requests from 30 visits");
    }

    #[test]
    fn cascade_requests_have_request_referrers() {
        let (graph, dns, pop) = setup();
        let (out, _) = render(&graph, &dns, &pop.users[1], &graph.publishers, SimTime(100), 3);
        let cascade_reqs = out
            .iter()
            .filter(|r| matches!(r.referrer, Referrer::Request(_)))
            .count();
        assert!(cascade_reqs > 20, "only {cascade_reqs} cascade requests");
        // Referrer indices always point backwards.
        for (i, r) in out.iter().enumerate() {
            if let Referrer::Request(RequestId(p)) = r.referrer {
                assert!((p as usize) < i, "forward referrer at {i}");
            }
        }
    }

    #[test]
    fn interaction_gates_lazy_embeds() {
        let (graph, dns, pop) = setup();

        let mut eager = pop.users[0].clone();
        eager.interaction_p = 1.0;
        let mut passive = pop.users[0].clone();
        passive.interaction_p = 0.0;

        let count_for = |user: &User, seed: u64| {
            render(&graph, &dns, user, &graph.publishers, SimTime(100), seed).1
        };
        // Average over a few seeds to avoid flakiness.
        let eager_total: usize = (0..3).map(|s| count_for(&eager, 100 + s)).sum();
        let passive_total: usize = (0..3).map(|s| count_for(&passive, 200 + s)).sum();
        assert!(
            eager_total > passive_total,
            "eager {eager_total} <= passive {passive_total}"
        );
    }

    #[test]
    fn requests_resolve_to_wired_ips() {
        let (graph, dns, pop) = setup();
        let publishers = graph.publishers.iter().take(10);
        let (out, _) = render(&graph, &dns, &pop.users[2], publishers, SimTime(100), 4);
        for r in &out {
            assert!(xborder_netsim::ip::is_simulator_address(r.ip));
            // Host must belong to a known service.
            assert!(
                graph.service_by_host_id(r.host).is_some(),
                "orphan host {}",
                graph.domains().domain(r.host)
            );
        }
    }

    #[test]
    fn unwired_dns_yields_no_requests() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let dns = DnsSim::new(); // nothing wired
        let pop = UserPopulation::generate(&UserPopulationConfig::small(), &mut rng);
        let (out, n) = render(&graph, &dns, &pop.users[0], &graph.publishers[..1], SimTime(0), 6);
        assert_eq!(n, 0);
        assert!(out.is_empty());
    }
}
