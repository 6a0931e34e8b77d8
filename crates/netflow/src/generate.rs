//! Per-snapshot ISP traffic generation.
//!
//! The real ISPs exported 24 hours of sampled NetFlow; we generate the
//! *sampled* flows directly, as columnar [`FlowBlock`]s. Each sampled page
//! view is rendered through the same web-graph/DNS machinery as the
//! extension study (one stub cache over the shared zone view) — so the
//! resolver-mix differences between ISPs (mobile = carrier DNS, broadband =
//! plenty of public DNS) produce the confinement differences of Table 8
//! mechanically. Non-web background flows are mixed in so the tracker
//! matcher has something to reject.

use crate::block::FlowBlock;
use crate::isp::{AccessKind, IspProfile};
use crate::record::{proto, FlowRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::{IpAddr, Ipv4Addr};
use xborder_browser::{LoggedRequest, RenderConfig, RenderEngine, User, UserId, VisitSampler};
use xborder_dns::{DnsCache, IndexedZoneView, PdnsIdObservation, ResolverKind};
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_geo::WORLD;
use xborder_netsim::time::{SimTime, SECS_PER_DAY};
use xborder_webgraph::WebGraph;

/// Configuration of one snapshot-day generation run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SnapshotConfig {
    /// Midnight of the snapshot day.
    pub day_start: SimTime,
    /// Number of *sampled* page views to simulate. Scales linearly with
    /// the paper's flow counts; the repro harness documents its scale
    /// factor in EXPERIMENTS.md.
    pub n_page_views: usize,
    /// Background (non-web-tracking) flows emitted per page view.
    pub background_per_view: f64,
    /// Render model (same as the extension study's).
    pub render: RenderConfig,
    /// Share of subscriber visits going to home-country national sites
    /// (same semantics as `StudyConfig::home_visit_share`).
    pub home_visit_share: f64,
    /// Foreign national-site damping.
    pub foreign_site_damping: f64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            day_start: SimTime::EPOCH,
            n_page_views: 10_000,
            background_per_view: 3.0,
            render: RenderConfig::default(),
            home_visit_share: 0.42,
            foreign_site_damping: 0.02,
        }
    }
}

fn subscriber_ip<R: Rng + ?Sized>(rng: &mut R) -> Ipv4Addr {
    // Subscribers live in 10/8, which the server allocator never assigns.
    Ipv4Addr::new(10, rng.gen(), rng.gen(), rng.gen::<u8>().max(1))
}

fn flow_from_request<R: Rng + ?Sized>(
    req: &LoggedRequest,
    sub_ip: Ipv4Addr,
    rng: &mut R,
) -> Option<FlowRecord> {
    // NetFlow v5 carries IPv4 only; the few v6 tracker flows are dropped
    // here (the paper's v6 share was <3 % of IPs).
    let IpAddr::V4(dst) = req.ip else {
        return None;
    };
    let https = req.is_https();
    let dst_port = if https { 443 } else { 80 };
    // QUIC adoption puts a chunk of 443 on UDP (paper cites its rise).
    let protocol = if https && rng.gen::<f64>() < 0.25 {
        proto::UDP
    } else {
        proto::TCP
    };
    let packets = 4 + rng.gen_range(0..40);
    Some(FlowRecord {
        src: sub_ip,
        dst,
        src_port: rng.gen_range(32768..60999),
        dst_port,
        protocol,
        tos: 0,
        packets,
        bytes: packets * rng.gen_range(60..1400),
        start: req.time,
        end: SimTime(req.time.0 + rng.gen_range(1..30)),
        input_if: 1,
        output_if: 2,
    })
}

fn background_flow<R: Rng + ?Sized>(t: SimTime, sub_ip: Ipv4Addr, rng: &mut R) -> FlowRecord {
    // Non-tracking traffic: gaming, mail, DNS, P2P... destinations in
    // 198.18/15 (benchmark range, never allocated to simulator servers).
    let dst = Ipv4Addr::new(198, 18 + rng.gen_range(0..2), rng.gen(), rng.gen());
    let dst_port = *[25u16, 53, 123, 993, 8080, 6881, 3478]
        .get(rng.gen_range(0..7))
        .expect("static list");
    let packets = 1 + rng.gen_range(0..20);
    FlowRecord {
        src: sub_ip,
        dst,
        src_port: rng.gen_range(32768..60999),
        dst_port,
        protocol: if rng.gen::<f64>() < 0.5 { proto::TCP } else { proto::UDP },
        tos: 0,
        packets,
        bytes: packets * rng.gen_range(60..1400),
        start: t,
        end: SimTime(t.0 + rng.gen_range(1..60)),
        input_if: 1,
        output_if: 2,
    }
}

/// Tallies of one block-mode snapshot generation (the flows themselves
/// stream through the `on_block` callback and are never held whole).
#[derive(Debug, Default)]
pub struct SnapshotBlocksOutput {
    /// Total sampled flows emitted (web + background).
    pub n_flows: u64,
    /// Flows that came from rendered third-party requests.
    pub n_web_flows: u64,
    /// pDNS observations the per-view stub caches buffered, in view
    /// order, for deterministic central replay
    /// ([`xborder_dns::DnsSim::absorb_id_observations`]).
    pub id_observations: Vec<PdnsIdObservation>,
}

/// Generates one sampled 24-hour snapshot for an ISP: the Sect. 7
/// generator, built for scale and sharding (DESIGN.md §5i):
///
/// * Flows are emitted as columnar [`FlowBlock`]s through `on_block` —
///   resident memory is one block, not the day's `Vec<FlowRecord>`.
/// * DNS runs read-only: renders resolve against the shared
///   [`IndexedZoneView`] through the cell's one [`DnsCache`], reset per
///   view (each sampled view is an ephemeral subscriber with an empty
///   stub cache, the paper's per-client caching), and the observations a
///   production resolver's sensor would have recorded are buffered for
///   replay in canonical order after the sharded join.
/// * All randomness comes from `cell_seed`: one sequential generation
///   stream per (ISP, day) cell, plus hash-derived per-view lookup
///   streams inside the caches. Nothing depends on `block_len` except
///   where block boundaries fall, so any block size yields the identical
///   record stream — and any thread that owns the whole cell reproduces
///   it bit for bit.
pub fn generate_snapshot_blocks(
    profile: &IspProfile,
    cfg: &SnapshotConfig,
    graph: &WebGraph,
    view: &IndexedZoneView<'_>,
    cell_seed: u64,
    block_len: usize,
    mut on_block: impl FnMut(&FlowBlock),
) -> SnapshotBlocksOutput {
    let engine = RenderEngine::new(graph, cfg.render);
    let mut sampler = VisitSampler::new();
    let country = WORLD.country_or_panic(profile.country);
    let inj = FaultInjector::inactive();
    let mut scratch_report = DegradationReport::default();

    let cap = block_len.max(1);
    let mut out = SnapshotBlocksOutput::default();
    let mut scratch: Vec<LoggedRequest> = Vec::new();
    let mut block = FlowBlock::with_capacity(cap);
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let mut cache = DnsCache::new();

    for view_idx in 0..cfg.n_page_views {
        // Ephemeral subscriber for this sampled view. Mobile devices use
        // the carrier resolver; broadband users use public DNS at the
        // ISP's measured share.
        let on_mobile = match profile.access {
            AccessKind::Broadband => false,
            AccessKind::Mobile => true,
            AccessKind::Mixed { mobile_share } => rng.gen::<f64>() < mobile_share,
        };
        let resolver_kind = if on_mobile || rng.gen::<f64>() >= profile.public_dns_share {
            ResolverKind::IspLocal
        } else {
            ResolverKind::PublicAnycast
        };
        let user = User {
            id: UserId(0),
            country: profile.country,
            location: country.centroid().jitter(country.radius_km * 0.8, &mut rng),
            resolver_kind,
            activity: 1.0,
            interaction_p: 0.7,
        };
        let t = SimTime(cfg.day_start.0 + rng.gen_range(0..SECS_PER_DAY));
        let pid = sampler.sample(
            profile.country,
            graph,
            cfg.home_visit_share,
            cfg.foreign_site_damping,
            &mut rng,
        );
        let publisher = graph.publisher(pid);
        let sub_ip = subscriber_ip(&mut rng);

        // An empty stub cache per ephemeral subscriber; its lookup streams
        // hash-derive from (cell_seed, view index), never from `rng`.
        cache.reset_for_user(cell_seed, view_idx as u64);
        scratch.clear();
        engine.render_visit_cached(
            &user,
            publisher,
            t,
            view,
            &mut cache,
            &mut scratch,
            &mut rng,
            &inj,
            &mut scratch_report,
        );
        for req in &scratch {
            if let Some(flow) = flow_from_request(req, sub_ip, &mut rng) {
                out.n_web_flows += 1;
                out.n_flows += 1;
                block.push_record(&flow);
                if block.len() >= cap {
                    on_block(&block);
                    block.clear();
                }
            }
        }
        out.id_observations.extend(cache.drain_id_observations());

        let n_bg = cfg.background_per_view.floor() as usize
            + usize::from(rng.gen::<f64>() < cfg.background_per_view.fract());
        for _ in 0..n_bg {
            let flow = background_flow(t, sub_ip, &mut rng);
            out.n_flows += 1;
            block.push_record(&flow);
            if block.len() >= cap {
                on_block(&block);
                block.clear();
            }
        }
    }
    if !block.is_empty() {
        on_block(&block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_geo::CountryCode;
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, WebGraphConfig};

    fn wire_all(graph: &WebGraph, dns: &mut DnsSim) {
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: IpAddr::V4(Ipv4Addr::from(0x0400_0000u32 + next)),
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

    /// Materializes one block-mode run into a single concatenated block.
    fn blocks_for(name: &str, seed: u64, block_len: usize) -> (FlowBlock, SnapshotBlocksOutput) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        wire_all(&graph, &mut dns);
        let view = dns.indexed_view(graph.domains());
        let profile = IspProfile::by_name(name).unwrap();
        let cfg = SnapshotConfig {
            n_page_views: 200,
            ..Default::default()
        };
        let mut all = FlowBlock::default();
        let out = generate_snapshot_blocks(&profile, &cfg, &graph, &view, seed, block_len, |b| {
            for i in 0..b.len() {
                all.push(b.remote[i], b.remote_port[i], b.proto[i], SimTime(b.start[i] as u64));
            }
        });
        (all, out)
    }

    #[test]
    fn snapshot_has_web_and_background() {
        let (all, out) = blocks_for("DE-Broadband", 1, 256);
        assert!(out.n_web_flows > 500, "web flows {}", out.n_web_flows);
        assert!(all.len() as u64 > out.n_web_flows, "no background flows");
    }

    #[test]
    fn web_flows_use_web_ports() {
        let (all, out) = blocks_for("PL", 2, 256);
        let web_port = |p: &u16| matches!(p, 80 | 443);
        let web_port_flows = all.remote_port.iter().filter(|p| web_port(p)).count();
        // All rendered flows hit 80/443; background almost never does.
        assert!(web_port_flows as u64 >= out.n_web_flows);
        let https = all.remote_port.iter().filter(|&&p| p == 443).count();
        let https_share = https as f64 / web_port_flows as f64;
        assert!((0.7..0.95).contains(&https_share), "https share {https_share}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, out_a) = blocks_for("DE-Mobile", 4, 256);
        let (b, out_b) = blocks_for("DE-Mobile", 4, 256);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(out_a.id_observations, out_b.id_observations);
    }

    #[test]
    fn flows_fall_on_the_snapshot_day() {
        let (all, _) = blocks_for("DE-Broadband", 5, 256);
        for &t in &all.start {
            assert!((t as u64) < SECS_PER_DAY + 60);
        }
    }

    #[test]
    fn block_mode_emits_web_and_background() {
        let (all, out) = blocks_for("DE-Broadband", 11, 256);
        assert_eq!(all.len() as u64, out.n_flows);
        assert!(out.n_web_flows > 300, "web flows {}", out.n_web_flows);
        assert!(out.n_flows > out.n_web_flows, "no background flows");
        assert!(!out.id_observations.is_empty(), "no pDNS observations buffered");
        // Every flow falls on the snapshot day.
        for &t in &all.start {
            assert!((t as u64) < SECS_PER_DAY + 60);
        }
    }

    #[test]
    fn block_size_is_a_pure_perf_knob() {
        // The concatenated record stream (and every tally) must be
        // bit-identical whatever the block size.
        let (a, out_a) = blocks_for("PL", 12, 64);
        let (b, out_b) = blocks_for("PL", 12, 997);
        let (c, out_c) = blocks_for("PL", 12, 1 << 20);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(out_a.n_flows, out_b.n_flows);
        assert_eq!(out_a.n_web_flows, out_c.n_web_flows);
        assert_eq!(out_a.id_observations, out_b.id_observations);
        assert_eq!(out_a.id_observations, out_c.id_observations);
    }
}
