//! Request logs shared by the classifier tests.

use crate::rules::{FilterList, FilterRule};
use rand::{rngs::StdRng, SeedableRng};
use xborder_browser::{
    run_study_sharded, LoggedRequest, Referrer, RequestId, StudyConfig, UserId,
};
use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
use xborder_faults::{DegradationReport, FaultInjector};
use xborder_geo::{CountryCode, WORLD};
use xborder_netsim::time::SimTime;
use xborder_netsim::ServerId;
use xborder_webgraph::{generate, Domain, DomainTable, PublisherId, WebGraph, WebGraphConfig};

/// The small study's log over a generated web graph, every host served
/// from one pinned German server.
pub(crate) fn dataset(seed: u64) -> (WebGraph, Vec<LoggedRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generate(&WebGraphConfig::small(), &mut rng);
    let mut dns = DnsSim::new();
    let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
    let mut next = 0u32;
    for s in &graph.services {
        for h in &s.hosts {
            next += 1;
            dns.add_zone(ZoneEntry {
                host: h.clone(),
                servers: vec![ZoneServer {
                    server: ServerId(next),
                    ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0300_0000u32 + next)),
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
    let inj = FaultInjector::inactive();
    let mut report = DegradationReport::default();
    let ds = run_study_sharded(&StudyConfig::small(), &graph, &mut dns, &mut rng, &inj, &mut report, 1);
    (graph, ds.requests)
}

/// User-boundary chunk splits (referrer chains never cross users, so any
/// split at a user boundary is a legal chunking).
pub(crate) fn user_chunks(
    requests: &[LoggedRequest],
    users_per_chunk: usize,
) -> Vec<&[LoggedRequest]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < requests.len() {
        let first_user = requests[start].user.0 as usize;
        let mut end = start;
        while end < requests.len() && (requests[end].user.0 as usize) < first_user + users_per_chunk
        {
            end += 1;
        }
        chunks.push(&requests[start..end]);
        start = end;
    }
    chunks
}

/// Rebase chunk-global referrers to chunk-local positions, as the
/// streaming study emits them.
pub(crate) fn rebased(chunk: &[LoggedRequest], offset: usize) -> Vec<LoggedRequest> {
    chunk
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if let Referrer::Request(p) = r.referrer {
                r.referrer = Referrer::Request(RequestId(p.0 - offset as u32));
            }
            r
        })
        .collect()
}

/// Hand-built request `i` of user 0 on host `h{i}.example.com`, with a
/// clean (keyword-free) URL carrying args, interning its hosts into the
/// test's own `DomainTable`.
pub(crate) fn chain_request(
    i: usize,
    referrer: Referrer,
    domains: &mut DomainTable,
) -> LoggedRequest {
    let host = Domain::new(format!("h{i}.example.com"));
    LoggedRequest {
        user: UserId(0),
        time: SimTime(i as u64),
        first_party: domains.intern(&Domain::new("pub.example.org")),
        publisher: PublisherId(0),
        url: format!("https://{host}/p?x={i}").into_boxed_str(),
        host: domains.intern(&host),
        referrer,
        ip: "10.0.0.1".parse().unwrap(),
    }
}

/// A `len`-link referrer chain stored in *reverse* order (each request's
/// parent sits at a higher index, so every edge points forward), rooted in
/// one blocklisted request, with the lists that block the root.
pub(crate) fn reversed_chain(
    len: usize,
) -> (DomainTable, Vec<LoggedRequest>, FilterList, FilterList) {
    let mut domains = DomainTable::new();
    let mut requests: Vec<LoggedRequest> = (0..len - 1)
        .map(|i| chain_request(i, Referrer::Request(RequestId(i as u32 + 1)), &mut domains))
        .collect();
    requests.push(chain_request(len - 1, Referrer::FirstParty, &mut domains)); // root
    let mut el = FilterList::new("easylist");
    el.push(FilterRule::DomainAnchor(Domain::new(format!(
        "h{}.example.com",
        len - 1
    ))));
    (domains, requests, el, FilterList::new("easyprivacy"))
}

/// The same chain in log order (every referrer points backwards), rooted
/// in a blocklisted request 0.
pub(crate) fn backward_chain(
    len: usize,
) -> (DomainTable, Vec<LoggedRequest>, FilterList, FilterList) {
    let mut domains = DomainTable::new();
    let mut requests = vec![chain_request(0, Referrer::FirstParty, &mut domains)];
    requests.extend(
        (1..len)
            .map(|i| chain_request(i, Referrer::Request(RequestId(i as u32 - 1)), &mut domains)),
    );
    let mut el = FilterList::new("easylist");
    el.push(FilterRule::DomainAnchor(Domain::new("h0.example.com")));
    (domains, requests, el, FilterList::new("easyprivacy"))
}
