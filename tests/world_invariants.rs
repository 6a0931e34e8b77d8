//! Invariants of generated worlds: property-style across many seeds, plus
//! the reference world's id-indexed DNS view.

use proptest::prelude::*;
use xborder::{World, WorldConfig};
use xborder_faults::stable_hash;
use xborder_geo::WORLD;
use xborder_webgraph::HostingPolicy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn worlds_are_structurally_sound(seed in 0u64..1000) {
        let mut cfg = WorldConfig::small(seed);
        // Shrink further: proptest runs several cases.
        cfg.web.n_publishers = 80;
        cfg.web.n_adtech_orgs = 25;
        cfg.web.n_clean_orgs = 15;
        let world = World::build(cfg);

        // Graph invariants.
        prop_assert!(world.graph.validate().is_ok());

        // Every server IP resolves back to itself through the registry.
        for server in world.infra.servers() {
            let found = world.infra.server_by_ip(server.ip).expect("ip indexed");
            prop_assert_eq!(found.id, server.id);
            // Its PoP exists and is in a real country.
            let pop = world.infra.pop(server.pop).expect("pop exists");
            prop_assert!(WORLD.contains(pop.country));
        }

        // Every zone answers only with servers of the owning service's org
        // (shared ad-exchange points are the sanctioned exception).
        for svc in &world.graph.services {
            let org_name = &world.graph.org(svc.org).name;
            for host in &svc.hosts {
                let zone = world.dns.zone(host).expect("host zoned");
                prop_assert!(!zone.servers.is_empty());
                for zs in &zone.servers {
                    let server = world.infra.server_by_ip(zs.ip).expect("zone ip known");
                    if server.role == xborder_netsim::ServerRole::AdExchange {
                        continue;
                    }
                    let owner = &world.infra.org(server.org).unwrap().name;
                    prop_assert_eq!(owner, org_name);
                }
            }
        }

        // Home-only orgs never deploy abroad.
        for (i, o) in world.graph.orgs.iter().enumerate() {
            if o.hosting == HostingPolicy::HomeOnly {
                for sid in world.infra.servers_of_org(world.org_map[i]) {
                    let s = world.infra.server(*sid).unwrap();
                    let pop = world.infra.pop(s.pop).unwrap();
                    prop_assert_eq!(pop.country, o.legal_seat);
                }
            }
        }
    }

    #[test]
    fn secondary_fqdn_footprints_are_subsets(seed in 0u64..1000) {
        let mut cfg = WorldConfig::small(seed);
        cfg.web.n_publishers = 60;
        cfg.web.n_adtech_orgs = 20;
        cfg.web.n_clean_orgs = 10;
        let world = World::build(cfg);
        for svc in &world.graph.services {
            let primary = world.dns.zone(&svc.hosts[0]).expect("primary zoned");
            let primary_countries = primary.countries();
            for host in svc.hosts.iter().skip(1) {
                let zone = world.dns.zone(host).expect("secondary zoned");
                for c in zone.countries() {
                    prop_assert!(
                        primary_countries.contains(&c),
                        "secondary host {} reaches {} outside primary footprint",
                        host, c
                    );
                }
            }
        }
    }
}

#[test]
fn indexed_zone_view_matches_the_zone_table() {
    // The study resolves through the id-indexed view only, so on the
    // reference world every interned domain's slot must be exactly the
    // string-keyed table's zone (or none) and its precomputed hash the
    // `stable_hash` of the domain's bytes, which every fault coin and
    // miss-RNG seed keys on.
    let world = World::build(WorldConfig::small(11));
    let domains = world.graph.domains();
    let view = world.dns.indexed_view(domains);
    let mut zoned = 0usize;
    for (id, domain) in domains.iter() {
        match (view.zone_by_id(id), world.dns.zone(domain)) {
            (Some(a), Some(b)) => {
                assert!(std::ptr::eq(a, b), "{domain}: a different zone");
                zoned += 1;
            }
            (None, None) => {}
            (a, b) => panic!("{domain}: view {:?} vs table {:?}", a.is_some(), b.is_some()),
        }
        assert_eq!(view.host_hash(id), stable_hash(domain.as_str().as_bytes()), "{domain}");
    }
    assert_eq!(zoned, world.dns.n_zones(), "every zone is reachable by id");
}
