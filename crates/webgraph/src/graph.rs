//! The assembled web graph: publishers, services, orgs, cascades.

use crate::cascade::CascadeTemplate;
use crate::domain::Domain;
use crate::intern::{DomainId, DomainTable};
use crate::publisher::{Publisher, PublisherId};
use crate::service::{ServiceId, ServiceOrg, ServiceOrgId, ThirdPartyService};
use std::collections::HashMap;

/// The static content of a synthetic web: everything `xborder-browser`
/// needs to simulate sessions and everything `xborder-core` needs to build
/// infrastructure and DNS zones.
#[derive(Debug, Default)]
pub struct WebGraph {
    /// Publisher sites, indexed by [`PublisherId`].
    pub publishers: Vec<Publisher>,
    /// Third-party services, indexed by [`ServiceId`].
    pub services: Vec<ThirdPartyService>,
    /// Service organizations, indexed by [`ServiceOrgId`].
    pub orgs: Vec<ServiceOrg>,
    /// RTB cascade template per *ad network* service.
    pub cascades: HashMap<ServiceId, CascadeTemplate>,
    /// Relative market share of each org in embed selection (same index as
    /// `orgs`); majors are head-heavy.
    pub org_weight: Vec<f64>,
    // Derived state rebuilt by `reindex()`. The interner assigns ids in a
    // deterministic order (publisher domains by publisher id, then service
    // hosts by service id), so `DomainId`s are a pure function of the world.
    domains: DomainTable,
    /// `DomainId → ServiceId` (dense; `None` for publisher-only domains).
    host_service: Vec<Option<ServiceId>>,
    /// `PublisherId → DomainId` of the publisher's own domain.
    publisher_domain_ids: Vec<DomainId>,
    /// `ServiceId → DomainId`s of its hosts, parallel to `service.hosts`.
    service_host_ids: Vec<Vec<DomainId>>,
}

impl WebGraph {
    /// Looks up a publisher.
    pub fn publisher(&self, id: PublisherId) -> &Publisher {
        &self.publishers[id.0 as usize]
    }

    /// Looks up a service.
    pub fn service(&self, id: ServiceId) -> &ThirdPartyService {
        &self.services[id.0 as usize]
    }

    /// Looks up a service org.
    pub fn org(&self, id: ServiceOrgId) -> &ServiceOrg {
        &self.orgs[id.0 as usize]
    }

    /// The org operating a service.
    pub fn org_of(&self, id: ServiceId) -> &ServiceOrg {
        self.org(self.service(id).org)
    }

    /// Resolves a request host (FQDN) to the service it belongs to.
    pub fn service_by_host(&self, host: &Domain) -> Option<ServiceId> {
        self.domains.get(host).and_then(|id| self.service_by_host_id(id))
    }

    /// Resolves an interned host id to the service it belongs to. Ids not
    /// in the table (or publisher-only domains) resolve to `None`.
    pub fn service_by_host_id(&self, id: DomainId) -> Option<ServiceId> {
        self.host_service.get(id.0 as usize).copied().flatten()
    }

    /// The worldgen-time domain interner (DESIGN.md §5f). Read-only after
    /// [`reindex`](WebGraph::reindex); ids are stable per world.
    pub fn domains(&self) -> &DomainTable {
        &self.domains
    }

    /// Interned id of a publisher's own domain.
    pub fn publisher_domain_id(&self, id: PublisherId) -> DomainId {
        self.publisher_domain_ids[id.0 as usize]
    }

    /// Interned id of host `idx` of `service` (parallel to
    /// `service.hosts[idx]`).
    pub fn service_host_id(&self, service: ServiceId, idx: usize) -> DomainId {
        self.service_host_ids[service.0 as usize][idx]
    }

    /// Rebuilds the domain interner and host index; called by the
    /// generator after mutation. Intern order is deterministic: publisher
    /// domains in publisher-id order, then service hosts in service-id
    /// order — so `DomainId`s depend only on the world content.
    pub fn reindex(&mut self) {
        let mut domains = DomainTable::new();
        let mut publisher_domain_ids = Vec::with_capacity(self.publishers.len());
        for p in &self.publishers {
            publisher_domain_ids.push(domains.intern(&p.domain));
        }
        let mut host_service: Vec<Option<ServiceId>> = vec![None; domains.len()];
        let mut service_host_ids = Vec::with_capacity(self.services.len());
        for s in &self.services {
            let mut ids = Vec::with_capacity(s.hosts.len());
            for h in &s.hosts {
                let id = domains.intern(h);
                if host_service.len() < domains.len() {
                    host_service.resize(domains.len(), None);
                }
                let slot = &mut host_service[id.0 as usize];
                assert!(slot.is_none(), "host {h} assigned to two services");
                *slot = Some(s.id);
                ids.push(id);
            }
            service_host_ids.push(ids);
        }
        self.domains = domains;
        self.publisher_domain_ids = publisher_domain_ids;
        self.host_service = host_service;
        self.service_host_ids = service_host_ids;
    }

    /// Total number of distinct third-party FQDNs.
    pub fn n_third_party_fqdns(&self) -> usize {
        self.services.iter().map(|s| s.hosts.len()).sum()
    }

    /// Number of distinct tracking pay-level domains (ground truth).
    pub fn n_tracking_tlds(&self) -> usize {
        self.services.iter().filter(|s| s.is_tracking()).count()
    }

    /// Structural invariants; the generator's tests run this on every
    /// configuration.
    pub fn validate(&self) -> Result<(), String> {
        for (i, p) in self.publishers.iter().enumerate() {
            if p.id.0 as usize != i {
                return Err(format!("publisher {i} has id {:?}", p.id));
            }
            for e in &p.embeds {
                if e.service.0 as usize >= self.services.len() {
                    return Err(format!("publisher {} embeds unknown service", p.domain));
                }
                if !(0.0..=1.0).contains(&e.probability) {
                    return Err(format!("embed probability {} out of range", e.probability));
                }
            }
        }
        for (i, s) in self.services.iter().enumerate() {
            if s.id.0 as usize != i {
                return Err(format!("service {i} has id {:?}", s.id));
            }
            if s.org.0 as usize >= self.orgs.len() {
                return Err(format!("service {} has unknown org", s.tld));
            }
            if s.hosts.is_empty() {
                return Err(format!("service {} has no hosts", s.tld));
            }
            for h in &s.hosts {
                if !h.is_subdomain_of(&s.tld) {
                    return Err(format!("host {h} not under service tld {}", s.tld));
                }
                if self.service_by_host(h) != Some(s.id) {
                    return Err(format!("host {h} missing from index"));
                }
            }
        }
        for (i, o) in self.orgs.iter().enumerate() {
            if o.id.0 as usize != i {
                return Err(format!("org {i} has id {:?}", o.id));
            }
            for sid in &o.services {
                if self.service(*sid).org != o.id {
                    return Err(format!("org {} service backlink broken", o.name));
                }
            }
        }
        for (net, t) in &self.cascades {
            if net.0 as usize >= self.services.len() {
                return Err("cascade attached to unknown service".into());
            }
            for step in &t.steps {
                if step.service.0 as usize >= self.services.len() {
                    return Err("cascade step references unknown service".into());
                }
                if !(0.0..=1.0).contains(&step.probability) {
                    return Err(format!("cascade probability {} out of range", step.probability));
                }
            }
        }
        if self.org_weight.len() != self.orgs.len() {
            return Err("org_weight length mismatch".into());
        }
        if self.publisher_domain_ids.len() != self.publishers.len() {
            return Err("publisher domain-id table length mismatch".into());
        }
        if self.service_host_ids.len() != self.services.len() {
            return Err("service host-id table length mismatch".into());
        }
        for (p, &id) in self.publishers.iter().zip(&self.publisher_domain_ids) {
            if self.domains.domain(id) != &p.domain {
                return Err(format!("publisher {} interned under wrong id", p.domain));
            }
        }
        for (s, ids) in self.services.iter().zip(&self.service_host_ids) {
            if ids.len() != s.hosts.len() {
                return Err(format!("service {} host-id list out of sync", s.tld));
            }
            for (h, &id) in s.hosts.iter().zip(ids) {
                if self.domains.domain(id) != h {
                    return Err(format!("host {h} interned under wrong id"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::SiteCategory;
    use crate::service::{HostingPolicy, ServiceKind};
    use crate::url::UrlStyle;
    use xborder_geo::cc;

    fn tiny_graph() -> WebGraph {
        let mut g = WebGraph::default();
        g.orgs.push(ServiceOrg {
            id: ServiceOrgId(0),
            name: "t-org".into(),
            legal_seat: cc!("US"),
            hosting: HostingPolicy::HomeOnly,
            services: vec![ServiceId(0)],
        });
        g.org_weight.push(1.0);
        g.services.push(ThirdPartyService {
            id: ServiceId(0),
            org: ServiceOrgId(0),
            tld: Domain::new("track.com"),
            hosts: vec![Domain::new("t.track.com")],
            kind: ServiceKind::Analytics,
            url_style: UrlStyle::Args,
            in_blocklist: true,
            shared_infra: false,
        });
        g.publishers.push(Publisher {
            id: PublisherId(0),
            domain: Domain::new("news.example.com"),
            category: SiteCategory::News,
            audience: crate::publisher::Audience::Global,
            popularity: 1.0,
            embeds: vec![],
        });
        g.reindex();
        g
    }

    #[test]
    fn tiny_graph_validates() {
        let g = tiny_graph();
        assert!(g.validate().is_ok());
        assert_eq!(g.n_third_party_fqdns(), 1);
        assert_eq!(g.n_tracking_tlds(), 1);
    }

    #[test]
    fn host_lookup() {
        let g = tiny_graph();
        assert_eq!(
            g.service_by_host(&Domain::new("t.track.com")),
            Some(ServiceId(0))
        );
        assert_eq!(g.service_by_host(&Domain::new("nope.com")), None);
    }

    #[test]
    fn interned_ids_agree_with_string_lookups() {
        let g = tiny_graph();
        // Publisher domains intern first, service hosts after.
        let pub_id = g.publisher_domain_id(PublisherId(0));
        assert_eq!(g.domains().domain(pub_id).as_str(), "news.example.com");
        let host_id = g.service_host_id(ServiceId(0), 0);
        assert_eq!(g.domains().domain(host_id).as_str(), "t.track.com");
        assert_eq!(g.service_by_host_id(host_id), Some(ServiceId(0)));
        assert_eq!(g.service_by_host_id(pub_id), None, "publisher domain is not a service host");
        assert_eq!(g.domains().get(&Domain::new("t.track.com")), Some(host_id));
    }

    #[test]
    fn validate_catches_host_outside_tld() {
        let mut g = tiny_graph();
        g.services[0].hosts.push(Domain::new("elsewhere.net"));
        g.reindex();
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "two services")]
    fn reindex_rejects_duplicate_hosts() {
        let mut g = tiny_graph();
        g.orgs[0].services.push(ServiceId(1));
        g.services.push(ThirdPartyService {
            id: ServiceId(1),
            org: ServiceOrgId(0),
            tld: Domain::new("track.com"),
            hosts: vec![Domain::new("t.track.com")],
            kind: ServiceKind::Analytics,
            url_style: UrlStyle::Args,
            in_blocklist: false,
            shared_infra: false,
        });
        g.reindex();
    }
}
