//! Recursive resolvers: the vantage point geo-DNS actually sees.
//!
//! Authoritative geo-DNS maps by *resolver* address, not end-user address.
//! An ISP resolver sits in the user's country, so mobile users (who almost
//! always use it) get mapped to in-country PoPs when available. Broadband
//! users increasingly point at third-party public DNS (Google DNS, Quad9,
//! Level3 — paper Sect. 7.3 citing Otto et al.), whose egress PoP may be in
//! a neighbouring hub country; the authoritative answer then optimizes for
//! the wrong place, lowering national confinement. That asymmetry is the
//! mechanism behind Table 8's mobile > broadband confinement.

use serde::{Deserialize, Serialize};
use xborder_faults::{DegradedResult, FaultError};
use xborder_geo::{CountryCode, LatLon, WORLD};

/// Countries where the modelled public-DNS services operate egress PoPs.
/// Hub-heavy on purpose: public anycast lives in datacenter countries.
pub const PUBLIC_DNS_POP_COUNTRIES: &[&str] =
    &["US", "GB", "IE", "NL", "DE", "FR", "PL", "ES", "IT", "SE", "SG", "JP", "AU", "BR"];

/// Which resolver a client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResolverKind {
    /// The access ISP's own resolver, in the subscriber's country.
    IspLocal,
    /// A third-party anycast public resolver; queries egress from the
    /// nearest public-DNS PoP, which may be abroad.
    PublicAnycast,
}

/// A concrete resolver vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resolver {
    /// Flavor.
    pub kind: ResolverKind,
    /// Country the resolver egress sits in.
    pub country: CountryCode,
    /// Location the authoritative side optimizes for.
    pub location: LatLon,
}

impl Resolver {
    /// The ISP resolver for a subscriber in `country`, placed at the
    /// country centroid (close enough for country-level mapping).
    ///
    /// Fallible: a country missing from the world table surfaces as
    /// [`FaultError::UnknownCountry`] instead of a panic, so a corrupted
    /// user record degrades one client instead of the whole study.
    pub fn try_isp_local(country: CountryCode) -> DegradedResult<Resolver> {
        let c = WORLD
            .country(country)
            .map_err(|_| FaultError::UnknownCountry(country.to_string()))?;
        Ok(Resolver {
            kind: ResolverKind::IspLocal,
            country,
            location: c.centroid(),
        })
    }

    /// Infallible convenience wrapper over [`Resolver::try_isp_local`] for
    /// setup code with known-good countries.
    pub fn isp_local(country: CountryCode) -> Resolver {
        Resolver::try_isp_local(country).expect("country in world table")
    }

    /// The public-DNS egress PoP a user at `user_loc` is anycast-routed to:
    /// the nearest of [`PUBLIC_DNS_POP_COUNTRIES`].
    pub fn try_public_anycast(user_loc: LatLon) -> DegradedResult<Resolver> {
        let mut best: Option<(CountryCode, LatLon, f64)> = None;
        for code in PUBLIC_DNS_POP_COUNTRIES {
            let parsed = CountryCode::parse(code)
                .map_err(|_| FaultError::UnknownCountry((*code).to_string()))?;
            let c = WORLD
                .country(parsed)
                .map_err(|_| FaultError::UnknownCountry(parsed.to_string()))?;
            let d = user_loc.distance_km(&c.centroid());
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((c.code, c.centroid(), d));
            }
        }
        let (country, location, _) = best.ok_or_else(|| {
            FaultError::UnknownCountry("no public-DNS PoP countries".to_string())
        })?;
        Ok(Resolver {
            kind: ResolverKind::PublicAnycast,
            country,
            location,
        })
    }

    /// Infallible convenience wrapper over [`Resolver::try_public_anycast`].
    pub fn public_anycast(user_loc: LatLon) -> Resolver {
        Resolver::try_public_anycast(user_loc).expect("static PoP list resolvable")
    }
}

/// Everything the DNS simulator needs to know about the querying client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientCtx {
    /// The user's country.
    pub country: CountryCode,
    /// The user's physical location.
    pub location: LatLon,
    /// The resolver their queries go through.
    pub resolver: Resolver,
}

impl ClientCtx {
    /// Client using their ISP's resolver.
    pub fn with_isp_resolver(country: CountryCode, location: LatLon) -> ClientCtx {
        ClientCtx {
            country,
            location,
            resolver: Resolver::isp_local(country),
        }
    }

    /// Client using anycast public DNS.
    pub fn with_public_resolver(country: CountryCode, location: LatLon) -> ClientCtx {
        ClientCtx {
            country,
            location,
            resolver: Resolver::public_anycast(location),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_geo::cc;

    #[test]
    fn isp_resolver_is_in_country() {
        let r = Resolver::isp_local(cc!("HU"));
        assert_eq!(r.country, cc!("HU"));
        assert_eq!(r.kind, ResolverKind::IspLocal);
    }

    #[test]
    fn public_resolver_for_user_with_local_pop() {
        // German user: Germany hosts public DNS PoPs, so egress is DE.
        let de = WORLD.country_or_panic(cc!("DE"));
        let r = Resolver::public_anycast(de.centroid());
        assert_eq!(r.country, cc!("DE"));
        assert_eq!(r.kind, ResolverKind::PublicAnycast);
    }

    #[test]
    fn public_resolver_for_user_without_local_pop_egresses_abroad() {
        // Hungarian user: no HU PoP in the list -> egress in a neighbour
        // hub, definitely not Hungary.
        let hu = WORLD.country_or_panic(cc!("HU"));
        let r = Resolver::public_anycast(hu.centroid());
        assert_ne!(r.country, cc!("HU"));
        // Should be somewhere in Europe, not the US.
        let c = WORLD.country_or_panic(r.country);
        assert_eq!(c.continent, xborder_geo::Continent::Europe);
    }

    #[test]
    fn client_ctx_constructors() {
        let hu = WORLD.country_or_panic(cc!("HU"));
        let isp = ClientCtx::with_isp_resolver(cc!("HU"), hu.centroid());
        assert_eq!(isp.resolver.country, cc!("HU"));
        let public = ClientCtx::with_public_resolver(cc!("HU"), hu.centroid());
        assert_ne!(public.resolver.country, cc!("HU"));
    }

    #[test]
    fn all_public_pop_countries_exist() {
        for code in PUBLIC_DNS_POP_COUNTRIES {
            let c = CountryCode::parse(code).unwrap();
            assert!(WORLD.contains(c), "{code} missing from world");
        }
    }
}
