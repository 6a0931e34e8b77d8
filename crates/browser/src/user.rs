//! The recruited user population.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xborder_dns::{ClientCtx, Resolver, ResolverKind};
use xborder_faults::{derive_stream_seed, DegradedResult};
use xborder_geo::{CountryCode, LatLon, WORLD};

/// Index of a user within the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u32);

/// One extension user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct User {
    /// Study-local identifier (the paper deliberately stores no stronger
    /// identifier; neither do we).
    pub id: UserId,
    /// Country of residence.
    pub country: CountryCode,
    /// Home location (sampled inside the country).
    pub location: LatLon,
    /// Which resolver their traffic uses.
    pub resolver_kind: ResolverKind,
    /// Relative browsing activity (visits are proportional to this).
    pub activity: f64,
    /// Probability the user interacts with a page enough to reveal lazy ad
    /// slots (scroll; the crawler-vs-real-user gap of Sect. 3.1).
    pub interaction_p: f64,
}

impl User {
    /// The DNS client context for this user, failing gracefully when the
    /// user record carries a country missing from the world table (the
    /// request path surfaces this as a skipped request, not a panic).
    pub fn try_client_ctx(&self) -> DegradedResult<ClientCtx> {
        let resolver = match self.resolver_kind {
            ResolverKind::IspLocal => Resolver::try_isp_local(self.country)?,
            ResolverKind::PublicAnycast => Resolver::try_public_anycast(self.location)?,
        };
        Ok(ClientCtx {
            country: self.country,
            location: self.location,
            resolver,
        })
    }

    /// Infallible wrapper over [`User::try_client_ctx`] for generated
    /// populations (whose countries come from the world table).
    pub fn client_ctx(&self) -> ClientCtx {
        self.try_client_ctx().expect("user country in world table")
    }
}

/// Country mix of the recruited population.
///
/// Defaults approximate the paper's recruitment: a 183-user EU28 majority
/// (Spain-heavy), a sizeable South-American group (86), and small groups
/// elsewhere (Fig. 6's per-region user counts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserPopulationConfig {
    /// Total number of users (paper: 350).
    pub n_users: usize,
    /// `(country, weight)` recruitment mix.
    pub country_weights: Vec<(CountryCode, f64)>,
    /// Probability a (broadband) user has switched to public DNS.
    pub public_dns_share: f64,
    /// When set, each user is drawn from a private hash-derived RNG
    /// stream (`derive_stream_seed(pop_seed, user_id)`) instead of one
    /// sequential stream, making every user a pure function of
    /// `(pop_seed, user_id)` — the property that lets out-of-core
    /// drivers (re)generate any user range on demand without holding the
    /// population (DESIGN.md §5j). Changes which population a seed
    /// produces, so it is a *config* knob, not a perf knob; defaults off
    /// to keep every existing seed's world byte-identical.
    #[serde(default)]
    pub segmented: bool,
}

impl Default for UserPopulationConfig {
    fn default() -> Self {
        let w = |c: &str, w: f64| (CountryCode::parse(c).expect("static code"), w);
        UserPopulationConfig {
            n_users: 350,
            country_weights: vec![
                // EU28 (≈183 users, Spain-heavy like the paper's Fig. 8).
                w("ES", 60.0),
                w("GB", 25.0),
                w("DE", 20.0),
                w("IT", 14.0),
                w("GR", 12.0),
                w("PL", 12.0),
                w("RO", 10.0),
                w("DK", 7.0),
                w("BE", 7.0),
                w("CY", 6.0),
                w("HU", 5.0),
                w("FR", 3.0),
                w("PT", 2.0),
                // South America (≈86).
                w("BR", 40.0),
                w("AR", 20.0),
                w("CO", 14.0),
                w("CL", 8.0),
                w("PE", 4.0),
                // Rest of Europe (≈23).
                w("RS", 9.0),
                w("RU", 7.0),
                w("TR", 4.0),
                w("CH", 3.0),
                // Africa (≈22).
                w("EG", 8.0),
                w("NG", 6.0),
                w("MA", 4.0),
                w("TN", 2.0),
                w("KE", 2.0),
                // Asia (≈20).
                w("IN", 8.0),
                w("MY", 5.0),
                w("TH", 4.0),
                w("ID", 3.0),
                // North America (≈16).
                w("US", 12.0),
                w("CA", 3.0),
                w("MX", 1.0),
            ],
            public_dns_share: 0.35,
            segmented: false,
        }
    }
}

impl UserPopulationConfig {
    /// Small population for tests.
    pub fn small() -> Self {
        UserPopulationConfig {
            n_users: 40,
            ..Default::default()
        }
    }
}

/// The generated population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserPopulation {
    /// All users, indexed by [`UserId`].
    pub users: Vec<User>,
}

/// Samples one user's record from the given RNG (five draws: country,
/// two jitter coordinates, resolver coin, activity, interaction).
fn sample_user<R: Rng + ?Sized>(
    cfg: &UserPopulationConfig,
    total_w: f64,
    i: usize,
    rng: &mut R,
) -> User {
    let mut x = rng.gen::<f64>() * total_w;
    let mut country = cfg.country_weights[0].0;
    for (c, w) in &cfg.country_weights {
        x -= w;
        if x <= 0.0 {
            country = *c;
            break;
        }
    }
    let c = WORLD.country_or_panic(country);
    let location = c.centroid().jitter(c.radius_km * 0.8, rng);
    let resolver_kind = if rng.gen::<f64>() < cfg.public_dns_share {
        ResolverKind::PublicAnycast
    } else {
        ResolverKind::IspLocal
    };
    User {
        id: UserId(i as u32),
        country,
        location,
        resolver_kind,
        // Log-normal-ish activity spread: some users browse a lot.
        activity: 0.3 + rng.gen::<f64>().powi(2) * 3.0,
        interaction_p: 0.5 + rng.gen::<f64>() * 0.45,
    }
}

fn total_weight(cfg: &UserPopulationConfig) -> f64 {
    let total_w: f64 = cfg.country_weights.iter().map(|(_, w)| w).sum();
    assert!(total_w > 0.0, "country weights must be positive");
    total_w
}

impl UserPopulation {
    /// Samples a population from the config.
    ///
    /// With [`UserPopulationConfig::segmented`] set, one `pop_seed` is
    /// drawn from `rng` and every user comes from its own
    /// `derive_stream_seed(pop_seed, user_id)` stream — identical to
    /// [`UserPopulation::generate_range`] over the full range, which is
    /// what keeps materialized and out-of-core populations in agreement.
    pub fn generate<R: Rng + ?Sized>(cfg: &UserPopulationConfig, rng: &mut R) -> UserPopulation {
        if cfg.segmented {
            let pop_seed: u64 = rng.gen();
            return UserPopulation {
                users: Self::generate_range(cfg, pop_seed, 0..cfg.n_users as u32),
            };
        }
        let total_w = total_weight(cfg);
        let mut users = Vec::with_capacity(cfg.n_users);
        for i in 0..cfg.n_users {
            users.push(sample_user(cfg, total_w, i, rng));
        }
        UserPopulation { users }
    }

    /// One user of a segmented population, as a pure function of
    /// `(config, pop_seed, id)`.
    pub fn generate_user(cfg: &UserPopulationConfig, pop_seed: u64, id: u32) -> User {
        let total_w = total_weight(cfg);
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(pop_seed, id as u64));
        sample_user(cfg, total_w, id as usize, &mut rng)
    }

    /// A contiguous user range of a segmented population. Pure in
    /// `(config, pop_seed, range)`: concatenating any partition of
    /// `0..n_users` reproduces the full population exactly.
    pub fn generate_range(
        cfg: &UserPopulationConfig,
        pop_seed: u64,
        range: std::ops::Range<u32>,
    ) -> Vec<User> {
        let total_w = total_weight(cfg);
        let mut users = Vec::with_capacity(range.len());
        for id in range {
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(pop_seed, id as u64));
            users.push(sample_user(cfg, total_w, id as usize, &mut rng));
        }
        users
    }

    /// Population-wide mean activity: the study's visit budget normalizes
    /// by it, so it is always taken over every user, never per chunk.
    pub fn mean_activity(&self) -> f64 {
        self.users.iter().map(|u| u.activity).sum::<f64>() / self.users.len().max(1) as f64
    }

    /// Population-wide mean activity of a segmented population, computed
    /// in one streaming pass without materializing any `User` vector
    /// (the study's visit budget normalizes by this, so out-of-core
    /// drivers need it before simulating the first segment).
    pub fn mean_activity_segmented(cfg: &UserPopulationConfig, pop_seed: u64) -> f64 {
        let total_w = total_weight(cfg);
        let mut sum = 0.0;
        for id in 0..cfg.n_users as u32 {
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(pop_seed, id as u64));
            sum += sample_user(cfg, total_w, id as usize, &mut rng).activity;
        }
        sum / (cfg.n_users as f64).max(1.0)
    }

    /// Users residing in EU28 countries.
    pub fn eu28_users(&self) -> impl Iterator<Item = &User> {
        self.users
            .iter()
            .filter(|u| WORLD.country_or_panic(u.country).eu28)
    }

    /// Number of users per country.
    pub fn count_by_country(&self) -> std::collections::HashMap<CountryCode, usize> {
        let mut m = std::collections::HashMap::new();
        for u in &self.users {
            *m.entry(u.country).or_insert(0) += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_geo::cc;

    #[test]
    fn population_size_and_determinism() {
        let cfg = UserPopulationConfig::default();
        let a = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let b = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.users.len(), 350);
        for (x, y) in a.users.iter().zip(&b.users) {
            assert_eq!(x.country, y.country);
            assert_eq!(x.resolver_kind, y.resolver_kind);
        }
    }

    #[test]
    fn eu28_majority_and_spain_heavy() {
        let cfg = UserPopulationConfig::default();
        let pop = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(2));
        let eu = pop.eu28_users().count();
        assert!((120..=260).contains(&eu), "EU28 users {eu}");
        let by_country = pop.count_by_country();
        let es = by_country.get(&cc!("ES")).copied().unwrap_or(0);
        let de = by_country.get(&cc!("DE")).copied().unwrap_or(0);
        assert!(es > de, "ES {es} vs DE {de}");
    }

    #[test]
    fn public_dns_share_respected() {
        let cfg = UserPopulationConfig {
            n_users: 2_000,
            ..Default::default()
        };
        let pop = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(3));
        let public = pop
            .users
            .iter()
            .filter(|u| u.resolver_kind == ResolverKind::PublicAnycast)
            .count();
        let share = public as f64 / pop.users.len() as f64;
        assert!((share - 0.35).abs() < 0.05, "share {share}");
    }

    #[test]
    fn client_ctx_matches_resolver_kind() {
        let cfg = UserPopulationConfig::small();
        let pop = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(4));
        for u in &pop.users {
            let ctx = u.client_ctx();
            assert_eq!(ctx.country, u.country);
            match u.resolver_kind {
                ResolverKind::IspLocal => assert_eq!(ctx.resolver.country, u.country),
                ResolverKind::PublicAnycast => assert_eq!(ctx.resolver.kind, ResolverKind::PublicAnycast),
            }
        }
    }

    #[test]
    fn segmented_ranges_partition_exactly() {
        let cfg = UserPopulationConfig {
            n_users: 53,
            segmented: true,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let pop_seed: u64 = rng.gen();
        let whole = UserPopulation::generate_range(&cfg, pop_seed, 0..53);
        // generate() with the same upstream rng draws the same pop_seed.
        let full = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(9));
        for (a, b) in whole.iter().zip(&full.users) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.country, b.country);
            assert_eq!(a.resolver_kind, b.resolver_kind);
            assert_eq!(a.activity.to_bits(), b.activity.to_bits());
            assert_eq!(a.interaction_p.to_bits(), b.interaction_p.to_bits());
        }
        // Any partition concatenates to the whole, bit-identically.
        for cuts in [vec![0u32, 1, 7, 20, 53], vec![0, 53], vec![0, 26, 53]] {
            let mut cat = Vec::new();
            for w in cuts.windows(2) {
                cat.extend(UserPopulation::generate_range(&cfg, pop_seed, w[0]..w[1]));
            }
            assert_eq!(cat.len(), whole.len());
            for (a, b) in cat.iter().zip(&whole) {
                assert_eq!(a.id, b.id);
                assert_eq!((a.location.lat.to_bits(), a.location.lon.to_bits()), (b.location.lat.to_bits(), b.location.lon.to_bits()));
            }
        }
        // Single-user purity matches too.
        let u17 = UserPopulation::generate_user(&cfg, pop_seed, 17);
        assert_eq!((u17.location.lat.to_bits(), u17.location.lon.to_bits()), (whole[17].location.lat.to_bits(), whole[17].location.lon.to_bits()));
        // The streaming mean equals the materialized mean.
        let mean: f64 = whole.iter().map(|u| u.activity).sum::<f64>() / 53.0;
        let streamed = UserPopulation::mean_activity_segmented(&cfg, pop_seed);
        assert_eq!(mean.to_bits(), streamed.to_bits());
    }

    #[test]
    fn segmented_population_is_statistically_sane() {
        let cfg = UserPopulationConfig {
            n_users: 2_000,
            segmented: true,
            ..Default::default()
        };
        let pop = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(3));
        let public = pop
            .users
            .iter()
            .filter(|u| u.resolver_kind == ResolverKind::PublicAnycast)
            .count();
        let share = public as f64 / pop.users.len() as f64;
        assert!((share - 0.35).abs() < 0.05, "share {share}");
        let eu = pop.eu28_users().count();
        assert!(eu > 600, "EU28 users {eu}");
    }

    #[test]
    fn activity_is_positive() {
        let cfg = UserPopulationConfig::small();
        let pop = UserPopulation::generate(&cfg, &mut StdRng::seed_from_u64(5));
        for u in &pop.users {
            assert!(u.activity > 0.0);
            assert!((0.0..=1.0).contains(&u.interaction_p));
        }
    }
}
