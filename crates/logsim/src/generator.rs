use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::archetype::{standard_archetypes, ArchetypeId};
use crate::catalog::ActionCatalog;
use crate::dataset::Dataset;
use crate::error::LogsimError;
use crate::ids::{SessionId, UserId};
use crate::length::LengthModel;
use crate::session::Session;

/// Configuration for the synthetic log generator.
///
/// The defaults of [`GeneratorConfig::paper_scale`] match the corpus the
/// paper describes in §IV-A: ~15 000 sessions, ~1 400 users, 31 days,
/// ~300 actions, 13 latent behaviors with sizes ranging from ~180 to ~3 500
/// sessions (geometric popularity, ratio tuned so the smallest cluster is
/// near the paper's 177-session cluster).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Number of sessions to synthesize.
    pub n_sessions: usize,
    /// Size of the user population.
    pub n_users: usize,
    /// Length of the recording window in days.
    pub n_days: usize,
    /// Session-length model.
    pub length_model: LengthModel,
    /// Geometric ratio between consecutive archetype popularities (> 1 makes
    /// cluster sizes span a wide range, as in the paper).
    pub popularity_ratio: f64,
    /// How many archetypes each user is proficient in (1..=this).
    pub max_user_affinities: usize,
    /// Per-action probability of a long-tail catalog action replacing the
    /// grammar's emission (keeps the observed action count near the
    /// catalog's ~300, as in the paper's log).
    pub noise_rate: f64,
}

impl GeneratorConfig {
    /// Paper-scale corpus (~15 000 sessions). Slow to *train* on, fine to
    /// generate.
    pub fn paper_scale(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            n_sessions: 15_000,
            n_users: 1_400,
            n_days: 31,
            length_model: LengthModel::paper_like(),
            popularity_ratio: 1.28,
            max_user_affinities: 3,
            noise_rate: 0.02,
        }
    }

    /// Reduced corpus for the default experiment profile (single-core
    /// friendly while keeping 13 resolvable clusters).
    pub fn default_scale(seed: u64) -> Self {
        GeneratorConfig {
            n_sessions: 4_000,
            n_users: 400,
            ..GeneratorConfig::paper_scale(seed)
        }
    }

    /// Tiny corpus for unit tests and doctests.
    pub fn tiny(seed: u64) -> Self {
        GeneratorConfig {
            n_sessions: 400,
            n_users: 40,
            popularity_ratio: 1.12,
            ..GeneratorConfig::paper_scale(seed)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LogsimError::InvalidConfig`] for zero counts or a
    /// non-positive popularity ratio.
    pub fn validate(&self) -> Result<(), LogsimError> {
        if self.n_sessions == 0 {
            return Err(LogsimError::InvalidConfig("n_sessions must be > 0".into()));
        }
        if self.n_users == 0 {
            return Err(LogsimError::InvalidConfig("n_users must be > 0".into()));
        }
        if self.n_days == 0 {
            return Err(LogsimError::InvalidConfig("n_days must be > 0".into()));
        }
        if self.popularity_ratio < 1.0 {
            return Err(LogsimError::InvalidConfig(
                "popularity_ratio must be >= 1".into(),
            ));
        }
        if self.max_user_affinities == 0 {
            return Err(LogsimError::InvalidConfig(
                "max_user_affinities must be > 0".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.noise_rate) {
            return Err(LogsimError::InvalidConfig(
                "noise_rate must be in [0, 1)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::default_scale(0)
    }
}

/// Synthesizes a [`Dataset`] of normal-behavior sessions.
///
/// # Example
///
/// ```
/// use ibcm_logsim::{Generator, GeneratorConfig};
/// let ds = Generator::new(GeneratorConfig::tiny(1)).generate();
/// assert_eq!(ds.sessions().len(), 400);
/// assert_eq!(ds.archetypes().len(), 13);
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`GeneratorConfig::validate`] to check first.
    pub fn new(config: GeneratorConfig) -> Self {
        config.validate().expect("invalid generator configuration");
        Generator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the full dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let catalog = ActionCatalog::standard();
        let archetypes = standard_archetypes(&catalog);
        let k = archetypes.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Geometric archetype popularity: w_i proportional to r^i.
        let mut weights: Vec<f64> = (0..k).map(|i| cfg.popularity_ratio.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }

        // Users: each proficient in 1..=max affinities, biased by popularity.
        let sample_weighted = |rng: &mut StdRng, weights: &[f64]| -> usize {
            let x: f64 = rng.gen();
            let mut acc = 0.0;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if x < acc {
                    return i;
                }
            }
            weights.len() - 1
        };
        let users: Vec<Vec<ArchetypeId>> = (0..cfg.n_users)
            .map(|_| {
                let n_aff = rng.gen_range(1..=cfg.max_user_affinities);
                let mut affs: Vec<ArchetypeId> = (0..n_aff)
                    .map(|_| ArchetypeId(sample_weighted(&mut rng, &weights)))
                    .collect();
                affs.sort();
                affs.dedup();
                affs
            })
            .collect();

        let minutes = (cfg.n_days as u64) * 24 * 60;
        let mut sessions: Vec<Session> = (0..cfg.n_sessions)
            .map(|_| {
                let user = UserId(rng.gen_range(0..cfg.n_users));
                let affs = &users[user.index()];
                let arche = affs[rng.gen_range(0..affs.len())];
                let len = cfg.length_model.sample(&mut rng).max(1);
                let mut actions =
                    archetypes[arche.index()].emit(len, catalog.navigation(), &mut rng);
                for a in &mut actions {
                    if rng.gen::<f64>() < cfg.noise_rate {
                        *a = crate::ids::ActionId(rng.gen_range(0..catalog.len()));
                    }
                }
                let start = rng.gen_range(0..minutes);
                Session::with_archetype(SessionId(0), user, start, actions, arche)
            })
            .collect();

        // Chronological ids, as a real log would have.
        sessions.sort_by_key(Session::start_minute);
        let sessions = sessions
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Session::with_archetype(
                    SessionId(i),
                    s.user(),
                    s.start_minute(),
                    s.actions().to_vec(),
                    s.archetype().expect("generated sessions are labeled"),
                )
            })
            .collect();

        Dataset::new(catalog, archetypes, sessions, cfg.n_users, cfg.n_days)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "test-only per-archetype tallies; only len() and the min/max of the values are read, so iteration order cannot matter")]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generates_requested_counts() {
        let ds = Generator::new(GeneratorConfig::tiny(3)).generate();
        assert_eq!(ds.sessions().len(), 400);
        let stats = ds.stats();
        assert!(stats.users <= 40);
        assert!(stats.users > 20, "most users should appear");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Generator::new(GeneratorConfig::tiny(9)).generate();
        let b = Generator::new(GeneratorConfig::tiny(9)).generate();
        assert_eq!(a.sessions().len(), b.sessions().len());
        for (x, y) in a.sessions().iter().zip(b.sessions()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(GeneratorConfig::tiny(1)).generate();
        let b = Generator::new(GeneratorConfig::tiny(2)).generate();
        assert!(a.sessions().iter().zip(b.sessions()).any(|(x, y)| x != y));
    }

    #[test]
    fn all_archetypes_represented_with_skewed_sizes() {
        let mut cfg = GeneratorConfig::default_scale(5);
        cfg.n_sessions = 3000;
        let ds = Generator::new(cfg).generate();
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for s in ds.sessions() {
            *counts.entry(s.archetype().unwrap().index()).or_default() += 1;
        }
        assert_eq!(counts.len(), 13, "all 13 archetypes should appear");
        let min = *counts.values().min().unwrap();
        let max = *counts.values().max().unwrap();
        assert!(
            max as f64 / min as f64 > 3.0,
            "cluster sizes should be skewed (min {min}, max {max})"
        );
    }

    #[test]
    fn sessions_sorted_chronologically_with_sequential_ids() {
        let ds = Generator::new(GeneratorConfig::tiny(4)).generate();
        let mut prev = 0;
        for (i, s) in ds.sessions().iter().enumerate() {
            assert_eq!(s.id().index(), i);
            assert!(s.start_minute() >= prev);
            prev = s.start_minute();
        }
    }

    #[test]
    fn session_lengths_match_length_model_shape() {
        let mut cfg = GeneratorConfig::default_scale(6);
        cfg.n_sessions = 5000;
        let ds = Generator::new(cfg).generate();
        let stats = ds.stats();
        assert!(
            (10.0..21.0).contains(&stats.mean_length),
            "mean {}",
            stats.mean_length
        );
        assert!(stats.p98_length < 91, "p98 {}", stats.p98_length);
    }

    #[test]
    fn noise_widens_observed_action_set() {
        let mut cfg = GeneratorConfig::default_scale(8);
        cfg.n_sessions = 3000;
        let with_noise = Generator::new(cfg.clone()).generate().stats().distinct_actions;
        cfg.noise_rate = 0.0;
        let without = Generator::new(cfg).generate().stats().distinct_actions;
        assert!(
            with_noise > without + 100,
            "noise should surface the long tail: {with_noise} vs {without}"
        );
        assert!(with_noise > 250, "paper reports ~300 observed actions");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = GeneratorConfig::tiny(0);
        cfg.n_sessions = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = GeneratorConfig::tiny(0);
        cfg.popularity_ratio = 0.5;
        assert!(cfg.validate().is_err());
    }
}
