use ibcm_lm::LmTrainConfig;
use ibcm_ocsvm::{Kernel, OcSvmConfig};
use ibcm_topics::EnsembleConfig;
use ibcm_viz::{SimulatedExpertConfig, TsneConfig};
use serde::{Deserialize, Serialize};

/// Everything the training phase needs.
///
/// Three profiles are provided:
///
/// - [`PipelineConfig::test_profile`]: seconds on one core (unit and
///   integration tests),
/// - [`PipelineConfig::default_profile`]: minutes on one core, 13 clusters
///   (the repro binaries' default),
/// - [`PipelineConfig::paper_profile`]: the paper's full hyperparameters
///   (256-unit LSTMs, moving window 100) — slow without real hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Master seed.
    pub seed: u64,
    /// LDA topic counts swept by the ensemble.
    pub topic_counts: Vec<usize>,
    /// LDA runs per topic count.
    pub runs_per_count: usize,
    /// Gibbs sweeps per LDA run.
    pub lda_iterations: usize,
    /// Simulated-expert settings (target clusters, coverage threshold).
    pub expert: SimulatedExpertConfig,
    /// OC-SVM ν.
    pub nu: f64,
    /// OC-SVM RBF bandwidth.
    pub gamma: f64,
    /// Language-model template; `vocab` is overwritten with the catalog
    /// size.
    pub lm: LmTrainConfig,
    /// Online cluster lock-in horizon (the paper uses the average session
    /// length, 15).
    pub lock_in: usize,
    /// Training fraction of each cluster's sessions.
    pub train_frac: f64,
    /// Validation fraction of each cluster's sessions.
    pub val_frac: f64,
    /// Worker threads for the parallel stages (per-cluster model training;
    /// the LDA ensemble reads the same environment default directly).
    ///
    /// Profiles initialize this from [`ibcm_par::default_threads`] — the
    /// `IBCM_THREADS` environment variable if set, otherwise the machine's
    /// available cores. `0` is clamped to 1 by
    /// [`PipelineConfig::effective_parallelism`]. Any value produces
    /// bit-identical training results; see DESIGN.md, "Parallelism &
    /// determinism".
    pub parallelism: usize,
}

impl PipelineConfig {
    /// Tiny profile for tests (4 clusters, 16-unit LSTMs, few epochs).
    pub fn test_profile(seed: u64) -> Self {
        PipelineConfig {
            seed,
            topic_counts: vec![4, 6],
            runs_per_count: 1,
            lda_iterations: 30,
            expert: SimulatedExpertConfig {
                target_clusters: 4,
                min_cluster_sessions: 10,
                tsne: TsneConfig {
                    iterations: 50,
                    ..TsneConfig::default()
                },
            },
            nu: 0.1,
            gamma: 3.0,
            lm: LmTrainConfig {
                hidden: 32,
                epochs: 25,
                learning_rate: 1e-2,
                patience: 0,
                dropout: 0.1,
                seed,
                ..LmTrainConfig::default()
            },
            lock_in: 15,
            train_frac: 0.7,
            val_frac: 0.15,
            parallelism: ibcm_par::default_threads(),
        }
    }

    /// Default reproduction profile: 13 clusters, 64-unit LSTMs.
    pub fn default_profile(seed: u64) -> Self {
        PipelineConfig {
            seed,
            topic_counts: vec![10, 13, 16],
            runs_per_count: 2,
            lda_iterations: 60,
            expert: SimulatedExpertConfig {
                target_clusters: 13,
                min_cluster_sessions: 30,
                tsne: TsneConfig::default(),
            },
            nu: 0.1,
            gamma: 3.0,
            lm: LmTrainConfig {
                hidden: 64,
                // Generous cap: small clusters need many epochs to see as
                // many optimizer steps as the global baseline; validation
                // early stopping (patience 3) ends training when converged.
                epochs: 30,
                learning_rate: 3e-3,
                patience: 3,
                seed,
                ..LmTrainConfig::default()
            },
            lock_in: 15,
            train_frac: 0.7,
            val_frac: 0.15,
            parallelism: ibcm_par::default_threads(),
        }
    }

    /// The paper's §IV-A hyperparameters (use with
    /// [`GeneratorConfig::paper_scale`](ibcm_logsim::GeneratorConfig::paper_scale)).
    pub fn paper_profile(seed: u64) -> Self {
        PipelineConfig {
            lm: LmTrainConfig::paper_exact(300, seed),
            topic_counts: vec![10, 13, 16, 20],
            runs_per_count: 2,
            lda_iterations: 100,
            ..PipelineConfig::default_profile(seed)
        }
    }

    /// The derived ensemble configuration for a catalog of `vocab` actions.
    pub fn ensemble_config(&self, vocab: usize) -> EnsembleConfig {
        EnsembleConfig {
            topic_counts: self.topic_counts.clone(),
            runs_per_count: self.runs_per_count,
            iterations: self.lda_iterations,
            seed: self.seed,
            ..EnsembleConfig::standard(vocab, self.seed)
        }
    }

    /// The worker-thread count the parallel stages actually use:
    /// [`PipelineConfig::parallelism`] with the degenerate value `0`
    /// clamped to 1 (sequential).
    pub fn effective_parallelism(&self) -> usize {
        self.parallelism.max(1)
    }

    /// The derived OC-SVM configuration.
    pub fn ocsvm_config(&self) -> OcSvmConfig {
        OcSvmConfig {
            nu: self.nu,
            kernel: Kernel::Rbf { gamma: self.gamma },
            seed: self.seed,
            ..OcSvmConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        if self.topic_counts.is_empty() {
            return Err(crate::CoreError::InvalidConfig(
                "topic_counts must be non-empty".into(),
            ));
        }
        if self.lock_in == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "lock_in must be positive".into(),
            ));
        }
        if !(self.train_frac > 0.0 && self.val_frac >= 0.0 && self.train_frac + self.val_frac < 1.0)
        {
            return Err(crate::CoreError::InvalidConfig(
                "split fractions must satisfy 0 < train, 0 <= val, train + val < 1".into(),
            ));
        }
        if !(self.nu > 0.0 && self.nu <= 1.0) {
            return Err(crate::CoreError::InvalidConfig(format!(
                "nu must be in (0,1], got {}",
                self.nu
            )));
        }
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::default_profile(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate() {
        assert!(PipelineConfig::test_profile(1).validate().is_ok());
        assert!(PipelineConfig::default_profile(1).validate().is_ok());
        assert!(PipelineConfig::paper_profile(1).validate().is_ok());
    }

    #[test]
    fn paper_profile_matches_section_iv_a() {
        let cfg = PipelineConfig::paper_profile(0);
        assert_eq!(cfg.lm.hidden, 256);
        assert_eq!(cfg.lm.batch_size, 32);
        assert!((cfg.lm.dropout - 0.4).abs() < 1e-6);
        assert!((cfg.lm.learning_rate - 1e-3).abs() < 1e-9);
        assert_eq!(cfg.expert.target_clusters, 13);
        assert_eq!(cfg.lock_in, 15);
    }

    #[test]
    fn parallelism_zero_clamps_to_one() {
        let mut cfg = PipelineConfig::test_profile(0);
        assert!(cfg.parallelism >= 1, "profiles default to at least 1 worker");
        cfg.parallelism = 0;
        assert_eq!(cfg.effective_parallelism(), 1);
        assert!(cfg.validate().is_ok(), "0 workers is clamped, not rejected");
        cfg.parallelism = 8;
        assert_eq!(cfg.effective_parallelism(), 8);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = PipelineConfig::test_profile(0);
        cfg.lock_in = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = PipelineConfig::test_profile(0);
        cfg.train_frac = 0.9;
        cfg.val_frac = 0.2;
        assert!(cfg.validate().is_err());
        let mut cfg = PipelineConfig::test_profile(0);
        cfg.topic_counts.clear();
        assert!(cfg.validate().is_err());
    }
}
