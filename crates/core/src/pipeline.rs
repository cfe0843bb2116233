use ibcm_lm::{LmTrainConfig, LstmLm};
use ibcm_logsim::{split_sessions, ClusterId, Dataset, Session};
use ibcm_ocsvm::{ClusterRouter, OcSvm, SessionFeaturizer};
use ibcm_topics::{sessions_to_docs, Ensemble};
use ibcm_viz::{Clustering, ExpertOp, SimulatedExpert};

use crate::config::PipelineConfig;
use crate::detector::MisuseDetector;
use crate::error::CoreError;

/// Records one training-stage duration on `ibcm_stage_seconds{stage}` —
/// the registry-side mirror of [`TrainedPipeline::stage_timings`].
pub(crate) fn observe_stage(stage: &str, seconds: f64) {
    ibcm_obs::names::STAGE_SECONDS
        .histogram_labeled(ibcm_obs::DEFAULT_SECONDS_BUCKETS, &[("stage", stage)])
        .observe(seconds);
}

/// One behavior cluster's sessions, split 70/15/15 as in §IV-B.
#[derive(Debug, Clone)]
pub struct ClusterData {
    /// The cluster's id in the trained detector.
    pub cluster: ClusterId,
    /// Training sessions.
    pub train: Vec<Session>,
    /// Validation sessions.
    pub validation: Vec<Session>,
    /// Test sessions.
    pub test: Vec<Session>,
}

impl ClusterData {
    /// Total sessions across the three splits.
    pub fn size(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }
}

/// The training phase of the paper's Fig. 2.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

/// Everything the training phase produced: the deployable detector plus the
/// intermediate artifacts the evaluation (and the visual interface) needs.
#[derive(Debug)]
pub struct TrainedPipeline {
    detector: MisuseDetector,
    clusters: Vec<ClusterData>,
    ensemble: Ensemble,
    clustering: Clustering,
    expert_log: Vec<ExpertOp>,
    stage_timings: Vec<(String, f64)>,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full training phase on a dataset of normal behavior.
    ///
    /// Per-cluster model training runs on
    /// [`PipelineConfig::parallelism`](crate::PipelineConfig) worker
    /// threads; results are bit-identical at any thread count because every
    /// cluster derives its own seeds (see DESIGN.md, "Parallelism &
    /// determinism").
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the corpus is too
    /// small to form a single cluster, or any component fails to train.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use ibcm_core::{Pipeline, PipelineConfig};
    /// use ibcm_logsim::{Generator, GeneratorConfig};
    ///
    /// let dataset = Generator::new(GeneratorConfig::tiny(7)).generate();
    /// let mut config = PipelineConfig::test_profile(7);
    /// config.parallelism = 4; // same detector as parallelism = 1, faster
    /// let trained = Pipeline::new(config).train(&dataset)?;
    /// assert!(trained.detector().n_clusters() >= 1);
    /// # Ok::<(), ibcm_core::CoreError>(())
    /// ```
    pub fn train(&self, dataset: &Dataset) -> Result<TrainedPipeline, CoreError> {
        let _span = ibcm_obs::span!("pipeline_train");
        self.config.validate()?;
        let catalog = dataset.catalog();
        let vocab = catalog.len();

        // 1. Topic modeling on sessions with at least 2 actions (shorter
        //    ones carry no sequence signal and are dropped by the paper).
        let t0 = ibcm_obs::Stopwatch::start();
        let (docs, origin) = sessions_to_docs(dataset.sessions(), 2);
        if docs.is_empty() {
            return Err(CoreError::InsufficientData(
                "no sessions with at least 2 actions".into(),
            ));
        }
        let ensemble = Ensemble::fit(&self.config.ensemble_config(vocab), &docs)?;
        let t_lda = t0.elapsed_seconds();

        // 2. Informed clustering through the (simulated) expert session.
        let t1 = ibcm_obs::Stopwatch::start();
        let (clustering, expert_log) = SimulatedExpert::new(self.config.expert).run(&ensemble);
        let t_expert = t1.elapsed_seconds();

        // 3. Per-cluster splits.
        let mut cluster_sessions: Vec<Vec<Session>> =
            vec![Vec::new(); clustering.n_clusters()];
        for (doc_idx, &cluster) in clustering.assignment().iter().enumerate() {
            cluster_sessions[cluster.index()]
                .push(dataset.sessions()[origin[doc_idx]].clone());
        }

        // 4. Train one OC-SVM and one LSTM LM per non-degenerate cluster.
        let t2 = ibcm_obs::Stopwatch::start();
        let (detector, clusters) = self.train_clustered(dataset, cluster_sessions)?;
        let t_models = t2.elapsed_seconds();
        observe_stage("lda_ensemble", t_lda);
        observe_stage("expert_clustering", t_expert);
        observe_stage("cluster_models", t_models);
        Ok(TrainedPipeline {
            detector,
            clusters,
            ensemble,
            clustering,
            expert_log,
            stage_timings: vec![
                ("lda_ensemble".to_string(), t_lda),
                ("expert_clustering".to_string(), t_expert),
                ("cluster_models".to_string(), t_models),
            ],
        })
    }

    /// Trains the per-cluster OC-SVMs and language models for an externally
    /// supplied grouping of sessions (used by the clustering ablations as
    /// well as by [`Pipeline::train`]). Groups with fewer than 4 sessions
    /// are skipped; surviving clusters are renumbered contiguously.
    ///
    /// Each group's split → featurize → OC-SVM → LSTM chain is one job on
    /// the shared [`crate::par`] worker pool
    /// ([`PipelineConfig::effective_parallelism`](crate::PipelineConfig::effective_parallelism)
    /// workers). Jobs derive every seed from the group's *original* index
    /// `gi` (`seed.wrapping_add(gi)` for the split,
    /// `lm.seed.wrapping_add(gi)` for the language model) and outputs are
    /// reassembled in group order, so the result is bit-identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientData`] if no group is trainable, or
    /// propagates the first component failure in group order — a failing
    /// job surfaces as a [`CoreError`], it does not panic the pool.
    pub fn train_clustered(
        &self,
        dataset: &Dataset,
        cluster_sessions: Vec<Vec<Session>>,
    ) -> Result<(MisuseDetector, Vec<ClusterData>), CoreError> {
        let _span = ibcm_obs::span!("train_clustered");
        let vocab = dataset.catalog().len();
        let featurizer = SessionFeaturizer::new(vocab, true);
        let svm_config = self.config.ocsvm_config();

        // One job per original group index. Jobs own their sessions and
        // borrow only immutable config, so they are independent; `gi` rides
        // along because the seed derivation must use the original index
        // even for groups that end up skipped or renumbered.
        let config = &self.config;
        let featurizer_ref = &featurizer;
        let svm_config_ref = &svm_config;
        let jobs: Vec<_> = cluster_sessions
            .into_iter()
            .enumerate()
            .map(|(gi, sessions)| {
                move || -> Result<Option<(OcSvm, LstmLm, ibcm_logsim::Split)>, CoreError> {
                    if sessions.len() < 4 {
                        return Ok(None); // cannot split 70/15/15 meaningfully
                    }
                    let split = split_sessions(
                        sessions,
                        config.train_frac,
                        config.val_frac,
                        config.seed.wrapping_add(gi as u64),
                    )?;
                    if split.train.is_empty() {
                        return Ok(None);
                    }
                    let features: Vec<Vec<f64>> = split
                        .train
                        .iter()
                        .map(|s| featurizer_ref.features(s.actions()))
                        .collect();
                    let svm = OcSvm::train(&features, svm_config_ref)?;

                    let encode = |ss: &[Session]| -> Vec<Vec<usize>> {
                        ss.iter()
                            .map(|s| s.actions().iter().map(|a| a.index()).collect())
                            .collect()
                    };
                    let lm_config = LmTrainConfig {
                        vocab,
                        seed: config.lm.seed.wrapping_add(gi as u64),
                        ..config.lm
                    };
                    let model = LstmLm::train(
                        &lm_config,
                        &encode(&split.train),
                        &encode(&split.validation),
                    )?;
                    Ok(Some((svm, model, split)))
                }
            })
            .collect();
        let outputs = ibcm_par::run_jobs(self.config.effective_parallelism(), jobs);

        // Reassemble in group order: renumber survivors contiguously and
        // propagate the first error, exactly as the sequential loop did.
        let mut clusters = Vec::new();
        let mut svms = Vec::new();
        let mut models = Vec::new();
        let mut skipped = 0u64;
        for output in outputs {
            if let Some((svm, model, split)) = output? {
                let cluster = ClusterId(clusters.len());
                clusters.push(ClusterData {
                    cluster,
                    train: split.train,
                    validation: split.validation,
                    test: split.test,
                });
                svms.push(svm);
                models.push(model);
            } else {
                skipped += 1;
            }
        }
        ibcm_obs::names::CLUSTER_MODELS_TRAINED
            .counter()
            .add(clusters.len() as u64);
        ibcm_obs::names::CLUSTER_GROUPS_SKIPPED.counter().add(skipped);
        if clusters.is_empty() {
            return Err(CoreError::InsufficientData(
                "no cluster had enough sessions to train on".into(),
            ));
        }
        ibcm_obs::names::DETECTOR_CLUSTERS
            .gauge()
            .set(clusters.len() as i64);
        let router = ClusterRouter::new(svms, featurizer);
        let detector = MisuseDetector::new(router, models, self.config.lock_in);
        Ok((detector, clusters))
    }
}

impl TrainedPipeline {
    /// The deployable detector.
    pub fn detector(&self) -> &MisuseDetector {
        &self.detector
    }

    /// Per-cluster data splits (cluster order matches the detector's ids).
    pub fn clusters(&self) -> &[ClusterData] {
        &self.clusters
    }

    /// The fitted LDA ensemble (for view export).
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// The expert clustering over the documents.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The expert interaction log.
    pub fn expert_log(&self) -> &[ExpertOp] {
        &self.expert_log
    }

    /// Wall-clock seconds spent in each training stage
    /// (`lda_ensemble` / `expert_clustering` / `cluster_models`) — the cost
    /// breakdown of the paper's Fig. 2 training phase.
    pub fn stage_timings(&self) -> &[(String, f64)] {
        &self.stage_timings
    }

    /// Clusters ordered by ascending total size (paper figure convention).
    pub fn clusters_by_size(&self) -> Vec<&ClusterData> {
        let mut refs: Vec<&ClusterData> = self.clusters.iter().collect();
        refs.sort_by_key(|c| c.size());
        refs
    }

    /// Consumes the pipeline output, returning the detector.
    pub fn into_detector(self) -> MisuseDetector {
        self.detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_logsim::{Generator, GeneratorConfig};

    fn trained() -> (Dataset, TrainedPipeline) {
        let dataset = Generator::new(GeneratorConfig::tiny(11)).generate();
        let pipeline = Pipeline::new(PipelineConfig::test_profile(11));
        let trained = pipeline.train(&dataset).expect("training should succeed");
        (dataset, trained)
    }

    #[test]
    fn end_to_end_training_produces_clusters() {
        let (_, trained) = trained();
        assert!(trained.detector().n_clusters() >= 2);
        assert_eq!(trained.clusters().len(), trained.detector().n_clusters());
        for (i, c) in trained.clusters().iter().enumerate() {
            assert_eq!(c.cluster.index(), i);
            assert!(!c.train.is_empty());
        }
        assert!(!trained.expert_log().is_empty());
    }

    #[test]
    fn splits_are_roughly_70_15_15() {
        let (_, trained) = trained();
        for c in trained.clusters() {
            let total = c.size() as f64;
            let train_frac = c.train.len() as f64 / total;
            assert!(
                (0.55..0.85).contains(&train_frac),
                "train fraction {train_frac}"
            );
        }
    }

    #[test]
    fn detector_separates_normal_from_random() {
        let (dataset, trained) = trained();
        let det = trained.detector();
        // Average likelihood over test sessions vs random sessions.
        let mut normal = 0.0f64;
        let mut n_normal = 0usize;
        for c in trained.clusters() {
            for s in &c.test {
                let v = det.score_session(s.actions());
                if v.score.n_predictions > 0 {
                    normal += v.score.avg_likelihood as f64;
                    n_normal += 1;
                }
            }
        }
        let normal = normal / n_normal.max(1) as f64;
        let mut random = 0.0f64;
        let mut n_random = 0usize;
        for s in dataset.random_sessions(50, 99) {
            let v = det.score_session(s.actions());
            if v.score.n_predictions > 0 {
                random += v.score.avg_likelihood as f64;
                n_random += 1;
            }
        }
        let random = random / n_random.max(1) as f64;
        assert!(
            normal > 2.0 * random,
            "normal likelihood {normal} should dwarf random {random}"
        );
    }

    #[test]
    fn clusters_by_size_ascending() {
        let (_, trained) = trained();
        let ordered = trained.clusters_by_size();
        for w in ordered.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }

    #[test]
    fn training_is_deterministic() {
        let dataset = Generator::new(GeneratorConfig::tiny(13)).generate();
        let a = Pipeline::new(PipelineConfig::test_profile(13))
            .train(&dataset)
            .unwrap();
        let b = Pipeline::new(PipelineConfig::test_profile(13))
            .train(&dataset)
            .unwrap();
        assert_eq!(a.detector().n_clusters(), b.detector().n_clusters());
        let s = dataset.sessions()[0].actions();
        assert_eq!(a.detector().score_session(s), b.detector().score_session(s));
    }
}
