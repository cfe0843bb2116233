use serde::{Deserialize, Serialize};

use crate::error::TopicsError;
use crate::lda::{Lda, LdaConfig, TopicModel};

/// Identifier of a topic within an [`Ensemble`]'s flat topic list.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TopicId(pub usize);

impl TopicId {
    /// The raw index into [`Ensemble::topics`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TopicId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One topic of one ensemble member, with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topic {
    /// Global id within the ensemble.
    pub id: TopicId,
    /// Which LDA run produced it.
    pub run: usize,
    /// Topic index inside that run.
    pub local_index: usize,
    /// The topic-action distribution (`phi` row).
    pub distribution: Vec<f64>,
    /// Fraction of the corpus' documents whose dominant topic this is —
    /// shown in the interface as topic size.
    pub weight: f64,
}

/// Configuration of an LDA ensemble: the paper runs LDA "with different
/// parameters, e.g. number of topics, multiple times".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Topic counts to sweep (one run per count per seed).
    pub topic_counts: Vec<usize>,
    /// Number of seeds per topic count.
    pub runs_per_count: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Document-topic prior.
    pub alpha: f64,
    /// Topic-word prior.
    pub beta: f64,
    /// Gibbs sweeps per run.
    pub iterations: usize,
    /// Base seed; member `i` uses `seed + i`.
    pub seed: u64,
}

impl EnsembleConfig {
    /// A modest default grid around the paper's 13 clusters.
    pub fn standard(vocab: usize, seed: u64) -> Self {
        EnsembleConfig {
            topic_counts: vec![10, 13, 16, 20],
            runs_per_count: 2,
            vocab,
            alpha: 0.1,
            beta: 0.01,
            iterations: 60,
            seed,
        }
    }
}

/// An ensemble of fitted LDA models with a flat, provenance-tagged list of
/// all their topics — the data structure behind the visual interface's topic
/// projection, matrix, and chord views.
///
/// # Example
///
/// ```
/// use ibcm_topics::{Ensemble, EnsembleConfig};
/// let docs = vec![vec![0, 1, 0], vec![2, 3, 2], vec![0, 0, 1]];
/// let cfg = EnsembleConfig {
///     topic_counts: vec![2, 3],
///     runs_per_count: 1,
///     iterations: 20,
///     ..EnsembleConfig::standard(4, 5)
/// };
/// let ens = Ensemble::fit(&cfg, &docs)?;
/// assert_eq!(ens.runs().len(), 2);
/// assert_eq!(ens.topics().len(), 5);
/// # Ok::<(), ibcm_topics::TopicsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ensemble {
    runs: Vec<TopicModel>,
    topics: Vec<Topic>,
}

impl Ensemble {
    /// Fits every ensemble member. Members are independent, so they are
    /// trained on the shared [`ibcm_par`] worker pool; member `i` derives
    /// its seed from the configuration alone, so results are identical at
    /// any thread count (see DESIGN.md, "Parallelism & determinism").
    ///
    /// # Errors
    ///
    /// Propagates the first member error ([`TopicsError`]) in
    /// configuration order.
    pub fn fit(config: &EnsembleConfig, docs: &[Vec<usize>]) -> Result<Self, TopicsError> {
        let _span = ibcm_obs::span!("lda_ensemble_fit");
        let mut member_cfgs = Vec::new();
        for &k in &config.topic_counts {
            for r in 0..config.runs_per_count {
                member_cfgs.push(LdaConfig {
                    n_topics: k,
                    vocab: config.vocab,
                    alpha: config.alpha,
                    beta: config.beta,
                    iterations: config.iterations,
                    seed: config
                        .seed
                        .wrapping_add((k as u64) << 16)
                        .wrapping_add(r as u64),
                });
            }
        }
        if member_cfgs.is_empty() {
            return Err(TopicsError::InvalidConfig(
                "ensemble needs at least one member".into(),
            ));
        }

        let results: Vec<Result<TopicModel, TopicsError>> = ibcm_par::run_jobs(
            ibcm_par::default_threads(),
            member_cfgs
                .iter()
                .map(|cfg| {
                    let cfg = *cfg;
                    move || Lda::new(cfg).fit(docs)
                })
                .collect(),
        );

        let mut runs = Vec::with_capacity(results.len());
        for r in results {
            runs.push(r?);
        }

        let mut topics = Vec::new();
        for (run_idx, model) in runs.iter().enumerate() {
            // Topic weight: share of documents with this dominant topic.
            let mut dom_counts = vec![0usize; model.n_topics()];
            for di in 0..model.n_docs() {
                dom_counts[model.dominant_topic(di)] += 1;
            }
            for t in 0..model.n_topics() {
                topics.push(Topic {
                    id: TopicId(topics.len()),
                    run: run_idx,
                    local_index: t,
                    distribution: model.phi(t).to_vec(),
                    weight: dom_counts[t] as f64 / model.n_docs().max(1) as f64,
                });
            }
        }
        Ok(Ensemble { runs, topics })
    }

    /// The fitted ensemble members, in configuration order.
    pub fn runs(&self) -> &[TopicModel] {
        &self.runs
    }

    /// All topics across all members, with provenance.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// Pairwise Jensen–Shannon distance matrix over all ensemble topics.
    pub fn distance_matrix(&self) -> Vec<Vec<f64>> {
        let dists: Vec<Vec<f64>> = self.topics.iter().map(|t| t.distribution.clone()).collect();
        crate::similarity::topic_distance_matrix(&dists)
    }

    /// The medoid (most central topic) of a group of topic ids: the member
    /// minimizing total JS distance to the rest. The interface highlights
    /// this for the expert (§III).
    ///
    /// Returns `None` for an empty group.
    pub fn medoid(&self, group: &[TopicId]) -> Option<TopicId> {
        if group.is_empty() {
            return None;
        }
        let mut best = group[0];
        let mut best_cost = f64::INFINITY;
        for &candidate in group {
            let cost: f64 = group
                .iter()
                .map(|&other| {
                    crate::similarity::js_divergence(
                        &self.topics[candidate.index()].distribution,
                        &self.topics[other.index()].distribution,
                    )
                })
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best = candidate;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<usize>> {
        let mut docs = Vec::new();
        for i in 0..24 {
            docs.push(match i % 3 {
                0 => vec![0, 1, 0, 1, 0],
                1 => vec![2, 3, 2, 3, 3],
                _ => vec![4, 5, 4, 5, 4],
            });
        }
        docs
    }

    fn small_ensemble() -> Ensemble {
        let cfg = EnsembleConfig {
            topic_counts: vec![3, 4],
            runs_per_count: 2,
            iterations: 30,
            ..EnsembleConfig::standard(6, 11)
        };
        Ensemble::fit(&cfg, &corpus()).unwrap()
    }

    #[test]
    fn member_and_topic_counts() {
        let e = small_ensemble();
        assert_eq!(e.runs().len(), 4);
        assert_eq!(e.topics().len(), 3 + 3 + 4 + 4);
        for (i, t) in e.topics().iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn weights_sum_to_one_per_run() {
        let e = small_ensemble();
        for run in 0..e.runs().len() {
            let s: f64 = e
                .topics()
                .iter()
                .filter(|t| t.run == run)
                .map(|t| t.weight)
                .sum();
            assert!((s - 1.0).abs() < 1e-9, "run {run} weights sum to {s}");
        }
    }

    #[test]
    fn distance_matrix_dimensions() {
        let e = small_ensemble();
        let d = e.distance_matrix();
        assert_eq!(d.len(), e.topics().len());
        assert!(d.iter().all(|row| row.len() == e.topics().len()));
    }

    #[test]
    fn medoid_of_singleton_is_itself() {
        let e = small_ensemble();
        assert_eq!(e.medoid(&[TopicId(2)]), Some(TopicId(2)));
        assert_eq!(e.medoid(&[]), None);
    }

    #[test]
    fn medoid_is_central() {
        let e = small_ensemble();
        let group: Vec<TopicId> = e.topics().iter().map(|t| t.id).collect();
        let m = e.medoid(&group).unwrap();
        assert!(m.index() < e.topics().len());
    }

    #[test]
    fn empty_grid_rejected() {
        let cfg = EnsembleConfig {
            topic_counts: vec![],
            ..EnsembleConfig::standard(6, 0)
        };
        assert!(Ensemble::fit(&cfg, &corpus()).is_err());
    }
}
