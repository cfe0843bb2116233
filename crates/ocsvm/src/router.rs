#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use ibcm_logsim::{ActionId, ClusterId};
use serde::{Deserialize, Serialize};

use crate::features::SessionFeaturizer;
use crate::kernel::nonzeros;
use crate::svm::OcSvm;

/// How a session was routed to a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteDecision {
    /// The winning cluster.
    pub cluster: ClusterId,
    /// Decision scores of every cluster's OC-SVM, indexed by cluster.
    pub scores: Vec<f64>,
}

/// Routes sessions to behavior clusters by comparing the decision scores of
/// the per-cluster OC-SVMs (the paper's `w_max = max_i f_i(s)`, §III).
///
/// # Example
///
/// ```
/// use ibcm_ocsvm::{ClusterRouter, OcSvm, OcSvmConfig, SessionFeaturizer};
/// use ibcm_logsim::{ActionId, ClusterId};
/// let featurizer = SessionFeaturizer::new(3, false);
/// let cluster0: Vec<Vec<f64>> = (0..20).map(|_| featurizer.features(&[ActionId(0), ActionId(0)])).collect();
/// let cluster1: Vec<Vec<f64>> = (0..20).map(|_| featurizer.features(&[ActionId(2), ActionId(2)])).collect();
/// let cfg = OcSvmConfig::default();
/// let router = ClusterRouter::new(
///     vec![OcSvm::train(&cluster0, &cfg)?, OcSvm::train(&cluster1, &cfg)?],
///     featurizer,
/// );
/// let d = router.route(&[ActionId(2), ActionId(2), ActionId(2)]);
/// assert_eq!(d.cluster, ClusterId(1));
/// # Ok::<(), ibcm_ocsvm::OcSvmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRouter {
    svms: Vec<OcSvm>,
    featurizer: SessionFeaturizer,
}

impl ClusterRouter {
    /// Builds a router from one OC-SVM per cluster (index = cluster id).
    ///
    /// # Panics
    ///
    /// Panics if `svms` is empty or any SVM's dimension disagrees with the
    /// featurizer.
    pub fn new(svms: Vec<OcSvm>, featurizer: SessionFeaturizer) -> Self {
        assert!(!svms.is_empty(), "router needs at least one cluster");
        for (i, svm) in svms.iter().enumerate() {
            assert_eq!(
                svm.dim(),
                featurizer.dim(),
                "SVM {i} dimension disagrees with featurizer"
            );
        }
        ClusterRouter { svms, featurizer }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.svms.len()
    }

    /// The featurizer in use.
    pub fn featurizer(&self) -> &SessionFeaturizer {
        &self.featurizer
    }

    /// The per-cluster SVMs, indexed by cluster.
    pub fn svms(&self) -> &[OcSvm] {
        &self.svms
    }

    /// Per-cluster OC-SVM decision scores for an action sequence (or
    /// prefix).
    ///
    /// The features' non-zero entries are listed once per call and shared
    /// by every cluster's SVM, so an RBF kernel value costs the union of
    /// two bags' non-zeros (a handful of actions) rather than the whole
    /// vocabulary. Each score has the same bits as [`OcSvm::decision`].
    pub fn scores(&self, actions: &[ActionId]) -> Vec<f64> {
        let x = self.featurizer.features(actions);
        let nz = nonzeros(&x);
        self.svms
            .iter()
            .map(|s| s.decision_with_nonzeros(&x, &nz))
            .collect()
    }

    /// Routes a full session to the highest-scoring cluster.
    pub fn route(&self, actions: &[ActionId]) -> RouteDecision {
        let scores = self.scores(actions);
        let cluster = argmax(&scores);
        count_route(cluster);
        RouteDecision {
            cluster: ClusterId(cluster),
            scores,
        }
    }

    /// The paper's online lock-in rule (§IV-C): route each prefix of the
    /// first `lock_in` actions, then fix the **most frequently chosen**
    /// cluster for the rest of the session.
    pub fn route_with_lock_in(&self, actions: &[ActionId], lock_in: usize) -> RouteDecision {
        let horizon = actions.len().min(lock_in.max(1));
        let mut votes = vec![0usize; self.svms.len()];
        let mut last_scores = vec![0.0; self.svms.len()];
        #[expect(clippy::indexing_slicing, reason = "end <= horizon <= actions.len(), so the prefix slice is always in bounds; argmax returns an index < scores.len() == svms.len() == votes.len(), and new() asserts svms is non-empty")]
        for end in 1..=horizon {
            let scores = self.scores(&actions[..end]);
            votes[argmax(&scores)] += 1;
            last_scores = scores;
        }
        let cluster = argmax_usize(&votes);
        count_route(cluster);
        RouteDecision {
            cluster: ClusterId(cluster),
            scores: last_scores,
        }
    }

    /// Decision scores of a specific cluster's OC-SVM for every prefix of
    /// `actions` — the per-action score curves of Fig. 6.
    #[expect(clippy::indexing_slicing, reason = "an out-of-range cluster is a caller bug; routing only emits clusters < n_clusters; end ranges over 1..=actions.len(), so the prefix slice is always in bounds")]
    pub fn prefix_scores(&self, actions: &[ActionId], cluster: ClusterId) -> Vec<f64> {
        let svm = &self.svms[cluster.index()];
        (1..=actions.len())
            .map(|end| svm.decision(&self.featurizer.features(&actions[..end])))
            .collect()
    }

    /// Maximum decision score across all clusters for every prefix (the
    /// "max score" curve of Fig. 6).
    #[expect(clippy::indexing_slicing, reason = "end ranges over 1..=actions.len(), so the prefix slice is always in bounds")]
    pub fn prefix_max_scores(&self, actions: &[ActionId]) -> Vec<f64> {
        (1..=actions.len())
            .map(|end| {
                self.scores(&actions[..end])
                    .into_iter()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }
}

/// Records one routing decision on `ibcm_route_decisions_total{cluster}`.
/// Once per session (not per action), so the registry lookup is acceptable.
fn count_route(cluster: usize) {
    ibcm_obs::names::ROUTE_DECISIONS
        .counter_labeled(&[("cluster", &cluster.to_string())])
        .inc();
}

fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn argmax_usize(votes: &[usize]) -> usize {
    votes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::OcSvmConfig;

    fn two_cluster_router() -> ClusterRouter {
        let featurizer = SessionFeaturizer::new(4, false);
        let c0: Vec<Vec<f64>> = (0..25)
            .map(|i| {
                let mut acts = vec![ActionId(0); 3 + i % 3];
                acts.push(ActionId(1));
                featurizer.features(&acts)
            })
            .collect();
        let c1: Vec<Vec<f64>> = (0..25)
            .map(|i| {
                let mut acts = vec![ActionId(2); 3 + i % 3];
                acts.push(ActionId(3));
                featurizer.features(&acts)
            })
            .collect();
        let cfg = OcSvmConfig::default();
        ClusterRouter::new(
            vec![
                OcSvm::train(&c0, &cfg).unwrap(),
                OcSvm::train(&c1, &cfg).unwrap(),
            ],
            featurizer,
        )
    }

    #[test]
    fn routes_to_matching_cluster() {
        let r = two_cluster_router();
        assert_eq!(
            r.route(&[ActionId(0), ActionId(0), ActionId(1)]).cluster,
            ClusterId(0)
        );
        assert_eq!(
            r.route(&[ActionId(2), ActionId(2), ActionId(3)]).cluster,
            ClusterId(1)
        );
    }

    #[test]
    fn lock_in_votes_over_prefixes() {
        let r = two_cluster_router();
        // Mostly cluster-0 actions with a late cluster-1 tail: lock-in over
        // the first actions should still say cluster 0.
        let mut acts = vec![ActionId(0); 10];
        acts.extend(vec![ActionId(2); 3]);
        let d = r.route_with_lock_in(&acts, 10);
        assert_eq!(d.cluster, ClusterId(0));
    }

    #[test]
    fn prefix_scores_lengths() {
        let r = two_cluster_router();
        let acts = vec![ActionId(0); 7];
        assert_eq!(r.prefix_scores(&acts, ClusterId(0)).len(), 7);
        assert_eq!(r.prefix_max_scores(&acts).len(), 7);
    }

    #[test]
    fn max_scores_dominate_each_cluster_curve() {
        let r = two_cluster_router();
        let acts = vec![ActionId(0), ActionId(0), ActionId(1), ActionId(0)];
        let maxes = r.prefix_max_scores(&acts);
        for c in 0..2 {
            for (m, s) in maxes.iter().zip(r.prefix_scores(&acts, ClusterId(c))) {
                assert!(*m >= s - 1e-12);
            }
        }
    }

    #[test]
    fn scores_length_matches_clusters() {
        let r = two_cluster_router();
        assert_eq!(r.scores(&[ActionId(0)]).len(), 2);
        assert_eq!(r.n_clusters(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_router_panics() {
        let _ = ClusterRouter::new(vec![], SessionFeaturizer::new(2, false));
    }
}
