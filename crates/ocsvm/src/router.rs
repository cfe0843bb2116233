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
    /// by every cluster's SVM, and each SVM makes one column pass over its
    /// support vectors (see [`OcSvm::decision`]): a merge of those entries
    /// with the columns its support vectors use, not one per support
    /// vector. Each score has the same bits as [`OcSvm::decision`].
    pub fn scores(&self, actions: &[ActionId]) -> Vec<f64> {
        let x = self.featurizer.features(actions);
        let nz = nonzeros(&x);
        let mut acc = Vec::new();
        self.svms
            .iter()
            .map(|s| s.decision_with_nonzeros(&x, &nz, &mut acc))
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
    /// cluster for the rest of the session (the higher cluster index on a
    /// tie; the last cluster for an empty session).
    ///
    /// The prefixes vote through a [`LockInVote`], which stops scoring
    /// them once the remaining prefixes can no longer change the winner,
    /// so no final prefix's scores exist to return: the result is the
    /// voted cluster alone.
    pub fn route_with_lock_in(&self, actions: &[ActionId], lock_in: usize) -> ClusterId {
        let horizon = actions.len().min(lock_in.max(1));
        let mut vote = LockInVote::new(self.svms.len(), horizon);
        for prefix in (1..=horizon).filter_map(|end| actions.get(..end)) {
            if vote.is_settled() {
                break;
            }
            vote.cast(self, prefix);
        }
        let cluster = vote.leader();
        count_route(cluster.index());
        cluster
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

/// The paper's lock-in majority vote (§IV-C), one ballot per prefix: each
/// of a session's first `lock_in` prefixes votes for the cluster whose
/// OC-SVM scores it highest, and the cluster with the most votes wins, the
/// higher cluster index on a tie.
///
/// The vote is *settled* once no split of the ballots still to come can
/// change the winner: every other cluster, given all of them, would still
/// trail the leader or tie it from a lower index. From then on the leader
/// is also the leader after every later ballot, so [`LockInVote::cast`]
/// scores no more prefixes. [`ClusterRouter::route_with_lock_in`] and the
/// online monitor in `ibcm-core` both vote through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInVote {
    votes: Vec<usize>,
    /// Ballots not yet cast.
    remaining: usize,
}

impl LockInVote {
    /// A vote among `n_clusters` clusters over `ballots` prefixes.
    pub fn new(n_clusters: usize, ballots: usize) -> Self {
        LockInVote {
            votes: vec![0; n_clusters],
            remaining: ballots,
        }
    }

    /// The cluster with the most votes so far, the higher index on a tie
    /// (so the last cluster before any ballot is cast).
    pub fn leader(&self) -> ClusterId {
        ClusterId(self.lead().0)
    }

    /// Whether the winner is decided: no split of the remaining ballots
    /// can make another cluster the leader. Always true once every ballot
    /// is cast.
    pub fn is_settled(&self) -> bool {
        let (leader, lead) = self.lead();
        self.votes.iter().enumerate().all(|(c, &v)| {
            let best = v.saturating_add(self.remaining);
            c == leader || best < lead || (best == lead && c < leader)
        })
    }

    /// Casts the next ballot: `prefix` votes for the cluster whose OC-SVM
    /// scores it highest in `router` (the higher index on a tie). A settled
    /// vote scores nothing and records nothing.
    pub fn cast(&mut self, router: &ClusterRouter, prefix: &[ActionId]) {
        if !self.is_settled() {
            self.record(argmax(&router.scores(prefix)));
        }
    }

    /// Records one ballot for `cluster`.
    fn record(&mut self, cluster: usize) {
        if let Some(v) = self.votes.get_mut(cluster) {
            *v += 1;
        }
        self.remaining = self.remaining.saturating_sub(1);
    }

    /// The leader's index and vote count.
    fn lead(&self) -> (usize, usize) {
        self.votes.iter().enumerate().fold(
            (0, 0),
            |best, (c, &v)| if v >= best.1 { (c, v) } else { best },
        )
    }
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
        assert_eq!(r.route_with_lock_in(&acts, 10), ClusterId(0));
    }

    /// The winner of final vote counts under the tie rule: the most
    /// votes, the higher index on a tie.
    fn winner(votes: &[usize]) -> usize {
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map_or(0, |(i, _)| i)
    }

    /// Every way to split `total` ballots among `parts` clusters.
    fn splits(total: usize, parts: usize) -> Vec<Vec<usize>> {
        if parts == 0 {
            return if total == 0 {
                vec![Vec::new()]
            } else {
                Vec::new()
            };
        }
        (0..=total)
            .flat_map(|first| {
                splits(total - first, parts - 1)
                    .into_iter()
                    .map(move |mut rest| {
                        rest.insert(0, first);
                        rest
                    })
            })
            .collect()
    }

    /// A vote over `ballots` with `votes` already cast, cluster by cluster.
    fn vote_with(votes: &[usize], ballots: usize) -> LockInVote {
        let mut vote = LockInVote::new(votes.len(), ballots);
        for (c, &n) in votes.iter().enumerate() {
            for _ in 0..n {
                vote.record(c);
            }
        }
        vote
    }

    #[test]
    fn vote_is_settled_exactly_when_no_split_of_the_rest_changes_the_leader() {
        let mut settled_early = 0;
        for n in 1..=4 {
            for ballots in 0..=6 {
                for cast in 0..=ballots {
                    for votes in splits(cast, n) {
                        let vote = vote_with(&votes, ballots);
                        let leader = winner(&votes);
                        assert_eq!(vote.leader(), ClusterId(leader), "{votes:?}");
                        let unchangeable = splits(ballots - cast, n).iter().all(|rest| {
                            let total: Vec<usize> =
                                votes.iter().zip(rest).map(|(v, r)| v + r).collect();
                            winner(&total) == leader
                        });
                        assert_eq!(
                            vote.is_settled(),
                            unchangeable,
                            "{votes:?} with {} to come",
                            ballots - cast
                        );
                        settled_early += usize::from(unchangeable && cast < ballots && n > 1);
                    }
                }
            }
        }
        assert!(settled_early > 0);
    }

    #[test]
    fn vote_ties_resolve_to_the_higher_index() {
        // A lower-index challenger that could only tie the leader cannot
        // take the lead; a higher-index one can.
        let vote = vote_with(&[2, 3, 1], 7);
        assert_eq!(vote.leader(), ClusterId(1));
        assert!(vote.is_settled());
        let vote = vote_with(&[1, 3, 2], 7);
        assert_eq!(vote.leader(), ClusterId(1));
        assert!(!vote.is_settled());
        // Tied leaders: the higher index leads, on either side.
        assert_eq!(vote_with(&[3, 3, 1], 7).leader(), ClusterId(1));
        assert_eq!(vote_with(&[1, 3, 3], 7).leader(), ClusterId(2));
        assert!(!vote_with(&[3, 3, 0], 7).is_settled());
        assert!(vote_with(&[3, 3, 0], 6).is_settled());
    }

    #[test]
    fn vote_with_no_ballots_left_is_settled() {
        for n in 1..=5 {
            let vote = LockInVote::new(n, 0);
            assert!(vote.is_settled());
            assert_eq!(
                vote.leader(),
                ClusterId(n - 1),
                "the last cluster wins an empty vote"
            );
        }
        let mut vote = LockInVote::new(3, 2);
        vote.record(0);
        vote.record(2);
        assert!(vote.is_settled());
        assert_eq!(vote.leader(), ClusterId(2));
    }

    #[test]
    fn vote_with_ballots_to_come_is_never_settled_before_the_first() {
        for n in 2..=6 {
            for ballots in 1..=20 {
                assert!(
                    !LockInVote::new(n, ballots).is_settled(),
                    "{n} clusters, {ballots} ballots"
                );
            }
        }
    }

    #[test]
    fn settled_vote_scores_and_records_nothing() {
        let r = two_cluster_router();
        let acts = vec![ActionId(0); 6];
        let mut vote = LockInVote::new(2, 5);
        for end in 1..=3 {
            vote.cast(&r, &acts[..end]);
        }
        assert_eq!(vote, vote_with(&[3, 0], 5));
        assert!(vote.is_settled());
        vote.cast(&r, &acts[..4]);
        assert_eq!(vote, vote_with(&[3, 0], 5));
        assert_eq!(r.route_with_lock_in(&acts, 5), ClusterId(0));
    }

    #[test]
    fn empty_session_routes_to_the_last_cluster() {
        assert_eq!(
            two_cluster_router().route_with_lock_in(&[], 15),
            ClusterId(1)
        );
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
