//! Reusable experiment harness: one function per figure of the paper's
//! evaluation (§IV), operating on a [`TrainedPipeline`]. The `ibcm-bench`
//! binaries are thin CSV-writing wrappers around these.

use ibcm_lm::{LmTrainConfig, LstmLm, SequenceEval};
use ibcm_logsim::{ActionId, ClusterId, Dataset, Session};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::pipeline::{ClusterData, TrainedPipeline};

fn encode(sessions: &[Session]) -> Vec<Vec<usize>> {
    sessions
        .iter()
        .map(|s| s.actions().iter().map(|a| a.index()).collect())
        .collect()
}

/// One row of Fig. 4: a cluster model's accuracy on its own test set vs. the
/// average accuracy of the same model on every other cluster's test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterVsOthersRow {
    /// Cluster id.
    pub cluster: ClusterId,
    /// Total sessions in the cluster.
    pub size: usize,
    /// Accuracy on the cluster's own test set.
    pub own_accuracy: f32,
    /// Mean accuracy on the other clusters' test sets.
    pub others_accuracy: f32,
    /// Loss on the own test set.
    pub own_loss: f32,
    /// Mean loss on the other test sets.
    pub others_loss: f32,
}

/// Fig. 4: per-cluster own-vs-others accuracy, rows in ascending cluster
/// size (the paper's x-axis ordering).
pub fn fig4_cluster_vs_others(trained: &TrainedPipeline) -> Vec<ClusterVsOthersRow> {
    let det = trained.detector();
    let test_sets: Vec<Vec<Vec<usize>>> = trained
        .clusters()
        .iter()
        .map(|c| encode(&c.test))
        .collect();
    let mut rows: Vec<ClusterVsOthersRow> = trained
        .clusters()
        .iter()
        .map(|c| {
            let model = det.model(c.cluster);
            let own = model.evaluate(&test_sets[c.cluster.index()]);
            let mut acc_sum = 0.0f64;
            let mut loss_sum = 0.0f64;
            let mut n = 0usize;
            for other in trained.clusters() {
                if other.cluster == c.cluster || test_sets[other.cluster.index()].is_empty() {
                    continue;
                }
                let eval = model.evaluate(&test_sets[other.cluster.index()]);
                if eval.n_predictions > 0 {
                    acc_sum += eval.accuracy as f64;
                    loss_sum += eval.avg_loss as f64;
                    n += 1;
                }
            }
            ClusterVsOthersRow {
                cluster: c.cluster,
                size: c.size(),
                own_accuracy: own.accuracy,
                others_accuracy: (acc_sum / n.max(1) as f64) as f32,
                own_loss: own.avg_loss,
                others_loss: (loss_sum / n.max(1) as f64) as f32,
            }
        })
        .collect();
    rows.sort_by_key(|r| r.size);
    rows
}

/// The global baselines of Figs. 5 and 10: a model trained on the whole
/// corpus and, per cluster, a model trained on a random subset of the same
/// size as the cluster.
#[derive(Debug)]
pub struct GlobalBaselines {
    /// The strong baseline: one model over every cluster's training data.
    pub global: LstmLm,
    /// Per-cluster size-matched random-subset models.
    pub subsets: Vec<LstmLm>,
}

/// Trains the Fig. 5 baselines. `lm` is the same template the pipeline used.
///
/// # Errors
///
/// Propagates language-model training failures.
pub fn train_global_baselines(
    trained: &TrainedPipeline,
    lm: &LmTrainConfig,
    seed: u64,
) -> Result<GlobalBaselines, CoreError> {
    let all_train: Vec<Vec<usize>> = trained
        .clusters()
        .iter()
        .flat_map(|c| encode(&c.train))
        .collect();
    let all_val: Vec<Vec<usize>> = trained
        .clusters()
        .iter()
        .flat_map(|c| encode(&c.validation))
        .collect();
    // The pipeline overwrites the template's vocab with the catalog size;
    // do the same here so the baselines accept the same token space.
    let vocab = trained
        .detector()
        .model(ClusterId(0))
        .vocab_size();
    let global = LstmLm::train(
        &LmTrainConfig {
            vocab,
            seed: seed ^ 0x910ba1,
            ..*lm
        },
        &all_train,
        &all_val,
    )?;
    let mut subsets = Vec::new();
    for c in trained.clusters() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c.cluster.index() as u64));
        let mut pool: Vec<Vec<usize>> = all_train.clone();
        pool.shuffle(&mut rng);
        pool.truncate(c.train.len().max(2));
        let model = LstmLm::train(
            &LmTrainConfig {
                vocab,
                seed: seed ^ (0x5b5e7 + c.cluster.index() as u64),
                ..*lm
            },
            &pool,
            &[],
        )?;
        subsets.push(model);
    }
    Ok(GlobalBaselines { global, subsets })
}

/// One row of Figs. 5 (accuracy) and 10 (loss): cluster model vs. global
/// model vs. size-matched global subset model, on the cluster's test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineComparisonRow {
    /// Cluster id.
    pub cluster: ClusterId,
    /// Total sessions in the cluster.
    pub size: usize,
    /// The cluster model's metrics on its own test set.
    pub cluster_model: SequenceEval,
    /// The global model's metrics on the same test set.
    pub global_model: SequenceEval,
    /// The size-matched subset model's metrics on the same test set.
    pub subset_model: SequenceEval,
}

/// Figs. 5 and 10: per-cluster accuracy/loss of the three models, ascending
/// cluster size.
pub fn fig5_fig10_baselines(
    trained: &TrainedPipeline,
    baselines: &GlobalBaselines,
) -> Vec<BaselineComparisonRow> {
    let det = trained.detector();
    let mut rows: Vec<BaselineComparisonRow> = trained
        .clusters()
        .iter()
        .map(|c| {
            let test = encode(&c.test);
            BaselineComparisonRow {
                cluster: c.cluster,
                size: c.size(),
                cluster_model: det.model(c.cluster).evaluate(&test),
                global_model: baselines.global.evaluate(&test),
                subset_model: baselines.subsets[c.cluster.index()].evaluate(&test),
            }
        })
        .collect();
    rows.sort_by_key(|r| r.size);
    rows
}

/// One position of the Fig. 6 curves: mean OC-SVM decision score at this
/// action position, for the session's true cluster's SVM and for the
/// maximum over all SVMs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcSvmScoreRow {
    /// 1-based action position.
    pub position: usize,
    /// Mean decision score of the true cluster's OC-SVM.
    pub right_mean: f64,
    /// Mean of the per-session maximum score over all OC-SVMs.
    pub max_mean: f64,
    /// Sessions long enough to contribute at this position.
    pub count: usize,
}

/// Fig. 6: per-position OC-SVM score development over the united test sets.
///
/// Per-session prefix scores are computed on `threads` workers; the
/// position-wise sums are folded sequentially in session order, so the
/// output is bit-identical to the single-threaded run.
pub fn fig6_ocsvm_scores(
    trained: &TrainedPipeline,
    max_positions: usize,
    threads: usize,
) -> Vec<OcSvmScoreRow> {
    let router = trained.detector().router();
    let sessions: Vec<(&Session, ClusterId)> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.iter().map(move |s| (s, c.cluster)))
        .collect();
    let per_session: Vec<Option<(Vec<f64>, Vec<f64>)>> =
        ibcm_par::par_map(threads, &sessions, |_, &(s, cluster)| {
            let horizon = s.len().min(max_positions);
            if horizon == 0 {
                return None;
            }
            let prefix = &s.actions()[..horizon];
            Some((
                router.prefix_scores(prefix, cluster),
                router.prefix_max_scores(prefix),
            ))
        });
    let mut right = vec![0.0f64; max_positions];
    let mut maxes = vec![0.0f64; max_positions];
    let mut counts = vec![0usize; max_positions];
    for (right_scores, max_scores) in per_session.into_iter().flatten() {
        for (p, (r, m)) in right_scores.iter().zip(max_scores.iter()).enumerate() {
            right[p] += r;
            maxes[p] += m;
            counts[p] += 1;
        }
    }
    (0..max_positions)
        .filter(|&p| counts[p] > 0)
        .map(|p| OcSvmScoreRow {
            position: p + 1,
            right_mean: right[p] / counts[p] as f64,
            max_mean: maxes[p] / counts[p] as f64,
            count: counts[p],
        })
        .collect()
}

/// One position of the Fig. 7 curves: mean (and spread of) next-action
/// likelihood under the two online routing baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineLikelihoodRow {
    /// 1-based *predicted* position (the session's second action is 1).
    pub position: usize,
    /// Mean likelihood when the cluster is re-predicted every step.
    pub every_step_mean: f64,
    /// Standard deviation for the every-step baseline.
    pub every_step_std: f64,
    /// Mean likelihood when the cluster locks in after the first 15 actions.
    pub locked_mean: f64,
    /// Standard deviation for the locked baseline.
    pub locked_std: f64,
    /// Sessions contributing at this position.
    pub count: usize,
}

/// Fig. 7: the online regime over the united test sets, comparing
/// every-step routing against first-`lock_in` majority-vote routing.
///
/// The per-session simulation (the expensive part: one LM scorer per
/// cluster, advanced action by action) runs on `threads` workers; each
/// session's per-position likelihood pairs are folded into the global
/// sums sequentially in session order, so the output is bit-identical to
/// the single-threaded run.
pub fn fig7_online_likelihood(
    trained: &TrainedPipeline,
    max_positions: usize,
    threads: usize,
) -> Vec<OnlineLikelihoodRow> {
    let det = trained.detector();
    let router = det.router();
    let k = det.n_clusters();
    let sessions: Vec<&Session> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.iter())
        .collect();
    // (p_every, p_locked) per predicted position of one session.
    let per_session: Vec<Vec<(f64, f64)>> =
        ibcm_par::par_map(threads, &sessions, |_, &s| {
            let tokens = det.encode(s.actions());
            let mut pairs = Vec::new();
            if tokens.len() < 2 {
                return pairs;
            }
            let locked = router
                .route_with_lock_in(s.actions(), det.lock_in())
                .cluster;
            let mut scorers: Vec<_> = (0..k)
                .map(|ci| det.model(ClusterId(ci)).scorer())
                .collect();
            scorers.iter_mut().for_each(|sc| sc.advance(tokens[0]));
            for (t, &tok) in tokens.iter().enumerate().skip(1) {
                if t > max_positions {
                    break;
                }
                // Baseline 1: cluster re-predicted from the observed prefix.
                let every_cluster =
                    router.route(&s.actions()[..t]).cluster;
                pairs.push((
                    scorers[every_cluster.index()].probs()[tok] as f64,
                    scorers[locked.index()].probs()[tok] as f64,
                ));
                scorers.iter_mut().for_each(|sc| sc.advance(tok));
            }
            pairs
        });
    let mut acc = vec![[0.0f64; 4]; max_positions]; // sum, sq, lsum, lsq
    let mut counts = vec![0usize; max_positions];
    for pairs in per_session {
        for (pos, (p_every, p_locked)) in pairs.into_iter().enumerate() {
            acc[pos][0] += p_every;
            acc[pos][1] += p_every * p_every;
            acc[pos][2] += p_locked;
            acc[pos][3] += p_locked * p_locked;
            counts[pos] += 1;
        }
    }
    (0..max_positions)
        .filter(|&p| counts[p] > 0)
        .map(|p| {
            let n = counts[p] as f64;
            let mean_e = acc[p][0] / n;
            let mean_l = acc[p][2] / n;
            OnlineLikelihoodRow {
                position: p + 1,
                every_step_mean: mean_e,
                every_step_std: (acc[p][1] / n - mean_e * mean_e).max(0.0).sqrt(),
                locked_mean: mean_l,
                locked_std: (acc[p][3] / n - mean_l * mean_l).max(0.0).sqrt(),
                count: counts[p],
            }
        })
        .collect()
}

/// One bar of Figs. 8 and 9: normality of a session population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalityRow {
    /// Population label (`"test"` or `"random"`).
    pub label: String,
    /// Mean per-session average likelihood.
    pub avg_likelihood: f64,
    /// Mean per-session average loss.
    pub avg_loss: f64,
    /// Scored sessions.
    pub sessions: usize,
}

/// Figs. 8 and 9: normality of the real test sessions vs. the artificial
/// random test set (same count, lengths uniform in `[5, 25]`, uniform
/// actions — §IV-D).
///
/// Scoring is batched over `threads` workers via
/// [`MisuseDetector::score_sessions`](crate::MisuseDetector::score_sessions);
/// the population means are folded in session order, so the output is
/// bit-identical to the single-threaded run.
pub fn fig8_fig9_normality(
    trained: &TrainedPipeline,
    dataset: &Dataset,
    seed: u64,
    threads: usize,
) -> Vec<NormalityRow> {
    let det = trained.detector();
    let score_all = |sessions: &[Session]| -> (f64, f64, usize) {
        let refs: Vec<&[ActionId]> = sessions.iter().map(|s| s.actions()).collect();
        let mut lik = 0.0;
        let mut loss = 0.0;
        let mut n = 0usize;
        for v in det.score_sessions(&refs, threads) {
            if v.score.n_predictions > 0 {
                lik += v.score.avg_likelihood as f64;
                loss += v.score.avg_loss as f64;
                n += 1;
            }
        }
        (lik / n.max(1) as f64, loss / n.max(1) as f64, n)
    };
    let test_sessions: Vec<Session> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.clone())
        .collect();
    let random_sessions = dataset.random_sessions(test_sessions.len(), seed);
    let (tl, to, tn) = score_all(&test_sessions);
    let (rl, ro, rn) = score_all(&random_sessions);
    vec![
        NormalityRow {
            label: "test".into(),
            avg_likelihood: tl,
            avg_loss: to,
            sessions: tn,
        },
        NormalityRow {
            label: "random".into(),
            avg_likelihood: rl,
            avg_loss: ro,
            sessions: rn,
        },
    ]
}

/// One row of Figs. 11 and 12: per-cluster normality under four baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerClusterNormalityRow {
    /// Cluster id.
    pub cluster: ClusterId,
    /// Total sessions in the cluster.
    pub size: usize,
    /// Scoring with the known true cluster's model.
    pub true_cluster: SequenceEval,
    /// Scoring with the cluster predicted by full-session OC-SVM argmax.
    pub routed: SequenceEval,
    /// Scoring with the cluster locked in over the first 15 actions.
    pub locked: SequenceEval,
    /// Scoring with the global model.
    pub global: SequenceEval,
}

/// Figs. 11 and 12: per-cluster normality (likelihood and loss) for the four
/// baselines the appendix compares, ascending cluster size.
///
/// Each cluster's row is an independent job on `threads` workers; rows are
/// collected in cluster order before the final size sort, so the output is
/// bit-identical to the single-threaded run.
pub fn fig11_fig12_per_cluster(
    trained: &TrainedPipeline,
    global: &LstmLm,
    threads: usize,
) -> Vec<PerClusterNormalityRow> {
    let det = trained.detector();
    let mut rows: Vec<PerClusterNormalityRow> =
        ibcm_par::par_map(threads, trained.clusters(), |_, c| {
            let test_tokens = encode(&c.test);
            let true_eval = det.model(c.cluster).evaluate(&test_tokens);
            let eval_with = |pick: &dyn Fn(&Session) -> ClusterId| -> SequenceEval {
                let mut lik = 0.0f64;
                let mut loss = 0.0f64;
                let mut acc = 0.0f64;
                let mut n = 0usize;
                for s in &c.test {
                    let cl = pick(s);
                    let eval = det
                        .model(cl)
                        .evaluate(std::slice::from_ref(&det.encode(s.actions())));
                    if eval.n_predictions > 0 {
                        lik += (eval.avg_likelihood as f64) * eval.n_predictions as f64;
                        loss += (eval.avg_loss as f64) * eval.n_predictions as f64;
                        acc += (eval.accuracy as f64) * eval.n_predictions as f64;
                        n += eval.n_predictions;
                    }
                }
                SequenceEval {
                    accuracy: (acc / n.max(1) as f64) as f32,
                    avg_loss: (loss / n.max(1) as f64) as f32,
                    avg_likelihood: (lik / n.max(1) as f64) as f32,
                    n_predictions: n,
                }
            };
            let routed = eval_with(&|s| det.router().route(s.actions()).cluster);
            let locked = eval_with(&|s| {
                det.router()
                    .route_with_lock_in(s.actions(), det.lock_in())
                    .cluster
            });
            PerClusterNormalityRow {
                cluster: c.cluster,
                size: c.size(),
                true_cluster: true_eval,
                routed,
                locked,
                global: global.evaluate(&test_tokens),
            }
        });
    rows.sort_by_key(|r| r.size);
    rows
}

/// A suspicious session surfaced for analyst review (§IV-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuspiciousSession {
    /// Rank (0 = most suspicious).
    pub rank: usize,
    /// The session's actions, rendered with catalog names.
    pub actions: Vec<String>,
    /// Routed cluster.
    pub cluster: ClusterId,
    /// Average likelihood under the routed model.
    pub avg_likelihood: f32,
    /// Average loss under the routed model.
    pub avg_loss: f32,
    /// Whether the session came from the injected misuse set (ground truth
    /// available only in simulation).
    pub injected_misuse: bool,
}

/// §IV-D: mixes the united test sets with `n_misuse` injected misuse bursts
/// and returns the top-`k` most suspicious sessions.
///
/// Scoring runs on `threads` workers via
/// [`MisuseDetector::rank_suspicious_par`](crate::MisuseDetector::rank_suspicious_par);
/// the ranking (including tie order) is identical at any thread count.
pub fn top_suspicious(
    trained: &TrainedPipeline,
    dataset: &Dataset,
    n_misuse: usize,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<SuspiciousSession> {
    let det = trained.detector();
    let mut sessions: Vec<(Vec<ibcm_logsim::ActionId>, bool)> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.iter().map(|s| (s.actions().to_vec(), false)))
        .collect();
    for m in dataset.misuse_sessions(n_misuse, seed) {
        sessions.push((m.actions().to_vec(), true));
    }
    let action_lists: Vec<Vec<ibcm_logsim::ActionId>> =
        sessions.iter().map(|(a, _)| a.clone()).collect();
    let ranked = det.rank_suspicious_par(&action_lists, k, threads);
    ranked
        .into_iter()
        .enumerate()
        .map(|(rank, (idx, verdict))| SuspiciousSession {
            rank,
            actions: sessions[idx]
                .0
                .iter()
                .map(|&a| dataset.catalog().name(a).to_string())
                .collect(),
            cluster: verdict.cluster,
            avg_likelihood: verdict.score.avg_likelihood,
            avg_loss: verdict.score.avg_loss,
            injected_misuse: sessions[idx].1,
        })
        .collect()
}

/// Cluster purity against the generator's ground-truth archetypes: the mean,
/// over clusters, of the fraction of sessions sharing the cluster's majority
/// archetype. Only meaningful for synthetic datasets (always in `[0, 1]`).
pub fn clustering_purity(trained: &TrainedPipeline) -> f64 {
    cluster_data_purity(trained.clusters())
}

/// [`clustering_purity`] over raw [`ClusterData`] groups (used by the
/// clustering ablation, where there is no full `TrainedPipeline`).
pub fn cluster_data_purity(clusters: &[ClusterData]) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0usize;
    for c in clusters {
        let sessions: Vec<&Session> = c
            .train
            .iter()
            .chain(&c.validation)
            .chain(&c.test)
            .collect();
        #[expect(clippy::disallowed_types, reason = "only values().max() over integer counts is taken; iteration order cannot affect the result")]
        let mut counts = std::collections::HashMap::new();
        let mut labeled = 0usize;
        for s in &sessions {
            if let Some(a) = s.archetype() {
                *counts.entry(a).or_insert(0usize) += 1;
                labeled += 1;
            }
        }
        if labeled == 0 {
            continue;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        weighted += majority as f64;
        total += labeled;
    }
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

/// Concatenated, run-normalized document-topic vector of one document
/// across every run of the ensemble — the feature space the clustering
/// ablation's k-means operates in.
fn doc_topic_features(ensemble: &ibcm_topics::Ensemble, doc: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for run in ensemble.runs() {
        out.extend_from_slice(run.theta(doc));
    }
    out
}

/// Ablation: plain k-means over the ensemble's document-topic vectors — the
/// *uninformed* counterpart of the expert clustering.
pub fn kmeans_assignment(
    ensemble: &ibcm_topics::Ensemble,
    k: usize,
    iterations: usize,
    seed: u64,
) -> Vec<ClusterId> {
    let n = ensemble.runs().first().map_or(0, |m| m.n_docs());
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let features: Vec<Vec<f64>> = (0..n).map(|d| doc_topic_features(ensemble, d)).collect();
    let dim = features[0].len();
    let mut rng = StdRng::seed_from_u64(seed);
    // k-means++-lite init: distinct random documents.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let mut centroids: Vec<Vec<f64>> = idx.iter().take(k).map(|&i| features[i].clone()).collect();
    while centroids.len() < k {
        centroids.push(vec![0.0; dim]); // degenerate corpus smaller than k
    }
    let mut assignment = vec![0usize; n];
    for _ in 0..iterations.max(1) {
        // Assign.
        for (d, f) in features.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, c) in centroids.iter().enumerate() {
                let dist: f64 = f.iter().zip(c.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = ci;
                }
            }
            assignment[d] = best;
        }
        // Update.
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (d, &a) in assignment.iter().enumerate() {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(features[d].iter()) {
                *s += x;
            }
        }
        for (ci, c) in centroids.iter_mut().enumerate() {
            if counts[ci] > 0 {
                for (v, s) in c.iter_mut().zip(sums[ci].iter()) {
                    *v = s / counts[ci] as f64;
                }
            }
        }
    }
    assignment.into_iter().map(ClusterId).collect()
}

/// Ablation: uniformly random cluster assignment.
pub fn random_assignment(n_docs: usize, k: usize, seed: u64) -> Vec<ClusterId> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_docs)
        .map(|_| ClusterId(rng.gen_range(0..k.max(1))))
        .collect()
}

/// Routing strategies compared by the router ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// Full-session OC-SVM argmax.
    Full,
    /// Majority vote over the first `k` prefixes, then locked (the paper's
    /// choice with `k = 15`).
    LockIn(usize),
    /// Nearest centroid of the clusters' training bags.
    NearestCentroid,
    /// Majority label among the `k` nearest training bags.
    Knn(usize),
}

impl RoutingStrategy {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            RoutingStrategy::Full => "ocsvm_full".into(),
            RoutingStrategy::LockIn(k) => format!("ocsvm_lockin_{k}"),
            RoutingStrategy::NearestCentroid => "nearest_centroid".into(),
            RoutingStrategy::Knn(k) => format!("knn_{k}"),
        }
    }
}

/// Ablation: fraction of test sessions routed back to the cluster whose
/// split they belong to, under the given strategy.
///
/// Per-session routing decisions are independent and run on `threads`
/// workers; the hit count is an order-insensitive integer sum, so the
/// result is identical at any thread count.
pub fn routing_accuracy(
    trained: &TrainedPipeline,
    strategy: RoutingStrategy,
    threads: usize,
) -> f64 {
    let det = trained.detector();
    let featurizer = det.router().featurizer();
    // Reference data for the instance-based strategies.
    let mut train_bags: Vec<(Vec<f64>, ClusterId)> = Vec::new();
    let mut centroids: Vec<Vec<f64>> = Vec::new();
    if matches!(
        strategy,
        RoutingStrategy::NearestCentroid | RoutingStrategy::Knn(_)
    ) {
        for c in trained.clusters() {
            let mut centroid = vec![0.0f64; featurizer.dim()];
            for s in &c.train {
                let f = featurizer.features(s.actions());
                for (acc, x) in centroid.iter_mut().zip(f.iter()) {
                    *acc += x;
                }
                train_bags.push((f, c.cluster));
            }
            let n = c.train.len().max(1) as f64;
            centroid.iter_mut().for_each(|x| *x /= n);
            centroids.push(centroid);
        }
    }
    let sq_dist =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };

    let sessions: Vec<(&Session, ClusterId)> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.iter().map(move |s| (s, c.cluster)))
        .collect();
    let hits_per_session: Vec<bool> =
        ibcm_par::par_map(threads, &sessions, |_, &(s, actual)| {
            let predicted = match strategy {
                RoutingStrategy::Full => det.router().route(s.actions()).cluster,
                RoutingStrategy::LockIn(k) => {
                    det.router().route_with_lock_in(s.actions(), k).cluster
                }
                RoutingStrategy::NearestCentroid => {
                    let f = featurizer.features(s.actions());
                    let best = centroids
                        .iter()
                        .enumerate()
                        .min_by(|a, b| {
                            sq_dist(&f, a.1)
                                .partial_cmp(&sq_dist(&f, b.1))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    ClusterId(best)
                }
                RoutingStrategy::Knn(k) => {
                    let f = featurizer.features(s.actions());
                    let mut dists: Vec<(f64, ClusterId)> = train_bags
                        .iter()
                        .map(|(bag, cl)| (sq_dist(&f, bag), *cl))
                        .collect();
                    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                    let mut votes = vec![0usize; det.n_clusters()];
                    for (_, cl) in dists.iter().take(k.max(1)) {
                        votes[cl.index()] += 1;
                    }
                    ClusterId(
                        votes
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &v)| v)
                            .map(|(i, _)| i)
                            .unwrap_or(0),
                    )
                }
            };
            predicted == actual
        });
    let hits = hits_per_session.iter().filter(|&&hit| hit).count();
    hits as f64 / sessions.len().max(1) as f64
}

/// One configuration's outcome in the hyperparameter search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperparamRow {
    /// LSTM units.
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Dropout rate.
    pub dropout: f32,
    /// Validation loss reached.
    pub val_loss: f32,
    /// Validation accuracy reached.
    pub val_accuracy: f32,
    /// Training wall-clock seconds.
    pub seconds: f64,
}

/// The paper's §IV-A hyperparameter evaluation, reproduced: grid-search the
/// language model's hidden size, learning rate, and dropout on a small
/// subset of the data, judging by validation loss. Returns rows sorted
/// best-first.
///
/// # Errors
///
/// Propagates language-model training failures.
pub fn hyperparam_sweep(
    trained: &TrainedPipeline,
    base: &LmTrainConfig,
    hiddens: &[usize],
    learning_rates: &[f32],
    dropouts: &[f32],
    subset_sessions: usize,
    seed: u64,
) -> Result<Vec<HyperparamRow>, CoreError> {
    let vocab = trained.detector().model(ClusterId(0)).vocab_size();
    let mut pool: Vec<Vec<usize>> = trained
        .clusters()
        .iter()
        .flat_map(|c| encode(&c.train))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(subset_sessions.max(4));
    let n_val = (pool.len() / 5).max(1);
    let val: Vec<Vec<usize>> = pool.split_off(pool.len() - n_val);

    let mut rows = Vec::new();
    for &hidden in hiddens {
        for &learning_rate in learning_rates {
            for &dropout in dropouts {
                let cfg = LmTrainConfig {
                    vocab,
                    hidden,
                    learning_rate,
                    dropout,
                    seed,
                    ..*base
                };
                let t0 = ibcm_obs::Stopwatch::start();
                let lm = LstmLm::train(&cfg, &pool, &val)?;
                let eval = lm.evaluate(&val);
                rows.push(HyperparamRow {
                    hidden,
                    learning_rate,
                    dropout,
                    val_loss: eval.avg_loss,
                    val_accuracy: eval.accuracy,
                    seconds: t0.elapsed_seconds(),
                });
            }
        }
    }
    rows.sort_by(|a, b| {
        a.val_loss
            .partial_cmp(&b.val_loss)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(rows)
}

/// Area under the ROC curve for an anomaly score where **higher means more
/// abnormal**: the probability that a random abnormal session outranks a
/// random normal one (ties get half credit). Returns 0.5 for empty inputs.
pub fn roc_auc(abnormal: &[f64], normal: &[f64]) -> f64 {
    if abnormal.is_empty() || normal.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &a in abnormal {
        for &n in normal {
            if a > n {
                wins += 1.0;
            } else if (a - n).abs() < 1e-15 {
                wins += 0.5;
            }
        }
    }
    wins / (abnormal.len() * normal.len()) as f64
}

/// Which per-session statistic is used as the anomaly score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalityMeasure {
    /// Negated average likelihood (paper's primary measure).
    Likelihood,
    /// Average cross-entropy loss (Kim et al.'s measure).
    Loss,
    /// Perplexity `exp(avg loss)` (the paper's §V proposal).
    Perplexity,
}

impl NormalityMeasure {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NormalityMeasure::Likelihood => "likelihood",
            NormalityMeasure::Loss => "loss",
            NormalityMeasure::Perplexity => "perplexity",
        }
    }

    /// Converts a [`ibcm_lm::SessionScore`] into an anomaly score (higher =
    /// more abnormal).
    pub fn anomaly_score(&self, s: &ibcm_lm::SessionScore) -> f64 {
        match self {
            NormalityMeasure::Likelihood => -(s.avg_likelihood as f64),
            NormalityMeasure::Loss => s.avg_loss as f64,
            NormalityMeasure::Perplexity => s.perplexity() as f64,
        }
    }
}

/// Detection quality of the trained detector for one abnormal population
/// under each normality measure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionQualityRow {
    /// The abnormal population (`"random"` or `"misuse"`).
    pub population: String,
    /// AUC using average likelihood.
    pub auc_likelihood: f64,
    /// AUC using average loss.
    pub auc_loss: f64,
    /// AUC using perplexity.
    pub auc_perplexity: f64,
    /// Number of abnormal sessions scored.
    pub n_abnormal: usize,
    /// Number of normal (test) sessions scored.
    pub n_normal: usize,
}

/// Quantifies what the paper could only inspect qualitatively (it had no
/// labeled attacks): ROC-AUC of the detector against the artificial random
/// population and against injected misuse bursts, for all three normality
/// measures (§III likelihood, Kim et al. loss, §V perplexity).
pub fn detection_quality(
    trained: &TrainedPipeline,
    dataset: &Dataset,
    n_abnormal: usize,
    seed: u64,
    threads: usize,
) -> Vec<DetectionQualityRow> {
    let det = trained.detector();
    let score = |sessions: &[Session]| -> Vec<ibcm_lm::SessionScore> {
        let refs: Vec<&[ActionId]> = sessions.iter().map(|s| s.actions()).collect();
        det.score_sessions(&refs, threads)
            .into_iter()
            .map(|v| v.score)
            .filter(|s| s.n_predictions > 0)
            .collect()
    };
    let normal_sessions: Vec<Session> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.clone())
        .collect();
    let normal = score(&normal_sessions);
    let populations = [
        ("random", dataset.random_sessions(n_abnormal, seed)),
        ("misuse", dataset.misuse_sessions(n_abnormal, seed ^ 0x1234)),
    ];
    populations
        .into_iter()
        .map(|(label, sessions)| {
            let abnormal = score(&sessions);
            let auc_for = |m: NormalityMeasure| {
                let pos: Vec<f64> = abnormal.iter().map(|s| m.anomaly_score(s)).collect();
                let neg: Vec<f64> = normal.iter().map(|s| m.anomaly_score(s)).collect();
                roc_auc(&pos, &neg)
            };
            DetectionQualityRow {
                population: label.to_string(),
                auc_likelihood: auc_for(NormalityMeasure::Likelihood),
                auc_loss: auc_for(NormalityMeasure::Loss),
                auc_perplexity: auc_for(NormalityMeasure::Perplexity),
                n_abnormal: abnormal.len(),
                n_normal: normal.len(),
            }
        })
        .collect()
}

/// The dataset statistics table (§IV-A) as labeled rows, plus the Fig. 3
/// histogram behind it.
pub fn tab1_dataset_stats(dataset: &Dataset) -> Vec<(String, String)> {
    let s = dataset.stats();
    vec![
        ("sessions".into(), s.sessions.to_string()),
        ("users".into(), s.users.to_string()),
        ("distinct_actions".into(), s.distinct_actions.to_string()),
        ("catalog_actions".into(), s.catalog_actions.to_string()),
        ("days".into(), s.days.to_string()),
        ("mean_length".into(), format!("{:.2}", s.mean_length)),
        ("p98_length".into(), s.p98_length.to_string()),
        ("max_length".into(), s.max_length.to_string()),
    ]
}

/// Per-cluster split sizes, for sanity reporting.
pub fn cluster_summary(trained: &TrainedPipeline) -> Vec<(ClusterId, usize, usize, usize)> {
    trained
        .clusters()
        .iter()
        .map(|c: &ClusterData| (c.cluster, c.train.len(), c.validation.len(), c.test.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use ibcm_logsim::{Generator, GeneratorConfig};

    fn trained() -> (Dataset, TrainedPipeline) {
        let dataset = Generator::new(GeneratorConfig::tiny(21)).generate();
        let trained = Pipeline::new(PipelineConfig::test_profile(21))
            .train(&dataset)
            .unwrap();
        (dataset, trained)
    }

    #[test]
    fn fig4_rows_sorted_and_sensible() {
        let (_, t) = trained();
        let rows = fig4_cluster_vs_others(&t);
        assert_eq!(rows.len(), t.clusters().len());
        for w in rows.windows(2) {
            assert!(w[0].size <= w[1].size);
        }
        // The paper's core claim: models are specific — own accuracy beats
        // the average on foreign clusters, at least on average.
        let own: f64 = rows.iter().map(|r| r.own_accuracy as f64).sum();
        let others: f64 = rows.iter().map(|r| r.others_accuracy as f64).sum();
        assert!(
            own > others,
            "mean own accuracy {own} should beat others {others}"
        );
    }

    #[test]
    fn fig6_scores_decay_for_long_sessions() {
        let (_, t) = trained();
        let rows = fig6_ocsvm_scores(&t, 60, 2);
        assert!(!rows.is_empty());
        // Counts must be non-increasing with position.
        for w in rows.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        // max >= right everywhere.
        for r in &rows {
            assert!(r.max_mean >= r.right_mean - 1e-9, "position {}", r.position);
        }
    }

    #[test]
    fn fig7_curves_have_valid_stats() {
        let (_, t) = trained();
        let rows = fig7_online_likelihood(&t, 30, 2);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.every_step_mean));
            assert!((0.0..=1.0).contains(&r.locked_mean));
            assert!(r.every_step_std >= 0.0 && r.locked_std >= 0.0);
        }
    }

    #[test]
    fn fig8_normality_separates_populations() {
        let (d, t) = trained();
        let rows = fig8_fig9_normality(&t, &d, 77, 2);
        assert_eq!(rows.len(), 2);
        let test = &rows[0];
        let random = &rows[1];
        assert!(
            test.avg_likelihood > 2.0 * random.avg_likelihood,
            "test {} vs random {}",
            test.avg_likelihood,
            random.avg_likelihood
        );
        assert!(random.avg_loss > test.avg_loss);
    }

    #[test]
    fn top_suspicious_surfaces_injected_misuse() {
        let (d, t) = trained();
        let top = top_suspicious(&t, &d, 10, 20, 5, 2);
        assert!(!top.is_empty());
        let injected_in_top = top.iter().filter(|s| s.injected_misuse).count();
        assert!(
            injected_in_top >= 5,
            "{injected_in_top}/20 injected bursts in the top-20"
        );
        // Ranked ascending by likelihood.
        for w in top.windows(2) {
            assert!(w[0].avg_likelihood <= w[1].avg_likelihood + 1e-6);
        }
    }

    #[test]
    fn purity_beats_chance() {
        let (_, t) = trained();
        let p = clustering_purity(&t);
        // Chance (all sessions in one cluster) is the largest archetype's
        // share, ~0.15 at the tiny profile's popularity skew; the test
        // profile's 4 clusters over 13 archetypes cannot reach 1.0.
        assert!(p > 0.25, "purity {p}");
        assert!(p <= 1.0);
    }

    #[test]
    fn routing_strategies_beat_chance() {
        let (_, t) = trained();
        let chance = 1.0 / t.detector().n_clusters() as f64;
        for strategy in [
            RoutingStrategy::Full,
            RoutingStrategy::LockIn(15),
            RoutingStrategy::NearestCentroid,
            RoutingStrategy::Knn(5),
        ] {
            let acc = routing_accuracy(&t, strategy, 2);
            assert!(
                acc > chance,
                "{} accuracy {acc} vs chance {chance}",
                strategy.label()
            );
        }
    }

    #[test]
    fn kmeans_and_random_assignments_have_valid_shape() {
        let (_, t) = trained();
        let n = t.clustering().assignment().len();
        let km = kmeans_assignment(t.ensemble(), 4, 10, 3);
        assert_eq!(km.len(), n);
        assert!(km.iter().all(|c| c.index() < 4));
        let rnd = random_assignment(n, 4, 3);
        assert_eq!(rnd.len(), n);
        // k-means should beat random purity given the planted structure:
        // compare dispersion via number of distinct clusters used.
        let distinct = |a: &[ClusterId]| {
            let mut v: Vec<usize> = a.iter().map(|c| c.index()).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(&km) >= 2);
        assert_eq!(distinct(&rnd), 4);
    }

    #[test]
    fn hyperparam_sweep_orders_by_val_loss() {
        let (_, t) = trained();
        let base = LmTrainConfig {
            epochs: 3,
            patience: 0,
            ..PipelineConfig::test_profile(21).lm
        };
        let rows = hyperparam_sweep(&t, &base, &[8, 16], &[0.01], &[0.1], 60, 5).unwrap();
        assert_eq!(rows.len(), 2);
        for w in rows.windows(2) {
            assert!(w[0].val_loss <= w[1].val_loss, "sorted best-first");
        }
        for r in &rows {
            assert!(r.val_loss.is_finite() && r.seconds > 0.0);
        }
    }

    #[test]
    fn roc_auc_known_values() {
        assert_eq!(roc_auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
        assert_eq!(roc_auc(&[0.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(roc_auc(&[1.0], &[1.0]), 0.5);
        assert_eq!(roc_auc(&[], &[1.0]), 0.5);
        // Half separated.
        let auc = roc_auc(&[0.0, 2.0], &[1.0, 1.0]);
        assert!((auc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn detection_quality_beats_chance_for_both_populations() {
        let (d, t) = trained();
        let rows = detection_quality(&t, &d, 40, 9, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.auc_likelihood > 0.8,
                "{}: likelihood AUC {}",
                r.population,
                r.auc_likelihood
            );
            assert!(r.auc_loss > 0.8, "{}: loss AUC {}", r.population, r.auc_loss);
            // Perplexity is a monotone transform of loss: identical AUC.
            assert!((r.auc_perplexity - r.auc_loss).abs() < 1e-9);
        }
    }

    #[test]
    fn tab1_contains_paper_fields() {
        let (d, _) = trained();
        let rows = tab1_dataset_stats(&d);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        for k in ["sessions", "users", "mean_length", "p98_length", "max_length"] {
            assert!(keys.contains(&k));
        }
    }
}
