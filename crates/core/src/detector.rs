#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use ibcm_lm::{LstmLm, SessionScore};
use ibcm_logsim::{ActionId, ClusterId};
use ibcm_ocsvm::{ClusterRouter, RouteDecision};

/// Cached handles for the batch-scoring metrics: one counter increment and
/// one histogram observation per scored session. Cached so parallel batch
/// scoring pays only atomics, never a registry lookup.
struct ScoringMetrics {
    sessions: ibcm_obs::Counter,
    seconds: ibcm_obs::Histogram,
}

fn scoring_metrics() -> &'static ScoringMetrics {
    static CELL: std::sync::OnceLock<ScoringMetrics> = std::sync::OnceLock::new();
    CELL.get_or_init(|| ScoringMetrics {
        sessions: ibcm_obs::names::SESSIONS_SCORED.counter(),
        seconds: ibcm_obs::names::SCORE_SESSION_SECONDS
            .histogram(ibcm_obs::DEFAULT_SECONDS_BUCKETS),
    })
}

/// Sessions per lock-step bucket in [`MisuseDetector::score_sessions`].
/// BENCH_pr6.json's `batch_sweep` peaks at 8–32 lanes and *regresses* at
/// 128 (1040.8 sessions/sec vs 1333.6 at 8: past ~32 lanes the gate slab
/// falls out of L2 at the paper's model shape). Any width gives the same
/// bits; see OPERATIONS.md ("Batched scoring") for the sweep data.
const MAX_BATCH: usize = 32;

/// The verdict on one session: the cluster it was routed to and its
/// normality under that cluster's behavior model.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionVerdict {
    /// Routed cluster (`G_max` in the paper).
    pub cluster: ClusterId,
    /// Normality scores under the routed cluster's language model.
    pub score: SessionScore,
}

/// The verdict of the §V extension: instead of committing to one cluster,
/// every cluster model scores the session and the scores are combined with
/// softmax weights derived from the OC-SVM decisions ("weighted combination
/// of multiple scores from cluster models might give more objective score,
/// taking into account possible imprecision of cluster identification").
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedVerdict {
    /// Per-cluster mixture weights (softmax of OC-SVM decisions; sum to 1).
    pub weights: Vec<f32>,
    /// The weight-combined normality score.
    pub score: SessionScore,
    /// The per-cluster scores that were combined.
    pub per_cluster: Vec<SessionScore>,
}

/// The trained prediction-phase artifact: per-cluster OC-SVMs for routing
/// and per-cluster LSTM language models for normality scoring.
///
/// Built by [`crate::Pipeline::train`]; see the crate docs for the
/// end-to-end flow.
#[derive(Debug, Clone)]
pub struct MisuseDetector {
    router: ClusterRouter,
    models: Vec<LstmLm>,
    lock_in: usize,
    /// Optional cluster-agnostic language model. Persisted in the `IBCD` v2
    /// format; the lenient loader substitutes it for any per-cluster model
    /// whose bytes fail to deserialize, so a partially corrupt detector
    /// file degrades (routing still works, scoring falls back to global
    /// behavior) instead of erroring out.
    fallback: Option<Box<LstmLm>>,
}

impl MisuseDetector {
    /// Assembles a detector.
    ///
    /// # Panics
    ///
    /// Panics if the router's cluster count differs from the number of
    /// models, or `lock_in` is zero.
    pub fn new(router: ClusterRouter, models: Vec<LstmLm>, lock_in: usize) -> Self {
        assert_eq!(
            router.n_clusters(),
            models.len(),
            "one language model per routed cluster"
        );
        assert!(lock_in > 0, "lock_in must be positive");
        MisuseDetector {
            router,
            models,
            lock_in,
            fallback: None,
        }
    }

    /// Attaches a global fallback language model (typically one trained on
    /// all sessions regardless of cluster). Persisted with the detector;
    /// used by [`MisuseDetector::from_bytes_lenient`] to stand in for
    /// per-cluster models that fail to deserialize.
    pub fn with_fallback(mut self, model: LstmLm) -> Self {
        self.fallback = Some(Box::new(model));
        self
    }

    /// The global fallback language model, if one is attached.
    pub fn fallback(&self) -> Option<&LstmLm> {
        self.fallback.as_deref()
    }

    /// Number of behavior clusters.
    pub fn n_clusters(&self) -> usize {
        self.models.len()
    }

    /// The models' shared vocabulary size (0 if the detector has no models).
    pub fn vocab_size(&self) -> usize {
        self.models.first().map_or(0, |m| m.vocab_size())
    }

    /// The online lock-in horizon (15 in the paper).
    pub fn lock_in(&self) -> usize {
        self.lock_in
    }

    /// The cluster router.
    pub fn router(&self) -> &ClusterRouter {
        &self.router
    }

    /// The language model of one cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is out of range.
    #[expect(clippy::indexing_slicing, reason = "documented panicking accessor; an out-of-range cluster is a caller bug")]
    pub fn model(&self, cluster: ClusterId) -> &LstmLm {
        &self.models[cluster.index()]
    }

    /// Encodes catalog actions into model tokens, dropping any action the
    /// models have never seen (future-proofing against catalog growth).
    pub fn encode(&self, actions: &[ActionId]) -> Vec<usize> {
        let vocab = self.models.first().map_or(0, |m| m.vocab_size());
        actions
            .iter()
            .map(|a| a.index())
            .filter(|&a| a < vocab)
            .collect()
    }

    /// Routes a session using the paper's first-`lock_in`-actions majority
    /// vote (§IV-C).
    pub fn route(&self, actions: &[ActionId]) -> RouteDecision {
        self.router.route_with_lock_in(actions, self.lock_in)
    }

    /// Scores a full session: route, then average likelihood/loss under the
    /// routed cluster's model.
    pub fn score_session(&self, actions: &[ActionId]) -> SessionVerdict {
        let start = ibcm_obs::Stopwatch::start();
        let decision = self.route(actions);
        let score = self.score_in_cluster(actions, decision.cluster);
        let metrics = scoring_metrics();
        metrics.sessions.inc();
        metrics.seconds.observe(start.elapsed_seconds());
        SessionVerdict {
            cluster: decision.cluster,
            score,
        }
    }

    /// Scores a session under a specific cluster's model (used when the true
    /// cluster is known, as in the paper's offline experiments).
    #[expect(clippy::indexing_slicing, reason = "ClusterId values come from this detector's router, and new() asserts one model per routed cluster")]
    pub fn score_in_cluster(&self, actions: &[ActionId], cluster: ClusterId) -> SessionScore {
        self.models[cluster.index()].score_session(&self.encode(actions))
    }

    /// The paper's §V extension: score the session under **every** cluster
    /// model and combine with softmax weights over the OC-SVM decisions
    /// (temperature `tau`; smaller = closer to hard argmax routing).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    pub fn score_session_weighted(&self, actions: &[ActionId], tau: f64) -> WeightedVerdict {
        assert!(tau > 0.0, "softmax temperature must be positive");
        let decisions = self.router.scores(actions);
        let max = decisions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = decisions.iter().map(|&d| ((d - max) / tau).exp()).collect();
        let total: f64 = exps.iter().sum();
        let weights: Vec<f32> = exps.iter().map(|&e| (e / total.max(1e-300)) as f32).collect();
        let tokens = self.encode(actions);
        let per_cluster: Vec<SessionScore> =
            self.models.iter().map(|m| m.score_session(&tokens)).collect();
        let n = per_cluster.first().map_or(0, |s| s.n_predictions);
        let mut lik = 0.0f64;
        let mut loss = 0.0f64;
        for (w, s) in weights.iter().zip(per_cluster.iter()) {
            lik += (*w as f64) * s.avg_likelihood as f64;
            loss += (*w as f64) * s.avg_loss as f64;
        }
        WeightedVerdict {
            weights,
            score: SessionScore {
                avg_likelihood: lik as f32,
                avg_loss: loss as f32,
                n_predictions: n,
            },
            per_cluster,
        }
    }

    /// Scores a batch of sessions on `threads` worker threads, preserving
    /// input order.
    ///
    /// This is the throughput path: sessions are routed in parallel,
    /// grouped by routed cluster, cut into buckets of at most 32 sessions,
    /// and each bucket is scored in lock-step through
    /// [`LstmLm::score_sessions_batched`], so the bucket shares each
    /// weight-matrix pass. The buckets run as independent jobs on the
    /// shared [`crate::par`] pool, so cluster grouping and thread sharding
    /// compose. Each lane replays the per-session operation order exactly
    /// (DESIGN.md, "Batched inference & memory model"), so the output is
    /// bit-identical to a sequential [`MisuseDetector::score_session`] loop
    /// at any thread count. `threads` of 0 or 1 runs inline. Pass
    /// [`PipelineConfig::effective_parallelism`](crate::PipelineConfig::effective_parallelism)
    /// to follow the pipeline-wide setting.
    ///
    /// Bucket-level timing lands in the `ibcm_lm_batch_*` metrics; the
    /// per-session `ibcm_score_session_seconds` histogram is observed by
    /// [`MisuseDetector::score_session`] only.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use ibcm_core::{Pipeline, PipelineConfig};
    /// use ibcm_logsim::{Generator, GeneratorConfig};
    ///
    /// let dataset = Generator::new(GeneratorConfig::tiny(7)).generate();
    /// let config = PipelineConfig::test_profile(7);
    /// let threads = config.effective_parallelism();
    /// let trained = Pipeline::new(config).train(&dataset)?;
    /// let sessions: Vec<Vec<ibcm_logsim::ActionId>> = dataset
    ///     .sessions()
    ///     .iter()
    ///     .map(|s| s.actions().to_vec())
    ///     .collect();
    /// let verdicts = trained.detector().score_sessions(&sessions, threads);
    /// assert_eq!(verdicts.len(), sessions.len());
    /// # Ok::<(), ibcm_core::CoreError>(())
    /// ```
    #[expect(clippy::expect_used, reason = "every input index lands in exactly one bucket, so every slot is filled")]
    pub fn score_sessions<S>(&self, sessions: &[S], threads: usize) -> Vec<SessionVerdict>
    where
        S: AsRef<[ActionId]> + Sync,
    {
        // Routing is per-session and order-preserved; encoding here keeps
        // the scoring jobs borrow-only.
        let routed: Vec<(ClusterId, Vec<usize>)> = ibcm_par::par_map(threads, sessions, |_, s| {
            let decision = self.route(s.as_ref());
            (decision.cluster, self.encode(s.as_ref()))
        });
        // Group session indices by routed cluster. Indexed Vecs rather
        // than a map: cluster ids are dense, and iteration order must be
        // deterministic.
        let mut by_cluster: Vec<Vec<usize>> = vec![Vec::new(); self.models.len()];
        for (i, (cluster, _)) in routed.iter().enumerate() {
            #[expect(clippy::indexing_slicing, reason = "route() returns a cluster of this router, and new() asserts one model per routed cluster")]
            by_cluster[cluster.index()].push(i);
        }
        // One job per bucket: a dominant cluster still spreads across the
        // pool. Bucket composition cannot change scores (each lane is
        // bit-identical to its sequential run regardless of neighbors), so
        // this sharding affects wall-clock only.
        let mut jobs: Vec<(usize, &[usize])> = Vec::new();
        for (cluster, indices) in by_cluster.iter().enumerate() {
            for bucket in indices.chunks(MAX_BATCH) {
                jobs.push((cluster, bucket));
            }
        }
        #[expect(clippy::indexing_slicing, reason = "bucket indices are enumerate() positions of `routed`; cluster comes from enumerating self.models")]
        let scored: Vec<Vec<SessionScore>> = ibcm_par::par_map(threads, &jobs, |_, job| {
            let (cluster, indices) = *job;
            let tokens: Vec<&[usize]> = indices
                .iter()
                .map(|&i| routed[i].1.as_slice())
                .collect();
            self.models[cluster].score_sessions_batched(&tokens, MAX_BATCH)
        });
        let metrics = scoring_metrics();
        let mut verdicts: Vec<Option<SessionVerdict>> = (0..sessions.len()).map(|_| None).collect();
        for (job, scores) in jobs.iter().zip(scored) {
            let (cluster, indices) = *job;
            #[expect(clippy::indexing_slicing, reason = "bucket indices are enumerate() positions of `verdicts`")]
            for (&i, score) in indices.iter().zip(scores) {
                metrics.sessions.inc();
                verdicts[i] = Some(SessionVerdict {
                    cluster: ClusterId(cluster),
                    score,
                });
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every session is bucketed exactly once"))
            .collect()
    }

    /// Ranks sessions most-suspicious-first (ascending average likelihood,
    /// ties broken by descending loss) — the paper's §IV-D analyst review
    /// list. Sessions too short to score (< 2 actions) are excluded.
    ///
    /// Scores sequentially; see [`MisuseDetector::rank_suspicious_par`] for
    /// the multi-threaded variant (identical output).
    ///
    /// Returns `(index into the input, verdict)` pairs.
    pub fn rank_suspicious<S>(&self, sessions: &[S], top_k: usize) -> Vec<(usize, SessionVerdict)>
    where
        S: AsRef<[ActionId]> + Sync,
    {
        self.rank_suspicious_par(sessions, top_k, 1)
    }

    /// [`MisuseDetector::rank_suspicious`] with scoring parallelized over
    /// `threads` workers via [`MisuseDetector::score_sessions`].
    ///
    /// The ranking is a stable sort over order-preserved batch scores, so
    /// the result — including tie order — is identical at any thread count.
    ///
    /// Returns `(index into the input, verdict)` pairs.
    pub fn rank_suspicious_par<S>(
        &self,
        sessions: &[S],
        top_k: usize,
        threads: usize,
    ) -> Vec<(usize, SessionVerdict)>
    where
        S: AsRef<[ActionId]> + Sync,
    {
        let mut scored: Vec<(usize, SessionVerdict)> = self
            .score_sessions(sessions, threads)
            .into_iter()
            .enumerate()
            .filter(|(_, v)| v.score.n_predictions > 0)
            .collect();
        scored.sort_by(|a, b| {
            a.1.score
                .avg_likelihood
                .partial_cmp(&b.1.score.avg_likelihood)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.1.score
                        .avg_loss
                        .partial_cmp(&a.1.score.avg_loss)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        scored.truncate(top_k);
        scored
    }

    /// Consumes the detector into its parts (router, models, lock-in).
    pub fn into_parts(self) -> (ClusterRouter, Vec<LstmLm>, usize) {
        (self.router, self.models, self.lock_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_lm::LmTrainConfig;
    use ibcm_ocsvm::{OcSvm, OcSvmConfig, SessionFeaturizer};

    /// Two synthetic behaviors over a 6-action vocabulary: cluster 0 cycles
    /// 0->1->2, cluster 1 cycles 3->4->5.
    fn detector() -> MisuseDetector {
        let vocab = 6;
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs0: Vec<Vec<usize>> = (0..20).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1]).collect();
        let seqs1: Vec<Vec<usize>> = (0..20).map(|_| vec![3, 4, 5, 3, 4, 5, 3, 4]).collect();
        let feats = |seqs: &[Vec<usize>]| -> Vec<Vec<f64>> {
            seqs.iter()
                .map(|s| {
                    let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                    featurizer.features(&acts)
                })
                .collect()
        };
        let svm_cfg = OcSvmConfig::default();
        let router = ClusterRouter::new(
            vec![
                OcSvm::train(&feats(&seqs0), &svm_cfg).unwrap(),
                OcSvm::train(&feats(&seqs1), &svm_cfg).unwrap(),
            ],
            featurizer,
        );
        let lm_cfg = LmTrainConfig {
            vocab,
            hidden: 12,
            dropout: 0.0,
            epochs: 25,
            batch_size: 8,
            learning_rate: 0.01,
            patience: 0,
            ..LmTrainConfig::default()
        };
        let models = vec![
            LstmLm::train(&lm_cfg, &seqs0, &[]).unwrap(),
            LstmLm::train(&lm_cfg, &seqs1, &[]).unwrap(),
        ];
        MisuseDetector::new(router, models, 15)
    }

    fn acts(tokens: &[usize]) -> Vec<ActionId> {
        tokens.iter().map(|&t| ActionId(t)).collect()
    }

    #[test]
    fn routes_to_matching_behavior() {
        let d = detector();
        assert_eq!(d.route(&acts(&[0, 1, 2, 0, 1])).cluster, ClusterId(0));
        assert_eq!(d.route(&acts(&[3, 4, 5, 3, 4])).cluster, ClusterId(1));
    }

    #[test]
    fn normal_scores_beat_abnormal() {
        let d = detector();
        let normal = d.score_session(&acts(&[0, 1, 2, 0, 1, 2]));
        let abnormal = d.score_session(&acts(&[5, 0, 3, 1, 4, 2]));
        assert!(
            normal.score.avg_likelihood > 2.0 * abnormal.score.avg_likelihood,
            "normal {} vs abnormal {}",
            normal.score.avg_likelihood,
            abnormal.score.avg_likelihood
        );
    }

    #[test]
    fn ranking_surfaces_the_misuse_burst() {
        let d = detector();
        let sessions: Vec<Vec<ActionId>> = vec![
            acts(&[0, 1, 2, 0, 1, 2]),
            acts(&[3, 4, 5, 3, 4, 5]),
            acts(&[2, 2, 5, 5, 0, 3]), // scrambled burst
            acts(&[0, 1, 2, 0, 1, 2, 0]),
        ];
        let ranked = d.rank_suspicious(&sessions, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, 2, "the scrambled session should rank first");
    }

    #[test]
    fn batch_scoring_matches_sequential_at_any_thread_count() {
        let d = detector();
        let sessions: Vec<Vec<ActionId>> = (0..13)
            .map(|i| {
                if i % 2 == 0 {
                    acts(&[0, 1, 2, 0, 1, 2])
                } else {
                    acts(&[3, 4, 5, 3, 4])
                }
            })
            .collect();
        let sequential: Vec<SessionVerdict> =
            sessions.iter().map(|s| d.score_session(s)).collect();
        for threads in [0, 1, 2, 4, 32] {
            assert_eq!(
                d.score_sessions(&sessions, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    fn verdict_bits(v: &SessionVerdict) -> (ClusterId, u32, u32, usize) {
        (
            v.cluster,
            v.score.avg_likelihood.to_bits(),
            v.score.avg_loss.to_bits(),
            v.score.n_predictions,
        )
    }

    /// More than two buckets' worth of ragged sessions (0, 1 and 2 actions
    /// included) that route mostly to one cluster, so `score_sessions` cuts
    /// that cluster into several lock-step buckets with a ragged last one.
    /// Returns the sessions with their sequential `score_session` verdicts.
    fn bucket_spanning_sessions(d: &MisuseDetector) -> (Vec<Vec<ActionId>>, Vec<SessionVerdict>) {
        let cycle0 = [0, 1, 2];
        let cycle1 = [3, 4, 5];
        let sessions: Vec<Vec<ActionId>> = (0..90usize)
            .map(|i| {
                let len = (i * 7) % 23;
                let cycle = if i % 9 == 4 { &cycle1 } else { &cycle0 };
                let tokens: Vec<usize> = (0..len).map(|t| cycle[(t + i) % 3]).collect();
                acts(&tokens)
            })
            .collect();
        let lengths: std::collections::BTreeSet<usize> = sessions.iter().map(Vec::len).collect();
        assert!([0, 1, 2].iter().all(|l| lengths.contains(l)), "{lengths:?}");
        let sequential: Vec<SessionVerdict> = sessions.iter().map(|s| d.score_session(s)).collect();
        let mut per_cluster = vec![0usize; d.n_clusters()];
        for v in &sequential {
            per_cluster[v.cluster.index()] += 1;
        }
        assert!(
            per_cluster.iter().any(|&n| n > 2 * MAX_BATCH),
            "no cluster spans three buckets: {per_cluster:?}"
        );
        (sessions, sequential)
    }

    /// `score_sessions` over several buckets per cluster equals a
    /// sequential `score_session` loop bit for bit at every thread count.
    #[test]
    fn batched_mode_matches_per_session_bitwise() {
        let d = detector();
        let (sessions, sequential) = bucket_spanning_sessions(&d);
        let want: Vec<_> = sequential.iter().map(verdict_bits).collect();
        for threads in [0, 1, 2, 4] {
            let got: Vec<_> = d
                .score_sessions(&sessions, threads)
                .iter()
                .map(verdict_bits)
                .collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    /// `rank_suspicious_par` over several buckets per cluster equals a
    /// ranking of sequential `score_session` verdicts bit for bit.
    #[test]
    fn batched_ranking_matches_per_session_ranking() {
        let d = detector();
        let (sessions, sequential) = bucket_spanning_sessions(&d);
        // The ranking oracle: scorable sessions, stable-sorted by ascending
        // likelihood, ties by descending loss.
        let mut ranked: Vec<usize> = (0..sessions.len())
            .filter(|&i| sequential[i].score.n_predictions > 0)
            .collect();
        ranked.sort_by(|&a, &b| {
            let (a, b) = (&sequential[a].score, &sequential[b].score);
            a.avg_likelihood
                .partial_cmp(&b.avg_likelihood)
                .unwrap()
                .then(b.avg_loss.partial_cmp(&a.avg_loss).unwrap())
        });
        for top_k in [5, sessions.len()] {
            let want: Vec<_> = ranked
                .iter()
                .take(top_k)
                .map(|&i| (i, verdict_bits(&sequential[i])))
                .collect();
            for threads in [1, 3] {
                let got: Vec<_> = d
                    .rank_suspicious_par(&sessions, top_k, threads)
                    .iter()
                    .map(|(i, v)| (*i, verdict_bits(v)))
                    .collect();
                assert_eq!(got, want, "top_k = {top_k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn parallel_ranking_matches_sequential() {
        let d = detector();
        let sessions: Vec<Vec<ActionId>> = vec![
            acts(&[0, 1, 2, 0, 1, 2]),
            acts(&[3, 4, 5, 3, 4, 5]),
            acts(&[2, 2, 5, 5, 0, 3]),
            acts(&[0]),
            acts(&[0, 1, 2, 0, 1, 2, 0]),
        ];
        let sequential = d.rank_suspicious(&sessions, 3);
        for threads in [2, 4] {
            assert_eq!(
                d.rank_suspicious_par(&sessions, 3, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn short_sessions_excluded_from_ranking() {
        let d = detector();
        let sessions: Vec<Vec<ActionId>> = vec![acts(&[0]), acts(&[0, 1, 2])];
        let ranked = d.rank_suspicious(&sessions, 10);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, 1);
    }

    #[test]
    fn encode_drops_unknown_actions() {
        let d = detector();
        assert_eq!(d.encode(&acts(&[0, 99, 2])), vec![0, 2]);
    }

    #[test]
    fn weighted_scoring_forms_a_mixture() {
        let d = detector();
        let s = acts(&[0, 1, 2, 0, 1, 2]);
        let v = d.score_session_weighted(&s, 0.05);
        assert_eq!(v.weights.len(), 2);
        assert!((v.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Combined score lies between the per-cluster extremes.
        let min = v
            .per_cluster
            .iter()
            .map(|p| p.avg_likelihood)
            .fold(f32::INFINITY, f32::min);
        let max = v
            .per_cluster
            .iter()
            .map(|p| p.avg_likelihood)
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(v.score.avg_likelihood >= min - 1e-6 && v.score.avg_likelihood <= max + 1e-6);
        // At low temperature the weight concentrates on the routed cluster.
        let routed = d.route(&s).cluster;
        assert!(v.weights[routed.index()] > 0.8, "weights {:?}", v.weights);
    }

    #[test]
    fn weighted_scoring_still_separates_abnormal() {
        let d = detector();
        let normal = d.score_session_weighted(&acts(&[0, 1, 2, 0, 1, 2]), 1.0);
        let abnormal = d.score_session_weighted(&acts(&[5, 0, 3, 1, 4, 2]), 1.0);
        assert!(normal.score.avg_likelihood > abnormal.score.avg_likelihood);
        assert!(normal.score.perplexity() < abnormal.score.perplexity());
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn weighted_scoring_rejects_bad_tau() {
        let d = detector();
        let _ = d.score_session_weighted(&acts(&[0, 1]), 0.0);
    }

    #[test]
    fn scoring_in_fixed_cluster_differs_from_routed() {
        let d = detector();
        let s = acts(&[0, 1, 2, 0, 1, 2]);
        let own = d.score_in_cluster(&s, ClusterId(0));
        let wrong = d.score_in_cluster(&s, ClusterId(1));
        assert!(own.avg_likelihood > wrong.avg_likelihood);
    }

    #[test]
    #[should_panic(expected = "one language model per routed cluster")]
    fn mismatched_models_panic() {
        let d = detector();
        let (router, mut models, lock_in) = d.into_parts();
        models.pop();
        let _ = MisuseDetector::new(router, models, lock_in);
    }
}
