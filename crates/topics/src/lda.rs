use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::TopicsError;

/// Configuration for one LDA run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics `K`.
    pub n_topics: usize,
    /// Vocabulary size `d` (number of distinct actions).
    pub vocab: usize,
    /// Symmetric document-topic prior.
    pub alpha: f64,
    /// Symmetric topic-word prior.
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            n_topics: 13,
            vocab: 300,
            alpha: 0.1,
            beta: 0.01,
            iterations: 100,
            seed: 0,
        }
    }
}

/// Cached per-topic `1/(n_k + β·V)` factors and the smoothing-bucket total
/// `Σ_t α·β·inv[t]`.
///
/// The total is maintained incrementally as topics gain/lose tokens and
/// rebuilt from scratch at the start of every sweep; because the sparse
/// sweep and its dense test oracle run the exact same update sequence,
/// their cached values (including any accumulated rounding) are
/// bit-identical.
struct SmoothCache {
    inv: Vec<f64>,
    s_total: f64,
    ab: f64,
    beta_sum: f64,
}

impl SmoothCache {
    fn new(k: usize, alpha: f64, beta: f64, beta_sum: f64) -> Self {
        SmoothCache {
            inv: vec![0.0; k],
            s_total: 0.0,
            ab: alpha * beta,
            beta_sum,
        }
    }

    /// Rebuilds every factor and the smoothing total from the topic counts.
    fn refresh(&mut self, n_k: &[i64]) {
        self.s_total = 0.0;
        for (t, &nk) in n_k.iter().enumerate() {
            self.inv[t] = 1.0 / (nk as f64 + self.beta_sum);
            self.s_total += self.ab * self.inv[t];
        }
    }

    /// Re-derives topic `t`'s factor after its count changed to `n_k_t`.
    fn update(&mut self, t: usize, n_k_t: i64) {
        self.s_total -= self.ab * self.inv[t];
        self.inv[t] = 1.0 / (n_k_t as f64 + self.beta_sum);
        self.s_total += self.ab * self.inv[t];
    }
}

/// Doc bucket term: `n_dk·(n_kw+β)·inv`.
#[inline]
fn q_term(n_dk: i64, n_kw: i64, beta: f64, inv: f64) -> f64 {
    n_dk as f64 * (n_kw as f64 + beta) * inv
}

/// Word bucket term: `α·n_kw·inv`.
#[inline]
fn r_term(alpha: f64, n_kw: i64, inv: f64) -> f64 {
    alpha * n_kw as f64 * inv
}

/// Inserts `t` into an ascending topic list (no-op if present).
#[inline]
fn list_insert(list: &mut Vec<usize>, t: usize) {
    if let Err(pos) = list.binary_search(&t) {
        list.insert(pos, t);
    }
}

/// Removes `t` from an ascending topic list (no-op if absent).
#[inline]
fn list_remove(list: &mut Vec<usize>, t: usize) {
    if let Ok(pos) = list.binary_search(&t) {
        list.remove(pos);
    }
}

/// The mutable count tables a Gibbs sweep operates on.
struct SweepTables<'a> {
    /// Token topic assignments, `z[di][ti]`.
    z: &'a mut Vec<Vec<usize>>,
    /// Topic-word counts, row-major `k x d`.
    n_kw: &'a mut Vec<i64>,
    /// Topic totals, length `k`.
    n_k: &'a mut Vec<i64>,
    /// Doc-topic counts, row-major `m x k`.
    n_dk: &'a mut Vec<i64>,
}

/// Walks the three buckets in fixed order (doc ascending, word ascending,
/// smoothing `0..k`) subtracting terms from `x` until it goes negative.
/// Falls through to `k - 1` if floating-point dust leaves `x` non-negative.
///
/// The sparse sweep and its dense test oracle fill `q`/`r` with the same
/// topics in the same order with identical arithmetic, which is what makes
/// their chains bit-identical.
fn pick_topic(mut x: f64, q: &[(usize, f64)], r: &[(usize, f64)], cache: &SmoothCache, k: usize) -> usize {
    for &(t, term) in q.iter().chain(r) {
        x -= term;
        if x < 0.0 {
            return t;
        }
    }
    for t in 0..k {
        x -= cache.ab * cache.inv[t];
        if x < 0.0 {
            return t;
        }
    }
    k - 1
}

/// The signature shared by [`sweep_sparse`] and its test oracle.
type Sweep = fn(
    &[Vec<usize>],
    &mut SweepTables<'_>,
    usize,
    usize,
    f64,
    f64,
    usize,
    &mut SmoothCache,
    &mut StdRng,
);

/// Reference Gibbs sweep, kept as the test oracle for [`sweep_sparse`]: a
/// full `O(K)` scan per token, expressed through the same bucket
/// decomposition.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn sweep_dense(
    docs: &[Vec<usize>],
    tables: &mut SweepTables<'_>,
    k: usize,
    d: usize,
    alpha: f64,
    beta: f64,
    iterations: usize,
    cache: &mut SmoothCache,
    rng: &mut StdRng,
) {
    let mut qbuf: Vec<(usize, f64)> = Vec::with_capacity(k);
    let mut rbuf: Vec<(usize, f64)> = Vec::with_capacity(k);
    for _sweep in 0..iterations {
        cache.refresh(tables.n_k);
        for (di, doc) in docs.iter().enumerate() {
            for (ti, &w) in doc.iter().enumerate() {
                let old = tables.z[di][ti];
                tables.n_kw[old * d + w] -= 1;
                tables.n_k[old] -= 1;
                tables.n_dk[di * k + old] -= 1;
                cache.update(old, tables.n_k[old]);

                qbuf.clear();
                rbuf.clear();
                let mut q_total = 0.0f64;
                let mut r_total = 0.0f64;
                // One fused scan: both buckets are filled in ascending-t
                // order with their totals accumulated in the same order as
                // two separate scans would, so the chain is unchanged while
                // `n_kw` is gathered once per topic instead of twice.
                for t in 0..k {
                    let nd = tables.n_dk[di * k + t];
                    let nw = tables.n_kw[t * d + w];
                    if nd > 0 {
                        let p = q_term(nd, nw, beta, cache.inv[t]);
                        qbuf.push((t, p));
                        q_total += p;
                    }
                    if nw > 0 {
                        let p = r_term(alpha, nw, cache.inv[t]);
                        rbuf.push((t, p));
                        r_total += p;
                    }
                }
                let total = q_total + r_total + cache.s_total;
                // Degenerate-mass guard: with underflowed or non-finite
                // bucket totals a cumulative draw would silently land on
                // topic k-1 every time. Keep the current assignment instead,
                // consuming no randomness.
                let new = if !total.is_finite() || total <= 0.0 {
                    old
                } else {
                    let x = rng.gen::<f64>() * total;
                    pick_topic(x, &qbuf, &rbuf, cache, k)
                };
                tables.z[di][ti] = new;
                tables.n_kw[new * d + w] += 1;
                tables.n_k[new] += 1;
                tables.n_dk[di * k + new] += 1;
                cache.update(new, tables.n_k[new]);
            }
        }
    }
}

/// Doc-sparse Gibbs sweep (SparseLDA-style, Yao, Mimno & McCallum 2009):
/// the collapsed-Gibbs update decomposed into three buckets,
///
/// ```text
/// p(z = t) ∝ [ n_dk·(n_kw+β) + α·n_kw + α·β ] / (n_k + β·V)
///            └─ doc bucket ─┘ └ word bucket ┘ └ smoothing ┘
/// ```
///
/// walking only topics with nonzero `n_dk` and `n_kw` mass via maintained
/// ascending topic lists, plus the cached smoothing total. On the paper's
/// per-session corpora (each session touches a handful of topics) that
/// walk is far shorter than `K`. It produces the same chain, bit for bit,
/// as a full `O(K)` scan (the `sweep_dense` oracle in this module's
/// tests).
#[allow(clippy::too_many_arguments)]
fn sweep_sparse(
    docs: &[Vec<usize>],
    tables: &mut SweepTables<'_>,
    k: usize,
    d: usize,
    alpha: f64,
    beta: f64,
    iterations: usize,
    cache: &mut SmoothCache,
    rng: &mut StdRng,
) {
    let m = docs.len();
    let mut doc_topics: Vec<Vec<usize>> = (0..m)
        .map(|di| (0..k).filter(|&t| tables.n_dk[di * k + t] > 0).collect())
        .collect();
    let mut word_topics: Vec<Vec<usize>> = (0..d)
        .map(|w| (0..k).filter(|&t| tables.n_kw[t * d + w] > 0).collect())
        .collect();
    let mut qbuf: Vec<(usize, f64)> = Vec::with_capacity(k);
    let mut rbuf: Vec<(usize, f64)> = Vec::with_capacity(k);
    for _sweep in 0..iterations {
        cache.refresh(tables.n_k);
        for (di, doc) in docs.iter().enumerate() {
            for (ti, &w) in doc.iter().enumerate() {
                let old = tables.z[di][ti];
                tables.n_kw[old * d + w] -= 1;
                tables.n_k[old] -= 1;
                tables.n_dk[di * k + old] -= 1;
                if tables.n_kw[old * d + w] == 0 {
                    list_remove(&mut word_topics[w], old);
                }
                if tables.n_dk[di * k + old] == 0 {
                    list_remove(&mut doc_topics[di], old);
                }
                cache.update(old, tables.n_k[old]);

                qbuf.clear();
                rbuf.clear();
                let mut q_total = 0.0f64;
                let mut r_total = 0.0f64;
                for &t in &doc_topics[di] {
                    let p = q_term(tables.n_dk[di * k + t], tables.n_kw[t * d + w], beta, cache.inv[t]);
                    qbuf.push((t, p));
                    q_total += p;
                }
                for &t in &word_topics[w] {
                    let p = r_term(alpha, tables.n_kw[t * d + w], cache.inv[t]);
                    rbuf.push((t, p));
                    r_total += p;
                }
                let total = q_total + r_total + cache.s_total;
                // Same degenerate-mass guard as the dense sweep.
                let new = if !total.is_finite() || total <= 0.0 {
                    old
                } else {
                    let x = rng.gen::<f64>() * total;
                    pick_topic(x, &qbuf, &rbuf, cache, k)
                };
                tables.z[di][ti] = new;
                if tables.n_kw[new * d + w] == 0 {
                    list_insert(&mut word_topics[w], new);
                }
                if tables.n_dk[di * k + new] == 0 {
                    list_insert(&mut doc_topics[di], new);
                }
                tables.n_kw[new * d + w] += 1;
                tables.n_k[new] += 1;
                tables.n_dk[di * k + new] += 1;
                cache.update(new, tables.n_k[new]);
            }
        }
    }
}

/// Collapsed Gibbs sampler for Latent Dirichlet Allocation (Blei et al.
/// 2003), the topic model the paper's visual interface is built on.
///
/// # Example
///
/// ```
/// use ibcm_topics::{Lda, LdaConfig};
/// let cfg = LdaConfig { n_topics: 2, vocab: 6, iterations: 30, seed: 7, ..LdaConfig::default() };
/// let docs = vec![vec![0, 1, 0, 1], vec![4, 5, 4, 5], vec![0, 0, 1]];
/// let model = Lda::new(cfg).fit(&docs)?;
/// assert_eq!(model.theta(0).len(), 2);
/// # Ok::<(), ibcm_topics::TopicsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lda {
    config: LdaConfig,
}

/// A fitted LDA model: `phi` (topic-action) and `theta` (document-topic)
/// matrices — exactly the two matrices the paper feeds to the visualization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicModel {
    n_topics: usize,
    vocab: usize,
    n_docs: usize,
    /// Row-major `n_topics x vocab`.
    phi: Vec<f64>,
    /// Row-major `n_docs x n_topics`.
    theta: Vec<f64>,
    perplexity: f64,
}

impl Lda {
    /// Creates a sampler with the given configuration.
    pub fn new(config: LdaConfig) -> Self {
        Lda { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// Fits the model to `docs` (each document a slice of word indices).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty corpus, an invalid configuration, or a
    /// word index `>= vocab`.
    pub fn fit(&self, docs: &[Vec<usize>]) -> Result<TopicModel, TopicsError> {
        self.fit_with(docs, sweep_sparse)
    }

    /// [`Lda::fit`] with the Gibbs sweep passed in, so the tests can run
    /// the dense oracle through the same validation, initialization and
    /// posterior code.
    fn fit_with(&self, docs: &[Vec<usize>], sweep: Sweep) -> Result<TopicModel, TopicsError> {
        let _span = ibcm_obs::span!("lda_fit");
        let fit_start = ibcm_obs::Stopwatch::start();
        let LdaConfig {
            n_topics: k,
            vocab: d,
            alpha,
            beta,
            iterations,
            seed,
        } = self.config;
        if k == 0 || d == 0 {
            return Err(TopicsError::InvalidConfig(
                "n_topics and vocab must be positive".into(),
            ));
        }
        if alpha <= 0.0 || beta <= 0.0 {
            return Err(TopicsError::InvalidConfig("priors must be positive".into()));
        }
        let m = docs.len();
        let total_tokens: usize = docs.iter().map(Vec::len).sum();
        if total_tokens == 0 {
            return Err(TopicsError::EmptyCorpus);
        }
        for (di, doc) in docs.iter().enumerate() {
            if let Some(&w) = doc.iter().find(|&&w| w >= d) {
                return Err(TopicsError::WordOutOfVocab {
                    doc: di,
                    word: w,
                    vocab: d,
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        // Count tables.
        let mut n_kw = vec![0i64; k * d]; // topic-word
        let mut n_k = vec![0i64; k]; // topic totals
        let mut n_dk = vec![0i64; m * k]; // doc-topic
        // Token topic assignments.
        let mut z: Vec<Vec<usize>> = docs
            .iter()
            .map(|doc| (0..doc.len()).map(|_| rng.gen_range(0..k)).collect())
            .collect();
        for (di, doc) in docs.iter().enumerate() {
            for (ti, &w) in doc.iter().enumerate() {
                let t = z[di][ti];
                n_kw[t * d + w] += 1;
                n_k[t] += 1;
                n_dk[di * k + t] += 1;
            }
        }

        let beta_sum = beta * d as f64;
        let mut cache = SmoothCache::new(k, alpha, beta, beta_sum);
        let tables = &mut SweepTables {
            z: &mut z,
            n_kw: &mut n_kw,
            n_k: &mut n_k,
            n_dk: &mut n_dk,
        };
        sweep(
            docs, tables, k, d, alpha, beta, iterations, &mut cache, &mut rng,
        );

        // Posterior means.
        let mut phi = vec![0.0f64; k * d];
        for t in 0..k {
            let denom = n_k[t] as f64 + beta_sum;
            for w in 0..d {
                phi[t * d + w] = (n_kw[t * d + w] as f64 + beta) / denom;
            }
        }
        let alpha_sum = alpha * k as f64;
        let mut theta = vec![0.0f64; m * k];
        for (di, doc) in docs.iter().enumerate() {
            let denom = doc.len() as f64 + alpha_sum;
            for t in 0..k {
                theta[di * k + t] = (n_dk[di * k + t] as f64 + alpha) / denom;
            }
        }

        // Training perplexity.
        let mut loglik = 0.0;
        for (di, doc) in docs.iter().enumerate() {
            for &w in doc {
                let mut p = 0.0;
                for t in 0..k {
                    p += theta[di * k + t] * phi[t * d + w];
                }
                loglik += p.max(1e-300).ln();
            }
        }
        let perplexity = (-loglik / total_tokens as f64).exp();

        ibcm_obs::names::LDA_FITS.counter().inc();
        ibcm_obs::names::LDA_FIT_SECONDS
            .histogram(ibcm_obs::DEFAULT_SECONDS_BUCKETS)
            .observe(fit_start.elapsed_seconds());

        Ok(TopicModel {
            n_topics: k,
            vocab: d,
            n_docs: m,
            phi,
            theta,
            perplexity,
        })
    }
}

impl TopicModel {
    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Topic-action distribution of topic `t` (row of the topic-action
    /// matrix shown in the visual interface).
    ///
    /// # Panics
    ///
    /// Panics if `t >= n_topics`.
    pub fn phi(&self, t: usize) -> &[f64] {
        &self.phi[t * self.vocab..(t + 1) * self.vocab]
    }

    /// Document-topic distribution of document `di`.
    ///
    /// # Panics
    ///
    /// Panics if `di >= n_docs`.
    pub fn theta(&self, di: usize) -> &[f64] {
        &self.theta[di * self.n_topics..(di + 1) * self.n_topics]
    }

    /// Training-set perplexity (lower is better).
    pub fn perplexity(&self) -> f64 {
        self.perplexity
    }

    /// The `top_n` most probable actions of topic `t`, most probable first.
    pub fn top_actions(&self, t: usize, top_n: usize) -> Vec<(usize, f64)> {
        let mut pairs: Vec<(usize, f64)> =
            self.phi(t).iter().copied().enumerate().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs.truncate(top_n);
        pairs
    }

    /// Dominant topic of document `di`.
    pub fn dominant_topic(&self, di: usize) -> usize {
        let th = self.theta(di);
        th.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Infers a theta vector for an unseen document by folding in: a few
    /// Gibbs-like responsibility updates against the fixed `phi`.
    pub fn infer_theta(&self, doc: &[usize], iterations: usize) -> Vec<f64> {
        let k = self.n_topics;
        let mut theta = vec![1.0 / k as f64; k];
        if doc.is_empty() {
            return theta;
        }
        for _ in 0..iterations.max(1) {
            let mut counts = vec![0.0f64; k];
            for &w in doc {
                if w >= self.vocab {
                    continue; // unseen action: no evidence
                }
                let mut resp = vec![0.0f64; k];
                let mut total = 0.0;
                for t in 0..k {
                    let r = theta[t] * self.phi[t * self.vocab + w];
                    resp[t] = r;
                    total += r;
                }
                if total > 0.0 {
                    for t in 0..k {
                        counts[t] += resp[t] / total;
                    }
                }
            }
            let denom: f64 = counts.iter().sum::<f64>() + 0.1 * k as f64;
            for t in 0..k {
                theta[t] = (counts[t] + 0.1) / denom;
            }
        }
        theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_corpus() -> Vec<Vec<usize>> {
        // Words 0-2 co-occur; words 3-5 co-occur.
        let mut docs = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec![0, 1, 2, 0, 1, 2, 0]);
            } else {
                docs.push(vec![3, 4, 5, 3, 4, 5, 5]);
            }
        }
        docs
    }

    fn fit_two_topics(seed: u64) -> TopicModel {
        Lda::new(LdaConfig {
            n_topics: 2,
            vocab: 6,
            iterations: 80,
            seed,
            ..LdaConfig::default()
        })
        .fit(&two_cluster_corpus())
        .unwrap()
    }

    #[test]
    fn phi_rows_are_distributions() {
        let m = fit_two_topics(1);
        for t in 0..2 {
            let s: f64 = m.phi(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "phi row sums to {s}");
            assert!(m.phi(t).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn theta_rows_are_distributions() {
        let m = fit_two_topics(2);
        for di in 0..m.n_docs() {
            let s: f64 = m.theta(di).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn recovers_two_planted_topics() {
        let m = fit_two_topics(3);
        // Each topic should concentrate on one word block.
        let t0_block0: f64 = m.phi(0)[0..3].iter().sum();
        let t1_block0: f64 = m.phi(1)[0..3].iter().sum();
        let (lo, hi) = if t0_block0 > t1_block0 {
            (t1_block0, t0_block0)
        } else {
            (t0_block0, t1_block0)
        };
        assert!(hi > 0.9, "one topic should own block 0, got {hi}");
        assert!(lo < 0.1, "other topic should avoid block 0, got {lo}");
    }

    #[test]
    fn documents_assigned_to_their_topic() {
        let m = fit_two_topics(4);
        let d0 = m.dominant_topic(0); // block-0 doc
        let d1 = m.dominant_topic(1); // block-1 doc
        assert_ne!(d0, d1);
        // All even docs share d0, all odd share d1.
        for di in 0..m.n_docs() {
            let expected = if di % 2 == 0 { d0 } else { d1 };
            assert_eq!(m.dominant_topic(di), expected, "doc {di}");
        }
    }

    #[test]
    fn perplexity_better_than_uniform() {
        let m = fit_two_topics(5);
        assert!(m.perplexity() < 6.0, "perplexity {} vs uniform 6", m.perplexity());
        assert!(m.perplexity() >= 1.0);
    }

    #[test]
    fn infer_theta_matches_training_assignment() {
        let m = fit_two_topics(6);
        let t_block0 = m.dominant_topic(0);
        let inferred = m.infer_theta(&[0, 1, 2, 1, 0], 10);
        let arg = inferred
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(arg, t_block0);
        let s: f64 = inferred.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infer_theta_handles_unseen_and_empty() {
        let m = fit_two_topics(7);
        let th = m.infer_theta(&[], 5);
        assert!((th.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let th = m.infer_theta(&[99, 100], 5); // out-of-vocab only
        assert!((th.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let cfg = LdaConfig {
            n_topics: 2,
            vocab: 3,
            iterations: 5,
            seed: 0,
            ..LdaConfig::default()
        };
        assert_eq!(Lda::new(cfg).fit(&[]).unwrap_err(), TopicsError::EmptyCorpus);
        assert!(matches!(
            Lda::new(cfg).fit(&[vec![5]]),
            Err(TopicsError::WordOutOfVocab { .. })
        ));
        let bad = LdaConfig { n_topics: 0, ..cfg };
        assert!(Lda::new(bad).fit(&[vec![0]]).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fit_two_topics(9);
        let b = fit_two_topics(9);
        assert_eq!(a, b);
    }

    /// Regression: with degenerate priors `alpha*beta` underflows to exactly
    /// 0.0, and on a corpus of singleton documents with distinct words every
    /// bucket is empty after the decrement — the total sampling mass is 0.
    /// The old cumulative draw fell through and silently assigned topic
    /// `k-1` to every token; the guard now keeps the current assignment
    /// (and consumes no randomness).
    #[test]
    fn degenerate_priors_keep_assignments_instead_of_collapsing() {
        let docs: Vec<Vec<usize>> = (0..12).map(|w| vec![w]).collect();
        let lda = Lda::new(LdaConfig {
            n_topics: 4,
            vocab: 12,
            alpha: 1e-200,
            beta: 1e-200,
            iterations: 5,
            seed: 11,
        });
        for (name, sweep) in [("dense", sweep_dense as Sweep), ("sparse", sweep_sparse)] {
            let m = lda.fit_with(&docs, sweep).unwrap();
            let dominants: Vec<usize> = (0..m.n_docs()).map(|di| m.dominant_topic(di)).collect();
            assert!(
                dominants.iter().any(|&t| t != 3),
                "{name}: all documents collapsed onto topic k-1: {dominants:?}"
            );
            let distinct: std::collections::BTreeSet<usize> = dominants.iter().copied().collect();
            assert!(
                distinct.len() >= 2,
                "{name}: degenerate corpus should keep its random spread, got {dominants:?}"
            );
            assert!(m.perplexity().is_finite());
        }
    }

    // Sparse-vs-dense equivalence. Both sweeps implement the same bucket
    // decomposition with identical walk order and arithmetic, so for a
    // given seed they must produce the same chain — not just statistically
    // similar models: exact phi/theta/perplexity agreement, identical
    // shapes, and identical error behavior on bad input.

    /// A mixed corpus: two planted word blocks, varied document lengths, a
    /// shared crossover word (7), and a repeated-token document.
    fn mixed_corpus() -> Vec<Vec<usize>> {
        let mut docs = Vec::new();
        for i in 0..20 {
            match i % 4 {
                0 => docs.push(vec![0, 1, 2, 0, 1, 2, 7]),
                1 => docs.push(vec![3, 4, 5, 3, 4, 5, 5, 7]),
                2 => docs.push(vec![0, 2, 1]),
                _ => docs.push(vec![6, 6, 6, 6, 6]),
            }
        }
        docs
    }

    fn fit_mixed(sweep: Sweep, seed: u64, k: usize) -> TopicModel {
        Lda::new(LdaConfig {
            n_topics: k,
            vocab: 8,
            iterations: 40,
            seed,
            ..LdaConfig::default()
        })
        .fit_with(&mixed_corpus(), sweep)
        .unwrap()
    }

    #[test]
    fn same_seed_same_chain_exactly() {
        for seed in 0..6u64 {
            for k in [2, 3, 5] {
                let dense = fit_mixed(sweep_dense, seed, k);
                let sparse = fit_mixed(sweep_sparse, seed, k);
                assert_eq!(
                    dense, sparse,
                    "seed {seed}, k {k}: dense and sparse chains diverged"
                );
            }
        }
    }

    #[test]
    fn perplexity_within_relative_tolerance() {
        // Exact chain equality makes the gap zero; the explicit tolerance
        // keeps a quantitative gate should the bit-equality contract ever
        // be relaxed.
        for seed in 0..4u64 {
            let dense = fit_mixed(sweep_dense, seed, 3);
            let sparse = fit_mixed(sweep_sparse, seed, 3);
            let rel = (dense.perplexity() - sparse.perplexity()).abs() / dense.perplexity();
            assert!(rel <= 1e-6, "seed {seed}: relative perplexity gap {rel}");
        }
    }

    #[test]
    fn shapes_agree() {
        let dense = fit_mixed(sweep_dense, 3, 4);
        let sparse = fit_mixed(sweep_sparse, 3, 4);
        assert_eq!(dense.n_topics(), sparse.n_topics());
        assert_eq!(dense.vocab(), sparse.vocab());
        assert_eq!(dense.n_docs(), sparse.n_docs());
        for t in 0..dense.n_topics() {
            assert_eq!(dense.phi(t).len(), sparse.phi(t).len());
        }
        for di in 0..dense.n_docs() {
            assert_eq!(dense.theta(di).len(), sparse.theta(di).len());
        }
    }

    #[test]
    fn sparse_is_deterministic_per_seed() {
        let a = fit_mixed(sweep_sparse, 9, 4);
        let b = fit_mixed(sweep_sparse, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn error_behavior_matches() {
        let cfg = LdaConfig {
            n_topics: 2,
            vocab: 3,
            iterations: 5,
            ..LdaConfig::default()
        };
        for (name, sweep) in [("dense", sweep_dense as Sweep), ("sparse", sweep_sparse)] {
            assert_eq!(
                Lda::new(cfg).fit_with(&[], sweep).unwrap_err(),
                TopicsError::EmptyCorpus,
                "{name}"
            );
            assert!(
                matches!(
                    Lda::new(cfg).fit_with(&[vec![0, 5]], sweep),
                    Err(TopicsError::WordOutOfVocab { doc: 0, word: 5, vocab: 3 })
                ),
                "{name}"
            );
            let bad_k = LdaConfig { n_topics: 0, ..cfg };
            assert!(matches!(
                Lda::new(bad_k).fit_with(&[vec![0]], sweep),
                Err(TopicsError::InvalidConfig(_))
            ));
            let bad_prior = LdaConfig { alpha: 0.0, ..cfg };
            assert!(matches!(
                Lda::new(bad_prior).fit_with(&[vec![0]], sweep),
                Err(TopicsError::InvalidConfig(_))
            ));
        }
    }
}
