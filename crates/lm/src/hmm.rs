use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::LmError;
use crate::metrics::{SequenceEval, SessionScore};

/// Configuration for the discrete hidden Markov model baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HmmConfig {
    /// Number of hidden states.
    pub n_states: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Baum-Welch iterations.
    pub iterations: usize,
    /// Additive smoothing applied to the re-estimated parameters.
    pub smoothing: f64,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for HmmConfig {
    fn default() -> Self {
        HmmConfig {
            n_states: 8,
            vocab: 300,
            iterations: 20,
            smoothing: 1e-3,
            seed: 0,
        }
    }
}

/// A discrete-emission hidden Markov model trained with Baum-Welch — the
/// classical sequence model the paper's related work contrasts with LSTMs
/// (Yeung & Ding 2003 use HMMs for host-based intrusion detection).
///
/// Scoring uses the scaled forward algorithm, whose per-step normalizers
/// are exactly the next-action predictive likelihoods
/// `p(a_t | a_1..t-1)`, so the same normality measures apply.
///
/// # Example
///
/// ```
/// use ibcm_lm::{HmmConfig, HmmLm};
/// let seqs = vec![vec![0, 1, 2, 0, 1, 2], vec![0, 1, 2, 0]];
/// let cfg = HmmConfig { n_states: 3, vocab: 3, iterations: 30, ..HmmConfig::default() };
/// let hmm = HmmLm::train(&cfg, &seqs)?;
/// let score = hmm.score_session(&[0, 1, 2, 0]);
/// assert!(score.avg_likelihood > 0.2);
/// # Ok::<(), ibcm_lm::LmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmmLm {
    config: HmmConfig,
    /// Initial state distribution, length `n_states`.
    pi: Vec<f64>,
    /// Transition matrix, row-major `n_states x n_states`.
    a: Vec<f64>,
    /// Emission matrix, row-major `n_states x vocab`.
    b: Vec<f64>,
}

impl HmmLm {
    /// Trains with Baum-Welch on the given sequences.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configuration, out-of-vocabulary
    /// tokens, or no usable training data.
    pub fn train(config: &HmmConfig, seqs: &[Vec<usize>]) -> Result<Self, LmError> {
        if config.n_states == 0 || config.vocab == 0 {
            return Err(LmError::InvalidConfig(
                "n_states and vocab must be positive".into(),
            ));
        }
        if config.smoothing <= 0.0 {
            return Err(LmError::InvalidConfig("smoothing must be positive".into()));
        }
        for (si, s) in seqs.iter().enumerate() {
            if let Some(&t) = s.iter().find(|&&t| t >= config.vocab) {
                return Err(LmError::TokenOutOfVocab {
                    seq: si,
                    token: t,
                    vocab: config.vocab,
                });
            }
        }
        let usable: Vec<&Vec<usize>> = seqs.iter().filter(|s| !s.is_empty()).collect();
        if usable.is_empty() {
            return Err(LmError::NoTrainingData);
        }

        let k = config.n_states;
        let v = config.vocab;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut random_dist = |n: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.1).collect();
            let s: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / s).collect()
        };
        let mut model = HmmLm {
            config: *config,
            pi: random_dist(k),
            a: (0..k).flat_map(|_| random_dist(k)).collect(),
            b: (0..k).flat_map(|_| random_dist(v)).collect(),
        };

        for _ in 0..config.iterations {
            let mut pi_acc = vec![config.smoothing; k];
            let mut a_acc = vec![config.smoothing; k * k];
            let mut b_acc = vec![config.smoothing; k * v];
            for seq in &usable {
                model.accumulate(seq, &mut pi_acc, &mut a_acc, &mut b_acc);
            }
            normalize_rows(&mut pi_acc, k);
            normalize_rows(&mut a_acc, k);
            normalize_rows(&mut b_acc, v);
            model.pi = pi_acc;
            model.a = a_acc;
            model.b = b_acc;
        }
        Ok(model)
    }

    /// One E-step over a sequence: adds expected counts into the
    /// accumulators (scaled forward-backward).
    fn accumulate(&self, seq: &[usize], pi_acc: &mut [f64], a_acc: &mut [f64], b_acc: &mut [f64]) {
        let k = self.config.n_states;
        let t_len = seq.len();
        // Scaled forward.
        let mut alpha = vec![0.0f64; t_len * k];
        let mut scale = vec![0.0f64; t_len];
        for i in 0..k {
            alpha[i] = self.pi[i] * self.b[i * self.config.vocab + seq[0]];
        }
        scale[0] = alpha[..k].iter().sum::<f64>().max(1e-300);
        for i in 0..k {
            alpha[i] /= scale[0];
        }
        for t in 1..t_len {
            for j in 0..k {
                let mut s = 0.0;
                for i in 0..k {
                    s += alpha[(t - 1) * k + i] * self.a[i * k + j];
                }
                alpha[t * k + j] = s * self.b[j * self.config.vocab + seq[t]];
            }
            scale[t] = alpha[t * k..(t + 1) * k].iter().sum::<f64>().max(1e-300);
            for j in 0..k {
                alpha[t * k + j] /= scale[t];
            }
        }
        // Scaled backward.
        let mut beta = vec![0.0f64; t_len * k];
        for i in 0..k {
            beta[(t_len - 1) * k + i] = 1.0;
        }
        for t in (0..t_len - 1).rev() {
            for i in 0..k {
                let mut s = 0.0;
                for j in 0..k {
                    s += self.a[i * k + j]
                        * self.b[j * self.config.vocab + seq[t + 1]]
                        * beta[(t + 1) * k + j];
                }
                beta[t * k + i] = s / scale[t + 1];
            }
        }
        // Expected counts.
        for i in 0..k {
            pi_acc[i] += alpha[i] * beta[i];
        }
        for t in 0..t_len {
            for i in 0..k {
                let gamma = alpha[t * k + i] * beta[t * k + i];
                b_acc[i * self.config.vocab + seq[t]] += gamma;
            }
        }
        for t in 0..t_len - 1 {
            for i in 0..k {
                for j in 0..k {
                    let xi = alpha[t * k + i]
                        * self.a[i * k + j]
                        * self.b[j * self.config.vocab + seq[t + 1]]
                        * beta[(t + 1) * k + j]
                        / scale[t + 1];
                    a_acc[i * k + j] += xi;
                }
            }
        }
    }

    /// Number of hidden states.
    pub fn n_states(&self) -> usize {
        self.config.n_states
    }

    /// Validates that the parameter tensors match the configured shape —
    /// trivially true for trained models, but deserialized (possibly
    /// corrupt) models must be checked before any indexing arithmetic.
    fn check_model(&self) -> Result<(), LmError> {
        let k = self.config.n_states;
        let v = self.config.vocab;
        if k == 0 || v == 0 {
            return Err(LmError::Scoring(
                "hmm has an empty state space or vocabulary".into(),
            ));
        }
        if self.pi.len() != k || self.a.len() != k * k || self.b.len() != k * v {
            return Err(LmError::Scoring(format!(
                "hmm tensor shapes inconsistent: pi {}, a {}, b {} for {k} states x {v} actions",
                self.pi.len(),
                self.a.len(),
                self.b.len()
            )));
        }
        Ok(())
    }

    /// Predictive distribution over the next action given an observed
    /// prefix (uniform for an empty model, proper simplex otherwise).
    /// Returns an empty vector for a shape-inconsistent (corrupt) model.
    pub fn next_probs(&self, prefix: &[usize]) -> Vec<f64> {
        if self.check_model().is_err() {
            return Vec::new();
        }
        let k = self.config.n_states;
        let v = self.config.vocab;
        // Belief over the current state after the prefix.
        let mut belief = self.pi.clone();
        for &w in prefix {
            let mut next = vec![0.0f64; k];
            for i in 0..k {
                let weight = belief[i] * self.b[i * v + w.min(v - 1)];
                for j in 0..k {
                    next[j] += weight * self.a[i * k + j];
                }
            }
            let s: f64 = next.iter().sum();
            if s > 0.0 {
                next.iter_mut().for_each(|x| *x /= s);
            } else {
                next = vec![1.0 / k as f64; k];
            }
            belief = next;
        }
        let mut probs = vec![0.0f64; v];
        for i in 0..k {
            for (p, &e) in probs.iter_mut().zip(&self.b[i * v..(i + 1) * v]) {
                *p += belief[i] * e;
            }
        }
        let s: f64 = probs.iter().sum();
        if s > 0.0 {
            probs.iter_mut().for_each(|x| *x /= s);
        }
        probs
    }

    /// Scores a session with the same semantics as
    /// [`crate::LstmLm::score_session`] (first action unscored).
    /// Out-of-vocabulary tokens are clamped to the last action index; use
    /// [`HmmLm::try_score_session`] to reject them instead.
    pub fn score_session(&self, seq: &[usize]) -> SessionScore {
        let v = self.config.vocab;
        let clamped: Vec<usize> = seq.iter().map(|&t| t.min(v.saturating_sub(1))).collect();
        self.try_score_session(&clamped).unwrap_or(SessionScore {
            avg_likelihood: 0.0,
            avg_loss: 0.0,
            n_predictions: 0,
        })
    }

    /// [`HmmLm::score_session`] with typed errors: out-of-vocabulary tokens
    /// and shape-inconsistent (corrupt) models are reported instead of
    /// being clamped or panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] or [`LmError::Scoring`].
    pub fn try_score_session(&self, seq: &[usize]) -> Result<SessionScore, LmError> {
        self.check_model()?;
        if let Some(&t) = seq.iter().find(|&&t| t >= self.config.vocab) {
            return Err(LmError::ActionOutOfVocab {
                action: t,
                vocab: self.config.vocab,
            });
        }
        if seq.len() < 2 {
            return Ok(SessionScore {
                avg_likelihood: 0.0,
                avg_loss: 0.0,
                n_predictions: 0,
            });
        }
        let mut sum_lik = 0.0f64;
        let mut sum_loss = 0.0f64;
        let n = seq.len() - 1;
        for i in 1..seq.len() {
            let p = self.next_probs(&seq[..i])[seq[i]].max(1e-12);
            sum_lik += p;
            sum_loss += -p.ln();
        }
        Ok(SessionScore {
            avg_likelihood: (sum_lik / n as f64) as f32,
            avg_loss: (sum_loss / n as f64) as f32,
            n_predictions: n,
        })
    }

    /// Evaluates next-action prediction like [`crate::LstmLm::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-vocabulary tokens; use [`HmmLm::try_evaluate`] on
    /// untrusted input.
    pub fn evaluate(&self, seqs: &[Vec<usize>]) -> SequenceEval {
        match self.try_evaluate(seqs) {
            Ok(eval) => eval,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`HmmLm::evaluate`] returning typed errors instead of panicking on
    /// out-of-vocabulary tokens or corrupt models.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] or [`LmError::Scoring`].
    pub fn try_evaluate(&self, seqs: &[Vec<usize>]) -> Result<SequenceEval, LmError> {
        self.check_model()?;
        let mut hits = 0usize;
        let mut n = 0usize;
        let mut sum_loss = 0.0f64;
        let mut sum_lik = 0.0f64;
        for seq in seqs {
            if let Some(&t) = seq.iter().find(|&&t| t >= self.config.vocab) {
                return Err(LmError::ActionOutOfVocab {
                    action: t,
                    vocab: self.config.vocab,
                });
            }
            for i in 1..seq.len() {
                let probs = self.next_probs(&seq[..i]);
                let p = probs[seq[i]].max(1e-12);
                let pred = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(t, _)| t)
                    .unwrap_or(0);
                hits += usize::from(pred == seq[i]);
                sum_lik += p;
                sum_loss += -p.ln();
                n += 1;
            }
        }
        Ok(SequenceEval {
            accuracy: if n > 0 { hits as f32 / n as f32 } else { 0.0 },
            avg_loss: if n > 0 { (sum_loss / n as f64) as f32 } else { 0.0 },
            avg_likelihood: if n > 0 { (sum_lik / n as f64) as f32 } else { 0.0 },
            n_predictions: n,
        })
    }

    /// Total log-likelihood of a sequence under the model (forward
    /// algorithm), in nats.
    pub fn log_likelihood(&self, seq: &[usize]) -> f64 {
        let k = self.config.n_states;
        let v = self.config.vocab;
        if seq.is_empty() {
            return 0.0;
        }
        if self.check_model().is_err() {
            return f64::NEG_INFINITY;
        }
        let mut alpha: Vec<f64> = (0..k)
            .map(|i| self.pi[i] * self.b[i * v + seq[0].min(v - 1)])
            .collect();
        let mut ll = 0.0;
        let s: f64 = alpha.iter().sum::<f64>().max(1e-300);
        ll += s.ln();
        alpha.iter_mut().for_each(|x| *x /= s);
        for &w in &seq[1..] {
            let mut next = vec![0.0f64; k];
            for j in 0..k {
                let mut acc = 0.0;
                for i in 0..k {
                    acc += alpha[i] * self.a[i * k + j];
                }
                next[j] = acc * self.b[j * v + w.min(v - 1)];
            }
            let s: f64 = next.iter().sum::<f64>().max(1e-300);
            ll += s.ln();
            next.iter_mut().for_each(|x| *x /= s);
            alpha = next;
        }
        ll
    }
}

fn normalize_rows(data: &mut [f64], row_len: usize) {
    for row in data.chunks_mut(row_len) {
        let s: f64 = row.iter().sum();
        if s > 0.0 {
            row.iter_mut().for_each(|x| *x /= s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(states: usize, vocab: usize) -> HmmConfig {
        HmmConfig {
            n_states: states,
            vocab,
            iterations: 30,
            seed: 7,
            ..HmmConfig::default()
        }
    }

    fn cycle_corpus() -> Vec<Vec<usize>> {
        (0..10).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1, 2]).collect()
    }

    #[test]
    fn parameters_are_stochastic() {
        let hmm = HmmLm::train(&cfg(3, 3), &cycle_corpus()).unwrap();
        let s: f64 = hmm.pi.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        for row in hmm.a.chunks(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for row in hmm.b.chunks(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        let hmm = HmmLm::train(&cfg(3, 3), &cycle_corpus()).unwrap();
        let eval = hmm.evaluate(&cycle_corpus());
        assert!(eval.accuracy > 0.8, "accuracy {}", eval.accuracy);
        assert!(eval.avg_likelihood > 0.6);
    }

    #[test]
    fn next_probs_form_simplex() {
        let hmm = HmmLm::train(&cfg(3, 4), &[vec![0, 1, 2, 3, 0, 1]]).unwrap();
        for prefix in [vec![], vec![0], vec![3, 2, 1]] {
            let p = hmm.next_probs(&prefix);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn baum_welch_increases_likelihood() {
        let corpus = cycle_corpus();
        let few = HmmLm::train(
            &HmmConfig {
                iterations: 1,
                ..cfg(3, 3)
            },
            &corpus,
        )
        .unwrap();
        let many = HmmLm::train(&cfg(3, 3), &corpus).unwrap();
        let ll_few: f64 = corpus.iter().map(|s| few.log_likelihood(s)).sum();
        let ll_many: f64 = corpus.iter().map(|s| many.log_likelihood(s)).sum();
        assert!(
            ll_many > ll_few,
            "more EM iterations should not hurt: {ll_few} -> {ll_many}"
        );
    }

    #[test]
    fn abnormal_sequences_score_lower() {
        let hmm = HmmLm::train(&cfg(4, 6), &cycle_corpus()).unwrap();
        let normal = hmm.score_session(&[0, 1, 2, 0, 1, 2]);
        let abnormal = hmm.score_session(&[5, 3, 4, 5, 3, 4]);
        assert!(normal.avg_likelihood > 2.0 * abnormal.avg_likelihood);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(HmmLm::train(&cfg(0, 3), &cycle_corpus()).is_err());
        assert!(HmmLm::train(&cfg(2, 3), &[vec![9]]).is_err());
        assert!(HmmLm::train(&cfg(2, 3), &[vec![]]).is_err());
        let bad = HmmConfig {
            smoothing: 0.0,
            ..cfg(2, 3)
        };
        assert!(HmmLm::train(&bad, &cycle_corpus()).is_err());
    }

    #[test]
    fn short_sessions_unscored() {
        let hmm = HmmLm::train(&cfg(2, 3), &cycle_corpus()).unwrap();
        assert_eq!(hmm.score_session(&[0]).n_predictions, 0);
        assert_eq!(hmm.score_session(&[]).n_predictions, 0);
    }

    #[test]
    fn checked_scoring_rejects_oov_and_corrupt_models() {
        let hmm = HmmLm::train(&cfg(2, 3), &cycle_corpus()).unwrap();
        assert!(matches!(
            hmm.try_score_session(&[0, 1, 9]),
            Err(LmError::ActionOutOfVocab { action: 9, vocab: 3 })
        ));
        assert!(matches!(
            hmm.try_evaluate(&[vec![0, 7]]),
            Err(LmError::ActionOutOfVocab { action: 7, .. })
        ));
        // A corrupt model (tensor shapes disagree with the config, as a
        // hand-edited serde payload could produce) degrades, never panics.
        let mut corrupt = hmm.clone();
        corrupt.b.truncate(2);
        assert!(matches!(
            corrupt.try_score_session(&[0, 1, 2]),
            Err(LmError::Scoring(_))
        ));
        assert!(corrupt.next_probs(&[0, 1]).is_empty());
        assert_eq!(corrupt.log_likelihood(&[0, 1]), f64::NEG_INFINITY);
        assert_eq!(corrupt.score_session(&[0, 1, 2]).n_predictions, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HmmLm::train(&cfg(3, 3), &cycle_corpus()).unwrap();
        let b = HmmLm::train(&cfg(3, 3), &cycle_corpus()).unwrap();
        assert_eq!(a, b);
    }
}
