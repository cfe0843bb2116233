#![expect(clippy::disallowed_types, reason = "count maps are only iterated to fold order-free aggregates (integer sums, one write per distinct key into an indexed slot); no output depends on iteration order")]

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::LmError;
use crate::metrics::{SequenceEval, SessionScore};

/// Configuration of the interpolated n-gram baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NgramConfig {
    /// Maximum context order (3 = trigram model).
    pub order: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Add-k smoothing constant for the unigram floor.
    pub smoothing: f64,
    /// Interpolation weight decay: order `o` context gets weight
    /// proportional to `decay^(order - o)`.
    pub decay: f64,
}

impl Default for NgramConfig {
    fn default() -> Self {
        NgramConfig {
            order: 3,
            vocab: 300,
            smoothing: 0.1,
            decay: 0.5,
        }
    }
}

/// Interpolated n-gram language model over action sequences — the classical
/// baseline the ablation benches compare the LSTM against.
///
/// # Example
///
/// ```
/// use ibcm_lm::{NgramConfig, NgramLm};
/// let seqs = vec![vec![0, 1, 2, 0, 1, 2], vec![0, 1, 2, 0]];
/// let lm = NgramLm::train(&NgramConfig { vocab: 3, ..NgramConfig::default() }, &seqs)?;
/// let p = lm.next_probs(&[0, 1]);
/// let best = p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
/// assert_eq!(best, 2);
/// # Ok::<(), ibcm_lm::LmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NgramLm {
    config: NgramConfig,
    /// `counts[o]`: context (length o) -> next-token counts.
    counts: Vec<HashMap<Vec<usize>, HashMap<usize, u64>>>,
    unigram: Vec<u64>,
    total_tokens: u64,
}

impl NgramLm {
    /// Trains on the given sequences.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid config, out-of-vocabulary tokens, or no
    /// usable training data.
    pub fn train(config: &NgramConfig, seqs: &[Vec<usize>]) -> Result<Self, LmError> {
        if config.order < 1 {
            return Err(LmError::InvalidConfig("order must be >= 1".into()));
        }
        if config.vocab == 0 {
            return Err(LmError::InvalidConfig("vocab must be positive".into()));
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
        if !seqs.iter().any(|s| s.len() >= 2) {
            return Err(LmError::NoTrainingData);
        }
        let mut counts: Vec<HashMap<Vec<usize>, HashMap<usize, u64>>> =
            (0..config.order).map(|_| HashMap::new()).collect();
        let mut unigram = vec![0u64; config.vocab];
        let mut total_tokens = 0u64;
        for s in seqs {
            for (i, &tok) in s.iter().enumerate() {
                unigram[tok] += 1;
                total_tokens += 1;
                if i == 0 {
                    continue;
                }
                for o in 1..config.order {
                    if i >= o {
                        let ctx = s[i - o..i].to_vec();
                        *counts[o]
                            .entry(ctx)
                            .or_default()
                            .entry(tok)
                            .or_default() += 1;
                    }
                }
            }
        }
        Ok(NgramLm {
            config: *config,
            counts,
            unigram,
            total_tokens,
        })
    }

    /// Next-action probability distribution given the observed prefix.
    pub fn next_probs(&self, prefix: &[usize]) -> Vec<f64> {
        let v = self.config.vocab;
        let k = self.config.smoothing;
        // Smoothed unigram floor.
        let denom = self.total_tokens as f64 + k * v as f64;
        let mut probs: Vec<f64> = (0..v)
            .map(|t| (self.unigram.get(t).copied().unwrap_or(0) as f64 + k) / denom)
            .collect();
        let mut weight_floor = 1.0;
        let mut acc = vec![0.0f64; v];
        let mut total_weight = 0.0;
        // Higher orders get exponentially more weight when observed.
        for o in (1..self.config.order).rev() {
            if prefix.len() < o {
                continue;
            }
            let ctx = &prefix[prefix.len() - o..];
            if let Some(next) = self.counts[o].get(ctx) {
                let ctx_total: u64 = next.values().sum();
                let w = self.config.decay.powi((self.config.order - 1 - o) as i32);
                for (&t, &c) in next {
                    acc[t] += w * c as f64 / ctx_total as f64;
                }
                total_weight += w;
                weight_floor = 0.2_f64.min(weight_floor);
            }
        }
        if total_weight > 0.0 {
            for t in 0..v {
                probs[t] = weight_floor * probs[t] + (1.0 - weight_floor) * acc[t] / total_weight;
            }
        }
        // Normalize defensively.
        let s: f64 = probs.iter().sum();
        if s > 0.0 {
            for p in &mut probs {
                *p /= s;
            }
        }
        probs
    }

    /// Scores one session like [`crate::LstmLm::score_session`].
    pub fn score_session(&self, seq: &[usize]) -> SessionScore {
        if seq.len() < 2 {
            return SessionScore {
                avg_likelihood: 0.0,
                avg_loss: 0.0,
                n_predictions: 0,
            };
        }
        let mut sum_lik = 0.0f64;
        let mut sum_loss = 0.0f64;
        let n = seq.len() - 1;
        for i in 1..seq.len() {
            let p = self.next_probs(&seq[..i])[seq[i]].max(1e-12);
            sum_lik += p;
            sum_loss += -p.ln();
        }
        SessionScore {
            avg_likelihood: (sum_lik / n as f64) as f32,
            avg_loss: (sum_loss / n as f64) as f32,
            n_predictions: n,
        }
    }

    /// Evaluates next-action prediction like [`crate::LstmLm::evaluate`].
    pub fn evaluate(&self, seqs: &[Vec<usize>]) -> SequenceEval {
        let mut hits = 0usize;
        let mut n = 0usize;
        let mut sum_loss = 0.0f64;
        let mut sum_lik = 0.0f64;
        for seq in seqs {
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
        SequenceEval {
            accuracy: if n > 0 { hits as f32 / n as f32 } else { 0.0 },
            avg_loss: if n > 0 { (sum_loss / n as f64) as f32 } else { 0.0 },
            avg_likelihood: if n > 0 { (sum_lik / n as f64) as f32 } else { 0.0 },
            n_predictions: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(vocab: usize) -> NgramConfig {
        NgramConfig {
            vocab,
            ..NgramConfig::default()
        }
    }

    #[test]
    fn probs_sum_to_one() {
        let lm = NgramLm::train(&cfg(4), &[vec![0, 1, 2, 3, 0, 1]]).unwrap();
        for prefix in [vec![], vec![0], vec![0, 1], vec![3, 3, 3]] {
            let p = lm.next_probs(&prefix);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x > 0.0), "smoothing keeps support full");
        }
    }

    #[test]
    fn learns_deterministic_transitions() {
        let seqs: Vec<Vec<usize>> = (0..5).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1, 2]).collect();
        let lm = NgramLm::train(&cfg(3), &seqs).unwrap();
        let eval = lm.evaluate(&seqs);
        assert!(eval.accuracy > 0.9, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn unseen_context_falls_back_to_unigram() {
        let lm = NgramLm::train(&cfg(4), &[vec![0, 0, 0, 0, 1]]).unwrap();
        let p = lm.next_probs(&[3, 2]); // context never seen
        // Unigram dominated by token 0.
        assert!(p[0] > p[2]);
    }

    #[test]
    fn score_session_matches_semantics() {
        let lm = NgramLm::train(&cfg(3), &[vec![0, 1, 2, 0, 1, 2]]).unwrap();
        let s = lm.score_session(&[0, 1, 2]);
        assert_eq!(s.n_predictions, 2);
        assert!(s.avg_likelihood > 0.0);
        assert_eq!(lm.score_session(&[0]).n_predictions, 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(NgramLm::train(&cfg(2), &[vec![0, 5]]).is_err());
        assert!(NgramLm::train(&cfg(2), &[vec![0]]).is_err());
        let bad = NgramConfig {
            order: 0,
            ..cfg(2)
        };
        assert!(NgramLm::train(&bad, &[vec![0, 1]]).is_err());
    }
}
