#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use ibcm_nn::{softmax_in_place, BatchScratch, LstmBatchState, Matrix, StepInput};

use crate::error::LmError;
use crate::model::LstmLm;

/// Per-action scoring counter (`ibcm_lm_actions_scored_total`). The handle
/// is cached so the hot scoring loop pays one relaxed atomic add per action.
/// Shared with the lock-step batched scorer so the counter means "actions
/// scored" regardless of which path scored them.
pub(crate) fn actions_scored_counter() -> &'static ibcm_obs::Counter {
    static CELL: std::sync::OnceLock<ibcm_obs::Counter> = std::sync::OnceLock::new();
    CELL.get_or_init(|| ibcm_obs::names::LM_ACTIONS_SCORED.counter())
}

/// Outcome of scoring one observed action against the model's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepScore {
    /// Probability the model assigned to the action that actually happened.
    pub likelihood: f32,
    /// Cross-entropy loss `-ln(likelihood)`.
    pub loss: f32,
    /// The action index the model considered most likely.
    pub predicted: usize,
    /// Whether the observed action was the model's argmax.
    pub correct: bool,
}

/// Streaming next-action scorer: the online regime of §IV-C, where each
/// arriving action is scored against the distribution predicted from the
/// session so far, then folded into the recurrent state.
///
/// Created by [`LstmLm::scorer`]. The first fed action is never scored
/// (there is no observed prefix to predict it from). The scorer is a
/// lock-step batch of one lane: it steps the same kernels as
/// [`LstmLm::try_score_sessions_batched`], so its scores are bit-identical
/// to that path's.
#[derive(Debug, Clone)]
pub struct LmScorer<'a> {
    model: &'a LstmLm,
    /// One one-lane recurrent state per stacked layer (bottom first).
    states: Vec<LstmBatchState>,
    /// Reused gate slab for the per-action steps (allocation-free path).
    scratch: BatchScratch,
    /// Reused `1 x vocab` probability buffer for [`LmScorer::try_feed`].
    probs: Matrix,
    fed_any: bool,
}

/// Writes the next-action distribution into `probs`: the dense head over
/// the top layer's hidden row, then a softmax. The one head-shape check
/// behind both [`LmScorer::try_probs`] and [`LmScorer::try_feed`].
fn head_probs_into(
    model: &LstmLm,
    states: &[LstmBatchState],
    probs: &mut Matrix,
) -> Result<(), LmError> {
    if let Some(e) = model.head_width_error() {
        return Err(e);
    }
    let top = states
        .last()
        .ok_or_else(|| LmError::Scoring("scorer has no layers".into()))?;
    model.dense.forward_batch_into(top.hiddens(), probs);
    softmax_in_place(probs.as_mut_slice());
    Ok(())
}

impl<'a> LmScorer<'a> {
    pub(crate) fn new(model: &'a LstmLm) -> Self {
        LmScorer {
            model,
            states: (0..1 + model.upper.len())
                .map(|_| LstmBatchState::new(1, model.hidden()))
                .collect(),
            scratch: BatchScratch::new(),
            probs: Matrix::default(),
            fed_any: false,
        }
    }

    /// Rewinds to the start-of-session state, keeping every internal buffer
    /// allocated — scoring many sessions back to back reuses one scorer.
    pub fn reset(&mut self) {
        self.states.iter_mut().for_each(LstmBatchState::reset);
        self.fed_any = false;
    }

    /// The model's current next-action probability distribution (softmax
    /// over the vocabulary). Meaningful once at least one action was fed.
    pub fn probs(&self) -> Vec<f32> {
        self.try_probs().unwrap_or_default()
    }

    /// [`LmScorer::probs`] with the internal-consistency failures surfaced
    /// as typed errors instead of an empty distribution.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Scoring`] if the recurrent state and the dense
    /// head disagree on dimensions (possible only with corrupt model bytes).
    pub fn try_probs(&self) -> Result<Vec<f32>, LmError> {
        let mut probs = Matrix::default();
        head_probs_into(self.model, &self.states, &mut probs)?;
        Ok(probs.as_slice().to_vec())
    }

    /// Advances every layer of the stack by one action.
    fn step_stack(&mut self, action: usize) {
        self.model
            .step_layers(&mut self.states, &[StepInput::Action(action)], &mut self.scratch);
        self.fed_any = true;
    }

    /// Feeds the next observed action. Returns the score of that action
    /// under the pre-update prediction, or `None` for the first action.
    ///
    /// # Panics
    ///
    /// Panics if `action` is outside the model's vocabulary. Use
    /// [`LmScorer::try_feed`] on untrusted streams.
    pub fn feed(&mut self, action: usize) -> Option<StepScore> {
        match self.try_feed(action) {
            Ok(score) => score,
            #[expect(clippy::panic, reason = "documented panicking convenience wrapper; the stream hot path uses try_feed")]
            Err(e) => panic!("{e}"),
        }
    }

    /// [`LmScorer::feed`] returning typed errors instead of panicking —
    /// the scoring hot path of the stream monitor, where a malformed event
    /// or a corrupt model must degrade, not abort the process.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] for an action the model has
    /// never seen, or [`LmError::Scoring`] for an internally inconsistent
    /// (corrupt) model. The recurrent state is unchanged on error.
    pub fn try_feed(&mut self, action: usize) -> Result<Option<StepScore>, LmError> {
        if action >= self.model.vocab_size() {
            return Err(LmError::ActionOutOfVocab {
                action,
                vocab: self.model.vocab_size(),
            });
        }
        let score = if self.fed_any {
            actions_scored_counter().inc();
            head_probs_into(self.model, &self.states, &mut self.probs)?;
            let probs = self.probs.as_slice();
            let likelihood = probs
                .get(action)
                .copied()
                .ok_or_else(|| LmError::Scoring(format!(
                    "dense head emitted {} probabilities for vocabulary of {}",
                    probs.len(),
                    self.model.vocab_size()
                )))?
                .max(1e-12);
            let predicted = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            Some(StepScore {
                likelihood,
                loss: -likelihood.ln(),
                predicted,
                correct: predicted == action,
            })
        } else {
            None
        };
        self.step_stack(action);
        Ok(score)
    }

    /// Advances the recurrent state without computing a score — cheaper
    /// than [`LmScorer::feed`] when several cluster models are kept in sync
    /// but only one is being read, as the online monitor does with every
    /// cluster model but the effective one. A successful
    /// [`LmScorer::try_feed`] leaves the same state: its dense head only
    /// reads it.
    ///
    /// # Panics
    ///
    /// Panics if `action` is outside the model's vocabulary. Use
    /// [`LmScorer::try_advance`] on untrusted streams.
    pub fn advance(&mut self, action: usize) {
        #[expect(clippy::panic, reason = "documented panicking convenience wrapper; the stream hot path uses try_advance")]
        if let Err(e) = self.try_advance(action) {
            panic!("{e}");
        }
    }

    /// [`LmScorer::advance`] returning a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] for an out-of-vocabulary
    /// action; the recurrent state is unchanged on error.
    pub fn try_advance(&mut self, action: usize) -> Result<(), LmError> {
        if action >= self.model.vocab_size() {
            return Err(LmError::ActionOutOfVocab {
                action,
                vocab: self.model.vocab_size(),
            });
        }
        self.step_stack(action);
        Ok(())
    }

    /// Whether at least one action was fed since creation or the last
    /// [`LmScorer::reset`].
    pub fn is_started(&self) -> bool {
        self.fed_any
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{LmTrainConfig, LstmLm};

    fn tiny_model() -> LstmLm {
        let seqs: Vec<Vec<usize>> = (0..10).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1]).collect();
        let cfg = LmTrainConfig {
            vocab: 3,
            hidden: 10,
            dropout: 0.0,
            epochs: 25,
            batch_size: 4,
            patience: 0,
            seed: 5,
            learning_rate: 0.01,
            ..LmTrainConfig::default()
        };
        LstmLm::train(&cfg, &seqs, &[]).unwrap()
    }

    #[test]
    fn first_action_unscored() {
        let m = tiny_model();
        let mut s = m.scorer();
        assert!(!s.is_started());
        assert!(s.feed(0).is_none());
        assert!(s.is_started());
        assert!(s.feed(1).is_some());
    }

    #[test]
    fn probs_form_distribution() {
        let m = tiny_model();
        let mut s = m.scorer();
        s.feed(0);
        let p = s.probs();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn streaming_matches_score_session() {
        let m = tiny_model();
        let seq = vec![0, 1, 2, 0, 1];
        let direct = m.score_session(&seq);
        let mut scorer = m.scorer();
        let mut sum = 0.0f64;
        let mut n = 0;
        for &a in &seq {
            if let Some(st) = scorer.feed(a) {
                sum += st.likelihood as f64;
                n += 1;
            }
        }
        assert_eq!(n, direct.n_predictions);
        assert!(((sum / n as f64) as f32 - direct.avg_likelihood).abs() < 1e-6);
    }

    #[test]
    fn loss_is_negative_log_likelihood() {
        let m = tiny_model();
        let mut s = m.scorer();
        s.feed(0);
        let st = s.feed(1).unwrap();
        assert!((st.loss - (-st.likelihood.ln())).abs() < 1e-6);
    }

    #[test]
    fn trained_cycle_predicted_correctly() {
        let m = tiny_model();
        let mut s = m.scorer();
        s.feed(0);
        s.feed(1);
        let st = s.feed(2).unwrap();
        assert!(st.correct, "after 0,1 the model should predict 2");
        assert!(st.likelihood > 0.5);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_feed_panics() {
        let m = tiny_model();
        m.scorer().feed(99);
    }

    #[test]
    fn try_feed_returns_typed_error_and_preserves_state() {
        use crate::error::LmError;
        let m = tiny_model();
        let mut s = m.scorer();
        s.feed(0);
        let before = s.probs();
        assert!(matches!(
            s.try_feed(99),
            Err(LmError::ActionOutOfVocab { action: 99, vocab: 3 })
        ));
        assert!(matches!(
            s.try_advance(99),
            Err(LmError::ActionOutOfVocab { action: 99, vocab: 3 })
        ));
        assert_eq!(s.probs(), before, "state untouched after rejected action");
        let ok = s.try_feed(1).unwrap();
        assert!(ok.is_some());
    }
}
