use ibcm_nn::{
    clip_global_norm, softmax_cross_entropy_into, Adam, AdamConfig, Dense, Dropout, LstmCache,
    LstmGrads, LstmLayer, Matrix, Scratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::batcher::{build_batches, BatchScheme, TrainBatch};
use crate::error::LmError;
use crate::metrics::{SequenceEval, SessionScore};
use crate::scorer::LmScorer;
use crate::vocab::Vocab;

/// Cached handles for the per-epoch training metrics; looked up from the
/// global registry once per process, then one atomic add + one histogram
/// observe per epoch.
struct EpochMetrics {
    epochs: ibcm_obs::Counter,
    seconds: ibcm_obs::Histogram,
}

impl EpochMetrics {
    fn record(&self, elapsed_secs: f64) {
        self.epochs.inc();
        self.seconds.observe(elapsed_secs);
    }
}

fn lm_epoch_metrics() -> &'static EpochMetrics {
    static CELL: std::sync::OnceLock<EpochMetrics> = std::sync::OnceLock::new();
    CELL.get_or_init(|| EpochMetrics {
        epochs: ibcm_obs::names::LM_TRAIN_EPOCHS.counter(),
        seconds: ibcm_obs::names::LM_EPOCH_SECONDS.histogram(ibcm_obs::DEFAULT_SECONDS_BUCKETS),
    })
}

/// Hyperparameters for training an [`LstmLm`].
///
/// [`LmTrainConfig::paper_exact`] reproduces the paper's §IV-A
/// configuration (256 LSTM units, dropout 0.4, minibatch 32, learning rate
/// 0.001, moving window 100); the default is a single-core-friendly profile
/// with the same architecture at reduced width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LmTrainConfig {
    /// Vocabulary size `d`.
    pub vocab: usize,
    /// LSTM units per layer.
    pub hidden: usize,
    /// Number of stacked LSTM layers (the paper uses 1; >1 is this
    /// implementation's depth extension).
    pub layers: usize,
    /// Dropout rate on the LSTM output.
    pub dropout: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Maximum training epochs.
    pub epochs: usize,
    /// How examples are cut from sessions.
    pub scheme: BatchScheme,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// RNG seed (init, dropout, batch shuffling).
    pub seed: u64,
    /// Early-stopping patience in epochs (0 disables; requires validation
    /// sequences).
    pub patience: usize,
}

impl Default for LmTrainConfig {
    fn default() -> Self {
        LmTrainConfig {
            vocab: 300,
            hidden: 64,
            layers: 1,
            dropout: 0.4,
            learning_rate: 1e-3,
            batch_size: 32,
            epochs: 10,
            scheme: BatchScheme::default(),
            clip_norm: 5.0,
            seed: 0,
            patience: 3,
        }
    }
}

impl LmTrainConfig {
    /// The paper's exact §IV-A hyperparameters.
    pub fn paper_exact(vocab: usize, seed: u64) -> Self {
        LmTrainConfig {
            vocab,
            hidden: 256,
            layers: 1,
            dropout: 0.4,
            learning_rate: 1e-3,
            batch_size: 32,
            epochs: 20,
            scheme: BatchScheme::MovingWindow { window: 100 },
            clip_norm: 5.0,
            seed,
            patience: 3,
        }
    }

    fn validate(&self) -> Result<(), LmError> {
        if self.vocab == 0 || self.hidden == 0 {
            return Err(LmError::InvalidConfig(
                "vocab and hidden must be positive".into(),
            ));
        }
        if self.layers == 0 {
            return Err(LmError::InvalidConfig("layers must be >= 1".into()));
        }
        if self.batch_size == 0 || self.epochs == 0 {
            return Err(LmError::InvalidConfig(
                "batch_size and epochs must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(LmError::InvalidConfig(format!(
                "dropout must be in [0,1), got {}",
                self.dropout
            )));
        }
        if self.learning_rate <= 0.0 {
            return Err(LmError::InvalidConfig("learning rate must be > 0".into()));
        }
        Ok(())
    }
}

/// Per-epoch training history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Mean validation loss per epoch (empty without validation data).
    pub val_losses: Vec<f32>,
    /// Epoch whose parameters were kept.
    pub best_epoch: usize,
    /// Whether early stopping triggered.
    pub stopped_early: bool,
}

/// Reusable buffers for [`LstmLm::train_batch`]: forward caches, gradient
/// accumulators, and the shared kernel [`Scratch`]. One workspace lives for
/// a whole training run, so steady-state batches allocate nothing — every
/// buffer is resized in place once shapes stabilize.
#[derive(Debug, Default)]
struct TrainWorkspace {
    scratch: Scratch,
    /// Forward cache of the (sparse-input) bottom layer.
    cache: LstmCache,
    /// Forward caches of the stacked dense layers, bottom first.
    upper_caches: Vec<LstmCache>,
    /// Per-step hidden-state gradients; doubles as the running `d_below`
    /// while walking the stack top-to-bottom (ping-ponged with `d_below`).
    d_hiddens: Vec<Matrix>,
    d_below: Vec<Matrix>,
    h_dropped: Matrix,
    mask: Vec<f32>,
    logits: Matrix,
    probs: Matrix,
    dlogits: Matrix,
    /// Per-step dense-head gradient staging, accumulated into `dense_dw` /
    /// `dense_db` (two-stage on purpose: it preserves the summation
    /// grouping, keeping results bit-identical across refactors).
    dw_step: Matrix,
    db_step: Vec<f32>,
    dense_dw: Matrix,
    dense_db: Vec<f32>,
    lstm_grads: LstmGrads,
    upper_grads: Vec<LstmGrads>,
}

/// The paper's behavior model: one LSTM layer, dropout, and a dense softmax
/// head predicting the next action's probability distribution.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLm {
    pub(crate) lstm: LstmLayer,
    /// Stacked layers above the input layer (empty when `layers == 1`).
    pub(crate) upper: Vec<LstmLayer>,
    pub(crate) dense: Dense,
    pub(crate) vocab: Vocab,
    config: LmTrainConfig,
    report: TrainReport,
}

impl LstmLm {
    /// Trains a model on `train_seqs` (each a session encoded as action
    /// indices), using `val_seqs` for early stopping when non-empty.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configs, out-of-vocabulary tokens, or if
    /// no sequence has at least 2 actions.
    pub fn train(
        config: &LmTrainConfig,
        train_seqs: &[Vec<usize>],
        val_seqs: &[Vec<usize>],
    ) -> Result<Self, LmError> {
        config.validate()?;
        for (si, s) in train_seqs.iter().chain(val_seqs.iter()).enumerate() {
            if let Some(&t) = s.iter().find(|&&t| t >= config.vocab) {
                return Err(LmError::TokenOutOfVocab {
                    seq: si,
                    token: t,
                    vocab: config.vocab,
                });
            }
        }
        if !train_seqs.iter().any(|s| s.len() >= 2) {
            return Err(LmError::NoTrainingData);
        }

        let mut model = LstmLm {
            lstm: LstmLayer::new(config.vocab, config.hidden, config.seed),
            upper: (1..config.layers)
                .map(|l| LstmLayer::new(config.hidden, config.hidden, config.seed ^ (l as u64) << 8))
                .collect(),
            dense: Dense::new(config.hidden, config.vocab, config.seed ^ 0xfeed),
            vocab: Vocab::with_size(config.vocab),
            config: *config,
            report: TrainReport::default(),
        };
        let mut optimizer = Adam::new(AdamConfig {
            learning_rate: config.learning_rate,
            ..AdamConfig::default()
        });
        let mut dropout = Dropout::new(config.dropout, config.seed ^ 0xd0d0)
            .map_err(|e| LmError::InvalidConfig(e.to_string()))?;

        let mut best: Option<(f32, LstmLayer, Vec<LstmLayer>, Dense, usize)> = None;
        let mut bad_epochs = 0usize;
        let mut ws = TrainWorkspace::default();
        for epoch in 0..config.epochs {
            let _epoch_span = ibcm_obs::span!("lstm_train_epoch");
            let epoch_start = ibcm_obs::Stopwatch::start();
            let mut rng = StdRng::seed_from_u64(config.seed ^ (epoch as u64).wrapping_mul(0x9e37));
            let batches = build_batches(train_seqs, config.scheme, config.batch_size, &mut rng);
            let mut epoch_loss = 0.0f64;
            let mut epoch_targets = 0usize;
            for batch in &batches {
                let (loss, n) = model.train_batch(batch, &mut optimizer, &mut dropout, &mut ws);
                epoch_loss += (loss as f64) * n as f64;
                epoch_targets += n;
            }
            lm_epoch_metrics().record(epoch_start.elapsed_seconds());
            let train_loss = (epoch_loss / epoch_targets.max(1) as f64) as f32;
            model.report.train_losses.push(train_loss);

            if !val_seqs.is_empty() {
                let val = model.evaluate(val_seqs);
                model.report.val_losses.push(val.avg_loss);
                let improved = best
                    .as_ref()
                    .is_none_or(|(best_loss, ..)| val.avg_loss < *best_loss);
                if improved {
                    best = Some((
                        val.avg_loss,
                        model.lstm.clone(),
                        model.upper.clone(),
                        model.dense.clone(),
                        epoch,
                    ));
                    bad_epochs = 0;
                } else {
                    bad_epochs += 1;
                    if config.patience > 0 && bad_epochs >= config.patience {
                        model.report.stopped_early = true;
                        break;
                    }
                }
            }
        }
        if let Some((_, lstm, upper, dense, epoch)) = best {
            model.lstm = lstm;
            model.upper = upper;
            model.dense = dense;
            model.report.best_epoch = epoch;
        } else {
            model.report.best_epoch = model.report.train_losses.len().saturating_sub(1);
        }
        Ok(model)
    }

    /// One optimizer step on one batch; returns `(mean loss, n targets)`.
    /// All intermediates live in `ws` and are reused across batches.
    fn train_batch(
        &mut self,
        batch: &TrainBatch,
        optimizer: &mut Adam,
        dropout: &mut Dropout,
        ws: &mut TrainWorkspace,
    ) -> (f32, usize) {
        let total_targets = batch.n_targets();
        if total_targets == 0 {
            return (0.0, 0);
        }
        // Forward through the stack: sparse input layer, dense upper layers.
        // Each dense layer reads the hidden states of the layer below
        // directly out of that layer's cache — no copies.
        self.lstm.forward_into(&batch.inputs, &mut ws.cache, &mut ws.scratch);
        ws.upper_caches.resize_with(self.upper.len(), LstmCache::default);
        ws.upper_caches.truncate(self.upper.len());
        for (li, layer) in self.upper.iter().enumerate() {
            let (done, rest) = ws.upper_caches.split_at_mut(li);
            let below: &[Matrix] = if li == 0 {
                ws.cache.hiddens()
            } else {
                done[li - 1].hiddens()
            };
            layer.forward_dense_into(below, &mut rest[0], &mut ws.scratch);
        }

        let steps = ws.cache.steps();
        ws.dense_dw.resize_zeroed(self.config.hidden, self.config.vocab);
        ws.dense_db.clear();
        ws.dense_db.resize(self.config.vocab, 0.0);
        ws.d_hiddens.resize_with(steps, Matrix::default);
        ws.d_hiddens.truncate(steps);
        let mut loss_sum = 0.0f64;
        for t in 0..steps {
            let step_targets = &batch.targets[t];
            let active = step_targets.iter().filter(|x| x.is_some()).count();
            {
                let top = ws.upper_caches.last().unwrap_or(&ws.cache);
                let h_t = &top.hiddens()[t];
                if active == 0 {
                    let (r, c) = (h_t.rows(), h_t.cols());
                    ws.d_hiddens[t].resize_zeroed(r, c);
                    continue;
                }
                ws.h_dropped.copy_from(h_t);
            }
            dropout.apply_with(&mut ws.h_dropped, &mut ws.mask);
            self.dense.forward_into(&ws.h_dropped, &mut ws.logits);
            let loss =
                softmax_cross_entropy_into(&ws.logits, step_targets, &mut ws.probs, &mut ws.dlogits);
            // Re-weight so the total gradient is that of the mean loss over
            // *all* targets in the batch, not per step.
            let w = active as f32 / total_targets as f32;
            loss_sum += (loss as f64) * active as f64;
            ws.dlogits.scale(w);
            self.dense.backward_into(
                &ws.h_dropped,
                &ws.dlogits,
                &mut ws.dw_step,
                &mut ws.db_step,
                &mut ws.d_hiddens[t],
            );
            ws.dense_dw.add_assign(&ws.dw_step);
            for (acc, g) in ws.dense_db.iter_mut().zip(ws.db_step.iter()) {
                *acc += g;
            }
            Dropout::backward(&mut ws.d_hiddens[t], &ws.mask);
        }
        // Backward through the stack, top to bottom. `d_hiddens` carries the
        // running downward gradient, ping-ponged with `d_below`.
        ws.upper_grads.resize_with(self.upper.len(), LstmGrads::default);
        ws.upper_grads.truncate(self.upper.len());
        for li in (0..self.upper.len()).rev() {
            {
                let (below_caches, here) = ws.upper_caches.split_at(li);
                let dense_inputs: &[Matrix] = if li == 0 {
                    ws.cache.hiddens()
                } else {
                    below_caches[li - 1].hiddens()
                };
                self.upper[li].backward_dense_into(
                    &here[0],
                    dense_inputs,
                    &ws.d_hiddens,
                    &mut ws.upper_grads[li],
                    &mut ws.d_below,
                    &mut ws.scratch,
                );
            }
            std::mem::swap(&mut ws.d_hiddens, &mut ws.d_below);
        }
        self.lstm
            .backward_into(&ws.cache, &ws.d_hiddens, &mut ws.lstm_grads, &mut ws.scratch);

        let clip = self.config.clip_norm;
        {
            // Assemble the flat gradient/parameter group lists in a stable
            // order: input layer, upper layers, dense head.
            let mut grad_slices: Vec<&mut [f32]> = Vec::new();
            grad_slices.push(ws.lstm_grads.dwx.as_mut_slice());
            grad_slices.push(ws.lstm_grads.dwh.as_mut_slice());
            grad_slices.push(&mut ws.lstm_grads.db);
            for g in &mut ws.upper_grads {
                grad_slices.push(g.dwx.as_mut_slice());
                grad_slices.push(g.dwh.as_mut_slice());
                grad_slices.push(&mut g.db);
            }
            grad_slices.push(ws.dense_dw.as_mut_slice());
            grad_slices.push(&mut ws.dense_db);
            clip_global_norm(&mut grad_slices, clip);
            let grad_refs: Vec<&[f32]> = grad_slices.iter().map(|g| &**g).collect();

            let mut param_slices: Vec<&mut [f32]> = Vec::new();
            let (wx, wh, b) = self.lstm.params_mut();
            param_slices.push(wx.as_mut_slice());
            param_slices.push(wh.as_mut_slice());
            param_slices.push(b);
            for layer in &mut self.upper {
                let (wx, wh, b) = layer.params_mut();
                param_slices.push(wx.as_mut_slice());
                param_slices.push(wh.as_mut_slice());
                param_slices.push(b);
            }
            let (dw, dbias) = self.dense.params_mut();
            param_slices.push(dw.as_mut_slice());
            param_slices.push(dbias);
            optimizer.step(&mut param_slices, &grad_refs);
        }
        ((loss_sum / total_targets as f64) as f32, total_targets)
    }

    /// Continues training an existing model on additional sequences — the
    /// paper's continuous-learning setting ("learn behavioral patterns from
    /// the activity in the system in a continuous way"), and the cheap
    /// response to detected behavior drift (retrain without starting over).
    ///
    /// Optimizer state is fresh (a new Adam instance); parameters continue
    /// from their current values. The training report is extended in place.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-vocabulary tokens or if no sequence has
    /// at least 2 actions.
    pub fn fine_tune(
        &mut self,
        seqs: &[Vec<usize>],
        val_seqs: &[Vec<usize>],
        epochs: usize,
    ) -> Result<(), LmError> {
        for (si, s) in seqs.iter().chain(val_seqs.iter()).enumerate() {
            if let Some(&t) = s.iter().find(|&&t| t >= self.config.vocab) {
                return Err(LmError::TokenOutOfVocab {
                    seq: si,
                    token: t,
                    vocab: self.config.vocab,
                });
            }
        }
        if !seqs.iter().any(|s| s.len() >= 2) {
            return Err(LmError::NoTrainingData);
        }
        let mut optimizer = Adam::new(AdamConfig {
            learning_rate: self.config.learning_rate,
            ..AdamConfig::default()
        });
        let mut dropout = Dropout::new(self.config.dropout, self.config.seed ^ 0xf17e)
            .map_err(|e| LmError::InvalidConfig(e.to_string()))?;
        let base_epoch = self.report.train_losses.len();
        let mut ws = TrainWorkspace::default();
        for epoch in 0..epochs {
            let mut rng = StdRng::seed_from_u64(
                self.config.seed ^ ((base_epoch + epoch) as u64).wrapping_mul(0x9e37),
            );
            let batches =
                build_batches(seqs, self.config.scheme, self.config.batch_size, &mut rng);
            let mut loss_sum = 0.0f64;
            let mut targets = 0usize;
            for batch in &batches {
                let (loss, n) = self.train_batch(batch, &mut optimizer, &mut dropout, &mut ws);
                loss_sum += (loss as f64) * n as f64;
                targets += n;
            }
            self.report
                .train_losses
                .push((loss_sum / targets.max(1) as f64) as f32);
            if !val_seqs.is_empty() {
                self.report.val_losses.push(self.evaluate(val_seqs).avg_loss);
            }
        }
        Ok(())
    }

    /// Reassembles a model from its parts (used by persistence).
    pub(crate) fn from_parts(
        lstm: LstmLayer,
        upper: Vec<LstmLayer>,
        dense: Dense,
        vocab: Vocab,
        config: LmTrainConfig,
        report: TrainReport,
    ) -> Self {
        LstmLm {
            lstm,
            upper,
            dense,
            vocab,
            config,
            report,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Number of LSTM units.
    pub fn hidden(&self) -> usize {
        self.config.hidden
    }

    /// The training configuration.
    pub fn config(&self) -> &LmTrainConfig {
        &self.config
    }

    /// Per-epoch training history.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Starts a streaming scorer (online regime: feed actions one at a time).
    pub fn scorer(&self) -> LmScorer<'_> {
        LmScorer::new(self)
    }

    /// Scores one session: average next-action likelihood and loss over all
    /// predicted positions (the paper's normality measures, §III).
    ///
    /// Sessions with fewer than 2 actions yield a score with `n = 0`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-vocabulary tokens; use [`LstmLm::try_score_session`]
    /// on untrusted input.
    // ibcm-lint: allow(transitive-panic, reason = "documented trusted-input API; panics only when the # Panics contract is violated")
    pub fn score_session(&self, seq: &[usize]) -> SessionScore {
        match self.try_score_session(seq) {
            Ok(score) => score,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`LstmLm::score_session`] returning typed errors instead of
    /// panicking, so a corrupt model or an unfiltered stream cannot abort
    /// the caller.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] for tokens the model has never
    /// seen, or [`LmError::Scoring`] for an internally inconsistent model.
    pub fn try_score_session(&self, seq: &[usize]) -> Result<SessionScore, LmError> {
        let mut scorer = self.scorer();
        let mut sum_lik = 0.0f64;
        let mut sum_loss = 0.0f64;
        let mut n = 0usize;
        for &a in seq {
            if let Some(step) = scorer.try_feed(a)? {
                sum_lik += step.likelihood as f64;
                sum_loss += step.loss as f64;
                n += 1;
            }
        }
        Ok(SessionScore {
            avg_likelihood: if n > 0 { (sum_lik / n as f64) as f32 } else { 0.0 },
            avg_loss: if n > 0 { (sum_loss / n as f64) as f32 } else { 0.0 },
            n_predictions: n,
        })
    }

    /// Evaluates next-action prediction over a set of sessions: accuracy
    /// (fraction of argmax hits), average loss, and average likelihood —
    /// the metrics of Figs. 4, 5, 8–12.
    ///
    /// # Panics
    ///
    /// Panics on out-of-vocabulary tokens; use [`LstmLm::try_evaluate`] on
    /// untrusted input.
    pub fn evaluate(&self, seqs: &[Vec<usize>]) -> SequenceEval {
        match self.try_evaluate(seqs) {
            Ok(eval) => eval,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`LstmLm::evaluate`] returning typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::ActionOutOfVocab`] for tokens the model has never
    /// seen, or [`LmError::Scoring`] for an internally inconsistent model.
    pub fn try_evaluate(&self, seqs: &[Vec<usize>]) -> Result<SequenceEval, LmError> {
        let mut hits = 0usize;
        let mut n = 0usize;
        let mut sum_loss = 0.0f64;
        let mut sum_lik = 0.0f64;
        let mut scorer = self.scorer();
        for seq in seqs {
            scorer.reset();
            for &a in seq {
                if let Some(step) = scorer.try_feed(a)? {
                    n += 1;
                    hits += usize::from(step.correct);
                    sum_loss += step.loss as f64;
                    sum_lik += step.likelihood as f64;
                }
            }
        }
        Ok(SequenceEval {
            accuracy: if n > 0 { hits as f32 / n as f32 } else { 0.0 },
            avg_loss: if n > 0 { (sum_loss / n as f64) as f32 } else { 0.0 },
            avg_likelihood: if n > 0 { (sum_lik / n as f64) as f32 } else { 0.0 },
            n_predictions: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_corpus(n: usize, period: &[usize]) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut s = Vec::with_capacity(12);
                for j in 0..12 {
                    s.push(period[(i + j) % period.len()]);
                }
                s
            })
            .collect()
    }

    fn quick_cfg(vocab: usize) -> LmTrainConfig {
        LmTrainConfig {
            vocab,
            hidden: 12,
            dropout: 0.1,
            epochs: 30,
            batch_size: 8,
            patience: 0,
            seed: 3,
            learning_rate: 0.01,
            ..LmTrainConfig::default()
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        let seqs = cyclic_corpus(16, &[0, 1, 2, 3]);
        let lm = LstmLm::train(&quick_cfg(4), &seqs, &[]).unwrap();
        let eval = lm.evaluate(&seqs);
        assert!(
            eval.accuracy > 0.9,
            "cycle should be learnable, accuracy {}",
            eval.accuracy
        );
        assert!(eval.avg_likelihood > 0.5);
        assert!(eval.avg_loss < 1.0);
    }

    #[test]
    fn moving_window_scheme_learns_too() {
        let seqs = cyclic_corpus(16, &[0, 1, 2]);
        let cfg = LmTrainConfig {
            scheme: BatchScheme::MovingWindow { window: 6 },
            epochs: 10,
            ..quick_cfg(3)
        };
        let lm = LstmLm::train(&cfg, &seqs, &[]).unwrap();
        assert!(lm.evaluate(&seqs).accuracy > 0.8);
    }

    #[test]
    fn random_sequences_score_near_chance() {
        let seqs = cyclic_corpus(16, &[0, 1, 2, 3]);
        let lm = LstmLm::train(&quick_cfg(8), &seqs, &[]).unwrap();
        // Uniform-random "abnormal" sessions over the 8-token vocab.
        let mut rng_state = 12345u64;
        let mut rand_tok = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) % 8) as usize
        };
        let abnormal: Vec<Vec<usize>> =
            (0..20).map(|_| (0..10).map(|_| rand_tok()).collect()).collect();
        let normal_eval = lm.evaluate(&seqs);
        let abnormal_eval = lm.evaluate(&abnormal);
        assert!(
            normal_eval.avg_likelihood > 2.0 * abnormal_eval.avg_likelihood,
            "normal {} vs abnormal {}",
            normal_eval.avg_likelihood,
            abnormal_eval.avg_likelihood
        );
        assert!(abnormal_eval.avg_loss > normal_eval.avg_loss);
    }

    #[test]
    fn early_stopping_keeps_best_epoch() {
        let seqs = cyclic_corpus(12, &[0, 1]);
        let cfg = LmTrainConfig {
            patience: 2,
            epochs: 30,
            ..quick_cfg(2)
        };
        let lm = LstmLm::train(&cfg, &seqs, &seqs).unwrap();
        assert!(!lm.report().val_losses.is_empty());
        assert!(lm.report().best_epoch < 30);
    }

    #[test]
    fn score_session_handles_short_sessions() {
        let seqs = cyclic_corpus(8, &[0, 1]);
        let lm = LstmLm::train(&quick_cfg(2), &seqs, &[]).unwrap();
        let s = lm.score_session(&[0]);
        assert_eq!(s.n_predictions, 0);
        let s = lm.score_session(&[]);
        assert_eq!(s.n_predictions, 0);
        let s = lm.score_session(&[0, 1, 0]);
        assert_eq!(s.n_predictions, 2);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = quick_cfg(3);
        assert!(matches!(
            LstmLm::train(&cfg, &[vec![0, 5]], &[]),
            Err(LmError::TokenOutOfVocab { token: 5, .. })
        ));
        assert_eq!(
            LstmLm::train(&cfg, &[vec![0]], &[]).unwrap_err(),
            LmError::NoTrainingData
        );
        let bad = LmTrainConfig {
            dropout: 1.5,
            ..cfg
        };
        assert!(LstmLm::train(&bad, &[vec![0, 1]], &[]).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let seqs = cyclic_corpus(8, &[0, 1, 2]);
        let a = LstmLm::train(&quick_cfg(3), &seqs, &[]).unwrap();
        let b = LstmLm::train(&quick_cfg(3), &seqs, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fine_tune_adapts_to_new_behavior() {
        // Train on one cycle, then continuously learn a second one.
        let old = cyclic_corpus(12, &[0, 1, 2, 3]);
        let new: Vec<Vec<usize>> = (0..12).map(|_| vec![4, 5, 4, 5, 4, 5, 4, 5]).collect();
        let mut lm = LstmLm::train(&quick_cfg(6), &old, &[]).unwrap();
        let before = lm.evaluate(&new);
        lm.fine_tune(&new, &[], 20).unwrap();
        let after = lm.evaluate(&new);
        assert!(
            after.accuracy > before.accuracy + 0.3,
            "fine-tuning should learn the new behavior: {} -> {}",
            before.accuracy,
            after.accuracy
        );
        assert!(lm.report().train_losses.len() > 30, "history extended");
    }

    #[test]
    fn fine_tune_rejects_bad_input() {
        let seqs = cyclic_corpus(8, &[0, 1]);
        let mut lm = LstmLm::train(&quick_cfg(2), &seqs, &[]).unwrap();
        assert!(matches!(
            lm.fine_tune(&[vec![0, 9]], &[], 1),
            Err(LmError::TokenOutOfVocab { token: 9, .. })
        ));
        assert_eq!(
            lm.fine_tune(&[vec![0]], &[], 1).unwrap_err(),
            LmError::NoTrainingData
        );
    }

    #[test]
    fn two_layer_stack_learns_and_scores() {
        let seqs = cyclic_corpus(16, &[0, 1, 2, 3]);
        let cfg = LmTrainConfig {
            layers: 2,
            ..quick_cfg(4)
        };
        let lm = LstmLm::train(&cfg, &seqs, &[]).unwrap();
        let eval = lm.evaluate(&seqs);
        assert!(
            eval.accuracy > 0.9,
            "2-layer stack should learn the cycle, accuracy {}",
            eval.accuracy
        );
        // Streaming scorer must agree with batch evaluation semantics.
        let s = lm.score_session(&seqs[0]);
        assert_eq!(s.n_predictions, seqs[0].len() - 1);
        assert!(s.avg_likelihood > 0.5);
    }

    /// The streaming scorer's step through the whole stack replays the
    /// training forward pass (sparse bottom layer, dense upper layers,
    /// dense head) to rounding. The batched path steps through the same
    /// function, so this is the stack-level oracle for both; three layers
    /// catch an upper layer reading the wrong layer below.
    #[test]
    fn streaming_stack_matches_training_forward() {
        use ibcm_nn::{softmax_in_place, StepInput};
        let seqs: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..9).map(|j| (i + 2 * j) % 5).collect())
            .collect();
        let cfg = LmTrainConfig {
            layers: 3,
            hidden: 7,
            epochs: 2,
            ..quick_cfg(5)
        };
        let lm = LstmLm::train(&cfg, &seqs, &[]).unwrap();
        let session = &seqs[1];
        let inputs: Vec<Vec<StepInput>> =
            session.iter().map(|&a| vec![StepInput::Action(a)]).collect();
        let mut below = lm.lstm.forward(&inputs).hiddens().to_vec();
        for layer in &lm.upper {
            below = layer.forward_dense(&below).0.hiddens().to_vec();
        }
        let mut scorer = lm.scorer();
        for (t, &a) in session.iter().enumerate() {
            scorer.feed(a);
            let mut want = lm.dense.forward(&below[t]);
            softmax_in_place(want.row_mut(0));
            for (got, want) in scorer.probs().iter().zip(want.row(0)) {
                assert!((got - want).abs() < 1e-5, "step {t}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn zero_layers_rejected() {
        let cfg = LmTrainConfig {
            layers: 0,
            ..quick_cfg(2)
        };
        assert!(LstmLm::train(&cfg, &[vec![0, 1]], &[]).is_err());
    }

    #[test]
    fn checked_scoring_rejects_oov_without_panicking() {
        let seqs = cyclic_corpus(8, &[0, 1]);
        let lm = LstmLm::train(&quick_cfg(2), &seqs, &[]).unwrap();
        assert!(matches!(
            lm.try_score_session(&[0, 1, 7]),
            Err(LmError::ActionOutOfVocab { action: 7, vocab: 2 })
        ));
        assert!(matches!(
            lm.try_evaluate(&[vec![0, 1], vec![0, 9]]),
            Err(LmError::ActionOutOfVocab { action: 9, .. })
        ));
        // Checked and panicking paths agree on clean input.
        assert_eq!(lm.try_score_session(&seqs[0]).unwrap(), lm.score_session(&seqs[0]));
        assert_eq!(lm.try_evaluate(&seqs).unwrap(), lm.evaluate(&seqs));
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let seqs = cyclic_corpus(16, &[0, 1, 2, 3]);
        let lm = LstmLm::train(&quick_cfg(4), &seqs, &[]).unwrap();
        let losses = &lm.report().train_losses;
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should decrease: {losses:?}"
        );
    }
}
