//! Lock-step batched session scoring — the throughput regime of the
//! detector's offline path.
//!
//! [`LstmLm::try_score_session`] walks one session at a time, which streams
//! every weight matrix (`wh`, the upper layers, the dense head) from memory
//! once **per session per timestep**. At the paper's shape (hidden 256,
//! vocabulary 300) those weights are ~1.3 MB per step — far beyond L1/L2 —
//! so single-session scoring is memory-bound, not compute-bound.
//!
//! This module scores `B` sessions in lock-step instead:
//!
//! 1. a **sorted-by-length scheduler** ([`plan_buckets`]) orders sessions by
//!    descending length and cuts the order into buckets of at most
//!    `max_batch` lanes;
//! 2. each bucket advances one timestep at a time through a batch-major
//!    `lanes x 4*hidden` gate slab
//!    ([`ibcm_nn::LstmLayer::step_batch_scratch`]), so each weight matrix is
//!    streamed **once per timestep for the whole bucket**; the streaming
//!    [`crate::LmScorer`] runs the same layer step at one lane;
//! 3. because lanes are sorted by descending length, sessions that end early
//!    are always a suffix of the bucket and simply retire
//!    ([`ibcm_nn::LstmBatchState::truncate`]) — no pad token is ever fed
//!    into a live recurrent state, which is why determinism survives the
//!    "padding" story;
//! 4. results are scattered back to input order, so the output is
//!    positionally identical to a sequential `try_score_session` loop.
//!
//! Both paths advance the stack through one function (`step_layers`), and
//! no lane's arithmetic reads another lane's row, so every lane's hidden
//! states are the per-session scorer's bit for bit. The read-out below
//! replays the scorer's softmax operation for operation, so every score is
//! **bit-identical** to the per-session path. The equality suite in
//! `tests/batch_equivalence.rs` asserts this.
//!
//! Failure semantics are per-session, not per-batch: an out-of-vocabulary
//! token fails only that session (with the same [`LmError`] the sequential
//! path produces), and the remaining sessions still batch.

use ibcm_nn::{BatchScratch, LstmBatchState, Matrix, StepInput};

use crate::error::LmError;
use crate::metrics::SessionScore;
use crate::model::LstmLm;
use crate::scorer::actions_scored_counter;

/// Cached handles for the batched-scoring metrics: one counter increment
/// and two histogram observations per executed bucket.
struct BatchMetrics {
    buckets: ibcm_obs::Counter,
    seconds: ibcm_obs::Histogram,
    lanes: ibcm_obs::Histogram,
}

fn batch_metrics() -> &'static BatchMetrics {
    static CELL: std::sync::OnceLock<BatchMetrics> = std::sync::OnceLock::new();
    CELL.get_or_init(|| BatchMetrics {
        buckets: ibcm_obs::names::LM_SCORE_BATCHES.counter(),
        seconds: ibcm_obs::names::LM_BATCH_SECONDS.histogram(ibcm_obs::DEFAULT_SECONDS_BUCKETS),
        lanes: ibcm_obs::names::LM_BATCH_LANES.histogram(ibcm_obs::DEFAULT_LANE_BUCKETS),
    })
}

/// The sorted-by-length bucket scheduler: orders session indices by
/// **descending** length (ties by ascending index, so the plan is a pure
/// function of the lengths) and cuts the order into buckets of at most
/// `max_batch` lanes.
///
/// Descending order within a bucket is the invariant the lock-step scorer
/// relies on: at every timestep the still-running lanes are a prefix, so
/// finished lanes retire by truncation and padding never touches live
/// state. `max_batch` of 0 is treated as 1.
///
/// # Example
///
/// ```
/// let buckets = ibcm_lm::plan_buckets(&[2, 9, 5, 9], 2);
/// // Longest first (index 1 and 3 tie at length 9 -> lower index first),
/// // then cut into pairs.
/// assert_eq!(buckets, vec![vec![1, 3], vec![2, 0]]);
/// ```
// ibcm-lint: allow(transitive-panic, reason = "sort comparator indexes `lengths` with keys drawn from 0..lengths.len()")
pub fn plan_buckets(lengths: &[usize], max_batch: usize) -> Vec<Vec<usize>> {
    let max_batch = max_batch.max(1);
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    order.sort_by(|&a, &b| lengths[b].cmp(&lengths[a]).then(a.cmp(&b)));
    order.chunks(max_batch).map(|c| c.to_vec()).collect()
}

/// Per-lane accumulator mirroring `try_score_session`'s running sums.
struct LaneAcc {
    sum_lik: f64,
    sum_loss: f64,
    n: usize,
    err: Option<LmError>,
}

impl LstmLm {
    /// Scores many sessions through the lock-step batched path, returning
    /// per-session results **in input order**, each bit-identical to
    /// [`LstmLm::try_score_session`] on that session alone.
    ///
    /// Sessions are bucketed by [`plan_buckets`] with at most `max_batch`
    /// lanes per bucket (0 is treated as 1; `BENCH_pr6.json`'s sweep peaks
    /// at 8–32 lanes at the paper's model shape). Sessions with fewer
    /// than 2 actions score as `n = 0` without entering a bucket, exactly
    /// like the sequential path.
    ///
    /// # Errors
    ///
    /// Failures are per-session: a session containing an out-of-vocabulary
    /// token gets [`LmError::ActionOutOfVocab`] for its **first** offending
    /// token (the same error the sequential scorer raises), and an
    /// internally inconsistent model yields [`LmError::Scoring`] — in both
    /// cases every other session still scores.
    ///
    /// # Example
    ///
    /// ```
    /// use ibcm_lm::{LmTrainConfig, LstmLm};
    /// let seqs: Vec<Vec<usize>> = (0..12).map(|_| vec![0, 1, 2, 0, 1, 2]).collect();
    /// let cfg = LmTrainConfig { vocab: 3, hidden: 8, epochs: 3, batch_size: 4,
    ///     patience: 0, ..LmTrainConfig::default() };
    /// let lm = LstmLm::train(&cfg, &seqs, &[])?;
    /// let sessions = vec![vec![0, 1, 2, 0], vec![2, 0], vec![1]];
    /// let batched = lm.try_score_sessions_batched(&sessions, 32);
    /// for (s, b) in sessions.iter().zip(&batched) {
    ///     assert_eq!(b.as_ref().unwrap(), &lm.try_score_session(s)?);
    /// }
    /// # Ok::<(), ibcm_lm::LmError>(())
    /// ```
    // ibcm-lint: allow(transitive-panic, reason = "indices come from enumerate/batchable over the same seqs; the expect is the pre-resolved-or-bucketed invariant stated inline")
    pub fn try_score_sessions_batched<S: AsRef<[usize]>>(
        &self,
        seqs: &[S],
        max_batch: usize,
    ) -> Vec<Result<SessionScore, LmError>> {
        let vocab = self.vocab_size();
        let mut results: Vec<Option<Result<SessionScore, LmError>>> =
            (0..seqs.len()).map(|_| None).collect();
        // Pre-validate left to right, so an out-of-vocabulary session gets
        // the identical error (first offending token) the sequential
        // scorer's feed loop would have raised — without poisoning its
        // bucket.
        let mut batchable: Vec<usize> = Vec::new();
        for (i, s) in seqs.iter().enumerate() {
            let s = s.as_ref();
            if let Some(&a) = s.iter().find(|&&a| a >= vocab) {
                results[i] = Some(Err(LmError::ActionOutOfVocab { action: a, vocab }));
            } else if s.len() < 2 {
                results[i] = Some(Ok(SessionScore {
                    avg_likelihood: 0.0,
                    avg_loss: 0.0,
                    n_predictions: 0,
                }));
            } else {
                batchable.push(i);
            }
        }
        let lengths: Vec<usize> = batchable.iter().map(|&i| seqs[i].as_ref().len()).collect();
        // Bucket workspaces are reused across buckets, so steady-state
        // batched scoring allocates only the per-bucket state matrices.
        let mut scratch = BatchScratch::new();
        let mut probs = Matrix::default();
        for bucket in plan_buckets(&lengths, max_batch) {
            let lanes: Vec<&[usize]> = bucket
                .iter()
                .map(|&bi| seqs[batchable[bi]].as_ref())
                .collect();
            let scores = self.score_bucket(&lanes, &mut scratch, &mut probs);
            for (&bi, res) in bucket.iter().zip(scores) {
                results[batchable[bi]] = Some(res);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every session is either pre-resolved or bucketed"))
            .collect()
    }

    /// [`LstmLm::try_score_sessions_batched`] for trusted input.
    ///
    /// # Panics
    ///
    /// Panics on the first per-session error (out-of-vocabulary token or
    /// corrupt model), matching [`LstmLm::score_session`]'s contract.
    // ibcm-lint: allow(transitive-panic, reason = "documented trusted-input API: the # Panics contract mirrors score_session")
    pub fn score_sessions_batched<S: AsRef<[usize]>>(
        &self,
        seqs: &[S],
        max_batch: usize,
    ) -> Vec<SessionScore> {
        self.try_score_sessions_batched(seqs, max_batch)
            .into_iter()
            .map(|r| match r {
                Ok(score) => score,
                Err(e) => panic!("{e}"),
            })
            .collect()
    }

    /// Advances the whole layer stack one timestep, in lock-step: lane `r`
    /// of the bottom layer takes `inputs[r]`, and each upper layer takes
    /// the hidden rows of the layer below. `states` holds one state per
    /// layer, bottom first. The streaming [`LmScorer`](crate::LmScorer)
    /// steps through here at one lane and [`LstmLm::score_bucket`] at one
    /// lane per session, so both paths run the same arithmetic.
    pub(crate) fn step_layers(
        &self,
        states: &mut [LstmBatchState],
        inputs: &[StepInput],
        scratch: &mut BatchScratch,
    ) {
        let Some((bottom, uppers)) = states.split_first_mut() else {
            return;
        };
        self.lstm.step_batch_scratch(bottom, inputs, scratch);
        let mut below: &LstmBatchState = bottom;
        for (layer, state) in self.upper.iter().zip(uppers) {
            layer.step_batch_dense_scratch(state, below.hiddens(), scratch);
            below = state;
        }
    }

    /// The dense head's input width disagreeing with the hidden width,
    /// which only corrupt model bytes can cause. Both scorers check it
    /// before they read the head.
    pub(crate) fn head_width_error(&self) -> Option<LmError> {
        (self.hidden() != self.dense.in_dim()).then(|| {
            LmError::Scoring(format!(
                "hidden state width {} does not match dense head input {}",
                self.hidden(),
                self.dense.in_dim()
            ))
        })
    }

    /// Scores one bucket of lanes (already sorted by descending length) in
    /// lock-step. Returns one result per lane, in lane order.
    // ibcm-lint: allow(transitive-panic, reason = "lane indices come from partition_point over descending lengths, so s[t] and accs[..active] stay in bounds")
    fn score_bucket(
        &self,
        lanes: &[&[usize]],
        scratch: &mut BatchScratch,
        probs: &mut Matrix,
    ) -> Vec<Result<SessionScore, LmError>> {
        let metrics = batch_metrics();
        let stopwatch = ibcm_obs::Stopwatch::start();
        metrics.buckets.inc();
        metrics.lanes.observe(lanes.len() as f64);
        let hidden = self.hidden();
        // The streaming scorer re-checks head consistency on every scored
        // action; both conditions are constant across a run, so hoist them.
        let head_width_err = self.head_width_error();
        let head_len = self.dense.out_dim();
        let mut states: Vec<LstmBatchState> = (0..1 + self.upper.len())
            .map(|_| LstmBatchState::new(lanes.len(), hidden))
            .collect();
        let mut accs: Vec<LaneAcc> = lanes
            .iter()
            .map(|_| LaneAcc { sum_lik: 0.0, sum_loss: 0.0, n: 0, err: None })
            .collect();
        let mut inputs: Vec<StepInput> = Vec::with_capacity(lanes.len());
        let max_len = lanes.first().map_or(0, |s| s.len());
        for t in 0..max_len {
            // Lanes are sorted by descending length, so the still-running
            // lanes at step t are exactly the leading `active` ones.
            let active = lanes.partition_point(|s| s.len() > t);
            if active == 0 {
                break;
            }
            for st in &mut states {
                if st.lanes() > active {
                    st.truncate(active);
                }
            }
            if t > 0 {
                self.score_step(lanes, &states, &mut accs[..active], probs, t, &head_width_err, head_len);
            }
            inputs.clear();
            inputs.extend(lanes[..active].iter().map(|s| StepInput::Action(s[t])));
            self.step_layers(&mut states, &inputs, scratch);
        }
        metrics.seconds.observe(stopwatch.elapsed_seconds());
        accs.into_iter()
            .map(|acc| match acc.err {
                Some(e) => Err(e),
                None => Ok(SessionScore {
                    avg_likelihood: if acc.n > 0 {
                        (acc.sum_lik / acc.n as f64) as f32
                    } else {
                        0.0
                    },
                    avg_loss: if acc.n > 0 {
                        (acc.sum_loss / acc.n as f64) as f32
                    } else {
                        0.0
                    },
                    n_predictions: acc.n,
                }),
            })
            .collect()
    }

    /// Scores action `t` of every live, non-errored lane against the
    /// pre-update prediction — the batched analogue of one
    /// `LmScorer::try_feed` scoring pass, replicating the rounded-operation
    /// sequence behind the emitted likelihood (count, head forward, max
    /// fold, exp sum, clamp) per lane.
    #[allow(clippy::too_many_arguments)]
    // ibcm-lint: allow(transitive-panic, reason = "states is built non-empty, active lanes have len > t, and action < head_len is checked just above the read")
    fn score_step(
        &self,
        lanes: &[&[usize]],
        states: &[LstmBatchState],
        accs: &mut [LaneAcc],
        probs: &mut Matrix,
        t: usize,
        head_width_err: &Option<LmError>,
        head_len: usize,
    ) {
        let top = states.last().expect("stack has at least the bottom layer");
        if head_width_err.is_none() {
            self.dense.forward_batch_into(top.hiddens(), probs);
        }
        for (r, acc) in accs.iter_mut().enumerate() {
            if acc.err.is_some() {
                // The sequential scorer stops feeding a session after its
                // first error; frozen lanes neither score nor count.
                continue;
            }
            actions_scored_counter().inc();
            if let Some(e) = head_width_err {
                acc.err = Some(e.clone());
                continue;
            }
            let action = lanes[r][t];
            if action >= head_len {
                acc.err = Some(LmError::Scoring(format!(
                    "dense head emitted {head_len} probabilities for vocabulary of {}",
                    self.vocab_size()
                )));
                continue;
            }
            // The sequential path normalizes the whole row
            // (`softmax_in_place`) and reads one entry; a `SessionScore`
            // only needs that entry, so compute `exp(x_a - max) / sum`
            // directly. The max fold, the per-element `exp` rounding, the
            // ascending-index f32 sum, the `sum > 0` guard, and the single
            // division are operation-for-operation the in-place softmax's,
            // so the likelihood is bit-identical — we just skip the 299
            // divisions (and the argmax the batch path discards anyway).
            let row = probs.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for &v in row.iter() {
                sum += (v - max).exp();
            }
            let e_a = (row[action] - max).exp();
            let likelihood = if sum > 0.0 { e_a / sum } else { e_a }.max(1e-12);
            acc.sum_lik += likelihood as f64;
            acc.sum_loss += (-likelihood.ln()) as f64;
            acc.n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LmTrainConfig;

    fn tiny_model(vocab: usize, hidden: usize, layers: usize) -> LstmLm {
        let seqs: Vec<Vec<usize>> = (0..12)
            .map(|i| (0..10).map(|j| (i + j) % vocab).collect())
            .collect();
        let cfg = LmTrainConfig {
            vocab,
            hidden,
            layers,
            epochs: 3,
            batch_size: 4,
            patience: 0,
            seed: 11,
            ..LmTrainConfig::default()
        };
        LstmLm::train(&cfg, &seqs, &[]).unwrap()
    }

    #[test]
    fn plan_buckets_sorts_desc_and_chunks() {
        assert_eq!(plan_buckets(&[], 4), Vec::<Vec<usize>>::new());
        assert_eq!(plan_buckets(&[3], 4), vec![vec![0]]);
        assert_eq!(plan_buckets(&[1, 5, 3, 5, 2], 2), vec![vec![1, 3], vec![2, 4], vec![0]]);
        // max_batch 0 degrades to singleton buckets, not a panic.
        assert_eq!(plan_buckets(&[4, 7], 0), vec![vec![1], vec![0]]);
    }

    #[test]
    fn batched_scores_match_sequential_bitwise() {
        let lm = tiny_model(5, 9, 2);
        let sessions: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4, 0, 1, 2],
            vec![4, 3, 2],
            vec![1, 1, 1, 1, 1, 1],
            vec![2, 0],
            vec![],
            vec![3],
        ];
        for max_batch in [1, 2, 3, 64] {
            let batched = lm.try_score_sessions_batched(&sessions, max_batch);
            for (s, b) in sessions.iter().zip(&batched) {
                let want = lm.try_score_session(s).unwrap();
                let got = b.as_ref().unwrap();
                assert_eq!(got.avg_likelihood.to_bits(), want.avg_likelihood.to_bits());
                assert_eq!(got.avg_loss.to_bits(), want.avg_loss.to_bits());
                assert_eq!(got.n_predictions, want.n_predictions);
            }
        }
    }

    #[test]
    fn oov_fails_only_the_offending_session() {
        let lm = tiny_model(4, 6, 1);
        let sessions: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![0, 9, 2, 11], // first offending token is 9
            vec![3, 2, 1],
        ];
        let out = lm.try_score_sessions_batched(&sessions, 8);
        assert_eq!(out[0], lm.try_score_session(&sessions[0]));
        assert_eq!(
            out[1],
            Err(LmError::ActionOutOfVocab { action: 9, vocab: 4 })
        );
        assert!(out[2].is_ok());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let lm = tiny_model(3, 4, 1);
        let none: Vec<Vec<usize>> = Vec::new();
        assert!(lm.try_score_sessions_batched(&none, 16).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn panicking_wrapper_propagates_oov() {
        let lm = tiny_model(3, 4, 1);
        lm.score_sessions_batched(&[vec![0usize, 1, 99]], 8);
    }
}
