//! `ibcm-lm` — LSTM language models over action sequences.
//!
//! The paper's behavior models (§III) are LSTM-based language models: given
//! the actions observed so far in a session, predict the probability
//! distribution of the next action. A session's *normality* is the average
//! probability the model assigned to the actions that actually happened
//! (and, following Kim et al., the average cross-entropy loss).
//!
//! This crate provides:
//!
//! - [`Vocab`]: the catalog-to-model index mapping (with an explicit
//!   out-of-vocabulary check),
//! - [`LmTrainConfig`] / [`LstmLm`]: the paper's architecture — one LSTM
//!   layer, dropout, dense softmax head — trained with Adam, gradient
//!   clipping, and validation-based early stopping. Both the paper's exact
//!   *moving-window* batching (§IV-A: window 100, zero-padded prefixes) and
//!   an equivalent, much faster *full-sequence* scheme are implemented
//!   ([`BatchScheme`]),
//! - [`LmScorer`]: a streaming scorer holding the recurrent state, used by
//!   the online regime (score each action as it arrives); it is a
//!   lock-step batch of one lane,
//! - [`LstmLm::try_score_sessions_batched`]: the lock-step batched scorer
//!   for the offline throughput regime — many sessions advance through one
//!   model together, through the same layer step as [`LmScorer`], so
//!   bit-identical to the per-session path (see the [`plan_buckets`]
//!   scheduler),
//! - [`SequenceEval`] metrics: next-action accuracy, average loss, average
//!   likelihood, and per-position likelihood curves (Figs. 4, 5, 7–12),
//! - [`NgramLm`]: an interpolated n-gram baseline for ablations,
//! - binary persistence for trained models.
//!
//! # Example
//!
//! ```
//! use ibcm_lm::{LmTrainConfig, LstmLm};
//! let seqs: Vec<Vec<usize>> = (0..20).map(|_| vec![0, 1, 2, 3, 0, 1, 2, 3]).collect();
//! let cfg = LmTrainConfig {
//!     hidden: 8,
//!     epochs: 20,
//!     vocab: 4,
//!     learning_rate: 0.01,
//!     ..LmTrainConfig::default()
//! };
//! let lm = LstmLm::train(&cfg, &seqs, &[])?;
//! let eval = lm.evaluate(&seqs);
//! assert!(eval.accuracy > 0.5);
//! # Ok::<(), ibcm_lm::LmError>(())
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest notation for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod batch;
mod batcher;
mod error;
mod hmm;
mod metrics;
mod model;
mod ngram;
mod persist;
mod scorer;
mod vocab;

pub use batch::plan_buckets;
pub use batcher::{BatchScheme, TrainBatch};
pub use error::LmError;
pub use hmm::{HmmConfig, HmmLm};
pub use metrics::{position_likelihoods, PositionStat, SequenceEval, SessionScore};
pub use model::{LmTrainConfig, LstmLm, TrainReport};
pub use ngram::{NgramConfig, NgramLm};
pub use scorer::{LmScorer, StepScore};
pub use vocab::Vocab;
