//! `ibcm-nn` — a minimal, dependency-light deep-learning substrate.
//!
//! The paper ("System Misuse Detection via Informed Behavior Clustering and
//! Modeling", Adilova et al., DSN-W 2019) trains a one-layer LSTM language
//! model (256 units, dropout 0.4, dense softmax head) over sequences of
//! discrete actions. The Rust deep-learning ecosystem is thin, so this crate
//! implements exactly the pieces that model needs, from scratch:
//!
//! - [`Matrix`]: a row-major `f32` matrix with the handful of BLAS-like
//!   kernels the layers use — blocked, multi-accumulator loops, checked bit
//!   for bit against the retained naive [`mod@reference`] loops by the
//!   property tests,
//! - [`LstmLayer`]: a fused LSTM cell unrolled over time with explicit,
//!   finite-difference-verified backpropagation; every entry point has an
//!   `_into`/`_scratch` variant threading a reusable [`Scratch`] workspace
//!   so steady-state training and streaming scoring are allocation-free,
//! - [`Dense`] + [`softmax_cross_entropy`]: the classification head,
//! - [`Dropout`]: inverted dropout,
//! - [`Adam`]: the optimizer, with global-norm gradient clipping,
//! - [`gradcheck`]: numerical gradient checking used throughout the tests.
//!
//! Inputs are sequences of one-hot vectors in the paper; here the one-hot
//! multiplication is performed implicitly by row gathers from the input
//! weight matrix (see [`LstmLayer::forward`]), which is the same math without
//! materializing `seq_len x vocab` matrices.
//!
//! # Example
//!
//! ```
//! use ibcm_nn::{Matrix, Dense};
//! let dense = Dense::new(4, 3, 42);
//! let h = Matrix::zeros(2, 4);
//! let logits = dense.forward(&h);
//! assert_eq!((logits.rows(), logits.cols()), (2, 3));
//! ```

// Denied everywhere except the explicitly-allowed SIMD micro-kernels in
// `matrix::kernels::x86`, which carry per-function safety contracts.
#![deny(unsafe_code)]
// Inside those kernels, every unsafe operation must sit in its own
// `unsafe { }` block with a `// SAFETY:` justification (clippy's
// undocumented_unsafe_blocks and missing_safety_doc check the comments;
// this makes rustc check the block structure).
#![deny(unsafe_op_in_unsafe_fn)]
// Index-based loops are the clearest notation for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod activations;
mod adam;
mod dense;
mod dropout;
mod error;
pub mod gradcheck;
mod lstm;
mod matrix;
mod scratch;
pub mod serialize;

pub use activations::{sigmoid, softmax_in_place, tanh_f};
pub use adam::{clip_global_norm, Adam, AdamConfig};
pub use dense::{
    softmax_cross_entropy, softmax_cross_entropy_into, Dense, DenseCache, DenseGrads, SoftmaxLoss,
};
pub use dropout::Dropout;
pub use error::NnError;
pub use lstm::{LstmBatchState, LstmCache, LstmGrads, LstmLayer, LstmState, StepInput};
pub use matrix::{reference, Matrix};
pub use scratch::{BatchScratch, Scratch};
