//! `ibcm-ocsvm` — one-class support vector machines for cluster routing.
//!
//! The paper's pipeline (§III) trains one ν-OC-SVM (Schölkopf et al. 2000)
//! per behavior cluster; at prediction time a new session is routed to the
//! cluster whose OC-SVM assigns it the highest decision score, and that
//! cluster's LSTM language model scores the session's normality. Because the
//! per-action OC-SVM scores degrade on long sessions (Fig. 6), the paper
//! locks the cluster choice in after the first 15 actions via majority vote
//! (§IV-C); [`ClusterRouter::route_with_lock_in`] implements that.
//!
//! This crate implements:
//!
//! - [`SessionFeaturizer`]: sessions → normalized bag-of-actions vectors
//!   (plus a length feature, so length rarity is visible to the SVM exactly
//!   as in the paper's Fig. 6 observation),
//! - [`OcSvm`]: the ν-one-class SVM trained with an SMO-style pairwise
//!   coordinate descent on the dual,
//! - [`ClusterRouter`]: per-cluster score comparison, per-prefix scoring,
//!   and first-`k`-action majority-vote lock-in,
//! - [`LockInVote`]: that vote, which stops scoring prefixes once the
//!   remaining ones cannot change its winner.
//!
//! # Example
//!
//! ```
//! use ibcm_ocsvm::{OcSvm, OcSvmConfig, Kernel};
//! let train: Vec<Vec<f64>> = (0..40)
//!     .map(|i| vec![1.0 + 0.01 * (i % 5) as f64, 0.5])
//!     .collect();
//! let svm = OcSvm::train(&train, &OcSvmConfig::default())?;
//! let inlier = svm.decision(&[1.02, 0.5]);
//! let outlier = svm.decision(&[9.0, -4.0]);
//! assert!(inlier > outlier);
//! # Ok::<(), ibcm_ocsvm::OcSvmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod features;
mod kernel;
mod persist;
mod router;
mod svm;

pub use error::OcSvmError;
pub use features::SessionFeaturizer;
pub use kernel::Kernel;
pub use router::{ClusterRouter, LockInVote, RouteDecision};
pub use svm::{OcSvm, OcSvmConfig};
