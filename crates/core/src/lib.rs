//! `ibcm-core` — the full misuse-detection pipeline of the paper.
//!
//! This crate glues the substrates together into the pipeline of the
//! paper's Fig. 2:
//!
//! **Training phase** ([`Pipeline`]):
//! 1. topic modeling: an LDA ensemble over the historical sessions
//!    (`ibcm-topics`),
//! 2. informed clustering: an expert session over the ensemble's views
//!    (`ibcm-viz`, with a [`SimulatedExpert`](ibcm_viz::SimulatedExpert)
//!    standing in for the human analysts) yielding behavior clusters
//!    `G_1..G_k`,
//! 3. per-cluster 70/15/15 splits, one OC-SVM per cluster for routing
//!    (`ibcm-ocsvm`) and one LSTM language model per cluster for behavior
//!    modeling (`ibcm-lm`).
//!
//! **Prediction phase** ([`MisuseDetector`]):
//! - route a session to `G_max = argmax_i w_i` by OC-SVM score,
//! - score its normality as the average likelihood (and average loss) of
//!   its actions under `G_max`'s language model,
//! - online ([`OnlineMonitor`]): score action-by-action, lock the routed
//!   cluster in after the first 15 actions (§IV-C), and raise alarms when
//!   the likelihood trend collapses,
//! - rank the most suspicious sessions for analyst review (§IV-D).
//!
//! [`experiments`] contains the reusable harness that regenerates every
//! figure of the paper's evaluation; the `ibcm-bench` binaries are thin
//! wrappers around it.
//!
//! # Example
//!
//! ```no_run
//! use ibcm_core::{Pipeline, PipelineConfig};
//! use ibcm_logsim::{Generator, GeneratorConfig};
//!
//! let dataset = Generator::new(GeneratorConfig::tiny(7)).generate();
//! let trained = Pipeline::new(PipelineConfig::test_profile(7)).train(&dataset)?;
//! let verdict = trained.detector().score_session(dataset.sessions()[0].actions());
//! println!("cluster {} likelihood {}", verdict.cluster, verdict.score.avg_likelihood);
//! # Ok::<(), ibcm_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest notation for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

/// The deterministic worker pool shared by the parallel stages (LDA
/// ensemble fitting, per-cluster model training, batch scoring). Re-exported
/// so downstream users size thread counts with the same
/// [`par::default_threads`] policy (`IBCM_THREADS`, then available cores).
pub use ibcm_par as par;

pub mod chaos;
mod config;
mod detector;
mod drift;
mod error;
pub mod experiments;
mod monitor;
mod persist;
mod pipeline;
mod stream;

pub use config::PipelineConfig;
pub use detector::{MisuseDetector, SessionVerdict, WeightedVerdict};
pub use drift::{DriftConfig, DriftDetector, DriftStatus};
pub use error::CoreError;
pub use monitor::{AlarmPolicy, MonitorEvent, OnlineMonitor};
pub use persist::LoadReport;
pub use pipeline::{ClusterData, Pipeline, TrainedPipeline};
pub use stream::{
    Admission, ClockPolicy, FaultAction, FaultCounters, FaultKind, FaultPolicy, ObserveOutcome,
    SessionDirectory, SessionEvent, StreamAlarm, StreamAlarmKind, StreamConfig, StreamMonitor,
};
