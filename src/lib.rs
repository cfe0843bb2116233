//! # ibcm — Informed Behavior Clustering and Modeling
//!
//! A complete Rust implementation of *"System Misuse Detection via Informed
//! Behavior Clustering and Modeling"* (Adilova et al., DSN Workshops 2019):
//! detect misuse of an administrative system by (1) clustering interaction
//! sessions into semantically meaningful behaviors with an LDA-ensemble +
//! expert-in-the-loop workflow, (2) learning one LSTM language model of
//! normal behavior per cluster, (3) routing new sessions to their cluster
//! with one-class SVMs, and (4) flagging sessions whose actions the routed
//! model finds unlikely — offline or action-by-action online.
//!
//! This crate is a facade re-exporting the public API of the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`ibcm_logsim`] | synthetic admin-portal logs (catalog, archetypes, generator) |
//! | [`ibcm_topics`] | LDA + LDA ensembles |
//! | [`ibcm_viz`] | the expert interface views, expert session, simulated expert |
//! | [`ibcm_ocsvm`] | ν-one-class SVMs, session featurizer, cluster router |
//! | [`ibcm_lm`] | LSTM and n-gram language models over action sequences |
//! | [`ibcm_patterns`] | frequent itemsets and PrefixSpan sequential patterns |
//! | [`ibcm_nn`] | the from-scratch neural substrate (matrix, LSTM, Adam) |
//! | [`ibcm_core`] | the end-to-end pipeline, detector, online monitor |
//! | [`ibcm_served`] | supervised sharded monitoring daemon (crash-isolated shards, checkpoint rotation) |
//! | [`ibcm_http`] | zero-dependency HTTP/1.1 front end on the daemon (`ibcm-serve`) |
//! | [`ibcm_obs`] | tracing spans + metrics registry (zero-dependency) |
//!
//! # Quickstart
//!
//! ```
//! use ibcm::{Generator, GeneratorConfig, Pipeline, PipelineConfig};
//!
//! // Historical normal behavior (synthetic stand-in for a real log).
//! let dataset = Generator::new(GeneratorConfig::tiny(7)).generate();
//!
//! // Training phase: topic ensemble -> informed clustering -> per-cluster
//! // OC-SVM + LSTM.
//! let trained = Pipeline::new(PipelineConfig::test_profile(7)).train(&dataset)?;
//!
//! // Prediction phase: route and score a new session.
//! let verdict = trained.detector().score_session(dataset.sessions()[0].actions());
//! assert!(verdict.score.avg_likelihood >= 0.0);
//! # Ok::<(), ibcm::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ibcm_core::{
    chaos, experiments, par, Admission, AlarmPolicy, ClockPolicy, ClusterData, CoreError,
    DriftConfig, DriftDetector, DriftStatus, FaultAction, FaultCounters, FaultKind, FaultPolicy,
    LoadReport, MisuseDetector, MonitorEvent, ObserveOutcome, OnlineMonitor, Pipeline,
    PipelineConfig, SessionDirectory, SessionEvent, SessionVerdict, StreamAlarm, StreamAlarmKind,
    StreamConfig, StreamMonitor, TrainedPipeline, WeightedVerdict,
};
/// The observability layer: structured tracing spans, pluggable trace sinks
/// and the process-wide metrics registry (re-export of `ibcm-obs`; see
/// OPERATIONS.md for the metric catalog).
pub use ibcm_obs as obs;
/// The supervised sharded monitoring daemon: crash-isolated `StreamMonitor`
/// shards, keep-K checkpoint rotation, and a deterministic merged alarm
/// stream (re-export of `ibcm-served`; see OPERATIONS.md for the runbook).
pub use ibcm_served as served;
/// The HTTP/1.1 front end on the daemon: ingest, scoring, alarm paging,
/// health, and Prometheus exposition over a hand-rolled zero-dependency
/// transport (re-export of `ibcm-http`; see API.md for the wire reference).
pub use ibcm_http as http;
pub use ibcm_lm::{
    BatchScheme, HmmConfig, HmmLm, LmError, LmScorer, LmTrainConfig, LstmLm, NgramConfig, NgramLm, SequenceEval,
    SessionScore, StepScore, Vocab,
};
pub use ibcm_logsim::{
    split_sessions, write_csv_log, ActionCatalog, ActionGroup, ActionId, Archetype, ArchetypeId,
    CatalogMode, ClusterId, Dataset, DatasetStats, Generator, GeneratorConfig, LengthModel,
    LogImporter, LogsimError, Session, SessionId, Split, UserId,
};
pub use ibcm_ocsvm::{
    ClusterRouter, Kernel, LockInVote, OcSvm, OcSvmConfig, OcSvmError, RouteDecision,
    SessionFeaturizer,
};
pub use ibcm_patterns::{frequent_itemsets, Itemset, PrefixSpan, SequentialPattern};
pub use ibcm_topics::{
    js_divergence, sessions_to_docs, Ensemble, EnsembleConfig, Lda, LdaConfig, Topic, TopicId,
    TopicModel, TopicsError,
};
pub use ibcm_viz::{
    tsne_embed, Clustering, ExpertOp, ExpertSession, SimulatedExpert, SimulatedExpertConfig,
    TopicActionMatrixView, TopicProjectionView, TsneConfig,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // Types from different crates must interoperate through the facade.
        let catalog = crate::ActionCatalog::standard();
        let featurizer = crate::SessionFeaturizer::new(catalog.len(), true);
        assert_eq!(featurizer.dim(), catalog.len() + 1);
    }
}
