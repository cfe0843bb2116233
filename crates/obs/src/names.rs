//! The metric catalog: every metric name the ibcm pipeline exports, with
//! its kind, label keys, and help text.
//!
//! Instrumented crates register through these definitions rather than ad
//! hoc strings, so the exported surface is enumerable: `OPERATIONS.md`
//! documents exactly this list, and the `catalog` test plus `ibcm-lint`'s
//! `metric-*` rules fail when the two drift apart.

use crate::metrics::{global, Counter, Gauge, Histogram, MetricKind};

/// One catalog entry: a metric the pipeline exports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The Prometheus metric name.
    pub name: &'static str,
    /// The metric family.
    pub kind: MetricKind,
    /// Label keys this metric is registered with (empty = unlabeled).
    pub labels: &'static [&'static str],
    /// Help text (also the Prometheus `# HELP` line).
    pub help: &'static str,
}

impl MetricDef {
    /// Registers (or fetches) this counter on the global registry.
    pub fn counter(&self) -> Counter {
        global().counter(self.name, self.help)
    }

    /// Registers (or fetches) this counter with concrete label values.
    pub fn counter_labeled(&self, labels: &[(&str, &str)]) -> Counter {
        global().counter_with(self.name, self.help, labels)
    }

    /// Registers (or fetches) this gauge on the global registry.
    pub fn gauge(&self) -> Gauge {
        global().gauge(self.name, self.help)
    }

    /// Registers (or fetches) this gauge with concrete label values.
    pub fn gauge_labeled(&self, labels: &[(&str, &str)]) -> Gauge {
        global().gauge_with(self.name, self.help, labels)
    }

    /// Registers (or fetches) this histogram on the global registry.
    pub fn histogram(&self, buckets: &[f64]) -> Histogram {
        global().histogram(self.name, self.help, buckets)
    }

    /// Registers (or fetches) this histogram with concrete label values.
    pub fn histogram_labeled(&self, buckets: &[f64], labels: &[(&str, &str)]) -> Histogram {
        global().histogram_with(self.name, self.help, buckets, labels)
    }
}

/// Stream ingestion: events fed to `StreamMonitor::ingest`.
pub const STREAM_EVENTS: MetricDef = MetricDef {
    name: "ibcm_stream_events_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Events ingested by the stream monitor (before fault handling).",
};

/// Stream ingestion: fault classifications, by kind.
pub const STREAM_FAULTS: MetricDef = MetricDef {
    name: "ibcm_stream_faults_total",
    kind: MetricKind::Counter,
    labels: &["kind"],
    help: "Fault classifications by kind: non_monotonic, duplicate, unknown_action, unknown_user.",
};

/// Stream ingestion: events dropped by the fault policy.
pub const STREAM_DROPPED: MetricDef = MetricDef {
    name: "ibcm_stream_dropped_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Events dropped by the fault policy before reaching any session.",
};

/// Stream ingestion: sessions shed to enforce the active-session bound.
pub const STREAM_SHED: MetricDef = MetricDef {
    name: "ibcm_stream_shed_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Sessions shed to enforce max_active_sessions.",
};

/// Stream ingestion: alarms raised, by kind.
pub const STREAM_ALARMS: MetricDef = MetricDef {
    name: "ibcm_stream_alarms_total",
    kind: MetricKind::Counter,
    labels: &["kind", "cluster"],
    help: "Stream alarms by kind (score, shed) and, for score alarms, the session's routed cluster.",
};

/// Stream ingestion: sessions opened.
pub const STREAM_SESSIONS_STARTED: MetricDef = MetricDef {
    name: "ibcm_stream_sessions_started_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Sessions opened by the stream monitor.",
};

/// Stream ingestion: sessions closed.
pub const STREAM_SESSIONS_ENDED: MetricDef = MetricDef {
    name: "ibcm_stream_sessions_ended_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Sessions closed (logout, timeout, or shedding).",
};

/// Stream ingestion: currently active sessions.
pub const STREAM_ACTIVE_SESSIONS: MetricDef = MetricDef {
    name: "ibcm_stream_active_sessions",
    kind: MetricKind::Gauge,
    labels: &[],
    help: "Sessions currently being monitored.",
};

/// Stream ingestion: the stream clock.
pub const STREAM_CLOCK_MINUTE: MetricDef = MetricDef {
    name: "ibcm_stream_clock_minute",
    kind: MetricKind::Gauge,
    labels: &[],
    help: "The stream clock: maximum event minute processed so far.",
};

/// Routing: full-session route decisions, by winning cluster.
pub const ROUTE_DECISIONS: MetricDef = MetricDef {
    name: "ibcm_route_decisions_total",
    kind: MetricKind::Counter,
    labels: &["cluster"],
    help: "OC-SVM route decisions by winning cluster (route and lock-in vote entry points).",
};

/// Offline scoring: sessions scored by the detector.
pub const SESSIONS_SCORED: MetricDef = MetricDef {
    name: "ibcm_sessions_scored_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Sessions scored by MisuseDetector (score_session and score_sessions).",
};

/// Offline scoring: per-session scoring latency.
pub const SCORE_SESSION_SECONDS: MetricDef = MetricDef {
    name: "ibcm_score_session_seconds",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Wall-clock seconds to route and score one session.",
};

/// LM scoring: actions scored by streaming scorers.
pub const LM_ACTIONS_SCORED: MetricDef = MetricDef {
    name: "ibcm_lm_actions_scored_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Actions scored by LmScorer (batch and online paths).",
};

/// LM training: optimizer epochs completed.
pub const LM_TRAIN_EPOCHS: MetricDef = MetricDef {
    name: "ibcm_lm_train_epochs_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "LSTM training epochs completed across all models.",
};

/// LM training: per-epoch wall clock.
pub const LM_EPOCH_SECONDS: MetricDef = MetricDef {
    name: "ibcm_lm_epoch_seconds",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Wall-clock seconds per LSTM training epoch.",
};

/// LM batched scoring: lock-step scoring buckets executed.
pub const LM_SCORE_BATCHES: MetricDef = MetricDef {
    name: "ibcm_lm_score_batches_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Lock-step scoring buckets executed by the batched session scorer.",
};

/// LM batched scoring: per-bucket wall clock.
pub const LM_BATCH_SECONDS: MetricDef = MetricDef {
    name: "ibcm_lm_batch_seconds",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Wall-clock seconds per lock-step scoring bucket (all lanes).",
};

/// LM batched scoring: lane occupancy per executed bucket.
pub const LM_BATCH_LANES: MetricDef = MetricDef {
    name: "ibcm_lm_batch_lanes",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Sessions per executed lock-step scoring bucket (how full the batch was).",
};

/// Topic modeling: LDA fits completed.
pub const LDA_FITS: MetricDef = MetricDef {
    name: "ibcm_lda_fits_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Collapsed-Gibbs LDA fits completed (every ensemble member counts).",
};

/// Topic modeling: per-fit wall clock.
pub const LDA_FIT_SECONDS: MetricDef = MetricDef {
    name: "ibcm_lda_fit_seconds",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Wall-clock seconds per LDA fit.",
};

/// Pipeline: per-cluster models trained.
pub const CLUSTER_MODELS_TRAINED: MetricDef = MetricDef {
    name: "ibcm_cluster_models_trained_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Per-cluster OC-SVM + LSTM model pairs trained.",
};

/// Pipeline: session groups skipped as too small to train.
pub const CLUSTER_GROUPS_SKIPPED: MetricDef = MetricDef {
    name: "ibcm_cluster_groups_skipped_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Session groups skipped by train_clustered (fewer than 4 sessions, or empty split).",
};

/// Pipeline: clusters in the most recently trained detector.
pub const DETECTOR_CLUSTERS: MetricDef = MetricDef {
    name: "ibcm_detector_clusters",
    kind: MetricKind::Gauge,
    labels: &[],
    help: "Behavior clusters in the most recently trained detector.",
};

/// Pipeline and bench: per-stage wall clock.
pub const STAGE_SECONDS: MetricDef = MetricDef {
    name: "ibcm_stage_seconds",
    kind: MetricKind::Histogram,
    labels: &["stage"],
    help: "Wall-clock seconds per pipeline stage (lda_ensemble, expert_clustering, cluster_models) and per chaos bench scenario.",
};

/// Daemon: configured shard count.
pub const SERVED_SHARDS: MetricDef = MetricDef {
    name: "ibcm_served_shards",
    kind: MetricKind::Gauge,
    labels: &[],
    help: "Shards the monitoring daemon is running (set at startup).",
};

/// Daemon: supervised shard restarts.
pub const SERVED_SHARD_RESTARTS: MetricDef = MetricDef {
    name: "ibcm_served_shard_restarts_total",
    kind: MetricKind::Counter,
    labels: &["shard"],
    help: "Shard worker restarts after a caught panic (checkpoint restore + replay).",
};

/// Daemon: current restart backoff per shard.
pub const SERVED_RESTART_BACKOFF_MS: MetricDef = MetricDef {
    name: "ibcm_served_restart_backoff_ms",
    kind: MetricKind::Gauge,
    labels: &["shard"],
    help: "Exponential backoff applied before the shard's most recent restart, in milliseconds (0 once the shard makes progress).",
};

/// Daemon: ingest-queue depth per shard.
pub const SERVED_QUEUE_DEPTH: MetricDef = MetricDef {
    name: "ibcm_served_queue_depth",
    kind: MetricKind::Gauge,
    labels: &["shard"],
    help: "Commands waiting in the shard's bounded ingest queue.",
};

/// Daemon: ingest-queue overflows per shard.
pub const SERVED_QUEUE_OVERFLOWS: MetricDef = MetricDef {
    name: "ibcm_served_queue_overflows_total",
    kind: MetricKind::Counter,
    labels: &["shard"],
    help: "try_ingest rejections because the shard's ingest queue was full (explicit backpressure).",
};

/// Daemon: checkpoint rotation outcomes per shard.
pub const SERVED_CHECKPOINTS: MetricDef = MetricDef {
    name: "ibcm_served_checkpoints_total",
    kind: MetricKind::Counter,
    labels: &["shard", "outcome"],
    help: "Checkpoint rotation attempts by outcome (written, failed).",
};

/// Daemon: worker drain runs per shard.
pub const SERVED_WORKER_BATCHES: MetricDef = MetricDef {
    name: "ibcm_served_worker_batches_total",
    kind: MetricKind::Counter,
    labels: &["shard"],
    help: "Command runs a shard worker popped from its ingest queue (commands-per-wakeup amortization; divide processed commands by this for the realized batch size).",
};

/// Daemon: checkpoint submissions that found the writer busy.
pub const SERVED_CHECKPOINT_STALLS: MetricDef = MetricDef {
    name: "ibcm_served_checkpoint_stalls_total",
    kind: MetricKind::Counter,
    labels: &["shard"],
    help: "Checkpoint snapshots that had to wait for the background writer's swap slot (the shard produced checkpoints faster than the store rotated them).",
};

/// Daemon: restore outcomes per shard.
pub const SERVED_RESTORES: MetricDef = MetricDef {
    name: "ibcm_served_restores_total",
    kind: MetricKind::Counter,
    labels: &["shard", "outcome"],
    help: "Restart restores by outcome (newest = newest generation was valid, fallback = an older generation was used, fresh = no valid checkpoint, full replay).",
};

/// Daemon: alarms released into the merged stream.
pub const SERVED_ALARMS_MERGED: MetricDef = MetricDef {
    name: "ibcm_served_alarms_merged_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Alarms released into the daemon's deterministic merged stream.",
};

/// Daemon: graceful-drain duration.
pub const SERVED_DRAIN_SECONDS: MetricDef = MetricDef {
    name: "ibcm_served_drain_seconds",
    kind: MetricKind::Histogram,
    labels: &[],
    help: "Wall-clock seconds for graceful drain (quiesce, final checkpoints, merged-stream close).",
};

/// HTTP front end: requests served, by route and status code.
pub const HTTP_REQUESTS: MetricDef = MetricDef {
    name: "ibcm_http_requests_total",
    kind: MetricKind::Counter,
    labels: &["route", "code"],
    help: "HTTP requests completed, by normalized route and response status code.",
};

/// HTTP front end: request handling latency per route.
pub const HTTP_REQUEST_SECONDS: MetricDef = MetricDef {
    name: "ibcm_http_request_seconds",
    kind: MetricKind::Histogram,
    labels: &["route"],
    help: "Wall-clock seconds from parsed request to written response, per normalized route.",
};

/// HTTP front end: connections currently being served.
pub const HTTP_CONNECTIONS: MetricDef = MetricDef {
    name: "ibcm_http_connections",
    kind: MetricKind::Gauge,
    labels: &[],
    help: "Client connections currently admitted and being served.",
};

/// HTTP front end: connections refused by admission control.
pub const HTTP_CONNECTIONS_REJECTED: MetricDef = MetricDef {
    name: "ibcm_http_connections_rejected_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Connections turned away with 503 because max_connections was reached.",
};

/// HTTP front end: events accepted into the daemon over the wire.
pub const HTTP_EVENTS_INGESTED: MetricDef = MetricDef {
    name: "ibcm_http_events_ingested_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "Session events accepted into the daemon via POST /v1/events.",
};

/// HTTP front end: ingest requests rejected with 429.
pub const HTTP_BACKPRESSURE: MetricDef = MetricDef {
    name: "ibcm_http_backpressure_total",
    kind: MetricKind::Counter,
    labels: &[],
    help: "POST /v1/events requests answered 429 because a shard queue was full.",
};

/// Every metric the pipeline exports. `OPERATIONS.md`'s catalog is checked
/// against this list.
pub const ALL: &[MetricDef] = &[
    STREAM_EVENTS,
    STREAM_FAULTS,
    STREAM_DROPPED,
    STREAM_SHED,
    STREAM_ALARMS,
    STREAM_SESSIONS_STARTED,
    STREAM_SESSIONS_ENDED,
    STREAM_ACTIVE_SESSIONS,
    STREAM_CLOCK_MINUTE,
    ROUTE_DECISIONS,
    SESSIONS_SCORED,
    SCORE_SESSION_SECONDS,
    LM_ACTIONS_SCORED,
    LM_TRAIN_EPOCHS,
    LM_EPOCH_SECONDS,
    LM_SCORE_BATCHES,
    LM_BATCH_SECONDS,
    LM_BATCH_LANES,
    LDA_FITS,
    LDA_FIT_SECONDS,
    CLUSTER_MODELS_TRAINED,
    CLUSTER_GROUPS_SKIPPED,
    DETECTOR_CLUSTERS,
    STAGE_SECONDS,
    SERVED_SHARDS,
    SERVED_SHARD_RESTARTS,
    SERVED_RESTART_BACKOFF_MS,
    SERVED_QUEUE_DEPTH,
    SERVED_QUEUE_OVERFLOWS,
    SERVED_WORKER_BATCHES,
    SERVED_CHECKPOINT_STALLS,
    SERVED_CHECKPOINTS,
    SERVED_RESTORES,
    SERVED_ALARMS_MERGED,
    SERVED_DRAIN_SECONDS,
    HTTP_REQUESTS,
    HTTP_REQUEST_SECONDS,
    HTTP_CONNECTIONS,
    HTTP_CONNECTIONS_REJECTED,
    HTTP_EVENTS_INGESTED,
    HTTP_BACKPRESSURE,
];
