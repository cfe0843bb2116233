//! Registry handles for the daemon's shard/supervisor metrics.
//!
//! All names come from the `ibcm-obs` catalog ([`ibcm_obs::names`]); this
//! module resolves them once per shard (label values are per-shard) so the
//! hot paths touch pre-registered atomic cells only.

use ibcm_obs::names;
use ibcm_obs::{Counter, Gauge, Histogram, DEFAULT_SECONDS_BUCKETS};

/// Per-shard handles, resolved at daemon construction.
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    pub(crate) restarts: Counter,
    pub(crate) backoff_ms: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_overflows: Counter,
    pub(crate) worker_batches: Counter,
    pub(crate) checkpoints_written: Counter,
    pub(crate) checkpoints_failed: Counter,
    pub(crate) restores_newest: Counter,
    pub(crate) restores_fallback: Counter,
    pub(crate) restores_fresh: Counter,
}

impl ShardMetrics {
    pub(crate) fn for_shard(shard: usize) -> Self {
        let s = shard.to_string();
        let shard_label: &[(&str, &str)] = &[("shard", &s)];
        // Registered at 0 and never incremented: workers rotate their own
        // checkpoints, so none waits on a writer. The series stays for the
        // dashboards and the benchmark probe that read it.
        names::SERVED_CHECKPOINT_STALLS.counter_labeled(shard_label);
        ShardMetrics {
            restarts: names::SERVED_SHARD_RESTARTS.counter_labeled(shard_label),
            backoff_ms: names::SERVED_RESTART_BACKOFF_MS.gauge_labeled(shard_label),
            queue_depth: names::SERVED_QUEUE_DEPTH.gauge_labeled(shard_label),
            queue_overflows: names::SERVED_QUEUE_OVERFLOWS.counter_labeled(shard_label),
            worker_batches: names::SERVED_WORKER_BATCHES.counter_labeled(shard_label),
            checkpoints_written: names::SERVED_CHECKPOINTS
                .counter_labeled(&[("shard", &s), ("outcome", "written")]),
            checkpoints_failed: names::SERVED_CHECKPOINTS
                .counter_labeled(&[("shard", &s), ("outcome", "failed")]),
            restores_newest: names::SERVED_RESTORES
                .counter_labeled(&[("shard", &s), ("outcome", "newest")]),
            restores_fallback: names::SERVED_RESTORES
                .counter_labeled(&[("shard", &s), ("outcome", "fallback")]),
            restores_fresh: names::SERVED_RESTORES
                .counter_labeled(&[("shard", &s), ("outcome", "fresh")]),
        }
    }
}

/// Daemon-wide handles.
#[derive(Debug, Clone)]
pub(crate) struct DaemonMetrics {
    pub(crate) shards: Gauge,
    pub(crate) alarms_merged: Counter,
    pub(crate) drain_seconds: Histogram,
}

impl DaemonMetrics {
    pub(crate) fn resolve() -> Self {
        DaemonMetrics {
            shards: names::SERVED_SHARDS.gauge(),
            alarms_merged: names::SERVED_ALARMS_MERGED.counter(),
            drain_seconds: names::SERVED_DRAIN_SECONDS.histogram(DEFAULT_SECONDS_BUCKETS),
        }
    }
}
