//! Daemon chaos campaigns: trains the pipeline, flattens the dataset into
//! an interleaved event stream, and drives the `ibcm-served` daemon
//! through seeded kill/restore campaigns at shard counts {1, 2, 4, 8} —
//! including a campaign that corrupts the newest checkpoint generation
//! (forcing a fallback restore) and one with a deliberately tiny ingest
//! queue (backpressure storm). Every run's merged alarm stream must be
//! byte-identical to the uninterrupted single-shard reference.
//!
//! Observability: a JSONL trace sink captures the spans
//! (`results/daemon_chaos_trace.jsonl`), per-campaign wall clock lands on
//! `ibcm_stage_seconds{stage=...}`, and the final global registry —
//! including the `ibcm_served_*` shard/supervisor metrics — is written as
//! a Prometheus text snapshot to `results/daemon_chaos_metrics.prom`.

use std::sync::Arc;

use ibcm_bench::Harness;
use ibcm_core::chaos::{event_stream, DaemonCampaign};
use ibcm_core::{AlarmPolicy, FaultPolicy, StreamConfig};
use ibcm_served::{run_campaign, CampaignReport, CheckpointStore, ServedConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn stream_config() -> StreamConfig {
    StreamConfig {
        session_timeout_minutes: 30,
        policy: AlarmPolicy {
            likelihood_threshold: 0.05,
            window: 5,
            warmup: 5,
            trend_window: 5,
            ..AlarmPolicy::default()
        },
        faults: FaultPolicy {
            max_active_sessions: Some(32),
            ..FaultPolicy::default()
        },
        ..StreamConfig::default()
    }
}

fn served_config(shards: usize) -> ServedConfig {
    ServedConfig::new(stream_config())
        .with_shards(shards)
        .with_rotation(64, 3)
        .with_supervision(8, 1, 50)
}

/// Runs one campaign under a trace span, recording its wall clock on
/// `ibcm_stage_seconds{stage=<label>}`.
fn timed<T>(label: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = ibcm_obs::span(label);
    let t0 = std::time::Instant::now();
    let result = f();
    ibcm_obs::names::STAGE_SECONDS
        .histogram_labeled(ibcm_obs::DEFAULT_SECONDS_BUCKETS, &[("stage", label)])
        .observe(t0.elapsed().as_secs_f64());
    result
}

fn row(label: &str, shards: usize, report: &CampaignReport, identical: bool) -> Vec<String> {
    vec![
        label.to_string(),
        shards.to_string(),
        report.kills_delivered.to_string(),
        report.drain.restarts.to_string(),
        report.drain.restores_newest.to_string(),
        report.drain.restores_fallback.to_string(),
        report.drain.restores_fresh.to_string(),
        report.corrupted.to_string(),
        report.merged_log.len().to_string(),
        identical.to_string(),
        ibcm_bench::fmt(report.drain.drain_seconds),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trace_path = harness.results_dir().join("daemon_chaos_trace.jsonl");
    ibcm_obs::set_trace_sink(Some(Arc::new(ibcm_obs::JsonlSink::create(&trace_path)?)));
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let detector = Arc::new(trained.detector().clone());
    let events = event_stream(&dataset);
    eprintln!(
        "[ibcm] daemon chaos: {} events across shard counts {SHARD_COUNTS:?}",
        events.len()
    );

    // The reference: one shard, no kills.
    let quiet = DaemonCampaign::seeded(harness.seed, events.len(), 1, 0);
    let reference = timed("reference", || {
        run_campaign(
            Arc::clone(&detector),
            served_config(1),
            CheckpointStore::memory(),
            &events,
            &quiet,
        )
    })?;
    let mut rows = vec![row("reference", 1, &reference, true)];

    let campaigns: [(&'static str, DaemonCampaign); 3] = [
        (
            "kills",
            DaemonCampaign::seeded(harness.seed ^ 1, events.len(), 8, 4),
        ),
        (
            "kills_corrupt_newest",
            DaemonCampaign::seeded(harness.seed ^ 2, events.len(), 8, 3).with_corrupt_newest(0),
        ),
        (
            "kills_tiny_queue",
            DaemonCampaign::seeded(harness.seed ^ 3, events.len(), 8, 3).with_queue_capacity(2),
        ),
    ];
    let labels = ["kills", "kills_corrupt_newest", "kills_tiny_queue"];

    let mut all_identical = true;
    for ((label, campaign), timer_label) in campaigns.iter().zip(labels) {
        eprintln!("[ibcm] campaign {label}: {}", campaign.describe());
        for shards in SHARD_COUNTS {
            let report = timed(timer_label, || {
                run_campaign(
                    Arc::clone(&detector),
                    served_config(shards),
                    CheckpointStore::memory(),
                    &events,
                    campaign,
                )
            })?;
            let identical = report.merged_log == reference.merged_log;
            all_identical &= identical;
            println!(
                "{label:<22} shards={shards} kills={} restarts={} restores(n/f/x)={}/{}/{} \
                 alarms={} identical={identical}",
                report.kills_delivered,
                report.drain.restarts,
                report.drain.restores_newest,
                report.drain.restores_fallback,
                report.drain.restores_fresh,
                report.merged_log.len(),
            );
            rows.push(row(label, shards, &report, identical));
        }
    }

    harness.write_csv(
        "daemon_chaos",
        "campaign,shards,kills,restarts,restores_newest,restores_fallback,restores_fresh,corrupted,alarms,identical,drain_seconds",
        rows,
    )?;

    let prom_path = harness.results_dir().join("daemon_chaos_metrics.prom");
    std::fs::write(&prom_path, ibcm_obs::global().render_prometheus())?;
    ibcm_obs::set_trace_sink(None);
    eprintln!(
        "[ibcm] wrote {} and {}",
        prom_path.display(),
        trace_path.display()
    );

    if !all_identical {
        return Err("a campaign's merged stream diverged from the reference".into());
    }
    println!(
        "OK: merged alarm stream byte-identical across {} campaign runs",
        SHARD_COUNTS.len() * campaigns.len()
    );
    Ok(())
}
