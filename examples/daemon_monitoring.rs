//! Daemon-shaped monitoring: the interleaved event stream from
//! `stream_monitoring` scaled up and run through `ibcm-served` — the
//! session table partitioned across four crash-isolated shards, a shard
//! killed mid-run and restored from its rotated checkpoints, and the
//! merged alarm stream asserted byte-identical to an undisturbed
//! single-shard run of the same events.
//!
//! ```sh
//! cargo run --release --example daemon_monitoring
//! ```
//!
//! To serve the same daemon over the network instead of in-process, run
//! the `ibcm-serve` binary (`cargo run --release -p ibcm-http --bin
//! ibcm-serve`) — wire contract in API.md.

use std::sync::Arc;

use ibcm::served::{CheckpointStore, Daemon, MergedAlarm, ServedConfig};
use ibcm::{
    AlarmPolicy, FaultPolicy, Generator, GeneratorConfig, Pipeline, PipelineConfig, SessionEvent,
    StreamConfig,
};

fn line(m: &MergedAlarm) -> String {
    format!("{:06} {:?}", m.seq, m.alarm)
}

/// Runs one daemon over the events; optionally kills a shard mid-run.
fn run(
    detector: &Arc<ibcm::MisuseDetector>,
    stream: &StreamConfig,
    shards: usize,
    events: &[SessionEvent],
    kill_at: Option<usize>,
) -> Result<(Vec<String>, ibcm::served::DrainReport), Box<dyn std::error::Error>> {
    let config = ServedConfig::new(stream.clone())
        .with_shards(shards)
        .with_rotation(32, 3)
        .with_supervision(8, 1, 50);
    let mut daemon = Daemon::new(Arc::clone(detector), config, CheckpointStore::memory())?;
    let mut log = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if kill_at == Some(i) {
            // Chaos: panic the event's own shard. The supervisor catches
            // it, restores the newest valid checkpoint generation, and
            // replays the commands the checkpoint had not absorbed.
            daemon.kill_shard(daemon.shard_for(event.user))?;
        }
        daemon.ingest(*event)?;
        if i % 16 == 7 {
            log.extend(daemon.poll_alarms().iter().map(line));
        }
    }
    let report = daemon.drain()?;
    log.extend(report.alarms.iter().map(line));
    Ok((log, report))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Generator::new(GeneratorConfig::tiny(37)).generate();
    let trained = Pipeline::new(PipelineConfig::test_profile(37)).train(&dataset)?;
    let detector = Arc::new(trained.detector().clone());

    let stream = StreamConfig {
        session_timeout_minutes: 30,
        policy: AlarmPolicy {
            likelihood_threshold: 0.05,
            window: 4,
            warmup: 4,
            trend_window: 4,
            ..AlarmPolicy::default()
        },
        faults: FaultPolicy {
            max_active_sessions: Some(8),
            ..FaultPolicy::default()
        },
        ..StreamConfig::default()
    };
    let events = ibcm::chaos::event_stream(&dataset);
    println!(
        "daemon_monitoring: {} events from {} sessions",
        events.len(),
        dataset.sessions().len()
    );

    // The reference: one shard, no crashes.
    let (reference, _) = run(&detector, &stream, 1, &events, None)?;
    println!("reference (1 shard, no kill): {} alarms", reference.len());

    // The run under test: four shards, one killed mid-stream.
    let kill_at = events.len() / 2;
    let (merged, report) = run(&detector, &stream, 4, &events, Some(kill_at))?;
    println!(
        "daemon    (4 shards, kill at event {kill_at}): {} alarms, {} restart(s), \
         restores newest/fallback/fresh = {}/{}/{}",
        merged.len(),
        report.restarts,
        report.restores_newest,
        report.restores_fallback,
        report.restores_fresh,
    );
    println!(
        "drain: {} events, {} sessions started, {} ended, {} still active, {:.3}s",
        report.events,
        report.sessions_started,
        report.sessions_ended,
        report.active_sessions,
        report.drain_seconds,
    );

    assert_eq!(
        merged, reference,
        "the merged alarm stream must be byte-identical to the single-shard reference"
    );
    assert!(report.restarts >= 1, "the kill must have forced a restart");
    println!("OK: merged stream byte-identical across shard count and crash");

    for l in merged.iter().take(5) {
        println!("  {l}");
    }
    Ok(())
}
