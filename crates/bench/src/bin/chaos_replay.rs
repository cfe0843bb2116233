//! Chaos replay: trains the pipeline, flattens the dataset into an
//! interleaved event stream, injects every fault class the stream monitor
//! recognizes (out-of-order clocks, duplicate deliveries, unknown actions,
//! unknown users, session-cap pressure), and replays each through a
//! `StreamMonitor` — plus a mid-stream kill/checkpoint/restore run whose
//! alarm output must be byte-identical to the uninterrupted run.
//!
//! Observability: a JSONL trace sink captures every span fired during the
//! replays (`results/chaos_trace.jsonl`), each scenario's wall clock lands
//! on `ibcm_stage_seconds{stage=<scenario>}`, and the final state of the
//! global metrics registry — including the stream fault and alarm counters
//! accumulated across all scenarios — is written as a Prometheus text
//! snapshot to `results/chaos_metrics.prom`.

use std::sync::Arc;

use ibcm_bench::Harness;
use ibcm_core::chaos::{
    event_stream, inject_duplicates, inject_out_of_order, inject_unknown_actions,
    inject_unknown_users, replay, replay_with_kill, ReplayReport,
};
use ibcm_core::{AlarmPolicy, FaultAction, FaultPolicy, StreamConfig};

fn config(faults: FaultPolicy) -> StreamConfig {
    StreamConfig {
        session_timeout_minutes: 30,
        policy: AlarmPolicy {
            likelihood_threshold: 0.05,
            window: 5,
            warmup: 5,
            trend_window: 5,
            ..AlarmPolicy::default()
        },
        faults,
        ..StreamConfig::default()
    }
}

/// Runs one scenario under a trace span, recording its wall clock on
/// `ibcm_stage_seconds{stage=<scenario>}`.
fn timed<T>(scenario: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = ibcm_obs::span(scenario);
    let t0 = std::time::Instant::now();
    let result = f();
    ibcm_obs::names::STAGE_SECONDS
        .histogram_labeled(ibcm_obs::DEFAULT_SECONDS_BUCKETS, &[("stage", scenario)])
        .observe(t0.elapsed().as_secs_f64());
    result
}

fn row(scenario: &str, injected: usize, r: &ReplayReport) -> Vec<String> {
    let c = &r.counters;
    vec![
        scenario.to_string(),
        r.events.to_string(),
        injected.to_string(),
        r.alarms.len().to_string(),
        r.shed.len().to_string(),
        c.non_monotonic.to_string(),
        c.duplicate.to_string(),
        c.unknown_action.to_string(),
        c.unknown_user.to_string(),
        c.dropped.to_string(),
        c.shed.to_string(),
        r.active_at_end.to_string(),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trace_path = harness.results_dir().join("chaos_trace.jsonl");
    ibcm_obs::set_trace_sink(Some(Arc::new(ibcm_obs::JsonlSink::create(&trace_path)?)));
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let detector = trained.detector();
    let vocab = detector.vocab_size();
    let known_users = dataset.stats().users;
    let events = event_stream(&dataset);
    let n_inject = (events.len() / 50).max(10);
    eprintln!(
        "[ibcm] chaos: {} events, injecting ~{n_inject} faults per class",
        events.len()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();

    let baseline = timed("baseline", || {
        replay(detector, config(FaultPolicy::default()), &events)
    });
    rows.push(row("baseline", 0, &baseline));

    let mut ooo = events.clone();
    let injected = inject_out_of_order(&mut ooo, n_inject, harness.seed);
    rows.push(row(
        "out_of_order",
        injected,
        &timed("out_of_order", || {
            replay(detector, config(FaultPolicy::default()), &ooo)
        }),
    ));

    let mut dup = events.clone();
    let injected = inject_duplicates(&mut dup, n_inject, harness.seed);
    rows.push(row(
        "duplicates_dropped",
        injected,
        &timed("duplicates_dropped", || {
            replay(
                detector,
                config(FaultPolicy {
                    duplicates: FaultAction::Drop,
                    ..FaultPolicy::default()
                }),
                &dup,
            )
        }),
    ));

    let mut ua = events.clone();
    let injected = inject_unknown_actions(&mut ua, n_inject, vocab, harness.seed);
    rows.push(row(
        "unknown_actions_dropped",
        injected,
        &timed("unknown_actions_dropped", || {
            replay(
                detector,
                config(FaultPolicy {
                    unknown_actions: FaultAction::Drop,
                    ..FaultPolicy::default()
                }),
                &ua,
            )
        }),
    ));

    let mut uu = events.clone();
    let injected = inject_unknown_users(&mut uu, n_inject, known_users, harness.seed);
    rows.push(row(
        "unknown_users_dropped",
        injected,
        &timed("unknown_users_dropped", || {
            replay(
                detector,
                config(FaultPolicy {
                    known_users: Some(known_users),
                    unknown_users: FaultAction::Drop,
                    ..FaultPolicy::default()
                }),
                &uu,
            )
        }),
    ));

    rows.push(row(
        "session_cap_8",
        0,
        &timed("session_cap_8", || {
            replay(
                detector,
                config(FaultPolicy {
                    max_active_sessions: Some(8),
                    ..FaultPolicy::default()
                }),
                &events,
            )
        }),
    ));

    // Kill/restore: stack every fault class, kill halfway, resume from the
    // IBCS checkpoint, and require byte-identical downstream alarms.
    let mut all = events.clone();
    inject_out_of_order(&mut all, n_inject, harness.seed);
    inject_duplicates(&mut all, n_inject, harness.seed);
    inject_unknown_actions(&mut all, n_inject, vocab, harness.seed);
    inject_unknown_users(&mut all, n_inject, known_users, harness.seed);
    let kill_at = all.len() / 2;
    let kill = timed("kill_restore", || {
        replay_with_kill(
            detector,
            config(FaultPolicy {
                known_users: Some(known_users),
                max_active_sessions: Some(32),
                ..FaultPolicy::default()
            }),
            &all,
            kill_at,
        )
    })?;
    rows.push(row("kill_restore_resumed", kill_at, &kill.resumed));
    println!(
        "kill/restore at event {kill_at}: checkpoint {} bytes, alarms {} vs {}, byte-identical: {}",
        kill.checkpoint_bytes,
        kill.resumed.alarms.len(),
        kill.uninterrupted.alarms.len(),
        kill.identical
    );
    if !kill.identical {
        return Err("kill/restore run diverged from uninterrupted run".into());
    }

    println!(
        "{:<24} {:>8} {:>8} {:>7} {:>6} {:>8}",
        "scenario", "events", "injected", "alarms", "shed", "dropped"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8} {:>8} {:>7} {:>6} {:>8}",
            r[0], r[1], r[2], r[3], r[4], r[9]
        );
    }

    harness.write_csv(
        "chaos_replay",
        "scenario,events,injected,alarms,shed_alarms,non_monotonic,duplicate,unknown_action,unknown_user,dropped,shed,active_at_end",
        rows,
    )?;

    // Snapshot the global registry — the process-cumulative stream fault,
    // alarm and stage metrics across every scenario above — in Prometheus
    // text format, and flush the span trace.
    let prom_path = harness.results_dir().join("chaos_metrics.prom");
    std::fs::write(&prom_path, ibcm_obs::global().render_prometheus())?;
    ibcm_obs::set_trace_sink(None);
    eprintln!(
        "[ibcm] wrote {} and {}",
        prom_path.display(),
        trace_path.display()
    );
    Ok(())
}
