//! The headline invariant, crash-free half: the daemon's merged alarm
//! stream is byte-identical at every shard count, and identical to a
//! monolithic `StreamMonitor` over the same events — including under
//! capacity shedding, fault injection, backwards clocks under either
//! clock policy, session-ending actions, and backpressure retries.

mod common;

use std::sync::Arc;

use common::{faulty_events, fixture, monolith_reference, stream_config};
use ibcm_core::chaos::{
    inject_duplicates, inject_out_of_order, inject_unknown_actions, inject_unknown_users,
};
use ibcm_core::{ClockPolicy, FaultAction, FaultPolicy, SessionEvent, StreamConfig};
use ibcm_served::{CheckpointStore, Daemon, ServeError, ServedConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Drives a daemon over `events` (blocking ingest, periodic polls, final
/// drain) and returns the canonical merged log plus the drain report.
fn daemon_log(
    shards: usize,
    config: StreamConfig,
    events: &[SessionEvent],
) -> (Vec<String>, ibcm_served::DrainReport) {
    let fix = fixture();
    let cfg = ServedConfig::new(config)
        .with_shards(shards)
        .with_rotation(32, 3);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
    let mut log = Vec::new();
    for (i, event) in events.iter().enumerate() {
        daemon.ingest(*event).unwrap();
        // An odd poll cadence, deliberately unaligned with checkpoints.
        if i % 13 == 5 {
            for m in daemon.poll_alarms() {
                log.push(format!("{:06} {:?}", m.seq, m.alarm));
            }
        }
    }
    let report = daemon.drain().unwrap();
    for m in &report.alarms {
        log.push(format!("{:06} {:?}", m.seq, m.alarm));
    }
    (log, report)
}

fn assert_invariant(config: StreamConfig, events: &[SessionEvent]) {
    let fix = fixture();
    let reference = monolith_reference(&fix.detector, config.clone(), events);
    assert!(
        !reference.log.is_empty(),
        "reference stream must be non-trivial for the comparison to mean anything"
    );
    for shards in SHARD_COUNTS {
        let (log, report) = daemon_log(shards, config.clone(), events);
        assert_eq!(
            log, reference.log,
            "merged stream diverged from monolith at {shards} shard(s)"
        );
        assert_eq!(
            report.counters, reference.counters,
            "fault counters diverged at {shards} shard(s)"
        );
        assert_eq!(report.sessions_started, reference.sessions_started);
        assert_eq!(report.sessions_ended, reference.sessions_ended);
        assert_eq!(report.active_sessions, reference.active_sessions);
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(report.restarts, 0, "no crashes were injected");
        assert!(report.failed_shards.is_empty());
    }
}

#[test]
fn merged_stream_matches_monolith_at_all_shard_counts() {
    let fix = fixture();
    assert_invariant(stream_config(FaultPolicy::default()), &fix.events);
}

#[test]
fn capacity_shedding_is_partition_invariant() {
    let fix = fixture();
    let config = stream_config(FaultPolicy {
        max_active_sessions: Some(6),
        ..FaultPolicy::default()
    });
    assert_invariant(config, &fix.events);
}

#[test]
fn session_ending_actions_are_partition_invariant() {
    let fix = fixture();
    let mut config = stream_config(FaultPolicy {
        max_active_sessions: Some(5),
        ..FaultPolicy::default()
    });
    // Use an action that actually occurs mid-stream as the logout marker.
    config.end_actions = vec![fix.events[5].action];
    assert_invariant(config, &fix.events);
}

#[test]
fn fault_injection_is_partition_invariant() {
    let fix = fixture();
    let vocab = fix.detector.vocab_size();
    let users = fix.dataset.n_users();
    let mut events = fix.events.clone();
    inject_duplicates(&mut events, 25, 2);
    inject_unknown_actions(&mut events, 15, vocab, 3);
    inject_unknown_users(&mut events, 15, users, 4);

    // Dropping policy: malformed events are classified and discarded.
    let dropping = stream_config(FaultPolicy {
        duplicates: FaultAction::Drop,
        unknown_actions: FaultAction::Drop,
        unknown_users: FaultAction::Drop,
        known_users: Some(users),
        max_active_sessions: Some(8),
        ..FaultPolicy::default()
    });
    assert_invariant(dropping, &events);

    // Permissive policy: duplicates and unknown users are counted but
    // processed; unknown actions are dropped here (processing them is
    // covered by `clock_and_fault_policies_are_partition_invariant`).
    let permissive = stream_config(FaultPolicy {
        unknown_actions: FaultAction::Drop,
        known_users: Some(users),
        ..FaultPolicy::default()
    });
    assert_invariant(permissive, &events);
}

#[test]
fn clock_and_fault_policies_are_partition_invariant() {
    let users = fixture().dataset.n_users();
    let events = faulty_events();

    // Every fault counted and processed; backwards clocks clamped.
    let processing = stream_config(FaultPolicy {
        known_users: Some(users),
        ..FaultPolicy::default()
    });
    assert_invariant(processing, &events);

    // Backwards clocks and every other fault dropped, under a cap.
    let dropping = stream_config(FaultPolicy {
        non_monotonic: ClockPolicy::Drop,
        known_users: Some(users),
        max_active_sessions: Some(6),
        ..FaultPolicy::strict()
    });
    assert_invariant(dropping, &events);
}

/// Drives a one-shard daemon with the smallest queue over `events`,
/// retrying every event `try_ingest` rejects with `Backpressure` until it
/// is accepted, and returns the canonical merged log plus the drain
/// report.
fn retry_until_accepted(
    config: StreamConfig,
    events: &[SessionEvent],
) -> (Vec<String>, ibcm_served::DrainReport) {
    let fix = fixture();
    let cfg = ServedConfig::new(config)
        .with_shards(1)
        .with_queue_capacity(1)
        .with_rotation(32, 3);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
    let mut log = Vec::new();
    for event in events {
        loop {
            match daemon.try_ingest(*event) {
                Ok(()) => break,
                Err(ServeError::Backpressure { .. }) => {
                    for m in daemon.poll_alarms() {
                        log.push(format!("{:06} {:?}", m.seq, m.alarm));
                    }
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
    }
    let report = daemon.drain().unwrap();
    for m in &report.alarms {
        log.push(format!("{:06} {:?}", m.seq, m.alarm));
    }
    (log, report)
}

#[test]
fn rejected_backwards_events_are_counted_once() {
    let fix = fixture();
    let mut events = fix.events.clone();
    inject_out_of_order(&mut events, 200, 9);
    let config = stream_config(FaultPolicy {
        max_active_sessions: Some(6),
        ..FaultPolicy::default()
    });
    let reference = monolith_reference(&fix.detector, config.clone(), &events);
    assert!(reference.counters.non_monotonic > 0);

    // A rejected event must leave the directory untouched: neither its
    // clock fault nor a clock it would advance may count before the retry
    // that is accepted.
    let (log, report) = retry_until_accepted(config, &events);
    assert_eq!(log, reference.log);
    assert_eq!(report.counters, reference.counters);
}

#[test]
fn backpressure_retries_do_not_perturb_the_stream() {
    let fix = fixture();
    let config = stream_config(FaultPolicy {
        max_active_sessions: Some(6),
        ..FaultPolicy::default()
    });
    let reference = monolith_reference(&fix.detector, config.clone(), &fix.events);

    // A single shard with a single-slot queue: try_ingest will hit
    // Backpressure whenever the worker is mid-event. Every rejection must
    // leave the admission mirror untouched, so retry-until-accepted
    // reproduces the reference stream exactly.
    let cfg = ServedConfig::new(config)
        .with_shards(1)
        .with_queue_capacity(1)
        .with_rotation(32, 3);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
    let mut log = Vec::new();
    let mut backpressured = 0u64;
    for event in &fix.events {
        loop {
            match daemon.try_ingest(*event) {
                Ok(()) => break,
                Err(ServeError::Backpressure { .. }) => {
                    backpressured += 1;
                    for m in daemon.poll_alarms() {
                        log.push(format!("{:06} {:?}", m.seq, m.alarm));
                    }
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
    }
    let report = daemon.drain().unwrap();
    for m in &report.alarms {
        log.push(format!("{:06} {:?}", m.seq, m.alarm));
    }
    assert_eq!(log, reference.log);
    assert_eq!(report.counters, reference.counters);
    // `backpressured` is timing-dependent (the worker may simply keep
    // up); the invariant under test is stream identity, not the count.
    let _ = backpressured;
}

#[test]
fn drained_daemon_rejects_further_work() {
    let fix = fixture();
    let cfg = ServedConfig::new(stream_config(FaultPolicy::default())).with_shards(2);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
    daemon.ingest(fix.events[0]).unwrap();
    daemon.drain().unwrap();
    assert!(matches!(
        daemon.ingest(fix.events[1]),
        Err(ServeError::Drained)
    ));
    assert!(matches!(daemon.drain(), Err(ServeError::Drained)));
}

#[test]
fn unknown_shard_is_rejected() {
    let fix = fixture();
    let cfg = ServedConfig::new(stream_config(FaultPolicy::default())).with_shards(2);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
    assert!(matches!(
        daemon.kill_shard(7),
        Err(ServeError::UnknownShard { shard: 7 })
    ));
    daemon.drain().unwrap();
}
