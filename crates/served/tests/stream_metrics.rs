//! Under the daemon, every `ibcm_stream_*` counter counts what a
//! monolithic `StreamMonitor` counts over the same stream, clock faults
//! and clock drops included, and the two stream gauges end at the
//! monolith's values: the daemon's session count and stream clock, not one
//! shard's. The metrics live in the process-wide registry, so this binary
//! holds exactly one test: nothing else in the process moves them between
//! the readings.

mod common;

use std::sync::Arc;

use common::{faulty_events, fixture, monolith_reference, stream_config};
use ibcm_core::{ClockPolicy, FaultPolicy, SessionEvent, StreamConfig};
use ibcm_obs::names as n;
use ibcm_served::{CheckpointStore, Daemon, ServedConfig};

fn read_counters() -> Vec<(&'static str, u64)> {
    let fault = |kind| n::STREAM_FAULTS.counter_labeled(&[("kind", kind)]).get();
    vec![
        ("events", n::STREAM_EVENTS.counter().get()),
        ("non_monotonic", fault("non_monotonic")),
        ("duplicate", fault("duplicate")),
        ("unknown_action", fault("unknown_action")),
        ("unknown_user", fault("unknown_user")),
        ("dropped", n::STREAM_DROPPED.counter().get()),
        ("shed", n::STREAM_SHED.counter().get()),
        (
            "sessions_started",
            n::STREAM_SESSIONS_STARTED.counter().get(),
        ),
        ("sessions_ended", n::STREAM_SESSIONS_ENDED.counter().get()),
    ]
}

/// What a run left in the registry: how much each counter moved, by name,
/// and the `(active sessions, clock minute)` gauges at its end.
#[derive(Debug, PartialEq)]
struct Reading {
    counters: Vec<(&'static str, u64)>,
    gauges: (i64, i64),
}

/// Reads the registry around `run`. The gauges are set to `-1` first, so a
/// run that never sets them reads `(-1, -1)`.
fn reading(run: impl FnOnce()) -> Reading {
    let (active, clock) = (
        n::STREAM_ACTIVE_SESSIONS.gauge(),
        n::STREAM_CLOCK_MINUTE.gauge(),
    );
    active.set(-1);
    clock.set(-1);
    let before = read_counters();
    run();
    let counters = read_counters()
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, before))| (name, after - before))
        .collect();
    Reading {
        counters,
        gauges: (active.get(), clock.get()),
    }
}

/// The monolith's reading, checked against its own session count and the
/// latest minute it kept.
fn monolith_reading(config: &StreamConfig, events: &[SessionEvent]) -> Reading {
    let mut active = 0;
    let reading = reading(|| {
        active = monolith_reference(&fixture().detector, config.clone(), events).active_sessions;
    });
    assert_eq!(reading.gauges.0, active as i64);
    assert!(reading.gauges.1 > 0);
    reading
}

fn daemon_reading(config: &StreamConfig, events: &[SessionEvent]) -> Reading {
    reading(|| {
        let cfg = ServedConfig::new(config.clone()).with_shards(4);
        let mut daemon = Daemon::new(
            Arc::clone(&fixture().detector),
            cfg,
            CheckpointStore::memory(),
        )
        .unwrap();
        for event in events {
            daemon.ingest(*event).unwrap();
        }
        daemon.drain().unwrap();
    })
}

#[test]
fn daemon_stream_counters_match_the_monolith() {
    let users = fixture().dataset.n_users();
    let events = faulty_events();
    for non_monotonic in [ClockPolicy::Clamp, ClockPolicy::Drop] {
        let config = stream_config(FaultPolicy {
            non_monotonic,
            known_users: Some(users),
            max_active_sessions: Some(6),
            ..FaultPolicy::default()
        });
        let monolith = monolith_reading(&config, &events);
        let daemon = daemon_reading(&config, &events);
        assert_eq!(daemon, monolith, "{non_monotonic:?}");
        // Every class of the comparison must actually have moved.
        for (name, delta) in &monolith.counters {
            let expect_moved = *name != "dropped" || non_monotonic == ClockPolicy::Drop;
            assert_eq!(*delta > 0, expect_moved, "{name} under {non_monotonic:?}");
        }
    }
    // With no session cap every open session counts, spread over the
    // daemon's four shards.
    let config = stream_config(FaultPolicy::default());
    let events = &events[..events.len() / 2];
    assert_eq!(
        daemon_reading(&config, events).gauges,
        monolith_reading(&config, events).gauges
    );
}
