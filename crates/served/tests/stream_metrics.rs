//! Under the daemon, every `ibcm_stream_*` counter counts what a
//! monolithic `StreamMonitor` counts over the same stream, clock faults
//! and clock drops included. The counters live in the process-wide
//! registry, so this binary holds exactly one test: nothing else in the
//! process moves them between the readings.

mod common;

use std::sync::Arc;

use common::{faulty_events, fixture, monolith_reference, stream_config};
use ibcm_core::{ClockPolicy, FaultPolicy};
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
        ("sessions_started", n::STREAM_SESSIONS_STARTED.counter().get()),
        ("sessions_ended", n::STREAM_SESSIONS_ENDED.counter().get()),
    ]
}

/// How much each counter moved while `run` ran, by name.
fn deltas(run: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = read_counters();
    run();
    read_counters()
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, before))| (name, after - before))
        .collect()
}

#[test]
fn daemon_stream_counters_match_the_monolith() {
    let fix = fixture();
    let users = fix.dataset.n_users();
    let events = faulty_events();
    for non_monotonic in [ClockPolicy::Clamp, ClockPolicy::Drop] {
        let config = stream_config(FaultPolicy {
            non_monotonic,
            known_users: Some(users),
            max_active_sessions: Some(6),
            ..FaultPolicy::default()
        });
        let monolith = deltas(|| {
            monolith_reference(&fix.detector, config.clone(), &events);
        });
        let daemon = deltas(|| {
            let cfg = ServedConfig::new(config.clone()).with_shards(4);
            let mut daemon =
                Daemon::new(Arc::clone(&fix.detector), cfg, CheckpointStore::memory()).unwrap();
            for event in &events {
                daemon.ingest(*event).unwrap();
            }
            daemon.drain().unwrap();
        });
        assert_eq!(daemon, monolith, "{non_monotonic:?}");
        // Every class of the comparison must actually have moved.
        for (name, delta) in &monolith {
            let expect_moved = *name != "dropped" || non_monotonic == ClockPolicy::Drop;
            assert_eq!(*delta > 0, expect_moved, "{name} under {non_monotonic:?}");
        }
    }
}
