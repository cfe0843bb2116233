//! The benchmark's building blocks: percentile rule, spread statistics,
//! open-loop schedule, traffic shaping, the alarm join and `compare`.

use std::cell::Cell;

use ibcm_benchmark::loadgen::{Clock, OpenLoop};
use ibcm_benchmark::report::{verdict, Verdict};
use ibcm_benchmark::stats::{percentile, quartiles, tail_percentile};
use ibcm_benchmark::traffic::{
    event_index, interleave, join_alarm_latencies, natural_stream, ndjson, positions,
    repeat_stream, sessions_of, SESSION_TIMEOUT_MINUTES,
};
use ibcm_core::SessionEvent;
use ibcm_http::service::parse_events;
use ibcm_logsim::{ActionId, GeneratorConfig, UserId};

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 50.0), Some(2.5));
    assert_eq!(percentile(&v, 100.0), Some(4.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python's statistics.quantiles(values, n=4).
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0], [0.0, 3.0, 6.0]),
        (&[2.5, 9.0, 4.0, 7.5, 1.0, 3.0, 8.0], [2.5, 4.0, 8.0]),
    ];
    for (values, expected) in cases {
        assert_eq!(quartiles(values), Some(expected), "{values:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

/// A clock that advances only when told to.
struct SimClock(Cell<f64>);

impl Clock for SimClock {
    fn now(&self) -> f64 {
        self.0.get()
    }
    fn sleep_until(&self, t: f64) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }
}

const SCHEDULE: OpenLoop = OpenLoop {
    rate_per_s: 1000.0,
    tick_s: 0.005,
    max_batch: 256,
    retry_s: 0.001,
    admit_timeout_s: 5.0,
};

#[test]
fn a_stalled_send_inflates_the_latency_of_later_events() {
    let clock = SimClock(Cell::new(0.0));
    let mut calls = 0;
    // The second request (events 1..6, sent at 5 ms) stalls for 50 ms.
    let r = SCHEDULE.run(&clock, 200, |range| {
        calls += 1;
        let cost = if calls == 2 { 0.050 } else { 0.0005 };
        clock.0.set(clock.0.get() + cost);
        Ok(range.len())
    });
    assert_eq!(r.failed_events, 0);
    assert!(r.ack.iter().all(|a| a.is_finite()));
    // Events in the stalled request wait for it.
    assert!(r.ack[1] >= 0.050, "ack[1] = {}", r.ack[1]);
    // Events due during the stall were not sent until it ended: their
    // latency counts from when they were due, not from when they went out.
    for i in 6..40 {
        let stalled_until = 0.005 + 0.050;
        assert!(
            r.late[i] >= stalled_until - SCHEDULE.due(i) - 1e-9,
            "late[{i}] = {}",
            r.late[i]
        );
        assert!(
            r.ack[i] >= stalled_until - SCHEDULE.due(i),
            "ack[{i}] = {}",
            r.ack[i]
        );
    }
    assert!(r.ack[10] > 0.04);
    // Long after the stall the generator is back on schedule.
    assert!(
        r.ack[150] < SCHEDULE.tick_s + 0.001,
        "ack[150] = {}",
        r.ack[150]
    );

    let clock = SimClock(Cell::new(0.0));
    let smooth = SCHEDULE.run(&clock, 200, |range| {
        clock.0.set(clock.0.get() + 0.0005);
        Ok(range.len())
    });
    let worst = smooth.ack.iter().copied().fold(0.0, f64::max);
    assert!(worst < SCHEDULE.tick_s + 0.001, "worst {worst}");
}

#[test]
fn backpressured_suffixes_are_resubmitted_or_fail_after_the_timeout() {
    let clock = SimClock(Cell::new(0.0));
    let mut rejected = 0;
    let r = SCHEDULE.run(&clock, 50, |range| {
        clock.0.set(clock.0.get() + 0.0005);
        // The first three requests admit only half of what they carry.
        if rejected < 3 && range.len() > 1 {
            rejected += 1;
            return Ok(range.len() / 2);
        }
        Ok(range.len())
    });
    assert_eq!(r.failed_events, 0);
    assert_eq!(r.backpressured, 3);
    assert!(r.ack.iter().all(|a| a.is_finite()));

    let clock = SimClock(Cell::new(0.0));
    // Nothing from event 10 on is ever admitted.
    let stuck = SCHEDULE.run(&clock, 20, |range| {
        clock.0.set(clock.0.get() + 0.01);
        Ok(range.end.min(10).saturating_sub(range.start))
    });
    assert_eq!(stuck.failed_events, 10);
    assert!(stuck.ack[..10].iter().all(|a| a.is_finite()));
    assert!(stuck.ack[10..].iter().all(|a| a.is_nan()));
}

fn pool(n: usize) -> Vec<Vec<ActionId>> {
    (0..n)
        .map(|i| (0..1 + i % 7).map(|k| ActionId(i * 10 + k)).collect())
        .collect()
}

#[test]
fn interleave_keeps_order_one_user_per_session_and_bounded_liveness() {
    let sessions = pool(60);
    let slots = 4;
    let events: Vec<SessionEvent> = interleave(sessions.clone(), slots).collect();
    assert_eq!(events.len(), sessions.iter().map(Vec::len).sum::<usize>());
    assert!(events.windows(2).all(|w| w[0].minute <= w[1].minute));
    // Each user emits at most one event per minute, and there are at most
    // `slots` users, so at most `slots` sessions are ever live.
    let mut users: Vec<usize> = events.iter().map(|e| e.user.index()).collect();
    users.sort_unstable();
    users.dedup();
    assert!(users.len() <= slots);
    for w in events.windows(2) {
        assert!(w[0].minute != w[1].minute || w[0].user != w[1].user);
    }
    // Sessionized as the monitor would, the stream gives back the pool's
    // sessions, in order, actions in order.
    assert_eq!(sessions_of(&events), sessions);
    // A user's consecutive sessions are separated by more than the timeout.
    for (e, p) in events.iter().zip(positions(&events)) {
        if p == 1 {
            let previous = events
                .iter()
                .filter(|x| x.user == e.user && x.minute < e.minute)
                .map(|x| x.minute)
                .max();
            if let Some(m) = previous {
                assert!(e.minute - m > SESSION_TIMEOUT_MINUTES);
            }
        }
    }
    assert_eq!(interleave(sessions, slots).take(17).count(), 17);
    assert_eq!(interleave(pool(3), 0).count(), 0);
}

#[test]
fn repeated_streams_start_fresh_sessions() {
    let events: Vec<SessionEvent> = interleave(pool(10), 3).collect();
    let repeated = repeat_stream(&events, 2 * events.len());
    assert_eq!(repeated.len(), 2 * events.len());
    assert!(repeated.windows(2).all(|w| w[0].minute <= w[1].minute));
    let once = sessions_of(&events);
    let twice = sessions_of(&repeated);
    assert_eq!(twice.len(), 2 * once.len());
    assert_eq!(twice[once.len()..], once[..]);
}

#[test]
fn ndjson_bodies_round_trip_through_the_server_parser() {
    let (events, _) = natural_stream(GeneratorConfig::tiny, 3, 600);
    let batch = &events[..300];
    assert_eq!(parse_events(&ndjson(batch), 4096).unwrap(), batch);
}

fn ev(user: usize, action: usize, minute: u64) -> SessionEvent {
    SessionEvent {
        user: UserId(user),
        action: ActionId(action),
        minute,
    }
}

#[test]
fn alarms_join_the_first_event_with_their_user_and_minute() {
    let events = [ev(1, 0, 10), ev(2, 0, 10), ev(1, 5, 11), ev(1, 7, 10)];
    let due = [0.0, 1.0, 2.0, 3.0];
    let alarms = [(1, 10, 5.0), (2, 10, 4.0), (1, 11, 2.5), (9, 9, 1.0)];
    let (joined, unmatched) = join_alarm_latencies(&alarms, &event_index(&events), &due);
    assert_eq!(joined, vec![(0, 5.0), (1, 3.0), (2, 0.5)]);
    assert_eq!(unmatched, 1);
}

#[test]
fn compare_verdicts_follow_the_bound_and_the_pair_rule() {
    let parent = [100.0, 101.0, 99.0, 100.0, 102.0];
    let better = [120.0, 119.0, 121.0, 118.0, 122.0];
    let worse = [80.0, 81.0, 79.0, 80.0, 82.0];
    let same = [101.0, 99.0, 100.0, 102.0, 100.0];
    assert_eq!(verdict(&parent, &better, false, 0.1), Verdict::Better);
    assert_eq!(verdict(&parent, &worse, false, 0.1), Verdict::Worse);
    assert_eq!(verdict(&parent, &same, false, 0.1), Verdict::WithinBound);
    // Lower-is-better flips the reading.
    assert_eq!(verdict(&parent, &worse, true, 0.1), Verdict::Better);
    assert_eq!(verdict(&parent, &better, true, 0.1), Verdict::Worse);
    // Spread wider than the bound, with overlapping runs: unresolved.
    let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
    assert_eq!(verdict(&noisy, &same, false, 0.1), Verdict::Unresolved);
    // ...unless every changed run beats every parent run.
    assert_eq!(
        verdict(&noisy, &[200.0, 210.0, 205.0], false, 0.1),
        Verdict::Better
    );
}
