//! The correctness reference: a single-threaded `StreamMonitor` replay of
//! a stream's leading events, and the comparison of served alarms with it.

use ibcm_core::{MisuseDetector, SessionEvent, StreamAlarm, StreamAlarmKind, StreamConfig};
use ibcm_obs::Stopwatch;

use crate::BenchError;

/// An alarm reduced to the fields the gate compares; the likelihood is
/// compared by its bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlarmKey {
    /// User index.
    pub user: usize,
    /// 1-based position in the session.
    pub position: usize,
    /// Event minute.
    pub minute: u64,
    /// Bits of the windowed likelihood.
    pub likelihood: Option<u32>,
    /// Whether the trend criterion fired.
    pub trend: bool,
    /// Whether this is a scoring alarm (rather than a shed).
    pub score: bool,
}

impl AlarmKey {
    /// The key of a stream alarm.
    pub fn of(a: &StreamAlarm) -> AlarmKey {
        AlarmKey {
            user: a.user.index(),
            position: a.position,
            minute: a.minute,
            likelihood: a.windowed_likelihood.map(f32::to_bits),
            trend: a.trend,
            score: a.kind == StreamAlarmKind::Score,
        }
    }
}

/// The leading events a stream is verified on: every event whose minute
/// is before the minute of event `target` (or of the last event). Returns
/// the prefix length and the cutoff minute.
pub fn verify_prefix(events: &[SessionEvent], target: usize) -> (usize, u64) {
    let target = target.min(events.len().saturating_sub(1));
    let cutoff = events.get(target).map_or(0, |e| e.minute);
    (events.partition_point(|e| e.minute < cutoff), cutoff)
}

/// What the replay saw and measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Alarms in event order.
    pub alarms: Vec<AlarmKey>,
    /// Seconds of each `StreamMonitor::ingest` call.
    pub event_s: Vec<f64>,
    /// Mean live sessions after each event.
    pub live_mean: f64,
    /// LSTM steps scored during the replay (`LM_ACTIONS_SCORED` delta).
    pub lm_steps: u64,
    /// `StreamMonitor::checkpoint` at the end of the replay.
    pub checkpoint_bytes: usize,
    /// Seconds to take the checkpoint.
    pub checkpoint_s: f64,
    /// Seconds of `MisuseDetector::restore_stream_monitor` on it.
    pub restore_s: f64,
}

/// Replays `events` through a fresh `StreamMonitor` with
/// `StreamConfig::default()`, then checkpoints and restores it. A restore
/// that does not reproduce the checkpoint is a mismatch.
pub fn replay(detector: &MisuseDetector, events: &[SessionEvent]) -> Result<Replay, BenchError> {
    let steps = ibcm_obs::names::LM_ACTIONS_SCORED.counter();
    let steps_before = steps.get();
    let mut monitor = detector.stream_monitor(StreamConfig::default());
    let mut alarms = Vec::new();
    let mut event_s = Vec::with_capacity(events.len());
    let mut live = 0.0;
    for event in events {
        let clock = Stopwatch::start();
        let outcome = monitor.ingest(*event);
        event_s.push(clock.elapsed_seconds());
        alarms.extend(outcome.shed.iter().map(AlarmKey::of));
        alarms.extend(outcome.alarm.as_ref().map(AlarmKey::of));
        live += monitor.active_sessions() as f64;
    }
    let lm_steps = steps.get() - steps_before;
    let clock = Stopwatch::start();
    let checkpoint = monitor.checkpoint();
    let checkpoint_s = clock.elapsed_seconds();
    let clock = Stopwatch::start();
    let restored = detector.restore_stream_monitor(&checkpoint)?;
    let restore_s = clock.elapsed_seconds();
    if restored.checkpoint() != checkpoint {
        return Err(BenchError::Mismatch(
            "restored monitor does not reproduce its checkpoint".into(),
        ));
    }
    Ok(Replay {
        alarms,
        event_s,
        live_mean: live / events.len().max(1) as f64,
        lm_steps,
        checkpoint_bytes: checkpoint.len(),
        checkpoint_s,
        restore_s,
    })
}

/// The correctness gate on a stream: the served alarms whose minute is
/// before `cutoff` must equal the reference replay's, in order.
pub fn check_alarms(
    what: &str,
    served: impl IntoIterator<Item = AlarmKey>,
    cutoff: u64,
    reference: &[AlarmKey],
) -> Result<(), BenchError> {
    let served: Vec<AlarmKey> = served.into_iter().filter(|a| a.minute < cutoff).collect();
    if served.len() != reference.len() {
        return Err(BenchError::Mismatch(format!(
            "{what}: {} alarms before minute {cutoff}, the reference replay raised {}",
            served.len(),
            reference.len()
        )));
    }
    match served.iter().zip(reference).position(|(a, b)| a != b) {
        Some(i) => Err(BenchError::Mismatch(format!(
            "{what}: alarm {i} differs: served {:?}, reference {:?}",
            served[i], reference[i]
        ))),
        None => Ok(()),
    }
}
