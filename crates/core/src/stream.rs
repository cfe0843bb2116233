//! Multi-session stream monitoring.
//!
//! The paper's online regime (§IV-C) scores *one* session action-by-action;
//! a deployment watches an interleaved stream of events from many users at
//! once. [`StreamMonitor`] performs the sessionization (a session ends on an
//! explicit logout-style action or after an inactivity timeout) and runs one
//! [`OnlineMonitor`] per active session, surfacing alarms with user
//! attribution.
//!
//! # Fault tolerance
//!
//! Production streams are not well-behaved: events arrive with clocks that
//! run backwards, duplicated by at-least-once transports, and carrying
//! action or user ids the detector has never seen. The [`FaultPolicy`] on
//! [`StreamConfig`] classifies each event against these fault classes and
//! either processes or drops it, counting every classification in
//! [`FaultCounters`] so nothing is silently misbehaving. Bounded-memory
//! operation is available via [`FaultPolicy::max_active_sessions`]: when the
//! cap is hit, the oldest session is shed with an explicit
//! [`StreamAlarmKind::Shed`] alarm.
//!
//! Live state can be checkpointed to the versioned `IBCS` binary format and
//! restored after a crash with byte-identical downstream alarms; see
//! [`StreamMonitor::checkpoint`] in `persist.rs` and DESIGN.md, "Failure
//! model & recovery".

#![expect(clippy::disallowed_types, reason = "the active-session map is iterated only in shed_oldest, which takes a (last_minute, user index) minimum with a total-order tie-break; checkpoints sort by user index before serializing")]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::collections::HashMap;

use ibcm_logsim::{ActionId, ClusterId, UserId};
use serde::{Deserialize, Serialize};

use crate::detector::MisuseDetector;
use crate::monitor::{AlarmPolicy, OnlineMonitor};

/// Cached handles for the per-event stream metrics (the registry-side
/// mirror of [`FaultCounters`], which stays a plain struct because it is
/// persisted inside `IBCS` checkpoints). Registry counters are cumulative
/// over the *process*, not the monitor: restoring a checkpoint restores
/// [`FaultCounters`] but leaves the registry counting from where the
/// process started.
struct StreamMetrics {
    events: ibcm_obs::Counter,
    fault_non_monotonic: ibcm_obs::Counter,
    fault_duplicate: ibcm_obs::Counter,
    fault_unknown_action: ibcm_obs::Counter,
    fault_unknown_user: ibcm_obs::Counter,
    dropped: ibcm_obs::Counter,
    shed: ibcm_obs::Counter,
    sessions_started: ibcm_obs::Counter,
    sessions_ended: ibcm_obs::Counter,
    active_sessions: ibcm_obs::Gauge,
    clock_minute: ibcm_obs::Gauge,
}

fn stream_metrics() -> &'static StreamMetrics {
    static CELL: std::sync::OnceLock<StreamMetrics> = std::sync::OnceLock::new();
    use ibcm_obs::names as n;
    CELL.get_or_init(|| StreamMetrics {
        events: n::STREAM_EVENTS.counter(),
        fault_non_monotonic: n::STREAM_FAULTS.counter_labeled(&[("kind", "non_monotonic")]),
        fault_duplicate: n::STREAM_FAULTS.counter_labeled(&[("kind", "duplicate")]),
        fault_unknown_action: n::STREAM_FAULTS.counter_labeled(&[("kind", "unknown_action")]),
        fault_unknown_user: n::STREAM_FAULTS.counter_labeled(&[("kind", "unknown_user")]),
        dropped: n::STREAM_DROPPED.counter(),
        shed: n::STREAM_SHED.counter(),
        sessions_started: n::STREAM_SESSIONS_STARTED.counter(),
        sessions_ended: n::STREAM_SESSIONS_ENDED.counter(),
        active_sessions: n::STREAM_ACTIVE_SESSIONS.gauge(),
        clock_minute: n::STREAM_CLOCK_MINUTE.gauge(),
    })
}

/// Counts one alarm on `ibcm_stream_alarms_total{kind,cluster}`. Alarms are
/// rare relative to events, so the registry lookup per alarm is acceptable;
/// `cluster` is the routed cluster index, or `none` for a session shed
/// before any action was fed.
fn count_alarm(kind: &str, cluster: Option<ClusterId>) {
    let cluster = cluster.map_or_else(|| "none".to_string(), |c| c.index().to_string());
    ibcm_obs::names::STREAM_ALARMS
        .counter_labeled(&[("kind", kind), ("cluster", &cluster)])
        .inc();
}

/// One event of the live stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionEvent {
    /// Who performed the action.
    pub user: UserId,
    /// The action.
    pub action: ActionId,
    /// Event time, minutes since stream start (expected non-decreasing;
    /// violations are classified by [`FaultPolicy::non_monotonic`]).
    pub minute: u64,
}

/// How a classified fault event is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Count the fault but process the event anyway (models that cannot
    /// score the action simply skip it).
    Process,
    /// Count the fault and drop the event before it reaches any session.
    Drop,
}

/// How a non-monotonic event time is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockPolicy {
    /// Clamp the event's minute up to the stream clock (the maximum minute
    /// seen so far) and process it.
    Clamp,
    /// Drop the event.
    Drop,
}

/// The fault classes the stream monitor recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The event's minute is earlier than the stream clock.
    NonMonotonic,
    /// The event repeats its session's previous (action, minute) pair —
    /// the signature of an at-least-once transport redelivering.
    Duplicate,
    /// The action id is outside the detector's vocabulary.
    UnknownAction,
    /// The user id is outside the configured known-user range.
    UnknownUser,
}

/// Classification and handling of malformed stream events.
///
/// The default is maximally permissive — every fault is counted but
/// processed (non-monotonic clocks are clamped), memory is unbounded —
/// which is exactly the pre-fault-policy behavior of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// Handling of events whose minute precedes the stream clock.
    pub non_monotonic: ClockPolicy,
    /// Handling of events repeating their session's previous
    /// (action, minute) pair.
    pub duplicates: FaultAction,
    /// Handling of actions outside the detector's vocabulary.
    pub unknown_actions: FaultAction,
    /// Handling of users at or beyond [`FaultPolicy::known_users`].
    pub unknown_users: FaultAction,
    /// Number of known users; user indices `>=` this are classified
    /// [`FaultKind::UnknownUser`]. `None` disables the check.
    pub known_users: Option<usize>,
    /// Bound on concurrently monitored sessions. When a new session would
    /// exceed it, the session with the oldest last-event minute is shed
    /// with a [`StreamAlarmKind::Shed`] alarm. `None` is unbounded.
    pub max_active_sessions: Option<usize>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            non_monotonic: ClockPolicy::Clamp,
            duplicates: FaultAction::Process,
            unknown_actions: FaultAction::Process,
            unknown_users: FaultAction::Process,
            known_users: None,
            max_active_sessions: None,
        }
    }
}

impl FaultPolicy {
    /// A hardened profile: drop duplicates, unknown actions and unknown
    /// users (when `known_users` is set), clamp backwards clocks.
    pub fn strict() -> Self {
        FaultPolicy {
            non_monotonic: ClockPolicy::Clamp,
            duplicates: FaultAction::Drop,
            unknown_actions: FaultAction::Drop,
            unknown_users: FaultAction::Drop,
            known_users: None,
            max_active_sessions: None,
        }
    }
}

/// Per-fault-class counters surfaced by [`StreamMonitor::fault_counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Events whose minute preceded the stream clock.
    pub non_monotonic: u64,
    /// Events repeating their session's previous (action, minute) pair.
    pub duplicate: u64,
    /// Events whose action was outside the detector's vocabulary.
    pub unknown_action: u64,
    /// Events whose user was outside the known-user range.
    pub unknown_user: u64,
    /// Events dropped by the policy (a single event counts once here even
    /// if it matched several fault classes).
    pub dropped: u64,
    /// Sessions shed to enforce [`FaultPolicy::max_active_sessions`].
    pub shed: u64,
}

/// Stream sessionization and alarm settings.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// A gap of more than this many minutes ends the user's session.
    pub session_timeout_minutes: u64,
    /// Actions that explicitly end a session (e.g. `ActionLogout`).
    pub end_actions: Vec<ActionId>,
    /// Per-session alarm policy.
    pub policy: AlarmPolicy,
    /// Classification and handling of malformed events.
    pub faults: FaultPolicy,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            session_timeout_minutes: 30,
            end_actions: Vec::new(),
            policy: AlarmPolicy::default(),
            faults: FaultPolicy::default(),
        }
    }
}

/// Why a [`StreamAlarm`] was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamAlarmKind {
    /// The session's alarm policy tripped on a scored action.
    Score,
    /// The session was shed to enforce the active-session bound; its user
    /// stopped being monitored mid-session.
    Shed,
}

/// An alarm raised by the stream monitor, attributed to a user and session.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAlarm {
    /// The user whose session alarmed.
    pub user: UserId,
    /// 1-based position of the triggering action within the session (for
    /// [`StreamAlarmKind::Shed`]: the session length at shedding time).
    pub position: usize,
    /// Event time of the triggering action.
    pub minute: u64,
    /// Windowed mean likelihood at the moment of the alarm.
    pub windowed_likelihood: Option<f32>,
    /// Whether the §V trend criterion (rather than the absolute threshold)
    /// fired.
    pub trend: bool,
    /// Why the alarm was raised.
    pub kind: StreamAlarmKind,
}

/// Everything [`StreamMonitor::ingest`] reports about one event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObserveOutcome {
    /// The scoring alarm raised by the event's own session, if any.
    pub alarm: Option<StreamAlarm>,
    /// Sessions shed to make room for this event's session (each carries
    /// [`StreamAlarmKind::Shed`]).
    pub shed: Vec<StreamAlarm>,
    /// Every fault class the event matched.
    pub faults: Vec<FaultKind>,
    /// Whether the policy dropped the event before it reached a session.
    pub dropped: bool,
}

/// One monitored session: the online monitor plus the bookkeeping the
/// fault policy and checkpointing need.
#[derive(Debug)]
struct ActiveSession<'a> {
    monitor: OnlineMonitor<'a>,
    /// Minute of the session's last processed event (post-clamping).
    last_minute: u64,
    /// The session's last processed action (duplicate detection).
    last_action: Option<ActionId>,
}

/// Watches an interleaved multi-user event stream, maintaining one online
/// monitor per active session.
///
/// # Example
///
/// ```no_run
/// # use ibcm_core::{Pipeline, PipelineConfig, StreamConfig, SessionEvent};
/// # use ibcm_logsim::{ActionId, Generator, GeneratorConfig, UserId};
/// let dataset = Generator::new(GeneratorConfig::tiny(1)).generate();
/// let trained = Pipeline::new(PipelineConfig::test_profile(1)).train(&dataset)?;
/// let mut stream = trained.detector().stream_monitor(StreamConfig::default());
/// let alarm = stream.observe(SessionEvent {
///     user: UserId(3),
///     action: ActionId(0),
///     minute: 12,
/// });
/// assert!(alarm.is_none(), "first action of a fresh session cannot alarm");
/// # Ok::<(), ibcm_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct StreamMonitor<'a> {
    detector: &'a MisuseDetector,
    config: StreamConfig,
    active: HashMap<UserId, ActiveSession<'a>>,
    /// Maximum (post-clamping) minute processed so far.
    clock: u64,
    counters: FaultCounters,
    sessions_started: usize,
    sessions_ended: usize,
}

impl MisuseDetector {
    /// Starts monitoring a multi-user event stream.
    pub fn stream_monitor(&self, config: StreamConfig) -> StreamMonitor<'_> {
        StreamMonitor {
            detector: self,
            config,
            active: HashMap::new(),
            clock: 0,
            counters: FaultCounters::default(),
            sessions_started: 0,
            sessions_ended: 0,
        }
    }
}

impl StreamMonitor<'_> {
    /// Number of sessions currently being monitored.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Total sessions opened so far.
    pub fn sessions_started(&self) -> usize {
        self.sessions_started
    }

    /// Total sessions closed so far (logout, timeout, or shedding).
    pub fn sessions_ended(&self) -> usize {
        self.sessions_ended
    }

    /// Per-fault-class counters accumulated so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// The stream clock: the maximum event minute processed so far.
    pub fn clock_minute(&self) -> u64 {
        self.clock
    }

    /// The stream configuration in effect.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The detector this monitor scores against.
    pub(crate) fn detector(&self) -> &MisuseDetector {
        self.detector
    }

    /// Feeds one event; returns the scoring alarm if the affected session
    /// tripped its policy on this action. Shed alarms and fault
    /// classifications are available through [`StreamMonitor::ingest`].
    pub fn observe(&mut self, event: SessionEvent) -> Option<StreamAlarm> {
        self.ingest(event).alarm
    }

    /// Feeds one event and reports everything that happened: the scoring
    /// alarm, sessions shed for capacity, fault classifications, and
    /// whether the event was dropped.
    pub fn ingest(&mut self, event: SessionEvent) -> ObserveOutcome {
        let metrics = stream_metrics();
        metrics.events.inc();
        let mut out = ObserveOutcome::default();

        // Clock fault: classify before anything can act on the bad minute.
        let mut minute = event.minute;
        if minute < self.clock {
            out.faults.push(FaultKind::NonMonotonic);
            self.counters.non_monotonic += 1;
            metrics.fault_non_monotonic.inc();
            match self.config.faults.non_monotonic {
                ClockPolicy::Clamp => minute = self.clock,
                ClockPolicy::Drop => return self.drop_event(out),
            }
        } else {
            self.clock = minute;
            metrics.clock_minute.set(minute as i64);
        }

        // Unknown user.
        if let Some(known) = self.config.faults.known_users {
            if event.user.index() >= known {
                out.faults.push(FaultKind::UnknownUser);
                self.counters.unknown_user += 1;
                metrics.fault_unknown_user.inc();
                if self.config.faults.unknown_users == FaultAction::Drop {
                    return self.drop_event(out);
                }
            }
        }

        // Unknown action (outside the detector's model vocabulary).
        if event.action.index() >= self.detector.vocab_size() {
            out.faults.push(FaultKind::UnknownAction);
            self.counters.unknown_action += 1;
            metrics.fault_unknown_action.inc();
            if self.config.faults.unknown_actions == FaultAction::Drop {
                return self.drop_event(out);
            }
        }

        // Timeout and duplicate checks against the user's current session.
        if let Some(sess) = self.active.get(&event.user) {
            let timed_out = minute.saturating_sub(sess.last_minute)
                > self.config.session_timeout_minutes;
            if !timed_out
                && sess.last_action == Some(event.action)
                && sess.last_minute == minute
            {
                out.faults.push(FaultKind::Duplicate);
                self.counters.duplicate += 1;
                metrics.fault_duplicate.inc();
                if self.config.faults.duplicates == FaultAction::Drop {
                    return self.drop_event(out);
                }
            }
            if timed_out {
                self.active.remove(&event.user);
                self.end_sessions_metric(1);
            }
        }

        // Capacity: shed the oldest session(s) before opening a new one.
        if !self.active.contains_key(&event.user) {
            if let Some(cap) = self.config.faults.max_active_sessions {
                while self.active.len() >= cap.max(1) {
                    match self.shed_oldest() {
                        Some(alarm) => out.shed.push(alarm),
                        None => break,
                    }
                }
            }
        }

        let detector = self.detector;
        let policy = self.config.policy;
        let sess = self.active.entry(event.user).or_insert_with(|| {
            self.sessions_started += 1;
            metrics.sessions_started.inc();
            ActiveSession {
                monitor: detector.monitor(policy),
                last_minute: minute,
                last_action: None,
            }
        });
        sess.last_minute = minute;
        sess.last_action = Some(event.action);
        let outcome = sess.monitor.feed(event.action);
        if outcome.alarm {
            count_alarm("score", Some(outcome.cluster));
        }
        out.alarm = outcome.alarm.then_some(StreamAlarm {
            user: event.user,
            position: outcome.position,
            minute,
            windowed_likelihood: outcome.windowed_likelihood,
            trend: outcome.trend_alarm,
            kind: StreamAlarmKind::Score,
        });
        // Explicit session end.
        if self.config.end_actions.contains(&event.action) {
            self.active.remove(&event.user);
            self.end_sessions_metric(1);
        }
        metrics.active_sessions.set(self.active.len() as i64);
        out
    }

    fn drop_event(&mut self, mut out: ObserveOutcome) -> ObserveOutcome {
        self.counters.dropped += 1;
        stream_metrics().dropped.inc();
        out.dropped = true;
        out
    }

    /// Closes `n` sessions' worth of bookkeeping: the struct counter plus
    /// the registry counter stay in lockstep.
    fn end_sessions_metric(&mut self, n: usize) {
        self.sessions_ended += n;
        stream_metrics().sessions_ended.add(n as u64);
    }

    /// Removes the session with the oldest last-event minute (ties broken
    /// by lowest user index, so the choice is deterministic regardless of
    /// hash-map iteration order) and returns its shed alarm.
    fn shed_oldest(&mut self) -> Option<StreamAlarm> {
        let victim = self
            .active
            .iter()
            .min_by_key(|(user, sess)| (sess.last_minute, user.index()))
            .map(|(user, _)| *user)?;
        let sess = self.active.remove(&victim)?;
        self.end_sessions_metric(1);
        self.counters.shed += 1;
        stream_metrics().shed.inc();
        count_alarm("shed", sess.monitor.current_cluster());
        Some(StreamAlarm {
            user: victim,
            position: sess.monitor.position(),
            minute: sess.last_minute,
            windowed_likelihood: None,
            trend: false,
            kind: StreamAlarmKind::Shed,
        })
    }

    /// Sheds a *specific* user's session — the targeted counterpart of the
    /// oldest-victim eviction behind [`FaultPolicy::max_active_sessions`].
    ///
    /// The sharded daemon (`ibcm-served`) selects victims centrally so the
    /// eviction order is independent of how sessions are partitioned across
    /// shards, then tells the owning shard to shed by name through this
    /// method. The returned alarm is identical to what [`shed_oldest`]
    /// would have produced had this session been the global minimum.
    ///
    /// Returns `None` when the user has no active session.
    ///
    /// [`shed_oldest`]: StreamMonitor::ingest
    pub fn shed_session(&mut self, user: UserId) -> Option<StreamAlarm> {
        let sess = self.active.remove(&user)?;
        self.end_sessions_metric(1);
        self.counters.shed += 1;
        stream_metrics().shed.inc();
        stream_metrics().active_sessions.set(self.active.len() as i64);
        count_alarm("shed", sess.monitor.current_cluster());
        Some(StreamAlarm {
            user,
            position: sess.monitor.position(),
            minute: sess.last_minute,
            windowed_likelihood: None,
            trend: false,
            kind: StreamAlarmKind::Shed,
        })
    }

    /// Forces a user's session closed (e.g. on an out-of-band signal).
    /// Returns `true` if a session was active.
    pub fn end_session(&mut self, user: UserId) -> bool {
        let ended = self.active.remove(&user).is_some();
        if ended {
            self.end_sessions_metric(1);
            stream_metrics().active_sessions.set(self.active.len() as i64);
        }
        ended
    }

    /// Drops every session whose last event is older than the timeout
    /// relative to `now_minute`. Returns how many were closed.
    pub fn sweep(&mut self, now_minute: u64) -> usize {
        let timeout = self.config.session_timeout_minutes;
        let before = self.active.len();
        self.active
            .retain(|_, sess| now_minute.saturating_sub(sess.last_minute) <= timeout);
        let closed = before - self.active.len();
        self.end_sessions_metric(closed);
        stream_metrics().active_sessions.set(self.active.len() as i64);
        closed
    }
}

/// Serializable image of one active session (checkpointing).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionSnapshot {
    pub(crate) user: UserId,
    pub(crate) last_minute: u64,
    pub(crate) last_action: Option<ActionId>,
    /// Every action fed so far; restore rebuilds the monitor by replaying
    /// these through a fresh [`OnlineMonitor`], which is deterministic, so
    /// the restored recurrent state is bit-identical.
    pub(crate) prefix: Vec<ActionId>,
}

/// Serializable image of a [`StreamMonitor`] (checkpointing; the `IBCS`
/// byte codec lives in `persist.rs`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamSnapshot {
    pub(crate) config: StreamConfig,
    pub(crate) clock: u64,
    pub(crate) counters: FaultCounters,
    pub(crate) sessions_started: usize,
    pub(crate) sessions_ended: usize,
    pub(crate) sessions: Vec<SessionSnapshot>,
}

impl StreamMonitor<'_> {
    /// Captures the monitor's full live state. Sessions are ordered by
    /// user index so the snapshot (and therefore the checkpoint bytes) are
    /// deterministic regardless of hash-map iteration order.
    pub(crate) fn snapshot(&self) -> StreamSnapshot {
        let mut sessions: Vec<SessionSnapshot> = self
            .active
            .iter()
            .map(|(user, sess)| SessionSnapshot {
                user: *user,
                last_minute: sess.last_minute,
                last_action: sess.last_action,
                prefix: sess.monitor.fed_actions().to_vec(),
            })
            .collect();
        sessions.sort_by_key(|s| s.user.index());
        StreamSnapshot {
            config: self.config.clone(),
            clock: self.clock,
            counters: self.counters,
            sessions_started: self.sessions_started,
            sessions_ended: self.sessions_ended,
            sessions,
        }
    }
}

impl MisuseDetector {
    /// Rebuilds a live monitor from a snapshot by replaying each session's
    /// prefix through a fresh per-session monitor.
    pub(crate) fn stream_from_snapshot(&self, snap: StreamSnapshot) -> StreamMonitor<'_> {
        let mut sm = self.stream_monitor(snap.config);
        sm.clock = snap.clock;
        sm.counters = snap.counters;
        sm.sessions_started = snap.sessions_started;
        sm.sessions_ended = snap.sessions_ended;
        for s in snap.sessions {
            let mut monitor = self.monitor(sm.config.policy);
            for &a in &s.prefix {
                let _ = monitor.feed(a);
            }
            sm.active.insert(
                s.user,
                ActiveSession {
                    monitor,
                    last_minute: s.last_minute,
                    last_action: s.last_action,
                },
            );
        }
        sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_lm::{LmTrainConfig, LstmLm};
    use ibcm_ocsvm::{ClusterRouter, OcSvm, OcSvmConfig, SessionFeaturizer};

    fn detector() -> MisuseDetector {
        let vocab = 6;
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs: Vec<Vec<usize>> = (0..20).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1]).collect();
        let feats: Vec<Vec<f64>> = seqs
            .iter()
            .map(|s| {
                let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                featurizer.features(&acts)
            })
            .collect();
        let router = ClusterRouter::new(
            vec![OcSvm::train(&feats, &OcSvmConfig::default()).unwrap()],
            featurizer,
        );
        let lm = LstmLm::train(
            &LmTrainConfig {
                vocab,
                hidden: 12,
                dropout: 0.0,
                epochs: 25,
                batch_size: 8,
                learning_rate: 0.01,
                patience: 0,
                ..LmTrainConfig::default()
            },
            &seqs,
            &[],
        )
        .unwrap();
        MisuseDetector::new(router, vec![lm], 15)
    }

    fn ev(user: usize, action: usize, minute: u64) -> SessionEvent {
        SessionEvent {
            user: UserId(user),
            action: ActionId(action),
            minute,
        }
    }

    #[test]
    fn interleaved_users_get_separate_sessions() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        for (u, a) in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)] {
            sm.observe(ev(u, a, 1));
        }
        assert_eq!(sm.active_sessions(), 2);
        assert_eq!(sm.sessions_started(), 2);
    }

    #[test]
    fn timeout_starts_a_fresh_session() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            session_timeout_minutes: 10,
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 0));
        sm.observe(ev(0, 1, 5)); // same session
        assert_eq!(sm.sessions_started(), 1);
        sm.observe(ev(0, 0, 100)); // gap > timeout: new session
        assert_eq!(sm.sessions_started(), 2);
        assert_eq!(sm.sessions_ended(), 1);
        assert_eq!(sm.active_sessions(), 1);
    }

    #[test]
    fn end_action_closes_the_session() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            end_actions: vec![ActionId(5)],
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 0));
        sm.observe(ev(0, 5, 1)); // logout-style action
        assert_eq!(sm.active_sessions(), 0);
        assert_eq!(sm.sessions_ended(), 1);
        sm.observe(ev(0, 0, 2));
        assert_eq!(sm.sessions_started(), 2);
    }

    #[test]
    fn misuse_burst_alarms_with_user_attribution() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            policy: AlarmPolicy {
                likelihood_threshold: 0.15,
                window: 3,
                warmup: 3,
                ..AlarmPolicy::default()
            },
            ..StreamConfig::default()
        });
        // User 0 behaves; user 1 goes rogue.
        let mut alarms = Vec::new();
        let normal = [0usize, 1, 2, 0, 1, 2, 0, 1, 2];
        let rogue = [0usize, 5, 3, 1, 4, 2, 5, 0, 3];
        for i in 0..normal.len() {
            if let Some(a) = sm.observe(ev(0, normal[i], i as u64)) {
                alarms.push(a);
            }
            if let Some(a) = sm.observe(ev(1, rogue[i], i as u64)) {
                alarms.push(a);
            }
        }
        assert!(!alarms.is_empty(), "the rogue user should trip an alarm");
        assert!(alarms.iter().all(|a| a.user == UserId(1)));
        assert!(alarms.iter().all(|a| a.kind == StreamAlarmKind::Score));
    }

    #[test]
    fn sweep_closes_stale_sessions() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            session_timeout_minutes: 10,
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 0));
        sm.observe(ev(1, 0, 8));
        assert_eq!(sm.sweep(9), 0);
        assert_eq!(sm.sweep(15), 1); // user 0 stale
        assert_eq!(sm.active_sessions(), 1);
        assert!(sm.end_session(UserId(1)));
        assert!(!sm.end_session(UserId(1)));
    }

    #[test]
    fn backwards_clock_is_clamped_and_counted() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        sm.observe(ev(0, 0, 10));
        let out = sm.ingest(ev(0, 1, 3)); // clock ran backwards
        assert_eq!(out.faults, vec![FaultKind::NonMonotonic]);
        assert!(!out.dropped);
        assert_eq!(sm.fault_counters().non_monotonic, 1);
        assert_eq!(sm.clock_minute(), 10, "clock never moves backwards");
        assert_eq!(sm.sessions_started(), 1, "clamped event stays in session");
    }

    #[test]
    fn backwards_clock_dropped_under_drop_policy() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            faults: FaultPolicy {
                non_monotonic: ClockPolicy::Drop,
                ..FaultPolicy::default()
            },
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 10));
        let out = sm.ingest(ev(0, 1, 3));
        assert!(out.dropped);
        assert_eq!(sm.fault_counters().dropped, 1);
    }

    #[test]
    fn duplicates_classified_and_droppable() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            faults: FaultPolicy {
                duplicates: FaultAction::Drop,
                ..FaultPolicy::default()
            },
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 5));
        let out = sm.ingest(ev(0, 0, 5)); // redelivered
        assert_eq!(out.faults, vec![FaultKind::Duplicate]);
        assert!(out.dropped);
        // Same action at a later minute is legitimate, not a duplicate.
        let out = sm.ingest(ev(0, 0, 6));
        assert!(out.faults.is_empty());
        assert_eq!(sm.fault_counters().duplicate, 1);
    }

    #[test]
    fn unknown_actions_and_users_classified() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            faults: FaultPolicy {
                known_users: Some(10),
                unknown_actions: FaultAction::Drop,
                unknown_users: FaultAction::Drop,
                ..FaultPolicy::default()
            },
            ..StreamConfig::default()
        });
        let out = sm.ingest(ev(0, 999, 0)); // vocab is 6
        assert_eq!(out.faults, vec![FaultKind::UnknownAction]);
        assert!(out.dropped);
        let out = sm.ingest(ev(99, 0, 0)); // only 10 known users
        assert_eq!(out.faults, vec![FaultKind::UnknownUser]);
        assert!(out.dropped);
        assert_eq!(sm.sessions_started(), 0, "dropped events open no session");
        let c = sm.fault_counters();
        assert_eq!((c.unknown_action, c.unknown_user, c.dropped), (1, 1, 2));
    }

    #[test]
    fn unknown_action_processed_by_default() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        let out = sm.ingest(ev(0, 999, 0));
        assert_eq!(out.faults, vec![FaultKind::UnknownAction]);
        assert!(!out.dropped);
        assert_eq!(sm.sessions_started(), 1);
        assert_eq!(sm.fault_counters().unknown_action, 1);
    }

    #[test]
    fn session_cap_sheds_oldest_with_alarm() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig {
            faults: FaultPolicy {
                max_active_sessions: Some(2),
                ..FaultPolicy::default()
            },
            ..StreamConfig::default()
        });
        sm.observe(ev(0, 0, 0));
        sm.observe(ev(1, 0, 1));
        let out = sm.ingest(ev(2, 0, 2)); // would be the third session
        assert_eq!(out.shed.len(), 1);
        let shed = &out.shed[0];
        assert_eq!(shed.kind, StreamAlarmKind::Shed);
        assert_eq!(shed.user, UserId(0), "oldest session is shed");
        assert_eq!(shed.minute, 0);
        assert_eq!(sm.active_sessions(), 2);
        assert_eq!(sm.fault_counters().shed, 1);
        // An event for an already-active session sheds nothing.
        let out = sm.ingest(ev(1, 1, 3));
        assert!(out.shed.is_empty());
    }
}
