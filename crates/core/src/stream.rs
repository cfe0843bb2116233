//! Multi-session stream monitoring.
//!
//! The paper's online regime (§IV-C) scores *one* session action-by-action;
//! a deployment watches an interleaved stream of events from many users at
//! once. [`StreamMonitor`] performs the sessionization (a session ends on an
//! explicit logout-style action or after an inactivity timeout) and runs one
//! [`OnlineMonitor`] per active session, surfacing alarms with user
//! attribution.
//!
//! # One set of lifecycle rules
//!
//! Which event reaches which session is decided by a [`SessionDirectory`]:
//! the stream clock, the fault classification, timeouts, capacity shedding
//! and session ends. [`SessionDirectory::plan`] turns an event into an
//! [`Admission`] without changing anything, and [`SessionDirectory::commit`]
//! records it. [`StreamMonitor::ingest`] is plan, then
//! [`StreamMonitor::apply`], which commits the admission to the monitor's
//! own directory and runs it against the per-session monitors. The sharded
//! daemon (`ibcm-served`) plans every event against one central directory
//! and hands each shard's monitor the admissions to apply, so the rules run
//! once, in one place, at any shard count.
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::collections::BTreeMap;

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

impl StreamMetrics {
    fn fault(&self, kind: FaultKind) -> &ibcm_obs::Counter {
        match kind {
            FaultKind::NonMonotonic => &self.fault_non_monotonic,
            FaultKind::Duplicate => &self.fault_duplicate,
            FaultKind::UnknownAction => &self.fault_unknown_action,
            FaultKind::UnknownUser => &self.fault_unknown_user,
        }
    }
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

impl FaultCounters {
    fn count(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::NonMonotonic => self.non_monotonic += 1,
            FaultKind::Duplicate => self.duplicate += 1,
            FaultKind::UnknownAction => self.unknown_action += 1,
            FaultKind::UnknownUser => self.unknown_user += 1,
        }
    }
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

/// Everything [`StreamMonitor::ingest`] or [`StreamMonitor::apply`]
/// reports about one event.
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

/// The directory's record of one active session: what the rules read.
#[derive(Debug)]
struct SessionEntry {
    /// Minute of the session's last processed event (post-clamping).
    last_minute: u64,
    /// The session's last processed action (duplicate detection).
    last_action: Option<ActionId>,
}

/// The session-lifecycle rules of a stream and the state they read: the
/// stream clock, the fault counters, the session totals and each active
/// session's last minute and action.
///
/// [`plan`](SessionDirectory::plan) decides what one event does, in a fixed
/// order — clock, unknown user, unknown action, duplicate, timeout,
/// capacity victims, end action — without changing the directory;
/// [`commit`](SessionDirectory::commit) records the decision. Planning is
/// free of side effects, so a caller may plan, find it cannot deliver the
/// result yet, and plan the same event again later. The directory counts no
/// registry metrics: [`StreamMonitor::apply`] counts what it applies. Its
/// owner publishes the two stream gauges from it after each commit
/// ([`SessionDirectory::publish_gauges`]).
#[derive(Debug)]
pub struct SessionDirectory {
    config: StreamConfig,
    vocab_size: usize,
    /// Maximum (post-clamping) minute committed so far.
    clock: u64,
    counters: FaultCounters,
    sessions_started: usize,
    sessions_ended: usize,
    /// Active sessions in user order, which makes victim selection and
    /// checkpoint serialization deterministic.
    sessions: BTreeMap<UserId, SessionEntry>,
}

/// What a [`SessionDirectory`] decided about one event. Only
/// [`SessionDirectory::plan`] builds one, so whoever applies it applies a
/// decision some directory made.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The event, its minute clamped to the stream clock when the clock
    /// policy clamps.
    event: SessionEvent,
    /// Every fault class the event matched, in classification order.
    faults: Vec<FaultKind>,
    /// Whether the policy drops the event before it reaches a session.
    dropped: bool,
    /// Whether the user's previous session timed out and closes first.
    timed_out: bool,
    /// Sessions shed for capacity, in eviction order, with their last
    /// minutes.
    victims: Vec<(UserId, u64)>,
    /// Whether the event opens a new session.
    opens: bool,
    /// Whether the event's action ends its session.
    ends: bool,
}

impl Admission {
    /// The users whose sessions this admission sheds, in eviction order.
    pub fn victims(&self) -> impl Iterator<Item = UserId> + '_ {
        self.victims.iter().map(|&(user, _)| user)
    }

    /// Removes the capacity victims from the admission and returns them in
    /// eviction order. The sharded daemon sheds them on their own shards
    /// and delivers the rest of the admission to the event's shard.
    pub fn take_victims(&mut self) -> Vec<UserId> {
        std::mem::take(&mut self.victims)
            .into_iter()
            .map(|(user, _)| user)
            .collect()
    }

    fn into_dropped(mut self) -> Self {
        self.dropped = true;
        self
    }
}

impl SessionDirectory {
    /// An empty directory applying `config`'s rules, with `detector`'s
    /// vocabulary as the known-action range.
    pub fn new(detector: &MisuseDetector, config: StreamConfig) -> Self {
        SessionDirectory {
            config,
            vocab_size: detector.vocab_size(),
            clock: 0,
            counters: FaultCounters::default(),
            sessions_started: 0,
            sessions_ended: 0,
            sessions: BTreeMap::new(),
        }
    }

    /// Number of active sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Total sessions opened so far.
    pub fn sessions_started(&self) -> usize {
        self.sessions_started
    }

    /// Total sessions closed so far (logout, timeout, or shedding).
    pub fn sessions_ended(&self) -> usize {
        self.sessions_ended
    }

    /// Per-fault-class counters of every committed admission.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Decides what `event` does, without changing the directory.
    pub fn plan(&self, event: SessionEvent) -> Admission {
        let faults = &self.config.faults;
        let mut adm = Admission {
            event,
            faults: Vec::new(),
            dropped: false,
            timed_out: false,
            victims: Vec::new(),
            opens: false,
            ends: false,
        };

        // Clock fault: classify before anything can act on the bad minute.
        if event.minute < self.clock {
            adm.faults.push(FaultKind::NonMonotonic);
            match faults.non_monotonic {
                ClockPolicy::Clamp => adm.event.minute = self.clock,
                ClockPolicy::Drop => return adm.into_dropped(),
            }
        }
        if faults
            .known_users
            .is_some_and(|known| event.user.index() >= known)
        {
            adm.faults.push(FaultKind::UnknownUser);
            if faults.unknown_users == FaultAction::Drop {
                return adm.into_dropped();
            }
        }
        // Unknown action (outside the detector's model vocabulary).
        if event.action.index() >= self.vocab_size {
            adm.faults.push(FaultKind::UnknownAction);
            if faults.unknown_actions == FaultAction::Drop {
                return adm.into_dropped();
            }
        }

        // Timeout and duplicate checks against the user's current session.
        let minute = adm.event.minute;
        match self.sessions.get(&event.user) {
            Some(entry) => {
                adm.timed_out =
                    minute.saturating_sub(entry.last_minute) > self.config.session_timeout_minutes;
                if !adm.timed_out
                    && entry.last_action == Some(event.action)
                    && entry.last_minute == minute
                {
                    adm.faults.push(FaultKind::Duplicate);
                    if faults.duplicates == FaultAction::Drop {
                        return adm.into_dropped();
                    }
                }
                adm.opens = adm.timed_out;
            }
            None => adm.opens = true,
        }

        // Capacity: shed the oldest sessions before opening a new one.
        if adm.opens {
            if let Some(cap) = faults.max_active_sessions {
                adm.victims = self.victims(cap.max(1), event.user);
            }
        }
        adm.ends = self.config.end_actions.contains(&event.action);
        adm
    }

    /// The sessions a new session for `user` must shed to stay within
    /// `cap`: repeatedly the minimum `(last_minute, user index)` among the
    /// other users' sessions (`user`'s own entry, if any, has timed out).
    fn victims(&self, cap: usize, user: UserId) -> Vec<(UserId, u64)> {
        let mut live = self.sessions.len() - usize::from(self.sessions.contains_key(&user));
        let mut victims: Vec<(UserId, u64)> = Vec::new();
        while live >= cap {
            let oldest = self
                .sessions
                .iter()
                .filter(|(u, _)| **u != user && victims.iter().all(|(v, _)| v != *u))
                .min_by_key(|(u, e)| (e.last_minute, u.index()));
            let Some((&victim, entry)) = oldest else {
                break;
            };
            victims.push((victim, entry.last_minute));
            live -= 1;
        }
        victims
    }

    /// Records an admission planned by this directory (or, on a shard of
    /// the daemon, by the central one).
    pub fn commit(&mut self, adm: &Admission) {
        for &kind in &adm.faults {
            self.counters.count(kind);
        }
        // A clock-dropped event's minute is behind the clock, so this only
        // ever moves the clock forward.
        self.clock = self.clock.max(adm.event.minute);
        if adm.dropped {
            self.counters.dropped += 1;
            return;
        }
        let user = adm.event.user;
        if adm.timed_out {
            self.sessions.remove(&user);
            self.sessions_ended += 1;
        }
        for &(victim, _) in &adm.victims {
            self.shed(victim);
        }
        if adm.opens {
            self.sessions_started += 1;
        }
        if adm.ends {
            self.sessions.remove(&user);
            self.sessions_ended += 1;
        } else {
            self.sessions.insert(
                user,
                SessionEntry {
                    last_minute: adm.event.minute,
                    last_action: Some(adm.event.action),
                },
            );
        }
    }

    /// Sets the process-wide `ibcm_stream_active_sessions` and
    /// `ibcm_stream_clock_minute` gauges to this directory's session count
    /// and clock. The owner of the directory that plans every event calls
    /// it after each commit: [`StreamMonitor::ingest`] for a monitor that
    /// plans its own events, the sharded daemon's supervisor for its
    /// central directory. A shard's monitor, which sees only its own
    /// sessions, never does.
    pub fn publish_gauges(&self) {
        let metrics = stream_metrics();
        metrics.active_sessions.set(self.sessions.len() as i64);
        metrics.clock_minute.set(self.clock as i64);
    }

    /// Closes `user`'s session as shed and returns its last minute, or
    /// `None` when the user has no active session.
    fn shed(&mut self, user: UserId) -> Option<u64> {
        let entry = self.sessions.remove(&user)?;
        self.sessions_ended += 1;
        self.counters.shed += 1;
        Some(entry.last_minute)
    }
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
    directory: SessionDirectory,
    /// One online monitor per session active in `directory`.
    monitors: BTreeMap<UserId, OnlineMonitor<'a>>,
}

impl MisuseDetector {
    /// Starts monitoring a multi-user event stream.
    pub fn stream_monitor(&self, config: StreamConfig) -> StreamMonitor<'_> {
        StreamMonitor {
            detector: self,
            directory: SessionDirectory::new(self, config),
            monitors: BTreeMap::new(),
        }
    }
}

impl StreamMonitor<'_> {
    /// Number of sessions currently being monitored.
    pub fn active_sessions(&self) -> usize {
        self.directory.active_sessions()
    }

    /// Total sessions opened so far.
    pub fn sessions_started(&self) -> usize {
        self.directory.sessions_started()
    }

    /// Total sessions closed so far (logout, timeout, or shedding).
    pub fn sessions_ended(&self) -> usize {
        self.directory.sessions_ended()
    }

    /// Per-fault-class counters accumulated so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.directory.fault_counters()
    }

    /// The stream clock: the maximum event minute processed so far.
    pub fn clock_minute(&self) -> u64 {
        self.directory.clock
    }

    /// The stream configuration in effect.
    pub fn config(&self) -> &StreamConfig {
        &self.directory.config
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
    /// whether the event was dropped. Also sets the two stream gauges
    /// ([`SessionDirectory::publish_gauges`]).
    pub fn ingest(&mut self, event: SessionEvent) -> ObserveOutcome {
        let admission = self.directory.plan(event);
        let outcome = self.apply(admission);
        self.directory.publish_gauges();
        outcome
    }

    /// Commits `admission` to this monitor's directory and carries it out
    /// on the per-session monitors: closes a timed-out session, sheds the
    /// capacity victims, feeds the event and closes the session on an end
    /// action. This is where every `ibcm_stream_*` counter is counted; the
    /// gauges are set by whoever planned the admission.
    ///
    /// [`StreamMonitor::ingest`] applies what its own directory planned; a
    /// shard of the sharded daemon applies what the daemon's central
    /// directory planned, with the victims shed separately through
    /// [`StreamMonitor::shed_session`].
    pub fn apply(&mut self, admission: Admission) -> ObserveOutcome {
        let metrics = stream_metrics();
        metrics.events.inc();
        for &kind in &admission.faults {
            metrics.fault(kind).inc();
        }
        self.directory.commit(&admission);
        let Admission {
            event,
            faults,
            dropped,
            timed_out,
            victims,
            opens,
            ends,
        } = admission;
        if dropped {
            metrics.dropped.inc();
            return ObserveOutcome {
                faults,
                dropped,
                ..ObserveOutcome::default()
            };
        }
        if timed_out {
            self.monitors.remove(&event.user);
            metrics.sessions_ended.inc();
        }
        let shed = victims
            .into_iter()
            .filter_map(|(user, minute)| self.shed_monitor(user, minute))
            .collect();
        if opens {
            metrics.sessions_started.inc();
        }

        let detector = self.detector;
        let policy = self.directory.config.policy;
        let monitor = self
            .monitors
            .entry(event.user)
            .or_insert_with(|| detector.monitor(policy));
        let outcome = monitor.feed(event.action);
        if outcome.alarm {
            count_alarm("score", Some(outcome.cluster));
        }
        let alarm = outcome.alarm.then_some(StreamAlarm {
            user: event.user,
            position: outcome.position,
            minute: event.minute,
            windowed_likelihood: outcome.windowed_likelihood,
            trend: outcome.trend_alarm,
            kind: StreamAlarmKind::Score,
        });
        if ends {
            self.monitors.remove(&event.user);
            metrics.sessions_ended.inc();
        }
        ObserveOutcome {
            alarm,
            shed,
            faults,
            dropped,
        }
    }

    /// Removes a shed session's monitor and returns its shed alarm; the
    /// directory has already closed the session.
    fn shed_monitor(&mut self, user: UserId, last_minute: u64) -> Option<StreamAlarm> {
        let monitor = self.monitors.remove(&user)?;
        let metrics = stream_metrics();
        metrics.sessions_ended.inc();
        metrics.shed.inc();
        count_alarm("shed", monitor.current_cluster());
        Some(StreamAlarm {
            user,
            position: monitor.position(),
            minute: last_minute,
            windowed_likelihood: None,
            trend: false,
            kind: StreamAlarmKind::Shed,
        })
    }

    /// Sheds a *specific* user's session — the targeted counterpart of the
    /// capacity victims behind [`FaultPolicy::max_active_sessions`].
    ///
    /// The sharded daemon (`ibcm-served`) selects victims with its central
    /// [`SessionDirectory`], then tells the owning shard to shed by name
    /// through this method. The returned alarm is identical to the one
    /// [`StreamMonitor::ingest`] reports for the same victim.
    ///
    /// Returns `None` when the user has no active session.
    pub fn shed_session(&mut self, user: UserId) -> Option<StreamAlarm> {
        let last_minute = self.directory.shed(user)?;
        self.shed_monitor(user, last_minute)
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
    /// Captures the monitor's full live state, sessions in user order.
    pub(crate) fn snapshot(&self) -> StreamSnapshot {
        let dir = &self.directory;
        StreamSnapshot {
            config: dir.config.clone(),
            clock: dir.clock,
            counters: dir.counters,
            sessions_started: dir.sessions_started,
            sessions_ended: dir.sessions_ended,
            sessions: dir
                .sessions
                .iter()
                .map(|(&user, entry)| SessionSnapshot {
                    user,
                    last_minute: entry.last_minute,
                    last_action: entry.last_action,
                    prefix: self
                        .monitors
                        .get(&user)
                        .map_or_else(Vec::new, |m| m.fed_actions().to_vec()),
                })
                .collect(),
        }
    }
}

impl MisuseDetector {
    /// Rebuilds a live monitor from a snapshot by replaying each session's
    /// prefix through a fresh per-session monitor.
    pub(crate) fn stream_from_snapshot(&self, snap: StreamSnapshot) -> StreamMonitor<'_> {
        let mut sm = self.stream_monitor(snap.config);
        let dir = &mut sm.directory;
        dir.clock = snap.clock;
        dir.counters = snap.counters;
        dir.sessions_started = snap.sessions_started;
        dir.sessions_ended = snap.sessions_ended;
        let policy = dir.config.policy;
        for s in snap.sessions {
            let mut monitor = self.monitor(policy);
            for &a in &s.prefix {
                let _ = monitor.feed(a);
            }
            dir.sessions.insert(
                s.user,
                SessionEntry {
                    last_minute: s.last_minute,
                    last_action: s.last_action,
                },
            );
            sm.monitors.insert(s.user, monitor);
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

    #[test]
    fn planning_is_free_until_commit() {
        let d = detector();
        let mut dir = SessionDirectory::new(&d, StreamConfig::default());
        dir.commit(&dir.plan(ev(0, 0, 10)));

        // A caller that cannot deliver yet plans the same event again; only
        // the one commit counts.
        let late = ev(1, 1, 3);
        let plans: Vec<Admission> = (0..5).map(|_| dir.plan(late)).collect();
        assert!(plans.iter().all(|p| *p == plans[0]));
        assert_eq!(plans[0].faults, vec![FaultKind::NonMonotonic]);
        assert_eq!(dir.fault_counters(), FaultCounters::default());
        dir.commit(&plans[0]);
        assert_eq!(dir.fault_counters().non_monotonic, 1);

        // Planning a clock-advancing event leaves the clock alone: a later
        // event between the two minutes is still in order.
        for _ in 0..5 {
            let _ = dir.plan(ev(2, 0, 20));
        }
        assert_eq!(dir.clock, 10);
        assert!(dir.plan(ev(2, 0, 15)).faults.is_empty());
        dir.commit(&dir.plan(ev(2, 0, 20)));
        assert_eq!(dir.clock, 20);
        assert_eq!(dir.fault_counters().non_monotonic, 1);
    }
}
