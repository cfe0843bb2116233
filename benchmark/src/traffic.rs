//! Workload inputs: seeded logsim datasets turned into event streams.
//!
//! Every stream is a pure function of the `--seed` argument. Traffic
//! datasets use seeds `seed + 1000 + i`, so they never coincide with the
//! model's training data.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;

use ibcm_core::chaos::event_stream;
use ibcm_core::SessionEvent;
use ibcm_logsim::{ActionId, Dataset, Generator, GeneratorConfig, UserId};

/// Offset between the run seed and the seed of traffic dataset 0.
pub const TRAFFIC_SEED_OFFSET: u64 = 1000;

/// `StreamConfig::default().session_timeout_minutes`: a gap longer than
/// this ends a user's session.
pub const SESSION_TIMEOUT_MINUTES: u64 = 30;

/// Idle minutes a replayed slot waits between two sessions, so the
/// monitor's inactivity timeout ends the first before the second starts.
pub const IDLE_MINUTES: u64 = SESSION_TIMEOUT_MINUTES + 1;

/// Traffic dataset `i` of a run.
pub fn traffic_dataset(generator: fn(u64) -> GeneratorConfig, seed: u64, i: u64) -> Dataset {
    Generator::new(generator(
        seed.wrapping_add(TRAFFIC_SEED_OFFSET).wrapping_add(i),
    ))
    .generate()
}

/// Natural-timeline traffic: `chaos::event_stream` of consecutive traffic
/// datasets, each shifted past the previous one's last minute by more than
/// the session timeout, until at least `min_events` events exist. Also
/// returns the sessions behind the stream, in dataset order.
pub fn natural_stream(
    generator: fn(u64) -> GeneratorConfig,
    seed: u64,
    min_events: usize,
) -> (Vec<SessionEvent>, Vec<Vec<ActionId>>) {
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut sessions = Vec::new();
    let mut i = 0;
    while events.len() < min_events.max(1) {
        let dataset = traffic_dataset(generator, seed, i);
        let offset = events.last().map_or(0, |e| e.minute + IDLE_MINUTES + 1);
        events.extend(event_stream(&dataset).into_iter().map(|e| SessionEvent {
            minute: e.minute + offset,
            ..e
        }));
        sessions.extend(dataset.sessions().iter().map(|s| s.actions().to_vec()));
        i += 1;
    }
    (events, sessions)
}

/// Datasets a [`SessionPool`] draws before it gives up: bounds a length
/// filter that nothing passes.
const POOL_MAX_DATASETS: u64 = 10_000;

/// `events` repeated until at least `min_events` exist, each copy shifted
/// to start more than the session timeout after the previous one ends.
pub fn repeat_stream(events: &[SessionEvent], min_events: usize) -> Vec<SessionEvent> {
    let mut out: Vec<SessionEvent> = Vec::new();
    let Some(first) = events.first().map(|e| e.minute) else {
        return out;
    };
    while out.len() < min_events {
        let offset = out
            .last()
            .map_or(0, |e| e.minute + IDLE_MINUTES + 1 - first);
        out.extend(events.iter().map(|e| SessionEvent {
            minute: e.minute + offset,
            ..*e
        }));
    }
    out
}

/// An endless supply of traffic sessions whose length lies in
/// `min_len..=max_len`, drawn from consecutive traffic datasets.
pub struct SessionPool {
    generator: fn(u64) -> GeneratorConfig,
    seed: u64,
    min_len: usize,
    max_len: usize,
    next_dataset: u64,
    buffer: VecDeque<Vec<ActionId>>,
}

impl SessionPool {
    /// A pool over the run's traffic datasets.
    pub fn new(
        generator: fn(u64) -> GeneratorConfig,
        seed: u64,
        min_len: usize,
        max_len: usize,
    ) -> Self {
        SessionPool {
            generator,
            seed,
            min_len: min_len.max(1),
            max_len,
            next_dataset: 0,
            buffer: VecDeque::new(),
        }
    }
}

impl Iterator for SessionPool {
    type Item = Vec<ActionId>;

    fn next(&mut self) -> Option<Vec<ActionId>> {
        while self.buffer.is_empty() {
            if self.next_dataset == POOL_MAX_DATASETS {
                return None;
            }
            let dataset = traffic_dataset(self.generator, self.seed, self.next_dataset);
            self.next_dataset += 1;
            self.buffer.extend(
                dataset
                    .sessions()
                    .iter()
                    .filter(|s| (self.min_len..=self.max_len).contains(&s.len()))
                    .map(|s| s.actions().to_vec()),
            );
        }
        self.buffer.pop_front()
    }
}

/// Minute-major interleave of `sessions` over `slots` concurrent users,
/// generated lazily.
///
/// Slot `s` is user `s`. At every minute each busy slot emits the next
/// action of its session, in slot order. A slot whose session ended idles
/// [`IDLE_MINUTES`] and then takes the next session from the pool, so one
/// user's consecutive sessions are split by the monitor's timeout and at
/// most `slots` sessions are ever live. Slot starts are staggered over the
/// first 64 minutes. Ends when the pool and every slot run dry.
pub fn interleave<I>(sessions: I, slots: usize) -> Interleave<I::IntoIter>
where
    I: IntoIterator<Item = Vec<ActionId>>,
{
    Interleave {
        pool: sessions.into_iter(),
        slots: (0..slots)
            .map(|s| Slot {
                actions: Vec::new(),
                next: 0,
                resume: s as u64 % 64,
            })
            .collect(),
        minute: 0,
        cursor: 0,
        pool_dry: false,
    }
}

struct Slot {
    actions: Vec<ActionId>,
    next: usize,
    resume: u64,
}

impl Slot {
    fn idle(&self) -> bool {
        self.next == self.actions.len()
    }
}

/// The iterator behind [`interleave`].
pub struct Interleave<I> {
    pool: I,
    slots: Vec<Slot>,
    minute: u64,
    cursor: usize,
    pool_dry: bool,
}

impl<I: Iterator<Item = Vec<ActionId>>> Iterator for Interleave<I> {
    type Item = SessionEvent;

    fn next(&mut self) -> Option<SessionEvent> {
        if self.slots.is_empty() {
            return None;
        }
        loop {
            if self.cursor == self.slots.len() {
                if self.pool_dry && self.slots.iter().all(Slot::idle) {
                    return None;
                }
                self.minute += 1;
                self.cursor = 0;
            }
            let user = self.cursor;
            self.cursor += 1;
            let slot = &mut self.slots[user];
            if slot.idle() {
                if self.pool_dry || self.minute < slot.resume {
                    continue;
                }
                match self.pool.by_ref().find(|s| !s.is_empty()) {
                    Some(actions) => {
                        slot.actions = actions;
                        slot.next = 0;
                    }
                    None => {
                        self.pool_dry = true;
                        continue;
                    }
                }
            }
            let action = slot.actions[slot.next];
            slot.next += 1;
            if slot.idle() {
                slot.resume = self.minute + 1 + IDLE_MINUTES;
            }
            return Some(SessionEvent {
                user: UserId(user),
                action,
                minute: self.minute,
            });
        }
    }
}

/// 1-based position of every event within its session, sessionizing the
/// way `StreamMonitor` does: a user's next event more than
/// [`SESSION_TIMEOUT_MINUTES`] after their previous one opens a new
/// session.
pub fn positions(events: &[SessionEvent]) -> Vec<usize> {
    let mut open: HashMap<UserId, (u64, usize)> = HashMap::new();
    events
        .iter()
        .map(|e| {
            let entry = open.entry(e.user).or_insert((e.minute, 0));
            if e.minute.saturating_sub(entry.0) > SESSION_TIMEOUT_MINUTES {
                entry.1 = 0;
            }
            entry.0 = e.minute;
            entry.1 += 1;
            entry.1
        })
        .collect()
}

/// The sessions of a stream (as [`positions`] splits it), in order of
/// their first event. Sessions still open at the end are cut there.
pub fn sessions_of(events: &[SessionEvent]) -> Vec<Vec<ActionId>> {
    let mut sessions: Vec<Vec<ActionId>> = Vec::new();
    let mut open: HashMap<UserId, usize> = HashMap::new();
    for (e, pos) in events.iter().zip(positions(events)) {
        if pos == 1 {
            open.insert(e.user, sessions.len());
            sessions.push(Vec::new());
        }
        if let Some(&i) = open.get(&e.user) {
            sessions[i].push(e.action);
        }
    }
    sessions
}

/// The `POST /v1/events` body for `events`: one JSON object per line.
pub fn ndjson(events: &[SessionEvent]) -> Vec<u8> {
    let mut body = Vec::with_capacity(events.len() * 40);
    for e in events {
        // Writing into a Vec cannot fail.
        let _ = writeln!(
            body,
            "{{\"user\":{},\"action\":{},\"minute\":{}}}",
            e.user.index(),
            e.action.index(),
            e.minute
        );
    }
    body
}

/// Index of the first event with each `(user, minute)` key — the join key
/// between an alarm and the event that raised it.
pub fn event_index(events: &[SessionEvent]) -> HashMap<(usize, u64), usize> {
    let mut index = HashMap::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        index.entry((e.user.index(), e.minute)).or_insert(i);
    }
    index
}

/// Joins alarms, given as `(user, minute, visible_at)`, to the events that
/// raised them. Returns `(event index, visible_at - due[event])` per
/// matched alarm and the number of alarms no event in `index` matches.
pub fn join_alarm_latencies(
    alarms: &[(usize, u64, f64)],
    index: &HashMap<(usize, u64), usize>,
    due: &[f64],
) -> (Vec<(usize, f64)>, usize) {
    let mut joined = Vec::with_capacity(alarms.len());
    let mut unmatched = 0;
    for &(user, minute, visible) in alarms {
        match index
            .get(&(user, minute))
            .and_then(|&i| Some((i, due.get(i)?)))
        {
            Some((i, &due)) => joined.push((i, visible - due)),
            None => unmatched += 1,
        }
    }
    (joined, unmatched)
}
