//! The supervisor: front-door admission, deterministic routing, crash
//! detection and restart, and the merged alarm stream.
//!
//! # Why the merged stream is deterministic
//!
//! The supervisor owns the daemon's one
//! [`SessionDirectory`](ibcm_core::SessionDirectory), the same type a
//! monolithic [`StreamMonitor`](ibcm_core::StreamMonitor) decides with.
//! Every event is planned and committed against it on the supervisor
//! thread: the stream clock, the fault classification, timeouts, capacity
//! victims and session ends are decided here, once, before the event is
//! routed. Each capacity victim is shed *by name* on its owning shard via
//! [`StreamMonitor::shed_session`](ibcm_core::StreamMonitor::shed_session);
//! the rest of the admission goes to the event's shard, whose monitor
//! applies it and decides nothing. No decision depends on the partition,
//! so the shard count cannot change one.
//!
//! Every data command carries the next global sequence number, assigned
//! at the front door; the merged stream releases alarms in sequence order
//! once every live shard's processed watermark has passed them. Control
//! commands (kill/drain) carry no sequence number, so crash schedules
//! cannot shift data ordering — the byte-identity invariant the chaos
//! campaigns prove.
//!
//! This file is on the linter's panic-free hot-path list.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ibcm_core::{
    Admission, FaultCounters, MisuseDetector, SessionDirectory, SessionEvent, StreamAlarm,
};
use ibcm_logsim::UserId;
use ibcm_par::ManagedHandle;

use crate::config::ServedConfig;
use crate::error::ServeError;
use crate::metrics::{DaemonMetrics, ShardMetrics};
use crate::queue::BoundedQueue;
use crate::rotation::CheckpointStore;
use crate::shard::{
    run_worker, ShardCommand, ShardShared, WorkerPlan, WORKER_CRASHED, WORKER_CRASHED_ON_RESTORE,
    WORKER_DRAINED, WORKER_RUNNING,
};

/// An alarm in the merged stream, tagged with its global sequence number
/// and the shard that produced it. Alarms are released in `seq` order;
/// `seq` and `alarm` are invariant under shard count and crash schedule
/// (`shard` is not — it is routing metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct MergedAlarm {
    /// Global data sequence number of the command that raised the alarm.
    pub seq: u64,
    /// The shard that raised it.
    pub shard: usize,
    /// The alarm.
    pub alarm: StreamAlarm,
}

/// What a graceful drain reports.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Alarms released by the final merge (in seq order); alarms already
    /// returned by earlier [`Daemon::poll_alarms`] calls are not repeated.
    pub alarms: Vec<MergedAlarm>,
    /// Fault counters of the daemon's session directory. Equal to a
    /// monolithic monitor's counters over the same stream.
    pub counters: FaultCounters,
    /// Events admitted through the front door, including the ones the
    /// fault policy drops (clock drops too).
    pub events: u64,
    /// Total sessions opened, from the daemon's session directory.
    pub sessions_started: usize,
    /// Total sessions closed, from the daemon's session directory.
    pub sessions_ended: usize,
    /// Sessions still active at drain.
    pub active_sessions: usize,
    /// Worker restarts performed over the daemon's lifetime.
    pub restarts: u64,
    /// Restarts that restored from the newest checkpoint generation.
    pub restores_newest: u64,
    /// Restarts that fell back past a corrupted/invalid newest generation.
    pub restores_fallback: u64,
    /// Restarts with no usable checkpoint at all (fresh monitor + full
    /// replay-buffer replay).
    pub restores_fresh: u64,
    /// Shards that exhausted their restart budget and were taken out of
    /// service (their undelivered alarms are lost; empty in healthy runs).
    pub failed_shards: Vec<usize>,
    /// Wall-clock duration of the drain itself.
    pub drain_seconds: f64,
}

/// Deterministic user→shard routing: SplitMix64 finalizer over the user
/// index, reduced modulo the shard count. Stable across runs, platforms,
/// and shard restarts.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    let mut z = (user.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// Supervisor-side handle to one shard.
struct ShardHandle {
    queue: Arc<BoundedQueue<ShardCommand>>,
    shared: Arc<ShardShared>,
    handle: Option<ManagedHandle>,
    metrics: ShardMetrics,
    /// Data commands since the durable floor, for post-crash replay.
    replay: VecDeque<ShardCommand>,
    /// Highest data seq sent (or logically sent) to this shard.
    sent_watermark: u64,
    /// Consecutive restarts without progress.
    restarts: u32,
    /// Processed watermark at the last crash (progress detection).
    last_crash_processed: u64,
    failed: bool,
}

impl ShardHandle {
    fn worker_state(&self) -> u8 {
        self.shared.state.load(Ordering::Acquire)
    }

    fn crashed(&self) -> bool {
        let s = self.worker_state();
        s == WORKER_CRASHED || s == WORKER_CRASHED_ON_RESTORE
    }
}

/// The merged stream's reorder buffer, ring-indexed on the dense global
/// sequence space: slot `i` holds the (at most one) alarm for seq
/// `base + i`. Replaces a `BTreeMap<u64, MergedAlarm>` — inserts and
/// in-order releases become index arithmetic instead of tree rebalances,
/// and a replayed alarm republished for a seq already collected
/// overwrites its slot (the BTreeMap's insert semantics, which the
/// crash-republication dedup leans on).
#[derive(Debug)]
struct PendingRing {
    /// Seq of slot 0. Always `released_through + 1`: advanced only by
    /// releases, never by inserts.
    base: u64,
    slots: VecDeque<Option<MergedAlarm>>,
}

impl PendingRing {
    fn new() -> Self {
        PendingRing {
            base: 1,
            slots: VecDeque::new(),
        }
    }

    /// Insert-or-overwrite at the alarm's seq. Seqs below `base` were
    /// already released (callers filter on `released_through`, which
    /// equals `base - 1`); they are dropped.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx < slots.len() — the resize_with above grows the buffer through idx"
    )]
    fn insert(&mut self, merged: MergedAlarm) {
        let Some(offset) = merged.seq.checked_sub(self.base) else {
            return;
        };
        let idx = offset as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(merged);
    }

    /// Appends every buffered alarm with seq ≤ `bound` to `out`, in seq
    /// order, advancing `base` past them. Amortized O(1) per seq ever
    /// allocated: each slot is pushed and popped exactly once, and an
    /// empty buffer fast-forwards.
    fn release_through(&mut self, bound: u64, out: &mut Vec<MergedAlarm>) {
        while self.base <= bound {
            if self.slots.is_empty() {
                self.base = bound + 1;
                return;
            }
            if let Some(Some(merged)) = self.slots.pop_front() {
                out.push(merged);
            }
            self.base += 1;
        }
    }
}

/// The supervised sharded monitoring daemon. See the crate docs for the
/// architecture and OPERATIONS.md for the runbook.
pub struct Daemon {
    detector: Arc<MisuseDetector>,
    config: ServedConfig,
    store: Arc<CheckpointStore>,
    shards: Vec<ShardHandle>,
    metrics: DaemonMetrics,
    /// Where every event is planned and committed before it is routed.
    directory: SessionDirectory,
    /// Next global data sequence number (1-based).
    next_seq: u64,
    events_admitted: u64,
    /// Collected but not yet released alarms, ring-indexed by seq.
    pending: PendingRing,
    /// Highest seq released to the caller (re-published replay alarms at
    /// or below this are dropped at collection).
    released_through: u64,
    total_restarts: u64,
    /// Restore outcomes over the daemon's lifetime: newest, fallback, fresh.
    restore_outcomes: [u64; 3],
    /// Shards whose newest checkpoint is corrupted at their next restart
    /// (chaos scheduling; see [`Daemon::corrupt_newest_on_restart`]).
    pending_corruptions: std::collections::BTreeSet<usize>,
    corruptions_applied: u64,
    drained: bool,
}

impl Daemon {
    /// Starts the daemon: spawns one supervised worker per shard (the
    /// shard count is clamped to at least 1 — the honest singleton
    /// fallback) and resets the checkpoint store's generations for this
    /// run.
    pub fn new(
        detector: Arc<MisuseDetector>,
        mut config: ServedConfig,
        store: CheckpointStore,
    ) -> Result<Daemon, ServeError> {
        config.shards = config.shards.max(1);
        // One admission can need up to two slots on a single queue (a
        // capacity shed plus the delivery itself); a single-slot queue
        // would make such an admission permanently backpressured.
        config.queue_capacity = config.queue_capacity.max(2);
        let directory = SessionDirectory::new(&detector, config.stream.clone());
        let store = Arc::new(store);
        let metrics = DaemonMetrics::resolve();
        metrics.shards.set(config.shards as i64);

        let mut shards = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            store.reset(shard)?;
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
            let shared = Arc::new(ShardShared::new());
            let shard_metrics = ShardMetrics::for_shard(shard);
            let plan = WorkerPlan {
                shard,
                restore: None,
                replay: Vec::new(),
                suppress_through: 0,
                stream: config.stream.clone(),
                checkpoint_every: config.checkpoint_every,
                keep_checkpoints: config.keep_checkpoints,
            };
            let handle = spawn_worker(
                Arc::clone(&detector),
                plan,
                Arc::clone(&queue),
                Arc::clone(&shared),
                shard_metrics.clone(),
                Arc::clone(&store),
            )?;
            shards.push(ShardHandle {
                queue,
                shared,
                handle: Some(handle),
                metrics: shard_metrics,
                replay: VecDeque::new(),
                sent_watermark: 0,
                restarts: 0,
                last_crash_processed: 0,
                failed: false,
            });
        }
        Ok(Daemon {
            detector,
            config,
            store,
            shards,
            metrics,
            directory,
            next_seq: 1,
            events_admitted: 0,
            pending: PendingRing::new(),
            released_through: 0,
            total_restarts: 0,
            restore_outcomes: [0; 3],
            pending_corruptions: std::collections::BTreeSet::new(),
            corruptions_applied: 0,
            drained: false,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The shard `user`'s sessions live on.
    pub fn shard_for(&self, user: UserId) -> usize {
        shard_of(user, self.config.shards)
    }

    /// Worker restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.total_restarts
    }

    /// Current depth of every shard's ingest queue. The reads come from a
    /// lock-free depth mirror, so sampling them never contends with
    /// ingest — this is the bench's queue-depth histogram source.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|h| h.queue.len()).collect()
    }

    /// Feeds one event, blocking while the target shard's queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardFailed`] if the owning shard has exhausted its
    /// restart budget; [`ServeError::Drained`] after [`Daemon::drain`].
    pub fn ingest(&mut self, event: SessionEvent) -> Result<(), ServeError> {
        self.ingest_inner(event, true).map(|_| ())
    }

    /// Feeds one event without blocking: if any queue the event needs
    /// (shed victims' shards plus the owning shard) is full, nothing is
    /// admitted and [`ServeError::Backpressure`] is returned — explicit
    /// backpressure the caller can convert into upstream shedding.
    pub fn try_ingest(&mut self, event: SessionEvent) -> Result<(), ServeError> {
        self.ingest_inner(event, false).map(|_| ())
    }

    fn ingest_inner(&mut self, event: SessionEvent, blocking: bool) -> Result<(), ServeError> {
        if self.drained {
            return Err(ServeError::Drained);
        }
        self.heal_crashed()?;

        // Plan without changing the directory, so a failed owner or a full
        // queue rejects the event wholesale.
        let mut admission = self.directory.plan(event);
        let owner = self.shard_for(event.user);
        if self.shards.get(owner).is_none_or(|h| h.failed) {
            return Err(ServeError::ShardFailed { shard: owner });
        }
        if !blocking {
            self.check_room(&admission, owner)?;
        }

        // Commit, then dispatch: the victims first, each shed on its own
        // shard, then the rest of the admission to the event's shard.
        self.directory.commit(&admission);
        self.directory.publish_gauges();
        for user in admission.take_victims() {
            let seq = self.alloc_seq();
            self.dispatch(self.shard_for(user), ShardCommand::Shed { seq, user });
        }
        let seq = self.alloc_seq();
        self.events_admitted += 1;
        self.dispatch(owner, ShardCommand::Deliver { seq, admission });
        Ok(())
    }

    /// Backpressure pre-check for `try_ingest`: every queue the admission
    /// needs must have room for all its commands. Workers only pop, so
    /// the check cannot be invalidated before the pushes below.
    fn check_room(&self, admission: &Admission, owner: usize) -> Result<(), ServeError> {
        let mut demand: BTreeMap<usize, usize> = BTreeMap::new();
        for victim in admission.victims() {
            *demand.entry(self.shard_for(victim)).or_insert(0) += 1;
        }
        *demand.entry(owner).or_insert(0) += 1;
        for (shard, need) in demand {
            let Some(h) = self.shards.get(shard) else {
                return Err(ServeError::UnknownShard { shard });
            };
            if h.failed {
                continue; // commands to failed shards are dropped, not queued
            }
            let free = self.config.queue_capacity.saturating_sub(h.queue.len());
            if free < need {
                h.metrics.queue_overflows.inc();
                return Err(ServeError::Backpressure { shard });
            }
        }
        Ok(())
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sends one data command to a shard: records it in the replay
    /// buffer, then pushes. A push that observes a crash is fine — the
    /// command is in the replay buffer and will be replayed after the
    /// restart the next `heal_crashed` performs.
    fn dispatch(&mut self, shard: usize, cmd: ShardCommand) {
        let Some(h) = self.shards.get_mut(shard) else {
            return;
        };
        if let Some(seq) = cmd.data_seq() {
            h.sent_watermark = h.sent_watermark.max(seq);
        }
        if h.failed {
            return; // the shard is out of service; its commands are lost
        }
        h.replay.push_back(cmd.clone());
        // Trim the replay buffer to the durable floor: every retained
        // checkpoint generation covers at least this seq, so commands at
        // or below it can never be needed again.
        let floor = h.shared.durable_floor.load(Ordering::Acquire);
        while h
            .replay
            .front()
            .and_then(|c| c.data_seq())
            .is_some_and(|s| s <= floor)
        {
            h.replay.pop_front();
        }
        let _ = h.queue.push(cmd, &h.shared.state);
        h.metrics.queue_depth.set(h.queue.len() as i64);
    }

    /// Operator request: every live shard takes a checkpoint at its next
    /// queue wakeup (the same snapshot + rotation path as the cadence
    /// checkpoint). The request is asynchronous — each worker rotates its
    /// snapshot when it reaches the request in its queue. Returns how many
    /// shards were signalled.
    ///
    /// # Errors
    ///
    /// [`ServeError::Drained`] after [`Daemon::drain`] (a drain already
    /// wrote every shard's final checkpoint).
    pub fn request_checkpoint(&mut self) -> Result<usize, ServeError> {
        if self.drained {
            return Err(ServeError::Drained);
        }
        self.heal_crashed()?;
        let mut signalled = 0;
        for h in &mut self.shards {
            if h.failed {
                continue;
            }
            // Checkpoint carries no seq and never enters the replay
            // buffer; a crash between push and pop simply loses the
            // request (the restart writes its own generations).
            let _ = h.queue.push(ShardCommand::Checkpoint, &h.shared.state);
            signalled += 1;
        }
        Ok(signalled)
    }

    /// Shards taken out of service (restart budget exhausted without
    /// progress). Empty in healthy daemons; a non-empty list is the
    /// readiness signal the HTTP front end's `/readyz` reports.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, h)| h.failed)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether [`Daemon::drain`] has run; a drained daemon accepts no
    /// further events.
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Events admitted through the front door so far, including the ones
    /// the fault policy drops.
    pub fn events_admitted(&self) -> u64 {
        self.events_admitted
    }

    /// Chaos: make `shard`'s worker panic at its next command. The panic
    /// is caught at the worker's `catch_unwind` boundary and the shard is
    /// restarted by the supervisor (checkpoint restore + replay).
    pub fn kill_shard(&mut self, shard: usize) -> Result<(), ServeError> {
        let Some(h) = self.shards.get_mut(shard) else {
            return Err(ServeError::UnknownShard { shard });
        };
        if h.failed {
            return Err(ServeError::ShardFailed { shard });
        }
        // Kill carries no seq and never enters the replay buffer.
        let _ = h.queue.push(ShardCommand::Kill, &h.shared.state);
        Ok(())
    }

    /// Chaos: corrupt `shard`'s newest checkpoint generation at the
    /// moment of its *next restart* — after its final pre-crash rotation,
    /// before candidate selection — so that restart must fall back to the
    /// prior checksum-valid generation. Corrupting at the restart, not
    /// now, means no later cadence checkpoint can make a fresh valid
    /// generation the newest.
    pub fn corrupt_newest_on_restart(&mut self, shard: usize) {
        self.pending_corruptions.insert(shard);
    }

    /// How many scheduled corruptions actually hit a generation.
    pub fn corruptions_applied(&self) -> u64 {
        self.corruptions_applied
    }

    /// Detects crashed workers and restarts them (bounded backoff,
    /// checkpoint restore, suppressed replay). Called from every public
    /// entry point, so supervision needs no dedicated thread.
    fn heal_crashed(&mut self) -> Result<(), ServeError> {
        for shard in 0..self.shards.len() {
            let needs_restart = self
                .shards
                .get(shard)
                .is_some_and(|h| !h.failed && h.crashed());
            if needs_restart {
                self.restart_shard(shard)?;
            }
        }
        Ok(())
    }

    /// The restart protocol: join the dead worker, collect what it
    /// published, apply backoff, pick the newest valid checkpoint
    /// (validated by an actual restore, so corrupted generations fall
    /// back), and respawn with a suppressed replay plan.
    fn restart_shard(&mut self, shard: usize) -> Result<(), ServeError> {
        let detector = Arc::clone(&self.detector);
        let store = Arc::clone(&self.store);
        let stream = self.config.stream.clone();
        let checkpoint_every = self.config.checkpoint_every;
        let keep_checkpoints = self.config.keep_checkpoints;
        let max_restarts = self.config.max_restarts;
        let base_ms = self.config.backoff_base_ms;
        let cap_ms = self.config.backoff_cap_ms;
        let queue_capacity = self.config.queue_capacity;
        let released_through = self.released_through;

        let Some(h) = self.shards.get_mut(shard) else {
            return Err(ServeError::UnknownShard { shard });
        };
        // Once the dead worker is joined, the store holds exactly the
        // generations it rotated: candidate selection below cannot race a
        // write.
        if let Some(join) = h.handle.take() {
            let _ = join.join();
        }
        // Collect outputs the dead incarnation published before crashing.
        {
            let mut outputs = h.shared.outputs.lock().unwrap_or_else(|e| e.into_inner());
            for merged in outputs.drain(..) {
                if merged.seq > released_through {
                    self.pending.insert(merged);
                }
            }
        }
        let processed = h.shared.processed.load(Ordering::Acquire);

        // Progress-aware restart accounting: any advance of the
        // processed watermark since the last crash resets the budget.
        if processed > h.last_crash_processed {
            h.restarts = 0;
        }
        h.restarts += 1;
        h.last_crash_processed = processed;
        h.metrics.restarts.inc();
        if h.restarts > max_restarts {
            h.failed = true;
            return Ok(());
        }
        let exponent = h.restarts.saturating_sub(1).min(16);
        let backoff_ms = base_ms.saturating_mul(1u64 << exponent).min(cap_ms);
        h.metrics.backoff_ms.set(backoff_ms as i64);
        if backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }

        if self.pending_corruptions.remove(&shard) && store.corrupt_newest(shard) {
            self.corruptions_applied += 1;
        }

        // Pick the restore source: newest checksum-valid generation that
        // actually restores against this detector. A corrupted newest
        // generation falls back to the one before it — classified by
        // comparing against the newest generation *present* (valid or
        // not), since `valid_generations` already filters corrupt frames.
        let newest_present = store.generation_seqs(shard)?.into_iter().max();
        let mut restore = None;
        for generation in store.valid_generations(shard)? {
            if detector.restore_stream_monitor(&generation.ibcs).is_ok() {
                restore = Some(generation);
                break;
            }
        }
        let fallback = match (&restore, newest_present) {
            (Some(g), Some(newest)) => g.covered_seq != newest,
            _ => false,
        };
        let outcome = match (&restore, fallback) {
            (Some(_), false) => {
                h.metrics.restores_newest.inc();
                0
            }
            (Some(_), true) => {
                h.metrics.restores_fallback.inc();
                1
            }
            (None, _) => {
                h.metrics.restores_fresh.inc();
                2
            }
        };
        if let Some(slot) = self.restore_outcomes.get_mut(outcome) {
            *slot += 1;
        }
        let covered = restore.as_ref().map_or(0, |g| g.covered_seq);
        let replay: Vec<ShardCommand> = h
            .replay
            .iter()
            .filter(|c| c.data_seq().is_some_and(|s| s > covered))
            .cloned()
            .collect();
        let plan = WorkerPlan {
            shard,
            restore,
            replay,
            suppress_through: processed,
            stream,
            checkpoint_every,
            keep_checkpoints,
        };
        // Fresh queue: the dead incarnation's queued commands are a
        // subset of the replay buffer, so nothing is lost.
        h.queue = Arc::new(BoundedQueue::new(queue_capacity));
        h.shared.state.store(WORKER_RUNNING, Ordering::Release);
        h.handle = Some(spawn_worker(
            detector,
            plan,
            Arc::clone(&h.queue),
            Arc::clone(&h.shared),
            h.metrics.clone(),
            store,
        )?);
        self.total_restarts += 1;
        Ok(())
    }

    /// Releases every alarm whose sequence number all live shards have
    /// processed past, in sequence order. Call this between ingests to
    /// consume the merged stream incrementally; `drain` releases the
    /// remainder.
    pub fn poll_alarms(&mut self) -> Vec<MergedAlarm> {
        // Restart crashed shards first so the release bound can advance.
        let _ = self.heal_crashed();
        self.release(false)
    }

    /// Snapshot watermarks, collect outputs, and release `pending` up to
    /// the merge bound (or everything, at drain).
    fn release(&mut self, everything: bool) -> Vec<MergedAlarm> {
        // Snapshot processed watermarks BEFORE collecting outputs:
        // workers publish outputs before advancing the watermark, so
        // after this snapshot every alarm at or below it is collectable.
        let mut bound = self.next_seq.saturating_sub(1);
        for h in &self.shards {
            if h.failed {
                continue; // a failed shard can never catch up; exclude it
            }
            let processed = h.shared.processed.load(Ordering::Acquire);
            if processed < h.sent_watermark {
                bound = bound.min(processed);
            }
        }
        let released_through = self.released_through;
        for h in &self.shards {
            let mut outputs = h.shared.outputs.lock().unwrap_or_else(|e| e.into_inner());
            for merged in outputs.drain(..) {
                if merged.seq > released_through {
                    self.pending.insert(merged);
                }
            }
            h.metrics.queue_depth.set(h.queue.len() as i64);
        }
        if everything {
            bound = self.next_seq.saturating_sub(1);
        }
        let mut released = Vec::new();
        self.pending.release_through(bound, &mut released);
        self.released_through = self.released_through.max(bound);
        self.metrics.alarms_merged.add(released.len() as u64);
        released
    }

    /// Graceful drain: quiesce every shard (restarting crashed ones so
    /// their replay completes), take final checkpoints, close the merged
    /// stream, and report the directory's counters. The daemon accepts no
    /// events afterwards.
    ///
    /// # Errors
    ///
    /// [`ServeError::Drained`] if already drained; spawn/store errors
    /// from the restart protocol.
    pub fn drain(&mut self) -> Result<DrainReport, ServeError> {
        if self.drained {
            return Err(ServeError::Drained);
        }
        self.drained = true;
        let stopwatch = ibcm_obs::Stopwatch::start();

        for shard in 0..self.shards.len() {
            loop {
                let state = {
                    let Some(h) = self.shards.get(shard) else {
                        break;
                    };
                    if h.failed {
                        break;
                    }
                    h.worker_state()
                };
                match state {
                    WORKER_DRAINED => {
                        if let Some(h) = self.shards.get_mut(shard) {
                            if let Some(join) = h.handle.take() {
                                let _ = join.join();
                            }
                        }
                        break;
                    }
                    WORKER_CRASHED | WORKER_CRASHED_ON_RESTORE => {
                        // Finish the shard's recovery before quiescing it.
                        self.restart_shard(shard)?;
                    }
                    _ => {
                        if let Some(h) = self.shards.get_mut(shard) {
                            let _ = h.queue.push(ShardCommand::Drain, &h.shared.state);
                            if let Some(join) = h.handle.take() {
                                let _ = join.join();
                            }
                        }
                        // Loop again: the worker either drained or
                        // crashed while draining.
                    }
                }
            }
        }

        let alarms = self.release(true);
        let drain_seconds = stopwatch.elapsed_seconds();
        self.metrics.drain_seconds.observe(drain_seconds);
        let [restores_newest, restores_fallback, restores_fresh] = self.restore_outcomes;
        Ok(DrainReport {
            alarms,
            counters: self.directory.fault_counters(),
            events: self.events_admitted,
            sessions_started: self.directory.sessions_started(),
            sessions_ended: self.directory.sessions_ended(),
            active_sessions: self.directory.active_sessions(),
            restarts: self.total_restarts,
            restores_newest,
            restores_fallback,
            restores_fresh,
            failed_shards: self.failed_shards(),
            drain_seconds,
        })
    }
}

impl Drop for Daemon {
    /// Best-effort shutdown for daemons dropped without [`Daemon::drain`]:
    /// ask live workers to exit and detach. No joining — a full, loss-free
    /// shutdown is what `drain` is for.
    fn drop(&mut self) {
        if self.drained {
            return;
        }
        for h in &mut self.shards {
            let _ = h.queue.try_push(ShardCommand::Drain, &h.shared.state);
        }
    }
}

/// Spawns a shard worker on a managed `ibcm-par` thread: daemon workers
/// are long-lived parallel capacity, so registering them lets scoring
/// pools size themselves around the daemon (`IBCM_THREADS` still wins).
fn spawn_worker(
    detector: Arc<MisuseDetector>,
    plan: WorkerPlan,
    queue: Arc<BoundedQueue<ShardCommand>>,
    shared: Arc<ShardShared>,
    metrics: ShardMetrics,
    store: Arc<CheckpointStore>,
) -> Result<ManagedHandle, ServeError> {
    let shard = plan.shard;
    ibcm_par::spawn_managed(format!("ibcm-served-{shard}"), move || {
        run_worker(detector, plan, queue, shared, metrics, store)
    })
    .map_err(ServeError::Spawn)
}
