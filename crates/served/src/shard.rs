//! The shard worker: one supervised thread running one `StreamMonitor`
//! over its partition of the session table.
//!
//! The worker pops *runs* of up to [`DRAIN_BATCH`] commands from its
//! bounded ingest queue (one lock acquisition per run), feeds its
//! monitor, publishes alarms (tagged with their global sequence number)
//! through shared state, and snapshots `IBCS` checkpoints on a
//! command-count cadence — handing the rotation I/O to the shard's
//! background writer. Stats snapshots are published once per drained run
//! (and always at drain), not per command: nothing reads them mid-run,
//! and the processed watermark — which *is* read mid-run — stays
//! per-command and release-ordered after the outputs it covers. Panics —
//! including deliberate chaos kills — are caught at the [`run_worker`]
//! `catch_unwind` boundary; the worker records its exit state and
//! returns, leaving the restart decision to the supervisor (a producer
//! blocked on the full queue notices the crash at its next poll).
//!
//! This file is on the linter's panic-free hot-path list: the only panic
//! is the deliberate chaos kill switch, which exists to be caught.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use ibcm_core::{FaultCounters, MisuseDetector, SessionEvent, StreamConfig, StreamMonitor};
use ibcm_logsim::UserId;

use crate::metrics::ShardMetrics;
use crate::queue::BoundedQueue;
use crate::rotation::Generation;
use crate::supervisor::MergedAlarm;
use crate::writer::WriterShared;

/// Commands a worker pops per queue wakeup. Runs amortize the queue lock
/// and the stats publication; a run never spans more than the queue
/// holds, so an idle shard still processes single commands promptly.
pub(crate) const DRAIN_BATCH: usize = 32;

/// Worker state: processing commands.
pub(crate) const WORKER_RUNNING: u8 = 0;
/// Worker state: a panic was caught; the thread has exited.
pub(crate) const WORKER_CRASHED: u8 = 1;
/// Worker state: the checkpoint restore failed at startup; the thread has
/// exited without processing anything.
pub(crate) const WORKER_CRASHED_ON_RESTORE: u8 = 2;
/// Worker state: drained cleanly after a final checkpoint.
pub(crate) const WORKER_DRAINED: u8 = 3;

/// Panic message marking a deliberate chaos kill. The process-wide panic
/// hook suppresses the default stderr report for payloads carrying this
/// marker; everything else is reported normally.
pub(crate) const CHAOS_KILL_MSG: &str = "ibcm-served: deliberate chaos kill";

/// One command on a shard's ingest queue. `Deliver` and `Shed` are data
/// commands and carry a global sequence number; `Kill` and `Drain` are
/// control commands and deliberately do not, so an injected chaos
/// schedule can never perturb the data sequence.
#[derive(Debug, Clone)]
pub(crate) enum ShardCommand {
    /// Feed one (already clock-clamped) event to the shard's monitor.
    Deliver {
        /// Global sequence number.
        seq: u64,
        /// The event; its minute has already passed the front door.
        event: SessionEvent,
    },
    /// Shed a named session (global capacity enforcement decided the
    /// victim at the front door).
    Shed {
        /// Global sequence number.
        seq: u64,
        /// The victim.
        user: UserId,
    },
    /// Chaos: panic at the catch_unwind boundary.
    Kill,
    /// Operator request: write a checkpoint now (same rotation path as the
    /// cadence checkpoint), then keep processing. Carries no sequence
    /// number — like every control command it cannot perturb the data
    /// ordering, and it is never replayed after a crash.
    Checkpoint,
    /// Graceful shutdown: final checkpoint, publish stats, exit.
    Drain,
}

impl ShardCommand {
    /// The data sequence number, if this is a data command.
    pub(crate) fn data_seq(&self) -> Option<u64> {
        match self {
            ShardCommand::Deliver { seq, .. } | ShardCommand::Shed { seq, .. } => Some(*seq),
            ShardCommand::Kill | ShardCommand::Checkpoint | ShardCommand::Drain => None,
        }
    }
}

/// A consistent snapshot of one shard's progress, published by the worker
/// after every drained run of commands and aggregated at drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's fault counters (non-monotonic stays zero: clock faults
    /// are classified at the front door).
    pub counters: FaultCounters,
    /// Sessions opened on this shard.
    pub sessions_started: usize,
    /// Sessions closed on this shard (logout, timeout, shed).
    pub sessions_ended: usize,
    /// Sessions currently active on this shard.
    pub active_sessions: usize,
    /// Highest data sequence number processed.
    pub processed: u64,
}

/// State shared between the supervisor and one shard worker.
#[derive(Debug)]
pub(crate) struct ShardShared {
    /// [`WORKER_RUNNING`] / [`WORKER_CRASHED`] /
    /// [`WORKER_CRASHED_ON_RESTORE`] / [`WORKER_DRAINED`].
    pub(crate) state: AtomicU8,
    /// Highest data seq processed *and published*: the worker pushes
    /// outputs before storing this (release ordering), so a supervisor
    /// that reads `processed` (acquire) then drains outputs is
    /// guaranteed to see every alarm at or below it.
    pub(crate) processed: AtomicU64,
    /// Covered seq of the oldest retained checkpoint generation — the
    /// durable floor below which the supervisor may trim its replay
    /// buffer. Advanced by the shard's background writer.
    pub(crate) durable_floor: AtomicU64,
    /// Alarms awaiting collection by the supervisor's merge.
    pub(crate) outputs: Mutex<Vec<MergedAlarm>>,
    /// Latest stats snapshot.
    pub(crate) stats: Mutex<ShardStats>,
}

impl ShardShared {
    pub(crate) fn new() -> Self {
        ShardShared {
            state: AtomicU8::new(WORKER_RUNNING),
            processed: AtomicU64::new(0),
            durable_floor: AtomicU64::new(0),
            outputs: Mutex::new(Vec::new()),
            stats: Mutex::new(ShardStats::default()),
        }
    }
}

/// Everything a (re)spawned worker needs to reach a deterministic state.
#[derive(Debug)]
pub(crate) struct WorkerPlan {
    /// This shard's index.
    pub(crate) shard: usize,
    /// Checkpoint to restore from; `None` starts a fresh monitor.
    pub(crate) restore: Option<Generation>,
    /// Data commands after the checkpoint's covered seq, replayed before
    /// the queue is consumed. Control commands are never replayed.
    pub(crate) replay: Vec<ShardCommand>,
    /// Alarms for seqs at or below this were already published by a
    /// previous incarnation; re-emission is suppressed during replay.
    pub(crate) suppress_through: u64,
    /// The shard-local stream config (capacity bound removed — the front
    /// door owns it).
    pub(crate) stream: StreamConfig,
    /// Checkpoint cadence in processed data commands (0 = drain-only).
    pub(crate) checkpoint_every: u64,
}

/// How the worker loop ended.
enum WorkerExit {
    Drained,
    RestoreFailed,
}

/// Control flow after one command.
enum Flow {
    Continue,
    Drained,
}

/// Per-incarnation context threaded through every processed command.
struct WorkerCtx<'a> {
    shard: usize,
    suppress_through: u64,
    shared: &'a ShardShared,
    writer: &'a WriterShared,
    metrics: &'a ShardMetrics,
    checkpoint_every: u64,
    since_checkpoint: u64,
    last_seq: u64,
}

/// Thread entry point: runs the worker loop under `catch_unwind` and
/// records the exit state.
pub(crate) fn run_worker(
    detector: Arc<MisuseDetector>,
    plan: WorkerPlan,
    queue: Arc<BoundedQueue<ShardCommand>>,
    shared: Arc<ShardShared>,
    metrics: ShardMetrics,
    writer: Arc<WriterShared>,
) {
    let shared_for_exit = Arc::clone(&shared);
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        worker_loop(&detector, plan, &queue, &shared, &metrics, &writer)
    }));
    let state = match outcome {
        Ok(WorkerExit::Drained) => WORKER_DRAINED,
        Ok(WorkerExit::RestoreFailed) => WORKER_CRASHED_ON_RESTORE,
        Err(_) => WORKER_CRASHED,
    };
    shared_for_exit.state.store(state, Ordering::Release);
}

fn worker_loop(
    detector: &MisuseDetector,
    plan: WorkerPlan,
    queue: &BoundedQueue<ShardCommand>,
    shared: &ShardShared,
    metrics: &ShardMetrics,
    writer: &WriterShared,
) -> WorkerExit {
    let WorkerPlan {
        shard,
        restore,
        replay,
        suppress_through,
        stream,
        checkpoint_every,
    } = plan;
    let mut sm = match restore {
        None => detector.stream_monitor(stream),
        Some(generation) => match detector.restore_stream_monitor(&generation.ibcs) {
            Ok(sm) => sm,
            Err(_) => return WorkerExit::RestoreFailed,
        },
    };
    let mut ctx = WorkerCtx {
        shard,
        suppress_through,
        shared,
        writer,
        metrics,
        checkpoint_every,
        since_checkpoint: 0,
        last_seq: shared.processed.load(Ordering::Acquire),
    };

    for cmd in replay {
        match step(&mut sm, cmd, &mut ctx) {
            Flow::Continue => {}
            Flow::Drained => return WorkerExit::Drained,
        }
    }
    publish_stats(&sm, ctx.last_seq, shared);
    let mut batch: Vec<ShardCommand> = Vec::with_capacity(DRAIN_BATCH);
    loop {
        batch.clear();
        queue.pop_batch(&mut batch, DRAIN_BATCH);
        metrics.worker_batches.inc();
        for cmd in batch.drain(..) {
            match step(&mut sm, cmd, &mut ctx) {
                Flow::Continue => {}
                Flow::Drained => return WorkerExit::Drained,
            }
        }
        // One stats snapshot per drained run: stats are only read after
        // a quiesce (drain or restart replay), so per-command publication
        // bought nothing but a mutex round-trip on the hot path.
        publish_stats(&sm, ctx.last_seq, shared);
    }
}

/// Processes one command against the shard's monitor.
fn step(sm: &mut StreamMonitor<'_>, cmd: ShardCommand, ctx: &mut WorkerCtx<'_>) -> Flow {
    match cmd {
        ShardCommand::Deliver { seq, event } => {
            let out = sm.ingest(event);
            publish(ctx.shared, seq, ctx.shard, out.shed, out.alarm, ctx.suppress_through);
            finish_data(sm, seq, ctx);
            Flow::Continue
        }
        ShardCommand::Shed { seq, user } => {
            let alarm = sm.shed_session(user);
            publish(ctx.shared, seq, ctx.shard, Vec::new(), alarm, ctx.suppress_through);
            finish_data(sm, seq, ctx);
            Flow::Continue
        }
        ShardCommand::Kill => {
            // ibcm-lint: allow(panic-macro, reason = "deliberate chaos kill switch; always caught at run_worker's catch_unwind boundary and handled by the supervisor's restart protocol")
            panic!("{CHAOS_KILL_MSG}")
        }
        ShardCommand::Checkpoint => {
            write_checkpoint(sm, ctx.last_seq, ctx);
            // The on-demand snapshot restarts the cadence clock: the next
            // cadence checkpoint is measured from here.
            ctx.since_checkpoint = 0;
            Flow::Continue
        }
        ShardCommand::Drain => {
            write_checkpoint(sm, ctx.last_seq, ctx);
            // The drain contract is "final checkpoint durable when the
            // worker exits"; wait out the background rotation.
            ctx.writer.flush();
            publish_stats(sm, ctx.last_seq, ctx.shared);
            Flow::Drained
        }
    }
}

/// Publishes the alarms one data command produced (shed victims first,
/// then the scoring alarm — the same order a monolithic monitor reports
/// them). Alarms at or below the suppression watermark were already
/// published by a previous incarnation and are dropped.
fn publish(
    shared: &ShardShared,
    seq: u64,
    shard: usize,
    shed: Vec<ibcm_core::StreamAlarm>,
    alarm: Option<ibcm_core::StreamAlarm>,
    suppress_through: u64,
) {
    if seq <= suppress_through {
        return;
    }
    if shed.is_empty() && alarm.is_none() {
        return;
    }
    let mut outputs = shared.outputs.lock().unwrap_or_else(|e| e.into_inner());
    for a in shed {
        outputs.push(MergedAlarm {
            seq,
            shard,
            alarm: a,
        });
    }
    if let Some(a) = alarm {
        outputs.push(MergedAlarm {
            seq,
            shard,
            alarm: a,
        });
    }
}

/// Post-command bookkeeping: the processed watermark (release-ordered
/// after outputs) and the checkpoint cadence.
fn finish_data(sm: &StreamMonitor<'_>, seq: u64, ctx: &mut WorkerCtx<'_>) {
    ctx.last_seq = seq;
    ctx.shared.processed.store(seq, Ordering::Release);
    ctx.since_checkpoint += 1;
    if ctx.checkpoint_every > 0 && ctx.since_checkpoint >= ctx.checkpoint_every {
        ctx.since_checkpoint = 0;
        write_checkpoint(sm, seq, ctx);
    }
}

fn publish_stats(sm: &StreamMonitor<'_>, processed: u64, shared: &ShardShared) {
    let snapshot = ShardStats {
        counters: sm.fault_counters(),
        sessions_started: sm.sessions_started(),
        sessions_ended: sm.sessions_ended(),
        active_sessions: sm.active_sessions(),
        processed,
    };
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    *stats = snapshot;
}

/// Snapshots the monitor and hands the bytes to the shard's background
/// writer, which performs the rotation off the ingest path.
fn write_checkpoint(sm: &StreamMonitor<'_>, covered_seq: u64, ctx: &WorkerCtx<'_>) {
    ctx.writer.submit(covered_seq, sm.checkpoint(), ctx.metrics);
}
