//! The background checkpoint writer: takes `IBCQ` frame encoding,
//! tmp-write, read-back validation, and rename off the shard worker's
//! ingest path.
//!
//! # Double-buffered hand-off
//!
//! The worker snapshots its monitor (`StreamMonitor::checkpoint`, the
//! only step that needs the monitor's state and therefore must run on
//! the worker thread) and swaps the bytes into the writer's single
//! pending slot; the writer thread picks the slot up and performs the
//! whole rotation — frame encode, tmp write, checksum read-back,
//! rename, keep-K prune — while the worker goes straight back to
//! popping commands. One snapshot can be in flight and one pending, so
//! a worker only stalls (counted by `ibcm_served_checkpoint_stalls`)
//! when it produces checkpoints faster than the store writes them.
//!
//! # Why every snapshot is still written, in order
//!
//! Crash-restore determinism leans on the generation set: the chaos
//! suites corrupt "the newest generation" and assert exact fallback
//! behavior, and the replay buffer trims to the durable floor. A writer
//! that silently dropped superseded snapshots would make the generation
//! set timing-dependent. So the pending slot is a *blocking* swap
//! buffer, not a conflation buffer: `submit` waits for the slot (never
//! skipping a snapshot), and the supervisor flushes the writer before
//! any restart-time generation read or scheduled corruption. The
//! resulting rotation sequence is byte-for-byte the sequence a writer
//! rotating every snapshot synchronously would have produced.
//!
//! The writer belongs to the *shard*, not the worker incarnation: it
//! survives crashes and restarts, and is joined at drain (or asked to
//! finish and detached on a best-effort `Drop`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::ServeError;
use crate::metrics::ShardMetrics;
use crate::rotation::CheckpointStore;
use crate::shard::ShardShared;

/// One snapshot awaiting rotation.
struct Job {
    covered_seq: u64,
    ibcs: Vec<u8>,
}

#[derive(Default)]
struct State {
    /// The swap buffer: at most one snapshot queued behind the one being
    /// written.
    pending: Option<Job>,
    /// A job is being written right now.
    busy: bool,
    /// Writer asked to exit (after finishing pending work).
    shutdown: bool,
}

/// Shared half of the writer: the worker submits and flushes through
/// this; the writer thread drains it.
pub(crate) struct WriterShared {
    state: Mutex<State>,
    /// Signaled on submit and shutdown.
    work: Condvar,
    /// Signaled when the pending slot frees and when a write completes.
    idle: Condvar,
}

impl WriterShared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues one snapshot, blocking while the swap slot is occupied so
    /// no snapshot is ever dropped (see module docs). During shutdown
    /// the snapshot is discarded instead of blocking — the daemon is
    /// being torn down without a drain, and a worker must never deadlock
    /// against an exiting writer.
    pub(crate) fn submit(&self, covered_seq: u64, ibcs: Vec<u8>, metrics: &ShardMetrics) {
        let mut st = self.lock();
        if st.pending.is_some() {
            metrics.checkpoint_stalls.inc();
        }
        while st.pending.is_some() && !st.shutdown {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.shutdown {
            return;
        }
        st.pending = Some(Job { covered_seq, ibcs });
        self.work.notify_one();
    }

    /// Blocks until nothing is pending or in flight: every submitted
    /// snapshot is durably rotated (or the writer is shutting down).
    pub(crate) fn flush(&self) {
        let mut st = self.lock();
        while (st.pending.is_some() || st.busy) && !st.shutdown {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn request_shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        self.work.notify_one();
        self.idle.notify_all();
    }
}

/// Supervisor-side handle: owns the writer thread.
pub(crate) struct CheckpointWriter {
    shared: Arc<WriterShared>,
    handle: Option<ibcm_par::ManagedHandle>,
}

impl CheckpointWriter {
    /// Spawns the writer thread for one shard on a managed `ibcm-par`
    /// thread (it is long-lived daemon capacity, like the shard workers,
    /// and must be visible to scoring-pool sizing).
    pub(crate) fn spawn(
        shard: usize,
        store: Arc<CheckpointStore>,
        shard_shared: Arc<ShardShared>,
        metrics: ShardMetrics,
        keep: usize,
    ) -> Result<CheckpointWriter, ServeError> {
        let shared = Arc::new(WriterShared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = ibcm_par::spawn_managed(format!("ibcm-ckpt-{shard}"), move || {
            writer_loop(shard, &thread_shared, &store, &shard_shared, &metrics, keep)
        })
        .map_err(ServeError::Spawn)?;
        Ok(CheckpointWriter {
            shared,
            handle: Some(handle),
        })
    }

    /// The handle the worker submits through.
    pub(crate) fn sink(&self) -> Arc<WriterShared> {
        Arc::clone(&self.shared)
    }

    /// Waits until every submitted snapshot is rotated. The supervisor
    /// calls this before any restart-time generation read or scheduled
    /// corruption, which is what keeps crash-restore generation sets
    /// independent of writer timing.
    pub(crate) fn flush(&self) {
        self.shared.flush();
    }

    /// Graceful stop: finish pending work, then join the thread.
    pub(crate) fn shutdown(&mut self) {
        self.shared.request_shutdown();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CheckpointWriter {
    /// Best-effort: ask the thread to exit and detach (a full join is
    /// what [`CheckpointWriter::shutdown`] at drain is for).
    fn drop(&mut self) {
        self.shared.request_shutdown();
    }
}

fn writer_loop(
    shard: usize,
    shared: &WriterShared,
    store: &CheckpointStore,
    shard_shared: &ShardShared,
    metrics: &ShardMetrics,
    keep: usize,
) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = st.pending.take() {
                    st.busy = true;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // The swap slot is free again: a worker stalled in submit can
        // hand over its next snapshot while this one is written.
        shared.idle.notify_all();
        match store.save(shard, job.covered_seq, &job.ibcs, keep) {
            Ok(receipt) => {
                metrics.checkpoints_written.inc();
                shard_shared
                    .durable_floor
                    .store(receipt.oldest_retained, Ordering::Release);
            }
            Err(_) => {
                metrics.checkpoints_failed.inc();
            }
        }
        {
            let mut st = shared.lock();
            st.busy = false;
        }
        shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::CheckpointStore;
    use crate::shard::ShardShared;

    fn writer_fixture() -> (CheckpointWriter, Arc<ShardShared>, Arc<CheckpointStore>) {
        let store = Arc::new(CheckpointStore::memory());
        let shared = Arc::new(ShardShared::new());
        store.reset(0).unwrap();
        let writer = CheckpointWriter::spawn(
            0,
            Arc::clone(&store),
            Arc::clone(&shared),
            ShardMetrics::for_shard(0),
            2,
        )
        .unwrap();
        (writer, shared, store)
    }

    #[test]
    fn every_submitted_snapshot_is_rotated_in_order() {
        let (mut writer, shared, store) = writer_fixture();
        let metrics = ShardMetrics::for_shard(0);
        for seq in 1..=5u64 {
            writer.sink().submit(seq, vec![seq as u8; 16], &metrics);
        }
        writer.flush();
        // keep=2: exactly the two newest generations survive, proving
        // nothing was conflated or reordered.
        assert_eq!(store.generation_seqs(0).unwrap(), vec![4, 5]);
        // The durable floor advanced to the oldest retained generation.
        assert_eq!(shared.durable_floor.load(Ordering::Acquire), 4);
        writer.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_submitters() {
        let (mut writer, _shared, _store) = writer_fixture();
        let metrics = ShardMetrics::for_shard(0);
        writer.shutdown();
        writer.shutdown();
        // Post-shutdown submits and flushes return instead of blocking.
        writer.sink().submit(9, vec![0; 4], &metrics);
        writer.flush();
    }
}
