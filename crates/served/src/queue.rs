//! The bounded per-shard ingest queue.
//!
//! Single-producer (the supervisor thread), single-consumer (the shard
//! worker) by contract: a mutex-guarded `VecDeque` with `not_empty` /
//! `not_full` condvars and an exact capacity bound. The producer side
//! never blocks indefinitely on a dead consumer: the full-queue wait
//! re-checks the shard's crashed flag every 5 ms, so a crashed worker
//! needs to signal nothing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::shard::{WORKER_CRASHED, WORKER_CRASHED_ON_RESTORE};

/// Result of a blocking push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// The command was enqueued.
    Pushed,
    /// The consumer crashed; the command was not enqueued.
    Crashed,
}

/// Result of a non-blocking push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryPushOutcome {
    /// The command was enqueued.
    Pushed,
    /// The queue was at capacity.
    Full,
    /// The consumer crashed; the command was not enqueued.
    Crashed,
}

/// A bounded FIFO between the supervisor and one shard worker.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Mirror of the queue depth, maintained under the lock but readable
    /// without it, so metric scraping never contends with the hot path.
    depth: AtomicUsize,
}

fn worker_dead(state: &AtomicU8) -> bool {
    let s = state.load(Ordering::Acquire);
    s == WORKER_CRASHED || s == WORKER_CRASHED_ON_RESTORE
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes the post-mutation depth. Called with the lock held, so
    /// the stored value is exact at the moment of the store.
    fn publish_depth(&self, q: &VecDeque<T>) {
        // ordering: Relaxed — a monitoring mirror; readers make no
        // synchronization decisions from it.
        self.depth.store(q.len(), Ordering::Relaxed);
    }

    /// Current queue depth, from the lock-free mirror.
    pub(crate) fn len(&self) -> usize {
        // ordering: Relaxed — see `publish_depth`.
        self.depth.load(Ordering::Relaxed)
    }

    /// Blocking push: waits for a free slot, aborting if the consumer's
    /// state flips to crashed (a crashed worker never pops again; its
    /// queue contents are superseded by the supervisor's replay buffer).
    pub(crate) fn push(&self, item: T, worker_state: &AtomicU8) -> PushOutcome {
        let mut q = self.lock();
        loop {
            if worker_dead(worker_state) {
                return PushOutcome::Crashed;
            }
            if q.len() < self.capacity {
                q.push_back(item);
                self.publish_depth(&q);
                self.not_empty.notify_one();
                return PushOutcome::Pushed;
            }
            // Bounded wait so a crash that happens mid-wait is noticed
            // without requiring the dead consumer to signal.
            let (guard, _) = self
                .not_full
                .wait_timeout(q, Duration::from_millis(5))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }

    /// Non-blocking push.
    pub(crate) fn try_push(&self, item: T, worker_state: &AtomicU8) -> TryPushOutcome {
        if worker_dead(worker_state) {
            return TryPushOutcome::Crashed;
        }
        let mut q = self.lock();
        if q.len() < self.capacity {
            q.push_back(item);
            self.publish_depth(&q);
            self.not_empty.notify_one();
            TryPushOutcome::Pushed
        } else {
            TryPushOutcome::Full
        }
    }

    /// Blocking single-item pop: the one-command reference the batch
    /// semantics of [`BoundedQueue::pop_batch`] are tested against.
    #[cfg(test)]
    pub(crate) fn pop(&self) -> T {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.pop_front() {
                self.publish_depth(&q);
                self.not_full.notify_one();
                return item;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking batched pop: waits until at least one item is queued,
    /// then moves up to `max` into `out` under a single lock acquisition.
    pub(crate) fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let max = max.max(1);
        let mut q = self.lock();
        loop {
            if !q.is_empty() {
                let mut n = 0;
                while n < max {
                    let Some(item) = q.pop_front() else {
                        break;
                    };
                    out.push(item);
                    n += 1;
                }
                self.publish_depth(&q);
                self.not_full.notify_one();
                return n;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::Arc;

    use crate::shard::WORKER_RUNNING;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        let state = AtomicU8::new(WORKER_RUNNING);
        assert_eq!(q.try_push(1, &state), TryPushOutcome::Pushed);
        assert_eq!(q.try_push(2, &state), TryPushOutcome::Pushed);
        assert_eq!(q.try_push(3, &state), TryPushOutcome::Full);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), 1);
        assert_eq!(q.pop(), 2);
    }

    #[test]
    fn push_aborts_on_crashed_consumer() {
        let q = BoundedQueue::new(1);
        let state = AtomicU8::new(WORKER_RUNNING);
        assert_eq!(q.push(1, &state), PushOutcome::Pushed);
        state.store(WORKER_CRASHED, Ordering::Release);
        assert_eq!(q.push(2, &state), PushOutcome::Crashed);
        assert_eq!(q.try_push(2, &state), TryPushOutcome::Crashed);
    }

    #[test]
    fn blocking_push_wakes_on_crash_flag() {
        let q = Arc::new(BoundedQueue::new(1));
        let state = Arc::new(AtomicU8::new(WORKER_RUNNING));
        q.push(1, &state);
        let q2 = Arc::clone(&q);
        let s2 = Arc::clone(&state);
        let h = std::thread::spawn(move || q2.push(2, &s2));
        std::thread::sleep(Duration::from_millis(20));
        state.store(WORKER_CRASHED, Ordering::Release);
        assert_eq!(h.join().unwrap(), PushOutcome::Crashed);
    }

    #[test]
    fn pop_batch_drains_runs_and_tracks_depth() {
        let q = BoundedQueue::new(8);
        let state = AtomicU8::new(WORKER_RUNNING);
        for i in 0..5 {
            q.try_push(i, &state);
        }
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        out.clear();
        assert_eq!(q.pop_batch(&mut out, 16), 2);
        assert_eq!(out, vec![3, 4]);
        assert_eq!(q.len(), 0);
    }
}

/// Model-based and threaded property tests.
#[cfg(test)]
mod props {
    use super::*;
    use std::sync::Arc;

    use proptest::prelude::*;

    use crate::shard::WORKER_RUNNING;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u16),
        Pop(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u16>().prop_map(Op::Push),
            (1usize..5).prop_map(Op::Pop),
        ]
    }

    proptest! {
        /// Single-threaded: every interleaving of try_push/pop_batch
        /// matches a bounded VecDeque model exactly (contents, outcomes,
        /// the exact capacity bound, and the depth mirror). Pops are only
        /// issued against a non-empty model, since `pop_batch` blocks.
        #[test]
        fn matches_vecdeque_model(
            capacity in 1usize..9,
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let q = BoundedQueue::new(capacity);
            let state = AtomicU8::new(WORKER_RUNNING);
            let mut model: VecDeque<u16> = VecDeque::new();
            for op in ops {
                match op {
                    Op::Push(v) => {
                        let expect = if model.len() < capacity {
                            model.push_back(v);
                            TryPushOutcome::Pushed
                        } else {
                            TryPushOutcome::Full
                        };
                        prop_assert_eq!(q.try_push(v, &state), expect);
                    }
                    Op::Pop(max) if !model.is_empty() => {
                        let mut got = Vec::new();
                        let n = q.pop_batch(&mut got, max);
                        let want: Vec<u16> =
                            (0..max.min(model.len())).filter_map(|_| model.pop_front()).collect();
                        prop_assert_eq!(n, want.len());
                        prop_assert_eq!(got, want);
                    }
                    Op::Pop(_) => {}
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }

        /// Two-threaded: a blocking producer racing a batched consumer
        /// transfers every item in FIFO order, across capacities and
        /// batch widths that force both the full and the empty wait.
        #[test]
        fn threaded_transfer_is_fifo(
            capacity in 1usize..8,
            batch in 1usize..6,
            items in proptest::collection::vec(any::<u16>(), 1..300),
        ) {
            let q = Arc::new(BoundedQueue::new(capacity));
            let state = Arc::new(AtomicU8::new(WORKER_RUNNING));
            let total = items.len();
            let sent = items.clone();
            let producer = {
                let q = Arc::clone(&q);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    for item in sent {
                        assert_eq!(q.push(item, &state), PushOutcome::Pushed);
                    }
                })
            };
            let mut got = Vec::with_capacity(total);
            let mut run = Vec::new();
            while got.len() < total {
                run.clear();
                let n = q.pop_batch(&mut run, batch);
                assert!(n >= 1 && n <= batch);
                got.extend_from_slice(&run);
            }
            producer.join().unwrap();
            prop_assert_eq!(got, items);
        }

        /// Crash under contention: flipping the worker state mid-stream
        /// makes the blocked producer abort within its poll interval, and
        /// whatever was pushed before the abort arrives in FIFO order
        /// with nothing duplicated or invented.
        #[test]
        fn crash_flag_aborts_blocked_producer(
            capacity in 1usize..5,
            crash_after in 0usize..40,
        ) {
            let q = Arc::new(BoundedQueue::new(capacity));
            let state = Arc::new(AtomicU8::new(WORKER_RUNNING));
            let producer = {
                let q = Arc::clone(&q);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    // More items than the consumer will ever drain, so the
                    // producer is reliably blocked when the crash lands.
                    let mut pushed = 0u32;
                    for i in 0..10_000u32 {
                        match q.push(i, &state) {
                            PushOutcome::Pushed => pushed += 1,
                            PushOutcome::Crashed => break,
                        }
                    }
                    pushed
                })
            };
            // Consume a bounded prefix, then crash the "worker".
            let mut got: Vec<u32> = Vec::new();
            let mut run = Vec::new();
            while got.len() < crash_after {
                run.clear();
                q.pop_batch(&mut run, 4);
                got.extend_from_slice(&run);
            }
            state.store(WORKER_CRASHED, Ordering::Release);
            let pushed = producer.join().unwrap();
            // The producer has exited, so the depth mirror is exact: drain
            // the leftovers. The combined stream must be exactly
            // 0..pushed in order.
            while q.len() > 0 {
                run.clear();
                q.pop_batch(&mut run, 64);
                got.extend_from_slice(&run);
            }
            let expect: Vec<u32> = (0..pushed).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
