//! `ibcm-par` — the deterministic scoped worker pool shared by every
//! parallel stage of the pipeline, plus the managed registry for
//! long-lived worker threads.
//!
//! Four call sites use this crate and nothing else for parallelism: the
//! LDA ensemble (`ibcm-topics`), per-cluster model training
//! (`ibcm-core::Pipeline::train_clustered`), batch session scoring
//! (`ibcm-core::MisuseDetector::score_sessions`), and the `ibcm-served`
//! daemon's shard workers and checkpoint writers ([`spawn_managed`]).
//! Centralizing the idiom keeps the threading model analyzable in one
//! place; DESIGN.md's "Parallelism & determinism" section documents the
//! contract.
//!
//! # Determinism contract
//!
//! Every function here guarantees **bit-identical results at any thread
//! count**, including 1. Two properties make this hold:
//!
//! 1. *Jobs are self-seeded.* Callers derive any randomness from a
//!    per-job seed (e.g. `seed.wrapping_add(job_index)`) **before**
//!    submitting the job; no job reads shared mutable state.
//! 2. *Results are index-addressed.* Workers race only over **which** job
//!    they pull (an atomic counter); each result is written to the slot of
//!    its input index, so the output `Vec` is always in input order no
//!    matter how the schedule interleaved.
//!
//! Thread-count selection (the `IBCM_THREADS` environment variable,
//! [`default_threads`]) therefore affects wall-clock time only, never
//! output bytes.
//!
//! # Example
//!
//! ```
//! let squares = ibcm_par::run_jobs(
//!     4,
//!     (0..8u64).map(|i| move || i * i).collect::<Vec<_>>(),
//! );
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
// Redundant while unsafe_code is forbidden outright, but keeps the
// contract explicit if the pool ever needs an opt-in unsafe region: any
// future `unsafe fn` here must still structure its unsafe operations in
// commented blocks.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the `IBCM_THREADS` environment variable if it
/// parses to a positive integer, otherwise the machine's available
/// parallelism minus the threads already pinned to long-lived managed
/// workers ([`spawn_managed`]), and at least 1.
///
/// The subtraction is what lets a sharded daemon and scoring-time pool
/// usage compose: a process running N shard workers hands the scoring
/// pool the *remaining* cores instead of oversubscribing the machine.
/// An explicit `IBCM_THREADS` always wins — the operator asked for it.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("IBCM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    machine.saturating_sub(managed_active()).max(1)
}

/// Live threads spawned through [`spawn_managed`] that have not yet
/// exited. Never touched by the scoped pools below.
static MANAGED_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Number of live managed worker threads in this process.
pub fn managed_active() -> usize {
    MANAGED_ACTIVE.load(Ordering::Relaxed)
}

/// Decrements the managed-worker count when the thread body finishes —
/// by return or by unwind — so the accounting cannot leak on panic.
struct ActiveGuard;

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        MANAGED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Handle to a long-lived worker thread spawned via [`spawn_managed`].
///
/// Unlike the scoped pools above, managed workers outlive the spawning
/// call; the handle is how the owner joins them at shutdown. Dropping the
/// handle detaches the thread (it keeps running and still decrements the
/// registry when it exits).
#[derive(Debug)]
pub struct ManagedHandle {
    join: std::thread::JoinHandle<()>,
}

impl ManagedHandle {
    /// Waits for the worker to finish. A worker that panicked past its own
    /// `catch_unwind` boundary surfaces here as `Err`, mirroring
    /// [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<()> {
        self.join.join()
    }

    /// Whether the worker has exited (successfully or by panic).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }
}

/// Spawns a named long-lived worker thread registered with the managed
/// pool. The registry feeds [`default_threads`]: while the worker lives,
/// scoped-pool defaults shrink by one so daemon shards and scoring jobs
/// share the machine instead of oversubscribing it.
///
/// # Errors
///
/// Propagates the OS spawn failure, with the registry left unchanged.
pub fn spawn_managed<F>(name: impl Into<String>, f: F) -> std::io::Result<ManagedHandle>
where
    F: FnOnce() + Send + 'static,
{
    MANAGED_ACTIVE.fetch_add(1, Ordering::Relaxed);
    let result = std::thread::Builder::new().name(name.into()).spawn(move || {
        let _guard = ActiveGuard;
        f();
    });
    match result {
        Ok(join) => Ok(ManagedHandle { join }),
        Err(e) => {
            // The thread never existed; undo the optimistic increment.
            MANAGED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

/// Runs `jobs` on up to `threads` scoped worker threads and returns their
/// results **in input order**.
///
/// `threads` is clamped to `[1, jobs.len()]`; with one effective worker
/// the jobs run inline on the calling thread with no pool overhead.
/// Workers pull job indices from a shared atomic counter (dynamic load
/// balancing — a slow job does not hold up the queue behind it) and write
/// each result into the slot of its job index, which is what makes the
/// output independent of scheduling.
///
/// # Panics
///
/// If a job panics the panic is propagated to the caller once the scope
/// joins, matching the behavior of running the jobs inline. Fallible jobs
/// should return `Result` and let the caller fold errors instead (see
/// `Pipeline::train_clustered`).
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let job_slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = job_slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each job index is claimed exactly once");
                let out = job();
                *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// Maps `f` over `items` on up to `threads` workers, returning outputs in
/// input order.
///
/// Items are claimed in contiguous chunks (about eight chunks per worker)
/// to amortize counter contention when items are cheap; chunking affects
/// scheduling only, never results, because outputs remain index-addressed.
/// `f` receives `(index, &item)` so callers can derive per-item seeds or
/// labels from the stable input position.
// ibcm-lint: allow(transitive-panic, reason = "the chunk loop clamps i < n and every slot is filled before the scope joins")
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = (n / (threads * 8)).max(1);
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) =
                        Some(f(i, &items[i]));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every chunk stores its results")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_input_order() {
        // Stagger job durations so completion order differs from input
        // order; results must still come back in input order.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    if i % 4 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 10
                }
            })
            .collect();
        let out = run_jobs(4, jobs);
        assert_eq!(out, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_identical_across_thread_counts() {
        let make_jobs = || {
            (0..40u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9).rotate_left(13))
                .collect::<Vec<_>>()
        };
        let seq = run_jobs(1, make_jobs());
        for threads in [2, 3, 4, 16] {
            assert_eq!(run_jobs(threads, make_jobs()), seq);
        }
    }

    #[test]
    fn run_jobs_handles_empty_and_oversized_pools() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(run_jobs(8, empty).is_empty());
        let out = run_jobs(64, vec![|| 1u8, || 2u8]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let out = run_jobs(0, vec![|| 7u32, || 8u32]);
        assert_eq!(out, vec![7, 8]);
        let mapped = par_map(0, &[1u32, 2, 3], |_, &x| x + 1);
        assert_eq!(mapped, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(par_map(threads, &items, |_, &x| x * x + 1), seq);
        }
    }

    #[test]
    fn par_map_passes_stable_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// Serializes the tests that spawn managed workers: each compares the
    /// process-global `managed_active()` count before and after its own
    /// worker, which a sibling's live worker would skew.
    static MANAGED_TESTS: Mutex<()> = Mutex::new(());

    fn managed_test_lock() -> std::sync::MutexGuard<'static, ()> {
        MANAGED_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn managed_workers_are_counted_and_released() {
        let _serial = managed_test_lock();
        let before = managed_active();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = spawn_managed("ibcm-par-test-worker", move || {
            // Hold the slot until the test has observed it.
            rx.recv().ok();
        })
        .unwrap();
        assert_eq!(managed_active(), before + 1);
        assert!(!handle.is_finished());
        tx.send(()).unwrap();
        handle.join().unwrap();
        // The guard decrements on exit; after join the count is back.
        assert_eq!(managed_active(), before);
    }

    #[test]
    fn managed_worker_panic_still_releases_slot() {
        const NAME: &str = "ibcm-par-test-panicker";
        let _serial = managed_test_lock();
        // Keep test output clean: silence the default report for this
        // worker's deliberate panic only, forwarding every other thread's.
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if std::thread::current().name() != Some(NAME) {
                    previous(info);
                }
            }));
        });
        let before = managed_active();
        let handle = spawn_managed(NAME, || panic!("deliberate")).unwrap();
        // The worker really died: its panic surfaces through join, and the
        // unwinding guard released its slot on the way out.
        assert!(handle.join().is_err());
        assert_eq!(managed_active(), before);
    }

    #[test]
    fn default_threads_honors_ibcm_threads_env() {
        // Only valid positive values are set, so the concurrent
        // `default_threads_is_positive` test stays correct throughout.
        let saved = std::env::var("IBCM_THREADS").ok();
        std::env::set_var("IBCM_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("IBCM_THREADS", " 12 ");
        assert_eq!(default_threads(), 12, "whitespace is trimmed");
        match saved {
            Some(v) => std::env::set_var("IBCM_THREADS", v),
            None => std::env::remove_var("IBCM_THREADS"),
        }
        assert!(default_threads() >= 1);
    }
}
