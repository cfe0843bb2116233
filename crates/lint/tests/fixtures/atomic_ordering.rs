//! Fixture: the unsafe-ordering-undocumented (U) rule fires on Relaxed
//! atomics lacking an `// ordering:` justification in a designated
//! lock-free module. Scanned by `lint_fixtures.rs` as
//! `crates/served/src/queue.rs`; never compiled.

fn undocumented(depth: &AtomicUsize) -> usize {
    depth.load(Ordering::Relaxed)
}

fn documented_same_line(depth: &AtomicUsize) -> usize {
    depth.load(Ordering::Relaxed) // ordering: monitoring gauge only.
}

fn documented_above(depth: &AtomicUsize, n: usize) {
    // ordering: Relaxed — single-writer cursor; the writer always sees
    // its own latest value.
    depth.store(n, Ordering::Relaxed);
}

fn stronger_orderings_exempt(head: &AtomicUsize, n: usize) {
    head.store(n, Ordering::Release);
    let _ = head.load(Ordering::Acquire);
}

fn suppressed(depth: &AtomicUsize) -> usize {
    // ibcm-lint: allow(unsafe-ordering-undocumented, reason = "fixture demonstrating suppression")
    depth.load(Ordering::Relaxed)
}
