//! Fixture: the conc-relaxed-undocumented (C) rule fires on Relaxed
//! atomics lacking an `// ordering:` justification in an atomic protocol
//! file. Scanned by `lint_fixtures.rs` as `crates/served/src/queue.rs`;
//! never compiled.

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
    // ibcm-lint: allow(conc-relaxed-undocumented, reason = "fixture demonstrating suppression")
    depth.load(Ordering::Relaxed)
}
