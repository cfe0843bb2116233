//! The workspace's one sanctioned monotonic-clock handle.
//!
//! The workspace `clippy.toml` disallows `Instant::now()` and
//! `SystemTime::now()` outside `ibcm-obs` and `ibcm-bench`: a clock read in
//! a model crate is one refactor away from leaking into model bytes or
//! alarm decisions. Model crates that need stage timings for telemetry take
//! them through [`Stopwatch`] instead — the value lives on the observe-only
//! side by construction, and the call sites lint clean.

use std::time::Instant;

/// A started monotonic stopwatch. Read it with
/// [`elapsed_seconds`](Stopwatch::elapsed_seconds) and feed the result to a
/// metrics histogram. The HTTP transport also uses one to abandon a request
/// that takes too long to arrive; nothing that reaches a model byte, an
/// alarm or a response byte should be derived from it.
///
/// # Example
///
/// ```
/// let sw = ibcm_obs::Stopwatch::start();
/// let secs = sw.elapsed_seconds();
/// assert!(secs >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`]. Monotonic, never
    /// negative.
    #[inline]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
