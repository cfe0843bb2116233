//! The open-loop load generator.
//!
//! Events are due at a fixed rate whatever the server does, and each
//! event's latency is measured from when it was *due*, not from when it
//! was sent: a stalled request delays every event queued behind it, and
//! that wait is charged to those events (no coordinated omission).

use std::ops::Range;
use std::time::Duration;

use ibcm_obs::Stopwatch;

/// A monotonic clock in seconds. The load generator runs on
/// [`WallClock`]; tests drive it with a simulated one.
pub trait Clock {
    /// Seconds since the clock's origin.
    fn now(&self) -> f64;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: f64);
}

/// The real clock: seconds since the clock was created.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Stopwatch);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock(Stopwatch::start())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed_seconds()
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// An open-loop schedule: `events` events due uniformly at `rate_per_s`,
/// flushed every `tick_s` in requests of at most `max_batch` events.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Offered load in events per second.
    pub rate_per_s: f64,
    /// Send cadence in seconds.
    pub tick_s: f64,
    /// Largest request, in events.
    pub max_batch: usize,
    /// Wait before resubmitting a backpressured suffix, in seconds.
    pub retry_s: f64,
    /// An event not admitted this long after its first rejection fails.
    pub admit_timeout_s: f64,
}

/// What one open-loop pass measured. Times are in seconds.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopResult {
    /// Clock reading when event 0 was due.
    pub start: f64,
    /// Per event: due time → response of the request that admitted it
    /// (`NaN` for events that failed).
    pub ack: Vec<f64>,
    /// Per event: due time → start of the request that first carried it.
    pub late: Vec<f64>,
    /// Requests made, retries included.
    pub requests: usize,
    /// Requests answered with backpressure (only a prefix admitted).
    pub backpressured: usize,
    /// Events never admitted: a failed request, or no admission within
    /// `admit_timeout_s`.
    pub failed_events: usize,
}

impl OpenLoop {
    /// Offset of event `i`'s due time from the schedule start.
    pub fn due(&self, i: usize) -> f64 {
        i as f64 / self.rate_per_s
    }

    /// Runs the schedule for `events` events. `send(range)` makes one
    /// request carrying events `range` and returns how many of them, as a
    /// prefix, were admitted; `Err` fails the whole request.
    pub fn run(
        &self,
        clock: &impl Clock,
        events: usize,
        mut send: impl FnMut(Range<usize>) -> Result<usize, String>,
    ) -> OpenLoopResult {
        let start = clock.now();
        let mut r = OpenLoopResult {
            start,
            ack: vec![f64::NAN; events],
            late: vec![f64::NAN; events],
            ..OpenLoopResult::default()
        };
        let mut sent = 0;
        let mut blocked_since: Option<f64> = None;
        let mut tick = 0u64;
        while sent < events {
            clock.sleep_until(start + tick as f64 * self.tick_s);
            let now = clock.now();
            let due_now = (((now - start) * self.rate_per_s).floor() as usize + 1).min(events);
            while sent < due_now {
                let hi = (sent + self.max_batch).min(due_now);
                let begun = clock.now();
                for j in sent..hi {
                    if r.late[j].is_nan() {
                        r.late[j] = begun - start - self.due(j);
                    }
                }
                r.requests += 1;
                let admitted = match send(sent..hi) {
                    Ok(n) => n.min(hi - sent),
                    Err(_) => {
                        r.failed_events += hi - sent;
                        sent = hi;
                        continue;
                    }
                };
                let answered = clock.now();
                for j in sent..sent + admitted {
                    r.ack[j] = answered - start - self.due(j);
                }
                sent += admitted;
                if sent == hi {
                    blocked_since = None;
                    continue;
                }
                r.backpressured += 1;
                let since = *blocked_since.get_or_insert(answered);
                if answered - since > self.admit_timeout_s {
                    r.failed_events += hi - sent;
                    sent = hi;
                    blocked_since = None;
                } else {
                    clock.sleep_until(answered + self.retry_s);
                }
            }
            tick = ((clock.now() - start) / self.tick_s).floor() as u64 + 1;
        }
        r
    }
}
