//! Output digest: one 64-bit FNV-1a hash per output of the online detector,
//! for checking that a change to the scoring path keeps every output bit.
//! Run it on two checkouts and compare the lines:
//!
//! ```sh
//! IBCM_SCALE=default cargo run --release -p ibcm-bench --bin output_digest
//! ```
//!
//! The outputs, one line each on stdout (`name digest bytes`):
//!
//! - `ibcd`: the trained detector's `IBCD` bytes;
//! - `monitor_events`: the Debug text of every `MonitorEvent` of
//!   `OnlineMonitor` (`trend_window: 4`) over every session of two held-out
//!   datasets, with every 11th action out of vocabulary;
//! - `stream_outcomes`: the Debug text of every `ObserveOutcome` of a default
//!   `StreamMonitor` over `chaos::event_stream` of the first held-out
//!   dataset after `inject_unknown_actions`;
//! - `checkpoints`: that stream's `IBCS` checkpoints, taken every 997 events
//!   and at the end;
//! - `offline_verdicts`: the Debug text of every `score_sessions` verdict
//!   over every session of both held-out datasets, with every 11th action
//!   out of vocabulary, at the pipeline's `effective_parallelism()`.
//!
//! The scale and seed come from `IBCM_SCALE` and `IBCM_SEED`, the thread
//! count from `IBCM_THREADS`; every line is the same at any thread count.
//! LSTM training is cut to 2 epochs, as in the benchmark's model: the digest
//! compares bits, not detection quality. Progress goes to stderr; no file is
//! written.

use std::fmt::Write as _;

use ibcm_bench::{seed_from_env, Scale};
use ibcm_core::chaos::{event_stream, inject_unknown_actions};
use ibcm_core::{AlarmPolicy, Pipeline, StreamConfig};
use ibcm_logsim::{ActionId, Generator};

/// 64-bit FNV-1a over everything written to it, as bytes or as text.
struct Fnv1a {
    hash: u64,
    bytes: usize,
}

impl Fnv1a {
    fn new() -> Self {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += data.len();
    }

    fn print(&self, name: &str) {
        println!("{name:<16} {:016x} {} bytes", self.hash, self.bytes);
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    eprintln!("[ibcm] output_digest scale={} seed={seed}", scale.label());
    let mut config = scale.pipeline_config(seed);
    config.lm.epochs = 2;
    let threads = config.effective_parallelism();
    let trained =
        Pipeline::new(config).train(&Generator::new(scale.generator_config(seed)).generate())?;
    let detector = trained.detector();
    let vocab = detector.vocab_size();
    let held_out =
        [seed + 1, seed + 2].map(|s| Generator::new(scale.generator_config(s)).generate());

    let mut ibcd = Fnv1a::new();
    ibcd.update(&detector.to_bytes());
    ibcd.print("ibcd");

    let policy = AlarmPolicy {
        trend_window: 4,
        ..AlarmPolicy::default()
    };
    // Every 11th action of the held-out sessions, counted across them, is
    // out of vocabulary.
    let mut n = 0usize;
    let sessions: Vec<Vec<ActionId>> = held_out
        .iter()
        .flat_map(|d| d.sessions())
        .map(|session| {
            session
                .actions()
                .iter()
                .map(|&action| {
                    let action = if n.is_multiple_of(11) {
                        ActionId(vocab + n % 7)
                    } else {
                        action
                    };
                    n += 1;
                    action
                })
                .collect()
        })
        .collect();

    let mut events = Fnv1a::new();
    for session in &sessions {
        let mut monitor = detector.monitor(policy);
        for &action in session {
            writeln!(events, "{:?}", monitor.feed(action))?;
        }
    }
    events.print("monitor_events");

    let mut stream = event_stream(&held_out[0]);
    inject_unknown_actions(&mut stream, 200, vocab, 5);
    let mut monitor = detector.stream_monitor(StreamConfig::default());
    let mut outcomes = Fnv1a::new();
    let mut checkpoints = Fnv1a::new();
    for (i, &event) in stream.iter().enumerate() {
        writeln!(outcomes, "{:?}", monitor.ingest(event))?;
        if (i + 1).is_multiple_of(997) {
            checkpoints.update(&monitor.checkpoint());
        }
    }
    checkpoints.update(&monitor.checkpoint());
    outcomes.print("stream_outcomes");
    checkpoints.print("checkpoints");

    let mut verdicts = Fnv1a::new();
    for verdict in detector.score_sessions(&sessions, threads) {
        writeln!(verdicts, "{verdict:?}")?;
    }
    verdicts.print("offline_verdicts");
    Ok(())
}
