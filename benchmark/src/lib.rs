//! `ibcm-benchmark` — the repository's end-to-end benchmark of the online
//! detector.
//!
//! One command runs one workload at one seed and prints every metric with
//! its unit, after checking the program's outputs:
//!
//! ```text
//! python3 benchmark/run.py --workload daemon-long --seed 42 --seconds 10 --trace 0
//! ```
//!
//! The benchmark measures each layer from outside: it times its own calls
//! into the layers' public functions and reads counters the program
//! already exports. `README.md` next to this crate explains the
//! workloads, the metrics and the layer → end-to-end mapping.

pub mod loadgen;
pub mod net;
mod probe;
mod replay;
pub mod report;
mod setup;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod workloads;

use ibcm_core::PipelineConfig;
use ibcm_logsim::GeneratorConfig;

use crate::loadgen::OpenLoop;

/// Why a run failed.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line or environment.
    Usage(String),
    /// The program's outputs disagree with the reference: the run is
    /// incorrect and reports no metrics.
    Mismatch(String),
    /// I/O, process or daemon failure.
    Io(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Mismatch(m) => write!(f, "output mismatch: {m}"),
            BenchError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e.to_string())
    }
}

impl From<ibcm_core::CoreError> for BenchError {
    fn from(e: ibcm_core::CoreError) -> Self {
        BenchError::Io(e.to_string())
    }
}

impl From<ibcm_served::ServeError> for BenchError {
    fn from(e: ibcm_served::ServeError) -> Self {
        BenchError::Io(format!("daemon: {e}"))
    }
}

/// The benchmark's workloads. `README.md` says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ibcm-serve` over loopback: open-loop ingest with alarm polling,
    /// then closed-loop saturation.
    HttpIngest,
    /// In-process daemon, long sessions: mostly post-lock-in LSTM steps.
    DaemonLong,
    /// In-process daemon, short sessions: every event votes the router.
    DaemonShort,
    /// Batch scoring of held-out sessions, no daemon.
    OfflineScore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HttpIngest,
        Workload::DaemonLong,
        Workload::DaemonShort,
        Workload::OfflineScore,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpIngest => "http-ingest",
            Workload::DaemonLong => "daemon-long",
            Workload::DaemonShort => "daemon-short",
            Workload::OfflineScore => "offline-score",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of the model every workload serves. The model is the program's
/// configuration, held fixed so that runs at different `--seed`s differ
/// only in their traffic; the trained cluster count (which sets the LSTM
/// steps per event) would otherwise move with the seed.
pub const MODEL_SEED: u64 = 42;

/// HTTP load.
#[derive(Debug, Clone, Copy)]
pub struct HttpLoad {
    /// The open-loop schedule; its request size, retry wait and admission
    /// timeout also apply to the saturation phase.
    pub open_loop: OpenLoop,
    /// Alarm-poll cadence of the second connection, in seconds.
    pub poll_s: f64,
    /// Share of `--seconds` spent in the open-loop phase; the rest is
    /// saturation.
    pub open_share: f64,
    /// Saturation traffic is generated for up to this rate, events/s.
    pub max_saturation_eps: f64,
    /// `/v1/score` verdicts checked against `score_session`.
    pub score_checks: usize,
}

/// Closed-loop daemon load.
#[derive(Debug, Clone, Copy)]
pub struct DaemonLoad {
    /// Leading events left out of the rate and latency figures: the shard
    /// queues fill and the first sessions pass lock-in.
    pub warmup_events: usize,
    /// Events per throughput window; `ops_per_s` is the median window.
    pub window_events: usize,
    /// Concurrent sessions of the interleave (one user id per slot).
    pub slots: usize,
    /// Shortest session length drawn.
    pub min_len: usize,
    /// Longest session length drawn.
    pub max_len: usize,
    /// Daemon shards.
    pub shards: usize,
    /// Per-shard ingest queue capacity.
    pub queue_capacity: usize,
    /// Checkpoint cadence in commands per shard.
    pub checkpoint_every: u64,
    /// Checkpoint generations kept.
    pub keep_checkpoints: usize,
    /// `poll_alarms` after every this-many ingests.
    pub poll_every: usize,
}

/// Offline batch-scoring load.
#[derive(Debug, Clone, Copy)]
pub struct OfflineLoad {
    /// Held-out traffic datasets scored, cycled through.
    pub datasets: u64,
    /// Sessions per `score_sessions` call.
    pub batch: usize,
    /// Leading verdicts checked bit for bit against `score_session`.
    pub checks: usize,
}

/// Every size of a run. Sizes are arguments, not command-line flags:
/// [`Profile::standard`] is what the benchmark measures,
/// [`Profile::test`] a seconds-long miniature for tests.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Dataset generator (training and traffic).
    pub generator: fn(u64) -> GeneratorConfig,
    /// Training pipeline.
    pub pipeline: fn(u64) -> PipelineConfig,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `http-ingest` load.
    pub http: HttpLoad,
    /// `daemon-long` load.
    pub daemon_long: DaemonLoad,
    /// `daemon-short` load.
    pub daemon_short: DaemonLoad,
    /// `offline-score` load.
    pub offline: OfflineLoad,
    /// Leading events of a stream replayed as the correctness reference,
    /// and the stream the traced probes run on.
    pub verify_events: usize,
    /// Events of the traced daemon pass: the probe stream repeated until
    /// it overruns the shard queues.
    pub served_probe_events: usize,
    /// Sessions the traced router/LM probes run on.
    pub probe_sessions: usize,
    /// `/v1/score` calls of the traced HTTP probe.
    pub probe_score_calls: usize,
}

/// The default profile with LSTM training cut to two epochs: the served
/// model has the default profile's shape (about 11 clusters of 64-unit
/// LSTMs over the ~300-action catalog), so per-event cost is the
/// default's, while set-up stays short enough to repeat within a run.
fn standard_pipeline(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::default_profile(seed);
    config.lm.epochs = 2;
    config
}

fn test_pipeline(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::test_profile(seed);
    config.lm.epochs = 2;
    config
}

const DAEMON: DaemonLoad = DaemonLoad {
    warmup_events: 16_384,
    window_events: 4096,
    slots: 256,
    min_len: 60,
    max_len: usize::MAX,
    shards: 4,
    queue_capacity: 1024,
    checkpoint_every: 64,
    keep_checkpoints: 3,
    poll_every: 16,
};

impl Profile {
    /// The measured profile.
    pub fn standard() -> Profile {
        Profile {
            generator: GeneratorConfig::default_scale,
            pipeline: standard_pipeline,
            setup_reps: 3,
            http: HttpLoad {
                open_loop: OpenLoop {
                    rate_per_s: 3000.0,
                    tick_s: 0.005,
                    max_batch: 256,
                    retry_s: 0.001,
                    admit_timeout_s: 5.0,
                },
                poll_s: 0.005,
                open_share: 0.5,
                max_saturation_eps: 40_000.0,
                score_checks: 50,
            },
            daemon_long: DAEMON,
            daemon_short: DaemonLoad {
                warmup_events: 8192,
                window_events: 2048,
                slots: 1024,
                min_len: 1,
                max_len: 15,
                ..DAEMON
            },
            offline: OfflineLoad {
                datasets: 6,
                batch: 96,
                checks: 200,
            },
            verify_events: 3000,
            served_probe_events: 16_000,
            probe_sessions: 100,
            probe_score_calls: 20,
        }
    }

    /// A miniature of [`Profile::standard`] for tests.
    pub fn test() -> Profile {
        let standard = Profile::standard();
        Profile {
            generator: GeneratorConfig::tiny,
            pipeline: test_pipeline,
            setup_reps: 2,
            http: HttpLoad {
                open_loop: OpenLoop {
                    rate_per_s: 2000.0,
                    ..standard.http.open_loop
                },
                max_saturation_eps: 4000.0,
                score_checks: 5,
                ..standard.http
            },
            daemon_long: DaemonLoad {
                warmup_events: 400,
                window_events: 200,
                slots: 16,
                min_len: 30,
                ..standard.daemon_long
            },
            daemon_short: DaemonLoad {
                warmup_events: 300,
                window_events: 100,
                slots: 32,
                ..standard.daemon_short
            },
            offline: OfflineLoad {
                datasets: 1,
                batch: 32,
                checks: 20,
            },
            verify_events: 300,
            served_probe_events: 1000,
            probe_sessions: 10,
            probe_score_calls: 3,
        }
    }

    /// The daemon load of a daemon workload.
    pub fn daemon(&self, workload: Workload) -> DaemonLoad {
        match workload {
            Workload::DaemonShort => self.daemon_short,
            _ => self.daemon_long,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    /// A metric from one measurement.
    pub fn one(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: 1,
        }
    }
}

/// Named values recorded in the run file for context, not compared
/// across runs.
pub type Context = Vec<(&'static str, f64)>;

/// Everything one run produced. A run that fails the correctness gate
/// produces none of this: its workload function returns
/// [`BenchError::Mismatch`].
#[derive(Debug)]
pub struct RunOutput {
    /// Operations attempted (events, requests, sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context recorded in the run file.
    pub extra: Context,
    /// Spans of the traced run.
    pub tracer: trace::Tracer,
}
