//! Supervised sharded monitoring daemon for the ibcm pipeline.
//!
//! `ibcm-served` turns the batch-oriented [`ibcm_core::StreamMonitor`] into
//! a long-running process: the live session table is partitioned across N
//! deterministic shards keyed by user id, each shard an independent
//! `StreamMonitor` on its own supervised worker thread with a bounded
//! ingest queue, per-shard `IBCS` checkpoint rotation (keep-K with
//! checksum-validated retention), and a deterministic merged alarm stream.
//!
//! # The headline invariant
//!
//! The merged alarm stream is **byte-identical at any shard count and
//! across any injected crash/restart schedule**. Three mechanisms combine
//! to make that true:
//!
//! 1. **One session directory.** Every event is planned and committed
//!    on the supervisor thread, *before* routing, against one
//!    [`ibcm_core::SessionDirectory`] — the type a monolithic
//!    `StreamMonitor` decides with: the stream clock, fault
//!    classification, timeouts, capacity victims and session ends. Shards
//!    apply the admissions they are sent and shed the victims they are
//!    named; they decide nothing, so no decision depends on the
//!    partition.
//! 2. **Global sequence numbers.** Every data command (event delivery or
//!    targeted shed) carries the next global sequence number; the merged
//!    stream releases alarms in sequence order once every shard has
//!    processed past them. Control commands (kill, drain) carry no
//!    sequence number, so a chaos schedule never perturbs data ordering.
//! 3. **Checkpoint + suppressed replay.** A crashed shard restarts from
//!    its newest checksum-valid checkpoint and deterministically replays
//!    the commands the checkpoint had not absorbed, suppressing re-emission
//!    of alarms that were already published before the crash.
//!
//! # Supervision
//!
//! Shard panics (including deliberate chaos kills) are caught at a
//! `catch_unwind` boundary in the worker; the supervisor joins the dead
//! thread, applies bounded exponential backoff, picks the newest valid
//! checkpoint generation (falling back across corrupted generations), and
//! respawns the worker. A shard that keeps crashing without making
//! progress is marked failed after a configurable number of restarts.
//! Queue overflow surfaces as [`ServeError::Backpressure`] from
//! [`Daemon::try_ingest`] — explicit backpressure in the spirit of the
//! [`ibcm_core::FaultPolicy`] shedding machinery.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use ibcm_core::{Pipeline, PipelineConfig, StreamConfig};
//! use ibcm_served::{CheckpointStore, Daemon, ServedConfig};
//! # use ibcm_logsim::{Generator, GeneratorConfig};
//! let dataset = Generator::new(GeneratorConfig::tiny(1)).generate();
//! let trained = Pipeline::new(PipelineConfig::test_profile(1)).train(&dataset)?;
//! let detector = Arc::new(trained.detector().clone());
//! let config = ServedConfig::new(StreamConfig::default()).with_shards(4);
//! let mut daemon = Daemon::new(detector, config, CheckpointStore::memory())?;
//! for event in ibcm_core::chaos::event_stream(&dataset) {
//!     daemon.ingest(event)?;
//!     for merged in daemon.poll_alarms() {
//!         println!("{:06} {:?}", merged.seq, merged.alarm);
//!     }
//! }
//! let report = daemon.drain()?;
//! println!("drained: {} events, {} restarts", report.events, report.restarts);
//! # Ok::<(), ibcm_served::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod campaign;
mod config;
mod error;
mod metrics;
mod queue;
mod rotation;
mod shard;
mod supervisor;
mod writer;

pub use campaign::{run_campaign, CampaignReport};
pub use config::ServedConfig;
pub use error::ServeError;
pub use rotation::CheckpointStore;
pub use supervisor::{shard_of, Daemon, DrainReport, MergedAlarm};
