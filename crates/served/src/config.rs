//! Daemon configuration: shard topology, queue bounds, checkpoint
//! rotation, and restart/backoff policy.

use ibcm_core::StreamConfig;

/// Configuration for [`Daemon`](crate::Daemon).
///
/// The defaults are sized for tests and small deployments; production
/// knobs are documented in OPERATIONS.md ("Running the sharded daemon").
#[derive(Debug, Clone)]
pub struct ServedConfig {
    /// Number of shards. Clamped to at least 1 at daemon construction —
    /// the honest singleton fallback: a one-shard daemon is a plain
    /// supervised `StreamMonitor`, not an error.
    pub shards: usize,
    /// Bounded capacity of each shard's ingest queue. [`Daemon::ingest`]
    /// blocks when the target queue is full; [`Daemon::try_ingest`]
    /// returns [`ServeError::Backpressure`] instead.
    ///
    /// [`Daemon::ingest`]: crate::Daemon::ingest
    /// [`Daemon::try_ingest`]: crate::Daemon::try_ingest
    /// [`ServeError::Backpressure`]: crate::ServeError::Backpressure
    pub queue_capacity: usize,
    /// Checkpoint cadence: a shard writes an `IBCS` checkpoint after this
    /// many processed data commands. `0` disables cadence checkpoints
    /// (a final checkpoint is still written on drain).
    pub checkpoint_every: u64,
    /// Keep-K retention: how many checkpoint generations each shard
    /// retains. Rotation never prunes below one valid generation.
    pub keep_checkpoints: usize,
    /// Consecutive no-progress restarts after which a shard is marked
    /// failed (it stops being restarted and is excluded from the merge
    /// barrier). Progress — any advance of the shard's processed
    /// sequence — resets the count.
    pub max_restarts: u32,
    /// Base of the exponential restart backoff, in milliseconds
    /// (`base * 2^(restarts-1)`, capped by [`backoff_cap_ms`]).
    ///
    /// [`backoff_cap_ms`]: ServedConfig::backoff_cap_ms
    pub backoff_base_ms: u64,
    /// Upper bound on a single restart backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Stream sessionization, alarm, and fault policy — identical
    /// semantics to a monolithic [`ibcm_core::StreamMonitor`] with this
    /// config. The daemon's one [`ibcm_core::SessionDirectory`] applies
    /// the lifecycle rules (clock, faults, timeout, the
    /// `faults.max_active_sessions` bound, end actions) to every event
    /// before routing; each shard's monitor takes only its alarm policy
    /// from here.
    pub stream: StreamConfig,
}

impl ServedConfig {
    /// A config with the given stream semantics and default daemon knobs:
    /// 4 shards, queue capacity 1024, checkpoint every 64 commands,
    /// keep 3 generations, 8 restarts, 10 ms–2 s backoff.
    pub fn new(stream: StreamConfig) -> Self {
        ServedConfig {
            shards: 4,
            queue_capacity: 1024,
            checkpoint_every: 64,
            keep_checkpoints: 3,
            max_restarts: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 2_000,
            stream,
        }
    }

    /// Returns the config with `shards` shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with the given per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Returns the config with the given checkpoint cadence and keep-K.
    pub fn with_rotation(mut self, every: u64, keep: usize) -> Self {
        self.checkpoint_every = every;
        self.keep_checkpoints = keep;
        self
    }

    /// Returns the config with the given restart budget and backoff curve.
    pub fn with_supervision(mut self, max_restarts: u32, base_ms: u64, cap_ms: u64) -> Self {
        self.max_restarts = max_restarts;
        self.backoff_base_ms = base_ms;
        self.backoff_cap_ms = cap_ms;
        self
    }
}
