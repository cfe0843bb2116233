//! The workspace policy: which rules apply where.
//!
//! This module is the one place that encodes repo-specific knowledge — the
//! crate roles, the designated panic-free hot paths, the reviewed intrinsic
//! whitelist. Everything else in the linter is generic machinery.

/// Intrinsics `ibcm-nn`'s SIMD kernels (AVX2 and AVX-512F tiers) are allowed
/// to use. The list is the separate-rounding mul/add/load/store/broadcast
/// family — exactly the operations whose per-lane rounding matches the
/// scalar reference loops, at either vector width. Anything fused (FMA),
/// shuffling (horizontal adds reassociate), or approximate (`rcp`, `rsqrt`)
/// is absent on purpose.
pub const NN_INTRINSIC_WHITELIST: &[&str] = &[
    "_mm256_set1_ps",
    "_mm256_loadu_ps",
    "_mm256_storeu_ps",
    "_mm256_add_ps",
    "_mm256_mul_ps",
    "_mm512_set1_ps",
    "_mm512_loadu_ps",
    "_mm512_storeu_ps",
    "_mm512_add_ps",
    "_mm512_mul_ps",
];

/// Files (workspace-relative, `/`-separated) designated panic-free: the
/// scoring and ingest hot paths where a panic means a crashed detector in
/// production. The P-family rules fire only here (outside `#[cfg(test)]`).
pub const PANIC_FREE_PATHS: &[&str] = &[
    "crates/lm/src/scorer.rs",
    "crates/core/src/detector.rs",
    "crates/core/src/stream.rs",
    "crates/ocsvm/src/router.rs",
    "crates/served/src/shard.rs",
    "crates/served/src/supervisor.rs",
    "crates/served/src/queue.rs",
    "crates/served/src/writer.rs",
    // The HTTP front end parses untrusted network bytes; a panic there is
    // a dropped connection at best and a crashed acceptor at worst.
    "crates/http/src/json.rs",
    "crates/http/src/wire.rs",
    "crates/http/src/service.rs",
    "crates/http/src/server.rs",
];

/// Files (workspace-relative, `/`-separated) where every
/// `Ordering::Relaxed` atomic access must carry an `// ordering:` comment
/// justifying why no synchronization is needed. The ingest queue's depth
/// mirror is read outside its lock; an undocumented Relaxed there is an
/// unreviewable one.
pub const ORDERING_DOCUMENTED_PATHS: &[&str] = &["crates/served/src/queue.rs"];

/// Lock-free data-path functions: `(file, fn names)` pairs naming the
/// functions that must never make a *direct* blocking call (`lock`,
/// `park`, `sleep`, condvar waits, blocking channel ops): the queue's
/// crash-flag check and its depth mirror, which metric scraping reads
/// without contending with ingest. The deliberately-blocking siblings
/// (`push`, `pop_batch`) are not listed — blocking is their job. The
/// check is per-fn and direct-call only.
pub const LOCK_FREE_DATA_PATH_FNS: &[(&str, &[&str])] = &[(
    "crates/served/src/queue.rs",
    &["worker_dead", "publish_depth", "len"],
)];

/// Call names that block the calling thread. Used by the
/// `conc-blocking-call` rule inside [`LOCK_FREE_DATA_PATH_FNS`].
pub const BLOCKING_CALL_NAMES: &[&str] = &[
    "lock",
    "park",
    "park_timeout",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "wait_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
];

/// Files whose named atomic fields form cross-thread publication protocols:
/// every field stored with `Release` must have a matching `Acquire` load
/// somewhere in this set, and vice versa (`SeqCst`/`AcqRel` satisfy either
/// side; read-modify-write ops count as both a load and a store). The set
/// spans the daemon because the protocols do: `state` is stored in
/// `shard.rs` and loaded in `queue.rs`/`supervisor.rs`.
pub const ATOMIC_PROTOCOL_PATHS: &[&str] = &[
    "crates/served/src/queue.rs",
    "crates/served/src/shard.rs",
    "crates/served/src/supervisor.rs",
    "crates/served/src/writer.rs",
    "crates/http/src/server.rs",
];

/// Files that define the HTTP wire surface: the W rules extract the status
/// codes, routes, and JSON field names these emit and require each to be
/// documented in [`API_DOC`].
pub const WIRE_SURFACE_PATHS: &[&str] = &[
    "crates/http/src/server.rs",
    "crates/http/src/service.rs",
    "crates/http/src/error.rs",
];

/// The wire reference that must document every emitted status code, route,
/// and JSON field name.
pub const API_DOC: &str = "API.md";

/// Workspace-internal `[dependencies]` edges per crate (dev-dependencies
/// excluded: the graph models production reachability). The call-graph
/// layer only resolves a cross-crate call when the callee's crate is in the
/// caller's transitive dependency closure.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("ibcm-obs", &[]),
    ("ibcm-logsim", &[]),
    ("ibcm-par", &[]),
    ("ibcm-lint", &[]),
    ("ibcm-nn", &["ibcm-obs"]),
    ("ibcm-patterns", &["ibcm-logsim"]),
    ("ibcm-ocsvm", &["ibcm-obs", "ibcm-logsim"]),
    ("ibcm-topics", &["ibcm-obs", "ibcm-par", "ibcm-logsim"]),
    ("ibcm-viz", &["ibcm-topics", "ibcm-logsim"]),
    ("ibcm-lm", &["ibcm-obs", "ibcm-nn", "ibcm-logsim"]),
    (
        "ibcm-core",
        &[
            "ibcm-obs",
            "ibcm-nn",
            "ibcm-logsim",
            "ibcm-topics",
            "ibcm-viz",
            "ibcm-ocsvm",
            "ibcm-lm",
            "ibcm-patterns",
            "ibcm-par",
        ],
    ),
    (
        "ibcm-served",
        &["ibcm-core", "ibcm-logsim", "ibcm-obs", "ibcm-par"],
    ),
    (
        "ibcm-http",
        &["ibcm-core", "ibcm-logsim", "ibcm-obs", "ibcm-par", "ibcm-served"],
    ),
    (
        "ibcm-bench",
        &[
            "ibcm-obs",
            "ibcm-nn",
            "ibcm-logsim",
            "ibcm-topics",
            "ibcm-viz",
            "ibcm-ocsvm",
            "ibcm-lm",
            "ibcm-patterns",
            "ibcm-core",
            "ibcm-served",
        ],
    ),
    (
        "ibcm",
        &[
            "ibcm-nn",
            "ibcm-logsim",
            "ibcm-topics",
            "ibcm-viz",
            "ibcm-ocsvm",
            "ibcm-lm",
            "ibcm-patterns",
            "ibcm-core",
            "ibcm-served",
            "ibcm-http",
            "ibcm-obs",
        ],
    ),
];

/// Crates whose outputs feed model bytes or alarm decisions. The
/// default-hasher rule applies here: `HashMap`/`HashSet` iteration order is
/// seeded per process, so any order-dependent use breaks run-to-run
/// determinism.
pub const MODEL_AFFECTING_CRATES: &[&str] = &[
    "ibcm-core",
    "ibcm-lm",
    "ibcm-nn",
    "ibcm-topics",
    "ibcm-ocsvm",
    "ibcm-patterns",
    "ibcm-logsim",
    "ibcm-par",
    "ibcm-served", // the daemon's merged alarm stream is an output surface
    "ibcm-http",   // response bodies replay the merged stream byte-for-byte
    "ibcm", // the facade re-exports pipeline entry points
];

/// Crates allowed to read the wall clock. `ibcm-obs` is the observe-only
/// telemetry substrate (proven side-effect-free by the obs_identity suite);
/// `ibcm-bench` measures wall time by definition.
pub const WALL_CLOCK_CRATES: &[&str] = &["ibcm-obs", "ibcm-bench"];

/// The metric catalog: the only file where `ibcm_*` metric-name string
/// literals may appear.
pub const METRIC_CATALOG_PATH: &str = "crates/obs/src/names.rs";

/// The operator runbook that must document every catalog metric.
pub const OPERATIONS_DOC: &str = "OPERATIONS.md";

/// What kind of build target a source file belongs to. Test-only targets
/// get relaxed rules (panics and ad-hoc clocks are fine in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// A `src/` file of a library or binary target.
    Src,
    /// An integration test, bench, or example — compiled, but never on a
    /// production path.
    TestLike,
}

/// Everything the rules need to know about one file.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Cargo package the file belongs to (`ibcm` for the root crate).
    pub crate_name: String,
    /// Src vs test-like.
    pub target_kind: TargetKind,
}

impl FileCtx {
    /// Classifies a workspace-relative path. Returns `None` for files the
    /// linter must not scan (vendored stand-ins, build output, the
    /// out-of-workspace `benchmark/` package that measures the program from
    /// outside, the linter's own fixture corpus of deliberate violations).
    pub fn classify(rel_path: &str) -> Option<FileCtx> {
        let p = rel_path.replace('\\', "/");
        if !p.ends_with(".rs") {
            return None;
        }
        if ["vendor/", "target/", "benchmark/"]
            .iter()
            .any(|dir| p.starts_with(dir))
        {
            return None;
        }
        if p.starts_with("crates/lint/tests/fixtures/") {
            return None;
        }
        let (crate_name, rest): (String, &str) = if let Some(tail) = p.strip_prefix("crates/") {
            let (dir, rest) = tail.split_once('/')?;
            (format!("ibcm-{dir}"), rest)
        } else {
            ("ibcm".to_string(), p.as_str())
        };
        let target_kind = if rest.starts_with("src/") {
            TargetKind::Src
        } else if rest.starts_with("tests/")
            || rest.starts_with("benches/")
            || rest.starts_with("examples/")
        {
            TargetKind::TestLike
        } else {
            // Stray top-level .rs files (build.rs etc.) — treat as src.
            TargetKind::Src
        };
        Some(FileCtx {
            rel_path: p,
            crate_name,
            target_kind,
        })
    }

    /// True if the P-family (panic-freedom) rules apply to this file.
    pub fn is_panic_free_path(&self) -> bool {
        PANIC_FREE_PATHS.contains(&self.rel_path.as_str())
    }

    /// True if `Ordering::Relaxed` accesses in this file must carry an
    /// `// ordering:` justification comment.
    pub fn is_ordering_documented_path(&self) -> bool {
        ORDERING_DOCUMENTED_PATHS.contains(&self.rel_path.as_str())
    }

    /// True if this crate may read the wall clock directly.
    pub fn wall_clock_allowed(&self) -> bool {
        WALL_CLOCK_CRATES.contains(&self.crate_name.as_str())
    }

    /// True if the default-hasher rule applies to this crate.
    pub fn is_model_affecting(&self) -> bool {
        MODEL_AFFECTING_CRATES.contains(&self.crate_name.as_str())
    }

    /// True if this file is the metric catalog itself.
    pub fn is_metric_catalog(&self) -> bool {
        self.rel_path == METRIC_CATALOG_PATH
    }

    /// True if this file's named atomic fields participate in the
    /// Release/Acquire pairing check.
    pub fn is_atomic_protocol_path(&self) -> bool {
        ATOMIC_PROTOCOL_PATHS.contains(&self.rel_path.as_str())
    }

    /// True if this file defines part of the HTTP wire surface the W rules
    /// check against `API.md`.
    pub fn is_wire_surface(&self) -> bool {
        WIRE_SURFACE_PATHS.contains(&self.rel_path.as_str())
    }
}

/// The caller's transitive dependency closure (crate names, caller
/// included). Unknown crates resolve to just themselves.
pub fn crate_closure(crate_name: &str) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    let mut stack: Vec<&str> = vec![crate_name];
    while let Some(c) = stack.pop() {
        let Some((name, deps)) = CRATE_DEPS.iter().find(|(n, _)| *n == c) else {
            continue;
        };
        if out.contains(name) {
            continue;
        }
        out.push(name);
        stack.extend(deps.iter().copied());
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let f = FileCtx::classify("crates/lm/src/scorer.rs").unwrap();
        assert_eq!(f.crate_name, "ibcm-lm");
        assert_eq!(f.target_kind, TargetKind::Src);
        assert!(f.is_panic_free_path());
        assert!(f.is_model_affecting());
        assert!(!f.wall_clock_allowed());

        let t = FileCtx::classify("crates/core/tests/chaos_stream.rs").unwrap();
        assert_eq!(t.target_kind, TargetKind::TestLike);

        let root = FileCtx::classify("src/lib.rs").unwrap();
        assert_eq!(root.crate_name, "ibcm");

        let ex = FileCtx::classify("examples/stream_monitoring.rs").unwrap();
        assert_eq!(ex.target_kind, TargetKind::TestLike);

        let shard = FileCtx::classify("crates/served/src/shard.rs").unwrap();
        assert_eq!(shard.crate_name, "ibcm-served");
        assert!(shard.is_panic_free_path());
        assert!(shard.is_model_affecting());
        assert!(!shard.wall_clock_allowed());
        let sup = FileCtx::classify("crates/served/src/supervisor.rs").unwrap();
        assert!(sup.is_panic_free_path());
        let queue = FileCtx::classify("crates/served/src/queue.rs").unwrap();
        assert!(queue.is_panic_free_path());
        assert!(queue.is_ordering_documented_path());
        assert!(!sup.is_ordering_documented_path());

        let wire = FileCtx::classify("crates/http/src/wire.rs").unwrap();
        assert_eq!(wire.crate_name, "ibcm-http");
        assert!(wire.is_panic_free_path());
        assert!(wire.is_model_affecting());
        assert!(!wire.wall_clock_allowed());
        let cfg = FileCtx::classify("crates/http/src/config.rs").unwrap();
        assert!(!cfg.is_panic_free_path());
        assert!(cfg.is_model_affecting());

        assert!(FileCtx::classify("vendor/rand/src/lib.rs").is_none());
        assert!(FileCtx::classify("benchmark/src/traffic.rs").is_none());
        assert!(FileCtx::classify("crates/lint/tests/fixtures/bad.rs").is_none());
        assert!(FileCtx::classify("README.md").is_none());
    }
}
