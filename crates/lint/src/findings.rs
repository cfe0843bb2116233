//! Finding and rule metadata: every rule the linter can fire, with its
//! identity, severity, and one-line rationale.

use std::fmt;

/// How serious a finding is. `Error` findings fail the run (nonzero exit);
/// `Warn` findings are reported but do not block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, does not fail the run.
    Warn,
    /// Fails the run unless suppressed with a pragma.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Every rule the linter enforces. The kebab-case id (used in output and in
/// `ibcm-lint: allow(...)` pragmas) is [`RuleId::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// (D) An FMA intrinsic anywhere in the workspace. Fused multiply-add
    /// rounds once where mul+add round twice, so one FMA breaks the
    /// bit-identity contract between the AVX2 and scalar kernels.
    DetFmaIntrinsic,
    /// (D) A SIMD intrinsic outside `ibcm-nn`, or one in `ibcm-nn` that is
    /// not on the reviewed whitelist (separate-rounding mul/add/load/store
    /// family only).
    DetIntrinsicWhitelist,
    /// (D) A wall-clock read (`Instant::now`, `SystemTime`) outside the
    /// observability and bench crates. Model crates must take time through
    /// `ibcm_obs::Stopwatch` so the clock can never leak into model bytes.
    DetWallClock,
    /// (D) Ambient randomness (`thread_rng`, `rand::random`, `from_entropy`)
    /// anywhere: every random draw must come from an explicitly seeded
    /// generator.
    DetAmbientRng,
    /// (D) `std::collections::HashMap`/`HashSet` brought into a
    /// model-affecting crate. The default hasher is randomly seeded per
    /// process, so iteration order is nondeterministic; each import must be
    /// justified (iteration-order-free use) or replaced with `BTreeMap`.
    DetDefaultHasher,
    /// (P) `.unwrap()` on a designated panic-free hot path.
    PanicUnwrap,
    /// (P) `.expect(...)` on a designated panic-free hot path.
    PanicExpect,
    /// (P) `panic!`/`unreachable!`/`todo!`/`unimplemented!` on a designated
    /// panic-free hot path.
    PanicMacro,
    /// (P) Slice/array indexing (`x[i]`, `x[a..b]`) on a designated
    /// panic-free hot path — panics when out of bounds.
    PanicIndex,
    /// (U) An `unsafe` block without a `// SAFETY:` comment on the same or
    /// an immediately preceding line.
    UnsafeMissingSafety,
    /// (U) An `unsafe fn` without a `# Safety` section in its doc comment.
    UnsafeUndocumentedFn,
    /// (U) An `Ordering::Relaxed` atomic access in a designated lock-free
    /// module without an `// ordering:` comment on the same or an
    /// immediately preceding line. Relaxed is the one ordering that
    /// provides no synchronization at all, so every use must say why that
    /// is sufficient (monitoring mirror, single-writer cursor, ...).
    UnsafeOrderingUndocumented,
    /// (T) A panicking construct in a workspace function reachable from a
    /// public entry point of a designated panic-free file. The P rules
    /// check the listed files themselves; this rule follows the call graph
    /// out of them, so a hot path cannot launder a panic through a helper
    /// one crate over. The finding anchors at the offending fn's
    /// declaration, and `--graph-report` prints the entry→…→sink chain.
    TransitivePanic,
    /// (C) A direct blocking call (`lock`, `park`, `sleep`, condvar waits,
    /// blocking channel ops) inside a designated lock-free data-path
    /// function of `queue.rs`.
    ConcBlockingCall,
    /// (C) An atomic field stored with `Release` that no `Acquire`-class
    /// load ever observes: the publication has no reader, so either the
    /// store is over-synchronized or a reader is under-synchronized.
    ConcUnpairedRelease,
    /// (C) An atomic field loaded with `Acquire` that no `Release`-class
    /// store ever publishes: the load synchronizes with nothing.
    ConcUnpairedAcquire,
    /// (W) A literal HTTP status code the front end emits that `API.md`
    /// does not mention.
    WireStatusUndocumented,
    /// (W) An endpoint route the front end serves that `API.md` does not
    /// mention.
    WireRouteUndocumented,
    /// (W) A JSON field name the front end emits that `API.md` does not
    /// show (fields are checked as `"name"` so prose mentions don't count).
    WireFieldUndocumented,
    /// (M) A string literal shaped like a metric name (`ibcm_*`) outside
    /// the catalog (`crates/obs/src/names.rs`): all exported names must
    /// come from `MetricDef`s so the surface stays enumerable.
    MetricLiteralEscape,
    /// (M) A `MetricDef` in the catalog that no crate outside `ibcm-obs`
    /// references: a declared metric nobody emits.
    MetricUnemitted,
    /// (M) A catalog metric name missing from `OPERATIONS.md`.
    MetricUndocumented,
    /// A suppression pragma without a non-empty `reason = "..."`.
    PragmaMissingReason,
    /// A suppression pragma naming a rule id the linter does not know.
    PragmaUnknownRule,
    /// A suppression pragma that suppressed nothing (stale escape hatch).
    PragmaUnused,
    /// A source file the linter could not read. The linter fails closed:
    /// unreadable code is unverified code.
    IoUnreadable,
}

/// All rules, for iteration and id lookup.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::DetFmaIntrinsic,
    RuleId::DetIntrinsicWhitelist,
    RuleId::DetWallClock,
    RuleId::DetAmbientRng,
    RuleId::DetDefaultHasher,
    RuleId::PanicUnwrap,
    RuleId::PanicExpect,
    RuleId::PanicMacro,
    RuleId::PanicIndex,
    RuleId::TransitivePanic,
    RuleId::ConcBlockingCall,
    RuleId::ConcUnpairedRelease,
    RuleId::ConcUnpairedAcquire,
    RuleId::WireStatusUndocumented,
    RuleId::WireRouteUndocumented,
    RuleId::WireFieldUndocumented,
    RuleId::UnsafeMissingSafety,
    RuleId::UnsafeUndocumentedFn,
    RuleId::UnsafeOrderingUndocumented,
    RuleId::MetricLiteralEscape,
    RuleId::MetricUnemitted,
    RuleId::MetricUndocumented,
    RuleId::PragmaMissingReason,
    RuleId::PragmaUnknownRule,
    RuleId::PragmaUnused,
    RuleId::IoUnreadable,
];

impl RuleId {
    /// The stable kebab-case id used in output and pragmas.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::DetFmaIntrinsic => "det-fma-intrinsic",
            RuleId::DetIntrinsicWhitelist => "det-intrinsic-whitelist",
            RuleId::DetWallClock => "det-wall-clock",
            RuleId::DetAmbientRng => "det-ambient-rng",
            RuleId::DetDefaultHasher => "det-default-hasher",
            RuleId::PanicUnwrap => "panic-unwrap",
            RuleId::PanicExpect => "panic-expect",
            RuleId::PanicMacro => "panic-macro",
            RuleId::PanicIndex => "panic-index",
            RuleId::TransitivePanic => "transitive-panic",
            RuleId::ConcBlockingCall => "conc-blocking-call",
            RuleId::ConcUnpairedRelease => "conc-unpaired-release",
            RuleId::ConcUnpairedAcquire => "conc-unpaired-acquire",
            RuleId::WireStatusUndocumented => "wire-status-undocumented",
            RuleId::WireRouteUndocumented => "wire-route-undocumented",
            RuleId::WireFieldUndocumented => "wire-field-undocumented",
            RuleId::UnsafeMissingSafety => "unsafe-missing-safety",
            RuleId::UnsafeUndocumentedFn => "unsafe-undocumented-fn",
            RuleId::UnsafeOrderingUndocumented => "unsafe-ordering-undocumented",
            RuleId::MetricLiteralEscape => "metric-literal-escape",
            RuleId::MetricUnemitted => "metric-unemitted",
            RuleId::MetricUndocumented => "metric-undocumented",
            RuleId::PragmaMissingReason => "pragma-missing-reason",
            RuleId::PragmaUnknownRule => "pragma-unknown-rule",
            RuleId::PragmaUnused => "pragma-unused",
            RuleId::IoUnreadable => "io-unreadable",
        }
    }

    /// Resolves a kebab-case id back to a rule.
    pub fn from_id(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// The rule's severity.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::PragmaUnused => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// Whether `ibcm-lint: allow(...)` pragmas may suppress this rule.
    /// Pragma-hygiene findings cannot suppress themselves, and the two
    /// workspace-level metric rules have no meaningful site to annotate.
    pub fn suppressible(self) -> bool {
        !matches!(
            self,
            RuleId::PragmaMissingReason
                | RuleId::PragmaUnknownRule
                | RuleId::PragmaUnused
                | RuleId::MetricUnemitted
                | RuleId::MetricUndocumented
                | RuleId::IoUnreadable
        )
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// The offending source line, trimmed, for rendering.
    pub snippet: String,
}

impl Finding {
    /// The finding's severity (delegates to the rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}
