//! Finding and rule metadata: every rule the linter can fire, with its
//! identity and one-line rationale. Every finding is an error: any
//! unsuppressed finding fails the run.

use std::fmt;

/// Every rule the linter enforces. The kebab-case id (used in output and in
/// `ibcm-lint: allow(...)` pragmas) is [`RuleId::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// (D) A SIMD intrinsic outside `ibcm-nn`, or one in `ibcm-nn` that is
    /// not on the reviewed whitelist (separate-rounding mul/add/load/store
    /// family only). Every FMA intrinsic is off the list: fused
    /// multiply-add rounds once where mul+add round twice, so one FMA
    /// breaks the bit-identity contract between the SIMD and scalar kernels.
    DetIntrinsicWhitelist,
    /// (T) A panicking construct in a workspace function reachable from a
    /// public entry point of a designated panic-free file. Clippy's panic
    /// lints (the `#![deny(..)]` in each listed file) check the listed
    /// files themselves; this rule follows the call graph out of them, so
    /// a hot path cannot launder a panic through a helper one crate over.
    /// The finding anchors at the offending fn's declaration, and
    /// `--graph-report` prints the entry→…→sink chain.
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
    /// (C) An `Ordering::Relaxed` atomic access in a protocol file without
    /// an `// ordering:` comment on the same or an immediately preceding
    /// line. Relaxed is the one ordering that provides no synchronization
    /// at all, so every use must say why that is sufficient (monitoring
    /// mirror, single-writer cursor, ...).
    ConcRelaxedUndocumented,
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
    /// An error like every other finding, so a stale pragma fails the run.
    PragmaUnused,
    /// A source file the linter could not read. The linter fails closed:
    /// unreadable code is unverified code.
    IoUnreadable,
}

/// All rules, for iteration and id lookup.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::DetIntrinsicWhitelist,
    RuleId::TransitivePanic,
    RuleId::ConcBlockingCall,
    RuleId::ConcUnpairedRelease,
    RuleId::ConcUnpairedAcquire,
    RuleId::ConcRelaxedUndocumented,
    RuleId::WireStatusUndocumented,
    RuleId::WireRouteUndocumented,
    RuleId::WireFieldUndocumented,
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
            RuleId::DetIntrinsicWhitelist => "det-intrinsic-whitelist",
            RuleId::TransitivePanic => "transitive-panic",
            RuleId::ConcBlockingCall => "conc-blocking-call",
            RuleId::ConcUnpairedRelease => "conc-unpaired-release",
            RuleId::ConcUnpairedAcquire => "conc-unpaired-acquire",
            RuleId::ConcRelaxedUndocumented => "conc-relaxed-undocumented",
            RuleId::WireStatusUndocumented => "wire-status-undocumented",
            RuleId::WireRouteUndocumented => "wire-route-undocumented",
            RuleId::WireFieldUndocumented => "wire-field-undocumented",
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
