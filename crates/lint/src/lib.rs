//! `ibcm-lint` — the workspace's invariant-enforcing static analyzer.
//!
//! The reproduction's guarantees — bit-identical results at any thread
//! count, panic-free scoring and ingest paths, FMA-free AVX2 kernels, an
//! enumerable metric catalog — are *invariants*, not features: nothing
//! re-checks them when new code lands. This crate turns each one into a
//! machine-checkable rule with a `file:line` finding, so CI fails the
//! moment a patch would erode them.
//!
//! Per-file determinism, panic-freedom and unsafe hygiene are clippy's:
//! the root `clippy.toml` disallows wall-clock reads, scalar FMA and the
//! std hash maps, `[workspace.lints.clippy]` denies undocumented `unsafe`,
//! and each designated hot-path file denies clippy's seven panic lints
//! (DESIGN.md, "Static invariants"). This crate keeps what clippy cannot
//! express, in five rule families (see [`findings::RuleId`] for the full
//! list):
//!
//! - **(D) determinism** — SIMD intrinsics only from ibcm-nn's reviewed
//!   allow-list, which holds no FMA.
//! - **(T) transitive panic-freedom** — the workspace call graph is seeded
//!   from every public fn of the panic-free files; a panicking construct in
//!   *any* reachable function is flagged, with the entry→…→sink chain as
//!   evidence (`--graph-report`).
//! - **(C) concurrency hygiene** — no direct blocking calls in the
//!   ingest queue's lock-free data-path functions; every atomic field published
//!   with `Release` must be observed by an `Acquire`-class load (and vice
//!   versa) across the protocol file set, and every `Relaxed` access there
//!   carries an `// ordering:` comment; `SeqCst` fences are inventoried.
//! - **(M) metric coverage** — every catalog `MetricDef` is emitted and
//!   documented, and no metric-name literal escapes the catalog.
//! - **(W) wire/doc conformance** — every status code, route, and JSON
//!   field the HTTP front end emits must appear in `API.md` (derived from
//!   the code, not maintained in CI greps).
//!
//! Suppression is per-site and must be justified:
//!
//! ```text
//! // ibcm-lint: allow(transitive-panic, reason = "shapes are asserted on entry; every tile index is derived from them")
//! pub fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
//! ```
//!
//! A pragma without a reason, naming an unknown rule, or suppressing
//! nothing is itself a finding, and `--suppressions` prints the full
//! inventory so review can hold the budget down.
//!
//! The analyzer is deliberately *lexical*: a comment/string-aware token
//! scanner ([`lexer`]), not a parser. The workspace-graph rules add a
//! structural layer ([`items`], [`graph`]) on the same token stream —
//! still no external parser, which keeps the crate zero-dependency (it
//! polices the workspace, so it must not depend on it) and the
//! false-positive surface small enough that each suppression is worth a
//! human-written reason.
//!
//! `MetricDef` above refers to `ibcm_obs::names::MetricDef`, which this
//! crate reads as *source text* — there is no code dependency.
//!
//! # Example
//!
//! ```
//! use ibcm_lint::{policy::FileCtx, rules::scan_file};
//!
//! let ctx = FileCtx::classify("crates/nn/src/matrix.rs").unwrap();
//! let scan = scan_file(&ctx, "fn f() { let v = _mm256_fmadd_ps(a, b, c); }");
//! assert_eq!(scan.findings.len(), 1);
//! assert_eq!(scan.findings[0].rule.id(), "det-intrinsic-whitelist");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod conc;
pub mod findings;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod policy;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walk;
pub mod wire;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

pub use findings::{Finding, RuleId};
pub use report::{Report, SuppressionEntry};

struct FileState {
    ctx: policy::FileCtx,
    src: String,
    items: items::FileItems,
    pragmas: Vec<pragma::Pragma>,
}

/// Lints the workspace rooted at `root` in two phases: a per-file token
/// pass (D and metric-literal rules plus extraction), then the workspace
/// phase — call
/// graph (T), concurrency protocol (C), wire conformance (W), and metric
/// coverage (M) — with pragma suppression applied per file and pragma
/// hygiene emitted last (a pragma may legitimately exist only to suppress a
/// workspace-phase finding).
///
/// # Errors
///
/// Returns an `io::Error` only for filesystem-walk failures; unreadable
/// individual files and a missing `OPERATIONS.md`/`API.md` are reported as
/// findings (the linter fails closed, it does not skip).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = walk::rust_files(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut emitting_idents: BTreeSet<String> = BTreeSet::new();
    let mut catalog_src: Option<String> = None;
    let mut files_scanned = 0usize;
    let mut states: Vec<FileState> = Vec::new();

    for rel in &files {
        let Some(ctx) = policy::FileCtx::classify(rel) else {
            continue;
        };
        let src = match fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding {
                    rule: RuleId::IoUnreadable,
                    file: rel.clone(),
                    line: 0,
                    message: format!("unreadable source file: {e}"),
                    snippet: String::new(),
                });
                continue;
            }
        };
        files_scanned += 1;
        if ctx.is_metric_catalog() {
            catalog_src = Some(src.clone());
        }
        let scan = rules::scan_file(&ctx, &src);
        if ctx.crate_name != "ibcm-obs" && ctx.target_kind == policy::TargetKind::Src {
            emitting_idents.extend(scan.src_idents);
        }
        findings.extend(scan.findings);
        states.push(FileState {
            ctx: scan.ctx,
            src,
            items: scan.items,
            pragmas: scan.pragmas,
        });
    }

    // ---- workspace phase ----
    if let Some(src) = catalog_src {
        let ops = fs::read_to_string(root.join(policy::OPERATIONS_DOC)).ok();
        findings.extend(catalog::check(
            policy::METRIC_CATALOG_PATH,
            &src,
            &emitting_idents,
            ops.as_deref(),
        ));
    }

    let pairs: Vec<(policy::FileCtx, items::FileItems)> = states
        .iter()
        .map(|s| (s.ctx.clone(), s.items.clone()))
        .collect();

    let g = graph::Graph::build(&pairs);
    let (t_raw, mut flagged, graph_summary) = g.transitive_panics();
    let (c_raw, atomic_fields, fences) = conc::check(&pairs);
    let api = fs::read_to_string(root.join(policy::API_DOC)).ok();
    let w_raw = wire::check(&pairs, api.as_deref());

    // Per-file suppression of the workspace findings, with snippets filled
    // from the retained sources.
    let mut ws_raw: Vec<Finding> = t_raw;
    ws_raw.extend(c_raw);
    ws_raw.extend(w_raw);
    for state in &mut states {
        let mine: Vec<Finding> = ws_raw
            .iter()
            .filter(|f| f.file == state.ctx.rel_path)
            .cloned()
            .collect();
        if mine.is_empty() && state.pragmas.is_empty() {
            continue;
        }
        let lines: Vec<&str> = state.src.lines().collect();
        let kept = pragma::suppress(&mut state.pragmas, mine);
        findings.extend(kept.into_iter().map(|mut f| {
            if f.snippet.is_empty() {
                f.snippet = pragma::snippet_at(&lines, f.line);
            }
            f
        }));
    }

    // Mark suppressed chains so `--graph-report` can label them.
    for fp in &mut flagged {
        fp.suppressed = !findings.iter().any(|f| {
            f.rule == RuleId::TransitivePanic && f.file == fp.file && f.line == fp.line
        });
    }

    // Hygiene last: only now is `used` final for every pragma.
    let mut suppressions: Vec<SuppressionEntry> = Vec::new();
    for state in &states {
        let lines: Vec<&str> = state.src.lines().collect();
        findings.extend(pragma::hygiene(
            &state.pragmas,
            &state.ctx.rel_path,
            &lines,
        ));
        suppressions.extend(state.pragmas.iter().map(|p| SuppressionEntry {
            file: state.ctx.rel_path.clone(),
            line: p.line,
            rule: p.rule_text.clone(),
            reason: p.reason.clone().unwrap_or_default(),
            used: p.used,
        }));
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
    });
    suppressions.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    flagged.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    Ok(Report {
        root: root.display().to_string(),
        files_scanned,
        findings,
        suppressions,
        graph: graph_summary,
        flagged_paths: flagged,
        atomic_fields,
        fences,
    })
}
