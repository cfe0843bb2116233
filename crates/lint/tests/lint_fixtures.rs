//! Fixture-corpus tests: each file under `tests/fixtures/` is a known-bad
//! source scanned under a synthetic workspace path, and every rule family
//! must fire at exactly the expected (rule-id, line) set. The fixtures are
//! excluded from the live workspace scan by `policy::FileCtx::classify`,
//! so they document the rules without dirtying the real lint run.

use std::collections::BTreeSet;

use ibcm_lint::catalog;
use ibcm_lint::conc;
use ibcm_lint::graph::Graph;
use ibcm_lint::items::FileItems;
use ibcm_lint::policy::FileCtx;
use ibcm_lint::pragma;
use ibcm_lint::rules::{scan_file, UnsafeKind};
use ibcm_lint::wire;

/// Scans fixture text as if it lived at `as_path` and returns the sorted
/// (rule-id, line) pairs of its findings, with pragma hygiene folded back
/// in (in the real run the orchestrator emits it after the workspace
/// phase; a single-file fixture has no workspace phase).
fn fired(as_path: &str, src: &str) -> Vec<(String, u32)> {
    let ctx = FileCtx::classify(as_path).expect("fixture path must classify");
    let scan = scan_file(&ctx, src);
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = scan.findings;
    findings.extend(pragma::hygiene(&scan.pragmas, as_path, &lines));
    let mut out: Vec<(String, u32)> = findings
        .iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect();
    out.sort();
    out
}

fn pairs(expect: &[(&str, u32)]) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = expect
        .iter()
        .map(|&(r, l)| (r.to_string(), l))
        .collect();
    out.sort();
    out
}

#[test]
fn determinism_fixture_fires_every_d_rule() {
    let fired = fired(
        "crates/lm/src/model.rs",
        include_str!("fixtures/determinism.rs"),
    );
    assert_eq!(
        fired,
        pairs(&[
            ("det-default-hasher", 5),
            ("det-default-hasher", 6),
            ("det-fma-intrinsic", 9),
            ("det-intrinsic-whitelist", 13),
            ("det-wall-clock", 17),
            ("det-wall-clock", 18),
            ("det-ambient-rng", 23),
            ("det-ambient-rng", 24),
            ("det-default-hasher", 27),
        ])
    );
}

#[test]
fn panics_fixture_fires_every_p_rule_and_honors_pragma() {
    let fired = fired("crates/lm/src/scorer.rs", include_str!("fixtures/panics.rs"));
    // Line 26 (`v[0]`) is absent: its pragma on line 25 suppresses it, and
    // the macro/pattern brackets at the bottom never fire at all.
    assert_eq!(
        fired,
        pairs(&[
            ("panic-unwrap", 6),
            ("panic-expect", 10),
            ("panic-macro", 15),
            ("panic-macro", 17),
            ("panic-index", 21),
        ])
    );
}

#[test]
fn panics_fixture_is_quiet_off_the_hot_paths() {
    // The same source scanned as a non-hot-path file raises only the
    // now-stale pragma, never the panic rules.
    let fired = fired("crates/lm/src/model.rs", include_str!("fixtures/panics.rs"));
    assert_eq!(fired, pairs(&[("pragma-unused", 25)]));
}

#[test]
fn unsafe_fixture_findings_and_inventory() {
    let ctx = FileCtx::classify("crates/nn/src/matrix.rs").unwrap();
    let scan = scan_file(&ctx, include_str!("fixtures/unsafe_hygiene.rs"));
    let mut fired: Vec<(String, u32)> = scan
        .findings
        .iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect();
    fired.sort();
    assert_eq!(
        fired,
        pairs(&[("unsafe-missing-safety", 6), ("unsafe-undocumented-fn", 9)])
    );
    // The inventory records every site, documented or not.
    let sites: Vec<(u32, &'static str, bool)> = scan
        .unsafe_sites
        .iter()
        .map(|s| (s.line, s.kind.label(), s.documented))
        .collect();
    assert_eq!(
        sites,
        vec![
            (6, UnsafeKind::Block.label(), false),
            (9, UnsafeKind::Fn.label(), false),
            (15, UnsafeKind::Block.label(), true),
            (23, UnsafeKind::Fn.label(), true),
            (25, UnsafeKind::Block.label(), true),
        ]
    );
}

#[test]
fn atomic_ordering_fixture_fires_only_on_undocumented_relaxed() {
    let fired = fired(
        "crates/served/src/queue.rs",
        include_str!("fixtures/atomic_ordering.rs"),
    );
    // Line 7's Relaxed has no justification; the commented, stronger-
    // ordering, and pragma-suppressed sites stay quiet.
    assert_eq!(fired, pairs(&[("unsafe-ordering-undocumented", 7)]));
}

#[test]
fn atomic_ordering_rule_is_scoped_to_designated_modules() {
    let fired = fired(
        "crates/served/src/metrics.rs",
        include_str!("fixtures/atomic_ordering.rs"),
    );
    // Outside ORDERING_DOCUMENTED_PATHS the rule never fires, so the
    // suppression pragma on line 26 is reported as stale.
    assert_eq!(fired, pairs(&[("pragma-unused", 26)]));
}

#[test]
fn metrics_fixture_flags_only_metric_shaped_literals() {
    let fired = fired(
        "crates/core/src/stream.rs",
        include_str!("fixtures/metrics.rs"),
    );
    assert_eq!(fired, pairs(&[("metric-literal-escape", 6)]));
}

#[test]
fn pragmas_fixture_fires_every_hygiene_rule() {
    let fired = fired(
        "crates/lm/src/scorer.rs",
        include_str!("fixtures/pragmas.rs"),
    );
    // The reason-less pragma on line 5 still suppresses the unwrap on 6 —
    // but is itself an error, so nothing slips through CI. The unknown
    // rule on line 10 suppresses nothing, so line 11's unwrap survives.
    assert_eq!(
        fired,
        pairs(&[
            ("pragma-missing-reason", 5),
            ("pragma-unknown-rule", 10),
            ("panic-unwrap", 11),
            ("pragma-unused", 14),
        ])
    );
}

/// Extracts items from fixture text as if it lived at `as_path`, for the
/// workspace-phase (T/C/W) rules.
fn scan_items(as_path: &str, src: &str) -> (FileCtx, FileItems) {
    let ctx = FileCtx::classify(as_path).expect("fixture path must classify");
    let items = ibcm_lint::items::extract(&ctx, &ibcm_lint::lexer::lex(src));
    (ctx, items)
}

fn rule_lines(findings: &[ibcm_lint::Finding]) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = findings
        .iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect();
    out.sort();
    out
}

#[test]
fn graph_fixtures_cross_file_transitive_panic() {
    // The entry fixture is scanned as a PANIC_FREE_PATHS file (its pub fn
    // seeds the graph); the sink fixture lives one crate down the
    // dependency edge and panics. The chain must span both files.
    let files = vec![
        scan_items(
            "crates/lm/src/scorer.rs",
            include_str!("fixtures/graph_entry.rs"),
        ),
        scan_items(
            "crates/nn/src/fold.rs",
            include_str!("fixtures/graph_sink.rs"),
        ),
    ];
    let (findings, flagged, summary) = Graph::build(&files).transitive_panics();
    assert_eq!(rule_lines(&findings), pairs(&[("transitive-panic", 5)]));
    assert_eq!(findings[0].file, "crates/nn/src/fold.rs");
    assert!(
        flagged[0].chain.contains(
            "feed_all (crates/lm/src/scorer.rs:5) -> fold_tail (crates/nn/src/fold.rs:5)"
        ),
        "chain spans entry and sink: {}",
        flagged[0].chain
    );
    assert_eq!(summary.seeds, 1);
    assert_eq!(summary.reachable, 2);
}

#[test]
fn conc_fixture_fires_blocking_and_pairing_rules() {
    let files = vec![scan_items(
        "crates/served/src/queue.rs",
        include_str!("fixtures/conc_rules.rs"),
    )];
    let (findings, table, _) = conc::check(&files);
    // `len` is on the data-path list, so its `lock` fires (line 8);
    // `push` is not, so its identical call stays legal. The Release store
    // on `tail` (line 10) and Acquire load on `head` (line 11) each lack
    // their other half.
    assert_eq!(
        rule_lines(&findings),
        pairs(&[
            ("conc-blocking-call", 8),
            ("conc-unpaired-release", 10),
            ("conc-unpaired-acquire", 11),
        ])
    );
    let fields: Vec<&str> = table.iter().map(|f| f.field.as_str()).collect();
    assert_eq!(fields, vec!["head", "tail"]);
}

#[test]
fn wire_fixture_flags_each_undocumented_kind() {
    let files = vec![scan_items(
        "crates/http/src/service.rs",
        include_str!("fixtures/wire_surface.rs"),
    )];
    // The doc covers the 418 error but omits status 299, the fixture
    // route, and the body field — one finding each, at the emitting line.
    let doc = "Errors use 418.";
    let findings = wire::check(&files, Some(doc));
    assert_eq!(
        rule_lines(&findings),
        pairs(&[
            ("wire-status-undocumented", 7),
            ("wire-route-undocumented", 7),
            ("wire-field-undocumented", 7),
        ])
    );
}

#[test]
fn catalog_check_flags_unemitted_and_undocumented() {
    let catalog_src = r#"
pub const GOOD: MetricDef = MetricDef {
    name: "ibcm_good_total",
    kind: MetricKind::Counter,
};
pub const ORPHAN: MetricDef = MetricDef {
    name: "ibcm_orphan_total",
    kind: MetricKind::Counter,
};
"#;
    let emitting: BTreeSet<String> = ["GOOD".to_string()].into_iter().collect();
    let ops_doc = "| `ibcm_good_total` | counter | documented |";
    let mut fired: Vec<(String, u32)> =
        catalog::check("crates/obs/src/names.rs", catalog_src, &emitting, Some(ops_doc))
            .iter()
            .map(|f| (f.rule.id().to_string(), f.line))
            .collect();
    fired.sort();
    assert_eq!(
        fired,
        pairs(&[("metric-unemitted", 6), ("metric-undocumented", 6)])
    );
}

#[test]
fn catalog_check_fails_closed_without_operations_doc() {
    let catalog_src = "pub const G: MetricDef = MetricDef { name: \"ibcm_g_total\" };";
    let emitting: BTreeSet<String> = ["G".to_string()].into_iter().collect();
    let fired: Vec<String> = catalog::check("crates/obs/src/names.rs", catalog_src, &emitting, None)
        .iter()
        .map(|f| f.rule.id().to_string())
        .collect();
    assert_eq!(fired, vec!["metric-undocumented".to_string()]);
}
