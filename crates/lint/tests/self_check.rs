//! The linter's own acceptance test: the live workspace must lint clean.
//! Every invariant violation is either fixed or carries a reasoned pragma,
//! so any new unsuppressed finding fails this test (and the CI job that
//! runs the binary).

use std::collections::BTreeSet;
use std::path::PathBuf;

use ibcm_lint::policy::{FileCtx, PANIC_FREE_PATHS};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn live_workspace_lints_clean() {
    let report = ibcm_lint::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "expected to scan the whole workspace, saw only {} files",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "workspace must lint clean, got:\n{}",
        report.render_text()
    );
}

/// Clippy's panic lints, as every panic-free file denies them.
const PANIC_LINTS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

#[test]
fn panic_free_files_deny_the_seven_clippy_panic_lints() {
    // Clippy enforces the panic-free contract: a file is on it exactly
    // when it carries a `#![deny(..)]` naming the panic lints, and then it
    // must name all seven. The transitive-panic rule seeds from the same
    // list, so the two must agree.
    let root = workspace_root();
    let mut carrying = BTreeSet::new();
    for rel in ibcm_lint::walk::rust_files(&root).expect("workspace walk succeeds") {
        if FileCtx::classify(&rel).is_none() {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).expect("source file is readable");
        for deny in src.split("#![deny(").skip(1) {
            let body = deny.split(")]").next().unwrap_or_default();
            let named: BTreeSet<&str> = body.split(',').map(str::trim).collect();
            if PANIC_LINTS.iter().any(|lint| named.contains(lint)) {
                let missing: Vec<_> = PANIC_LINTS.iter().filter(|l| !named.contains(*l)).collect();
                assert!(
                    missing.is_empty(),
                    "{rel} denies only some panic lints; missing {missing:?}"
                );
                carrying.insert(rel.clone());
            }
        }
    }
    let listed: BTreeSet<String> = PANIC_FREE_PATHS.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        carrying, listed,
        "files denying the panic lints vs policy::PANIC_FREE_PATHS"
    );
}

#[test]
fn json_report_is_well_formed_enough_for_ci() {
    let report = ibcm_lint::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    let json = report.render_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"schema\": \"ibcm-lint/3\""));
    assert!(json.contains("\"findings\""));
    for gone in [
        "\"unsafe_inventory\"",
        "\"unsafe_sites\"",
        "\"warnings\"",
        "\"severity\"",
    ] {
        assert!(!json.contains(gone), "{gone} is not part of ibcm-lint/3");
    }
    assert!(json.contains("\"suppressions\""));
    assert!(json.contains("\"graph\""));
    assert!(json.contains("\"atomics\""));
}

#[test]
fn live_workspace_graph_covers_the_hot_paths() {
    let report = ibcm_lint::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    // The T family only means something if the graph actually resolves
    // cross-crate edges and reaches the model internals from the
    // panic-free entry points.
    assert!(
        report.graph.functions > 500 && report.graph.edges > 1000,
        "graph looks too small: {:?}",
        report.graph
    );
    assert!(
        report.graph.seeds > 50 && report.graph.reachable > report.graph.seeds,
        "seeding looks broken: {:?}",
        report.graph
    );
    // Every flagged chain must be suppressed with a reasoned pragma (a new
    // unsuppressed one fails `live_workspace_lints_clean` with its chain).
    assert!(
        report.flagged_paths.iter().all(|fp| fp.suppressed),
        "unsuppressed transitive panics:\n{}",
        report.render_graph_report()
    );
    // The shard lifecycle protocol spans files: `state` must pair up.
    let state = report
        .atomic_fields
        .iter()
        .find(|f| f.field == "state")
        .expect("shard state field in the protocol table");
    assert!(!state.release_stores.is_empty() && !state.acquire_loads.is_empty());
}

#[test]
fn live_workspace_suppressions_are_inventoried_and_used() {
    let report = ibcm_lint::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        report.suppressions.len() >= 26,
        "expected the workspace's pragma inventory, saw {}",
        report.suppressions.len()
    );
    let stale: Vec<_> = report.suppressions.iter().filter(|s| !s.used).collect();
    assert!(stale.is_empty(), "stale pragmas: {stale:#?}");
    assert!(
        report.suppressions.iter().all(|s| !s.reason.is_empty()),
        "every pragma carries a reason"
    );
}
