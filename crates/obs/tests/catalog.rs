//! The metric catalog and the operator runbook must not drift apart:
//! every metric in `ibcm_obs::names::ALL` has to appear, by exact name,
//! in `OPERATIONS.md`'s catalog tables. `ibcm-lint`'s
//! `metric-undocumented` rule runs the same check from the catalog source,
//! next to `metric-unemitted` and `metric-literal-escape`.

use ibcm_obs::names::ALL;

const OPERATIONS: &str = include_str!("../../../OPERATIONS.md");

#[test]
fn catalog_documented() {
    let missing: Vec<&str> = ALL
        .iter()
        .map(|def| def.name)
        .filter(|name| !OPERATIONS.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics exported but undocumented in OPERATIONS.md: {missing:?}"
    );
}

#[test]
fn catalog_names_unique_and_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for def in ALL {
        assert!(seen.insert(def.name), "duplicate catalog entry {}", def.name);
        assert!(
            def.name.starts_with("ibcm_"),
            "{} must carry the ibcm_ namespace prefix",
            def.name
        );
        assert!(
            def.name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "{} is not a valid lowercase Prometheus metric name",
            def.name
        );
        assert!(!def.help.is_empty(), "{} has no help text", def.name);
    }
}

#[test]
fn documented_spans_exist() {
    // The runbook's tracing section enumerates the instrumented span
    // names; keep the list in sync with the instrumentation sites.
    for span in [
        "pipeline_train",
        "train_clustered",
        "lda_ensemble_fit",
        "lda_fit",
        "lstm_train_epoch",
    ] {
        assert!(
            OPERATIONS.contains(span),
            "span {span} is instrumented but not mentioned in OPERATIONS.md"
        );
    }
}
