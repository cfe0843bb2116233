//! Fixture: pragma-hygiene rules fire at known lines. Scanned by
//! `lint_fixtures.rs` as `crates/core/src/stream.rs`; never compiled.

fn missing_reason() -> &'static str {
    // ibcm-lint: allow(metric-literal-escape)
    "ibcm_fixture_one_total"
}

fn unknown_rule() -> &'static str {
    // ibcm-lint: allow(no-such-rule, reason = "the rule id has a typo")
    "ibcm_fixture_two_total"
}

// ibcm-lint: allow(det-intrinsic-whitelist, reason = "suppresses nothing on this line")
fn stale() {}

fn valid_suppression() -> &'static str {
    // ibcm-lint: allow(metric-literal-escape, reason = "a label that only looks like a metric name")
    "ibcm_fixture_three_total"
}
