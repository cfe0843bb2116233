//! Rendering: human-readable text, machine-readable JSON (`--json`), the
//! call-graph report (`--graph-report`), and the suppression inventory
//! (`--suppressions`).

use std::fmt::Write as _;

use crate::conc::{AtomicFieldSummary, FenceEntry};
use crate::findings::Finding;
use crate::graph::{FlaggedPath, GraphSummary};

/// One `ibcm-lint: allow(..)` pragma, for the suppression inventory.
#[derive(Debug, Clone)]
pub struct SuppressionEntry {
    /// File the pragma lives in.
    pub file: String,
    /// 1-indexed pragma line.
    pub line: u32,
    /// The rule id as written (verbatim, even if unknown).
    pub rule: String,
    /// The justification (empty when missing — itself a finding).
    pub reason: String,
    /// Whether the pragma suppressed at least one finding this run.
    pub used: bool,
}

/// The result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the scan ran over (as given).
    pub root: String,
    /// Files scanned (after exclusions).
    pub files_scanned: usize,
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every suppression pragma, used or not, sorted by (file, line).
    pub suppressions: Vec<SuppressionEntry>,
    /// Call-graph size/coverage counters for the T family.
    pub graph: GraphSummary,
    /// Every transitively-reachable panicking fn, with its evidence chain
    /// (including ones a pragma suppressed — labelled in the report).
    pub flagged_paths: Vec<FlaggedPath>,
    /// Per-field atomic Release/Acquire protocol table for the C family.
    pub atomic_fields: Vec<AtomicFieldSummary>,
    /// Every `fence(..)` site in the protocol files.
    pub fences: Vec<FenceEntry>,
}

impl Report {
    /// Number of findings. Every finding is an error.
    pub fn error_count(&self) -> usize {
        self.findings.len()
    }

    /// Whether the run passes: no unsuppressed finding, stale pragmas
    /// included.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "error: [{}] {}:{}: {}",
                f.rule.id(),
                f.file,
                f.line,
                f.message
            );
            if !f.snippet.is_empty() {
                let _ = writeln!(out, "    | {}", f.snippet);
            }
        }
        let used = self.suppressions.iter().filter(|s| s.used).count();
        let _ = writeln!(
            out,
            "ibcm-lint: {}: {} files, {} errors, {} suppressions ({} used), \
             graph {} fns / {} edges / {} reachable from {} seeds",
            self.root,
            self.files_scanned,
            self.error_count(),
            self.suppressions.len(),
            used,
            self.graph.functions,
            self.graph.edges,
            self.graph.reachable,
            self.graph.seeds,
        );
        out
    }

    /// The call-graph evidence report (for `--graph-report`): every
    /// hot-path-reachable panicking fn as an entry→…→sink chain, plus the
    /// atomic protocol table and fence inventory.
    pub fn render_graph_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "call graph: {} workspace fns, {} edges; {} reachable from {} panic-free entry points",
            self.graph.functions, self.graph.edges, self.graph.reachable, self.graph.seeds,
        );
        out.push_str("\ntransitively reachable panicking fns:\n");
        if self.flagged_paths.is_empty() {
            out.push_str("  (none)\n");
        }
        for fp in &self.flagged_paths {
            let _ = writeln!(
                out,
                "  {} `fn {}` at {}:{} — {}\n      {}",
                if fp.suppressed { "[suppressed]" } else { "[FLAGGED]" },
                fp.name,
                fp.file,
                fp.line,
                fp.panics,
                fp.chain,
            );
        }
        out.push_str("\natomic protocol table (per field, across the protocol files):\n");
        if self.atomic_fields.is_empty() {
            out.push_str("  (none)\n");
        }
        for f in &self.atomic_fields {
            let _ = writeln!(
                out,
                "  {}: {} release store(s), {} acquire load(s), {} relaxed site(s)",
                f.field,
                f.release_stores.len(),
                f.acquire_loads.len(),
                f.relaxed.len(),
            );
        }
        out.push_str("\nSeqCst fences:\n");
        if self.fences.is_empty() {
            out.push_str("  (none)\n");
        }
        for f in &self.fences {
            let _ = writeln!(out, "  {} [{}]", f.site, f.ordering);
        }
        out
    }

    /// The suppression inventory (for `--suppressions`): every pragma with
    /// its rule, reason, and whether it earned its keep this run.
    pub fn render_suppressions(&self) -> String {
        let used = self.suppressions.iter().filter(|s| s.used).count();
        let mut out = format!(
            "suppression inventory: {} pragmas ({} used, {} stale)\n",
            self.suppressions.len(),
            used,
            self.suppressions.len() - used,
        );
        for s in &self.suppressions {
            let _ = writeln!(
                out,
                "  {}:{} allow({}) {} — {}",
                s.file,
                s.line,
                s.rule,
                if s.used { "used" } else { "STALE" },
                if s.reason.is_empty() { "(no reason)" } else { &s.reason },
            );
        }
        out
    }

    /// Machine-readable JSON for CI artifacts. Hand-rolled (the linter is
    /// zero-dependency); the schema is `ibcm-lint/3`, which drops `/2`'s
    /// unsafe inventory (clippy checks unsafe hygiene now), the warning
    /// count and the per-finding severity (every finding is an error).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ibcm-lint/3\",");
        let _ = writeln!(out, "  \"root\": {},", json_str(&self.root));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"summary\": {{\"errors\": {}, \"suppressions\": {}, \
             \"suppressions_used\": {}}},",
            self.error_count(),
            self.suppressions.len(),
            self.suppressions.iter().filter(|s| s.used).count(),
        );
        let _ = writeln!(
            out,
            "  \"graph\": {{\"functions\": {}, \"edges\": {}, \"seeds\": {}, \
             \"reachable\": {}, \"flagged\": [{}\n  ]}},",
            self.graph.functions,
            self.graph.edges,
            self.graph.seeds,
            self.graph.reachable,
            self.flagged_paths
                .iter()
                .map(|fp| format!(
                    "\n    {{\"file\": {}, \"line\": {}, \"fn\": {}, \"panics\": {}, \
                     \"chain\": {}, \"suppressed\": {}}}",
                    json_str(&fp.file),
                    fp.line,
                    json_str(&fp.name),
                    json_str(&fp.panics),
                    json_str(&fp.chain),
                    fp.suppressed,
                ))
                .collect::<Vec<_>>()
                .join(","),
        );
        let _ = writeln!(
            out,
            "  \"atomics\": {{\"fields\": [{}\n  ], \"fences\": [{}]}},",
            self.atomic_fields
                .iter()
                .map(|f| format!(
                    "\n    {{\"field\": {}, \"release_stores\": [{}], \
                     \"acquire_loads\": [{}], \"relaxed\": [{}]}}",
                    json_str(&f.field),
                    json_site_list(&f.release_stores),
                    json_site_list(&f.acquire_loads),
                    json_site_list(&f.relaxed),
                ))
                .collect::<Vec<_>>()
                .join(","),
            self.fences
                .iter()
                .map(|f| format!(
                    "{{\"site\": {}, \"ordering\": {}}}",
                    json_str(&f.site),
                    json_str(&f.ordering)
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("  \"suppressions\": [");
        for (i, s) in self.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}, \
                 \"used\": {}}}",
                json_str(&s.file),
                s.line,
                json_str(&s.rule),
                json_str(&s.reason),
                s.used,
            );
        }
        out.push_str(if self.suppressions.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \
                 \"message\": {}, \"snippet\": {}}}",
                json_str(f.rule.id()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
            );
        }
        out.push_str(if self.findings.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

fn json_site_list(sites: &[String]) -> String {
    sites
        .iter()
        .map(|s| json_str(s))
        .collect::<Vec<_>>()
        .join(", ")
}

/// JSON string escaping (control chars, quotes, backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::RuleId;

    fn sample() -> Report {
        Report {
            root: ".".into(),
            files_scanned: 2,
            findings: vec![Finding {
                rule: RuleId::MetricLiteralEscape,
                file: "crates/core/src/pipeline.rs".into(),
                line: 7,
                message: "metric \"name\"".into(),
                snippet: "let n = \"ibcm_fake_total\";".into(),
            }],
            suppressions: vec![SuppressionEntry {
                file: "crates/nn/src/matrix.rs".into(),
                line: 42,
                rule: "transitive-panic".into(),
                reason: "shapes are asserted on entry".into(),
                used: true,
            }],
            graph: GraphSummary {
                functions: 100,
                edges: 250,
                seeds: 12,
                reachable: 40,
            },
            flagged_paths: vec![FlaggedPath {
                file: "crates/nn/src/matrix.rs".into(),
                line: 17,
                name: "row".into(),
                panics: "1×index (line 18)".into(),
                chain: "score (crates/lm/src/scorer.rs:30) -> row (crates/nn/src/matrix.rs:17)"
                    .into(),
                suppressed: true,
            }],
            atomic_fields: vec![AtomicFieldSummary {
                field: "tail".into(),
                release_stores: vec!["crates/served/src/queue.rs:100".into()],
                acquire_loads: vec!["crates/served/src/queue.rs:140".into()],
                relaxed: vec![],
            }],
            fences: vec![FenceEntry {
                site: "crates/served/src/queue.rs:200".into(),
                ordering: "SeqCst".into(),
            }],
        }
    }

    #[test]
    fn text_mentions_rule_and_location() {
        let text = sample().render_text();
        assert!(text.contains("error: [metric-literal-escape]"));
        assert!(text.contains("crates/core/src/pipeline.rs:7"));
        assert!(text.contains("1 errors"));
        assert!(text.contains("1 suppressions (1 used)"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample().render_json();
        assert!(json.contains("\"schema\": \"ibcm-lint/3\""));
        assert!(json.contains("\\\"name\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"suppressions_used\": 1"));
        assert!(json.contains("\"chain\""));
        assert!(json.contains("\"fences\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn graph_report_shows_chain_and_protocol_table() {
        let text = sample().render_graph_report();
        assert!(text.contains("[suppressed] `fn row`"));
        assert!(text.contains("scorer.rs:30) -> row"));
        assert!(text.contains("tail: 1 release store(s), 1 acquire load(s), 0 relaxed site(s)"));
        assert!(text.contains("queue.rs:200 [SeqCst]"));
    }

    #[test]
    fn suppression_inventory_labels_stale_pragmas() {
        let mut r = sample();
        r.suppressions.push(SuppressionEntry {
            file: "crates/obs/src/lib.rs".into(),
            line: 9,
            rule: "metric-literal-escape".into(),
            reason: String::new(),
            used: false,
        });
        let text = r.render_suppressions();
        assert!(text.contains("2 pragmas (1 used, 1 stale)"));
        assert!(text.contains("STALE — (no reason)"));
    }

    #[test]
    fn clean_report_gates_on_errors_only() {
        let mut r = sample();
        assert!(!r.clean());
        assert_eq!(r.error_count(), 1);
        r.findings.clear();
        assert!(r.clean());
        assert!(r.render_text().contains("0 errors"));
    }

    #[test]
    fn stale_pragma_fails_the_run() {
        let mut r = sample();
        r.findings = vec![Finding {
            rule: RuleId::PragmaUnused,
            file: "x.rs".into(),
            line: 1,
            message: "stale".into(),
            snippet: String::new(),
        }];
        assert!(!r.clean(), "a stale pragma is an error, not a warning");
    }
}
