//! Concurrency hygiene (C rules): blocking calls in lock-free data-path
//! functions, per-field Release/Acquire protocol pairing, and a
//! justification for every `Relaxed` access.
//!
//! Across the files of [`crate::policy::ATOMIC_PROTOCOL_PATHS`], every
//! `Relaxed` *site* must carry an `// ordering:` comment saying why no
//! synchronization is needed, and the *protocol* must close: every named
//! atomic field published with a `Release`-class store must be observed by
//! an `Acquire`-class load somewhere in the set, and vice versa — an
//! unpaired half means the synchronization argument written in the ordering
//! comments cannot actually hold. `SeqCst` and `AcqRel` satisfy either
//! side; read-modify-write ops count as both a load and a store; fields
//! that only ever use `Relaxed` (monitoring mirrors, parked flags under a
//! fence protocol) impose no pairing requirement. `SeqCst` fences are
//! inventoried for the report rather than checked — their correctness
//! argument is the Dekker-style protocol written in the ordering comments.

use std::collections::BTreeMap;

use crate::findings::{Finding, RuleId};
use crate::items::{AtomicKind, CallSite, FileItems};
use crate::policy::{FileCtx, BLOCKING_CALL_NAMES, LOCK_FREE_DATA_PATH_FNS};

/// Per-field protocol summary for the report.
#[derive(Debug, Clone)]
pub struct AtomicFieldSummary {
    /// Field name (receiver segment).
    pub field: String,
    /// `Release`-class store/rmw sites (`file:line`).
    pub release_stores: Vec<String>,
    /// `Acquire`-class load/rmw sites (`file:line`).
    pub acquire_loads: Vec<String>,
    /// `Relaxed` sites (`file:line`).
    pub relaxed: Vec<String>,
}

/// One `fence(..)` site for the report inventory.
#[derive(Debug, Clone)]
pub struct FenceEntry {
    /// `file:line`.
    pub site: String,
    /// The fence's ordering.
    pub ordering: String,
}

fn release_class(ords: &[String]) -> bool {
    ords.iter().any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"))
}

fn acquire_class(ords: &[String]) -> bool {
    ords.iter().any(|o| matches!(o.as_str(), "Acquire" | "AcqRel" | "SeqCst"))
}

/// Checks blocking calls, atomic pairing and Relaxed justifications across
/// the scanned files.
/// Returns raw findings plus the protocol table and fence inventory.
pub fn check(
    files: &[(FileCtx, FileItems)],
) -> (Vec<Finding>, Vec<AtomicFieldSummary>, Vec<FenceEntry>) {
    let mut findings = Vec::new();

    // ---- blocking calls in designated lock-free fns ----
    for (ctx, items) in files {
        let Some((_, fns)) = LOCK_FREE_DATA_PATH_FNS
            .iter()
            .find(|(file, _)| *file == ctx.rel_path)
        else {
            continue;
        };
        for f in &items.fns {
            if f.in_test || !fns.contains(&f.name.as_str()) {
                continue;
            }
            for call in &f.calls {
                if is_blocking(call) {
                    findings.push(Finding {
                        rule: RuleId::ConcBlockingCall,
                        file: ctx.rel_path.clone(),
                        line: call.line,
                        message: format!(
                            "`{}` is a blocking call inside `fn {}`, a designated \
                             lock-free data-path function — the hot path must stay \
                             wait-free; move the blocking work to the park/wake \
                             helpers",
                            call.name, f.name
                        ),
                        snippet: String::new(),
                    });
                }
            }
        }
    }

    // ---- per-field Release/Acquire pairing across the protocol set ----
    let mut fields: BTreeMap<String, AtomicFieldSummary> = BTreeMap::new();
    let mut first_release: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut first_acquire: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut fences = Vec::new();
    for (ctx, items) in files {
        if !ctx.is_atomic_protocol_path() {
            continue;
        }
        for op in &items.atomics {
            let site = format!("{}:{}", ctx.rel_path, op.line);
            let entry = fields
                .entry(op.field.clone())
                .or_insert_with(|| AtomicFieldSummary {
                    field: op.field.clone(),
                    release_stores: Vec::new(),
                    acquire_loads: Vec::new(),
                    relaxed: Vec::new(),
                });
            let stores = matches!(op.kind, AtomicKind::Store | AtomicKind::Rmw);
            let loads = matches!(op.kind, AtomicKind::Load | AtomicKind::Rmw);
            if stores && release_class(&op.orderings) {
                entry.release_stores.push(site.clone());
                first_release
                    .entry(op.field.clone())
                    .or_insert_with(|| (ctx.rel_path.clone(), op.line));
            }
            if loads && acquire_class(&op.orderings) {
                entry.acquire_loads.push(site.clone());
                first_acquire
                    .entry(op.field.clone())
                    .or_insert_with(|| (ctx.rel_path.clone(), op.line));
            }
            if op.orderings.iter().any(|o| o == "Relaxed") {
                if !op.ordering_comment {
                    findings.push(Finding {
                        rule: RuleId::ConcRelaxedUndocumented,
                        file: ctx.rel_path.clone(),
                        line: op.line,
                        message: "`Ordering::Relaxed` in an atomic protocol file without an \
                                  `// ordering:` comment — Relaxed provides no \
                                  synchronization, so each use must say why that is \
                                  sufficient"
                            .to_string(),
                        snippet: String::new(),
                    });
                }
                entry.relaxed.push(site);
            }
        }
        for fence in &items.fences {
            fences.push(FenceEntry {
                site: format!("{}:{}", ctx.rel_path, fence.line),
                ordering: fence.ordering.clone(),
            });
        }
    }

    for (field, summary) in &fields {
        if !summary.release_stores.is_empty() && summary.acquire_loads.is_empty() {
            let (file, line) = first_release[field].clone();
            findings.push(Finding {
                rule: RuleId::ConcUnpairedRelease,
                file,
                line,
                message: format!(
                    "atomic field `{field}` is stored with Release here but no \
                     Acquire-class load observes it anywhere in the protocol set — \
                     the publication synchronizes with nothing"
                ),
                snippet: String::new(),
            });
        }
        if !summary.acquire_loads.is_empty() && summary.release_stores.is_empty() {
            let (file, line) = first_acquire[field].clone();
            findings.push(Finding {
                rule: RuleId::ConcUnpairedAcquire,
                file,
                line,
                message: format!(
                    "atomic field `{field}` is loaded with Acquire here but no \
                     Release-class store publishes it anywhere in the protocol set — \
                     the load synchronizes with nothing"
                ),
                snippet: String::new(),
            });
        }
    }

    let table = fields.into_values().collect();
    (findings, table, fences)
}

fn is_blocking(call: &CallSite) -> bool {
    BLOCKING_CALL_NAMES.contains(&call.name.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn scan(path: &str, src: &str) -> (FileCtx, FileItems) {
        let ctx = FileCtx::classify(path).unwrap();
        let items = extract(&ctx, &lex(src));
        (ctx, items)
    }

    #[test]
    fn blocking_call_in_data_path_fn_fires() {
        let files = vec![scan(
            "crates/served/src/queue.rs",
            "impl Q {\n pub fn len(&self) {\n  self.inner.lock();\n }\n \
             pub fn push(&self) { self.inner.lock(); }\n}",
        )];
        let (findings, _, _) = check(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule.id(), "conc-blocking-call");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn mispaired_release_store_fires() {
        let files = vec![scan(
            "crates/served/src/queue.rs",
            "impl Q {\n fn a(&self) { self.tail.0.store(1, Ordering::Release); }\n \
             fn b(&self) -> usize { self.tail.0.load(Ordering::Relaxed) } // ordering: gauge\n}",
        )];
        let (findings, table, _) = check(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule.id(), "conc-unpaired-release");
        assert_eq!(findings[0].line, 2);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].relaxed.len(), 1);
    }

    #[test]
    fn paired_protocol_is_clean_and_rmw_counts_both_ways() {
        let files = vec![
            scan(
                "crates/served/src/shard.rs",
                "fn a(s: &AtomicU8) { s.state.store(1, Ordering::Release); }",
            ),
            scan(
                "crates/served/src/queue.rs",
                "fn b(s: &AtomicU8) -> u8 { s.state.load(Ordering::Acquire) }",
            ),
            scan(
                "crates/http/src/server.rs",
                "fn c(a: &AtomicUsize) { a.active.fetch_add(1, Ordering::SeqCst); }",
            ),
        ];
        let (findings, table, _) = check(&files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn relaxed_only_fields_impose_no_requirement() {
        let files = vec![scan(
            "crates/served/src/queue.rs",
            "impl Q {\n // ordering: monitoring mirror.\n \
             fn a(&self) { self.depth.store(1, Ordering::Relaxed); }\n \
             fn b(&self) -> usize { self.depth.load(Ordering::Relaxed) } // ordering: gauge\n}",
        )];
        let (findings, _, _) = check(&files);
        assert!(findings.is_empty(), "{findings:?}");
    }

    // Lines of the conc-relaxed-undocumented findings.
    fn relaxed_fired(path: &str, src: &str) -> Vec<u32> {
        let (findings, _, _) = check(&[scan(path, src)]);
        findings
            .iter()
            .filter(|f| f.rule == RuleId::ConcRelaxedUndocumented)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn relaxed_ordering_requires_comment_in_lockfree_modules() {
        let bad = "fn f(a: &AtomicUsize) -> usize { a.depth.load(Ordering::Relaxed) }";
        assert_eq!(relaxed_fired("crates/served/src/queue.rs", bad), vec![1]);
        // A same-line or immediately preceding `// ordering:` comment
        // satisfies the rule.
        let inline = "fn f(a: &AtomicUsize) -> usize { a.depth.load(Ordering::Relaxed) // ordering: gauge\n}";
        assert!(relaxed_fired("crates/served/src/queue.rs", inline).is_empty());
        let above = "fn f(a: &AtomicUsize) -> usize {\n    // ordering: Relaxed — monitoring only.\n    a.depth.load(Ordering::Relaxed)\n}";
        assert!(relaxed_fired("crates/served/src/queue.rs", above).is_empty());
        // A comment separated by code does not count.
        let stale = "// ordering: about something else\nlet x = 1;\nfn f(a: &AtomicUsize) -> usize { a.depth.load(Ordering::Relaxed) }";
        assert_eq!(relaxed_fired("crates/served/src/queue.rs", stale), vec![3]);
        // Stronger orderings need no comment; every protocol file is
        // covered, other files are exempt.
        let acq = "fn f(a: &AtomicUsize) -> usize { a.depth.load(Ordering::Acquire) }";
        assert!(relaxed_fired("crates/served/src/queue.rs", acq).is_empty());
        assert_eq!(relaxed_fired("crates/http/src/server.rs", bad), vec![1]);
        assert!(relaxed_fired("crates/served/src/metrics.rs", bad).is_empty());
    }

    #[test]
    fn acquire_without_release_fires() {
        let files = vec![scan(
            "crates/served/src/supervisor.rs",
            "fn w(s: &AtomicU8) -> u8 { s.phase.load(Ordering::Acquire) }",
        )];
        let (findings, _, _) = check(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule.id(), "conc-unpaired-acquire");
    }
}
