//! The workspace call graph and the transitive panic-freedom (T) rule.
//!
//! Nodes are the non-test functions of every `src/` file; edges come from
//! the call sites [`crate::items`] extracted, resolved with a deliberately
//! conservative lexical policy (there is no type checker here):
//!
//! - **Qualified calls** (`Type::method`, `module::helper`, `Self::f`)
//!   resolve through the impl-type and module/file-stem indices.
//! - **Plain free calls** prefer same-file candidates, then same-crate,
//!   then any crate in the caller's dependency closure — mirroring how an
//!   unqualified name would actually resolve through `use` imports.
//! - **Method calls** resolve by name across the dependency closure, but
//!   only for *distinctive* names: methods shadowing ubiquitous std names
//!   (`len`, `get`, `push`, ...) are skipped, because `v.len()` edges to
//!   every workspace `len` would drown the graph in false paths. The
//!   designated files' own bodies are still covered directly by clippy's
//!   panic lints (each file's `#![deny(..)]`), so this trades recall one
//!   hop out for precision everywhere. When the caller's file names the
//!   impl type of some candidates, only those are kept: a receiver's type
//!   is named where it is imported, declared or built, so a file naming
//!   `LstmLm` and neither `NgramLm` nor `HmmLm` calls `LstmLm`'s
//!   `score_session`. A file naming none of them keeps every candidate.
//!
//! Seeds are the public functions of every [`crate::policy::PANIC_FREE_PATHS`]
//! file. Any reachable function *outside* those files that contains a
//! panicking construct gets one `transitive-panic` finding, anchored at its
//! declaration (so one pragma on the fn covers every construct inside it),
//! and `--graph-report` renders the entry→…→sink chain as evidence.

use std::collections::{BTreeMap, VecDeque};

use crate::findings::{Finding, RuleId};
use crate::items::{CallKind, FileItems, FnItem};
use crate::policy::{crate_closure, FileCtx};

/// Method names too generic to resolve by name alone: nearly every `.x()`
/// with one of these names is a std call, not a workspace call.
const COMMON_METHOD_NAMES: &[&str] = &[
    "len", "is_empty", "get", "get_mut", "push", "pop", "insert", "remove", "clear", "iter",
    "iter_mut", "into_iter", "next", "clone", "contains", "contains_key", "extend", "drain",
    "take", "replace", "min", "max", "sum", "count", "map", "filter", "fold", "rev", "zip",
    "enumerate", "collect", "and_then", "or_else", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "read", "write", "flush", "send", "recv", "lock", "parse", "as_str",
    "as_ref", "as_mut", "as_bytes", "to_string", "to_owned", "to_vec", "into", "from", "eq",
    "cmp", "partial_cmp", "hash", "fmt", "drop", "default", "new", "abs", "floor", "ceil",
    "sqrt", "exp", "ln", "powi", "powf", "sort", "sort_by", "sort_unstable", "split", "join",
    "trim", "starts_with", "ends_with", "find", "position", "any", "all", "chars", "bytes",
    "lines", "resize", "reserve", "truncate", "swap", "store", "load", "wrapping_add",
    "wrapping_sub", "saturating_add", "saturating_sub", "is_some", "is_none", "is_ok", "is_err",
    "ok", "err", "keys", "values", "entry", "first", "last", "chunks", "windows", "copied",
    "cloned", "flatten", "flat_map", "retain", "binary_search", "binary_search_by", "min_by",
    "max_by", "add", "sub", "mul", "div", "index", "deref", "borrow", "borrow_mut",
];

/// One function node in the workspace graph.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate.
    pub crate_name: String,
    /// The extracted fn item.
    pub item: FnItem,
}

/// One `transitive-panic` result, kept (suppressed or not) for
/// `--graph-report`.
#[derive(Debug, Clone)]
pub struct FlaggedPath {
    /// File of the flagged fn.
    pub file: String,
    /// Declaration line of the flagged fn.
    pub line: u32,
    /// Name of the flagged fn (with impl type when present).
    pub name: String,
    /// Summary of the panicking constructs inside it.
    pub panics: String,
    /// The entry→…→sink chain, rendered.
    pub chain: String,
    /// Set by the orchestrator when a pragma suppressed the finding.
    pub suppressed: bool,
}

/// Aggregate numbers for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphSummary {
    /// Non-test functions in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Public hot-path entry points (seeds).
    pub seeds: usize,
    /// Functions reachable from any seed.
    pub reachable: usize,
}

/// The workspace call graph.
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Graph {
    /// Builds the graph from every scanned file's extracts. Only non-test
    /// fns of `src/`-target files become nodes.
    pub fn build(files: &[(FileCtx, FileItems)]) -> Graph {
        let mut nodes: Vec<Node> = Vec::new();
        // The identifiers of each node's file, parallel to `nodes`.
        let mut file_idents = Vec::new();
        for (ctx, items) in files {
            if ctx.target_kind != crate::policy::TargetKind::Src {
                continue;
            }
            for f in &items.fns {
                if f.in_test {
                    continue;
                }
                nodes.push(Node {
                    file: ctx.rel_path.clone(),
                    crate_name: ctx.crate_name.clone(),
                    item: f.clone(),
                });
                file_idents.push(&items.idents);
            }
        }

        // Name indices. Methods key on bare name; qualified lookups key on
        // (type, name) / (module, name); crate-level key on (crate, name).
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut type_methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut module_free: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let name = n.item.name.clone();
            match &n.item.self_type {
                Some(t) => {
                    methods.entry(name.clone()).or_default().push(i);
                    type_methods.entry((t.clone(), name)).or_default().push(i);
                }
                None => {
                    free_fns.entry(name.clone()).or_default().push(i);
                    for m in &n.item.modules {
                        module_free.entry((m.clone(), name.clone())).or_default().push(i);
                    }
                    // `ibcm_obs::emit(..)` addresses a crate root by its
                    // underscored package name.
                    if n.item.modules.first().is_some_and(|m| m == "lib") {
                        module_free
                            .entry((n.crate_name.replace('-', "_"), name))
                            .or_default()
                            .push(i);
                    }
                }
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut edge_count = 0usize;
        for i in 0..nodes.len() {
            let caller = &nodes[i];
            let allowed = crate_closure(&caller.crate_name);
            let in_closure =
                |j: &usize| allowed.binary_search(&nodes[*j].crate_name.as_str()).is_ok();
            let mut targets: Vec<usize> = Vec::new();
            for call in &caller.item.calls {
                match &call.kind {
                    CallKind::Method => {
                        if COMMON_METHOD_NAMES.contains(&call.name.as_str()) {
                            continue;
                        }
                        let Some(cands) = methods.get(call.name.as_str()) else {
                            continue;
                        };
                        let reachable: Vec<usize> =
                            cands.iter().copied().filter(|j| in_closure(j)).collect();
                        let named: Vec<usize> = reachable
                            .iter()
                            .copied()
                            .filter(|&j| {
                                nodes[j]
                                    .item
                                    .self_type
                                    .as_ref()
                                    .is_some_and(|t| file_idents[i].contains(t))
                            })
                            .collect();
                        targets.extend(if named.is_empty() { reachable } else { named });
                    }
                    CallKind::Free(qual) => match qual.last().map(String::as_str) {
                        None => {
                            // Plain call: same file, else same crate, else
                            // the dependency closure.
                            let Some(cands) = free_fns.get(call.name.as_str()) else {
                                continue;
                            };
                            let same_file: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&j| nodes[j].file == caller.file)
                                .collect();
                            let chosen: Vec<usize> = if !same_file.is_empty() {
                                same_file
                            } else {
                                let same_crate: Vec<usize> = cands
                                    .iter()
                                    .copied()
                                    .filter(|&j| nodes[j].crate_name == caller.crate_name)
                                    .collect();
                                if !same_crate.is_empty() {
                                    same_crate
                                } else {
                                    cands.iter().copied().filter(|j| in_closure(j)).collect()
                                }
                            };
                            targets.extend(chosen);
                        }
                        Some("Self") => {
                            if let Some(t) = &caller.item.self_type {
                                if let Some(cands) =
                                    type_methods.get(&(t.clone(), call.name.clone()))
                                {
                                    targets.extend(cands.iter().filter(|j| in_closure(j)));
                                }
                            }
                        }
                        Some(q) => {
                            let key = (q.to_string(), call.name.clone());
                            if let Some(cands) = type_methods.get(&key) {
                                targets.extend(cands.iter().filter(|j| in_closure(j)));
                            } else if let Some(cands) = module_free.get(&key) {
                                targets.extend(cands.iter().filter(|j| in_closure(j)));
                            }
                        }
                    },
                }
            }
            targets.sort_unstable();
            targets.dedup();
            targets.retain(|&j| j != i);
            edge_count += targets.len();
            edges[i] = targets;
        }

        Graph {
            nodes,
            edges,
            edge_count,
        }
    }

    /// Runs the transitive panic-freedom analysis. Returns the raw
    /// findings (pre-suppression), the flagged chains for `--graph-report`,
    /// and the summary numbers.
    pub fn transitive_panics(&self) -> (Vec<Finding>, Vec<FlaggedPath>, GraphSummary) {
        let seeds: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                let n = &self.nodes[i];
                n.item.is_pub
                    && crate::policy::PANIC_FREE_PATHS.contains(&n.file.as_str())
            })
            .collect();

        // BFS with predecessor tracking for evidence chains.
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in &seeds {
            if !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if !seen[j] {
                    seen[j] = true;
                    pred[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }

        let mut findings = Vec::new();
        let mut flagged = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !seen[i]
                || n.item.panics.is_empty()
                || crate::policy::PANIC_FREE_PATHS.contains(&n.file.as_str())
            {
                continue;
            }
            let panics = summarize_panics(&n.item);
            let chain = self.render_chain(i, &pred);
            findings.push(Finding {
                rule: RuleId::TransitivePanic,
                file: n.file.clone(),
                line: n.item.line,
                message: format!(
                    "`fn {}` contains {} and is reachable from a panic-free entry \
                     point: {} — make it total, or suppress on the fn with the \
                     invariant that rules the panic out",
                    self.qualified_name(i),
                    panics,
                    chain
                ),
                snippet: String::new(),
            });
            flagged.push(FlaggedPath {
                file: n.file.clone(),
                line: n.item.line,
                name: self.qualified_name(i),
                panics,
                chain,
                suppressed: false,
            });
        }

        let summary = GraphSummary {
            functions: self.nodes.len(),
            edges: self.edge_count,
            seeds: seeds.len(),
            reachable: seen.iter().filter(|&&s| s).count(),
        };
        (findings, flagged, summary)
    }

    fn qualified_name(&self, i: usize) -> String {
        let n = &self.nodes[i];
        match &n.item.self_type {
            Some(t) => format!("{}::{}", t, n.item.name),
            None => n.item.name.clone(),
        }
    }

    /// `entry (file:line) → ... → sink` via the BFS predecessor chain.
    fn render_chain(&self, sink: usize, pred: &[Option<usize>]) -> String {
        let mut path = vec![sink];
        let mut cur = sink;
        while let Some(p) = pred[cur] {
            path.push(p);
            cur = p;
            if path.len() > 32 {
                break;
            }
        }
        path.reverse();
        path.iter()
            .map(|&i| {
                let n = &self.nodes[i];
                format!("{} ({}:{})", self.qualified_name(i), n.file, n.item.line)
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

fn summarize_panics(item: &FnItem) -> String {
    let mut per: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for p in &item.panics {
        per.entry(p.what).or_default().push(p.line);
    }
    per.iter()
        .map(|(what, lines)| {
            let shown: Vec<String> = lines.iter().take(4).map(u32::to_string).collect();
            let more = if lines.len() > 4 {
                format!(" +{}", lines.len() - 4)
            } else {
                String::new()
            };
            format!("{}×{} (line {}{})", lines.len(), what, shown.join(","), more)
        })
        .collect::<Vec<_>>()
        .join(", ")
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
    fn cross_file_transitive_panic_is_found_with_chain() {
        // scorer.rs is on PANIC_FREE_PATHS; helpers.rs is not, and its
        // helper panics. The chain must span both files.
        let files = vec![
            scan(
                "crates/lm/src/scorer.rs",
                "pub fn score_all(v: &[u8]) -> u8 { crunch_step(v) }",
            ),
            scan(
                "crates/lm/src/helpers.rs",
                "pub fn crunch_step(v: &[u8]) -> u8 { v[0] }",
            ),
        ];
        let g = Graph::build(&files);
        let (findings, flagged, summary) = g.transitive_panics();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule.id(), "transitive-panic");
        assert_eq!(findings[0].file, "crates/lm/src/helpers.rs");
        assert_eq!(findings[0].line, 1);
        assert!(flagged[0].chain.contains("score_all (crates/lm/src/scorer.rs:1)"));
        assert!(flagged[0].chain.contains("crunch_step (crates/lm/src/helpers.rs:1)"));
        assert_eq!(summary.seeds, 1);
        assert_eq!(summary.reachable, 2);
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let files = vec![
            scan("crates/lm/src/scorer.rs", "pub fn score_all() -> u8 { 0 }"),
            scan(
                "crates/lm/src/helpers.rs",
                "pub fn lonely(v: &[u8]) -> u8 { v[0] }",
            ),
        ];
        let (findings, _, _) = Graph::build(&files).transitive_panics();
        assert!(findings.is_empty());
    }

    #[test]
    fn dependency_direction_gates_edges() {
        // ibcm-obs does not depend on ibcm-lm, so an obs fn calling a name
        // that only exists in lm resolves to nothing.
        let files = vec![
            scan(
                "crates/lm/src/scorer.rs",
                "pub fn score_all() { crunch_step(); }",
            ),
            scan(
                "crates/obs/src/metrics.rs",
                "pub fn crunch_step() { other_thing(); }",
            ),
        ];
        let g = Graph::build(&files);
        let (findings, _, summary) = g.transitive_panics();
        assert!(findings.is_empty());
        // lm depends on obs, so the edge into obs resolves.
        assert_eq!(summary.reachable, 2);
    }

    #[test]
    fn common_method_names_do_not_create_edges() {
        let files = vec![
            scan(
                "crates/lm/src/scorer.rs",
                "pub fn score_all(v: &Thing) { v.len(); v.crunch_exotic(); }",
            ),
            scan(
                "crates/lm/src/thing.rs",
                "impl Thing {\n pub fn len(&self) -> usize { self.v[0] }\n \
                 pub fn crunch_exotic(&self) { panic!(\"x\") }\n}",
            ),
        ];
        let (findings, _, _) = Graph::build(&files).transitive_panics();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("crunch_exotic"));
    }
}
