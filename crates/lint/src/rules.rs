//! The per-file rule pass: determinism (D), panic-freedom (P), and unsafe
//! hygiene (U) checks over one token stream, plus the extracts the
//! workspace-level metric rules (M) consume.

use std::collections::BTreeSet;

use crate::findings::{Finding, RuleId};
use crate::lexer::{lex, Tok, TokKind};
use crate::policy::{FileCtx, TargetKind, NN_INTRINSIC_WHITELIST};
use crate::pragma::{self, snippet_at};

/// Kinds of unsafe site for the inventory report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { ... }` block.
    Block,
    /// An `unsafe fn` declaration.
    Fn,
    /// An `unsafe impl`/`unsafe trait`.
    ImplOrTrait,
}

impl UnsafeKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::ImplOrTrait => "impl",
        }
    }
}

/// One `unsafe` occurrence, for the generated unsafe inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the `unsafe` keyword.
    pub line: u32,
    /// Block, fn, or impl/trait.
    pub kind: UnsafeKind,
    /// Whether the required justification was found.
    pub documented: bool,
    /// The trimmed source line.
    pub snippet: String,
}

/// Everything one file contributes: its (suppression-applied) findings, its
/// unsafe inventory, the identifier set the metric-coverage rule needs, the
/// structural extracts the workspace-graph rules consume, and the file's
/// pragmas (hygiene runs in [`crate::lint_workspace`], after the workspace
/// phase has had its chance to use them).
#[derive(Debug)]
pub struct FileScan {
    /// The file's classification.
    pub ctx: FileCtx,
    /// Per-file findings after pragma suppression. Pragma-hygiene findings
    /// are *not* included: workspace-phase rules (T/C/W) may still mark a
    /// pragma used, so hygiene is emitted by the orchestrator.
    pub findings: Vec<Finding>,
    /// Every `unsafe` occurrence in the file.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Identifiers appearing outside `#[cfg(test)]` regions — the metric
    /// emit-coverage rule checks catalog const names against these.
    pub src_idents: BTreeSet<String>,
    /// Item/call/atomic/wire extracts for the workspace-graph rules.
    pub items: crate::items::FileItems,
    /// The file's suppression pragmas, with `used` flags from the per-file
    /// pass.
    pub pragmas: Vec<pragma::Pragma>,
}

/// Rust keywords that can legally precede `[` without it being an indexing
/// expression (slice patterns, array types after `->`/`=` are excluded by
/// the punctuation check; these cover `let [a, b] = ...` style positions).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break",
    "continue", "loop", "while", "for", "where", "impl", "fn", "pub", "use", "mod", "const",
    "static", "enum", "struct", "trait", "type", "unsafe", "async", "await", "dyn", "crate",
    "super", "true", "false",
];

/// Panic macros forbidden on the designated hot paths.
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Scans one file and returns its findings and extracts.
pub fn scan_file(ctx: &FileCtx, src: &str) -> FileScan {
    let tokens = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let in_test = test_region_mask(&tokens);
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut unsafe_sites = Vec::new();
    let mut src_idents = BTreeSet::new();

    let finding = |rule: RuleId, line: u32, message: String, lines: &[&str]| Finding {
        rule,
        file: ctx.rel_path.clone(),
        line,
        message,
        snippet: snippet_at(lines, line),
    };

    // ---- single-token and adjacency scans over significant tokens ----
    for (si, &ti) in sig.iter().enumerate() {
        let tok = &tokens[ti];
        let tested = in_test[ti];

        if tok.kind == TokKind::Ident && !tested {
            src_idents.insert(tok.text.clone());
        }

        // (D) intrinsics: fire everywhere, tests included — a fused kernel
        // in a test still normalizes the wrong numbers.
        if tok.kind == TokKind::Ident && tok.text.starts_with("_mm") {
            if tok.text.contains("fmadd") || tok.text.contains("fmsub") {
                raw.push(finding(
                    RuleId::DetFmaIntrinsic,
                    tok.line,
                    format!(
                        "`{}` fuses the multiply-add rounding step; kernels must round \
                         mul and add separately to stay bit-identical to the scalar \
                         reference",
                        tok.text
                    ),
                    &lines,
                ));
            } else if ctx.crate_name != "ibcm-nn"
                || !NN_INTRINSIC_WHITELIST.contains(&tok.text.as_str())
            {
                raw.push(finding(
                    RuleId::DetIntrinsicWhitelist,
                    tok.line,
                    format!(
                        "`{}` is not on the reviewed intrinsic whitelist for ibcm-nn \
                         (separate-rounding mul/add/load/store/set1 only); SIMD lives \
                         in ibcm-nn's kernels module and nowhere else",
                        tok.text
                    ),
                    &lines,
                ));
            }
        }

        // (D) wall clock outside the observability/bench crates.
        if !tested && ctx.target_kind == TargetKind::Src && !ctx.wall_clock_allowed() {
            if tok.is_ident("Instant") && next_is_path_call(&tokens, &sig, si, "now") {
                raw.push(finding(
                    RuleId::DetWallClock,
                    tok.line,
                    "`Instant::now()` outside ibcm-obs/ibcm-bench — take time through \
                     `ibcm_obs::Stopwatch` so the clock stays on the observe-only side"
                        .to_string(),
                    &lines,
                ));
            }
            if tok.is_ident("SystemTime") {
                raw.push(finding(
                    RuleId::DetWallClock,
                    tok.line,
                    "`SystemTime` outside ibcm-obs/ibcm-bench — wall-clock reads are \
                     confined to the observe-only crates".to_string(),
                    &lines,
                ));
            }
        }

        // (D) ambient randomness: nothing outside a seeded generator, ever.
        if !tested && ctx.target_kind == TargetKind::Src {
            if tok.is_ident("thread_rng") || tok.is_ident("from_entropy") {
                raw.push(finding(
                    RuleId::DetAmbientRng,
                    tok.line,
                    format!(
                        "`{}` draws OS entropy; every random draw must come from an \
                         explicitly seeded generator",
                        tok.text
                    ),
                    &lines,
                ));
            }
            if tok.is_ident("random")
                && prev_sig(&tokens, &sig, si, 1).is_some_and(|t| t.is_punct(':'))
                && prev_sig(&tokens, &sig, si, 3).is_some_and(|t| t.is_ident("rand"))
            {
                raw.push(finding(
                    RuleId::DetAmbientRng,
                    tok.line,
                    "`rand::random` draws OS entropy; use a seeded generator".to_string(),
                    &lines,
                ));
            }
        }

        // (D) default-hasher collections entering a model-affecting crate.
        // The import (or fully qualified path) is the flagged gateway, so
        // one pragma per `use` covers the file.
        if !tested
            && ctx.target_kind == TargetKind::Src
            && ctx.is_model_affecting()
            && (tok.is_ident("HashMap") || tok.is_ident("HashSet"))
            && in_collections_path(&tokens, &sig, si)
        {
            raw.push(finding(
                RuleId::DetDefaultHasher,
                tok.line,
                format!(
                    "`std::collections::{}` uses the per-process random hasher; in a \
                     model-affecting crate every iteration must be order-free or the \
                     import justified with a pragma (or use BTreeMap/BTreeSet)",
                    tok.text
                ),
                &lines,
            ));
        }

        // (P) panic-freedom on the designated hot paths.
        if !tested && ctx.is_panic_free_path() {
            if tok.kind == TokKind::Ident
                && (tok.text == "unwrap" || tok.text == "expect")
                && prev_sig(&tokens, &sig, si, 1).is_some_and(|t| t.is_punct('.'))
                && next_sig(&tokens, &sig, si, 1).is_some_and(|t| t.is_punct('('))
            {
                let (rule, msg) = if tok.text == "unwrap" {
                    (
                        RuleId::PanicUnwrap,
                        "`.unwrap()` on a panic-free hot path — return a typed error \
                         or justify the invariant with a pragma",
                    )
                } else {
                    (
                        RuleId::PanicExpect,
                        "`.expect()` on a panic-free hot path — return a typed error \
                         or justify the invariant with a pragma",
                    )
                };
                raw.push(finding(rule, tok.line, msg.to_string(), &lines));
            }
            if tok.kind == TokKind::Ident
                && PANIC_MACROS.contains(&tok.text.as_str())
                && next_sig(&tokens, &sig, si, 1).is_some_and(|t| t.is_punct('!'))
            {
                raw.push(finding(
                    RuleId::PanicMacro,
                    tok.line,
                    format!("`{}!` on a panic-free hot path", tok.text),
                    &lines,
                ));
            }
            if tok.is_punct('[') && is_index_bracket(&tokens, &sig, si) {
                raw.push(finding(
                    RuleId::PanicIndex,
                    tok.line,
                    "slice/array indexing on a panic-free hot path can panic out of \
                     bounds — use `.get()`/`.get_mut()` or justify the bound with a \
                     pragma".to_string(),
                    &lines,
                ));
            }
        }

        // (M) metric-name string literal outside the catalog.
        if !tested
            && ctx.target_kind == TargetKind::Src
            && !ctx.is_metric_catalog()
            && tok.kind == TokKind::Str
            && is_metric_name(&tok.text)
        {
            raw.push(finding(
                RuleId::MetricLiteralEscape,
                tok.line,
                format!(
                    "metric-name literal \"{}\" outside the catalog — register and \
                     emit through `ibcm_obs::names` so the exported surface stays \
                     enumerable",
                    tok.text
                ),
                &lines,
            ));
        }

        // (U) undocumented Relaxed ordering in a designated lock-free
        // module. Src only: test assertions may read atomics casually.
        if !tested
            && ctx.target_kind == TargetKind::Src
            && ctx.is_ordering_documented_path()
            && tok.is_ident("Relaxed")
            && prev_sig(&tokens, &sig, si, 1).is_some_and(|t| t.is_punct(':'))
            && prev_sig(&tokens, &sig, si, 2).is_some_and(|t| t.is_punct(':'))
            && prev_sig(&tokens, &sig, si, 3).is_some_and(|t| t.is_ident("Ordering"))
            && !has_ordering_comment(&tokens, tok.line)
        {
            raw.push(finding(
                RuleId::UnsafeOrderingUndocumented,
                tok.line,
                "`Ordering::Relaxed` in a lock-free module without an `// ordering:` \
                 comment — Relaxed provides no synchronization, so each use must say \
                 why that is sufficient"
                    .to_string(),
                &lines,
            ));
        }

        // (U) unsafe hygiene — applies everywhere, tests included.
        if tok.is_ident("unsafe") {
            let next = next_sig(&tokens, &sig, si, 1);
            let kind = match next {
                Some(t) if t.is_punct('{') => UnsafeKind::Block,
                Some(t) if t.is_ident("fn") => UnsafeKind::Fn,
                Some(t) if t.is_ident("impl") || t.is_ident("trait") => UnsafeKind::ImplOrTrait,
                // `pub unsafe fn`? `unsafe` always directly precedes
                // `fn`/`impl`/`trait`/`{` in valid Rust, so anything else
                // (e.g. `unsafe extern`) is treated as a block-like site.
                _ => UnsafeKind::Block,
            };
            let documented = match kind {
                UnsafeKind::Fn => has_safety_doc(&tokens, tok.line),
                _ => has_safety_comment(&tokens, tok.line),
            };
            unsafe_sites.push(UnsafeSite {
                file: ctx.rel_path.clone(),
                line: tok.line,
                kind,
                documented,
                snippet: snippet_at(&lines, tok.line),
            });
            if !documented {
                let (rule, msg) = match kind {
                    UnsafeKind::Fn => (
                        RuleId::UnsafeUndocumentedFn,
                        "`unsafe fn` without a `# Safety` section in its doc comment",
                    ),
                    _ => (
                        RuleId::UnsafeMissingSafety,
                        "`unsafe` without a `// SAFETY:` comment on the same or an \
                         immediately preceding line",
                    ),
                };
                raw.push(finding(rule, tok.line, msg.to_string(), &lines));
            }
        }
    }

    // One finding per (rule, line): several tokens on a line tripping the
    // same rule describe one decision for the author to make.
    raw.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);

    let mut pragmas = pragma::collect(&tokens);
    let findings = pragma::suppress(&mut pragmas, raw);
    let items = crate::items::extract(ctx, &tokens);

    FileScan {
        ctx: ctx.clone(),
        findings,
        unsafe_sites,
        src_idents,
        items,
        pragmas,
    }
}

/// `si` is a significant-token index into `sig`; returns the token `back`
/// positions earlier, skipping comments.
fn prev_sig<'t>(tokens: &'t [Tok], sig: &[usize], si: usize, back: usize) -> Option<&'t Tok> {
    si.checked_sub(back).map(|j| &tokens[sig[j]])
}

/// The significant token `ahead` positions later.
fn next_sig<'t>(tokens: &'t [Tok], sig: &[usize], si: usize, ahead: usize) -> Option<&'t Tok> {
    sig.get(si + ahead).map(|&j| &tokens[j])
}

/// True if the token after `si` is `::<name>` (path call like
/// `Instant::now`).
fn next_is_path_call(tokens: &[Tok], sig: &[usize], si: usize, name: &str) -> bool {
    next_sig(tokens, sig, si, 1).is_some_and(|t| t.is_punct(':'))
        && next_sig(tokens, sig, si, 2).is_some_and(|t| t.is_punct(':'))
        && next_sig(tokens, sig, si, 3).is_some_and(|t| t.is_ident(name))
}

/// True if the `HashMap`/`HashSet` ident at `si` is part of a
/// `std::collections::...` path or a `use std::collections::{...}` group.
fn in_collections_path(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    // Direct path: `collections :: HashMap`.
    if prev_sig(tokens, sig, si, 1).is_some_and(|t| t.is_punct(':'))
        && prev_sig(tokens, sig, si, 2).is_some_and(|t| t.is_punct(':'))
        && prev_sig(tokens, sig, si, 3).is_some_and(|t| t.is_ident("collections"))
    {
        return true;
    }
    // Brace group: walk back to the enclosing `{` (within the same use
    // statement) and check the path before it ends in `collections ::`.
    let mut depth = 0usize;
    let mut j = si;
    while j > 0 {
        j -= 1;
        let t = &tokens[sig[j]];
        if t.is_punct(';') || t.is_ident("use") && depth == 0 {
            return false;
        }
        match t.text.as_str() {
            "}" if t.kind == TokKind::Punct => depth += 1,
            "{" if t.kind == TokKind::Punct => {
                if depth == 0 {
                    return prev_sig(tokens, sig, j, 1).is_some_and(|t| t.is_punct(':'))
                        && prev_sig(tokens, sig, j, 2).is_some_and(|t| t.is_punct(':'))
                        && prev_sig(tokens, sig, j, 3)
                            .is_some_and(|t| t.is_ident("collections"));
                }
                depth -= 1;
            }
            _ => {}
        }
        // Don't walk back more than one statement's worth of tokens.
        if si - j > 64 {
            return false;
        }
    }
    false
}

/// True if the `[` at significant index `si` opens an *indexing* expression
/// (previous token is an identifier that is not a keyword, a `]`, or a `)`).
pub(crate) fn is_index_bracket(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    let Some(prev) = prev_sig(tokens, sig, si, 1) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.is_punct(']') || prev.is_punct(')'),
        _ => false,
    }
}

/// String literal shaped like an exported metric name.
fn is_metric_name(s: &str) -> bool {
    s.strip_prefix("ibcm_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// `// SAFETY:` on the `unsafe` keyword's line, or on the comment-only
/// lines immediately above it.
fn has_safety_comment(tokens: &[Tok], line: u32) -> bool {
    has_marker_comment(tokens, line, "SAFETY:")
}

/// `// ordering:` on the `Ordering::Relaxed` line, or on the comment-only
/// lines immediately above it.
fn has_ordering_comment(tokens: &[Tok], line: u32) -> bool {
    has_marker_comment(tokens, line, "ordering:")
}

/// `marker` in a comment on `line` or the comment-only lines above it.
fn has_marker_comment(tokens: &[Tok], line: u32, marker: &str) -> bool {
    if pragma::comment_on_line(tokens, line, marker) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 && pragma::line_is_comment_only(tokens, l) {
        if pragma::comment_on_line(tokens, l, marker) {
            return true;
        }
        l -= 1;
    }
    false
}

/// `# Safety` in the doc block above an `unsafe fn` (walking up through
/// comment-only and attribute lines).
fn has_safety_doc(tokens: &[Tok], line: u32) -> bool {
    let mut l = line.saturating_sub(1);
    while l > 0 {
        if pragma::line_is_comment_only(tokens, l) {
            if pragma::comment_on_line(tokens, l, "# Safety") {
                return true;
            }
        } else if !line_is_attribute(tokens, l) {
            return false;
        }
        l -= 1;
    }
    false
}

/// True if the first significant token on `line` is `#` (an attribute such
/// as `#[target_feature(...)]` between the docs and the fn).
fn line_is_attribute(tokens: &[Tok], line: u32) -> bool {
    tokens
        .iter()
        .find(|t| t.line == line && !t.is_comment())
        .is_some_and(|t| t.is_punct('#'))
}

/// Marks every token inside a `#[cfg(test)]`-gated item or a `#[test]` fn.
/// Returns one flag per token.
pub(crate) fn test_region_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut si = 0usize;
    while si < sig.len() {
        if is_test_attr_at(tokens, &sig, si) {
            // Walk past this attribute and any further attributes, then
            // mark through the end of the next item.
            let mut j = skip_attr(tokens, &sig, si);
            while is_attr_start(tokens, &sig, j) {
                j = skip_attr(tokens, &sig, j);
            }
            let end = item_end(tokens, &sig, j);
            for &k in sig.iter().take(end).skip(si) {
                mask[k] = true;
            }
            // Comments inside the region are part of it too (pragmas in
            // test code should not suppress src findings, and vice versa).
            if let (Some(&first), Some(&last)) = (sig.get(si), sig.get(end.saturating_sub(1))) {
                let (lo, hi) = (tokens[first].line, tokens[last].line);
                for (k, t) in tokens.iter().enumerate() {
                    if t.is_comment() && t.line >= lo && t.line <= hi {
                        mask[k] = true;
                    }
                }
            }
            si = end.max(si + 1);
        } else {
            si += 1;
        }
    }
    mask
}

/// `#[cfg(test)]` or `#[test]` or `#[cfg_attr(..., test)]`-ish: an
/// attribute whose first path segment mentions `test` gating.
fn is_test_attr_at(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    if !is_attr_start(tokens, sig, si) {
        return false;
    }
    // Look at the tokens inside `#[ ... ]` for `test` as `cfg(test)` or a
    // bare `#[test]`.
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut j = si;
    while let Some(t) = next_sig(tokens, sig, j, 1) {
        j += 1;
        match t.kind {
            TokKind::Punct if t.is_punct('[') => depth += 1,
            TokKind::Punct if t.is_punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if t.text == "cfg" => saw_cfg = true,
            TokKind::Ident if t.text == "test" => {
                // `#[test]` (first ident) or `cfg(test)`.
                let first_inner = next_sig(tokens, sig, si, 2);
                return saw_cfg || first_inner.is_some_and(|f| f.is_ident("test"));
            }
            _ => {}
        }
        if j - si > 32 {
            return false;
        }
    }
    false
}

/// True if the significant token at `si` starts an attribute (`#`, `[`).
fn is_attr_start(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    sig.get(si).map(|&i| &tokens[i]).is_some_and(|t| t.is_punct('#'))
        && next_sig(tokens, sig, si, 1).is_some_and(|t| t.is_punct('['))
}

/// The significant index just past the attribute starting at `si`.
fn skip_attr(tokens: &[Tok], sig: &[usize], si: usize) -> usize {
    let mut depth = 0usize;
    let mut j = si + 1; // at `[`
    while j < sig.len() {
        let t = &tokens[sig[j]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    sig.len()
}

/// The significant index just past the item starting at `si`: through the
/// matching `}` of its first brace, or through a `;` if one comes first.
fn item_end(tokens: &[Tok], sig: &[usize], si: usize) -> usize {
    let mut j = si;
    while j < sig.len() {
        let t = &tokens[sig[j]];
        if t.is_punct(';') {
            return j + 1;
        }
        if t.is_punct('{') {
            let mut depth = 0usize;
            while j < sig.len() {
                let t = &tokens[sig[j]];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return sig.len();
        }
        j += 1;
    }
    sig.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileCtx {
        FileCtx::classify(path).unwrap()
    }

    // Per-file findings plus pragma hygiene (which `lint_workspace` emits
    // after the workspace phase; tests fold it back in here).
    fn rules_fired(path: &str, src: &str) -> Vec<(String, u32)> {
        let scan = scan_file(&ctx(path), src);
        let lines: Vec<&str> = src.lines().collect();
        let mut findings = scan.findings;
        findings.extend(pragma::hygiene(&scan.pragmas, path, &lines));
        findings
            .iter()
            .map(|f| (f.rule.id().to_string(), f.line))
            .collect()
    }

    #[test]
    fn wall_clock_flagged_outside_obs() {
        let fired = rules_fired(
            "crates/core/src/pipeline.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(fired, vec![("det-wall-clock".to_string(), 1)]);
    }

    #[test]
    fn wall_clock_allowed_in_obs_and_tests() {
        assert!(rules_fired(
            "crates/obs/src/trace.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        )
        .is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = std::time::Instant::now(); }\n}";
        assert!(rules_fired("crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_only_on_hot_paths() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(
            rules_fired("crates/lm/src/scorer.rs", src),
            vec![("panic-unwrap".to_string(), 1)]
        );
        assert!(rules_fired("crates/lm/src/model.rs", src).is_empty());
    }

    #[test]
    fn indexing_heuristic() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        assert_eq!(
            rules_fired("crates/core/src/detector.rs", src),
            vec![("panic-index".to_string(), 1)]
        );
        // Attributes, macro brackets, array types, and slice patterns are
        // not indexing.
        let benign = "#[derive(Debug)]\nstruct S;\nfn g() { let v = vec![1, 2]; \
                      let [a, b] = [3, 4]; let _: [u8; 2] = [a, b]; }";
        assert!(rules_fired("crates/core/src/detector.rs", benign).is_empty());
    }

    #[test]
    fn pragma_suppresses_and_requires_reason() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // ibcm-lint: allow(panic-unwrap, reason = \"checked by caller\")\n    x.unwrap()\n}";
        assert!(rules_fired("crates/lm/src/scorer.rs", src).is_empty());
        let no_reason = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // ibcm-lint: allow(panic-unwrap)\n}";
        assert_eq!(
            rules_fired("crates/lm/src/scorer.rs", no_reason),
            vec![("pragma-missing-reason".to_string(), 2)]
        );
    }

    #[test]
    fn stale_pragma_reported() {
        let src = "// ibcm-lint: allow(panic-unwrap, reason = \"nothing here\")\nfn f() {}";
        assert_eq!(
            rules_fired("crates/lm/src/scorer.rs", src),
            vec![("pragma-unused".to_string(), 1)]
        );
    }

    #[test]
    fn unsafe_block_requires_safety_comment() {
        let bad = "fn f() { unsafe { danger(); } }";
        let fired = rules_fired("crates/nn/src/matrix.rs", bad);
        assert_eq!(fired, vec![("unsafe-missing-safety".to_string(), 1)]);
        let good = "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { danger(); }\n}";
        assert!(rules_fired("crates/nn/src/matrix.rs", good).is_empty());
    }

    #[test]
    fn unsafe_fn_requires_safety_doc() {
        let bad = "pub unsafe fn f() {}";
        assert_eq!(
            rules_fired("crates/nn/src/matrix.rs", bad),
            vec![("unsafe-undocumented-fn".to_string(), 1)]
        );
        let good = "/// Does things.\n///\n/// # Safety\n///\n/// Caller checks X.\n#[inline]\npub unsafe fn f() {}";
        assert!(rules_fired("crates/nn/src/matrix.rs", good).is_empty());
    }

    #[test]
    fn fma_and_foreign_intrinsics_flagged() {
        let src = "fn k() { let v = _mm256_fmadd_ps(a, b, c); }";
        let fired = rules_fired("crates/nn/src/matrix.rs", src);
        assert_eq!(fired, vec![("det-fma-intrinsic".to_string(), 1)]);
        let foreign = "fn k() { let v = _mm256_add_ps(a, b); }";
        assert!(rules_fired("crates/nn/src/matrix.rs", foreign).is_empty());
        assert_eq!(
            rules_fired("crates/lm/src/model.rs", foreign),
            vec![("det-intrinsic-whitelist".to_string(), 1)]
        );
    }

    #[test]
    fn hasher_rule_fires_on_imports() {
        let single = "use std::collections::HashMap;";
        assert_eq!(
            rules_fired("crates/lm/src/ngram.rs", single),
            vec![("det-default-hasher".to_string(), 1)]
        );
        let group = "use std::collections::{BTreeMap, HashSet};";
        assert_eq!(
            rules_fired("crates/lm/src/ngram.rs", group),
            vec![("det-default-hasher".to_string(), 1)]
        );
        // BTree collections and non-model crates are fine.
        assert!(rules_fired("crates/lm/src/ngram.rs", "use std::collections::BTreeMap;").is_empty());
        assert!(rules_fired("crates/viz/src/export.rs", single).is_empty());
    }

    #[test]
    fn relaxed_ordering_requires_comment_in_lockfree_modules() {
        let bad = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }";
        assert_eq!(
            rules_fired("crates/served/src/queue.rs", bad),
            vec![("unsafe-ordering-undocumented".to_string(), 1)]
        );
        // A same-line or immediately preceding `// ordering:` comment
        // satisfies the rule.
        let inline = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) // ordering: gauge\n}";
        assert!(rules_fired("crates/served/src/queue.rs", inline).is_empty());
        let above = "fn f(a: &AtomicUsize) -> usize {\n    // ordering: Relaxed — monitoring only.\n    a.load(Ordering::Relaxed)\n}";
        assert!(rules_fired("crates/served/src/queue.rs", above).is_empty());
        // Stronger orderings need no comment; other files are exempt.
        let acq = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Acquire) }";
        assert!(rules_fired("crates/served/src/queue.rs", acq).is_empty());
        assert!(rules_fired("crates/served/src/metrics.rs", bad).is_empty());
    }

    #[test]
    fn metric_literal_escape() {
        let src = "fn f() { let n = \"ibcm_fake_total\"; }";
        assert_eq!(
            rules_fired("crates/core/src/stream.rs", src),
            vec![("metric-literal-escape".to_string(), 1)]
        );
        // The catalog itself and test regions may hold names.
        assert!(rules_fired("crates/obs/src/names.rs", src).is_empty());
    }
}
