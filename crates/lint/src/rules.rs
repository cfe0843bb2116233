//! The per-file rule pass: the intrinsic allow-list (D) and the
//! metric-literal (M) check over one token stream, plus the extracts the
//! workspace-level rules consume. Per-file determinism, panic-freedom and
//! unsafe hygiene are clippy's (DESIGN.md, "Static invariants").

use std::collections::BTreeSet;

use crate::findings::{Finding, RuleId};
use crate::lexer::{lex, Tok, TokKind};
use crate::policy::{FileCtx, TargetKind, NN_INTRINSIC_WHITELIST};
use crate::pragma::{self, snippet_at};

/// Everything one file contributes: its (suppression-applied) findings, the
/// identifier set the metric-coverage rule needs, the structural extracts
/// the workspace-graph rules consume, and the file's pragmas (hygiene runs
/// in [`crate::lint_workspace`], after the workspace phase has had its
/// chance to use them).
#[derive(Debug)]
pub struct FileScan {
    /// The file's classification.
    pub ctx: FileCtx,
    /// Per-file findings after pragma suppression. Pragma-hygiene findings
    /// are *not* included: workspace-phase rules (T/C/W) may still mark a
    /// pragma used, so hygiene is emitted by the orchestrator.
    pub findings: Vec<Finding>,
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

/// Scans one file and returns its findings and extracts.
pub fn scan_file(ctx: &FileCtx, src: &str) -> FileScan {
    let tokens = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let in_test = test_region_mask(&tokens);

    let mut raw: Vec<Finding> = Vec::new();
    let mut src_idents = BTreeSet::new();

    let finding = |rule: RuleId, line: u32, message: String| Finding {
        rule,
        file: ctx.rel_path.clone(),
        line,
        message,
        snippet: snippet_at(&lines, line),
    };

    for (tok, &tested) in tokens.iter().zip(&in_test) {
        if tok.kind == TokKind::Ident && !tested {
            src_idents.insert(tok.text.clone());
        }

        // (D) intrinsics: fire everywhere, tests included — a fused kernel
        // in a test still normalizes the wrong numbers.
        if tok.kind == TokKind::Ident
            && tok.text.starts_with("_mm")
            && (ctx.crate_name != "ibcm-nn"
                || !NN_INTRINSIC_WHITELIST.contains(&tok.text.as_str()))
        {
            raw.push(finding(
                RuleId::DetIntrinsicWhitelist,
                tok.line,
                format!(
                    "`{}` is not on the reviewed intrinsic whitelist for ibcm-nn \
                     (separate-rounding mul/add/load/store/set1 only, never FMA); \
                     SIMD lives in ibcm-nn's kernels module and nowhere else",
                    tok.text
                ),
            ));
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
            ));
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

    // Number of `[` tokens the transitive-panic extraction counts as
    // indexing.
    fn index_brackets(src: &str) -> usize {
        let tokens = lex(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        (0..sig.len())
            .filter(|&si| tokens[sig[si]].is_punct('[') && is_index_bracket(&tokens, &sig, si))
            .count()
    }

    #[test]
    fn indexing_heuristic() {
        assert_eq!(index_brackets("fn f(v: &[u8], i: usize) -> u8 { v[i] }"), 1);
        assert_eq!(index_brackets("fn f(m: &M) -> u8 { m.rows()[0] + m.v[1][2] }"), 3);
        // Attributes, macro brackets, array types, and slice patterns are
        // not indexing.
        let benign = "#[derive(Debug)]\nstruct S;\nfn g() { let v = vec![1, 2]; \
                      let [a, b] = [3, 4]; let _: [u8; 2] = [a, b]; }";
        assert_eq!(index_brackets(benign), 0);
    }

    #[test]
    fn pragma_suppresses_and_requires_reason() {
        let src = "fn f() {\n    // ibcm-lint: allow(metric-literal-escape, reason = \"label, not a name\")\n    let n = \"ibcm_fake_total\";\n}";
        assert!(rules_fired("crates/core/src/stream.rs", src).is_empty());
        let no_reason = "fn f() {\n    let n = \"ibcm_fake_total\"; // ibcm-lint: allow(metric-literal-escape)\n}";
        assert_eq!(
            rules_fired("crates/core/src/stream.rs", no_reason),
            vec![("pragma-missing-reason".to_string(), 2)]
        );
    }

    #[test]
    fn stale_pragma_reported() {
        let src = "// ibcm-lint: allow(metric-literal-escape, reason = \"nothing here\")\nfn f() {}";
        assert_eq!(
            rules_fired("crates/core/src/stream.rs", src),
            vec![("pragma-unused".to_string(), 1)]
        );
    }

    #[test]
    fn fma_and_foreign_intrinsics_flagged() {
        // FMA is off the whitelist, so even ibcm-nn may not use it.
        let src = "fn k() { let v = _mm256_fmadd_ps(a, b, c); }";
        let fired = rules_fired("crates/nn/src/matrix.rs", src);
        assert_eq!(fired, vec![("det-intrinsic-whitelist".to_string(), 1)]);
        let foreign = "fn k() { let v = _mm256_add_ps(a, b); }";
        assert!(rules_fired("crates/nn/src/matrix.rs", foreign).is_empty());
        assert_eq!(
            rules_fired("crates/lm/src/model.rs", foreign),
            vec![("det-intrinsic-whitelist".to_string(), 1)]
        );
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
