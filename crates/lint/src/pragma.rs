//! Suppression pragmas: `// ibcm-lint: allow(rule-id, reason = "...")`.
//!
//! A pragma suppresses findings of the named rule on its own line or on the
//! line immediately below (so it can trail the offending expression or sit
//! on its own line above it). Every pragma must carry a non-empty reason —
//! an unexplained suppression is itself a finding — and a pragma that
//! suppresses nothing is reported as stale.

use crate::findings::{Finding, RuleId};
use crate::lexer::Tok;

/// One parsed suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule this pragma suppresses (`None` if the id was unknown).
    pub rule: Option<RuleId>,
    /// The raw rule id text as written.
    pub rule_text: String,
    /// The justification, if one was given.
    pub reason: Option<String>,
    /// 1-indexed line the pragma comment starts on.
    pub line: u32,
    /// Set by the suppression pass when a finding matched this pragma.
    pub used: bool,
}

const MARKER: &str = "ibcm-lint:";

/// Extracts every pragma from a token stream. Pragmas are ordinary (non-doc)
/// comments whose content *starts* with the `ibcm-lint:` marker — a doc
/// comment that merely mentions the syntax is not a pragma.
pub fn collect(tokens: &[Tok]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for tok in tokens {
        if !tok.is_comment() {
            continue;
        }
        let Some(content) = plain_comment_content(&tok.text) else {
            continue;
        };
        let Some(rest) = content.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow").map(str::trim_start) else {
            continue;
        };
        let Some(args) = args.strip_prefix('(') else { continue };
        let Some(close) = args.rfind(')') else { continue };
        let inner = &args[..close];
        // rule id = everything up to the first comma (or the whole body).
        let (rule_part, reason_part) = match inner.find(',') {
            Some(c) => (&inner[..c], Some(&inner[c + 1..])),
            None => (inner, None),
        };
        let rule_text = rule_part.trim().to_string();
        let reason = reason_part.and_then(parse_reason);
        out.push(Pragma {
            rule: RuleId::from_id(&rule_text),
            rule_text,
            reason,
            line: tok.line,
            used: false,
        });
    }
    out
}

/// The trimmed content of a *plain* comment (`// ...` or `/* ... */`);
/// `None` for doc comments (`///`, `//!`, `/**`, `/*!`), which document the
/// pragma syntax without being pragmas.
fn plain_comment_content(text: &str) -> Option<&str> {
    if let Some(rest) = text.strip_prefix("//") {
        if rest.starts_with('/') || rest.starts_with('!') {
            return None;
        }
        return Some(rest.trim());
    }
    if let Some(rest) = text.strip_prefix("/*") {
        if rest.starts_with('*') || rest.starts_with('!') {
            return None;
        }
        return Some(rest.strip_suffix("*/").unwrap_or(rest).trim());
    }
    None
}

/// Parses `reason = "..."` out of the pragma tail. Returns `None` when the
/// key or a non-empty quoted value is missing.
fn parse_reason(tail: &str) -> Option<String> {
    let tail = tail.trim_start();
    let tail = tail.strip_prefix("reason")?.trim_start();
    let tail = tail.strip_prefix('=')?.trim_start();
    let tail = tail.strip_prefix('"')?;
    let end = tail.find('"')?;
    let reason = tail[..end].trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason.to_string())
    }
}

/// Applies pragmas to `findings`: drops suppressed findings and marks the
/// pragmas that did the suppressing. Hygiene (missing reason, unknown rule,
/// stale pragma) is emitted separately by [`hygiene`] once every pass —
/// per-file and workspace-graph — has had its chance to use a pragma.
pub fn suppress(pragmas: &mut [Pragma], findings: Vec<Finding>) -> Vec<Finding> {
    let mut kept = Vec::new();
    for f in findings {
        let mut suppressed = false;
        if f.rule.suppressible() {
            for p in pragmas.iter_mut() {
                if p.rule == Some(f.rule) && (p.line == f.line || p.line + 1 == f.line) {
                    p.used = true;
                    suppressed = true;
                    break;
                }
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    kept
}

/// Emits the pragma-hygiene findings for one file's pragmas: missing
/// reason, unknown rule, and stale (never-used) pragmas.
pub fn hygiene(pragmas: &[Pragma], file: &str, lines: &[&str]) -> Vec<Finding> {
    let mut kept = Vec::new();
    for p in pragmas.iter() {
        let snippet = snippet_at(lines, p.line);
        if p.rule.is_none() {
            kept.push(Finding {
                rule: RuleId::PragmaUnknownRule,
                file: file.to_string(),
                line: p.line,
                message: format!("pragma names unknown rule `{}`", p.rule_text),
                snippet,
            });
            continue;
        }
        if p.reason.is_none() {
            kept.push(Finding {
                rule: RuleId::PragmaMissingReason,
                file: file.to_string(),
                line: p.line,
                message: format!(
                    "allow({}) pragma has no reason — every suppression must say why \
                     the invariant holds at this site",
                    p.rule_text
                ),
                snippet,
            });
        } else if !p.used {
            kept.push(Finding {
                rule: RuleId::PragmaUnused,
                file: file.to_string(),
                line: p.line,
                message: format!(
                    "allow({}) pragma suppressed nothing here — remove the stale escape hatch",
                    p.rule_text
                ),
                snippet,
            });
        }
    }
    kept
}

/// The trimmed source line at `line` (1-indexed), for rendering.
pub fn snippet_at(lines: &[&str], line: u32) -> String {
    lines
        .get(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_full_pragma() {
        let toks = lex("x(); // ibcm-lint: allow(transitive-panic, reason = \"bounded above\")");
        let ps = collect(&toks);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].rule, Some(RuleId::TransitivePanic));
        assert_eq!(ps[0].reason.as_deref(), Some("bounded above"));
    }

    #[test]
    fn missing_reason_is_detected() {
        let toks = lex("// ibcm-lint: allow(metric-literal-escape)");
        let ps = collect(&toks);
        assert_eq!(ps.len(), 1);
        assert!(ps[0].reason.is_none());
    }

    #[test]
    fn empty_reason_counts_as_missing() {
        let toks = lex("// ibcm-lint: allow(metric-literal-escape, reason = \"  \")");
        assert!(collect(&toks)[0].reason.is_none());
    }

    #[test]
    fn doc_comments_and_mentions_are_not_pragmas() {
        let toks = lex(
            "/// `ibcm-lint: allow(transitive-panic, reason = \"x\")` is the syntax\n\
             //! ibcm-lint: allow(transitive-panic, reason = \"x\")\n\
             // see ibcm-lint: allow(...) in DESIGN.md\n\
             fn f() {}",
        );
        assert!(collect(&toks).is_empty());
    }

    #[test]
    fn unknown_rule_is_kept_verbatim() {
        let toks = lex("// ibcm-lint: allow(no-such-rule, reason = \"x\")");
        let ps = collect(&toks);
        assert!(ps[0].rule.is_none());
        assert_eq!(ps[0].rule_text, "no-such-rule");
    }
}
