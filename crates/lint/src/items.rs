//! Item and call-site extraction: the lightweight structural layer the
//! workspace-graph rules build on.
//!
//! This is still the hand-rolled lexer underneath — no external parser, per
//! the crate's zero-dependency rule. One linear pass over the significant
//! tokens tracks just enough structure (inline `mod` nesting, `impl` block
//! self-types, `fn` items and their brace-matched bodies) to attribute every
//! call site, panicking construct, and atomic operation to the function it
//! occurs in. The transitive panic rule ([`crate::graph`]), the concurrency
//! rules ([`crate::conc`]), and the wire-conformance rules
//! ([`crate::wire`]) all consume these extracts.
//!
//! The extraction is deliberately approximate where full name resolution
//! would need a type checker; the consumers document the resolution policy
//! they apply (see [`crate::graph`]).

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::policy::FileCtx;
use crate::rules::{is_index_bracket, test_region_mask};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(...)` — dot-dispatched method call.
    Method,
    /// `name(...)` or `path::to::name(...)` — free or path-qualified call.
    /// The qualifier holds the path segments before the name (empty for a
    /// plain free call), with leading `crate`/`self`/`super` stripped.
    Free(Vec<String>),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Method vs (qualified) free call.
    pub kind: CallKind,
    /// 1-indexed line.
    pub line: u32,
}

/// One panicking construct inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Short label: `unwrap`, `expect`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!`, or `index`.
    pub what: &'static str,
    /// 1-indexed line.
    pub line: u32,
}

/// One function item (free fn, inherent/trait method, or bodyless trait
/// signature) extracted from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` self-type when declared inside an impl block.
    pub self_type: Option<String>,
    /// Module names this fn is addressable under for path-qualified calls:
    /// the file stem plus any inline `mod` names it is nested in.
    pub modules: Vec<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn carries any `pub` visibility (including `pub(crate)`).
    pub is_pub: bool,
    /// Whether the fn sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Every call site in the body.
    pub calls: Vec<CallSite>,
    /// Every panicking construct in the body.
    pub panics: Vec<PanicSite>,
}

/// What an atomic operation does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `load`.
    Load,
    /// `store`.
    Store,
    /// `swap`/`fetch_*`/`compare_exchange*` — reads *and* writes, so it can
    /// satisfy either side of a Release/Acquire protocol.
    Rmw,
}

/// One atomic operation, attributed to the named field it targets
/// (`self.tail.0.store(..)` → field `tail`).
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// The closest alphabetic receiver segment (skipping `self` and tuple
    /// indices) — the protocol field name.
    pub field: String,
    /// Load, store, or read-modify-write.
    pub kind: AtomicKind,
    /// Every `Ordering::X` argument at the call site, as written.
    pub orderings: Vec<String>,
    /// 1-indexed line.
    pub line: u32,
    /// Whether an `// ordering:` comment sits on this line or on the
    /// comment-only lines directly above it.
    pub ordering_comment: bool,
}

/// One `fence(Ordering::X)` site, for the report's fence inventory.
#[derive(Debug, Clone)]
pub struct FenceSite {
    /// The fence's ordering.
    pub ordering: String,
    /// 1-indexed line.
    pub line: u32,
}

/// Wire-surface extracts from the HTTP crate (empty elsewhere).
#[derive(Debug, Clone, Default)]
pub struct WireExtract {
    /// `(status, line)` for every literal status passed to a response
    /// constructor (`ApiError::new`, `Response::json`, `Response::text`),
    /// plus `400` for each `bad_request(..)` call.
    pub statuses: Vec<(u16, u32)>,
    /// `(route, line)` for every `/`-leading string literal (routing table
    /// entries and metric labels share these).
    pub routes: Vec<(String, u32)>,
    /// `(field, line)` for every `"name":` pattern inside a string literal
    /// and every `with_field("name", ..)` argument — the JSON field names
    /// the API emits.
    pub fields: Vec<(String, u32)>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// All fn items (including test fns, flagged `in_test`).
    pub fns: Vec<FnItem>,
    /// Atomic operations outside test regions.
    pub atomics: Vec<AtomicOp>,
    /// `fence(..)` sites outside test regions.
    pub fences: Vec<FenceSite>,
    /// Wire-surface extracts (populated only for wire-surface files).
    pub wire: WireExtract,
    /// Every identifier in the file outside comments and string literals:
    /// the types a method call's receiver can be named by.
    pub idents: BTreeSet<String>,
}

/// Atomic method names that target an atomic cell.
const ATOMIC_OPS: &[(&str, AtomicKind)] = &[
    ("load", AtomicKind::Load),
    ("store", AtomicKind::Store),
    ("swap", AtomicKind::Rmw),
    ("compare_exchange", AtomicKind::Rmw),
    ("compare_exchange_weak", AtomicKind::Rmw),
    ("fetch_add", AtomicKind::Rmw),
    ("fetch_sub", AtomicKind::Rmw),
    ("fetch_and", AtomicKind::Rmw),
    ("fetch_or", AtomicKind::Rmw),
    ("fetch_xor", AtomicKind::Rmw),
    ("fetch_update", AtomicKind::Rmw),
];

/// Keywords that can precede `(` without being a call.
const CALL_SKIP_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "pub", "use", "mod", "const", "static", "enum",
    "struct", "trait", "type", "unsafe", "async", "await", "dyn", "crate", "super", "self",
    "where", "true", "false",
];

/// Panic macros the transitive pass counts as panicking constructs.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Assertion macros: they panic by design and clippy's panic lints allow
/// them on the panic-free files too, so the transitive pass does not count
/// them.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

enum Scope {
    Mod(String),
    Impl(Option<String>),
    Fn(usize),
    Other,
}

/// Extracts items, calls, panics, atomics, fences, and (for wire-surface
/// files) the wire surface from one token stream.
pub fn extract(ctx: &FileCtx, tokens: &[Tok]) -> FileItems {
    let in_test = test_region_mask(tokens);
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let file_stem = file_stem(&ctx.rel_path);
    let wire_surface = ctx.is_wire_surface();

    let mut out = FileItems::default();
    let mut scopes: Vec<(usize, Scope)> = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<Scope> = None;

    let mut si = 0usize;
    while si < sig.len() {
        let ti = sig[si];
        let tok = &tokens[ti];
        let tested = in_test[ti];

        match tok.kind {
            TokKind::Punct if tok.is_punct('{') => {
                depth += 1;
                scopes.push((depth, pending.take().unwrap_or(Scope::Other)));
            }
            TokKind::Punct if tok.is_punct('}') => {
                while scopes.last().is_some_and(|(d, _)| *d == depth) {
                    scopes.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Ident if tok.text == "mod" => {
                if let (Some(name), Some(open)) = (sig_tok(tokens, &sig, si + 1), sig_tok(tokens, &sig, si + 2)) {
                    if name.kind == TokKind::Ident && open.is_punct('{') {
                        pending = Some(Scope::Mod(name.text.clone()));
                    }
                }
            }
            TokKind::Ident if tok.text == "impl" && impl_item_position(tokens, &sig, si) => {
                pending = Some(Scope::Impl(impl_self_type(tokens, &sig, si)));
            }
            TokKind::Ident if tok.text == "fn" => {
                if let Some(name) = sig_tok(tokens, &sig, si + 1) {
                    if name.kind == TokKind::Ident {
                        let self_type = scopes
                            .iter()
                            .rev()
                            .find_map(|(_, s)| match s {
                                Scope::Impl(t) => Some(t.clone()),
                                _ => None,
                            })
                            .flatten();
                        let mut modules = vec![file_stem.clone()];
                        modules.extend(scopes.iter().filter_map(|(_, s)| match s {
                            Scope::Mod(m) => Some(m.clone()),
                            _ => None,
                        }));
                        let idx = out.fns.len();
                        out.fns.push(FnItem {
                            name: name.text.clone(),
                            self_type,
                            modules,
                            line: tok.line,
                            is_pub: fn_is_pub(tokens, &sig, si),
                            in_test: tested,
                            calls: Vec::new(),
                            panics: Vec::new(),
                        });
                        // A `{` opens the body (attribute calls there to
                        // this fn); a `;` means a bodyless signature.
                        if fn_has_body(tokens, &sig, si + 2) {
                            pending = Some(Scope::Fn(idx));
                        }
                    }
                }
            }
            _ => {}
        }

        let current_fn = scopes.iter().rev().find_map(|(_, s)| match s {
            Scope::Fn(i) => Some(*i),
            _ => None,
        });

        if tok.kind == TokKind::Ident {
            out.idents.insert(tok.text.clone());
        }

        // ---- body extracts ----
        if tok.kind == TokKind::Ident && tok.text != "fn" {
            let next1 = sig_tok(tokens, &sig, si + 1);
            let prev1 = si.checked_sub(1).map(|j| &tokens[sig[j]]);
            let is_macro = next1.is_some_and(|t| t.is_punct('!'));
            let is_call = next1.is_some_and(|t| t.is_punct('('));

            if is_macro {
                if let Some(f) = current_fn {
                    if PANIC_MACROS.contains(&tok.text.as_str())
                        && !ASSERT_MACROS.contains(&tok.text.as_str())
                    {
                        let what = match tok.text.as_str() {
                            "panic" => "panic!",
                            "unreachable" => "unreachable!",
                            "todo" => "todo!",
                            _ => "unimplemented!",
                        };
                        out.fns[f].panics.push(PanicSite { what, line: tok.line });
                    }
                }
            } else if is_call && !CALL_SKIP_KEYWORDS.contains(&tok.text.as_str()) {
                let is_method = prev1.is_some_and(|t| t.is_punct('.'));
                let is_decl = prev1.is_some_and(|t| t.is_ident("fn"));
                if is_method {
                    // Atomic ops are recorded file-wide (protocol checks
                    // span functions); panicking adapters and ordinary
                    // method calls are attributed to the enclosing fn.
                    if let Some(&(_, kind)) = ATOMIC_OPS.iter().find(|(n, _)| *n == tok.text) {
                        if !tested {
                            if let Some(field) = receiver_field(tokens, &sig, si) {
                                out.atomics.push(AtomicOp {
                                    field,
                                    kind,
                                    orderings: orderings_in_args(tokens, &sig, si + 1),
                                    line: tok.line,
                                    ordering_comment: has_ordering_comment(tokens, tok.line),
                                });
                            }
                        }
                    }
                    if wire_surface && !tested && tok.text == "with_field" {
                        if let Some(arg) = sig_tok(tokens, &sig, si + 2) {
                            if arg.kind == TokKind::Str {
                                out.wire.fields.push((arg.text.clone(), tok.line));
                            }
                        }
                    }
                    if let Some(f) = current_fn {
                        match tok.text.as_str() {
                            "unwrap" => out.fns[f].panics.push(PanicSite { what: "unwrap", line: tok.line }),
                            "expect" => out.fns[f].panics.push(PanicSite { what: "expect", line: tok.line }),
                            _ => out.fns[f].calls.push(CallSite {
                                name: tok.text.clone(),
                                kind: CallKind::Method,
                                line: tok.line,
                            }),
                        }
                    }
                } else if !is_decl {
                    if !tested && tok.text == "fence" {
                        let ords = orderings_in_args(tokens, &sig, si + 1);
                        out.fences.push(FenceSite {
                            ordering: ords.into_iter().next().unwrap_or_default(),
                            line: tok.line,
                        });
                    }
                    if wire_surface && !tested && tok.text == "bad_request" {
                        out.wire.statuses.push((400, tok.line));
                    }
                    if wire_surface && !tested && tok.text == "with_field" {
                        if let Some(arg) = sig_tok(tokens, &sig, si + 2) {
                            if arg.kind == TokKind::Str {
                                out.wire.fields.push((arg.text.clone(), tok.line));
                            }
                        }
                    }
                    if let Some(f) = current_fn {
                        let starts_upper = tok.text.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                        if !starts_upper {
                            out.fns[f].calls.push(CallSite {
                                name: tok.text.clone(),
                                kind: CallKind::Free(qualifier_of(tokens, &sig, si)),
                                line: tok.line,
                            });
                        }
                    }
                }
            }
        }

        // Indexing on a panic-free concern: attribute to the enclosing fn.
        if tok.is_punct('[') && is_index_bracket(tokens, &sig, si) {
            if let Some(f) = current_fn {
                out.fns[f].panics.push(PanicSite { what: "index", line: tok.line });
            }
        }

        // Wire surface: status-code literals and string extracts.
        if wire_surface && !tested {
            if tok.kind == TokKind::Number {
                if let Ok(code) = tok.text.parse::<u16>() {
                    if (100..=599).contains(&code)
                        && si >= 2
                        && tokens[sig[si - 1]].is_punct('(')
                        && matches!(tokens[sig[si - 2]].text.as_str(), "new" | "json" | "text")
                        && tokens[sig[si - 2]].kind == TokKind::Ident
                    {
                        out.wire.statuses.push((code, tok.line));
                    }
                }
            }
            if tok.kind == TokKind::Str {
                let t = &tok.text;
                if t.len() > 1 && t.starts_with('/') && !t.contains(char::is_whitespace) {
                    out.wire.routes.push((t.clone(), tok.line));
                }
                for name in json_field_names(t) {
                    out.wire.fields.push((name, tok.line));
                }
            }
        }

        si += 1;
    }
    out
}

fn sig_tok<'t>(tokens: &'t [Tok], sig: &[usize], si: usize) -> Option<&'t Tok> {
    sig.get(si).map(|&i| &tokens[i])
}

/// The file stem (`crates/http/src/json.rs` → `json`), with `lib`/`main`
/// mapped to the crate's path-qualifier form (`ibcm_http`).
fn file_stem(rel_path: &str) -> String {
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let stem = base.strip_suffix(".rs").unwrap_or(base);
    stem.to_string()
}

/// `impl` starts an item (not an `-> impl Trait`/`: impl Trait` type) when
/// the previous significant token closes an item or is `unsafe`.
fn impl_item_position(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    match si.checked_sub(1).map(|j| &tokens[sig[j]]) {
        None => true,
        Some(t) => {
            t.is_punct('{') || t.is_punct('}') || t.is_punct(';') || t.is_punct(']')
                || t.is_ident("unsafe")
        }
    }
}

/// The self type of an impl block: the last path ident of the type after
/// `for` (trait impls) or after the generics (inherent impls).
fn impl_self_type(tokens: &[Tok], sig: &[usize], si: usize) -> Option<String> {
    let mut angle = 0usize;
    let mut last_path_ident: Option<String> = None;
    let mut j = si + 1;
    while j < sig.len() {
        let t = &tokens[sig[j]];
        // Skip `->` so its `>` does not unbalance the generics tracker.
        if t.is_punct('-') && sig_tok(tokens, sig, j + 1).is_some_and(|n| n.is_punct('>')) {
            j += 2;
            continue;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if t.is_punct('{') || t.is_ident("where") {
                return last_path_ident;
            }
            if t.is_ident("for") {
                last_path_ident = None;
            } else if t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe")
            {
                last_path_ident = Some(t.text.clone());
            }
        }
        j += 1;
        if j - si > 128 {
            break;
        }
    }
    last_path_ident
}

/// Walks back from the `fn` keyword over visibility/qualifier tokens
/// looking for `pub`.
fn fn_is_pub(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    let mut j = si;
    let mut steps = 0;
    while j > 0 && steps < 10 {
        j -= 1;
        steps += 1;
        let t = &tokens[sig[j]];
        match t.text.as_str() {
            "pub" if t.kind == TokKind::Ident => return true,
            "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "in" | "self"
                if t.kind == TokKind::Ident => {}
            "(" | ")" if t.kind == TokKind::Punct => {}
            _ if t.kind == TokKind::Str => {} // extern "C"
            _ => return false,
        }
    }
    false
}

/// Whether the fn whose name sits at `si` has a brace body (vs a `;`
/// signature). Scans past the parameter list and return type.
fn fn_has_body(tokens: &[Tok], sig: &[usize], si: usize) -> bool {
    let mut paren = 0usize;
    let mut bracket = 0usize;
    let mut j = si;
    while j < sig.len() {
        let t = &tokens[sig[j]];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket = bracket.saturating_sub(1);
        } else if paren == 0 && bracket == 0 {
            if t.is_punct('{') {
                return true;
            }
            if t.is_punct(';') {
                return false;
            }
        }
        j += 1;
    }
    false
}

/// The path qualifier before a free call (`a::b::name(` → `["a", "b"]`),
/// with leading `crate`/`self`/`super` stripped.
fn qualifier_of(tokens: &[Tok], sig: &[usize], si: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = si;
    while j >= 3 {
        let c1 = &tokens[sig[j - 1]];
        let c2 = &tokens[sig[j - 2]];
        let seg = &tokens[sig[j - 3]];
        if c1.is_punct(':') && c2.is_punct(':') && seg.kind == TokKind::Ident {
            segs.push(seg.text.clone());
            j -= 3;
        } else {
            break;
        }
    }
    segs.reverse();
    while segs
        .first()
        .is_some_and(|s| matches!(s.as_str(), "crate" | "self" | "super" | "std" | "core" | "alloc"))
    {
        segs.remove(0);
    }
    segs
}

/// The named field an atomic op targets: the closest alphabetic receiver
/// segment before the op, skipping `self` and tuple indices
/// (`self.tail.0.store` → `tail`).
fn receiver_field(tokens: &[Tok], sig: &[usize], si: usize) -> Option<String> {
    let mut j = si; // at the op ident; sig[j-1] is `.`
    let mut field: Option<String> = None;
    while j >= 2 {
        let dot = &tokens[sig[j - 1]];
        let seg = &tokens[sig[j - 2]];
        if !dot.is_punct('.') {
            break;
        }
        match seg.kind {
            TokKind::Number => {}
            TokKind::Ident if seg.text == "self" => {}
            TokKind::Ident => {
                if field.is_none() {
                    field = Some(seg.text.clone());
                }
            }
            _ => break,
        }
        j -= 2;
    }
    field
}

/// Every `Ordering::X` ident inside the argument parens starting at `open_si`.
fn orderings_in_args(tokens: &[Tok], sig: &[usize], open_si: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut j = open_si;
    while j < sig.len() {
        let t = &tokens[sig[j]];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && j >= 3
            && tokens[sig[j - 1]].is_punct(':')
            && tokens[sig[j - 2]].is_punct(':')
            && tokens[sig[j - 3]].is_ident("Ordering")
        {
            out.push(t.text.clone());
        }
        j += 1;
    }
    out
}

/// `// ordering:` in a comment on `line`, or on the comment-only lines
/// immediately above it.
fn has_ordering_comment(tokens: &[Tok], line: u32) -> bool {
    let marked = |l: u32| {
        tokens
            .iter()
            .any(|t| t.line == l && t.is_comment() && t.text.contains("ordering:"))
    };
    let comment_only = |l: u32| {
        let mut on_line = tokens.iter().filter(|t| t.line == l).peekable();
        on_line.peek().is_some() && on_line.all(Tok::is_comment)
    };
    if marked(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 && comment_only(l) {
        if marked(l) {
            return true;
        }
        l -= 1;
    }
    false
}

/// JSON field names inside a string literal: every `"name":` (raw strings)
/// or `\"name\":` (escaped, as format strings hold them) pattern.
fn json_field_names(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        // Opening quote: `\"` (escaped) or bare `"`.
        let (start, escaped) = if b[i] == b'\\' && i + 1 < b.len() && b[i + 1] == b'"' {
            (i + 2, true)
        } else if b[i] == b'"' {
            (i + 1, false)
        } else {
            i += 1;
            continue;
        };
        let mut j = start;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j > start {
            let close_len = if escaped {
                if b[j..].starts_with(b"\\\"") { 2 } else { 0 }
            } else if b[j..].starts_with(b"\"") {
                1
            } else {
                0
            };
            if close_len > 0 && b.get(j + close_len) == Some(&b':') {
                if let Ok(name) = std::str::from_utf8(&b[start..j]) {
                    out.push(name.to_string());
                }
                i = j + close_len + 1;
                continue;
            }
        }
        i = start;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(path: &str, src: &str) -> FileItems {
        let ctx = FileCtx::classify(path).unwrap();
        extract(&ctx, &lex(src))
    }

    #[test]
    fn fns_with_impl_types_and_modules() {
        let src = "impl Widget {\n    pub fn draw(&self) { helper(); }\n}\n\
                   fn helper() {}\n\
                   mod inner { pub fn deep() {} }\n";
        let it = items("crates/core/src/widget.rs", src);
        let names: Vec<_> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["draw", "helper", "deep"]);
        assert_eq!(it.fns[0].self_type.as_deref(), Some("Widget"));
        assert!(it.fns[0].is_pub);
        assert_eq!(it.fns[0].calls.len(), 1);
        assert_eq!(it.fns[0].calls[0].name, "helper");
        assert!(it.fns[1].self_type.is_none());
        assert!(!it.fns[1].is_pub);
        assert_eq!(it.fns[2].modules, vec!["widget", "inner"]);
    }

    #[test]
    fn trait_impls_resolve_the_type_after_for() {
        let src = "impl fmt::Debug for Gadget<T> { fn fmt(&self) {} }\n\
                   fn f() -> impl Iterator<Item = u8> { std::iter::empty() }";
        let it = items("crates/core/src/g.rs", src);
        assert_eq!(it.fns[0].self_type.as_deref(), Some("Gadget"));
        // `-> impl Iterator` is a type position, not an impl block.
        assert!(it.fns[1].self_type.is_none());
    }

    #[test]
    fn panics_attributed_to_enclosing_fn() {
        let src = "pub fn risky(v: &[u8], x: Option<u8>) -> u8 {\n\
                       let a = v[0];\n\
                       if a > 1 { panic!(\"boom\") }\n\
                       x.unwrap()\n\
                   }\n\
                   fn safe() { assert_eq!(1, 1); }";
        let it = items("crates/core/src/r.rs", src);
        let whats: Vec<_> = it.fns[0].panics.iter().map(|p| p.what).collect();
        assert_eq!(whats, vec!["index", "panic!", "unwrap"]);
        assert!(it.fns[1].panics.is_empty(), "assertions are not counted");
    }

    #[test]
    fn call_kinds_and_qualifiers() {
        let src = "fn f(w: &Widget) {\n\
                       w.render();\n\
                       crate::json::escape(1);\n\
                       Widget::create();\n\
                       Some(3);\n\
                   }";
        let it = items("crates/core/src/c.rs", src);
        let calls = &it.fns[0].calls;
        assert_eq!(calls.len(), 3, "constructors are skipped: {calls:?}");
        assert_eq!(calls[0].kind, CallKind::Method);
        assert_eq!(calls[1].kind, CallKind::Free(vec!["json".into()]));
        assert_eq!(calls[2].kind, CallKind::Free(vec!["Widget".into()]));
    }

    #[test]
    fn atomics_carry_field_and_orderings() {
        let src = "impl R {\n fn push(&self) {\n\
                       self.tail.0.store(1, Ordering::Release);\n\
                       let h = self.head.0.load(Ordering::Acquire);\n\
                       self.flag.swap(false, Ordering::Relaxed);\n\
                       fence(Ordering::SeqCst);\n\
                   }\n}";
        let it = items("crates/served/src/x.rs", src);
        assert_eq!(it.atomics.len(), 3);
        assert_eq!(it.atomics[0].field, "tail");
        assert_eq!(it.atomics[0].kind, AtomicKind::Store);
        assert_eq!(it.atomics[0].orderings, vec!["Release"]);
        assert_eq!(it.atomics[1].field, "head");
        assert_eq!(it.atomics[2].kind, AtomicKind::Rmw);
        assert!(it.atomics.iter().all(|op| !op.ordering_comment));
        assert_eq!(it.fences.len(), 1);
        assert_eq!(it.fences[0].ordering, "SeqCst");
    }

    #[test]
    fn test_regions_are_flagged() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        let it = items("crates/core/src/t.rs", src);
        assert!(!it.fns[0].in_test);
        assert!(it.fns[1].in_test);
    }

    #[test]
    fn wire_extracts_statuses_routes_fields() {
        let src = "fn route(r: &Request) -> Response {\n\
                       match r.path.as_str() {\n\
                           \"/v1/things\" => Response::json(200, format!(\"{{\\\"count\\\":{}}}\", 1)),\n\
                           _ => ApiError::new(404, \"not_found\", \"no route\").into_response(),\n\
                       }\n\
                   }\n\
                   fn err() -> ApiError { ApiError::bad_request(\"x\").with_field(\"total\", 1) }";
        let it = items("crates/http/src/server.rs", src);
        let statuses: Vec<u16> = it.wire.statuses.iter().map(|s| s.0).collect();
        assert_eq!(statuses, vec![200, 404, 400]);
        assert_eq!(it.wire.routes.len(), 1);
        assert_eq!(it.wire.routes[0].0, "/v1/things");
        let fields: Vec<&str> = it.wire.fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(fields, vec!["count", "total"]);
    }

    #[test]
    fn field_name_patterns() {
        assert_eq!(
            json_field_names("{{\\\"cluster\\\":{},\\\"score\\\":{{\\\"avg\\\":{}}}}}"),
            vec!["cluster", "score", "avg"]
        );
        assert_eq!(json_field_names("{\\\"error\\\":{\\\"code\\\":"), vec!["error", "code"]);
        // Mentions without a trailing colon are prose, not emission.
        assert!(json_field_names("fields \\\"user\\\", \\\"action\\\"").is_empty());
    }
}
