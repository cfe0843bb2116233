//! Clippy enforces the per-file determinism, panic-freedom and unsafe
//! rules (DESIGN.md, "Static invariants"). This test runs it over the
//! fixture crate in `tests/fixtures/clippy/`, with the workspace's
//! committed `clippy.toml` and `[workspace.lints.clippy]` levels, and
//! asserts that each replacement lint fires at exactly its fixture line.
//! A missing clippy fails the test: no diagnostics is a mismatch.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Command-line flags (`-D clippy::name`, ...) for the root manifest's
/// `[workspace.lints.clippy]` table, which the fixture crate, being its own
/// workspace, cannot inherit.
fn workspace_clippy_flags(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .expect("root Cargo.toml has a [workspace.lints.clippy] table");
    let mut flags = Vec::new();
    for line in table.lines().map(str::trim) {
        if line.starts_with('[') {
            break;
        }
        let Some((name, level)) = line.split_once('=').filter(|_| !line.starts_with('#')) else {
            continue;
        };
        let flag = match level.trim().trim_matches('"') {
            "forbid" => "-F",
            "deny" => "-D",
            "warn" => "-W",
            "allow" => "-A",
            other => panic!("unknown lint level `{other}` for {name}"),
        };
        flags.push(flag.to_string());
        flags.push(format!("clippy::{}", name.trim()));
    }
    flags
}

#[test]
fn each_replacement_lint_fires_at_its_fixture_line() {
    let root = workspace_root();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy");
    let output = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--all-targets",
            "--message-format=json",
        ])
        .arg("--manifest-path")
        .arg(fixture.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .env("CLIPPY_CONF_DIR", &root)
        .arg("--")
        .args(workspace_clippy_flags(&root))
        .output()
        .expect("cargo starts");

    // (lint, line of the primary span) over every diagnostic of the lib and
    // lib-test builds; the two builds repeat each other, hence a set.
    let mut fired: BTreeSet<(String, u64)> = BTreeSet::new();
    for record in String::from_utf8_lossy(&output.stdout).lines() {
        let record = Json::parse(record);
        let Some(message) = record.get("message") else {
            continue;
        };
        let Some(Json::Str(code)) = message.get("code").and_then(|c| c.get("code")) else {
            continue;
        };
        let Some(Json::Arr(spans)) = message.get("spans") else {
            continue;
        };
        for span in spans {
            if let (Some(Json::Bool(true)), Some(Json::Num(line))) =
                (span.get("is_primary"), span.get("line_start"))
            {
                fired.insert((code.clone(), *line));
            }
        }
    }

    let expected: BTreeSet<(String, u64)> = [
        // determinism: clippy.toml's disallowed types and methods
        ("clippy::disallowed_types", 6),
        ("clippy::disallowed_types", 7),
        ("clippy::disallowed_methods", 10),
        ("clippy::disallowed_methods", 14),
        ("clippy::disallowed_methods", 18),
        ("clippy::disallowed_methods", 22),
        ("clippy::disallowed_types", 25),
        // panic-freedom: the seven-lint deny; the `#[expect]`ed index on
        // line 64 and the test module's unwrap and index stay quiet
        ("clippy::unwrap_used", 35),
        ("clippy::expect_used", 39),
        ("clippy::panic", 43),
        ("clippy::unreachable", 47),
        ("clippy::todo", 51),
        ("clippy::unimplemented", 55),
        ("clippy::indexing_slicing", 59),
        // a stale `#[expect]`
        ("unfulfilled_lint_expectations", 67),
        // unsafe hygiene, private `unsafe fn` included
        ("clippy::undocumented_unsafe_blocks", 84),
        ("clippy::missing_safety_doc", 93),
    ]
    .into_iter()
    .map(|(lint, line)| (lint.to_string(), line))
    .collect();
    assert_eq!(
        fired,
        expected,
        "cargo clippy stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Just enough JSON to read cargo's `--message-format=json` records.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one record; anything that is not JSON becomes `Null`.
    fn parse(text: &str) -> Json {
        let mut bytes = text.bytes().peekable();
        Json::value(&mut bytes).unwrap_or(Json::Null)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn value(b: &mut Bytes<'_>) -> Option<Json> {
        skip_ws(b);
        Some(match b.next()? {
            b'{' => {
                let mut fields = Vec::new();
                loop {
                    skip_ws(b);
                    if b.next_if_eq(&b'}').is_some() {
                        break Json::Obj(fields);
                    }
                    let Json::Str(key) = Json::value(b)? else {
                        return None;
                    };
                    skip_ws(b);
                    b.next_if_eq(&b':')?;
                    fields.push((key, Json::value(b)?));
                    skip_ws(b);
                    b.next_if_eq(&b',');
                }
            }
            b'[' => {
                let mut items = Vec::new();
                loop {
                    skip_ws(b);
                    if b.next_if_eq(&b']').is_some() {
                        break Json::Arr(items);
                    }
                    items.push(Json::value(b)?);
                    skip_ws(b);
                    b.next_if_eq(&b',');
                }
            }
            b'"' => {
                let mut raw = Vec::new();
                loop {
                    match b.next()? {
                        b'"' => break,
                        b'\\' => match b.next()? {
                            b'n' => raw.push(b'\n'),
                            b't' => raw.push(b'\t'),
                            b'u' => {
                                // Non-ASCII escapes are never looked up here.
                                for _ in 0..4 {
                                    b.next()?;
                                }
                                raw.push(b'?');
                            }
                            other => raw.push(other),
                        },
                        other => raw.push(other),
                    }
                }
                Json::Str(String::from_utf8_lossy(&raw).into_owned())
            }
            b't' => skip_word(b, Json::Bool(true)),
            b'f' => skip_word(b, Json::Bool(false)),
            b'n' => skip_word(b, Json::Null),
            first @ (b'-' | b'0'..=b'9') => {
                // Only unsigned integers (line numbers) are ever read.
                let mut n = u64::from(first.saturating_sub(b'0'));
                while let Some(d) = b.next_if(u8::is_ascii_digit) {
                    n = n * 10 + u64::from(d - b'0');
                }
                while b
                    .next_if(|c| {
                        c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                    })
                    .is_some()
                {}
                Json::Num(n)
            }
            _ => return None,
        })
    }
}

type Bytes<'a> = std::iter::Peekable<std::str::Bytes<'a>>;

fn skip_ws(b: &mut Bytes<'_>) {
    while b.next_if(u8::is_ascii_whitespace).is_some() {}
}

fn skip_word(b: &mut Bytes<'_>, v: Json) -> Json {
    while b.next_if(u8::is_ascii_alphabetic).is_some() {}
    v
}
