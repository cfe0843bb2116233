//! `policy::CRATE_DEPS` is a hand-kept copy of each workspace crate's
//! workspace-internal `[dependencies]`, and the call graph's crate closure
//! is built from it. This test reads the root `Cargo.toml` and every
//! `crates/*/Cargo.toml` and fails on any difference, so a manifest edit
//! cannot leave the graph resolving calls through stale edges.
//! Dev-dependencies are excluded, as in `CRATE_DEPS`: the graph models
//! production reachability.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use ibcm_lint::policy::CRATE_DEPS;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// A manifest's package name and the names of its production
/// dependencies: the keys of `[dependencies]` and of
/// `[target.<cfg>.dependencies]`, plus every `[dependencies.<name>]` table.
fn read_manifest(path: &Path) -> (String, BTreeSet<String>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut name = None;
    let mut deps = BTreeSet::new();
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').to_string();
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.insert(dep.to_string());
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        // `ibcm-nn.workspace = true` and `ibcm-nn = { path = .. }` both
        // name the dependency `ibcm-nn`.
        let key = key.trim();
        if section == "package" && key == "name" {
            name = Some(value.trim().trim_matches('"').to_string());
        } else if section == "dependencies"
            || (section.starts_with("target.") && section.ends_with(".dependencies"))
        {
            deps.insert(key.split('.').next().unwrap_or(key).to_string());
        }
    }
    let name = name.unwrap_or_else(|| panic!("{}: no [package] name", path.display()));
    (name, deps)
}

#[test]
fn crate_deps_match_the_manifests() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let packages: Vec<(String, BTreeSet<String>)> =
        manifests.iter().map(|m| read_manifest(m)).collect();
    let members: BTreeSet<&str> = packages.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        members.len() > 10,
        "expected every workspace crate, found {members:?}"
    );

    // Workspace-internal edges only: external crates (rand, bytes, ...)
    // are not graph nodes.
    let from_manifests: BTreeMap<&str, BTreeSet<&str>> = packages
        .iter()
        .map(|(name, deps)| {
            let internal = deps
                .iter()
                .map(String::as_str)
                .filter(|d| members.contains(d))
                .collect();
            (name.as_str(), internal)
        })
        .collect();
    let mut from_policy: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (name, deps) in CRATE_DEPS {
        let previous = from_policy.insert(name, deps.iter().copied().collect());
        assert!(previous.is_none(), "CRATE_DEPS lists {name} twice");
    }

    let mut diffs = Vec::new();
    for name in from_manifests
        .keys()
        .chain(from_policy.keys())
        .collect::<BTreeSet<_>>()
    {
        match (from_manifests.get(name), from_policy.get(name)) {
            (Some(manifest), Some(policy)) if manifest != policy => diffs.push(format!(
                "{name}: manifest has {manifest:?}, CRATE_DEPS has {policy:?}"
            )),
            (Some(_), None) => diffs.push(format!("{name}: missing from CRATE_DEPS")),
            (None, Some(_)) => {
                diffs.push(format!("{name}: in CRATE_DEPS but not a workspace crate"))
            }
            _ => {}
        }
    }
    assert!(
        diffs.is_empty(),
        "CRATE_DEPS (crates/lint/src/policy.rs) disagrees with the manifests:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn manifest_reader_sees_every_dependency_form() {
    let dir = std::env::temp_dir().join(format!("ibcm_lint_crate_deps_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("Cargo.toml");
    std::fs::write(
        &manifest,
        "[package]\nname = \"demo\"\n\n[dependencies]\nibcm-nn.workspace = true\n\
         ibcm-obs = { path = \"../obs\" }\n# ibcm-par.workspace = true\n\n\
         [target.'cfg(unix)'.dependencies]\nibcm-core.workspace = true\n\n\
         [dependencies.ibcm-lm]\nworkspace = true\n\n\
         [dev-dependencies]\nibcm-http.workspace = true\n",
    )
    .unwrap();
    let (name, deps) = read_manifest(&manifest);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(name, "demo");
    let deps: Vec<&str> = deps.iter().map(String::as_str).collect();
    assert_eq!(deps, ["ibcm-core", "ibcm-lm", "ibcm-nn", "ibcm-obs"]);
}
