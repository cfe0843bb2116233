//! Without `--root`, the `ibcm-lint` binary lints the tree it is run in,
//! not the one it was compiled in, and its summary line names that tree.

use std::process::Command;

#[test]
fn binary_lints_the_current_directory_and_names_it() {
    let dir = std::env::temp_dir().join(format!("ibcm_lint_cwd_{}", std::process::id()));
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("temp tree is writable");
    std::fs::write(src.join("lib.rs"), "pub fn answer() -> u32 {\n    42\n}\n")
        .expect("temp tree is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_ibcm-lint"))
        .current_dir(&dir)
        .output()
        .expect("ibcm-lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let root = dir.canonicalize().expect("temp tree resolves");
    let summary = format!("ibcm-lint: {}: 1 files, 0 errors", root.display());
    assert!(
        stdout.lines().any(|line| line.starts_with(&summary)),
        "expected a summary line starting `{summary}`, got:\n{stdout}"
    );
    assert!(
        out.status.success(),
        "a one-file tree lints clean:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
