//! The `ibcm-lint` binary: lints the workspace in the current directory
//! (or `--root`) and exits nonzero on any unsuppressed finding, a stale
//! pragma included. The text summary line names the tree it scanned.
//!
//! ```text
//! cargo run -p ibcm-lint --               # human-readable text
//! cargo run -p ibcm-lint -- --json        # CI artifact (schema ibcm-lint/3)
//! cargo run -p ibcm-lint -- --graph-report    # T/C evidence: chains, protocol table
//! cargo run -p ibcm-lint -- --suppressions    # every allow(..) pragma, used or stale
//! cargo run -p ibcm-lint -- --root path/to/ws # lint another tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut graph_report = false;
    let mut suppressions = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--graph-report" => graph_report = true,
            "--suppressions" => suppressions = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ibcm-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "ibcm-lint: invariant-enforcing static analyzer for the ibcm workspace\n\
                     \n\
                     USAGE: ibcm-lint [--json] [--graph-report] [--suppressions]\n\
                     \x20                [--root <dir>]\n\
                     \n\
                     --root <dir>     the workspace to lint (default: the\n\
                     \x20                current directory)\n\
                     --json           machine-readable report (schema ibcm-lint/3)\n\
                     --graph-report   append the call-graph evidence: each hot-path-\n\
                     \x20                reachable panicking fn as an entry->...->sink\n\
                     \x20                chain, the atomic Release/Acquire protocol\n\
                     \x20                table, and the SeqCst fence inventory\n\
                     --suppressions   append the suppression inventory (every\n\
                     \x20                ibcm-lint: allow(..) pragma, used or stale)\n\
                     \n\
                     Determinism, panic-freedom and unsafe hygiene of single\n\
                     files are clippy's: cargo clippy --workspace --all-targets.\n\
                     \n\
                     Exits 0 when the workspace has no unsuppressed findings (a\n\
                     stale pragma counts); 1 otherwise; 2 on usage or I/O failure."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ibcm-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.map_or_else(std::env::current_dir, Ok) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("ibcm-lint: cannot read the current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match ibcm_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ibcm-lint: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
        if graph_report {
            print!("{}", report.render_graph_report());
        }
        if suppressions {
            print!("{}", report.render_suppressions());
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
