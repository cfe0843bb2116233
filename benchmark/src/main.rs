//! `ibcm-benchmark` command line.
//!
//! ```text
//! ibcm-benchmark run --workload <name> --seed <n> --seconds <s> [--trace [0|1]]
//! ibcm-benchmark compare <parent-dir> <change-dir> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `name value unit` and, as its last line,
//! the result object; it writes `<target>/benchmark/<workload>-<seed>.json`
//! (and `.trace.jsonl` when traced). Output mismatches exit 1 and print
//! no metrics. `compare` reads two directories of run files.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ibcm_benchmark::net::ServerKind;
use ibcm_benchmark::report::{self, RunInfo};
use ibcm_benchmark::workloads::{self, RunSpec};
use ibcm_benchmark::{BenchError, Profile, Workload};

/// Variables that would change what the program runs or where its seed
/// comes from: the benchmark measures shipped defaults, seeded only by
/// `--seed`.
const REFUSED_ENV: [&str; 4] = [
    "IBCM_SCORING_MODE",
    "IBCM_THREADS",
    "IBCM_SCALE",
    "IBCM_SEED",
];

const USAGE: &str = "\
usage:
    ibcm-benchmark run --workload <http-ingest|daemon-long|daemon-short|offline-score>
                       --seed <n> --seconds <s> [--trace [0|1]]
    ibcm-benchmark compare <parent-dir> <change-dir> [--benchmark <BENCHMARK.json>]";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, BenchError> {
    let usage = |m: &str| BenchError::Usage(m.to_string());
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or_else(|| usage("--workload needs a value"))?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| usage(&format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse::<u64>().ok());
                if seed.is_none() {
                    return Err(usage("--seed needs a non-negative integer"));
                }
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| *s > 0.0 && s.is_finite());
                if seconds.is_none() {
                    return Err(usage("--seconds needs a positive number"));
                }
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(usage(&format!("unknown flag {other:?}"))),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace,
    })
}

fn run(args: &[String]) -> Result<(), BenchError> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(BenchError::Usage(format!(
            "{var} is set; unset it so the program runs its shipped defaults"
        )));
    }
    let args = parse_run(args)?;
    let exe = std::env::current_exe()?;
    let server_exe = exe.with_file_name("ibcm-serve");
    if !server_exe.is_file() {
        return Err(BenchError::Usage(format!(
            "{} not found; build it with `cargo build --release -p ibcm-http --bin ibcm-serve`",
            server_exe.display()
        )));
    }
    let out_dir = exe
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf)
        .join("benchmark");
    let stem = format!("{}-{}", args.workload.name(), args.seed);
    let work_dir = out_dir
        .join("tmp")
        .join(format!("{stem}-{}", std::process::id()));
    let profile = Profile::standard();
    let spec = RunSpec {
        profile: &profile,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: &work_dir,
        server: &ServerKind::Binary(server_exe),
    };
    let result = workloads::run(args.workload, &spec);
    let _ = std::fs::remove_dir_all(&work_dir);
    let out = result?;
    if let Some(m) = report::non_finite(&out.metrics) {
        return Err(BenchError::Io(format!(
            "metric {} was not measured",
            m.name
        )));
    }
    let (commit, dirty) = report::git_state(Path::new("."));
    let info = RunInfo {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit,
        dirty,
    };
    std::fs::create_dir_all(&out_dir)?;
    let suffix = if args.trace { ".traced.json" } else { ".json" };
    std::fs::write(
        out_dir.join(format!("{stem}{suffix}")),
        report::run_json(&info, &out),
    )?;
    if args.trace {
        std::fs::write(
            out_dir.join(format!("{stem}.trace.jsonl")),
            out.tracer.to_jsonl(),
        )?;
    }
    print!("{}", report::stdout_report(&out));
    Ok(())
}

fn compare(args: &[String]) -> Result<(), BenchError> {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it
                .next()
                .map(PathBuf::from)
                .ok_or_else(|| BenchError::Usage("--benchmark needs a path".into()))?;
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = dirs.as_slice() else {
        return Err(BenchError::Usage("compare needs two directories".into()));
    };
    let (table, any_worse) = report::compare(&benchmark, parent, change)?;
    print!("{table}");
    if any_worse {
        return Err(BenchError::Io("a metric regressed beyond its bound".into()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(BenchError::Usage("expected `run` or `compare`".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ibcm-benchmark: {e}");
            if matches!(e, BenchError::Usage(_)) {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            ExitCode::FAILURE
        }
    }
}
