//! Run files, the printed report, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ibcm_http::json::{self, JsonValue};

use crate::stats::{median, quartiles, relative_iqr};
use crate::{BenchError, Metric, RunOutput};

/// Identifies one run.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds`.
    pub seconds: f64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Available CPUs.
    pub cpus: usize,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// Whether the work tree had uncommitted changes.
    pub dirty: bool,
}

/// The commit and dirty flag of the git work tree rooted at `root`, if it
/// is one.
pub fn git_state(root: &Path) -> (String, bool) {
    if !root.join(".git").exists() {
        return ("unknown".to_string(), false);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    (commit, dirty)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::new();
    json::push_str_literal(&mut out, s);
    out
}

/// The run file: identity, outcome, every metric with its unit and
/// sample count, and the extra context.
pub fn run_json(info: &RunInfo, out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                string(m.name),
                number(m.value),
                string(m.unit),
                m.samples
            )
        })
        .collect();
    let extra: Vec<String> = out
        .extra
        .iter()
        .map(|(k, v)| format!("{}:{}", string(k), number(*v)))
        .collect();
    format!(
        "{{\"schema\":\"ibcm-benchmark/1\",\"workload\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"cpus\":{},\"commit\":{},\"dirty\":{},\"correct\":true,\
         \"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"extra\":{{{}}}}}\n",
        string(info.workload),
        info.seed,
        number(info.seconds),
        info.trace,
        info.cpus,
        string(&info.commit),
        info.dirty,
        out.attempted,
        out.failed,
        metrics.join(","),
        extra.join(",")
    )
}

/// The printed report: `name value unit` per metric, then, as the last
/// line, the result object `{"correct", "attempted", "failed", "metrics"}`.
pub fn stdout_report(out: &RunOutput) -> String {
    let mut text = String::new();
    for m in &out.metrics {
        let _ = writeln!(text, "{} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    let _ = writeln!(
        text,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    text
}

/// The first metric whose value is not a finite number, if any.
pub fn non_finite(metrics: &[Metric]) -> Option<&Metric> {
    metrics.iter().find(|m| !m.value.is_finite())
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// A metric's definition in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// What `compare` and the tests read from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct BenchmarkFile {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

/// Reads a `BENCHMARK.json`.
pub fn load_benchmark(path: &Path) -> Result<BenchmarkFile, BenchError> {
    let text =
        std::fs::read(path).map_err(|e| BenchError::Io(format!("{}: {e}", path.display())))?;
    let doc = json::parse(&text)
        .map_err(|e| BenchError::Io(format!("{}: {}", path.display(), e.message)))?;
    let bad = || BenchError::Io(format!("{}: unexpected shape", path.display()));
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).ok_or_else(bad);
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    let defs = |key: &str| -> Result<Vec<MetricDef>, BenchError> {
        list(key)?
            .iter()
            .map(|m| {
                Some(MetricDef {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    lower_is_better: m.get("better")?.as_str()? == "lower",
                    bound: match m.get("bound") {
                        Some(JsonValue::Num(raw)) => Some(raw.parse().ok()?),
                        _ => None,
                    },
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(bad)
    };
    Ok(BenchmarkFile {
        workloads,
        end_to_end: defs("end_to_end")?,
        per_layer: defs("per_layer")?,
    })
}

/// Untraced run files of a directory: workload → runs in file-name order,
/// each a map metric → value.
pub fn load_runs(dir: &Path) -> Result<BTreeMap<String, Vec<BTreeMap<String, f64>>>, BenchError> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| BenchError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for file in files {
        let Ok(doc) = json::parse(&std::fs::read(&file)?) else {
            continue;
        };
        if doc.get("schema").and_then(JsonValue::as_str) != Some("ibcm-benchmark/1")
            || matches!(doc.get("trace"), Some(JsonValue::Bool(true)))
        {
            continue;
        }
        let (Some(workload), Some(JsonValue::Obj(metrics))) = (
            doc.get("workload").and_then(JsonValue::as_str),
            doc.get("metrics"),
        ) else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| match m.get("value") {
                Some(JsonValue::Num(raw)) => raw.parse().ok().map(|v| (name.clone(), v)),
                _ => None,
            })
            .collect();
        runs.entry(workload.to_string()).or_default().push(values);
    }
    Ok(runs)
}

/// How a change's runs compare with the parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's interquartile range.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Neither better nor worse beyond the bound.
    WithinBound,
    /// The run-to-run spread exceeds the bound, and not every run of the
    /// change beats every run of the parent.
    Unresolved,
}

impl Verdict {
    /// The printed form.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` (run `i` of one paired with run `i`
/// of the other) for a metric where lower or higher is better, with
/// regression `bound` as a share of the parent's median.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(mp), Some(mc)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let spread = relative_iqr(parent)
        .into_iter()
        .chain(relative_iqr(change))
        .fold(f64::NAN, f64::max);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    // A NaN spread (fewer than two runs) is not within any bound.
    let spread_within_bound = spread <= bound;
    if !spread_within_bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let parent_iqr = quartiles(parent).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    if pairs > 0
        && wins as f64 >= 0.9 * pairs as f64
        && better(mc, mp)
        && (mc - mp).abs() > parent_iqr
    {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The `compare` table for every workload × end-to-end metric, and
/// whether any verdict is [`Verdict::Worse`].
pub fn compare(
    benchmark: &Path,
    parent: &Path,
    change: &Path,
) -> Result<(String, bool), BenchError> {
    let file = load_benchmark(benchmark)?;
    let parent_runs = load_runs(parent)?;
    let change_runs = load_runs(change)?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<14} {:<20} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    let mut any_worse = false;
    let empty = Vec::new();
    for workload in &file.workloads {
        let a = parent_runs.get(workload).unwrap_or(&empty);
        let b = change_runs.get(workload).unwrap_or(&empty);
        for def in &file.end_to_end {
            let bound = def.bound.unwrap_or(0.0);
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let cell = |v: &[f64]| match (median(v), quartiles(v)) {
                (Some(m), Some([q1, _, q3])) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
                (Some(m), None) => format!("{m:.4}"),
                _ => "-".to_string(),
            };
            let change_pct = match (median(&va), median(&vb)) {
                (Some(ma), Some(mb)) if ma != 0.0 => format!("{:+.1}%", (mb - ma) / ma * 100.0),
                _ => "-".to_string(),
            };
            let v = verdict(&va, &vb, def.lower_is_better, bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                text,
                "{:<14} {:<20} {:>36} {:>36} {:>8}  {} (n={}/{}, bound {})",
                workload,
                format!("{} {}", def.name, def.unit),
                cell(&va),
                cell(&vb),
                change_pct,
                v.label(),
                va.len(),
                vb.len(),
                bound
            );
        }
    }
    Ok((text, any_worse))
}
