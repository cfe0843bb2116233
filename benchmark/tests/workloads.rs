//! Every workload, at the test profile, passes its correctness gate and
//! emits exactly the metrics `BENCHMARK.json` lists, untraced and traced.
//!
//! One test runs them all in sequence: the workloads read process-wide
//! counters, which concurrent tests would disturb.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ibcm_benchmark::net::ServerKind;
use ibcm_benchmark::report::{load_benchmark, MetricDef};
use ibcm_benchmark::workloads::{run, RunSpec};
use ibcm_benchmark::{Profile, Workload};

fn names(defs: &[MetricDef]) -> BTreeSet<(String, String)> {
    defs.iter()
        .map(|d| (d.name.clone(), d.unit.clone()))
        .collect()
}

#[test]
fn every_workload_emits_every_benchmark_metric() {
    let benchmark =
        load_benchmark(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let listed: Vec<&str> = benchmark.workloads.iter().map(String::as_str).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);

    let profile = Profile::test();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("{}-{trace}", workload.name()));
            let spec = RunSpec {
                profile: &profile,
                seed: 7,
                seconds: 1.0,
                trace,
                work_dir: &work_dir,
                server: &ServerKind::InProcess,
            };
            let out = run(workload, &spec)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            let _ = std::fs::remove_dir_all(&work_dir);
            let expected = if trace {
                names(&benchmark.per_layer)
            } else {
                names(&benchmark.end_to_end)
            };
            let emitted: BTreeSet<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, expected, "{} (trace {trace})", workload.name());
            assert_eq!(out.metrics.len(), expected.len(), "duplicate metric names");
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{} (trace {trace})", workload.name());
            if !trace {
                let value =
                    |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
                assert!(value("ops_per_s") > Some(0.0));
                assert!(value("setup_s") > Some(0.0));
            }
        }
    }
}
