//! Fig. 2 companion: the paper's pipeline diagram as a measured cost
//! breakdown — wall-clock seconds per training stage (LDA ensemble, expert
//! clustering, per-cluster OC-SVM + LSTM models), plus per-cluster split
//! sizes, so deployments can budget the retraining the paper's diagram says
//! "can be repeated at any moment".

use ibcm_bench::{fmt, Harness};
use ibcm_core::experiments::cluster_summary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;

    println!("stage,seconds");
    let mut rows = Vec::new();
    for (stage, secs) in trained.stage_timings() {
        println!("{stage},{secs:.2}");
        rows.push(vec![stage.clone(), fmt(*secs)]);
    }
    harness.write_csv("fig2_pipeline_stages", "stage,seconds", rows)?;

    println!("\ncluster,train,validation,test");
    let mut rows = Vec::new();
    for (cluster, train, val, test) in cluster_summary(&trained) {
        println!("{cluster},{train},{val},{test}");
        rows.push(vec![
            cluster.to_string(),
            train.to_string(),
            val.to_string(),
            test.to_string(),
        ]);
    }
    harness.write_csv("fig2_cluster_splits", "cluster,train,validation,test", rows)?;
    Ok(())
}
