//! Ablation: LSTM depth. The paper fixes one LSTM layer (§IV-A); this sweep
//! trains 1- and 2-layer stacks per cluster at the same width and compares
//! test accuracy and wall-clock cost, quantifying what the extra layer buys
//! on behavior-modeling data.

use ibcm_bench::{fmt, Harness};
use ibcm_lm::{LmTrainConfig, LstmLm};
use ibcm_logsim::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let vocab = dataset.catalog().len();
    let base = harness.scale.pipeline_config(harness.seed).lm;
    let encode = |ss: &[Session]| -> Vec<Vec<usize>> {
        ss.iter()
            .map(|s| s.actions().iter().map(|a| a.index()).collect())
            .collect()
    };

    println!("cluster,size,acc_1layer,acc_2layer,secs_1layer,secs_2layer");
    let mut rows = Vec::new();
    for c in trained.clusters() {
        let train = encode(&c.train);
        let val = encode(&c.validation);
        let test = encode(&c.test);
        if test.is_empty() {
            continue;
        }
        let mut results = Vec::new();
        for layers in [1usize, 2] {
            let cfg = LmTrainConfig {
                vocab,
                layers,
                seed: harness.seed ^ layers as u64,
                ..base
            };
            let t0 = std::time::Instant::now();
            let lm = LstmLm::train(&cfg, &train, &val)?;
            let secs = t0.elapsed().as_secs_f64();
            results.push((lm.evaluate(&test).accuracy, secs));
        }
        println!(
            "{},{},{:.4},{:.4},{:.1},{:.1}",
            c.cluster,
            c.size(),
            results[0].0,
            results[1].0,
            results[0].1,
            results[1].1
        );
        rows.push(vec![
            c.cluster.to_string(),
            c.size().to_string(),
            fmt(results[0].0 as f64),
            fmt(results[1].0 as f64),
            fmt(results[0].1),
            fmt(results[1].1),
        ]);
    }
    harness.write_csv(
        "abl_depth",
        "cluster,size,acc_1layer,acc_2layer,secs_1layer,secs_2layer",
        rows,
    )?;
    Ok(())
}
