//! Figs. 5 and 10: trains the pipeline and the global baselines and writes
//! `fig5_accuracy_baselines.csv` and `fig10_loss_baselines.csv` through
//! [`ibcm_bench::figures::fig5_fig10_baselines`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    let baselines = harness.global_baselines(&trained)?;
    figures::fig5_fig10_baselines(&harness, &trained, &baselines)?;
    Ok(())
}
