//! Figs. 11 and 12: trains the pipeline and the global baselines and writes
//! `fig11_fig12_normality_percluster.csv` through
//! [`ibcm_bench::figures::fig11_fig12_normality_percluster`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    let baselines = harness.global_baselines(&trained)?;
    figures::fig11_fig12_normality_percluster(&harness, &trained, &baselines)?;
    Ok(())
}
