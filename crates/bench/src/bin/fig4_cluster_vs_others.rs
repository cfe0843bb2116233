//! Fig. 4: trains the pipeline and writes `fig4_cluster_vs_others.csv`
//! through [`ibcm_bench::figures::fig4_cluster_vs_others`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    figures::fig4_cluster_vs_others(&harness, &trained)?;
    Ok(())
}
