//! Fig. 7: trains the pipeline and writes `fig7_online_likelihood.csv`
//! through [`ibcm_bench::figures::fig7_online_likelihood`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    figures::fig7_online_likelihood(&harness, &trained)?;
    Ok(())
}
