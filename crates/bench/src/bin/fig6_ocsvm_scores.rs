//! Fig. 6: trains the pipeline and writes `fig6_ocsvm_scores.csv` through
//! [`ibcm_bench::figures::fig6_ocsvm_scores`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    figures::fig6_ocsvm_scores(&harness, &trained)?;
    Ok(())
}
