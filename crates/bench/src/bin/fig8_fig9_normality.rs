//! Figs. 8 and 9: trains the pipeline and writes `fig8_fig9_normality.csv`
//! through [`ibcm_bench::figures::fig8_fig9_normality`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    figures::fig8_fig9_normality(&harness, &trained, &dataset)?;
    Ok(())
}
