//! Fig. 3: writes `fig3_lengths.csv` through [`ibcm_bench::figures::fig3_lengths`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    figures::fig3_lengths(&harness, &harness.dataset())?;
    Ok(())
}
