//! Ablation: trains the pipeline and writes the routing-strategy sweep,
//! `abl_router.csv`, through [`ibcm_bench::figures::abl_router`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let trained = harness.train(&harness.dataset())?;
    figures::abl_router(&harness, &trained)?;
    Ok(())
}
