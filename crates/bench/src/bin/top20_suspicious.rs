//! §IV-D: trains the pipeline and writes `top20_suspicious.csv` through
//! [`ibcm_bench::figures::top20_suspicious`].

use ibcm_bench::{figures, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    figures::top20_suspicious(&harness, &trained, &dataset)?;
    Ok(())
}
