//! Fig. 1: fits the LDA ensemble alone, without the rest of the pipeline,
//! and writes the seven `fig1_*` files through
//! [`ibcm_bench::figures::fig1_views`].

use ibcm_bench::{figures, Harness};
use ibcm_topics::{sessions_to_docs, Ensemble};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let (docs, _) = sessions_to_docs(dataset.sessions(), 2);
    let cfg = harness
        .scale
        .pipeline_config(harness.seed)
        .ensemble_config(dataset.catalog().len());
    let ensemble = Ensemble::fit(&cfg, &docs)?;
    eprintln!(
        "[ibcm] ensemble: {} runs, {} topics",
        ensemble.runs().len(),
        ensemble.topics().len()
    );
    figures::fig1_views(&harness, &ensemble, dataset.catalog())?;
    Ok(())
}
