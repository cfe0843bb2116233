//! Ablation beyond the paper: *quantified* detection quality. The paper had
//! no labeled attacks, so it could only inspect scores; with a simulated
//! corpus we can inject ground-truth abnormal populations and compute
//! ROC-AUC for each of the three normality measures — §III average
//! likelihood, Kim et al.'s average loss, and the §V perplexity proposal.

use ibcm_bench::{fmt, Harness};
use ibcm_core::experiments::detection_quality;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let rows = detection_quality(
        &trained,
        &dataset,
        200,
        harness.seed ^ 0xa0c,
        harness.threads,
    );
    println!("population,auc_likelihood,auc_loss,auc_perplexity,n_abnormal,n_normal");
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{},{:.4},{:.4},{:.4},{},{}",
            r.population, r.auc_likelihood, r.auc_loss, r.auc_perplexity, r.n_abnormal, r.n_normal
        );
        csv.push(vec![
            r.population.clone(),
            fmt(r.auc_likelihood),
            fmt(r.auc_loss),
            fmt(r.auc_perplexity),
            r.n_abnormal.to_string(),
            r.n_normal.to_string(),
        ]);
    }
    harness.write_csv(
        "abl_detection_quality",
        "population,auc_likelihood,auc_loss,auc_perplexity,n_abnormal,n_normal",
        csv,
    )?;
    Ok(())
}
