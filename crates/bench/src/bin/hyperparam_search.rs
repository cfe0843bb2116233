//! §IV-A companion: the hyperparameter evaluation the paper describes
//! ("The evaluation was performed on a small subset of the data and the
//! final configuration looks as following: 256 LSTM units ... minibatch
//! size of 32 and a learning rate of 0.001"), reproduced as a grid search
//! on a data subset judged by validation loss.

use ibcm_bench::{fmt, Harness};
use ibcm_core::experiments::hyperparam_sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let base = harness.scale.pipeline_config(harness.seed).lm;
    let rows = hyperparam_sweep(
        &trained,
        &base,
        &[16, 32, 64],
        &[1e-3, 3e-3, 1e-2],
        &[0.1, 0.4],
        300,
        harness.seed,
    )?;
    println!("hidden,learning_rate,dropout,val_loss,val_accuracy,seconds");
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{},{},{},{:.4},{:.4},{:.1}",
            r.hidden, r.learning_rate, r.dropout, r.val_loss, r.val_accuracy, r.seconds
        );
        csv.push(vec![
            r.hidden.to_string(),
            r.learning_rate.to_string(),
            r.dropout.to_string(),
            fmt(r.val_loss as f64),
            fmt(r.val_accuracy as f64),
            fmt(r.seconds),
        ]);
    }
    if let Some(best) = rows.first() {
        println!(
            "# best: hidden={} lr={} dropout={} (val loss {:.4})",
            best.hidden, best.learning_rate, best.dropout, best.val_loss
        );
    }
    harness.write_csv(
        "hyperparam_search",
        "hidden,learning_rate,dropout,val_loss,val_accuracy,seconds",
        csv,
    )?;
    Ok(())
}
