//! Ablation: LSTM language model vs. interpolated n-gram vs. discrete HMM
//! (the classical sequence models of the paper's related work). For each
//! cluster we compare next-action accuracy on the test split and the
//! normal-vs-random likelihood separation (the quantity Figs. 8/9 rely on).

use ibcm_bench::{fmt, Harness};
use ibcm_lm::{HmmConfig, HmmLm, NgramConfig, NgramLm};
use ibcm_logsim::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    let vocab = dataset.catalog().len();
    let encode = |ss: &[Session]| -> Vec<Vec<usize>> {
        ss.iter()
            .map(|s| s.actions().iter().map(|a| a.index()).collect())
            .collect()
    };
    let random: Vec<Vec<usize>> = encode(&dataset.random_sessions(200, harness.seed ^ 0xf00));

    println!("cluster,size,lstm_acc,ngram_acc,hmm_acc,lstm_sep,ngram_sep,hmm_sep");
    let mut rows = Vec::new();
    for c in trained.clusters() {
        let train = encode(&c.train);
        let test = encode(&c.test);
        if test.is_empty() {
            continue;
        }
        let lstm = trained.detector().model(c.cluster);
        let ngram = NgramLm::train(
            &NgramConfig {
                vocab,
                ..NgramConfig::default()
            },
            &train,
        )?;
        let hmm = HmmLm::train(
            &HmmConfig {
                vocab,
                n_states: 16,
                iterations: 15,
                seed: harness.seed,
                ..HmmConfig::default()
            },
            &train,
        )?;
        let lstm_test = lstm.evaluate(&test);
        let ngram_test = ngram.evaluate(&test);
        let hmm_test = hmm.evaluate(&test);
        let lstm_rand = lstm.evaluate(&random);
        let ngram_rand = ngram.evaluate(&random);
        let hmm_rand = hmm.evaluate(&random);
        let sep = |t: f32, r: f32| (t as f64) / (r.max(1e-9) as f64);
        let lstm_sep = sep(lstm_test.avg_likelihood, lstm_rand.avg_likelihood);
        let ngram_sep = sep(ngram_test.avg_likelihood, ngram_rand.avg_likelihood);
        let hmm_sep = sep(hmm_test.avg_likelihood, hmm_rand.avg_likelihood);
        println!(
            "{},{},{:.4},{:.4},{:.4},{:.2},{:.2},{:.2}",
            c.cluster,
            c.size(),
            lstm_test.accuracy,
            ngram_test.accuracy,
            hmm_test.accuracy,
            lstm_sep,
            ngram_sep,
            hmm_sep
        );
        rows.push(vec![
            c.cluster.to_string(),
            c.size().to_string(),
            fmt(lstm_test.accuracy as f64),
            fmt(ngram_test.accuracy as f64),
            fmt(hmm_test.accuracy as f64),
            fmt(lstm_sep),
            fmt(ngram_sep),
            fmt(hmm_sep),
        ]);
    }
    harness.write_csv(
        "abl_lm",
        "cluster,size,lstm_acc,ngram_acc,hmm_acc,lstm_sep,ngram_sep,hmm_sep",
        rows,
    )?;
    Ok(())
}
