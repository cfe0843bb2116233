//! Ablation: how much does *informed* clustering matter?
//!
//! Compares four ways of partitioning the corpus before per-cluster
//! modeling — the simulated-expert clustering (the paper's approach),
//! k-means on document-topic vectors, a uniformly random partition, and the
//! generator's ground-truth archetypes (an oracle upper bound) — by cluster
//! purity and by the mean per-cluster model accuracy on held-out test sets.

use std::collections::HashMap;

use ibcm_bench::{fmt, Harness};
use ibcm_core::experiments::{
    cluster_data_purity, fig4_cluster_vs_others, kmeans_assignment, random_assignment,
};
use ibcm_core::Pipeline;
use ibcm_logsim::Session;
use ibcm_topics::sessions_to_docs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let config = harness.scale.pipeline_config(harness.seed);
    let pipeline = Pipeline::new(config.clone());

    // The expert pipeline (also provides the ensemble for k-means).
    let trained = harness.train(&dataset)?;
    let k = trained.detector().n_clusters();
    let (_, origin) = sessions_to_docs(dataset.sessions(), 2);
    let n_docs = trained.clustering().assignment().len();

    let group = |assignment: &[ibcm_logsim::ClusterId], k: usize| -> Vec<Vec<Session>> {
        let mut groups = vec![Vec::new(); k];
        for (doc, c) in assignment.iter().enumerate() {
            groups[c.index()].push(dataset.sessions()[origin[doc]].clone());
        }
        groups
    };

    // Ground truth: one group per archetype.
    let archetype_groups: Vec<Vec<Session>> = {
        let mut by_arch: HashMap<usize, Vec<Session>> = HashMap::new();
        for &si in &origin {
            let s = &dataset.sessions()[si];
            if let Some(a) = s.archetype() {
                by_arch.entry(a.index()).or_default().push(s.clone());
            }
        }
        let mut keys: Vec<usize> = by_arch.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|a| by_arch.remove(&a).unwrap())
            .collect()
    };

    let strategies: Vec<(&str, Vec<Vec<Session>>)> = vec![
        (
            "kmeans",
            group(
                &kmeans_assignment(trained.ensemble(), k, 25, harness.seed),
                k,
            ),
        ),
        (
            "random",
            group(&random_assignment(n_docs, k, harness.seed), k),
        ),
        ("archetype_oracle", archetype_groups),
    ];

    println!("strategy,clusters,purity,mean_own_accuracy,mean_others_accuracy");
    let mut rows = Vec::new();
    // Expert row from the already-trained pipeline.
    {
        let fig4 = fig4_cluster_vs_others(&trained);
        let own: f64 =
            fig4.iter().map(|r| r.own_accuracy as f64).sum::<f64>() / fig4.len().max(1) as f64;
        let others: f64 =
            fig4.iter().map(|r| r.others_accuracy as f64).sum::<f64>() / fig4.len().max(1) as f64;
        let purity = cluster_data_purity(trained.clusters());
        println!(
            "expert,{},{purity:.4},{own:.4},{others:.4}",
            trained.clusters().len()
        );
        rows.push(vec![
            "expert".to_string(),
            trained.clusters().len().to_string(),
            fmt(purity),
            fmt(own),
            fmt(others),
        ]);
    }
    for (label, groups) in strategies {
        let (detector, clusters) = pipeline.train_clustered(&dataset, groups)?;
        let purity = cluster_data_purity(&clusters);
        // Mean own-vs-others accuracy without re-running the full fig4
        // machinery: evaluate each model on its own and foreign test sets.
        let encode = |ss: &[Session]| -> Vec<Vec<usize>> {
            ss.iter()
                .map(|s| s.actions().iter().map(|a| a.index()).collect())
                .collect()
        };
        let tests: Vec<Vec<Vec<usize>>> = clusters.iter().map(|c| encode(&c.test)).collect();
        let mut own_sum = 0.0f64;
        let mut others_sum = 0.0f64;
        let mut n = 0usize;
        for c in &clusters {
            let model = detector.model(c.cluster);
            let own = model.evaluate(&tests[c.cluster.index()]);
            if own.n_predictions == 0 {
                continue;
            }
            let mut other_acc = 0.0f64;
            let mut other_n = 0usize;
            for o in &clusters {
                if o.cluster != c.cluster {
                    let e = model.evaluate(&tests[o.cluster.index()]);
                    if e.n_predictions > 0 {
                        other_acc += e.accuracy as f64;
                        other_n += 1;
                    }
                }
            }
            own_sum += own.accuracy as f64;
            others_sum += other_acc / other_n.max(1) as f64;
            n += 1;
        }
        let own = own_sum / n.max(1) as f64;
        let others = others_sum / n.max(1) as f64;
        println!(
            "{label},{},{purity:.4},{own:.4},{others:.4}",
            clusters.len()
        );
        rows.push(vec![
            label.to_string(),
            clusters.len().to_string(),
            fmt(purity),
            fmt(own),
            fmt(others),
        ]);
    }
    harness.write_csv(
        "abl_clustering",
        "strategy,clusters,purity,mean_own_accuracy,mean_others_accuracy",
        rows,
    )?;
    Ok(())
}
