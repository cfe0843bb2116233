//! Runs the paper's evaluation in one process: generates the corpus, trains
//! the pipeline and the global baselines once, and calls every writer of
//! [`ibcm_bench::figures`] — the dataset table, Figs. 1 and 3–12, the
//! §IV-D top-20 and the router ablation. It alone writes
//! `results/summary.md`, the shape checks EXPERIMENTS.md reports, and
//! prints it. The other ablations, `fig2_pipeline_stages`,
//! `hyperparam_search` and `tab1_dataset`'s activity profiles come only
//! from their own binaries.
//!
//! `IBCM_SCALE=test|default|paper` selects the scale, `IBCM_SEED` the seed.

use std::fmt::Write as _;

use ibcm_bench::{figures, Harness};
use ibcm_core::experiments;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let t_start = std::time::Instant::now();
    let dataset = harness.dataset();
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "# ibcm reproduction summary\n\nscale: `{}`, seed: {}\n",
        harness.scale.label(),
        harness.seed
    );

    // ---- Table 1 & Fig. 3 -------------------------------------------------
    figures::tab1_dataset(&harness, &dataset)?;
    figures::fig3_lengths(&harness, &dataset)?;
    let ds_stats = dataset.stats();
    let _ = writeln!(
        summary,
        "## Table 1 / Fig. 3 — dataset\n\n\
         | metric | paper | measured |\n|---|---|---|\n\
         | sessions | ~15000 | {} |\n| users | ~1400 | {} |\n\
         | actions | ~300 | {} |\n| mean length | 15 | {:.1} |\n\
         | p98 length | <91 | {} |\n| max length | >800 | {} |\n",
        ds_stats.sessions,
        ds_stats.users,
        ds_stats.catalog_actions,
        ds_stats.mean_length,
        ds_stats.p98_length,
        ds_stats.max_length
    );

    // ---- Train the pipeline once ------------------------------------------
    let trained = harness.train(&dataset)?;
    let purity = experiments::clustering_purity(&trained);
    let sizes: Vec<usize> = trained.clusters().iter().map(|c| c.size()).collect();
    let _ = writeln!(
        summary,
        "## Pipeline\n\nclusters: {} (paper: 13); sizes {:?}; purity vs ground-truth archetypes {:.3}\n",
        trained.detector().n_clusters(),
        sizes,
        purity
    );

    // ---- Fig. 1 (views) ----------------------------------------------------
    figures::fig1_views(&harness, trained.ensemble(), dataset.catalog())?;

    // ---- Fig. 4 --------------------------------------------------------------
    let fig4 = figures::fig4_cluster_vs_others(&harness, &trained)?;
    let own_wins = fig4
        .iter()
        .filter(|r| r.own_accuracy > r.others_accuracy)
        .count();
    let _ = writeln!(
        summary,
        "## Fig. 4 — cluster model specificity\n\nown accuracy beats the average on other clusters for {}/{} clusters (paper: all).\n",
        own_wins,
        fig4.len()
    );

    // ---- Figs. 5 & 10 ---------------------------------------------------------
    let baselines = harness.global_baselines(&trained)?;
    let fig5 = figures::fig5_fig10_baselines(&harness, &trained, &baselines)?;
    let beats_subset = fig5
        .iter()
        .filter(|r| r.cluster_model.accuracy >= r.subset_model.accuracy)
        .count();
    let large_catch_up = fig5
        .iter()
        .rev()
        .take(3)
        .filter(|r| r.cluster_model.accuracy + 0.05 >= r.global_model.accuracy)
        .count();
    let _ = writeln!(
        summary,
        "## Figs. 5 & 10 — baselines\n\ncluster model >= size-matched subset model on {}/{} clusters (paper: all); \
         among the 3 largest clusters, {}/3 are within 0.05 accuracy of (or beat) the full global model (paper: catch up or beat).\n",
        beats_subset,
        fig5.len(),
        large_catch_up
    );

    // ---- Fig. 6 -----------------------------------------------------------------
    let fig6 = figures::fig6_ocsvm_scores(&harness, &trained)?;
    if let (Some(early), Some(late)) = (
        fig6.iter().find(|r| r.position == 5),
        fig6.iter().rev().find(|r| r.position >= 40),
    ) {
        let _ = writeln!(
            summary,
            "## Fig. 6 — OC-SVM score development\n\nmax score at position 5: {:.4}; at position {}: {:.4} (paper: scores decay past the average length, long sessions look like outliers to every OC-SVM).\n",
            early.max_mean, late.position, late.max_mean
        );
    }

    // ---- Fig. 7 ---------------------------------------------------------------
    let fig7 = figures::fig7_online_likelihood(&harness, &trained)?;
    let early_mean: f64 =
        fig7.iter().take(15).map(|r| r.locked_mean).sum::<f64>() / fig7.len().clamp(1, 15) as f64;
    let _ = writeln!(
        summary,
        "## Fig. 7 — online regime\n\nmean locked-in likelihood over the first 15 predicted positions: {:.3}; positions covered: {} (paper: stable early, decaying with rising variance later).\n",
        early_mean,
        fig7.len()
    );

    // ---- Figs. 8 & 9 ----------------------------------------------------------
    let fig8 = figures::fig8_fig9_normality(&harness, &trained, &dataset)?;
    let _ = writeln!(
        summary,
        "## Figs. 8 & 9 — normality\n\n| population | avg likelihood | avg loss |\n|---|---|---|\n| real test | {:.4} | {:.3} |\n| random | {:.4} | {:.3} |\n\nlikelihood ratio {:.1}x, loss ratio {:.2}x (paper: random ~ chance likelihood, ~2x loss).\n",
        fig8[0].avg_likelihood,
        fig8[0].avg_loss,
        fig8[1].avg_likelihood,
        fig8[1].avg_loss,
        fig8[0].avg_likelihood / fig8[1].avg_likelihood.max(1e-12),
        fig8[1].avg_loss / fig8[0].avg_loss.max(1e-12)
    );

    // ---- Figs. 11 & 12 -----------------------------------------------------------
    let fig11 = figures::fig11_fig12_normality_percluster(&harness, &trained, &baselines)?;
    let lock_close = fig11
        .iter()
        .filter(|r| (r.locked.avg_likelihood - r.true_cluster.avg_likelihood).abs() < 0.1)
        .count();
    let _ = writeln!(
        summary,
        "## Figs. 11 & 12 — per-cluster normality\n\nfirst-15 lock-in within 0.1 likelihood of the true-cluster score on {}/{} clusters (paper: lock-in tracks the true cluster and avoids OC-SVM long-session pathologies).\n",
        lock_close,
        fig11.len()
    );

    // ---- §IV-D top-20 -----------------------------------------------------------
    let top = figures::top20_suspicious(&harness, &trained, &dataset)?;
    let hits = top.iter().filter(|s| s.injected_misuse).count();
    let _ = writeln!(
        summary,
        "## §IV-D — suspicious sessions\n\n{hits}/10 injected misuse bursts appear in the top-20 most suspicious sessions (paper: expert-alarming sessions surface at the top).\n"
    );

    // ---- Ablations ---------------------------------------------------------------
    figures::abl_router(&harness, &trained)?;

    harness.write_file("summary.md", &summary)?;
    println!("{summary}");
    // On stderr, not in summary.md: the committed results stay equal to a
    // fresh run.
    eprintln!(
        "[ibcm] total wall time: {:.1}s",
        t_start.elapsed().as_secs_f64()
    );
    Ok(())
}
