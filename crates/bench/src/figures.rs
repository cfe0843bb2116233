//! One writer per reproduced output: each function takes the run's shared
//! inputs, owns the figure's parameters and writes its files into the
//! results directory. The per-figure binaries and `repro_all` call the same
//! writer, so an output has one definition; the writers return the rows
//! they wrote for `repro_all`'s summary.

use std::io::Result;

use ibcm_core::experiments::{
    self, BaselineComparisonRow, ClusterVsOthersRow, GlobalBaselines, NormalityRow, OcSvmScoreRow,
    OnlineLikelihoodRow, PerClusterNormalityRow, RoutingStrategy, SuspiciousSession,
};
use ibcm_core::TrainedPipeline;
use ibcm_logsim::{ActionCatalog, Dataset};
use ibcm_topics::Ensemble;
use ibcm_viz::{
    svg, ChordDiagramView, TopicActionMatrixView, TopicProjectionView, TsneConfig, VizExport,
};

use crate::{fmt, Harness};

/// §IV-A dataset statistics ("Table 1"): sessions, users, actions and the
/// session-length summary the paper reports → `tab1_dataset.csv`.
pub fn tab1_dataset(h: &Harness, dataset: &Dataset) -> Result<()> {
    let rows = experiments::tab1_dataset_stats(dataset);
    h.write_csv(
        "tab1_dataset",
        "metric,value",
        rows.into_iter().map(|(k, v)| vec![k, v]).collect(),
    )
}

/// Fig. 1: the data behind the three views of the experts' visual
/// interface — the t-SNE topic projection, the topic-action matrix and the
/// chord diagram over every topic of `ensemble` — as JSON for any front
/// end, as SVG, and as one HTML dashboard → the seven `fig1_*` files.
pub fn fig1_views(h: &Harness, ensemble: &Ensemble, catalog: &ActionCatalog) -> Result<()> {
    let projection = TopicProjectionView::compute(ensemble, &TsneConfig::default());
    let matrix = TopicActionMatrixView::compute(ensemble, catalog, 0.02);
    let all_topics: Vec<_> = ensemble.topics().iter().map(|t| t.id).collect();
    let chord = ChordDiagramView::compute(ensemble, &all_topics, 0.02);
    let title = "ibcm — expert interface views (Fig. 1)";
    let files = [
        (
            "fig1_projection.json",
            VizExport::projection_json(&projection).to_string(),
        ),
        (
            "fig1_matrix.json",
            VizExport::matrix_json(&matrix).to_string(),
        ),
        ("fig1_chord.json", VizExport::chord_json(&chord).to_string()),
        (
            "fig1_projection.svg",
            svg::render_projection(&projection, 640.0),
        ),
        ("fig1_matrix.svg", svg::render_matrix(&matrix, 10.0)),
        ("fig1_chord.svg", svg::render_chord(&chord, 640.0)),
        (
            "fig1_dashboard.html",
            svg::render_dashboard(&projection, &matrix, &chord, title),
        ),
    ];
    for (name, contents) in files {
        h.write_file(name, &contents)?;
    }
    Ok(())
}

/// Fig. 3: histogram of session lengths in bins of 10 (mean ≈ 15, 98 % <
/// 91, max > 800 at paper scale) → `fig3_lengths.csv`.
pub fn fig3_lengths(h: &Harness, dataset: &Dataset) -> Result<()> {
    h.write_csv(
        "fig3_lengths",
        "bin_start,count",
        dataset
            .length_histogram(10)
            .into_iter()
            .map(|(b, c)| vec![b.to_string(), c.to_string()])
            .collect(),
    )
}

/// Fig. 4: each cluster model's accuracy and loss on its own test set vs.
/// its average over every other cluster's test set, clusters in ascending
/// size. The paper's shape: own > others everywhere, with larger clusters
/// producing stronger models → `fig4_cluster_vs_others.csv`.
pub fn fig4_cluster_vs_others(
    h: &Harness,
    trained: &TrainedPipeline,
) -> Result<Vec<ClusterVsOthersRow>> {
    let rows = experiments::fig4_cluster_vs_others(trained);
    h.write_csv(
        "fig4_cluster_vs_others",
        "cluster,size,own_accuracy,others_accuracy,own_loss,others_loss",
        rows.iter()
            .map(|r| {
                vec![
                    r.cluster.to_string(),
                    r.size.to_string(),
                    fmt(r.own_accuracy as f64),
                    fmt(r.others_accuracy as f64),
                    fmt(r.own_loss as f64),
                    fmt(r.others_loss as f64),
                ]
            })
            .collect(),
    )?;
    Ok(rows)
}

/// Figs. 5 and 10: per-cluster accuracy (Fig. 5) and loss (Fig. 10) of the
/// cluster model vs. the global model vs. a size-matched random-subset
/// model. The paper's shape: cluster models dominate the size-matched
/// baseline everywhere and catch up to (or beat) the global model once
/// clusters are large enough → `fig5_accuracy_baselines.csv` and
/// `fig10_loss_baselines.csv`, the same table.
pub fn fig5_fig10_baselines(
    h: &Harness,
    trained: &TrainedPipeline,
    baselines: &GlobalBaselines,
) -> Result<Vec<BaselineComparisonRow>> {
    let rows = experiments::fig5_fig10_baselines(trained, baselines);
    let header =
        "cluster,size,cluster_acc,global_acc,subset_acc,cluster_loss,global_loss,subset_loss";
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cluster.to_string(),
                r.size.to_string(),
                fmt(r.cluster_model.accuracy as f64),
                fmt(r.global_model.accuracy as f64),
                fmt(r.subset_model.accuracy as f64),
                fmt(r.cluster_model.avg_loss as f64),
                fmt(r.global_model.avg_loss as f64),
                fmt(r.subset_model.avg_loss as f64),
            ]
        })
        .collect();
    for name in ["fig5_accuracy_baselines", "fig10_loss_baselines"] {
        h.write_csv(name, header, cells.clone())?;
    }
    Ok(rows)
}

/// Fig. 6: OC-SVM decision scores per action position over the united test
/// sets, up to position 300 — the session's true cluster's OC-SVM vs. the
/// maximum over all OC-SVMs. The paper's shape: both decay once sessions
/// outgrow the average, because every OC-SVM treats long sessions as
/// outliers (the motivation for the 15-action lock-in) →
/// `fig6_ocsvm_scores.csv`.
pub fn fig6_ocsvm_scores(h: &Harness, trained: &TrainedPipeline) -> Result<Vec<OcSvmScoreRow>> {
    let rows = experiments::fig6_ocsvm_scores(trained, 300, h.threads);
    h.write_csv(
        "fig6_ocsvm_scores",
        "position,right_mean,max_mean,count",
        rows.iter()
            .map(|r| {
                vec![
                    r.position.to_string(),
                    fmt(r.right_mean),
                    fmt(r.max_mean),
                    r.count.to_string(),
                ]
            })
            .collect(),
    )?;
    Ok(rows)
}

/// Fig. 7: the online regime — average likelihood of each next action over
/// the united test sets, up to position 300, with the cluster re-predicted
/// at every step vs. locked in by majority vote over the first 15 actions.
/// The paper's shape: stable over the first ~100 actions, decaying with
/// growing variance beyond; the locked-in router is smoother early on →
/// `fig7_online_likelihood.csv`.
pub fn fig7_online_likelihood(
    h: &Harness,
    trained: &TrainedPipeline,
) -> Result<Vec<OnlineLikelihoodRow>> {
    let rows = experiments::fig7_online_likelihood(trained, 300, h.threads);
    h.write_csv(
        "fig7_online_likelihood",
        "position,every_step_mean,every_step_std,locked_mean,locked_std,count",
        rows.iter()
            .map(|r| {
                vec![
                    r.position.to_string(),
                    fmt(r.every_step_mean),
                    fmt(r.every_step_std),
                    fmt(r.locked_mean),
                    fmt(r.locked_std),
                    r.count.to_string(),
                ]
            })
            .collect(),
    )?;
    Ok(rows)
}

/// Figs. 8 and 9: average per-action likelihood and loss of the real test
/// sessions vs. an artificial abnormal set (same count, lengths uniform in
/// [5, 25], uniformly random actions, drawn from `seed ^ 0xab`). The
/// paper's shape: random sessions score near chance likelihood (~1/|A|)
/// with roughly double the loss → `fig8_fig9_normality.csv`.
pub fn fig8_fig9_normality(
    h: &Harness,
    trained: &TrainedPipeline,
    dataset: &Dataset,
) -> Result<Vec<NormalityRow>> {
    let rows = experiments::fig8_fig9_normality(trained, dataset, h.seed ^ 0xab, h.threads);
    h.write_csv(
        "fig8_fig9_normality",
        "population,avg_likelihood,avg_loss,sessions",
        rows.iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    fmt(r.avg_likelihood),
                    fmt(r.avg_loss),
                    r.sessions.to_string(),
                ]
            })
            .collect(),
    )?;
    Ok(rows)
}

/// Figs. 11 and 12 (appendix): average likelihood (Fig. 11) and loss
/// (Fig. 12) on each cluster's test set under the true cluster's model,
/// full-session OC-SVM routing, the first-15 lock-in and the global model.
/// The paper's shape: larger clusters score higher, and the lock-in tracks
/// the true cluster, avoiding the OC-SVM long-session pathology →
/// `fig11_fig12_normality_percluster.csv`.
pub fn fig11_fig12_normality_percluster(
    h: &Harness,
    trained: &TrainedPipeline,
    baselines: &GlobalBaselines,
) -> Result<Vec<PerClusterNormalityRow>> {
    let rows = experiments::fig11_fig12_per_cluster(trained, &baselines.global, h.threads);
    h.write_csv(
        "fig11_fig12_normality_percluster",
        "cluster,size,true_lik,routed_lik,locked_lik,global_lik,true_loss,routed_loss,locked_loss,global_loss",
        rows.iter()
            .map(|r| {
                vec![
                    r.cluster.to_string(),
                    r.size.to_string(),
                    fmt(r.true_cluster.avg_likelihood as f64),
                    fmt(r.routed.avg_likelihood as f64),
                    fmt(r.locked.avg_likelihood as f64),
                    fmt(r.global.avg_likelihood as f64),
                    fmt(r.true_cluster.avg_loss as f64),
                    fmt(r.routed.avg_loss as f64),
                    fmt(r.locked.avg_loss as f64),
                    fmt(r.global.avg_loss as f64),
                ]
            })
            .collect(),
    )?;
    Ok(rows)
}

/// §IV-D: the 20 most suspicious sessions of the united test sets mixed
/// with 10 injected misuse bursts (mass `ActionCreateUser` /
/// `ActionDeleteUser` / unlock sequences of the kind the paper's experts
/// flagged, drawn from `seed ^ 0x515`) → `top20_suspicious.csv`.
pub fn top20_suspicious(
    h: &Harness,
    trained: &TrainedPipeline,
    dataset: &Dataset,
) -> Result<Vec<SuspiciousSession>> {
    let top = experiments::top_suspicious(trained, dataset, 10, 20, h.seed ^ 0x515, h.threads);
    h.write_csv(
        "top20_suspicious",
        "rank,avg_likelihood,avg_loss,cluster,injected,actions",
        top.iter()
            .map(|s| {
                vec![
                    s.rank.to_string(),
                    fmt(s.avg_likelihood as f64),
                    fmt(s.avg_loss as f64),
                    s.cluster.to_string(),
                    s.injected_misuse.to_string(),
                    s.actions.join(" "),
                ]
            })
            .collect(),
    )?;
    Ok(top)
}

/// Ablation: the fraction of test sessions routed back to their own
/// cluster under full-session OC-SVM argmax, the lock-in vote over 5, 15
/// (the paper's choice) and 50 prefixes, nearest centroid and k-NN (k = 1,
/// 5) on the same bag features → `abl_router.csv`.
pub fn abl_router(h: &Harness, trained: &TrainedPipeline) -> Result<()> {
    let strategies = [
        RoutingStrategy::Full,
        RoutingStrategy::LockIn(5),
        RoutingStrategy::LockIn(15),
        RoutingStrategy::LockIn(50),
        RoutingStrategy::NearestCentroid,
        RoutingStrategy::Knn(1),
        RoutingStrategy::Knn(5),
    ];
    h.write_csv(
        "abl_router",
        "strategy,routing_accuracy",
        strategies
            .into_iter()
            .map(|s| {
                vec![
                    s.label(),
                    fmt(experiments::routing_accuracy(trained, s, h.threads)),
                ]
            })
            .collect(),
    )
}
