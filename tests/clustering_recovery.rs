//! Integration: the informed-clustering half of the pipeline. Verifies that
//! the LDA ensemble + simulated expert recover the generator's latent
//! behaviors from raw sessions, and that frequent-pattern mining
//! characterizes the recovered clusters the way §IV-B describes.

#![expect(clippy::disallowed_types, reason = "test-only per-cluster archetype tallies; only summed and maxed, so iteration order cannot matter")]

use std::collections::HashMap;

use ibcm::{
    sessions_to_docs, ClusterId, Ensemble, EnsembleConfig, Generator, GeneratorConfig, PrefixSpan,
    SimulatedExpert, SimulatedExpertConfig, TsneConfig,
};

#[test]
fn expert_clusters_align_with_archetypes() {
    let dataset = Generator::new(GeneratorConfig::tiny(41)).generate();
    let (docs, origin) = sessions_to_docs(dataset.sessions(), 2);
    let ensemble = Ensemble::fit(
        &EnsembleConfig {
            topic_counts: vec![13, 16],
            runs_per_count: 1,
            iterations: 50,
            ..EnsembleConfig::standard(dataset.catalog().len(), 41)
        },
        &docs,
    )
    .unwrap();
    let (clustering, log) = SimulatedExpert::new(SimulatedExpertConfig {
        target_clusters: 13,
        min_cluster_sessions: 8,
        tsne: TsneConfig {
            iterations: 60,
            ..TsneConfig::default()
        },
    })
    .run(&ensemble);
    assert!(!log.is_empty());
    assert!(clustering.n_clusters() >= 6, "got {}", clustering.n_clusters());

    // Purity against the generating archetypes.
    let mut majority_total = 0usize;
    let mut total = 0usize;
    for g in 0..clustering.n_clusters() {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for doc in clustering.members(ClusterId(g)) {
            let s = &dataset.sessions()[origin[doc]];
            if let Some(a) = s.archetype() {
                *counts.entry(a.index()).or_default() += 1;
            }
        }
        let size: usize = counts.values().sum();
        majority_total += counts.values().copied().max().unwrap_or(0);
        total += size;
    }
    let purity = majority_total as f64 / total.max(1) as f64;
    assert!(
        purity > 0.6,
        "informed clustering should largely recover the archetypes, purity {purity}"
    );
}

#[test]
fn mined_patterns_characterize_the_unlock_cluster() {
    // Build the "unlock user access" behavior directly and check that
    // PrefixSpan surfaces the workflow the paper quotes for its first
    // example cluster. The tiny profile has only 40 users, so how many of
    // them draw the UserUnlock archetype is seed-sensitive; this seed gives
    // a comfortable margin over the `> 5` floor below.
    let dataset = Generator::new(GeneratorConfig::tiny(45)).generate();
    let catalog = dataset.catalog();
    let unlock_sessions: Vec<Vec<usize>> = dataset
        .sessions()
        .iter()
        .filter(|s| s.archetype().map(|a| a.index()) == Some(0)) // UserUnlock
        .map(|s| s.actions().iter().map(|a| a.index()).collect())
        .collect();
    assert!(unlock_sessions.len() > 5, "need some unlock sessions");
    // The unlock phase draws from {UnLockUser, UnLockDisplayedUser,
    // ClearFailedLogins} and 2% of actions are long-tail noise, so no single
    // chain dominates half the sessions; a third is the right bar.
    let min_support = unlock_sessions.len() / 3;
    let patterns = PrefixSpan::new(min_support, 3).mine(&unlock_sessions);
    let names: Vec<String> = patterns
        .iter()
        .flat_map(|p| p.items.iter().map(|&a| catalog.name(ibcm::ActionId(a)).to_string()))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("UnLock") || n.contains("ClearFailedLogins")),
        "unlock-related actions should dominate the mined patterns: {names:?}"
    );
    // And a sequential search -> display -> unlock chain should be frequent.
    let has_chain = patterns.iter().any(|p| {
        p.items.len() >= 2
            && catalog.name(ibcm::ActionId(p.items[0])).contains("Search")
            && p.items
                .iter()
                .any(|&a| catalog.name(ibcm::ActionId(a)).contains("UnLock"))
    });
    assert!(has_chain, "expected a Search -> ... -> UnLock sequential pattern");
}

#[test]
fn ensemble_views_cover_all_topics() {
    let dataset = Generator::new(GeneratorConfig::tiny(47)).generate();
    let (docs, _) = sessions_to_docs(dataset.sessions(), 2);
    let ensemble = Ensemble::fit(
        &EnsembleConfig {
            topic_counts: vec![6],
            runs_per_count: 2,
            iterations: 30,
            ..EnsembleConfig::standard(dataset.catalog().len(), 47)
        },
        &docs,
    )
    .unwrap();
    let projection =
        ibcm::TopicProjectionView::compute(&ensemble, &TsneConfig {
            iterations: 60,
            ..TsneConfig::default()
        });
    assert_eq!(projection.points.len(), ensemble.topics().len());
    let matrix = ibcm::TopicActionMatrixView::compute(&ensemble, dataset.catalog(), 0.02);
    assert_eq!(matrix.n_rows(), ensemble.topics().len());
    assert!(matrix.n_cols() > 0, "some actions must be prominent");
}
