//! Property-based tests for the one-class SVM and featurizer.

use ibcm_logsim::{ActionId, ClusterId};
use ibcm_ocsvm::{ClusterRouter, Kernel, OcSvm, OcSvmConfig, SessionFeaturizer};
use proptest::prelude::*;

fn blob(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1.0f64..1.0, dim), n..n + 10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Training succeeds on any non-degenerate blob, the dual constraints
    /// hold, and decisions are finite everywhere.
    #[test]
    fn dual_constraints_hold(data in blob(10, 3), nu in 0.05f64..0.9) {
        let cfg = OcSvmConfig {
            nu,
            max_sweeps: 15,
            ..OcSvmConfig::default()
        };
        let svm = OcSvm::train(&data, &cfg).unwrap();
        let (_, svs, alphas, rho, dim) = svm.parts();
        prop_assert_eq!(svs.len(), alphas.len());
        prop_assert_eq!(dim, 3);
        let c = 1.0 / (nu * data.len() as f64);
        let total: f64 = alphas.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum alpha {total}");
        prop_assert!(alphas.iter().all(|&a| a >= -1e-12 && a <= c + 1e-9));
        prop_assert!(rho.is_finite());
        prop_assert!(svm.decision(&[0.0, 0.0, 0.0]).is_finite());
        prop_assert!(svm.decision(&[100.0, -100.0, 100.0]).is_finite());
    }

    /// RBF kernel values are always in [0, 1] (0 only via f64 underflow at
    /// extreme distances) and symmetric.
    #[test]
    fn rbf_kernel_bounds(x in prop::collection::vec(-5.0f64..5.0, 4),
                         y in prop::collection::vec(-5.0f64..5.0, 4),
                         gamma in 0.01f64..10.0) {
        let k = Kernel::Rbf { gamma };
        let v = k.eval(&x, &y);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        prop_assert!((v - k.eval(&y, &x)).abs() < 1e-12);
    }

    /// With an RBF kernel, the decision score far from the data approaches
    /// -rho and is never above the score at a support vector... at least it
    /// must be below the maximum achievable sum of alphas minus rho.
    #[test]
    fn faraway_points_score_low(data in blob(12, 2)) {
        let svm = OcSvm::train(&data, &OcSvmConfig::default()).unwrap();
        let far = svm.decision(&[1e6, 1e6]);
        let (_, _, _, rho, _) = svm.parts();
        // All kernel terms vanish at infinity: f(far) ~ -rho.
        prop_assert!((far + rho).abs() < 1e-9, "far {far} vs -rho {}", -rho);
        // And any in-sample point scores at least as high.
        for x in &data {
            prop_assert!(svm.decision(x) >= far - 1e-9);
        }
    }

    /// Featurizer: output dimension is constant, bag entries in [0, 1],
    /// independent of action order.
    #[test]
    fn featurizer_is_order_insensitive_in_bag(mut actions in prop::collection::vec(0usize..8, 1..30)) {
        let f = SessionFeaturizer::new(8, false);
        let a: Vec<ActionId> = actions.iter().map(|&x| ActionId(x)).collect();
        let before = f.features(&a);
        actions.sort_unstable();
        let b: Vec<ActionId> = actions.iter().map(|&x| ActionId(x)).collect();
        let after = f.features(&b);
        for (x, y) in before.iter().zip(after.iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }
}

/// A mostly-zero entry: `+0.0` or `-0.0` four times in five.
fn sparse_entry() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.0), Just(0.0), Just(-0.0), -1.0f64..1.0]
}

/// The decision function written out from `parts()` with the dense
/// `Kernel::eval`: the reference the production decision must match bit
/// for bit.
fn dense_decision(svm: &OcSvm, x: &[f64]) -> f64 {
    let (config, svs, alphas, rho, _) = svm.parts();
    svs.iter()
        .zip(alphas)
        .map(|(sv, &a)| a * config.kernel.eval(sv, x))
        .sum::<f64>()
        - rho
}

/// One SVM per cluster, each trained on featurized sessions over a
/// 20-action vocabulary.
fn router_for(clusters: &[Vec<Vec<usize>>], include_length: bool) -> ClusterRouter {
    let featurizer = SessionFeaturizer::new(20, include_length);
    let cfg = OcSvmConfig {
        max_sweeps: 15,
        ..OcSvmConfig::default()
    };
    let svms: Vec<OcSvm> = clusters
        .iter()
        .map(|sessions| {
            let feats: Vec<Vec<f64>> = sessions
                .iter()
                .map(|s| {
                    let actions: Vec<ActionId> = s.iter().map(|&a| ActionId(a)).collect();
                    featurizer.features(&actions)
                })
                .collect();
            OcSvm::train(&feats, &cfg).unwrap()
        })
        .collect();
    ClusterRouter::new(svms, featurizer)
}

/// The lock-in vote over every prefix up to the horizon, with no early
/// stop: each prefix votes for its highest-scoring cluster (the later one
/// on a tie) and the most-voted cluster wins (the later one on a tie).
fn full_horizon_vote(router: &ClusterRouter, actions: &[ActionId], lock_in: usize) -> ClusterId {
    let horizon = actions.len().min(lock_in.max(1));
    let mut votes = vec![0usize; router.n_clusters()];
    for end in 1..=horizon {
        let scores = router.scores(&actions[..end]);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i);
        votes[best] += 1;
    }
    ClusterId(
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map_or(0, |(i, _)| i),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lock-in route, which stops voting once the winner is settled,
    /// picks the cluster of a vote over every prefix up to the horizon.
    #[test]
    fn lock_in_route_matches_the_full_horizon_vote(
        clusters in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0usize..20, 1..15), 4..8),
            1..5,
        ),
        sessions in prop::collection::vec(prop::collection::vec(0usize..23, 0..=40), 1..12),
        include_length in any::<bool>(),
    ) {
        let router = router_for(&clusters, include_length);
        // Actions 20 to 22 are out of vocabulary.
        for session in &sessions {
            let actions: Vec<ActionId> = session.iter().map(|&a| ActionId(a)).collect();
            for lock_in in [1, 2, 5, 15] {
                prop_assert_eq!(
                    router.route_with_lock_in(&actions, lock_in),
                    full_horizon_vote(&router, &actions, lock_in),
                    "lock_in {} on {:?}", lock_in, session
                );
            }
        }
    }

    /// On mostly-zero training sets and queries, the decision equals the
    /// dense reference bit for bit.
    #[test]
    fn decision_matches_dense_reference(
        data in prop::collection::vec(prop::collection::vec(sparse_entry(), 12), 6..20),
        queries in prop::collection::vec(prop::collection::vec(sparse_entry(), 12), 1..12),
        gamma in 0.05f64..5.0,
    ) {
        let cfg = OcSvmConfig {
            kernel: Kernel::Rbf { gamma },
            max_sweeps: 15,
            ..OcSvmConfig::default()
        };
        let svm = OcSvm::train(&data, &cfg).unwrap();
        for x in queries.iter().chain(&data) {
            prop_assert_eq!(svm.decision(x).to_bits(), dense_decision(&svm, x).to_bits());
        }
    }

    /// The router's per-cluster scores on featurized prefixes equal the
    /// dense reference of each cluster's SVM, bit for bit.
    #[test]
    fn router_scores_match_dense_reference(
        clusters in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0usize..20, 1..15), 4..10),
            1..4,
        ),
        session in prop::collection::vec(0usize..22, 1..20),
        include_length in any::<bool>(),
    ) {
        let router = router_for(&clusters, include_length);
        let featurizer = *router.featurizer();
        // Actions 20 and 21 are out of vocabulary.
        let actions: Vec<ActionId> = session.iter().map(|&a| ActionId(a)).collect();
        for end in 0..=actions.len() {
            let prefix = &actions[..end];
            let x = featurizer.features(prefix);
            let scores = router.scores(prefix);
            prop_assert_eq!(scores.len(), router.n_clusters());
            for (score, svm) in scores.iter().zip(router.svms()) {
                prop_assert_eq!(score.to_bits(), dense_decision(svm, &x).to_bits());
            }
        }
    }
}
