//! End-to-end integration: generator -> topic ensemble -> simulated expert
//! -> OC-SVM router + LSTM models -> detector -> persistence -> online
//! monitor, all through the public facade.

use std::sync::OnceLock;

use ibcm::{
    AlarmPolicy, Dataset, Generator, GeneratorConfig, MisuseDetector, Pipeline, PipelineConfig,
    TrainedPipeline,
};

fn fixture() -> &'static (Dataset, TrainedPipeline) {
    static FIXTURE: OnceLock<(Dataset, TrainedPipeline)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Generator::new(GeneratorConfig::tiny(31)).generate();
        let trained = Pipeline::new(PipelineConfig::test_profile(31))
            .train(&dataset)
            .expect("pipeline trains on tiny corpus");
        (dataset, trained)
    })
}

#[test]
fn detector_separates_three_populations() {
    let (dataset, trained) = fixture();
    let det = trained.detector();
    let mean_likelihood = |sessions: &[ibcm::Session]| -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in sessions {
            let v = det.score_session(s.actions());
            if v.score.n_predictions > 0 {
                sum += v.score.avg_likelihood as f64;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    };
    let normal: Vec<ibcm::Session> = trained
        .clusters()
        .iter()
        .flat_map(|c| c.test.clone())
        .collect();
    let random = dataset.random_sessions(60, 7);
    let misuse = dataset.misuse_sessions(60, 8);
    let l_normal = mean_likelihood(&normal);
    let l_random = mean_likelihood(&random);
    let l_misuse = mean_likelihood(&misuse);
    assert!(
        l_normal > 2.0 * l_random,
        "normal {l_normal} vs random {l_random}"
    );
    assert!(
        l_normal > 2.0 * l_misuse,
        "normal {l_normal} vs misuse {l_misuse}"
    );
}

#[test]
fn persistence_round_trip_preserves_all_verdicts() {
    let (dataset, trained) = fixture();
    let det = trained.detector();
    let bytes = det.to_bytes();
    let restored = MisuseDetector::from_bytes(&bytes).expect("round trip");
    for s in dataset.sessions().iter().take(25) {
        assert_eq!(det.score_session(s.actions()), restored.score_session(s.actions()));
    }
    assert_eq!(det.n_clusters(), restored.n_clusters());
    assert_eq!(det.lock_in(), restored.lock_in());
}

#[test]
fn online_monitor_flags_misuse_not_normal() {
    let (dataset, trained) = fixture();
    let det = trained.detector();
    let policy = AlarmPolicy {
        likelihood_threshold: 0.01,
        window: 4,
        warmup: 4,
        ..AlarmPolicy::default()
    };
    // Normal test sessions: expect almost no alarms.
    let mut normal_alarms = 0usize;
    let mut normal_sessions = 0usize;
    for c in trained.clusters() {
        for s in c.test.iter().take(10) {
            let mut m = det.monitor(policy);
            for &a in s.actions() {
                m.feed(a);
            }
            normal_alarms += usize::from(m.alarms() > 0);
            normal_sessions += 1;
        }
    }
    // Misuse bursts: expect alarms on a clear majority.
    let misuse = dataset.misuse_sessions(30, 3);
    let mut misuse_alarms = 0usize;
    for s in &misuse {
        let mut m = det.monitor(policy);
        for &a in s.actions() {
            m.feed(a);
        }
        misuse_alarms += usize::from(m.alarms() > 0);
    }
    let normal_rate = normal_alarms as f64 / normal_sessions.max(1) as f64;
    let misuse_rate = misuse_alarms as f64 / misuse.len() as f64;
    assert!(
        misuse_rate > normal_rate + 0.3,
        "misuse alarm rate {misuse_rate} vs normal false-alarm rate {normal_rate}"
    );
}

#[test]
fn routing_matches_cluster_membership() {
    let (_, trained) = fixture();
    let det = trained.detector();
    let mut hits = 0usize;
    let mut total = 0usize;
    for c in trained.clusters() {
        for s in &c.test {
            hits += usize::from(det.route(s.actions()) == c.cluster);
            total += 1;
        }
    }
    let acc = hits as f64 / total.max(1) as f64;
    let chance = 1.0 / det.n_clusters() as f64;
    assert!(
        acc > chance + 0.3,
        "routing accuracy {acc} barely beats chance {chance}"
    );
}

#[test]
fn detector_is_deterministic_across_retrains() {
    let dataset = Generator::new(GeneratorConfig::tiny(5)).generate();
    let a = Pipeline::new(PipelineConfig::test_profile(5))
        .train(&dataset)
        .unwrap();
    let b = Pipeline::new(PipelineConfig::test_profile(5))
        .train(&dataset)
        .unwrap();
    assert_eq!(a.detector().to_bytes(), b.detector().to_bytes());
}
