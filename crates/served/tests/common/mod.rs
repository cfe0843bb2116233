//! Shared fixture for the daemon integration tests: one small dataset and
//! one hand-assembled detector (fast to train; determinism tests need
//! deterministic scoring, not accuracy), plus the monolithic reference
//! that every sharded run must reproduce byte-for-byte.

// Shared between the daemon test binaries; not every binary reads every
// field.
#![allow(dead_code)]

use std::sync::{Arc, OnceLock};

use ibcm_core::chaos::{
    event_stream, inject_duplicates, inject_out_of_order, inject_unknown_actions,
    inject_unknown_users,
};
use ibcm_core::{
    AlarmPolicy, FaultCounters, FaultPolicy, MisuseDetector, SessionEvent, StreamConfig,
};
use ibcm_logsim::{Dataset, Generator, GeneratorConfig};
use ibcm_lm::{LmTrainConfig, LstmLm};
use ibcm_ocsvm::{ClusterRouter, OcSvm, OcSvmConfig, SessionFeaturizer};

pub struct Fixture {
    pub dataset: Dataset,
    pub detector: Arc<MisuseDetector>,
    pub events: Vec<SessionEvent>,
}

pub fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = Generator::new(GeneratorConfig::tiny(11)).generate();
        let vocab = dataset.catalog().len();
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs: Vec<Vec<usize>> = dataset
            .sessions()
            .iter()
            .take(12)
            .map(|s| s.actions().iter().map(|a| a.index()).collect())
            .collect();
        let feats: Vec<Vec<f64>> = dataset
            .sessions()
            .iter()
            .take(12)
            .map(|s| featurizer.features(s.actions()))
            .collect();
        let router = ClusterRouter::new(
            vec![OcSvm::train(&feats, &OcSvmConfig::default()).unwrap()],
            featurizer,
        );
        let lm = LstmLm::train(
            &LmTrainConfig {
                vocab,
                hidden: 8,
                epochs: 3,
                batch_size: 8,
                patience: 0,
                ..LmTrainConfig::default()
            },
            &seqs,
            &[],
        )
        .unwrap();
        let detector = MisuseDetector::new(router, vec![lm], 15);
        let events = event_stream(&dataset);
        Fixture {
            dataset,
            detector: Arc::new(detector),
            events,
        }
    })
}

/// The fixture stream with every fault class injected: backwards clocks,
/// duplicates, unknown actions and unknown users.
pub fn faulty_events() -> Vec<SessionEvent> {
    let fix = fixture();
    let mut events = fix.events.clone();
    inject_out_of_order(&mut events, 200, 9);
    inject_duplicates(&mut events, 25, 2);
    inject_unknown_actions(&mut events, 15, fix.detector.vocab_size(), 3);
    inject_unknown_users(&mut events, 15, fix.dataset.n_users(), 4);
    events
}

/// An alarm policy loose enough that the weakly trained model alarms
/// often — byte-identity comparisons need a non-trivial stream.
pub fn chatty_policy() -> AlarmPolicy {
    AlarmPolicy {
        likelihood_threshold: 0.5,
        window: 3,
        warmup: 3,
        trend_window: 3,
        ..AlarmPolicy::default()
    }
}

pub fn stream_config(faults: FaultPolicy) -> StreamConfig {
    StreamConfig {
        session_timeout_minutes: 30,
        policy: chatty_policy(),
        faults,
        ..StreamConfig::default()
    }
}

/// What the monolithic (unsharded, uncrashed) reference produced.
pub struct Reference {
    /// Canonical merged-log lines, with reconstructed global sequence
    /// numbers: per event, one seq per shed victim, then one for the
    /// delivery itself.
    pub log: Vec<String>,
    pub counters: FaultCounters,
    pub sessions_started: usize,
    pub sessions_ended: usize,
    pub active_sessions: usize,
}

/// Runs a single `StreamMonitor` over `events` and renders the alarm
/// stream in the daemon's canonical log format.
pub fn monolith_reference(
    detector: &MisuseDetector,
    config: StreamConfig,
    events: &[SessionEvent],
) -> Reference {
    let mut monitor = detector.stream_monitor(config);
    let mut log = Vec::new();
    let mut seq = 0u64;
    for event in events {
        let out = monitor.ingest(*event);
        for shed in &out.shed {
            seq += 1;
            log.push(format!("{:06} {:?}", seq, shed));
        }
        seq += 1;
        if let Some(alarm) = &out.alarm {
            log.push(format!("{:06} {:?}", seq, alarm));
        }
    }
    Reference {
        log,
        counters: monitor.fault_counters(),
        sessions_started: monitor.sessions_started(),
        sessions_ended: monitor.sessions_ended(),
        active_sessions: monitor.active_sessions(),
    }
}
