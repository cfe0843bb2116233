//! The online monitor against its all-cluster oracle.
//!
//! `OnlineMonitor::feed` scores only the effective cluster and steps every
//! other cluster's recurrent state with `LmScorer::try_advance`. The
//! reference below is the loop it replaced: `try_feed` on every cluster's
//! scorer, keeping the effective cluster's score. Every `MonitorEvent` must
//! match field for field, floats by their bits, over held-out sessions with
//! out-of-vocabulary actions, including a session that opens with one, and
//! across pre-lock-in switches of the effective cluster.
//!
//! The monitor's lock-in vote also stops scoring prefixes once the ballots
//! still to come cannot change its winner; the reference votes on every
//! prefix up to lock-in, so the comparison covers the skipped votes too.

use std::collections::VecDeque;
use std::sync::OnceLock;

use ibcm_core::{AlarmPolicy, MisuseDetector, MonitorEvent, Pipeline, PipelineConfig};
use ibcm_lm::{LmScorer, StepScore};
use ibcm_logsim::{ActionId, ClusterId, Generator, GeneratorConfig};

const SEED: u64 = 23;

fn detector() -> &'static MisuseDetector {
    static DET: OnceLock<MisuseDetector> = OnceLock::new();
    DET.get_or_init(|| {
        let dataset = Generator::new(GeneratorConfig::tiny(SEED)).generate();
        Pipeline::new(PipelineConfig::test_profile(SEED))
            .train(&dataset)
            .unwrap()
            .detector()
            .clone()
    })
}

/// The all-cluster monitor: `try_feed` on every scorer, every action.
struct Reference<'a> {
    detector: &'a MisuseDetector,
    policy: AlarmPolicy,
    scorers: Vec<LmScorer<'a>>,
    prefix: Vec<ActionId>,
    votes: Vec<usize>,
    locked: Option<ClusterId>,
    recent: VecDeque<f32>,
    trend: VecDeque<f32>,
}

impl<'a> Reference<'a> {
    fn new(detector: &'a MisuseDetector, policy: AlarmPolicy) -> Self {
        Reference {
            detector,
            policy,
            scorers: (0..detector.n_clusters())
                .map(|c| detector.model(ClusterId(c)).scorer())
                .collect(),
            prefix: Vec::new(),
            votes: vec![0; detector.n_clusters()],
            locked: None,
            recent: VecDeque::new(),
            trend: VecDeque::new(),
        }
    }

    fn feed(&mut self, action: ActionId) -> MonitorEvent {
        self.prefix.push(action);
        let position = self.prefix.len();
        if self.locked.is_none() {
            let scores = self.detector.router().scores(&self.prefix);
            self.votes[argmax_f64(&scores)] += 1;
            if position >= self.detector.lock_in() {
                self.locked = Some(ClusterId(argmax_usize(&self.votes)));
            }
        }
        let cluster = self
            .locked
            .unwrap_or_else(|| ClusterId(argmax_usize(&self.votes)));

        let mut chosen: Option<StepScore> = None;
        for (ci, scorer) in self.scorers.iter_mut().enumerate() {
            if let Ok(s) = scorer.try_feed(action.index()) {
                if ci == cluster.index() {
                    chosen = s;
                }
            }
        }

        let p = self.policy;
        if let Some(s) = chosen {
            if self.recent.len() == p.window {
                self.recent.pop_front();
            }
            self.recent.push_back(s.likelihood);
            if p.trend_window > 0 {
                if self.trend.len() == 2 * p.trend_window {
                    self.trend.pop_front();
                }
                self.trend.push_back(s.likelihood);
            }
        }
        let windowed = (!self.recent.is_empty())
            .then(|| self.recent.iter().sum::<f32>() / self.recent.len() as f32);
        let warm = position.saturating_sub(1) >= p.warmup;
        let threshold_alarm = matches!(windowed, Some(w) if w < p.likelihood_threshold) && warm;
        let w = p.trend_window;
        let trend_alarm = w > 0 && self.trend.len() >= 2 * w && warm && {
            let prior = self.trend.iter().take(w).sum::<f32>() / w as f32;
            let recent = self.trend.iter().skip(w).sum::<f32>() / w as f32;
            recent < p.trend_drop_ratio * prior
        };
        MonitorEvent {
            position,
            cluster,
            locked: self.locked.is_some(),
            score: chosen,
            windowed_likelihood: windowed,
            alarm: threshold_alarm || trend_alarm,
            trend_alarm,
        }
    }
}

fn argmax_f64(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

fn argmax_usize(xs: &[usize]) -> usize {
    xs.iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map_or(0, |(i, _)| i)
}

/// Whether no split of `remaining` further ballots can change the winner
/// of `votes` (the most votes, the later cluster on a tie).
fn settled(votes: &[usize], remaining: usize) -> bool {
    let leader = argmax_usize(votes);
    let lead = votes[leader];
    votes
        .iter()
        .enumerate()
        .all(|(c, &v)| c == leader || v + remaining < lead || (v + remaining == lead && c < leader))
}

/// A `MonitorEvent` with every float replaced by its bits, so `==` is
/// bit equality (`NaN` included).
fn bits(e: &MonitorEvent) -> impl PartialEq + std::fmt::Debug {
    (
        (e.position, e.cluster, e.locked),
        e.score.map(|s| {
            (
                s.likelihood.to_bits(),
                s.loss.to_bits(),
                s.predicted,
                s.correct,
            )
        }),
        e.windowed_likelihood.map(f32::to_bits),
        (e.alarm, e.trend_alarm),
    )
}

/// Held-out sessions with every 7th action out of vocabulary; the first
/// session opens with an out-of-vocabulary action.
fn sessions(vocab: usize) -> Vec<Vec<ActionId>> {
    let dataset = Generator::new(GeneratorConfig::tiny(SEED + 1)).generate();
    let mut n = 0usize;
    dataset
        .sessions()
        .iter()
        .map(|s| {
            s.actions()
                .iter()
                .map(|&a| {
                    n += 1;
                    if n % 7 == 1 {
                        ActionId(vocab + n % 5)
                    } else {
                        a
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn monitor_matches_the_all_cluster_oracle() {
    let detector = detector();
    assert!(detector.n_clusters() > 1, "a switch needs two clusters");
    let sessions = sessions(detector.vocab_size());
    assert!(sessions[0][0].index() >= detector.vocab_size());
    let policy = AlarmPolicy {
        likelihood_threshold: 0.05,
        trend_window: 3,
        ..AlarmPolicy::default()
    };

    // The monitor alone first, so the scored-actions counter sees only it:
    // one scored action per event with a score.
    let scored = ibcm_obs::names::LM_ACTIONS_SCORED.counter();
    let before = scored.get();
    let events: Vec<Vec<MonitorEvent>> = sessions
        .iter()
        .map(|s| {
            let mut monitor = detector.monitor(policy);
            s.iter().map(|&a| monitor.feed(a)).collect()
        })
        .collect();
    let with_score = events
        .iter()
        .flatten()
        .filter(|e| e.score.is_some())
        .count();
    assert_eq!(scored.get() - before, with_score as u64);

    let lock_in = detector.lock_in().max(1);
    let (mut switches, mut unscored, mut alarms) = (0, 0, 0);
    // Prefix votes the monitor skipped: those after its vote settled, up to
    // lock-in, found from the reference's full vote.
    let (mut skipping_sessions, mut skipped_votes) = (0, 0);
    for (s, got) in sessions.iter().zip(&events) {
        let mut reference = Reference::new(detector, policy);
        let mut settled_at = None;
        for (i, (&a, event)) in s.iter().zip(got).enumerate() {
            let want = reference.feed(a);
            assert_eq!(bits(event), bits(&want), "action {i} ({a:?}) of {s:?}");
            if i > 0 && event.cluster != got[i - 1].cluster {
                assert!(!got[i - 1].locked);
                switches += 1;
            }
            unscored += usize::from(i > 0 && event.score.is_none());
            alarms += usize::from(event.alarm);
            let position = i + 1;
            if settled_at.is_none()
                && position < lock_in
                && settled(&reference.votes, lock_in - position)
            {
                settled_at = Some(position);
            }
        }
        if let Some(p) = settled_at {
            let skipped = s.len().min(lock_in) - p;
            skipping_sessions += usize::from(skipped > 0);
            skipped_votes += skipped;
        }
    }
    assert!(
        switches > 0,
        "no pre-lock-in switch of the effective cluster"
    );
    assert!(
        skipping_sessions > 0 && skipped_votes > 0,
        "no session's vote settled before lock-in with a prefix vote left to skip"
    );
    assert!(unscored > 0, "no out-of-vocabulary action was fed");
    assert!(alarms > 0, "no alarm to compare");
}
