use std::collections::VecDeque;

use ibcm_lm::{LmScorer, StepScore};
use ibcm_logsim::{ActionId, ClusterId};
use ibcm_ocsvm::LockInVote;

use crate::detector::MisuseDetector;

/// When the online monitor raises an alarm: the mean likelihood over the
/// last `window` scored actions drops below `likelihood_threshold`
/// (the paper's §IV-C alarm criterion — "as soon as predictions start \[to\]
/// vary a lot or drop down considerably").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmPolicy {
    /// Windowed mean likelihood below this value raises an alarm.
    pub likelihood_threshold: f32,
    /// Sliding-window length in scored actions.
    pub window: usize,
    /// Number of scored actions to observe before alarms may fire.
    pub warmup: usize,
    /// §V trend extension: compare the mean likelihood over the most recent
    /// `trend_window` scored actions against the mean over the
    /// `trend_window` before that; a collapse raises a trend alarm.
    /// 0 disables trend detection.
    pub trend_window: usize,
    /// The trend alarm fires when `recent_mean < trend_drop_ratio *
    /// previous_mean`.
    pub trend_drop_ratio: f32,
}

impl Default for AlarmPolicy {
    fn default() -> Self {
        AlarmPolicy {
            likelihood_threshold: 0.02,
            window: 5,
            warmup: 5,
            trend_window: 0,
            trend_drop_ratio: 0.33,
        }
    }
}

/// What the monitor reports after each action.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorEvent {
    /// 1-based position of the action in the session.
    pub position: usize,
    /// Cluster in effect when the action was scored.
    pub cluster: ClusterId,
    /// Whether the cluster choice is frozen (past the lock-in horizon).
    pub locked: bool,
    /// Score of the observed action (None for the first action or an
    /// out-of-vocabulary action).
    pub score: Option<StepScore>,
    /// Mean likelihood over the sliding window, once it has data.
    pub windowed_likelihood: Option<f32>,
    /// Whether the threshold or trend criterion fired on this action.
    pub alarm: bool,
    /// Whether specifically the trend criterion fired (§V extension).
    pub trend_alarm: bool,
}

/// Action-by-action session monitoring — the paper's online regime (§IV-C).
///
/// Every cluster model advances on every action, so the effective model can
/// switch while the OC-SVM vote is still forming; after
/// [`MisuseDetector::lock_in`] actions the majority cluster is frozen.
/// The vote ([`LockInVote`]) stops scoring prefixes once the ballots still
/// to come cannot change its winner, which then stays the effective
/// cluster. Only the effective cluster's model scores the action: the
/// others step their recurrent state without the dense head and softmax
/// ([`LmScorer::try_advance`]).
///
/// # Example
///
/// ```no_run
/// # use ibcm_core::{Pipeline, PipelineConfig, AlarmPolicy};
/// # use ibcm_logsim::{Generator, GeneratorConfig};
/// let dataset = Generator::new(GeneratorConfig::tiny(1)).generate();
/// let trained = Pipeline::new(PipelineConfig::test_profile(1)).train(&dataset)?;
/// let mut monitor = trained.detector().monitor(AlarmPolicy::default());
/// for &action in dataset.sessions()[0].actions() {
///     let event = monitor.feed(action);
///     if event.alarm {
///         println!("alarm at action {}", event.position);
///     }
/// }
/// # Ok::<(), ibcm_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct OnlineMonitor<'a> {
    detector: &'a MisuseDetector,
    policy: AlarmPolicy,
    scorers: Vec<LmScorer<'a>>,
    prefix: Vec<ActionId>,
    vote: LockInVote,
    locked: Option<ClusterId>,
    recent: VecDeque<f32>,
    trend: VecDeque<f32>,
    position: usize,
    alarms: usize,
}

impl MisuseDetector {
    /// Starts monitoring one session online.
    pub fn monitor(&self, policy: AlarmPolicy) -> OnlineMonitor<'_> {
        OnlineMonitor {
            detector: self,
            policy,
            scorers: (0..self.n_clusters())
                .map(|c| self.model(ClusterId(c)).scorer())
                .collect(),
            prefix: Vec::new(),
            vote: LockInVote::new(self.n_clusters(), self.lock_in().max(1)),
            locked: None,
            recent: VecDeque::new(),
            trend: VecDeque::new(),
            position: 0,
            alarms: 0,
        }
    }
}

impl OnlineMonitor<'_> {
    /// The alarm policy in effect.
    pub fn policy(&self) -> &AlarmPolicy {
        &self.policy
    }

    /// Number of alarms raised so far.
    pub fn alarms(&self) -> usize {
        self.alarms
    }

    /// Number of actions fed so far.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Every action fed so far, in order. Checkpointing serializes this and
    /// rebuilds an identical monitor by deterministic replay (see the
    /// `IBCS` format in `persist.rs`).
    pub fn fed_actions(&self) -> &[ActionId] {
        &self.prefix
    }

    /// The cluster currently in effect, if any action has been fed.
    pub fn current_cluster(&self) -> Option<ClusterId> {
        if let Some(locked) = self.locked {
            return Some(locked);
        }
        if self.position == 0 {
            return None;
        }
        Some(self.vote.leader())
    }

    /// Feeds the next observed action and returns the monitoring event.
    pub fn feed(&mut self, action: ActionId) -> MonitorEvent {
        self.position += 1;
        self.prefix.push(action);

        // Routing: vote on each prefix until the lock-in horizon; a
        // settled vote scores no prefix.
        if self.locked.is_none() {
            self.vote.cast(self.detector.router(), &self.prefix);
            if self.position >= self.detector.lock_in() {
                self.locked = Some(self.vote.leader());
            }
        }
        // Equivalent to `current_cluster()` with `position >= 1`, without
        // the unreachable-`None` unwrap.
        let cluster = self.locked.unwrap_or_else(|| self.vote.leader());

        // Advance every cluster model, so a pre-lock-in switch finds its
        // state current, but score only the effective cluster: the others
        // skip the dense head and softmax, which only read the state. The
        // checked calls skip out-of-vocabulary actions and corrupt models
        // (typed `LmError`s) instead of panicking the monitor.
        let mut chosen: Option<StepScore> = None;
        for (ci, scorer) in self.scorers.iter_mut().enumerate() {
            if ci == cluster.index() {
                chosen = scorer.try_feed(action.index()).ok().flatten();
            } else {
                let _ = scorer.try_advance(action.index());
            }
        }

        if let Some(s) = chosen {
            if self.recent.len() == self.policy.window {
                self.recent.pop_front();
            }
            self.recent.push_back(s.likelihood);
            if self.policy.trend_window > 0 {
                if self.trend.len() == 2 * self.policy.trend_window {
                    self.trend.pop_front();
                }
                self.trend.push_back(s.likelihood);
            }
        }
        let windowed = if self.recent.is_empty() {
            None
        } else {
            Some(self.recent.iter().sum::<f32>() / self.recent.len() as f32)
        };
        let scored_count = self.position.saturating_sub(1);
        let threshold_alarm = matches!(windowed, Some(w) if w < self.policy.likelihood_threshold)
            && scored_count >= self.policy.warmup;
        let trend_alarm = self.trend_alarm_fires() && scored_count >= self.policy.warmup;
        let alarm = threshold_alarm || trend_alarm;
        if alarm {
            self.alarms += 1;
        }
        MonitorEvent {
            position: self.position,
            cluster,
            locked: self.locked.is_some(),
            score: chosen,
            windowed_likelihood: windowed,
            alarm,
            trend_alarm,
        }
    }
}

/// §V trend criterion: the recent half of the trend buffer collapsed
/// relative to the earlier half.
impl OnlineMonitor<'_> {
    fn trend_alarm_fires(&self) -> bool {
        let w = self.policy.trend_window;
        if w == 0 || self.trend.len() < 2 * w {
            return false;
        }
        let prior: f32 = self.trend.iter().take(w).sum::<f32>() / w as f32;
        let recent: f32 = self.trend.iter().skip(w).sum::<f32>() / w as f32;
        recent < self.policy.trend_drop_ratio * prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_lm::{LmTrainConfig, LstmLm};
    use ibcm_ocsvm::{ClusterRouter, OcSvm, OcSvmConfig, SessionFeaturizer};

    fn detector() -> MisuseDetector {
        let vocab = 6;
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs0: Vec<Vec<usize>> = (0..20).map(|_| vec![0, 1, 2, 0, 1, 2, 0, 1]).collect();
        let seqs1: Vec<Vec<usize>> = (0..20).map(|_| vec![3, 4, 5, 3, 4, 5, 3, 4]).collect();
        let feats = |seqs: &[Vec<usize>]| -> Vec<Vec<f64>> {
            seqs.iter()
                .map(|s| {
                    let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                    featurizer.features(&acts)
                })
                .collect()
        };
        let cfg = OcSvmConfig::default();
        let router = ClusterRouter::new(
            vec![
                OcSvm::train(&feats(&seqs0), &cfg).unwrap(),
                OcSvm::train(&feats(&seqs1), &cfg).unwrap(),
            ],
            featurizer,
        );
        let lm_cfg = LmTrainConfig {
            vocab,
            hidden: 12,
            dropout: 0.0,
            epochs: 25,
            batch_size: 8,
            learning_rate: 0.01,
            patience: 0,
            ..LmTrainConfig::default()
        };
        MisuseDetector::new(
            router,
            vec![
                LstmLm::train(&lm_cfg, &seqs0, &[]).unwrap(),
                LstmLm::train(&lm_cfg, &seqs1, &[]).unwrap(),
            ],
            5,
        )
    }

    #[test]
    fn locks_cluster_after_horizon() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy::default());
        let actions = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let mut events = Vec::new();
        for &a in &actions {
            events.push(m.feed(ActionId(a)));
        }
        assert!(!events[3].locked, "horizon is 5");
        assert!(events[4].locked);
        assert_eq!(events.last().unwrap().cluster, ClusterId(0));
        assert_eq!(m.current_cluster(), Some(ClusterId(0)));
    }

    #[test]
    fn normal_session_raises_no_alarm() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy::default());
        for &a in &[0usize, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2] {
            m.feed(ActionId(a));
        }
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn scrambled_session_raises_alarm() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy {
            likelihood_threshold: 0.15,
            window: 3,
            warmup: 3,
            ..AlarmPolicy::default()
        });
        let scrambled = [0usize, 1, 2, 5, 3, 0, 4, 2, 5, 1, 3, 0, 2, 4];
        let mut alarmed = false;
        for &a in &scrambled {
            alarmed |= m.feed(ActionId(a)).alarm;
        }
        assert!(alarmed, "scrambled behavior should trip the alarm");
    }

    #[test]
    fn out_of_vocab_actions_skipped_not_fatal() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy::default());
        let e1 = m.feed(ActionId(0));
        assert!(e1.score.is_none());
        let e2 = m.feed(ActionId(999));
        assert!(e2.score.is_none());
        let e3 = m.feed(ActionId(1));
        assert_eq!(e3.position, 3);
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy {
            likelihood_threshold: 0.99, // would always fire
            window: 2,
            warmup: 50,
            ..AlarmPolicy::default()
        });
        for &a in &[0usize, 1, 2, 0, 1, 2] {
            assert!(!m.feed(ActionId(a)).alarm);
        }
    }

    #[test]
    fn trend_alarm_fires_on_likelihood_collapse() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy {
            likelihood_threshold: 0.0, // disable the plain threshold
            window: 3,
            warmup: 4,
            trend_window: 3,
            trend_drop_ratio: 0.33,
        });
        // Normal prefix establishes a high baseline, then chaos collapses it.
        let actions = [0usize, 1, 2, 0, 1, 2, 0, 1, 2, 5, 3, 0, 4, 2, 5, 1];
        let mut trend_alarmed = false;
        for &a in &actions {
            let e = m.feed(ActionId(a));
            trend_alarmed |= e.trend_alarm;
        }
        assert!(trend_alarmed, "trend collapse should raise a trend alarm");
    }

    #[test]
    fn trend_disabled_by_default() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy::default());
        for &a in &[0usize, 1, 2, 5, 3, 0, 4, 2, 5, 1, 3, 0] {
            assert!(!m.feed(ActionId(a)).trend_alarm);
        }
    }

    #[test]
    fn positions_are_sequential() {
        let d = detector();
        let mut m = d.monitor(AlarmPolicy::default());
        for (i, &a) in [0usize, 1, 2].iter().enumerate() {
            assert_eq!(m.feed(ActionId(a)).position, i + 1);
        }
    }
}
