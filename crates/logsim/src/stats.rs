//! Activity profiling over a [`Dataset`] — the exploratory statistics an
//! analyst computes before modeling (cf. Nguyen et al., "Understanding user
//! behaviour through action sequences", the paper's companion work on the
//! same data): per-user activity, temporal load, and action frequency.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::ids::{ActionId, UserId};
use crate::session::Session;

/// Summary of one user's activity in the log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserActivity {
    /// The user.
    pub user: UserId,
    /// Number of sessions performed.
    pub sessions: usize,
    /// Total actions across sessions.
    pub actions: usize,
    /// Mean session length.
    pub mean_length: f64,
    /// Number of distinct actions used.
    pub distinct_actions: usize,
}

/// Per-user activity profiles, most active (by session count) first.
#[expect(clippy::disallowed_types, reason = "profiles are fully sorted with a total (sessions, user) order before returning, per-user aggregates are integer sums, and the HashSet is only measured with len()")]
pub fn user_activity(dataset: &Dataset) -> Vec<UserActivity> {
    use std::collections::{HashMap, HashSet};
    let mut sessions_by_user: HashMap<UserId, Vec<&Session>> = HashMap::new();
    for s in dataset.sessions() {
        sessions_by_user.entry(s.user()).or_default().push(s);
    }
    let mut out: Vec<UserActivity> = sessions_by_user
        .into_iter()
        .map(|(user, sessions)| {
            let actions: usize = sessions.iter().map(|s| s.len()).sum();
            let distinct: HashSet<ActionId> = sessions
                .iter()
                .flat_map(|s| s.actions().iter().copied())
                .collect();
            UserActivity {
                user,
                sessions: sessions.len(),
                actions,
                mean_length: actions as f64 / sessions.len().max(1) as f64,
                distinct_actions: distinct.len(),
            }
        })
        .collect();
    out.sort_by(|a, b| b.sessions.cmp(&a.sessions).then(a.user.cmp(&b.user)));
    out
}

/// Sessions started per day of the recording window (index 0 = first day).
pub fn sessions_per_day(dataset: &Dataset) -> Vec<usize> {
    let days = dataset.stats().days.max(1);
    let mut counts = vec![0usize; days];
    for s in dataset.sessions() {
        let day = (s.start_minute() / (24 * 60)) as usize;
        if day < days {
            counts[day] += 1;
        }
    }
    counts
}

/// Action frequencies over the whole log, most frequent first:
/// `(action, occurrences, share of all actions)`.
pub fn action_frequencies(dataset: &Dataset) -> Vec<(ActionId, usize, f64)> {
    let mut counts = vec![0usize; dataset.catalog().len()];
    let mut total = 0usize;
    for s in dataset.sessions() {
        for a in s.actions() {
            if a.index() < counts.len() {
                counts[a.index()] += 1;
                total += 1;
            }
        }
    }
    let mut out: Vec<(ActionId, usize, f64)> = counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(i, c)| (ActionId(i), c, c as f64 / total.max(1) as f64))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};
    use crate::ids::SessionId;

    fn tiny() -> Dataset {
        Generator::new(GeneratorConfig::tiny(61)).generate()
    }

    #[test]
    fn user_activity_covers_all_sessions() {
        let ds = tiny();
        let profiles = user_activity(&ds);
        let total: usize = profiles.iter().map(|p| p.sessions).sum();
        assert_eq!(total, ds.sessions().len());
        // Sorted most active first.
        for w in profiles.windows(2) {
            assert!(w[0].sessions >= w[1].sessions);
        }
        for p in &profiles {
            assert!(p.mean_length > 0.0);
            assert!(p.distinct_actions > 0);
        }
    }

    #[test]
    fn sessions_per_day_sums_to_total() {
        let ds = tiny();
        let per_day = sessions_per_day(&ds);
        assert_eq!(per_day.len(), 31);
        assert_eq!(per_day.iter().sum::<usize>(), ds.sessions().len());
    }

    #[test]
    fn action_frequencies_are_a_distribution() {
        let ds = tiny();
        let freqs = action_frequencies(&ds);
        let total_share: f64 = freqs.iter().map(|&(_, _, s)| s).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        for w in freqs.windows(2) {
            assert!(w[0].1 >= w[1].1, "sorted by count desc");
        }
    }

    #[test]
    fn handcrafted_dataset_profiles() {
        let catalog = crate::catalog::ActionCatalog::standard();
        let sessions = vec![
            Session::new(SessionId(0), UserId(0), 0, vec![ActionId(1), ActionId(1)]),
            Session::new(SessionId(1), UserId(0), 24 * 60 + 5, vec![ActionId(2)]),
            Session::new(SessionId(2), UserId(1), 10, vec![ActionId(1)]),
        ];
        let ds = Dataset::new(catalog, Vec::new(), sessions, 2, 2);
        let profiles = user_activity(&ds);
        assert_eq!(profiles[0].user, UserId(0));
        assert_eq!(profiles[0].sessions, 2);
        assert_eq!(profiles[0].actions, 3);
        assert_eq!(profiles[0].distinct_actions, 2);
        assert_eq!(sessions_per_day(&ds), vec![2, 1]);
        let freqs = action_frequencies(&ds);
        assert_eq!(freqs[0].0, ActionId(1));
        assert_eq!(freqs[0].1, 3);
    }
}
