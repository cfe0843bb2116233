//! §IV-A dataset statistics ("Table 1"): `tab1_dataset.csv` through
//! [`ibcm_bench::figures::tab1_dataset`], plus the exploratory activity
//! profiles an analyst would compute, which only this binary writes:
//! per-user activity, sessions per day and the action frequency ranking.

use ibcm_bench::{figures, Harness};
use ibcm_logsim::stats::{action_frequencies, sessions_per_day, user_activity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    figures::tab1_dataset(&harness, &dataset)?;

    harness.write_csv(
        "tab1_user_activity",
        "user,sessions,actions,mean_length,distinct_actions",
        user_activity(&dataset)
            .iter()
            .map(|p| {
                vec![
                    p.user.to_string(),
                    p.sessions.to_string(),
                    p.actions.to_string(),
                    format!("{:.2}", p.mean_length),
                    p.distinct_actions.to_string(),
                ]
            })
            .collect(),
    )?;
    harness.write_csv(
        "tab1_sessions_per_day",
        "day,sessions",
        sessions_per_day(&dataset)
            .iter()
            .enumerate()
            .map(|(d, &c)| vec![d.to_string(), c.to_string()])
            .collect(),
    )?;
    harness.write_csv(
        "tab1_action_frequencies",
        "action,count,share",
        action_frequencies(&dataset)
            .iter()
            .map(|&(a, c, s)| {
                vec![
                    dataset.catalog().name(a).to_string(),
                    c.to_string(),
                    format!("{s:.6}"),
                ]
            })
            .collect(),
    )?;
    Ok(())
}
