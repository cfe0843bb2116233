//! Ablation: the lock-in horizon. The paper locks the routed cluster in
//! after the first 15 actions (the average session length); this sweep
//! varies the horizon and reports routing accuracy, showing why very short
//! horizons are noisy and very long ones inherit the OC-SVM long-session
//! pathology of Fig. 6.

use ibcm_bench::{fmt, Harness};
use ibcm_core::experiments::{routing_accuracy, RoutingStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::from_env()?;
    let dataset = harness.dataset();
    let trained = harness.train(&dataset)?;
    println!("lock_in,routing_accuracy");
    let mut rows = Vec::new();
    for k in [1usize, 3, 5, 10, 15, 25, 50, 100, usize::MAX] {
        let acc = routing_accuracy(&trained, RoutingStrategy::LockIn(k), harness.threads);
        let label = if k == usize::MAX {
            "inf".to_string()
        } else {
            k.to_string()
        };
        println!("{label},{acc:.4}");
        rows.push(vec![label, fmt(acc)]);
    }
    harness.write_csv("abl_window", "lock_in,routing_accuracy", rows)?;
    Ok(())
}
