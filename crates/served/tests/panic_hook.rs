//! A daemon leaves the host process's panic hook alone: a chaos kill
//! unwinds to the worker's `catch_unwind` boundary without calling the
//! hook, and the hook the host installed still sees every real panic.
//! This is its own test binary because the panic hook is process-wide.

mod common;

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{fixture, stream_config};
use ibcm_core::FaultPolicy;
use ibcm_served::{CheckpointStore, Daemon, ServedConfig};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn chaos_kills_skip_the_panic_hook_and_real_panics_reach_it() {
    let fix = fixture();
    let config = ServedConfig::new(stream_config(FaultPolicy::default()))
        .with_shards(2)
        .with_supervision(8, 0, 0);
    let mut daemon =
        Daemon::new(Arc::clone(&fix.detector), config, CheckpointStore::memory()).unwrap();
    // Installed after the daemon started, as a host may do at any time.
    // It forwards to the default hook so a failing assertion still prints.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let (head, tail) = fix.events.split_at(fix.events.len() / 2);
    for event in head {
        daemon.ingest(*event).unwrap();
    }
    daemon.kill_shard(0).unwrap();
    for event in tail {
        daemon.ingest(*event).unwrap();
    }
    let report = daemon.drain().unwrap();
    assert_eq!(
        report.restarts, 1,
        "the kill must crash and restart shard 0"
    );
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "a chaos kill called the panic hook"
    );

    let caught = panic::catch_unwind(|| panic!("deliberate panic"));
    drop(panic::take_hook());
    assert!(caught.is_err());
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1);
}
