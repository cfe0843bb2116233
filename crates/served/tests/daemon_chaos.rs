//! The headline invariant, crash half: the merged alarm stream is
//! byte-identical across any injected kill/restore schedule — including
//! schedules that corrupt the newest checkpoint generation and force the
//! restore to fall back — at every shard count.

mod common;

use std::sync::Arc;

use common::{fixture, monolith_reference, stream_config};
use ibcm_core::chaos::DaemonCampaign;
use ibcm_core::{FaultPolicy, StreamConfig};
use ibcm_served::{run_campaign, CheckpointStore, ServedConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn campaign_config(shards: usize) -> (StreamConfig, ServedConfig) {
    let stream = stream_config(FaultPolicy {
        max_active_sessions: Some(6),
        ..FaultPolicy::default()
    });
    // A short checkpoint cadence and fast (but non-zero) backoff so a
    // seeded campaign exercises restore + replay many times while the
    // suite stays quick.
    let served = ServedConfig::new(stream.clone())
        .with_shards(shards)
        .with_rotation(24, 3)
        .with_supervision(8, 1, 20);
    (stream, served)
}

#[test]
fn kill_restore_campaigns_leave_the_stream_byte_identical() {
    let fix = fixture();
    let (stream, _) = campaign_config(1);
    let reference = monolith_reference(&fix.detector, stream, &fix.events);
    assert!(!reference.log.is_empty());

    // Three seeded schedules — the acceptance floor — at every shard
    // count, all compared against the same uninterrupted monolith.
    for seed in [0xC1u64, 0xC2, 0xC3] {
        let campaign = DaemonCampaign::seeded(seed, fix.events.len(), 8, 4);
        assert!(!campaign.kills.is_empty(), "campaign must actually kill");
        for shards in SHARD_COUNTS {
            let (_, served) = campaign_config(shards);
            let report = run_campaign(
                Arc::clone(&fix.detector),
                served,
                CheckpointStore::memory(),
                &fix.events,
                &campaign,
            )
            .unwrap();
            assert_eq!(
                report.merged_log,
                reference.log,
                "campaign {} (seed {seed:#x}) diverged at {shards} shard(s)",
                campaign.describe()
            );
            assert!(report.kills_delivered > 0);
            // A kill that lands while the worker is already down (or on a
            // queue replaced by a restart) is absorbed, so restarts can
            // trail the kill count — but at least one must have happened.
            assert!(report.drain.restarts >= 1);
            assert!(report.drain.restarts <= report.kills_delivered as u64);
            assert_eq!(report.drain.counters, reference.counters);
            assert!(report.drain.failed_shards.is_empty());
        }
    }
}

#[test]
fn corrupted_newest_checkpoint_falls_back_and_stays_identical() {
    let fix = fixture();
    let (stream, _) = campaign_config(1);
    let reference = monolith_reference(&fix.detector, stream, &fix.events);

    // Kill late enough that the targeted shard has rotated several
    // generations, and corrupt its newest right before the restart: the
    // restore must fall back to the prior checksum-valid generation and
    // the stream must not move a byte.
    for shards in SHARD_COUNTS {
        let campaign =
            DaemonCampaign::seeded(0xC4, fix.events.len(), shards, 2).with_corrupt_newest(0);
        let (_, served) = campaign_config(shards);
        let report = run_campaign(
            Arc::clone(&fix.detector),
            served,
            CheckpointStore::memory(),
            &fix.events,
            &campaign,
        )
        .unwrap();
        assert_eq!(
            report.merged_log, reference.log,
            "corruption campaign diverged at {shards} shard(s)"
        );
        if report.corrupted {
            assert!(
                report.drain.restores_fallback > 0,
                "a corrupted newest generation must force a fallback restore"
            );
        }
    }
}

#[test]
fn corruption_fallback_is_exercised_deterministically() {
    // The seeded campaign above only corrupts when its kill schedule
    // happens to target shard 0 after a checkpoint exists; this test
    // removes the luck. One shard, kills injected explicitly after the
    // rotation produced multiple generations.
    use ibcm_core::chaos::KillPoint;
    let fix = fixture();
    let (stream, _) = campaign_config(1);
    let reference = monolith_reference(&fix.detector, stream, &fix.events);

    let late = fix.events.len() * 3 / 4;
    let campaign = DaemonCampaign {
        kills: vec![KillPoint {
            at_offset: late,
            shard: 0,
        }],
        corrupt_newest_checkpoint: Some(0),
        queue_capacity: None,
    };
    let (_, served) = campaign_config(1);
    let report = run_campaign(
        Arc::clone(&fix.detector),
        served,
        CheckpointStore::memory(),
        &fix.events,
        &campaign,
    )
    .unwrap();
    assert!(report.corrupted, "a generation must exist to corrupt");
    assert_eq!(report.drain.restores_fallback, 1);
    assert_eq!(report.drain.restores_newest, 0);
    assert_eq!(report.merged_log, reference.log);
}

#[test]
fn tiny_queue_campaign_survives_backpressure_storms() {
    let fix = fixture();
    let (stream, _) = campaign_config(1);
    let reference = monolith_reference(&fix.detector, stream, &fix.events);
    let campaign = DaemonCampaign::seeded(0xC5, fix.events.len(), 4, 3).with_queue_capacity(2);
    for shards in [2usize, 4] {
        let (_, served) = campaign_config(shards);
        let report = run_campaign(
            Arc::clone(&fix.detector),
            served,
            CheckpointStore::memory(),
            &fix.events,
            &campaign,
        )
        .unwrap();
        assert_eq!(
            report.merged_log, reference.log,
            "tiny-queue campaign diverged at {shards} shard(s)"
        );
    }
}

#[test]
fn disk_store_campaign_matches_memory_store() {
    let fix = fixture();
    let (stream, _) = campaign_config(1);
    let reference = monolith_reference(&fix.detector, stream, &fix.events);
    let dir = std::env::temp_dir().join(format!("ibcm_served_chaos_{}", std::process::id()));
    let campaign = DaemonCampaign::seeded(0xC6, fix.events.len(), 4, 3);
    let (_, served) = campaign_config(4);
    let report = run_campaign(
        Arc::clone(&fix.detector),
        served,
        CheckpointStore::disk(&dir),
        &fix.events,
        &campaign,
    )
    .unwrap();
    assert_eq!(report.merged_log, reference.log);
    std::fs::remove_dir_all(&dir).ok();
}
