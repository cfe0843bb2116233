//! What a drained daemon leaves in a disk checkpoint store: each shard
//! keeps its newest `KEEP` generations, and the newest of them is the
//! drain checkpoint, named for the shard's last data sequence number.

mod common;

use std::fs;
use std::sync::Arc;

use common::{fixture, stream_config};
use ibcm_core::FaultPolicy;
use ibcm_served::{shard_of, CheckpointStore, Daemon, ServedConfig};

const SHARDS: usize = 4;
const EVERY: usize = 64;
const KEEP: usize = 3;

#[test]
fn drained_shards_keep_their_newest_generations_ending_at_the_drain_checkpoint() {
    let fix = fixture();
    let dir = std::env::temp_dir().join(format!("ibcm_served_drained_{}", std::process::id()));
    let config = ServedConfig::new(stream_config(FaultPolicy::default()))
        .with_shards(SHARDS)
        .with_rotation(EVERY as u64, KEEP);
    let mut daemon = Daemon::new(
        Arc::clone(&fix.detector),
        config,
        CheckpointStore::disk(&dir),
    )
    .unwrap();
    for event in &fix.events {
        daemon.ingest(*event).unwrap();
    }
    daemon.drain().unwrap();

    // No capacity bound, so nothing is shed: event `i` is data command
    // `i + 1`, delivered to its user's shard.
    let mut data_seqs = vec![Vec::new(); SHARDS];
    for (i, event) in fix.events.iter().enumerate() {
        data_seqs[shard_of(event.user, SHARDS)].push(i as u64 + 1);
    }
    let mut rotated_thrice = 0;
    for (shard, seqs) in data_seqs.iter().enumerate() {
        // A cadence checkpoint covers every EVERY-th data command of the
        // shard, and the drain checkpoint covers its last one (the same
        // generation when the count is a multiple of EVERY).
        let mut covered: Vec<u64> = seqs
            .iter()
            .skip(EVERY - 1)
            .step_by(EVERY)
            .copied()
            .collect();
        covered.extend(seqs.last());
        covered.dedup();
        if covered.len() >= KEEP {
            rotated_thrice += 1;
        }
        let expected: Vec<String> = covered[covered.len().saturating_sub(KEEP)..]
            .iter()
            .map(|seq| format!("gen-{seq:020}.ibcq"))
            .collect();
        let mut on_disk: Vec<String> = fs::read_dir(dir.join(format!("shard-{shard}")))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        assert_eq!(on_disk, expected, "shard {shard}");
    }
    assert!(rotated_thrice > 0, "no shard rotated {KEEP} times");
    fs::remove_dir_all(&dir).ok();
}
