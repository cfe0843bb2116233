//! Checkpoint rotation: keep-K, checksum-validated retention of per-shard
//! `IBCS` checkpoints.
//!
//! Each generation is an `IBCQ` envelope — a small frame around the
//! `IBCS` bytes [`ibcm_core::StreamMonitor::checkpoint`] produces — that
//! records the shard, the covered sequence number (the highest data
//! command the checkpoint absorbs), and an FNV-1a checksum over the whole
//! frame. Restore scans generations newest-first and picks the first one
//! whose checksum (and inner `IBCS` restore) validates, so a corrupted
//! newest generation degrades to the prior one instead of erroring out.
//!
//! Writes are write-tmp → read-back-validate → rename; pruning runs only
//! after the new generation validates, and only prunes *older*
//! generations, so the store never holds fewer than one valid checkpoint
//! once one has been written.

use std::collections::BTreeMap;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::error::ServeError;

const MAGIC: &[u8; 4] = b"IBCQ";
const VERSION: u16 = 1;
/// Fixed-size header: magic + version + shard (u32) + covered_seq (u64) +
/// payload length (u64).
const HEADER_LEN: usize = 4 + 2 + 4 + 8 + 8;
const CHECKSUM_LEN: usize = 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames `IBCS` bytes as one `IBCQ` generation.
fn encode(shard: usize, covered_seq: u64, ibcs: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + ibcs.len() + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(shard as u32).to_le_bytes());
    out.extend_from_slice(&covered_seq.to_le_bytes());
    out.extend_from_slice(&(ibcs.len() as u64).to_le_bytes());
    out.extend_from_slice(ibcs);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates one `IBCQ` frame; returns `(covered_seq, ibcs_bytes)`.
// ibcm-lint: allow(transitive-panic, reason = "frame length is checked against HEADER_LEN+CHECKSUM_LEN before any fixed-offset slicing")
fn decode(shard: usize, bytes: &[u8]) -> Option<(u64, Vec<u8>)> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return None;
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let stored = u64::from_le_bytes(checksum_bytes.try_into().ok()?);
    if fnv1a(body) != stored {
        return None;
    }
    if &body[..4] != MAGIC {
        return None;
    }
    let version = u16::from_le_bytes(body[4..6].try_into().ok()?);
    if version != VERSION {
        return None;
    }
    let frame_shard = u32::from_le_bytes(body[6..10].try_into().ok()?) as usize;
    if frame_shard != shard {
        return None;
    }
    let covered_seq = u64::from_le_bytes(body[10..18].try_into().ok()?);
    let payload_len = u64::from_le_bytes(body[18..26].try_into().ok()?) as usize;
    let payload = body.get(HEADER_LEN..)?;
    if payload.len() != payload_len {
        return None;
    }
    Some((covered_seq, payload.to_vec()))
}

/// A checksum-valid generation available for restore.
#[derive(Debug, Clone)]
pub(crate) struct Generation {
    /// Highest data-command sequence number the checkpoint absorbs.
    pub(crate) covered_seq: u64,
    /// The inner `IBCS` bytes.
    pub(crate) ibcs: Vec<u8>,
}

/// Where a shard's checkpoint generations live.
///
/// `Disk` is the production backend (one directory per shard, atomic
/// tmp-write + rename); `Memory` keeps the same envelopes in a map for
/// hermetic tests.
#[derive(Debug)]
pub enum CheckpointStore {
    /// Generations under `<root>/shard-<i>/gen-<seq>.ibcq`.
    Disk(PathBuf),
    /// Generations held in memory, keyed by `(shard, covered_seq)`.
    Memory(Mutex<BTreeMap<(usize, u64), Vec<u8>>>),
}

/// What a successful save reports back to the worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SaveReceipt {
    /// Covered seq of the *oldest* generation retained after pruning —
    /// the durable floor below which the supervisor may trim its replay
    /// buffer (restoring any retained generation only needs commands
    /// after this point).
    pub(crate) oldest_retained: u64,
}

impl CheckpointStore {
    /// A disk-backed store rooted at `dir`.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore::Disk(dir.into())
    }

    /// An in-memory store (hermetic tests).
    pub fn memory() -> Self {
        CheckpointStore::Memory(Mutex::new(BTreeMap::new()))
    }

    fn shard_dir(root: &Path, shard: usize) -> PathBuf {
        root.join(format!("shard-{shard}"))
    }

    fn gen_path(root: &Path, shard: usize, covered_seq: u64) -> PathBuf {
        Self::shard_dir(root, shard).join(format!("gen-{covered_seq:020}.ibcq"))
    }

    /// Removes every existing generation for `shard`. Called once per
    /// shard at daemon startup so a reused directory cannot leak
    /// generations from a previous incarnation into this run's
    /// sequence-number space.
    pub(crate) fn reset(&self, shard: usize) -> Result<(), ServeError> {
        match self {
            CheckpointStore::Disk(root) => {
                let dir = Self::shard_dir(root, shard);
                match fs::remove_dir_all(&dir) {
                    Ok(()) => {}
                    Err(e) if e.kind() == ErrorKind::NotFound => {}
                    Err(e) => return Err(ServeError::Io(e)),
                }
                fs::create_dir_all(&dir).map_err(ServeError::Io)
            }
            CheckpointStore::Memory(map) => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                map.retain(|(s, _), _| *s != shard);
                Ok(())
            }
        }
    }

    /// Writes one generation and prunes to the newest `keep`. The write is
    /// validated by read-back before anything is pruned; on validation
    /// failure the bad file is removed and an error returned, leaving
    /// prior generations untouched.
    pub(crate) fn save(
        &self,
        shard: usize,
        covered_seq: u64,
        ibcs: &[u8],
        keep: usize,
    ) -> Result<SaveReceipt, ServeError> {
        let keep = keep.max(1);
        let frame = encode(shard, covered_seq, ibcs);
        match self {
            CheckpointStore::Disk(root) => {
                let dir = Self::shard_dir(root, shard);
                fs::create_dir_all(&dir).map_err(ServeError::Io)?;
                let final_path = Self::gen_path(root, shard, covered_seq);
                let tmp_path = final_path.with_extension("ibcq.tmp");
                fs::write(&tmp_path, &frame).map_err(ServeError::Io)?;
                // Read-back validation before the generation becomes live.
                let readback = fs::read(&tmp_path).map_err(ServeError::Io)?;
                if decode(shard, &readback).is_none() {
                    let _ = fs::remove_file(&tmp_path);
                    return Err(ServeError::Io(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "checkpoint read-back validation failed",
                    )));
                }
                fs::rename(&tmp_path, &final_path).map_err(ServeError::Io)?;
                let mut seqs = self.generation_seqs(shard)?;
                seqs.sort_unstable_by(|a, b| b.cmp(a)); // newest first
                for &old in seqs.iter().skip(keep) {
                    let _ = fs::remove_file(Self::gen_path(root, shard, old));
                }
                let oldest = seqs.iter().take(keep).copied().min().unwrap_or(covered_seq);
                Ok(SaveReceipt {
                    oldest_retained: oldest,
                })
            }
            CheckpointStore::Memory(map) => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                map.insert((shard, covered_seq), frame);
                let mut seqs: Vec<u64> = map
                    .range((shard, 0)..=(shard, u64::MAX))
                    .map(|((_, s), _)| *s)
                    .collect();
                seqs.sort_unstable_by(|a, b| b.cmp(a));
                for &old in seqs.iter().skip(keep) {
                    map.remove(&(shard, old));
                }
                let oldest = seqs.iter().take(keep).copied().min().unwrap_or(covered_seq);
                Ok(SaveReceipt {
                    oldest_retained: oldest,
                })
            }
        }
    }

    /// Covered seqs of every generation present (valid or not), any order.
    pub(crate) fn generation_seqs(&self, shard: usize) -> Result<Vec<u64>, ServeError> {
        match self {
            CheckpointStore::Disk(root) => {
                let dir = Self::shard_dir(root, shard);
                let entries = match fs::read_dir(&dir) {
                    Ok(entries) => entries,
                    Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
                    Err(e) => return Err(ServeError::Io(e)),
                };
                let mut seqs = Vec::new();
                for entry in entries {
                    let entry = entry.map_err(ServeError::Io)?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(seq) = name
                        .strip_prefix("gen-")
                        .and_then(|s| s.strip_suffix(".ibcq"))
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        seqs.push(seq);
                    }
                }
                Ok(seqs)
            }
            CheckpointStore::Memory(map) => {
                let map = map.lock().unwrap_or_else(|e| e.into_inner());
                Ok(map
                    .range((shard, 0)..=(shard, u64::MAX))
                    .map(|((_, s), _)| *s)
                    .collect())
            }
        }
    }

    /// Checksum-valid generations, newest first. Generations whose frame
    /// fails validation are skipped (the restore fallback path).
    pub(crate) fn valid_generations(&self, shard: usize) -> Result<Vec<Generation>, ServeError> {
        let mut seqs = self.generation_seqs(shard)?;
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        let mut out = Vec::new();
        for seq in seqs {
            let frame = match self {
                CheckpointStore::Disk(root) => match fs::read(Self::gen_path(root, shard, seq)) {
                    Ok(bytes) => bytes,
                    Err(_) => continue,
                },
                CheckpointStore::Memory(map) => {
                    let map = map.lock().unwrap_or_else(|e| e.into_inner());
                    match map.get(&(shard, seq)) {
                        Some(bytes) => bytes.clone(),
                        None => continue,
                    }
                }
            };
            if let Some((covered_seq, ibcs)) = decode(shard, &frame) {
                out.push(Generation { covered_seq, ibcs });
            }
        }
        Ok(out)
    }

    /// Chaos helper: flips bytes in the middle of `shard`'s newest
    /// generation so its checksum no longer validates. Returns whether a
    /// generation was corrupted.
    pub fn corrupt_newest(&self, shard: usize) -> bool {
        let newest = match self.generation_seqs(shard) {
            Ok(seqs) => seqs.into_iter().max(),
            Err(_) => None,
        };
        let Some(seq) = newest else {
            return false;
        };
        match self {
            CheckpointStore::Disk(root) => {
                let path = Self::gen_path(root, shard, seq);
                let Ok(mut bytes) = fs::read(&path) else {
                    return false;
                };
                corrupt_bytes(&mut bytes);
                fs::write(&path, &bytes).is_ok()
            }
            CheckpointStore::Memory(map) => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                match map.get_mut(&(shard, seq)) {
                    Some(bytes) => {
                        corrupt_bytes(bytes);
                        true
                    }
                    None => false,
                }
            }
        }
    }
}

fn corrupt_bytes(bytes: &mut [u8]) {
    let mid = bytes.len() / 2;
    for offset in 0..8 {
        if let Some(b) = bytes.get_mut(mid + offset) {
            *b ^= 0xff;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip_and_corruption() {
        let payload = b"fake ibcs bytes".to_vec();
        let frame = encode(3, 42, &payload);
        assert_eq!(decode(3, &frame), Some((42, payload.clone())));
        // Wrong shard, truncation, and bit flips all fail validation.
        assert_eq!(decode(2, &frame), None);
        assert_eq!(decode(3, &frame[..frame.len() - 1]), None);
        let mut flipped = frame.clone();
        flipped[HEADER_LEN] ^= 0x01;
        assert_eq!(decode(3, &flipped), None);
    }

    #[test]
    fn memory_rotation_keeps_k_and_orders_newest_first() {
        let store = CheckpointStore::memory();
        for seq in [10u64, 20, 30, 40] {
            store.save(0, seq, b"payload", 3).unwrap();
        }
        let gens = store.valid_generations(0).unwrap();
        let seqs: Vec<u64> = gens.iter().map(|g| g.covered_seq).collect();
        assert_eq!(seqs, vec![40, 30, 20]);

        // Another shard's generations are independent.
        store.save(1, 5, b"other", 3).unwrap();
        assert_eq!(store.valid_generations(1).unwrap().len(), 1);
        assert_eq!(store.valid_generations(0).unwrap().len(), 3);
    }

    #[test]
    fn corrupt_newest_falls_back() {
        let store = CheckpointStore::memory();
        store.save(0, 10, b"a", 3).unwrap();
        store.save(0, 20, b"b", 3).unwrap();
        assert!(store.corrupt_newest(0));
        let gens = store.valid_generations(0).unwrap();
        assert_eq!(gens.len(), 1);
        assert_eq!(gens[0].covered_seq, 10);
    }
}

/// Model-based property tests: an op sequence of saves, newest-generation
/// corruptions, and raw garbage injections is applied both to a real
/// store and to a plain `BTreeMap<u64, Vec<u8>>` model holding the exact
/// frames; every retention/validity/ordering property is then checked
/// against the model. XOR-based corruption toggling (corrupting twice
/// restores the frame) falls out of the model for free.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    const SHARD: usize = 0;

    #[derive(Debug, Clone)]
    enum Op {
        /// Save a generation `seq_step` past the previous one.
        Save { seq_step: u64, payload: Vec<u8> },
        /// Corrupt the newest generation present.
        CorruptNewest,
        /// Plant a raw (almost certainly invalid) frame as a generation.
        Garbage { seq_step: u64, bytes: Vec<u8> },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest has no weighted prop_oneof!; bias the op
        // mix (4 saves : 2 corruptions : 1 garbage) via a mapped range.
        (0u8..7, 1u64..50, prop::collection::vec(any::<u8>(), 1..64)).prop_map(
            |(kind, seq_step, bytes)| match kind {
                0..=3 => Op::Save {
                    seq_step,
                    payload: bytes,
                },
                4 | 5 => Op::CorruptNewest,
                _ => Op::Garbage { seq_step, bytes },
            },
        )
    }

    /// Plants raw bytes as a generation, bypassing `save`'s validation —
    /// test-only access to the store's underlying map.
    fn plant(store: &CheckpointStore, seq: u64, bytes: &[u8]) {
        match store {
            CheckpointStore::Memory(map) => {
                let mut map = map.lock().unwrap();
                map.insert((SHARD, seq), bytes.to_vec());
            }
            CheckpointStore::Disk(root) => {
                let dir = CheckpointStore::shard_dir(root, SHARD);
                fs::create_dir_all(&dir).unwrap();
                fs::write(CheckpointStore::gen_path(root, SHARD, seq), bytes).unwrap();
            }
        }
    }

    /// Runs the op sequence against `store`, mirroring every mutation in
    /// the frame-level model, asserting the save-time invariants inline.
    fn run_ops(store: &CheckpointStore, ops: &[Op], keep: usize) -> BTreeMap<u64, Vec<u8>> {
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Save { seq_step, payload } => {
                    seq += seq_step;
                    let receipt = store.save(SHARD, seq, payload, keep).unwrap();
                    model.insert(seq, encode(SHARD, seq, payload));
                    while model.len() > keep.max(1) {
                        let oldest = *model.keys().next().unwrap();
                        model.remove(&oldest);
                    }
                    // The generation just saved is always newest and
                    // always valid: the store can never hold fewer than
                    // one valid checkpoint after a save.
                    let gens = store.valid_generations(SHARD).unwrap();
                    assert!(!gens.is_empty(), "no valid generation right after a save");
                    assert_eq!(gens[0].covered_seq, seq);
                    // Pruning respects the durable floor it reports.
                    assert_eq!(receipt.oldest_retained, *model.keys().next().unwrap());
                }
                Op::CorruptNewest => {
                    let had_any = !model.is_empty();
                    assert_eq!(store.corrupt_newest(SHARD), had_any);
                    if let Some((_, frame)) = model.iter_mut().next_back() {
                        corrupt_bytes(frame);
                    }
                }
                Op::Garbage { seq_step, bytes } => {
                    seq += seq_step;
                    plant(store, seq, bytes);
                    model.insert(seq, bytes.clone());
                }
            }
            // Retention never exceeds keep + the garbage planted outside
            // `save` (which only prunes when it runs).
            let present = store.generation_seqs(SHARD).unwrap().len();
            assert_eq!(present, model.len());
        }
        model
    }

    /// Checks the final store state against the model: same generations
    /// present, and `valid_generations` is exactly the decodable model
    /// frames, newest first.
    fn check_final(store: &CheckpointStore, model: &BTreeMap<u64, Vec<u8>>) {
        let mut present = store.generation_seqs(SHARD).unwrap();
        present.sort_unstable();
        let expected: Vec<u64> = model.keys().copied().collect();
        assert_eq!(present, expected);

        let gens = store.valid_generations(SHARD).unwrap();
        let expected_valid: Vec<(u64, Vec<u8>)> = model
            .iter()
            .rev()
            .filter_map(|(seq, frame)| {
                decode(SHARD, frame).map(|(s, ibcs)| {
                    assert_eq!(s, *seq);
                    (*seq, ibcs)
                })
            })
            .collect();
        assert_eq!(gens.len(), expected_valid.len());
        for (gen, (seq, ibcs)) in gens.iter().zip(&expected_valid) {
            assert_eq!(gen.covered_seq, *seq, "restore must pick newest-first");
            assert_eq!(&gen.ibcs, ibcs);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn memory_rotation_matches_model(
            ops in prop::collection::vec(op_strategy(), 1..40),
            keep in 1usize..5,
        ) {
            let store = CheckpointStore::memory();
            store.reset(SHARD).unwrap();
            let model = run_ops(&store, &ops, keep);
            check_final(&store, &model);
        }
    }

    proptest! {
        // Disk cases hit the filesystem; keep the count modest.
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn disk_rotation_matches_model_and_memory(
            ops in prop::collection::vec(op_strategy(), 1..24),
            keep in 1usize..4,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "ibcm_served_rotprop_{}_{keep}_{}",
                std::process::id(),
                ops.len(),
            ));
            let _ = fs::remove_dir_all(&dir);
            let disk = CheckpointStore::disk(&dir);
            disk.reset(SHARD).unwrap();
            let memory = CheckpointStore::memory();
            memory.reset(SHARD).unwrap();

            let disk_model = run_ops(&disk, &ops, keep);
            let memory_model = run_ops(&memory, &ops, keep);
            prop_assert_eq!(&disk_model, &memory_model);
            check_final(&disk, &disk_model);
            check_final(&memory, &memory_model);
            fs::remove_dir_all(&dir).ok();
        }
    }
}
