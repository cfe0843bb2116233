//! Byte-equality suite for the lock-step batched scorer: for every mix of
//! session lengths, batch widths and layer counts, the batched path must
//! return **bit-identical** scores to a sequential `try_score_session`
//! loop, and per-session faults must surface as the
//! same typed errors without poisoning the rest of the batch.
//!
//! A property test additionally pins the bucket scheduler's contract:
//! bucket plans are a pure function of the length multiset (permuting the
//! input permutes the plan the same way), lanes are sorted by descending
//! length, and no bucket exceeds `max_batch`.

use ibcm_lm::{plan_buckets, LmError, LmTrainConfig, LstmLm, SessionScore};
use proptest::prelude::*;

/// Trains a small but non-trivial model (2 stacked layers, odd sizes so no
/// dimension accidentally divides the kernels' 4-wide blocking).
fn model(vocab: usize, hidden: usize, layers: usize, seed: u64) -> LstmLm {
    let seqs: Vec<Vec<usize>> = (0..16)
        .map(|i| (0..12).map(|j| (3 * i + j * j) % vocab).collect())
        .collect();
    let cfg = LmTrainConfig {
        vocab,
        hidden,
        layers,
        epochs: 3,
        batch_size: 4,
        patience: 0,
        seed,
        ..LmTrainConfig::default()
    };
    LstmLm::train(&cfg, &seqs, &[]).unwrap()
}

fn assert_bits_eq(got: &SessionScore, want: &SessionScore, ctx: &str) {
    assert_eq!(
        got.avg_likelihood.to_bits(),
        want.avg_likelihood.to_bits(),
        "avg_likelihood diverged: {ctx}"
    );
    assert_eq!(
        got.avg_loss.to_bits(),
        want.avg_loss.to_bits(),
        "avg_loss diverged: {ctx}"
    );
    assert_eq!(got.n_predictions, want.n_predictions, "n diverged: {ctx}");
}

/// The workhorse: batched output must equal the sequential loop bit-for-bit
/// at every batch width.
fn check_equivalence(lm: &LstmLm, sessions: &[Vec<usize>], widths: &[usize]) {
    let sequential: Vec<SessionScore> = sessions
        .iter()
        .map(|s| lm.try_score_session(s).unwrap())
        .collect();
    for &w in widths {
        let batched = lm.try_score_sessions_batched(sessions, w);
        assert_eq!(batched.len(), sessions.len());
        for (i, (got, want)) in batched.iter().zip(&sequential).enumerate() {
            let got = got.as_ref().unwrap_or_else(|e| panic!("session {i} errored: {e}"));
            assert_bits_eq(got, want, &format!("session {i}, max_batch {w}"));
        }
    }
}

#[test]
fn ragged_lengths_are_bit_identical_at_every_width() {
    let lm = model(11, 13, 2, 7);
    let sessions: Vec<Vec<usize>> = vec![
        (0..40).map(|j| (j * 3) % 11).collect(),
        (0..2).collect(),
        (0..17).map(|j| (j * 7 + 1) % 11).collect(),
        vec![10, 10, 10, 10, 10],
        (0..40).map(|j| (j * 5 + 2) % 11).collect(), // ties with session 0
        (0..9).rev().collect(),
        vec![0, 0],
    ];
    check_equivalence(&lm, &sessions, &[1, 2, 3, 4, 7, 128]);
}

#[test]
fn empty_and_singleton_sessions_score_zero_like_sequential() {
    let lm = model(5, 8, 1, 3);
    let sessions: Vec<Vec<usize>> = vec![vec![], vec![4], vec![0, 1, 2, 3], vec![], vec![2]];
    check_equivalence(&lm, &sessions, &[1, 2, 16]);
    let out = lm.try_score_sessions_batched(&sessions, 16);
    for i in [0usize, 1, 3, 4] {
        let s = out[i].as_ref().unwrap();
        assert_eq!((s.avg_likelihood, s.avg_loss, s.n_predictions), (0.0, 0.0, 0));
    }
}

#[test]
fn empty_batch_is_empty() {
    let lm = model(4, 6, 1, 1);
    let none: Vec<Vec<usize>> = Vec::new();
    assert!(lm.try_score_sessions_batched(&none, 8).is_empty());
}

#[test]
fn two_layer_model_is_bit_identical_at_widths_1_4_32() {
    let lm = model(9, 12, 2, 21);
    let sessions: Vec<Vec<usize>> = (0..10)
        .map(|i| (0..(3 + 5 * i) % 23).map(|j| (i + j) % 9).collect())
        .collect();
    check_equivalence(&lm, &sessions, &[1, 4, 32]);
}

#[test]
fn oov_sessions_error_individually_with_sequential_error_parity() {
    let lm = model(6, 8, 1, 9);
    let sessions: Vec<Vec<usize>> = vec![
        vec![0, 1, 2, 3],
        vec![0, 1, 99, 3, 77], // first offending token must win
        vec![6],               // OOV even though too short to score
        vec![5, 4, 3, 2, 1, 0],
    ];
    let out = lm.try_score_sessions_batched(&sessions, 8);
    assert!(out[0].is_ok());
    assert_eq!(out[1], Err(LmError::ActionOutOfVocab { action: 99, vocab: 6 }));
    assert_eq!(out[2], Err(LmError::ActionOutOfVocab { action: 6, vocab: 6 }));
    // Error parity with the sequential scorer, message included.
    let seq_err = lm.try_score_session(&sessions[1]).unwrap_err();
    assert_eq!(out[1].as_ref().unwrap_err().to_string(), seq_err.to_string());
    // The healthy neighbors still score bit-identically.
    assert_bits_eq(
        out[3].as_ref().unwrap(),
        &lm.try_score_session(&sessions[3]).unwrap(),
        "session after the faulted lanes",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucket plan is lawful for arbitrary length mixes: every index
    /// appears exactly once, buckets respect `max_batch`, and lanes within
    /// a bucket (and across bucket boundaries) are sorted by descending
    /// length with ties broken by ascending index.
    #[test]
    fn bucket_plan_is_a_sorted_partition(
        lengths in proptest::collection::vec(0usize..50, 0..40),
        max_batch in 1usize..12,
    ) {
        let plan = plan_buckets(&lengths, max_batch);
        let flat: Vec<usize> = plan.iter().flatten().copied().collect();
        prop_assert_eq!(flat.len(), lengths.len());
        let mut seen = vec![false; lengths.len()];
        for &i in &flat {
            prop_assert!(!seen[i], "index {} scheduled twice", i);
            seen[i] = true;
        }
        for bucket in &plan {
            prop_assert!(!bucket.is_empty());
            prop_assert!(bucket.len() <= max_batch);
        }
        for w in flat.windows(2) {
            let key = |i: usize| (std::cmp::Reverse(lengths[i]), i);
            prop_assert!(key(w[0]) <= key(w[1]), "lanes not in descending-length order");
        }
    }

    /// Permutation invariance: permuting the input sessions permutes the
    /// bucket plan's *contents* identically — the schedule depends only on
    /// (length, original position), so scoring order is deterministic and
    /// scatter-back restores input order exactly.
    #[test]
    fn bucket_plan_commutes_with_permutation(
        lengths in proptest::collection::vec(0usize..30, 1..24),
        rot in 0usize..24,
        max_batch in 1usize..8,
    ) {
        let n = lengths.len();
        let rot = rot % n;
        // A rotation is a cheap, shrink-friendly stand-in for an arbitrary
        // permutation: perm[i] is the new position of old index i.
        let perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let rotated: Vec<usize> = (0..n).map(|j| lengths[(j + n - rot) % n]).collect();
        let base = plan_buckets(&lengths, max_batch);
        let moved = plan_buckets(&rotated, max_batch);
        // Mapping the base plan through the permutation and re-breaking
        // ties by the *new* indices must reproduce the moved plan.
        let mut mapped: Vec<usize> = base.iter().flatten().map(|&i| perm[i]).collect();
        mapped.sort_by_key(|&j| (std::cmp::Reverse(rotated[j]), j));
        let moved_flat: Vec<usize> = moved.iter().flatten().copied().collect();
        prop_assert_eq!(mapped, moved_flat);
    }
}
