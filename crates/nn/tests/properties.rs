//! Property-based tests for the neural substrate's algebra, plus the
//! bit-identity contract between the optimized kernels and the retained
//! naive [`ibcm_nn::reference`] implementations, which exist only as this
//! suite's oracle.

use ibcm_nn::{
    clip_global_norm, reference, softmax_in_place, BatchScratch, LstmBatchState, LstmLayer,
    Matrix, StepInput,
};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// `None` (pad) or `Some(index < n)`, encoded as a plain range draw.
fn maybe_index(n: usize) -> impl Strategy<Value = Option<usize>> {
    (0..=n).prop_map(move |i| (i < n).then_some(i))
}

/// Raw bit patterns, so `-0.0 != +0.0` and exact rounding is compared.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A B) C == A (B C) up to float tolerance.
    #[test]
    fn matmul_is_associative(a in matrix(3, 4), b in matrix(4, 5), c in matrix(5, 2)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// A (B + C) == A B + A C.
    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 3), c in matrix(4, 3)) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Transpose is an involution and matmul_t/t_matmul agree with it.
    #[test]
    fn transpose_involution(a in matrix(4, 6)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    /// t_matmul(a, b) == a^T b computed explicitly.
    #[test]
    fn t_matmul_agrees(a in matrix(5, 3), b in matrix(5, 4)) {
        let fast = a.t_matmul(&b);
        let slow = a.transposed().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax output is always a probability simplex, whatever the logits.
    #[test]
    fn softmax_is_simplex(mut logits in prop::collection::vec(-50.0f32..50.0, 1..30)) {
        softmax_in_place(&mut logits);
        let total: f32 = logits.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-4, "sum {total}");
        prop_assert!(logits.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Softmax is shift-invariant.
    #[test]
    fn softmax_shift_invariant(base in prop::collection::vec(-5.0f32..5.0, 2..10), shift in -20.0f32..20.0) {
        let mut a = base.clone();
        let mut b: Vec<f32> = base.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// After clipping, the global norm never exceeds the bound (plus fp fuzz),
    /// and directions are preserved.
    #[test]
    fn clip_bounds_norm(mut g in prop::collection::vec(-100.0f32..100.0, 1..40), max_norm in 0.1f32..10.0) {
        let orig = g.clone();
        clip_global_norm(&mut [&mut g], max_norm);
        let norm: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm <= max_norm * 1.001 + 1e-5);
        // Direction preserved: components keep their sign.
        for (a, b) in g.iter().zip(orig.iter()) {
            prop_assert!(a.signum() == b.signum() || *a == 0.0 || *b == 0.0);
        }
    }

    /// Optimized `out += a * b` is bit-identical to the naive reference on
    /// randomized shapes, including empty and vector-shaped operands.
    #[test]
    fn matmul_acc_matches_reference_bitwise(
        (a, b, seed) in (0usize..6, 0usize..6, 0usize..6)
            .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n), matrix(m, n)))
    ) {
        let mut fast = seed.clone();
        let mut naive = seed;
        a.matmul_acc_into(&b, &mut fast);
        reference::matmul_acc_into(&a, &b, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// Optimized `out += a^T * b` is bit-identical to the naive reference.
    #[test]
    fn t_matmul_acc_matches_reference_bitwise(
        (a, b, seed) in (0usize..6, 0usize..6, 0usize..6)
            .prop_flat_map(|(r, m, n)| (matrix(r, m), matrix(r, n), matrix(m, n)))
    ) {
        let mut fast = seed.clone();
        let mut naive = seed;
        a.t_matmul_acc_into(&b, &mut fast);
        reference::t_matmul_acc_into(&a, &b, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// Optimized `out = a * b^T` is bit-identical to the naive reference.
    #[test]
    fn matmul_t_matches_reference_bitwise(
        (a, b) in (0usize..6, 0usize..6, 0usize..6)
            .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(n, k)))
    ) {
        let mut fast = Matrix::default();
        a.matmul_t_into(&b, &mut fast);
        let mut naive = Matrix::zeros(a.rows(), b.rows());
        reference::matmul_t_into(&a, &b, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// The one-hot embedding kernel agrees bit-for-bit with materializing
    /// the one-hot matrix and running the reference matmul.
    #[test]
    fn onehot_matmul_matches_reference_bitwise(
        (w, hot, seed) in (1usize..6, 0usize..6, 0usize..5)
            .prop_flat_map(|(v, h, batch)| (
                matrix(v, h),
                prop::collection::vec(maybe_index(v), batch),
                matrix(batch, h),
            ))
    ) {
        let mut fast = seed.clone();
        w.onehot_matmul_acc_into(&hot, &mut fast);
        let mut x = Matrix::zeros(hot.len(), w.rows());
        for (b, h) in hot.iter().enumerate() {
            if let Some(a) = *h {
                x.set(b, a, 1.0);
            }
        }
        let mut naive = seed;
        reference::matmul_acc_into(&x, &w, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// The lock-step inference step replays `forward`'s unrolled hidden
    /// states, at one lane and at several — one-hot, padded, and mixed
    /// inputs. The step assembles gate preactivations bias-first, the
    /// training forward bias-last, so the agreement is to rounding
    /// tolerance, not bitwise.
    #[test]
    fn step_matches_forward_unroll(
        (vocab, hidden, seed, steps) in (1usize..5, 1usize..6, any::<u64>(), 1usize..4)
            .prop_flat_map(|(v, h, s, lanes)| (
                Just(v),
                Just(h),
                Just(s),
                prop::collection::vec(prop::collection::vec(maybe_index(v), lanes), 1..8),
            ))
    ) {
        let layer = LstmLayer::new(vocab, hidden, seed);
        let inputs: Vec<Vec<StepInput>> = steps
            .iter()
            .map(|row| row.iter().map(|s| s.map_or(StepInput::Pad, StepInput::Action)).collect())
            .collect();
        let cache = layer.forward(&inputs);
        let mut state = LstmBatchState::new(inputs[0].len(), hidden);
        let mut scratch = BatchScratch::new();
        for (t, row) in inputs.iter().enumerate() {
            layer.step_batch_scratch(&mut state, row, &mut scratch);
            for (a, b) in state.hiddens().as_slice().iter().zip(cache.hiddens()[t].as_slice()) {
                prop_assert!((a - b).abs() < 1e-5, "step {}: {} vs {}", t, a, b);
            }
        }
    }

    /// The dense lock-step step replays `forward_dense`'s unrolled hidden
    /// states to rounding tolerance (bias-first gate assembly, as above),
    /// at one lane and at several.
    #[test]
    fn step_dense_matches_forward_dense_unroll(
        (dim, hidden, seed, lanes, rows) in (1usize..5, 1usize..6, any::<u64>(), 1usize..4)
            .prop_flat_map(|(d, h, s, lanes)| (
                Just(d),
                Just(h),
                Just(s),
                Just(lanes),
                prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d * lanes), 1..8),
            ))
    ) {
        let layer = LstmLayer::new(dim, hidden, seed);
        let inputs: Vec<Matrix> = rows
            .iter()
            .map(|r| Matrix::from_vec(lanes, dim, r.clone()))
            .collect();
        let (cache, _) = layer.forward_dense(&inputs);
        let mut state = LstmBatchState::new(lanes, hidden);
        let mut scratch = BatchScratch::new();
        for (t, x) in inputs.iter().enumerate() {
            layer.step_batch_dense_scratch(&mut state, x, &mut scratch);
            for (a, b) in state.hiddens().as_slice().iter().zip(cache.hiddens()[t].as_slice()) {
                prop_assert!((a - b).abs() < 1e-5, "dense step {}: {} vs {}", t, a, b);
            }
        }
    }
}

/// Explicit degenerate shapes the randomized sweeps above may visit rarely:
/// empty, single-row, single-column, and strongly non-square operands.
#[test]
fn degenerate_shapes_match_reference_bitwise() {
    let shapes: [(usize, usize, usize); 7] = [
        (0, 3, 2),
        (3, 0, 2),
        (3, 2, 0),
        (1, 5, 4),
        (4, 5, 1),
        (1, 1, 1),
        (2, 7, 3),
    ];
    for (m, k, n) in shapes {
        let a = Matrix::uniform(m, k, 1.0, 7);
        let b = Matrix::uniform(k, n, 1.0, 8);
        let seed = Matrix::uniform(m, n, 1.0, 9);

        let mut fast = seed.clone();
        let mut naive = seed.clone();
        a.matmul_acc_into(&b, &mut fast);
        reference::matmul_acc_into(&a, &b, &mut naive);
        assert_eq!(bits(&fast), bits(&naive), "matmul_acc {m}x{k}x{n}");

        let at = a.transposed();
        let bt = b.transposed();
        let mut fast = seed.clone();
        let mut naive = seed.clone();
        at.t_matmul_acc_into(&b, &mut fast);
        reference::t_matmul_acc_into(&at, &b, &mut naive);
        assert_eq!(bits(&fast), bits(&naive), "t_matmul_acc {m}x{k}x{n}");

        let mut fast = Matrix::default();
        let mut naive = Matrix::zeros(m, n);
        a.matmul_t_into(&bt, &mut fast);
        reference::matmul_t_into(&a, &bt, &mut naive);
        assert_eq!(bits(&fast), bits(&naive), "matmul_t {m}x{k}x{n}");
    }
}

/// Output widths around the 8-lane (AVX2) and 16-lane (AVX-512) vector
/// loops, twice that, and their scalar tails.
const SIMD_N: [usize; 11] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40];
/// Reduction depths through the eight-row `axpy8` block and its four- and
/// one-row tails.
const SIMD_K: [usize; 9] = [1, 4, 7, 8, 9, 12, 13, 16, 17];
/// Row counts across one and two 16-row `LANE_BLOCK`s.
const SIMD_M: [usize; 5] = [1, 15, 16, 17, 33];

/// A deterministic operand with an exact zero every fifth element, so the
/// reference loops' zero-skip is exercised alongside the vector bodies.
fn operand(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::uniform(rows, cols, 3.0, seed);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 3 {
            *v = 0.0;
        }
    }
    m
}

/// The randomized sweeps above draw dimensions below 7, which never leave
/// the scalar tails. This grid drives all four kernel entry points through
/// every SIMD loop body (both vector widths, the `axpy8` block, a second
/// row block) and checks each against the reference bit for bit.
#[test]
fn simd_shapes_match_reference_bitwise() {
    for m in SIMD_M {
        for k in SIMD_K {
            for n in SIMD_N {
                let a = operand(m, k, 1);
                let b = operand(k, n, 2);

                // `out (m x n) += a (m x k) * b (k x n)`.
                let seed = Matrix::uniform(m, n, 1.0, 3);
                let mut fast = seed.clone();
                let mut naive = seed.clone();
                a.matmul_acc_into(&b, &mut fast);
                reference::matmul_acc_into(&a, &b, &mut naive);
                assert_eq!(bits(&fast), bits(&naive), "matmul_acc {m}x{k}x{n}");

                // `out (k x n) += a^T * c (m x n)`: the reduction runs over m.
                let c = operand(m, n, 4);
                let tseed = Matrix::uniform(k, n, 1.0, 5);
                let mut fast = tseed.clone();
                let mut naive = tseed;
                a.t_matmul_acc_into(&c, &mut fast);
                reference::t_matmul_acc_into(&a, &c, &mut naive);
                assert_eq!(bits(&fast), bits(&naive), "t_matmul_acc {m}x{k}x{n}");

                // `out (m x n) = a * bt^T`, bt is `n x k`.
                let bt = operand(n, k, 6);
                let mut fast = Matrix::default();
                let mut naive = Matrix::zeros(m, n);
                a.matmul_t_into(&bt, &mut fast);
                reference::matmul_t_into(&a, &bt, &mut naive);
                assert_eq!(bits(&fast), bits(&naive), "matmul_t {m}x{k}x{n}");

                // One-hot rows of `b` added into `m` output rows, against
                // the reference product with the materialized one-hot.
                let hot: Vec<Option<usize>> = (0..m)
                    .map(|r| (r % 3 != 2).then_some((r * 7) % k))
                    .collect();
                let mut onehot = Matrix::zeros(m, k);
                for (r, h) in hot.iter().enumerate() {
                    if let Some(i) = *h {
                        onehot.set(r, i, 1.0);
                    }
                }
                let mut fast = seed.clone();
                let mut naive = seed.clone();
                b.onehot_matmul_acc_into(&hot, &mut fast);
                reference::matmul_acc_into(&onehot, &b, &mut naive);
                assert_eq!(bits(&fast), bits(&naive), "onehot {m}x{k}x{n}");
            }
        }
    }
}
