use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// Kernel functions for the one-class SVM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// Radial basis function `exp(-gamma * ||x - y||^2)` (the standard
    /// choice for OC-SVM novelty detection).
    Rbf {
        /// Bandwidth parameter.
        gamma: f64,
    },
    /// Plain dot product.
    Linear,
}

impl Kernel {
    /// Evaluates the kernel on two dense vectors.
    ///
    /// This is the reference form: the RBF sum runs over every dimension in
    /// index order. [`OcSvm`](crate::OcSvm) and
    /// [`ClusterRouter`](crate::ClusterRouter) sum the RBF distance over the
    /// non-zero entries instead, with the same bits; the tests hold them to
    /// this function.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel arguments must share dimension");
        match *self {
            Kernel::Rbf { gamma } => {
                let sq: f64 = x
                    .iter()
                    .zip(y.iter())
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum();
                (-gamma * sq).exp()
            }
            Kernel::Linear => x.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum(),
        }
    }

    /// The production form of [`Kernel::eval`], for two vectors that each
    /// come with their index-sorted non-zeros (see [`nonzeros`]): the RBF
    /// distance sums over the non-zeros only ([`sq_dist_sorted`]), with the
    /// same bits; the linear kernel keeps its dense loop, because a sparse
    /// dot product can flip the sign of an exact zero.
    pub(crate) fn eval_with_nonzeros(
        &self,
        x: (&[f64], &[(usize, f64)]),
        y: (&[f64], &[(usize, f64)]),
    ) -> f64 {
        match *self {
            Kernel::Rbf { gamma } => (-gamma * sq_dist_sorted(x.1, y.1)).exp(),
            Kernel::Linear => self.eval(x.0, y.0),
        }
    }
}

/// The index-sorted non-zero `(index, value)` entries of a dense vector:
/// the form [`sq_dist_sorted`] reads. `-0.0` counts as zero.
pub(crate) fn nonzeros(x: &[f64]) -> Vec<(usize, f64)> {
    x.iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, &v)| (i, v))
        .collect()
}

/// Squared Euclidean distance between two vectors given as index-sorted
/// lists of their non-zero `(index, value)` entries.
///
/// Sums `(a − b)²` over the sorted union of the two index sets, in index
/// order. The dense sum of [`Kernel::eval`] differs only by its
/// `(0 − 0)² = +0.0` terms (`-0.0` entries square to `+0.0` too). After its
/// first term a dense partial sum is `≥ +0.0`, and adding `+0.0` to such a
/// value changes no bit, so every term kept here meets the same partial sum
/// and the result has the dense sum's bits for vectors of any positive
/// dimension. Two all-zero vectors give `+0.0`.
pub(crate) fn sq_dist_sorted(x: &[(usize, f64)], y: &[(usize, f64)]) -> f64 {
    let (mut xs, mut ys) = (x, y);
    let mut sq = 0.0;
    loop {
        let d = match (xs.split_first(), ys.split_first()) {
            (Some((&(i, a), x_rest)), Some((&(j, b), y_rest))) => match i.cmp(&j) {
                Ordering::Less => {
                    xs = x_rest;
                    a
                }
                Ordering::Greater => {
                    ys = y_rest;
                    0.0 - b
                }
                Ordering::Equal => {
                    xs = x_rest;
                    ys = y_rest;
                    a - b
                }
            },
            (Some((&(_, a), x_rest)), None) => {
                xs = x_rest;
                a
            }
            (None, Some((&(_, b), y_rest))) => {
                ys = y_rest;
                0.0 - b
            }
            (None, None) => return sq,
        };
        sq += d * d;
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbf_self_similarity_is_one() {
        let k = Kernel::Rbf { gamma: 0.7 };
        let x = [1.0, -2.0, 0.5];
        assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let a = [0.0, 0.0];
        let near = [0.1, 0.0];
        let far = [3.0, 0.0];
        assert!(k.eval(&a, &near) > k.eval(&a, &far));
        assert!(k.eval(&a, &far) > 0.0);
    }

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    /// The dense squared distance, summed the way [`Kernel::eval`] sums it.
    fn dense_sq_dist(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum()
    }

    /// The sparse sum and the RBF value built on it carry the same bits as
    /// the dense reference.
    fn assert_bit_identical(x: &[f64], y: &[f64]) {
        let (xn, yn) = (nonzeros(x), nonzeros(y));
        assert_eq!(
            sq_dist_sorted(&xn, &yn).to_bits(),
            dense_sq_dist(x, y).to_bits(),
            "{x:?} vs {y:?}"
        );
        for gamma in [0.01, 0.7, 3.0] {
            let k = Kernel::Rbf { gamma };
            assert_eq!(
                k.eval_with_nonzeros((x, &xn), (y, &yn)).to_bits(),
                k.eval(x, y).to_bits(),
                "gamma {gamma}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn nonzeros_are_index_sorted_and_skip_negative_zero() {
        assert_eq!(
            nonzeros(&[0.0, 0.5, -0.0, -2.0, 0.0]),
            vec![(1, 0.5), (3, -2.0)]
        );
        assert!(nonzeros(&[-0.0, 0.0]).is_empty());
    }

    #[test]
    fn sparse_sum_matches_dense_with_negative_zeros() {
        assert_bit_identical(&[-0.0, 0.5, -0.0, 0.0], &[0.0, -0.0, 0.25, -0.0]);
        assert_bit_identical(&[-0.0, -0.0, 0.3], &[-0.0, 0.0, 0.3]);
        assert_bit_identical(&[0.0, -1.5], &[-0.0, 0.0]);
    }

    #[test]
    fn all_zero_vectors_give_zero_distance_and_unit_rbf() {
        assert_bit_identical(&[0.0; 5], &[0.0; 5]);
        assert_bit_identical(&[-0.0; 5], &[0.0; 5]);
        assert_eq!(sq_dist_sorted(&[], &[]).to_bits(), 0.0f64.to_bits());
        // With no dimensions at all the dense sum may be `-0.0`; the RBF
        // value is `exp(±0) = 1` either way.
        let k = Kernel::Rbf { gamma: 2.0 };
        assert_eq!(k.eval_with_nonzeros((&[], &[]), (&[], &[])), 1.0);
        assert_eq!(k.eval(&[], &[]), 1.0);
    }

    #[test]
    fn sparse_sum_matches_dense_on_disjoint_supports() {
        assert_bit_identical(&[0.3, 0.0, 0.0, 0.7], &[0.0, 0.1, 0.9, 0.0]);
        assert_bit_identical(&[0.0, 0.0, 1e-300], &[1e300, 0.0, 0.0]);
    }

    #[test]
    fn sparse_sum_matches_dense_on_equal_vectors() {
        let x = [0.0, 0.25, 0.0, 0.75, 0.125];
        assert_bit_identical(&x, &x);
        assert_eq!(sq_dist_sorted(&nonzeros(&x), &nonzeros(&x)), 0.0);
    }

    #[test]
    fn sparse_sum_matches_dense_on_fully_dense_vectors() {
        let x: Vec<f64> = (1..=40).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (1..=40).map(|i| (i as f64 * 0.11).cos()).collect();
        assert!(x.iter().chain(&y).all(|&v| v != 0.0));
        assert_bit_identical(&x, &y);
    }

    #[test]
    fn sparse_sum_matches_dense_on_random_bags() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut draw = |dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|_| match rng.gen_range(0..10) {
                    0 => -0.0,
                    1 => rng.gen::<f64>(),
                    2 => -rng.gen::<f64>() * 1e3,
                    _ => 0.0,
                })
                .collect()
        };
        for dim in [1, 2, 7, 64, 307] {
            for _ in 0..200 {
                let (x, y) = (draw(dim), draw(dim));
                assert_bit_identical(&x, &y);
            }
        }
    }

    #[test]
    fn kernels_are_symmetric() {
        for k in [Kernel::Rbf { gamma: 0.3 }, Kernel::Linear] {
            let x = [0.2, 0.9, -1.0];
            let y = [1.5, -0.4, 0.0];
            assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-12);
        }
    }
}
