use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::OcSvmError;
use crate::kernel::{nonzeros, Kernel};

/// Hyperparameters of the ν-one-class SVM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcSvmConfig {
    /// Upper bound on the fraction of training outliers / lower bound on the
    /// fraction of support vectors (Schölkopf's ν).
    pub nu: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// Convergence tolerance on the dual objective improvement per sweep.
    pub tol: f64,
    /// Maximum SMO sweeps over the training set.
    pub max_sweeps: usize,
    /// RNG seed for partner selection.
    pub seed: u64,
}

impl Default for OcSvmConfig {
    fn default() -> Self {
        OcSvmConfig {
            nu: 0.1,
            kernel: Kernel::Rbf { gamma: 3.0 },
            tol: 1e-6,
            max_sweeps: 60,
            seed: 0,
        }
    }
}

/// A trained ν-one-class SVM: `f(x) = sum_i alpha_i K(x_i, x) - rho`, with
/// `f(x) >= 0` on the learned support of the data and negative outside.
///
/// The dual is solved with pairwise (SMO-style) coordinate descent under the
/// constraints `0 <= alpha_i <= 1/(nu*l)` and `sum_i alpha_i = 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcSvm {
    config: OcSvmConfig,
    support_vectors: Vec<Vec<f64>>,
    /// The support vectors by column, for the RBF decision; built by
    /// [`OcSvm::from_parts`] and never mutated.
    columns: SupportColumns,
    alphas: Vec<f64>,
    rho: f64,
    dim: usize,
}

/// The support vectors of one SVM, stored by column for the RBF decision's
/// column pass.
///
/// `index` is the sorted union of the support vectors' non-zero column
/// indices. `values` holds one block per indexed column, in index order:
/// every support vector's entry in that column, in support-vector order,
/// `+0.0` where the support vector has none (a `-0.0` entry included).
#[derive(Debug, Clone, PartialEq)]
struct SupportColumns {
    n_sv: usize,
    index: Vec<usize>,
    values: Vec<f64>,
}

impl SupportColumns {
    fn new(support_vectors: &[Vec<f64>]) -> Self {
        let mut index: Vec<usize> = support_vectors
            .iter()
            .flat_map(|sv| nonzeros(sv))
            .map(|(i, _)| i)
            .collect();
        index.sort_unstable();
        index.dedup();
        let values = index
            .iter()
            .flat_map(|&c| {
                support_vectors.iter().map(move |sv| match sv.get(c) {
                    Some(&v) if v != 0.0 => v,
                    _ => 0.0,
                })
            })
            .collect();
        SupportColumns {
            n_sv: support_vectors.len(),
            index,
            values,
        }
    }

    /// Every indexed column with its support-vector entries, in index order.
    fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        // `chunks_exact(0)` panics; with no support vectors there is no
        // column to pair a chunk with either.
        self.index
            .iter()
            .copied()
            .zip(self.values.chunks_exact(self.n_sv.max(1)))
    }

    /// Writes each support vector's squared Euclidean distance to the query
    /// whose index-sorted non-zeros are `nz` into `acc`, in support-vector
    /// order.
    ///
    /// One merge of `nz` with the indexed columns, in index order, adds one
    /// term per column to every support vector's sum: `(v − x)²` where both
    /// sides index the column, `v²` where only the support vectors do and
    /// `x²` where only the query does. Against `kernel::sq_dist_sorted` of one
    /// support vector and the query, each of its terms arrives in the same
    /// order with the same bits (`x²` is that function's `(0 − x)²`, as
    /// `0 − x = −x` exactly); every other term is `(0 − 0)² = +0.0`, which
    /// changes no bit of a sum that starts at `+0.0` and only adds squares.
    fn sq_dists(&self, nz: &[(usize, f64)], acc: &mut Vec<f64>) {
        acc.clear();
        acc.resize(self.n_sv, 0.0);
        let mut columns = self.iter().peekable();
        for &(i, x) in nz {
            while let Some((_, col)) = columns.next_if(|&(c, _)| c < i) {
                add_squares(acc, col);
            }
            match columns.next_if(|&(c, _)| c == i) {
                Some((_, col)) => {
                    for (sum, &v) in acc.iter_mut().zip(col) {
                        let d = v - x;
                        *sum += d * d;
                    }
                }
                None => {
                    let sq = x * x;
                    for sum in acc.iter_mut() {
                        *sum += sq;
                    }
                }
            }
        }
        for (_, col) in columns {
            add_squares(acc, col);
        }
    }
}

/// Adds `v²` to each sum: a column the query has no entry in.
fn add_squares(acc: &mut [f64], col: &[f64]) {
    for (sum, &v) in acc.iter_mut().zip(col) {
        *sum += v * v;
    }
}

impl OcSvm {
    /// Trains on `data` (each row one feature vector).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty training set, inconsistent dimensions,
    /// or `nu` outside `(0, 1]`.
    pub fn train(data: &[Vec<f64>], config: &OcSvmConfig) -> Result<Self, OcSvmError> {
        if data.is_empty() {
            return Err(OcSvmError::EmptyTrainingSet);
        }
        if !(config.nu > 0.0 && config.nu <= 1.0) {
            return Err(OcSvmError::InvalidConfig(format!(
                "nu must be in (0, 1], got {}",
                config.nu
            )));
        }
        let dim = data[0].len();
        for (i, x) in data.iter().enumerate() {
            if x.len() != dim {
                return Err(OcSvmError::DimensionMismatch {
                    expected: dim,
                    found: x.len(),
                    index: i,
                });
            }
        }
        let l = data.len();
        let c = 1.0 / (config.nu * l as f64);
        // Feasible start: alpha_i = 1/l (satisfies both constraints since
        // 1/l <= 1/(nu*l) for nu <= 1).
        let mut alphas = vec![1.0 / l as f64; l];
        let sparse: Vec<Vec<(usize, f64)>> = data.iter().map(|x| nonzeros(x)).collect();
        let k = |i: usize, j: usize| -> f64 {
            config
                .kernel
                .eval_with_nonzeros((&data[i], &sparse[i]), (&data[j], &sparse[j]))
        };

        // Output cache f_i = sum_j alpha_j K(x_i, x_j).
        let krow = |i: usize| -> Vec<f64> { (0..l).map(|j| k(i, j)).collect() };
        let mut f: Vec<f64> = (0..l)
            .map(|i| alphas.iter().enumerate().map(|(j, &aj)| aj * k(i, j)).sum())
            .collect();

        let mut rng = StdRng::seed_from_u64(config.seed);
        for _sweep in 0..config.max_sweeps {
            let mut max_delta = 0.0f64;
            for i in 0..l {
                // Partner: the point with the most different output, found
                // among a random probe set (cheap second-choice heuristic).
                let mut j = rng.gen_range(0..l);
                let mut best_gap = (f[i] - f[j]).abs();
                for _ in 0..4 {
                    let cand = rng.gen_range(0..l);
                    let gap = (f[i] - f[cand]).abs();
                    if gap > best_gap {
                        best_gap = gap;
                        j = cand;
                    }
                }
                if i == j {
                    continue;
                }
                let kii = k(i, i);
                let kjj = k(j, j);
                let kij = k(i, j);
                let eta = kii + kjj - 2.0 * kij;
                if eta <= 1e-12 {
                    continue;
                }
                let s = alphas[i] + alphas[j];
                // Unconstrained optimum of the pair sub-problem: the dual
                // objective restricted to (alpha_i, s - alpha_i) is quadratic
                // with gradient (f_i - f_j) at the current point.
                let mut ai_new = alphas[i] - (f[i] - f[j]) / eta;
                let lo = (s - c).max(0.0);
                let hi = s.min(c);
                ai_new = ai_new.clamp(lo, hi);
                let delta = ai_new - alphas[i];
                if delta.abs() < 1e-15 {
                    continue;
                }
                let ki = krow(i);
                let kj = krow(j);
                alphas[i] = ai_new;
                alphas[j] = s - ai_new;
                for t in 0..l {
                    f[t] += delta * (ki[t] - kj[t]);
                }
                max_delta = max_delta.max(delta.abs());
            }
            if max_delta < config.tol {
                break;
            }
        }

        // rho: average output over margin support vectors (0 < alpha < C);
        // fall back to all support vectors if none are strictly inside.
        let margin: Vec<usize> = (0..l)
            .filter(|&i| alphas[i] > 1e-9 && alphas[i] < c - 1e-9)
            .collect();
        let pool: Vec<usize> = if margin.is_empty() {
            (0..l).filter(|&i| alphas[i] > 1e-9).collect()
        } else {
            margin
        };
        let rho = pool.iter().map(|&i| f[i]).sum::<f64>() / pool.len().max(1) as f64;

        // Keep only support vectors.
        let mut support_vectors = Vec::new();
        let mut sv_alphas = Vec::new();
        for i in 0..l {
            if alphas[i] > 1e-9 {
                support_vectors.push(data[i].clone());
                sv_alphas.push(alphas[i]);
            }
        }
        Ok(OcSvm::from_parts(*config, support_vectors, sv_alphas, rho, dim))
    }

    /// Decision score `f(x)`: positive inside the learned region, negative
    /// outside; larger means more typical of the training cluster.
    ///
    /// With the RBF kernel one column pass computes every support vector's
    /// squared distance to `x`: it merges `x`'s non-zero entries with the
    /// sorted union of the support vectors' non-zero columns once, and adds
    /// each column's term to every support vector's sum in a plain slice
    /// loop. That costs the union's size (a few dozen columns on session
    /// bags) times the support vectors, rather than `dim` times them, and
    /// gives the same bits as the dense [`Kernel::eval`]. The linear kernel
    /// stays dense.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.decision_with_nonzeros(x, &nonzeros(x), &mut Vec::new())
    }

    /// [`OcSvm::decision`] for a caller that already holds `nz`, the
    /// index-sorted non-zero entries of `x` (see [`nonzeros`]); `acc` is
    /// scratch for the per-support-vector sums, reused across calls.
    ///
    /// `f(x) = Σ_j α_j·exp(−γ·‖v_j − x‖²) − ρ`, summed in support-vector
    /// order as the dense reference sums it.
    pub(crate) fn decision_with_nonzeros(
        &self,
        x: &[f64],
        nz: &[(usize, f64)],
        acc: &mut Vec<f64>,
    ) -> f64 {
        match self.config.kernel {
            Kernel::Rbf { gamma } => {
                self.columns.sq_dists(nz, acc);
                self.alphas
                    .iter()
                    .zip(acc.iter())
                    .map(|(&a, &sq)| a * (-gamma * sq).exp())
                    .sum::<f64>()
                    - self.rho
            }
            Kernel::Linear => {
                self.support_vectors
                    .iter()
                    .zip(&self.alphas)
                    .map(|(sv, &a)| a * self.config.kernel.eval(sv, x))
                    .sum::<f64>()
                    - self.rho
            }
        }
    }

    /// Binary inlier prediction (`decision(x) >= 0`).
    pub fn is_inlier(&self, x: &[f64]) -> bool {
        self.decision(x) >= 0.0
    }

    /// Number of support vectors retained.
    pub fn n_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The offset ρ of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Feature dimensionality expected by [`OcSvm::decision`].
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Decomposes the model for persistence:
    /// `(config, support_vectors, alphas, rho, dim)`.
    pub fn parts(&self) -> (&OcSvmConfig, &[Vec<f64>], &[f64], f64, usize) {
        (
            &self.config,
            &self.support_vectors,
            &self.alphas,
            self.rho,
            self.dim,
        )
    }

    /// Reassembles a model from persisted parts.
    ///
    /// # Panics
    ///
    /// Panics if the alpha and support-vector counts disagree.
    pub fn from_parts(
        config: OcSvmConfig,
        support_vectors: Vec<Vec<f64>>,
        alphas: Vec<f64>,
        rho: f64,
        dim: usize,
    ) -> Self {
        assert_eq!(
            support_vectors.len(),
            alphas.len(),
            "one alpha per support vector"
        );
        let columns = SupportColumns::new(&support_vectors);
        OcSvm {
            config,
            support_vectors,
            columns,
            alphas,
            rho,
            dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: &[f64], n: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                center
                    .iter()
                    .map(|&c| c + spread * (rng.gen::<f64>() - 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn separates_inliers_from_far_outliers() {
        let train = blob(&[0.0, 0.0], 60, 0.4, 1);
        let svm = OcSvm::train(&train, &OcSvmConfig::default()).unwrap();
        let inlier_score = svm.decision(&[0.05, -0.02]);
        let outlier_score = svm.decision(&[4.0, 4.0]);
        assert!(
            inlier_score > outlier_score,
            "inlier {inlier_score} vs outlier {outlier_score}"
        );
        assert!(svm.is_inlier(&[0.0, 0.0]));
        assert!(!svm.is_inlier(&[4.0, 4.0]));
    }

    #[test]
    fn nu_controls_training_outlier_fraction() {
        let train = blob(&[0.0, 0.0], 100, 1.0, 2);
        for nu in [0.05, 0.3] {
            let cfg = OcSvmConfig {
                nu,
                ..OcSvmConfig::default()
            };
            let svm = OcSvm::train(&train, &cfg).unwrap();
            let outliers = train.iter().filter(|x| !svm.is_inlier(x)).count();
            let frac = outliers as f64 / train.len() as f64;
            // nu upper-bounds the outlier fraction (allow slack for the
            // approximate solver).
            assert!(
                frac <= nu + 0.1,
                "nu={nu}: training outlier fraction {frac}"
            );
        }
    }

    #[test]
    fn alphas_satisfy_constraints() {
        let train = blob(&[1.0, 2.0], 50, 0.6, 3);
        let cfg = OcSvmConfig {
            nu: 0.2,
            ..OcSvmConfig::default()
        };
        let svm = OcSvm::train(&train, &cfg).unwrap();
        let c = 1.0 / (0.2 * 50.0);
        let total: f64 = svm.alphas.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum alpha = {total}");
        assert!(svm.alphas.iter().all(|&a| a >= 0.0 && a <= c + 1e-9));
    }

    #[test]
    fn closer_points_score_higher() {
        let train = blob(&[0.0, 0.0], 80, 0.5, 4);
        let svm = OcSvm::train(&train, &OcSvmConfig::default()).unwrap();
        let mut prev = f64::INFINITY;
        for r in [0.0, 0.5, 1.0, 2.0, 3.0] {
            let s = svm.decision(&[r, 0.0]);
            assert!(s <= prev + 1e-9, "score should decay with distance");
            prev = s;
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(
            OcSvm::train(&[], &OcSvmConfig::default()).unwrap_err(),
            OcSvmError::EmptyTrainingSet
        );
        let bad_dim = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            OcSvm::train(&bad_dim, &OcSvmConfig::default()),
            Err(OcSvmError::DimensionMismatch { index: 1, .. })
        ));
        let cfg = OcSvmConfig {
            nu: 0.0,
            ..OcSvmConfig::default()
        };
        assert!(OcSvm::train(&[vec![1.0]], &cfg).is_err());
    }

    #[test]
    fn single_point_training_works() {
        let svm = OcSvm::train(&[vec![1.0, 1.0]], &OcSvmConfig::default()).unwrap();
        assert!(svm.decision(&[1.0, 1.0]) >= svm.decision(&[0.0, 5.0]));
    }

    /// The trainer's kernel values are `eval_with_nonzeros` on each row's
    /// non-zeros; on featurized sessions every pair must carry the bits of
    /// the dense `Kernel::eval`, so alphas and rho are those of a dense
    /// trainer.
    #[test]
    fn training_kernel_values_match_dense_kernel_on_session_bags() {
        use crate::features::SessionFeaturizer;
        use ibcm_logsim::ActionId;
        let featurizer = SessionFeaturizer::new(40, true);
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<Vec<f64>> = (0..80)
            .map(|_| {
                let len = rng.gen_range(1..20);
                // 42 and 43 are out of vocabulary: they count toward the
                // length only.
                let actions: Vec<ActionId> =
                    (0..len).map(|_| ActionId(rng.gen_range(0..44))).collect();
                featurizer.features(&actions)
            })
            .collect();
        let sparse: Vec<Vec<(usize, f64)>> = data.iter().map(|x| nonzeros(x)).collect();
        for kernel in [OcSvmConfig::default().kernel, Kernel::Rbf { gamma: 0.05 }] {
            for (x, xn) in data.iter().zip(&sparse) {
                for (y, yn) in data.iter().zip(&sparse) {
                    assert_eq!(
                        kernel.eval_with_nonzeros((x, xn), (y, yn)).to_bits(),
                        kernel.eval(x, y).to_bits()
                    );
                }
            }
        }
    }

    /// The decision written out with the dense `Kernel::eval`: the
    /// reference the column pass must match bit for bit.
    fn dense_decision(svm: &OcSvm, x: &[f64]) -> f64 {
        svm.support_vectors
            .iter()
            .zip(&svm.alphas)
            .map(|(sv, &a)| a * svm.config.kernel.eval(sv, x))
            .sum::<f64>()
            - svm.rho
    }

    fn assert_matches_dense(svm: &OcSvm, queries: &[Vec<f64>]) {
        for x in queries {
            assert_eq!(
                svm.decision(x).to_bits(),
                dense_decision(svm, x).to_bits(),
                "{x:?}"
            );
        }
    }

    fn rbf(gamma: f64) -> OcSvmConfig {
        OcSvmConfig {
            kernel: Kernel::Rbf { gamma },
            ..OcSvmConfig::default()
        }
    }

    #[test]
    fn columns_are_the_sorted_union_of_support_vector_non_zeros() {
        let svm = OcSvm::from_parts(
            rbf(1.0),
            vec![vec![0.0, 0.5, -0.0, 0.25], vec![0.0, 0.0, 0.0, 0.75]],
            vec![0.5, 0.5],
            0.1,
            4,
        );
        assert_eq!(svm.columns.index, vec![1, 3]);
        assert_eq!(svm.columns.values, vec![0.5, 0.0, 0.25, 0.75]);
        let cols: Vec<(usize, &[f64])> = svm.columns.iter().collect();
        assert_eq!(cols, vec![(1, &[0.5, 0.0][..]), (3, &[0.25, 0.75][..])]);
    }

    /// `n_sv = 0` is what a decoded model with no support vectors holds:
    /// the score is `−ρ`, with the dense reference's bits (the empty sum's
    /// sign included), and nothing panics, on the router's path either.
    #[test]
    fn svm_without_support_vectors_scores_minus_rho() {
        use crate::features::SessionFeaturizer;
        use crate::router::ClusterRouter;
        use ibcm_logsim::ActionId;
        for rho in [0.0, -0.0, 0.37] {
            let svm = OcSvm::from_parts(rbf(3.0), Vec::new(), Vec::new(), rho, 3);
            assert!(svm.columns.index.is_empty());
            assert_eq!(svm.columns.iter().count(), 0);
            assert_matches_dense(&svm, &[vec![0.0; 3], vec![0.2, 0.0, 0.8]]);
            let mut buf = bytes::BytesMut::new();
            svm.write_bytes(&mut buf);
            let back = OcSvm::read_bytes(&mut buf.freeze()).unwrap();
            assert_eq!(back, svm);
            assert_matches_dense(&back, &[vec![0.0, 1.0, 0.0]]);
            let router = ClusterRouter::new(vec![back], SessionFeaturizer::new(2, true));
            let actions = [ActionId(1), ActionId(0), ActionId(1)];
            let x = router.featurizer().features(&actions);
            let scores: Vec<u64> = router
                .scores(&actions)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(scores, vec![dense_decision(&svm, &x).to_bits()]);
            assert_eq!(router.route_with_lock_in(&actions, 15).index(), 0);
        }
    }

    #[test]
    fn query_non_zeros_outside_every_support_column() {
        let svm = OcSvm::from_parts(
            rbf(0.7),
            vec![
                vec![0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
                vec![0.0, 0.25, 0.0, 0.0, 0.0, 0.0],
            ],
            vec![0.75, 0.25],
            0.2,
            6,
        );
        assert_matches_dense(
            &svm,
            &[
                // Before, between and after the columns, with and without
                // a shared column.
                vec![0.3, 0.0, 0.2, 0.0, 0.0, 0.5],
                vec![0.3, 0.1, 0.2, 0.0, 0.1, 0.5],
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                vec![0.0; 6],
                vec![-0.0, 0.5, -0.0, 0.5, 0.0, -0.0],
            ],
        );
    }

    #[test]
    fn svm_with_one_support_vector() {
        let svm = OcSvm::from_parts(rbf(2.0), vec![vec![0.0, 0.4, 0.0, 0.6]], vec![1.0], 0.5, 4);
        assert_eq!(svm.columns.values, vec![0.4, 0.6]);
        assert_matches_dense(
            &svm,
            &[
                vec![0.0, 0.4, 0.0, 0.6],
                vec![1.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.1, 0.9, 0.0],
            ],
        );
        let trained = OcSvm::train(&[vec![0.0, 1.0, 0.0]], &OcSvmConfig::default()).unwrap();
        assert_eq!(trained.n_support_vectors(), 1);
        assert_matches_dense(&trained, &[vec![0.0, 1.0, 0.0], vec![0.5, 0.0, 0.5]]);
    }

    /// The persisted form is the dense rows: decoding rebuilds the same
    /// column block, and the rebuilt model scores with the original's bits.
    #[test]
    fn column_block_is_rebuilt_from_the_persisted_rows() {
        use crate::features::SessionFeaturizer;
        use ibcm_logsim::ActionId;
        let featurizer = SessionFeaturizer::new(30, true);
        let mut rng = StdRng::seed_from_u64(9);
        let mut bag = |len: usize| -> Vec<f64> {
            let actions: Vec<ActionId> = (0..len).map(|_| ActionId(rng.gen_range(0..33))).collect();
            featurizer.features(&actions)
        };
        let data: Vec<Vec<f64>> = (0..40).map(|i| bag(1 + i % 12)).collect();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| bag(i % 15)).collect();
        let svm = OcSvm::train(&data, &OcSvmConfig::default()).unwrap();
        let mut buf = bytes::BytesMut::new();
        svm.write_bytes(&mut buf);
        let back = OcSvm::read_bytes(&mut buf.freeze()).unwrap();
        assert_eq!(back.columns, svm.columns);
        assert_matches_dense(&back, &queries);
        for x in &queries {
            assert_eq!(back.decision(x).to_bits(), svm.decision(x).to_bits());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let train = blob(&[0.0, 0.0], 30, 0.5, 5);
        let a = OcSvm::train(&train, &OcSvmConfig::default()).unwrap();
        let b = OcSvm::train(&train, &OcSvmConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
