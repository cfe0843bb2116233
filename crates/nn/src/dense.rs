use serde::{Deserialize, Serialize};

use crate::activations::softmax_in_place;
use crate::matrix::Matrix;

/// A fully-connected layer `y = x W + b` (the softmax classification head of
/// the paper's language model).
///
/// # Example
///
/// ```
/// use ibcm_nn::{Dense, Matrix};
/// let dense = Dense::new(3, 2, 0);
/// let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
/// let y = dense.forward(&x);
/// assert_eq!((y.rows(), y.cols()), (1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
}

/// Cache of a [`Dense::forward_cached`] call, consumed by [`Dense::backward`].
#[derive(Debug, Clone)]
pub struct DenseCache {
    input: Matrix,
}

/// Gradients of a dense layer.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient with respect to the weights.
    pub dw: Matrix,
    /// Gradient with respect to the bias.
    pub db: Vec<f32>,
    /// Gradient with respect to the input.
    pub dx: Matrix,
}

impl Dense {
    /// Creates a layer mapping `in_dim` features to `out_dim` outputs,
    /// Xavier-initialized from `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            w: Matrix::xavier(in_dim, out_dim, in_dim, out_dim, seed ^ 0xdead),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Borrows `(weights, bias)`.
    pub fn params(&self) -> (&Matrix, &[f32]) {
        (&self.w, &self.b)
    }

    /// Mutably borrows `(weights, bias)`.
    pub fn params_mut(&mut self) -> (&mut Matrix, &mut Vec<f32>) {
        (&mut self.w, &mut self.b)
    }

    /// Computes `x W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, &mut y);
        y
    }

    /// [`Dense::forward`] writing into a caller-owned output matrix
    /// (overwritten, reusing its allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        y.resize_zeroed(x.rows(), self.out_dim());
        x.matmul_acc_into(&self.w, y);
        y.add_row_bias(&self.b);
    }

    /// Like [`Dense::forward`] but also returns a cache for the backward
    /// pass.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, DenseCache) {
        let y = self.forward(x);
        (y, DenseCache { input: x.clone() })
    }

    /// Backpropagates `dy` through the layer.
    pub fn backward(&self, cache: &DenseCache, dy: &Matrix) -> DenseGrads {
        let dw = cache.input.t_matmul(dy);
        let mut db = vec![0.0f32; self.b.len()];
        for r in 0..dy.rows() {
            for (acc, &d) in db.iter_mut().zip(dy.row(r).iter()) {
                *acc += d;
            }
        }
        let dx = dy.matmul_t(&self.w);
        DenseGrads { dw, db, dx }
    }

    /// [`Dense::backward`] against an explicit input matrix, writing into
    /// caller-owned buffers (each overwritten, not accumulated). This is the
    /// allocation-free training path: the caller keeps the layer input alive
    /// instead of cloning it into a [`DenseCache`].
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the layer.
    pub fn backward_into(
        &self,
        input: &Matrix,
        dy: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        dx: &mut Matrix,
    ) {
        dw.resize_zeroed(self.w.rows(), self.w.cols());
        input.t_matmul_acc_into(dy, dw);
        db.clear();
        db.resize(self.b.len(), 0.0);
        for r in 0..dy.rows() {
            for (acc, &d) in db.iter_mut().zip(dy.row(r).iter()) {
                *acc += d;
            }
        }
        dy.matmul_t_into(&self.w, dx);
    }

    /// Scoring head: one forward pass for a `lanes x in_dim` block of
    /// hidden states, writing `lanes x out_dim` logits into `y`
    /// (overwritten, reusing its allocation). The streaming scorer calls it
    /// with one lane, the batched scorer with one lane per session.
    ///
    /// Unlike [`Dense::forward_into`] — which adds the bias after the
    /// product — this initializes each output row **from the bias** and then
    /// accumulates the product. No row reads another, so row `r` is
    /// bit-identical to a one-row call on `x.row(r)`; the scorers depend on
    /// that identity.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    ///
    /// # Example
    ///
    /// ```
    /// use ibcm_nn::{Dense, Matrix};
    /// let dense = Dense::new(4, 3, 42);
    /// let x = Matrix::uniform(2, 4, 1.0, 7);
    /// let mut batched = Matrix::default();
    /// dense.forward_batch_into(&x, &mut batched);
    /// let mut solo = Matrix::default();
    /// dense.forward_batch_into(&Matrix::from_rows(&[x.row(1)]), &mut solo);
    /// assert_eq!(batched.row(1), solo.row(0));
    /// ```
    pub fn forward_batch_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        y.resize_zeroed(x.rows(), self.out_dim());
        for r in 0..y.rows() {
            y.row_mut(r).copy_from_slice(&self.b);
        }
        x.matmul_acc_into(&self.w, y);
    }
}

/// Result of a fused softmax + cross-entropy evaluation.
#[derive(Debug, Clone)]
pub struct SoftmaxLoss {
    /// Mean cross-entropy over the (unmasked) rows.
    pub loss: f32,
    /// Softmax probabilities, same shape as the logits.
    pub probs: Matrix,
    /// Gradient of the mean loss with respect to the logits.
    pub dlogits: Matrix,
}

/// Fused softmax + cross-entropy against integer targets.
///
/// `targets[r]` is the class index for row `r`, or `None` to mask the row out
/// of the loss (used for padded batch rows). Returns mean loss over unmasked
/// rows, the probabilities, and the gradient of the *mean* loss.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target index is out of
/// range.
///
/// # Example
///
/// ```
/// use ibcm_nn::{softmax_cross_entropy, Matrix};
/// let logits = Matrix::from_rows(&[&[2.0, 0.0, 0.0]]);
/// let out = softmax_cross_entropy(&logits, &[Some(0)]);
/// assert!(out.loss < 0.5);
/// ```
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[Option<usize>]) -> SoftmaxLoss {
    let mut probs = Matrix::default();
    let mut dlogits = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, targets, &mut probs, &mut dlogits);
    SoftmaxLoss {
        loss,
        probs,
        dlogits,
    }
}

/// [`softmax_cross_entropy`] writing probabilities and gradients into
/// caller-owned matrices (each overwritten, reusing allocations) and
/// returning the mean loss — the allocation-free training path.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target index is out of
/// range.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    targets: &[Option<usize>],
    probs: &mut Matrix,
    dlogits: &mut Matrix,
) -> f32 {
    assert_eq!(targets.len(), logits.rows(), "one target per row");
    probs.copy_from(logits);
    dlogits.resize_zeroed(logits.rows(), logits.cols());
    let mut loss = 0.0f64;
    let active = targets.iter().filter(|t| t.is_some()).count().max(1);
    let inv = 1.0 / active as f32;
    for r in 0..probs.rows() {
        softmax_in_place(probs.row_mut(r));
        if let Some(t) = targets[r] {
            assert!(t < logits.cols(), "target {t} out of range");
            let p = probs.at(r, t).max(1e-12);
            loss -= (p as f64).ln();
            let prow = probs.row(r);
            let drow = dlogits.row_mut(r);
            for (d, &pv) in drow.iter_mut().zip(prow.iter()) {
                *d = pv * inv;
            }
            drow[t] -= inv;
        }
    }
    (loss / active as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bias-first scoring head agrees with the bias-last training
    /// forward to rounding, at one lane and at several.
    #[test]
    fn forward_batch_matches_matrix_forward() {
        let dense = Dense::new(4, 3, 5);
        for lanes in [1, 3] {
            let x = Matrix::uniform(lanes, 4, 1.0, 8);
            let y = dense.forward(&x);
            let mut yb = Matrix::default();
            dense.forward_batch_into(&x, &mut yb);
            assert_eq!((yb.rows(), yb.cols()), (lanes, 3));
            for (a, b) in y.as_slice().iter().zip(yb.as_slice()) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn softmax_ce_uniform_loss_is_log_k() {
        let logits = Matrix::zeros(2, 5);
        let out = softmax_cross_entropy(&logits, &[Some(0), Some(4)]);
        assert!((out.loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn softmax_ce_masked_rows_excluded() {
        let logits = Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]);
        let out = softmax_cross_entropy(&logits, &[Some(0), None]);
        // Only the confident, correct row counts: near-zero loss.
        assert!(out.loss < 1e-3);
        assert!(out.dlogits.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::uniform(3, 4, 2.0, 77);
        let out = softmax_cross_entropy(&logits, &[Some(1), Some(0), Some(3)]);
        for r in 0..3 {
            let s: f32 = out.dlogits.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn dense_backward_shapes() {
        let dense = Dense::new(4, 3, 5);
        let x = Matrix::uniform(2, 4, 1.0, 6);
        let (_, cache) = dense.forward_cached(&x);
        let dy = Matrix::uniform(2, 3, 1.0, 7);
        let g = dense.backward(&cache, &dy);
        assert_eq!((g.dw.rows(), g.dw.cols()), (4, 3));
        assert_eq!(g.db.len(), 3);
        assert_eq!((g.dx.rows(), g.dx.cols()), (2, 4));
    }

    #[test]
    #[should_panic(expected = "target 5 out of range")]
    fn out_of_range_target_panics() {
        let logits = Matrix::zeros(1, 3);
        let _ = softmax_cross_entropy(&logits, &[Some(5)]);
    }
}
