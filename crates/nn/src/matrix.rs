use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// This is the single tensor type used by every layer in the crate. It keeps
/// the kernel set deliberately small: the LSTM and dense layers only need
/// plain matmul, transposed matmuls for the backward pass, and elementwise
/// arithmetic.
///
/// # Example
///
/// ```
/// use ibcm_nn::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Samples a matrix with entries uniform in `[-scale, scale]`.
    pub fn uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Samples a matrix with the Xavier/Glorot uniform initialization for a
    /// layer with `fan_in` inputs and `fan_out` outputs.
    pub fn xavier(rows: usize, cols: usize, fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let scale = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Matrix::uniform(rows, cols, scale, seed)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    // ibcm-lint: allow(transitive-panic, reason = "documented # Panics bounds contract, with a debug_assert guard")
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    // ibcm-lint: allow(transitive-panic, reason = "documented # Panics contract: r < rows")
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    // ibcm-lint: allow(transitive-panic, reason = "documented # Panics contract: r < rows")
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * other`, an `(m x k) * (k x n) -> (m x n)` product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimensions: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_acc_into(other, &mut out);
        out
    }

    /// `out += self * other`, reusing `out`'s storage.
    ///
    /// The kernel blocks output rows sixteen-wide (`kernels::LANE_BLOCK`)
    /// and hoists
    /// each eight-row slab of `other` above the row loop, so a k-block of
    /// weight rows is streamed from memory once per row block instead of
    /// once per output row — the reuse the lock-step batch scorer depends
    /// on (`other` is the weight matrix there, and it is larger than L2 at
    /// paper shape). With one row of `self` it is the streaming scorer's
    /// matvec. Per output element the products are still added in
    /// ascending-k order, one rounded addition each, so the result is
    /// bit-identical to [`reference::matmul_acc_into`] for finite inputs.
    /// (The reference kernel skips zero elements of `self`, so `0.0 * inf`
    /// edge cases differ — finite inputs are the contract everywhere in
    /// this crate.)
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    // ibcm-lint: allow(transitive-panic, reason = "shapes are asserted on entry; every tile index is derived from them")
    pub fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dimensions");
        assert_eq!(out.rows, self.rows, "matmul output rows");
        assert_eq!(out.cols, other.cols, "matmul output cols");
        let n = other.cols;
        let kk = self.cols;
        let b = &other.data;
        let brow = |k: usize| &b[k * n..(k + 1) * n];
        let mut i = 0;
        while i < self.rows {
            let lanes = (self.rows - i).min(kernels::LANE_BLOCK);
            let mut k = 0;
            while k + 8 <= kk {
                let bs = [
                    brow(k),
                    brow(k + 1),
                    brow(k + 2),
                    brow(k + 3),
                    brow(k + 4),
                    brow(k + 5),
                    brow(k + 6),
                    brow(k + 7),
                ];
                for r in i..i + lanes {
                    let a = &self.data[r * kk..(r + 1) * kk];
                    let av = [
                        a[k],
                        a[k + 1],
                        a[k + 2],
                        a[k + 3],
                        a[k + 4],
                        a[k + 5],
                        a[k + 6],
                        a[k + 7],
                    ];
                    kernels::axpy8(&mut out.data[r * n..(r + 1) * n], av, bs);
                }
                k += 8;
            }
            if k + 4 <= kk {
                let (b0, b1, b2, b3) = (brow(k), brow(k + 1), brow(k + 2), brow(k + 3));
                for r in i..i + lanes {
                    let a = &self.data[r * kk..(r + 1) * kk];
                    let av = [a[k], a[k + 1], a[k + 2], a[k + 3]];
                    kernels::axpy4(&mut out.data[r * n..(r + 1) * n], av, b0, b1, b2, b3);
                }
                k += 4;
            }
            while k < kk {
                let bk = brow(k);
                for r in i..i + lanes {
                    let av = self.data[r * kk + k];
                    kernels::axpy1(&mut out.data[r * n..(r + 1) * n], av, bk);
                }
                k += 1;
            }
            i += lanes;
        }
    }

    /// `self^T * other`, an `(m x k)^T * (m x n) -> (k x n)` product, used by
    /// backward passes to accumulate weight gradients without materializing
    /// transposes.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul row counts");
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_acc_into(other, &mut out);
        out
    }

    /// `out += self^T * other`.
    ///
    /// The reduction dimension (rows of `self`) is unrolled four-wide with
    /// in-order additions per output element, so results are bit-identical
    /// to [`reference::t_matmul_acc_into`] for finite inputs.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn t_matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul row counts");
        assert_eq!(out.rows, self.cols, "t_matmul output rows");
        assert_eq!(out.cols, other.cols, "t_matmul output cols");
        let n = other.cols;
        let ka = self.cols;
        let m = self.rows;
        let a = &self.data;
        let b = &other.data;
        let mut i = 0;
        while i + 4 <= m {
            let b0 = &b[i * n..(i + 1) * n];
            let b1 = &b[(i + 1) * n..(i + 2) * n];
            let b2 = &b[(i + 2) * n..(i + 3) * n];
            let b3 = &b[(i + 3) * n..(i + 4) * n];
            for k in 0..ka {
                let av = [
                    a[i * ka + k],
                    a[(i + 1) * ka + k],
                    a[(i + 2) * ka + k],
                    a[(i + 3) * ka + k],
                ];
                let orow = &mut out.data[k * n..(k + 1) * n];
                kernels::axpy4(orow, av, b0, b1, b2, b3);
            }
            i += 4;
        }
        while i < m {
            let brow = &b[i * n..(i + 1) * n];
            for k in 0..ka {
                let orow = &mut out.data[k * n..(k + 1) * n];
                kernels::axpy1(orow, a[i * ka + k], brow);
            }
            i += 1;
        }
    }

    /// `self * other^T`, an `(m x k) * (n x k)^T -> (m x n)` product, used by
    /// backward passes to propagate gradients through weights.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] writing into `out` (resized and overwritten, not
    /// accumulated), reusing its storage.
    ///
    /// Each output element is an independent dot product accumulated in
    /// ascending-k order; the optimized kernel computes four output columns
    /// at once (independent accumulators, no reassociation), so results are
    /// bit-identical to [`reference::matmul_t_into`].
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t column counts");
        out.resize_zeroed(self.rows, other.rows);
        let kk = self.cols;
        let n_out = other.rows;
        let b = &other.data;
        for i in 0..self.rows {
            let arow = &self.data[i * kk..(i + 1) * kk];
            let orow = &mut out.data[i * n_out..(i + 1) * n_out];
            let mut j = 0;
            while j + 4 <= n_out {
                let b0 = &b[j * kk..(j + 1) * kk];
                let b1 = &b[(j + 1) * kk..(j + 2) * kk];
                let b2 = &b[(j + 2) * kk..(j + 3) * kk];
                let b3 = &b[(j + 3) * kk..(j + 4) * kk];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (idx, &av) in arow.iter().enumerate() {
                    s0 += av * b0[idx];
                    s1 += av * b1[idx];
                    s2 += av * b2[idx];
                    s3 += av * b3[idx];
                }
                orow[j] = s0;
                orow[j + 1] = s1;
                orow[j + 2] = s2;
                orow[j + 3] = s3;
                j += 4;
            }
            while j < n_out {
                let brow = &b[j * kk..(j + 1) * kk];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                orow[j] = acc;
                j += 1;
            }
        }
    }

    /// `out[r] += self.row(hot[r])` for every row with `Some` index — the
    /// explicit one-hot × table product used by the LSTM embedding step
    /// (`self` is the `vocab x 4*hidden` input weight table). A `None` entry
    /// (padding) contributes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `hot.len() != out.rows()`, `out.cols() != self.cols()`, or
    /// an index is `>= self.rows()`.
    pub fn onehot_matmul_acc_into(&self, hot: &[Option<usize>], out: &mut Matrix) {
        assert_eq!(hot.len(), out.rows, "one row per one-hot index");
        assert_eq!(out.cols, self.cols, "one-hot output cols");
        for (r, idx) in hot.iter().enumerate() {
            if let Some(a) = *idx {
                assert!(a < self.rows, "one-hot index {a} out of range");
                let wrow = &self.data[a * self.cols..(a + 1) * self.cols];
                let orow = &mut out.data[r * self.cols..(r + 1) * self.cols];
                kernels::row_add(orow, wrow);
            }
        }
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `other` elementwise in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Adds the row vector `bias` to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sets every element to zero (reuse allocation between minibatches).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshapes to `rows x cols` and zeroes every element, reusing the
    /// existing allocation when capacity allows — the scratch-buffer reset
    /// used by the allocation-free training and scoring paths.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Drops all rows past `rows`, keeping the leading rows' data and the
    /// allocation. Used by the lock-step batch scorer: lanes are sorted by
    /// descending session length, so finished lanes are always a suffix and
    /// the live batch shrinks by truncation alone.
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.rows()`.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "truncate_rows cannot grow the matrix");
        self.rows = rows;
        self.data.truncate(rows * self.cols);
    }

    /// Becomes a copy of `other` (shape and contents), reusing the existing
    /// allocation when capacity allows.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.sq_norm().sqrt()
    }

    /// Elementwise product in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "hadamard shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

// The only `unsafe` in the crate lives here: runtime-dispatched SIMD
// micro-kernels (AVX-512F and AVX2 tiers) plus their guarded call sites,
// each with an explicit feature-detection check and in-bounds contract.
#[allow(unsafe_code)]
mod kernels {
    /// `orow[j] += a0*b0[j]; += a1*b1[j]; += a2*b2[j]; += a3*b3[j]` — the
    /// four-wide axpy step the blocked kernels' k-tails are built from. The
    /// additions per output element happen sequentially in that order, so
    /// the rounded operation sequence is identical to the scalar reference
    /// loops.
    ///
    /// On x86-64 this runs sixteen lanes at a time under AVX-512F (eight
    /// under AVX2) using separate `mul`/`add` (never FMA — fused rounding
    /// would break bit-identity); vector lanes are independent output
    /// elements, so widening the loop reassociates nothing.
    #[inline]
    // ibcm-lint: allow(transitive-panic, reason = "callers slice all rows to orow.len() (documented equal-length contract)")
    pub(super) fn axpy4(orow: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx512_available() {
                // SAFETY: AVX-512F support verified at runtime above.
                unsafe { x86::axpy4_avx512(orow, a, b0, b1, b2, b3) };
                return;
            }
            if x86::avx2_available() {
                // SAFETY: AVX2 support verified at runtime above.
                unsafe { x86::axpy4_avx2(orow, a, b0, b1, b2, b3) };
                return;
            }
        }
        for j in 0..orow.len() {
            let mut acc = orow[j];
            acc += a[0] * b0[j];
            acc += a[1] * b1[j];
            acc += a[2] * b2[j];
            acc += a[3] * b3[j];
            orow[j] = acc;
        }
    }

    /// Eight-term axpy: `orow[j] += a[0]*bs[0][j]; ...; += a[7]*bs[7][j]`,
    /// additions applied sequentially in index order per output element —
    /// the same rounded-operation sequence as two consecutive [`axpy4`]
    /// calls on `(a[0..4], bs[0..4])` then `(a[4..8], bs[4..8])`, so using
    /// it changes scheduling (one accumulator-row pass instead of two),
    /// never bits.
    #[inline]
    // ibcm-lint: allow(transitive-panic, reason = "callers slice all rows to orow.len() (documented equal-length contract)")
    pub(super) fn axpy8(orow: &mut [f32], a: [f32; 8], bs: [&[f32]; 8]) {
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx512_available() {
                // SAFETY: AVX-512F support verified at runtime above.
                unsafe { x86::axpy8_avx512(orow, a, bs) };
                return;
            }
            if x86::avx2_available() {
                // SAFETY: AVX2 support verified at runtime above.
                unsafe { x86::axpy8_avx2(orow, a, bs) };
                return;
            }
        }
        for j in 0..orow.len() {
            let mut acc = orow[j];
            acc += a[0] * bs[0][j];
            acc += a[1] * bs[1][j];
            acc += a[2] * bs[2][j];
            acc += a[3] * bs[3][j];
            acc += a[4] * bs[4][j];
            acc += a[5] * bs[5][j];
            acc += a[6] * bs[6][j];
            acc += a[7] * bs[7][j];
            orow[j] = acc;
        }
    }

    /// `orow[j] += a0 * brow[j]` — the single-row tail of [`axpy4`].
    #[inline]
    pub(super) fn axpy1(orow: &mut [f32], a0: f32, brow: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx512_available() {
                // SAFETY: AVX-512F support verified at runtime above.
                unsafe { x86::axpy1_avx512(orow, a0, brow) };
                return;
            }
            if x86::avx2_available() {
                // SAFETY: AVX2 support verified at runtime above.
                unsafe { x86::axpy1_avx2(orow, a0, brow) };
                return;
            }
        }
        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
            *o += a0 * bv;
        }
    }

    /// `orow[j] += brow[j]` — the one-hot embedding row add.
    #[inline]
    pub(super) fn row_add(orow: &mut [f32], brow: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::avx2_available() {
            // SAFETY: AVX2 support verified at runtime above.
            unsafe { x86::row_add_avx2(orow, brow) };
            return;
        }
        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
            *o += bv;
        }
    }

    /// Output rows processed per block of [`super::Matrix::matmul_acc_into`]:
    /// a k-block of eight right-operand rows (32 KB at the LSTM's 4·256-wide
    /// gate slab) is loaded once and applied to this many output rows while
    /// it is L1-resident, dividing the right operand's memory traffic by the
    /// block width. Purely a scheduling constant — any value produces the
    /// same bits, since each output row's accumulation order is unchanged.
    pub(super) const LANE_BLOCK: usize = 16;

    /// Runtime-dispatched SIMD micro-kernels (AVX-512F preferred, AVX2
    /// fallback): every entry point is gated on the matching
    /// `*_available()` check and touches memory strictly within the slice
    /// bounds checked by its caller.
    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::*;
        use std::sync::OnceLock;

        #[inline]
        pub(super) fn avx2_available() -> bool {
            static AVX2: OnceLock<bool> = OnceLock::new();
            *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
        }

        #[inline]
        pub(super) fn avx512_available() -> bool {
            static AVX512: OnceLock<bool> = OnceLock::new();
            // Miri interprets AVX2 but not the AVX-512 intrinsic set; force
            // the interpreter down the 8-lane path it can execute.
            *AVX512.get_or_init(|| !cfg!(miri) && is_x86_feature_detected!("avx512f"))
        }

        /// Sixteen-lane [`super::axpy4`] for AVX-512F machines: per element
        /// `((((y + a0*b0) + a1*b1) + a2*b2) + a3*b3)` with one rounding per
        /// add/mul — vector lanes are independent output elements, so the
        /// wider vector reassociates nothing and the result matches the
        /// scalar loop (and the 8-lane AVX2 kernel) bit for bit.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX-512F is available. Slices must all have
        /// `orow.len()` elements (enforced by the callers' block slicing).
        #[target_feature(enable = "avx512f")]
        // ibcm-lint: allow(transitive-panic, reason = "# Safety contract requires equal-length slices, debug_assert-checked")
        pub(super) unsafe fn axpy4_avx512(
            orow: &mut [f32],
            a: [f32; 4],
            b0: &[f32],
            b1: &[f32],
            b2: &[f32],
            b3: &[f32],
        ) {
            let n = orow.len();
            debug_assert!(b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n);
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx512f")]` makes the intrinsic
            // callable without a block.
            let va0 = _mm512_set1_ps(a[0]);
            let va1 = _mm512_set1_ps(a[1]);
            let va2 = _mm512_set1_ps(a[2]);
            let va3 = _mm512_set1_ps(a[3]);
            let mut j = 0;
            while j + 16 <= n {
                // SAFETY: j + 16 <= n and all five slices have n elements
                // (caller contract, debug-asserted above), so every
                // unaligned 16-lane load/store at offset j is in bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let mut vy = _mm512_loadu_ps(p);
                    vy = _mm512_add_ps(vy, _mm512_mul_ps(va0, _mm512_loadu_ps(b0.as_ptr().add(j))));
                    vy = _mm512_add_ps(vy, _mm512_mul_ps(va1, _mm512_loadu_ps(b1.as_ptr().add(j))));
                    vy = _mm512_add_ps(vy, _mm512_mul_ps(va2, _mm512_loadu_ps(b2.as_ptr().add(j))));
                    vy = _mm512_add_ps(vy, _mm512_mul_ps(va3, _mm512_loadu_ps(b3.as_ptr().add(j))));
                    _mm512_storeu_ps(p, vy);
                }
                j += 16;
            }
            while j < n {
                // SAFETY: j < n == orow.len() and the b slices have n
                // elements (caller contract), so unchecked scalar access
                // at j is in bounds.
                unsafe {
                    let mut acc = *orow.get_unchecked(j);
                    acc += a[0] * *b0.get_unchecked(j);
                    acc += a[1] * *b1.get_unchecked(j);
                    acc += a[2] * *b2.get_unchecked(j);
                    acc += a[3] * *b3.get_unchecked(j);
                    *orow.get_unchecked_mut(j) = acc;
                }
                j += 1;
            }
        }

        /// Sixteen-lane `orow[j] += a0 * brow[j]` for AVX-512F machines.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX-512F is available and
        /// `brow.len() == orow.len()`.
        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn axpy1_avx512(orow: &mut [f32], a0: f32, brow: &[f32]) {
            let n = orow.len();
            debug_assert_eq!(brow.len(), n);
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx512f")]` makes the intrinsic
            // callable without a block.
            let va = _mm512_set1_ps(a0);
            let mut j = 0;
            while j + 16 <= n {
                // SAFETY: j + 16 <= n and both slices have n elements
                // (caller contract), so the 16-lane accesses at j are in
                // bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let vy = _mm512_add_ps(
                        _mm512_loadu_ps(p),
                        _mm512_mul_ps(va, _mm512_loadu_ps(brow.as_ptr().add(j))),
                    );
                    _mm512_storeu_ps(p, vy);
                }
                j += 16;
            }
            while j < n {
                // SAFETY: j < n and both slices have n elements (caller
                // contract).
                unsafe {
                    *orow.get_unchecked_mut(j) += a0 * *brow.get_unchecked(j);
                }
                j += 1;
            }
        }

        /// Eight-lane [`super::axpy4`]: per element
        /// `((((y + a0*b0) + a1*b1) + a2*b2) + a3*b3)` with one rounding per
        /// add/mul, matching the scalar loop bit for bit.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available. Slices must all have
        /// `orow.len()` elements (enforced by the callers' block slicing).
        #[target_feature(enable = "avx2")]
        // ibcm-lint: allow(transitive-panic, reason = "# Safety contract requires equal-length slices, debug_assert-checked")
        pub(super) unsafe fn axpy4_avx2(
            orow: &mut [f32],
            a: [f32; 4],
            b0: &[f32],
            b1: &[f32],
            b2: &[f32],
            b3: &[f32],
        ) {
            let n = orow.len();
            debug_assert!(b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n);
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx2")]` makes the intrinsic
            // callable without a block.
            let va0 = _mm256_set1_ps(a[0]);
            let va1 = _mm256_set1_ps(a[1]);
            let va2 = _mm256_set1_ps(a[2]);
            let va3 = _mm256_set1_ps(a[3]);
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: j + 8 <= n and all five slices have n elements
                // (caller contract, debug-asserted above), so every
                // unaligned 8-lane load/store at offset j is in bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let mut vy = _mm256_loadu_ps(p);
                    vy = _mm256_add_ps(vy, _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j))));
                    vy = _mm256_add_ps(vy, _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j))));
                    vy = _mm256_add_ps(vy, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j))));
                    vy = _mm256_add_ps(vy, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j))));
                    _mm256_storeu_ps(p, vy);
                }
                j += 8;
            }
            while j < n {
                // SAFETY: j < n == orow.len() and the b slices have n
                // elements (caller contract), so unchecked scalar access
                // at j is in bounds.
                unsafe {
                    let mut acc = *orow.get_unchecked(j);
                    acc += a[0] * *b0.get_unchecked(j);
                    acc += a[1] * *b1.get_unchecked(j);
                    acc += a[2] * *b2.get_unchecked(j);
                    acc += a[3] * *b3.get_unchecked(j);
                    *orow.get_unchecked_mut(j) = acc;
                }
                j += 1;
            }
        }

        /// Eight-lane `orow[j] += a0 * brow[j]`.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available and `brow.len() == orow.len()`.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn axpy1_avx2(orow: &mut [f32], a0: f32, brow: &[f32]) {
            let n = orow.len();
            debug_assert_eq!(brow.len(), n);
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx2")]` makes the intrinsic
            // callable without a block.
            let va = _mm256_set1_ps(a0);
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: j + 8 <= n and both slices have n elements
                // (caller contract), so the 8-lane accesses at j are in
                // bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let vy = _mm256_add_ps(
                        _mm256_loadu_ps(p),
                        _mm256_mul_ps(va, _mm256_loadu_ps(brow.as_ptr().add(j))),
                    );
                    _mm256_storeu_ps(p, vy);
                }
                j += 8;
            }
            while j < n {
                // SAFETY: j < n and both slices have n elements (caller
                // contract).
                unsafe {
                    *orow.get_unchecked_mut(j) += a0 * *brow.get_unchecked(j);
                }
                j += 1;
            }
        }

        /// Sixteen-lane [`super::axpy8`] for AVX-512F machines: eight
        /// broadcast/mul/add terms applied sequentially per element, one
        /// rounding each — the same operation sequence as two chained
        /// [`axpy4_avx512`] calls, in one accumulator-row pass.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX-512F is available and every slice in `bs`
        /// has `orow.len()` elements.
        #[target_feature(enable = "avx512f")]
        // ibcm-lint: allow(transitive-panic, reason = "# Safety contract requires equal-length slices, debug_assert-checked")
        pub(super) unsafe fn axpy8_avx512(orow: &mut [f32], a: [f32; 8], bs: [&[f32]; 8]) {
            let n = orow.len();
            debug_assert!(bs.iter().all(|b| b.len() == n));
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx512f")]` makes the intrinsic
            // callable without a block.
            let va: [_; 8] = [
                _mm512_set1_ps(a[0]),
                _mm512_set1_ps(a[1]),
                _mm512_set1_ps(a[2]),
                _mm512_set1_ps(a[3]),
                _mm512_set1_ps(a[4]),
                _mm512_set1_ps(a[5]),
                _mm512_set1_ps(a[6]),
                _mm512_set1_ps(a[7]),
            ];
            let mut j = 0;
            while j + 16 <= n {
                // SAFETY: j + 16 <= n and all nine slices have n elements
                // (caller contract, debug-asserted above), so every
                // unaligned 16-lane load/store at offset j is in bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let mut vy = _mm512_loadu_ps(p);
                    for t in 0..8 {
                        vy = _mm512_add_ps(
                            vy,
                            _mm512_mul_ps(va[t], _mm512_loadu_ps(bs[t].as_ptr().add(j))),
                        );
                    }
                    _mm512_storeu_ps(p, vy);
                }
                j += 16;
            }
            while j < n {
                // SAFETY: j < n == orow.len() and the bs slices have n
                // elements (caller contract), so unchecked scalar access
                // at j is in bounds.
                unsafe {
                    let mut acc = *orow.get_unchecked(j);
                    for t in 0..8 {
                        acc += a[t] * *bs[t].get_unchecked(j);
                    }
                    *orow.get_unchecked_mut(j) = acc;
                }
                j += 1;
            }
        }

        /// Eight-lane [`super::axpy8`]: the AVX2 fallback of
        /// [`axpy8_avx512`], same sequential eight-term accumulation per
        /// element.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available and every slice in `bs` has
        /// `orow.len()` elements.
        #[target_feature(enable = "avx2")]
        // ibcm-lint: allow(transitive-panic, reason = "# Safety contract requires equal-length slices, debug_assert-checked")
        pub(super) unsafe fn axpy8_avx2(orow: &mut [f32], a: [f32; 8], bs: [&[f32]; 8]) {
            let n = orow.len();
            debug_assert!(bs.iter().all(|b| b.len() == n));
            // Safe: `set1` touches no memory and the enclosing
            // `#[target_feature(enable = "avx2")]` makes the intrinsic
            // callable without a block.
            let va: [_; 8] = [
                _mm256_set1_ps(a[0]),
                _mm256_set1_ps(a[1]),
                _mm256_set1_ps(a[2]),
                _mm256_set1_ps(a[3]),
                _mm256_set1_ps(a[4]),
                _mm256_set1_ps(a[5]),
                _mm256_set1_ps(a[6]),
                _mm256_set1_ps(a[7]),
            ];
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: j + 8 <= n and all nine slices have n elements
                // (caller contract, debug-asserted above), so every
                // unaligned 8-lane load/store at offset j is in bounds.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let mut vy = _mm256_loadu_ps(p);
                    for t in 0..8 {
                        vy = _mm256_add_ps(
                            vy,
                            _mm256_mul_ps(va[t], _mm256_loadu_ps(bs[t].as_ptr().add(j))),
                        );
                    }
                    _mm256_storeu_ps(p, vy);
                }
                j += 8;
            }
            while j < n {
                // SAFETY: j < n == orow.len() and the bs slices have n
                // elements (caller contract), so unchecked scalar access
                // at j is in bounds.
                unsafe {
                    let mut acc = *orow.get_unchecked(j);
                    for t in 0..8 {
                        acc += a[t] * *bs[t].get_unchecked(j);
                    }
                    *orow.get_unchecked_mut(j) = acc;
                }
                j += 1;
            }
        }

        /// Eight-lane `orow[j] += brow[j]`.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available and `brow.len() == orow.len()`.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn row_add_avx2(orow: &mut [f32], brow: &[f32]) {
            let n = orow.len();
            debug_assert_eq!(brow.len(), n);
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: j + 8 <= n and both slices have n elements
                // (caller contract), so the 8-lane accesses at j are in
                // bounds; AVX2 guaranteed by the caller.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let vy =
                        _mm256_add_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(brow.as_ptr().add(j)));
                    _mm256_storeu_ps(p, vy);
                }
                j += 8;
            }
            while j < n {
                // SAFETY: j < n and both slices have n elements (caller
                // contract).
                unsafe {
                    *orow.get_unchecked_mut(j) += *brow.get_unchecked(j);
                }
                j += 1;
            }
        }
    }
}

/// The naive scalar kernels the optimized [`Matrix`] methods replaced,
/// retained verbatim as the test oracle: the property tests in
/// `tests/properties.rs` assert the optimized kernels match these bit for
/// bit on finite inputs. No production path calls them.
///
/// Semantic note: these loops skip elements of the left operand that are
/// exactly `0.0`; the optimized kernels perform those multiply-adds. For
/// finite operands adding `±0.0 * b` never changes a finite accumulator's
/// bits, so the two families agree; with `inf`/`NaN` operands they may not.
pub mod reference {
    use super::Matrix;

    /// Naive `out += a * b` (i-k-j loop with zero-skip).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matmul_acc_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, b.rows, "matmul inner dimensions");
        assert_eq!(out.rows, a.rows, "matmul output rows");
        assert_eq!(out.cols, b.cols, "matmul output cols");
        let n = b.cols;
        for i in 0..a.rows {
            let arow = a.row(i);
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (k, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Naive `out += a^T * b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn t_matmul_acc_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows, b.rows, "t_matmul row counts");
        assert_eq!(out.rows, a.cols, "t_matmul output rows");
        assert_eq!(out.cols, b.cols, "t_matmul output cols");
        let n = b.cols;
        for i in 0..a.rows {
            let arow = a.row(i);
            let brow = b.row(i);
            for (k, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out.data[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Naive `out = a * b^T` (one scalar dot product per output element).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matmul_t_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, b.cols, "matmul_t column counts");
        assert_eq!(out.rows, a.rows, "matmul_t output rows");
        assert_eq!(out.cols, b.rows, "matmul_t output cols");
        for i in 0..a.rows {
            let arow = a.row(i);
            for j in 0..b.rows {
                let brow = b.row(j);
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.at(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::uniform(5, 3, 1.0, 1);
        let b = Matrix::uniform(5, 4, 1.0, 2);
        let fast = a.t_matmul(&b);
        let slow = a.transposed().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::uniform(5, 3, 1.0, 3);
        let b = Matrix::uniform(4, 3, 1.0, 4);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transposed());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::uniform(4, 4, 2.0, 9);
        let i = Matrix::eye(4);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn bias_broadcast() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_bias(&[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn xavier_scale_bound() {
        let m = Matrix::xavier(10, 10, 100, 100, 7);
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
        // Not degenerate: some spread.
        assert!(m.as_slice().iter().any(|v| v.abs() > bound / 10.0));
    }

    #[test]
    fn norm_known_value() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.norm() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = Matrix::uniform(3, 3, 1.0, 42);
        let b = Matrix::uniform(3, 3, 1.0, 42);
        let c = Matrix::uniform(3, 3, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimensions")]
    fn matmul_shape_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn display_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn onehot_matmul_matches_explicit_product() {
        let table = Matrix::uniform(5, 7, 1.0, 11);
        let hot = [Some(3), None, Some(0), Some(3)];
        let mut out = Matrix::uniform(4, 7, 1.0, 12);
        let mut expected = out.clone();
        // Explicit one-hot matrix product.
        let mut x = Matrix::zeros(4, 5);
        for (r, h) in hot.iter().enumerate() {
            if let Some(a) = *h {
                x.set(r, a, 1.0);
            }
        }
        x.matmul_acc_into(&table, &mut expected);
        table.onehot_matmul_acc_into(&hot, &mut out);
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "one-hot index 9 out of range")]
    fn onehot_rejects_out_of_range() {
        let table = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(1, 2);
        table.onehot_matmul_acc_into(&[Some(9)], &mut out);
    }

    #[test]
    fn matmul_t_into_overwrites_stale_contents() {
        let a = Matrix::uniform(3, 4, 1.0, 31);
        let b = Matrix::uniform(5, 4, 1.0, 32);
        let mut out = Matrix::filled(3, 5, 99.0);
        a.matmul_t_into(&b, &mut out);
        assert_eq!(out, a.matmul_t(&b));
    }

    #[test]
    fn resize_zeroed_and_copy_from_reuse() {
        let mut m = Matrix::filled(2, 3, 5.0);
        m.resize_zeroed(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        let src = Matrix::uniform(4, 4, 1.0, 44);
        m.copy_from(&src);
        assert_eq!(m, src);
    }
}
