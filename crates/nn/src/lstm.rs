use serde::{Deserialize, Serialize};

use crate::activations::{sigmoid, tanh_f};
use crate::matrix::Matrix;
use crate::scratch::{BatchScratch, Scratch};

/// One timestep of input for one batch element.
///
/// The paper feeds one-hot encoded actions and zero-pads short prefixes; a
/// [`StepInput::Pad`] contributes a zero input vector, while
/// [`StepInput::Action`] contributes the one-hot vector for that action
/// (implemented as a row gather from the input weight matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepInput {
    /// Zero-vector padding (no input contribution at this step).
    Pad,
    /// A one-hot action with the given vocabulary index.
    Action(usize),
}

/// Forward-pass cache for [`LstmLayer::forward`], consumed by
/// [`LstmLayer::backward`].
///
/// A cache can be reused across batches via [`LstmLayer::forward_into`];
/// its per-step matrices are resized in place, so steady-state training
/// performs no per-batch allocation once shapes stabilize.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    /// Time-major inputs, `inputs[t][b]`.
    inputs: Vec<Vec<StepInput>>,
    /// Activated gates per step, each `batch x 4*hidden`, blocks `[i,f,g,o]`.
    gates: Vec<Matrix>,
    /// Cell states per step, each `batch x hidden` (index 0 is after step 0).
    cells: Vec<Matrix>,
    /// `tanh(c_t)` per step.
    tanh_cells: Vec<Matrix>,
    /// Hidden states per step.
    hiddens: Vec<Matrix>,
    batch: usize,
}

impl LstmCache {
    /// Hidden states per timestep (`batch x hidden` each).
    pub fn hiddens(&self) -> &[Matrix] {
        &self.hiddens
    }

    /// Number of timesteps in the cached forward pass.
    pub fn steps(&self) -> usize {
        self.hiddens.len()
    }

    /// Batch size of the cached forward pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Resizes the per-step storage to `steps` entries, keeping existing
    /// matrices (and their allocations) for reuse.
    fn reset(&mut self, steps: usize, batch: usize) {
        self.batch = batch;
        self.inputs.resize(steps, Vec::new());
        self.gates.resize(steps, Matrix::default());
        self.cells.resize(steps, Matrix::default());
        self.tanh_cells.resize(steps, Matrix::default());
        self.hiddens.resize(steps, Matrix::default());
        self.inputs.truncate(steps);
        self.gates.truncate(steps);
        self.cells.truncate(steps);
        self.tanh_cells.truncate(steps);
        self.hiddens.truncate(steps);
    }
}

/// Gradients of the LSTM parameters produced by [`LstmLayer::backward`].
#[derive(Debug, Clone, Default)]
pub struct LstmGrads {
    /// Gradient of the input weights, same shape as `wx`.
    pub dwx: Matrix,
    /// Gradient of the recurrent weights, same shape as `wh`.
    pub dwh: Matrix,
    /// Gradient of the bias, length `4*hidden`.
    pub db: Vec<f32>,
}

/// Recurrent state for a **batch** of independent sessions advancing in
/// lock-step through one layer: row `r` of each matrix is lane `r`'s hidden
/// and cell vector. It is the only inference state: the streaming scorer
/// (the paper's online regime, §IV-C) holds a one-lane batch per layer.
///
/// The batched scorer sorts lanes by descending session length, so lanes
/// that finish early always form a suffix; [`LstmBatchState::truncate`]
/// retires them without disturbing the rows still running. No lane's
/// arithmetic reads another lane's row, so a lane's state trajectory is
/// bit-identical to stepping that session alone in a one-lane batch (see
/// `step_batch_matches_per_lane_steps` in this module's tests).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmBatchState {
    /// `lanes x hidden` hidden states.
    h: Matrix,
    /// `lanes x hidden` cell states.
    c: Matrix,
}

impl LstmBatchState {
    /// Fresh all-zero state for `lanes` sessions through a layer with
    /// `hidden` units.
    pub fn new(lanes: usize, hidden: usize) -> Self {
        LstmBatchState {
            h: Matrix::zeros(lanes, hidden),
            c: Matrix::zeros(lanes, hidden),
        }
    }

    /// Number of live lanes.
    pub fn lanes(&self) -> usize {
        self.h.rows()
    }

    /// The `lanes x hidden` hidden-state matrix (one row per lane) — the
    /// input to the next layer up, or to the dense scoring head.
    pub fn hiddens(&self) -> &Matrix {
        &self.h
    }

    /// Retires all lanes past `lanes`, keeping the leading rows intact.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds the current lane count.
    pub fn truncate(&mut self, lanes: usize) {
        self.h.truncate_rows(lanes);
        self.c.truncate_rows(lanes);
    }

    /// Zeroes every lane in place, keeping the allocation — a streaming
    /// scorer reuses one state across sessions.
    pub fn reset(&mut self) {
        self.h.fill_zero();
        self.c.fill_zero();
    }
}

/// A single LSTM layer unrolled over time, with explicit backpropagation.
///
/// Gate blocks are ordered `[input, forget, cell, output]` inside the fused
/// `4*hidden` axis. The forget-gate bias is initialized to 1.0 (standard
/// practice to ease gradient flow early in training).
///
/// All four gate products are computed into a single fused `batch x
/// 4*hidden` gate slab per timestep (one embedding gather + one recurrent
/// matmul). Training entry points have `_into` variants over a caller-owned
/// [`Scratch`], and inference steps lanes in lock-step through a
/// caller-owned [`BatchScratch`], so steady-state training and scoring are
/// allocation-free.
///
/// # Example
///
/// ```
/// use ibcm_nn::{LstmLayer, StepInput};
/// let lstm = LstmLayer::new(10, 8, 1);
/// // Two timesteps, batch of one: action 3 then padding.
/// let cache = lstm.forward(&[vec![StepInput::Action(3)], vec![StepInput::Pad]]);
/// assert_eq!(cache.steps(), 2);
/// assert_eq!(cache.hiddens()[1].cols(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmLayer {
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
    input_dim: usize,
    hidden: usize,
}

impl LstmLayer {
    /// Creates a layer for one-hot inputs of dimension `input_dim` with
    /// `hidden` units, Xavier-initialized from `seed`.
    pub fn new(input_dim: usize, hidden: usize, seed: u64) -> Self {
        let wx = Matrix::xavier(input_dim, 4 * hidden, input_dim, hidden, seed ^ 0x51ed);
        let wh = Matrix::xavier(hidden, 4 * hidden, hidden, hidden, seed ^ 0xa11ce);
        let mut b = vec![0.0; 4 * hidden];
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0; // forget gate bias
        }
        LstmLayer {
            wx,
            wh,
            b,
            input_dim,
            hidden,
        }
    }

    /// Input (vocabulary) dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of hidden units.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Borrows the parameters as `(wx, wh, bias)`.
    pub fn params(&self) -> (&Matrix, &Matrix, &[f32]) {
        (&self.wx, &self.wh, &self.b)
    }

    /// Mutably borrows the parameters as `(wx, wh, bias)`.
    pub fn params_mut(&mut self) -> (&mut Matrix, &mut Matrix, &mut Vec<f32>) {
        (&mut self.wx, &mut self.wh, &mut self.b)
    }

    /// Fused pointwise cell update for step `t`: activates the gate slab in
    /// place and computes `c_t`, `tanh(c_t)` and `h_t` in a single pass.
    fn fused_cell(
        h: usize,
        batch: usize,
        gates: &mut Matrix,
        c_prev: &Matrix,
        c_t: &mut Matrix,
        tanh_c: &mut Matrix,
        h_t: &mut Matrix,
    ) {
        for bi in 0..batch {
            let grow = gates.row_mut(bi);
            let cp = c_prev.row(bi);
            let crow = c_t.row_mut(bi);
            let trow = tanh_c.row_mut(bi);
            let hrow = h_t.row_mut(bi);
            for j in 0..h {
                let i_g = sigmoid(grow[j]);
                let f_g = sigmoid(grow[h + j]);
                let g_g = tanh_f(grow[2 * h + j]);
                let o_g = sigmoid(grow[3 * h + j]);
                grow[j] = i_g;
                grow[h + j] = f_g;
                grow[2 * h + j] = g_g;
                grow[3 * h + j] = o_g;
                let c = f_g * cp[j] + i_g * g_g;
                crow[j] = c;
                let tc = tanh_f(c);
                trow[j] = tc;
                hrow[j] = o_g * tc;
            }
        }
    }

    /// Runs the layer over a time-major batch: `inputs[t][b]` is the input of
    /// batch element `b` at step `t`. All inner vectors must share one length
    /// (the batch size).
    ///
    /// # Panics
    ///
    /// Panics if batch sizes are inconsistent or an action index is out of
    /// vocabulary range.
    pub fn forward(&self, inputs: &[Vec<StepInput>]) -> LstmCache {
        let mut cache = LstmCache::default();
        self.forward_into(inputs, &mut cache, &mut Scratch::new());
        cache
    }

    /// [`LstmLayer::forward`] reusing a caller-owned cache and scratch
    /// workspace — no per-batch allocation once buffer shapes stabilize.
    ///
    /// # Panics
    ///
    /// Panics if batch sizes are inconsistent or an action index is out of
    /// vocabulary range.
    pub fn forward_into(
        &self,
        inputs: &[Vec<StepInput>],
        cache: &mut LstmCache,
        scratch: &mut Scratch,
    ) {
        let batch = inputs.first().map_or(0, Vec::len);
        let h = self.hidden;
        cache.reset(inputs.len(), batch);
        scratch.zero.resize_zeroed(batch, h);
        for (t, step_in) in inputs.iter().enumerate() {
            assert_eq!(step_in.len(), batch, "inconsistent batch size");
            cache.inputs[t].clear();
            cache.inputs[t].extend_from_slice(step_in);
            // x_t @ Wx as an explicit one-hot product (row gathers).
            scratch.hot.clear();
            for inp in step_in {
                scratch.hot.push(match *inp {
                    StepInput::Action(a) => {
                        assert!(a < self.input_dim, "action index {a} out of range");
                        Some(a)
                    }
                    StepInput::Pad => None,
                });
            }
            let gates = &mut cache.gates[t];
            gates.resize_zeroed(batch, 4 * h);
            self.wx.onehot_matmul_acc_into(&scratch.hot, gates);
            if t > 0 {
                cache.hiddens[t - 1].matmul_acc_into(&self.wh, gates);
            }
            gates.add_row_bias(&self.b);
            let (c_done, c_rest) = cache.cells.split_at_mut(t);
            let c_prev: &Matrix = if t == 0 { &scratch.zero } else { &c_done[t - 1] };
            let c_t = &mut c_rest[0];
            c_t.resize_zeroed(batch, h);
            let tanh_c = &mut cache.tanh_cells[t];
            tanh_c.resize_zeroed(batch, h);
            let h_t = &mut cache.hiddens[t];
            h_t.resize_zeroed(batch, h);
            Self::fused_cell(h, batch, gates, c_prev, c_t, tanh_c, h_t);
        }
    }

    /// Backpropagates through time. `d_hiddens[t]` is the gradient of the
    /// loss with respect to the hidden state emitted at step `t` (zero
    /// matrices for steps without a loss term).
    ///
    /// # Panics
    ///
    /// Panics if `d_hiddens.len() != cache.steps()` or shapes disagree.
    pub fn backward(&self, cache: &LstmCache, d_hiddens: &[Matrix]) -> LstmGrads {
        let mut grads = LstmGrads::default();
        self.backward_into(cache, d_hiddens, &mut grads, &mut Scratch::new());
        grads
    }

    /// [`LstmLayer::backward`] writing into caller-owned gradients and
    /// scratch buffers (`grads` is overwritten, not accumulated).
    ///
    /// # Panics
    ///
    /// Panics if `d_hiddens.len() != cache.steps()` or shapes disagree.
    pub fn backward_into(
        &self,
        cache: &LstmCache,
        d_hiddens: &[Matrix],
        grads: &mut LstmGrads,
        scratch: &mut Scratch,
    ) {
        self.backward_core(cache, None, d_hiddens, grads, None, scratch);
    }

    /// Shared BPTT core for the sparse (one-hot) and dense input paths.
    ///
    /// With `dense_inputs: Some(..)`, input-weight gradients come from a
    /// transposed matmul against the dense inputs and `d_inputs` (if given)
    /// receives the per-step input gradients; otherwise `dwx` rows are
    /// scattered via the cached one-hot indices.
    fn backward_core(
        &self,
        cache: &LstmCache,
        dense_inputs: Option<&[Matrix]>,
        d_hiddens: &[Matrix],
        grads: &mut LstmGrads,
        mut d_inputs: Option<&mut Vec<Matrix>>,
        scratch: &mut Scratch,
    ) {
        assert_eq!(d_hiddens.len(), cache.steps(), "one dh per cached step");
        if let Some(inputs) = dense_inputs {
            assert_eq!(inputs.len(), cache.steps(), "one input per step");
        }
        let h = self.hidden;
        let batch = cache.batch;
        grads.dwx.resize_zeroed(self.wx.rows(), self.wx.cols());
        grads.dwh.resize_zeroed(self.wh.rows(), self.wh.cols());
        grads.db.clear();
        grads.db.resize(4 * h, 0.0);
        if let Some(d_in) = d_inputs.as_deref_mut() {
            d_in.resize(cache.steps(), Matrix::default());
            d_in.truncate(cache.steps());
        }
        scratch.zero.resize_zeroed(batch, h);
        scratch.dh.resize_zeroed(batch, h); // dh_next
        scratch.dc_a.resize_zeroed(batch, h); // dc_next
        scratch.dc_b.resize_zeroed(batch, h); // dc_prev staging
        for t in (0..cache.steps()).rev() {
            let gates = &cache.gates[t];
            let tanh_c = &cache.tanh_cells[t];
            let c_prev = if t == 0 { &scratch.zero } else { &cache.cells[t - 1] };
            let h_prev = if t == 0 { &scratch.zero } else { &cache.hiddens[t - 1] };
            scratch.d_gates.resize_zeroed(batch, 4 * h);
            for bi in 0..batch {
                let grow = gates.row(bi);
                let trow = tanh_c.row(bi);
                let cprow = c_prev.row(bi);
                let dh_ext = d_hiddens[t].row(bi);
                let dh_rec = scratch.dh.row(bi);
                let dc_rec = scratch.dc_a.row(bi);
                let dgrow = scratch.d_gates.row_mut(bi);
                let dcprow = scratch.dc_b.row_mut(bi);
                for j in 0..h {
                    let i_g = grow[j];
                    let f_g = grow[h + j];
                    let g_g = grow[2 * h + j];
                    let o_g = grow[3 * h + j];
                    let dh = dh_ext[j] + dh_rec[j];
                    let dc = dc_rec[j] + dh * o_g * (1.0 - trow[j] * trow[j]);
                    dgrow[3 * h + j] = dh * trow[j] * o_g * (1.0 - o_g);
                    dgrow[j] = dc * g_g * i_g * (1.0 - i_g);
                    dgrow[2 * h + j] = dc * i_g * (1.0 - g_g * g_g);
                    dgrow[h + j] = dc * cprow[j] * f_g * (1.0 - f_g);
                    dcprow[j] = dc * f_g;
                }
            }
            // Parameter gradients.
            h_prev.t_matmul_acc_into(&scratch.d_gates, &mut grads.dwh);
            if let Some(inputs) = dense_inputs {
                inputs[t].t_matmul_acc_into(&scratch.d_gates, &mut grads.dwx);
            } else {
                for bi in 0..batch {
                    if let StepInput::Action(a) = cache.inputs[t][bi] {
                        let dgrow = scratch.d_gates.row(bi);
                        for (w, &d) in grads.dwx.row_mut(a).iter_mut().zip(dgrow.iter()) {
                            *w += d;
                        }
                    }
                }
            }
            for bi in 0..batch {
                for (bacc, &d) in grads.db.iter_mut().zip(scratch.d_gates.row(bi).iter()) {
                    *bacc += d;
                }
            }
            if let Some(d_in) = d_inputs.as_deref_mut() {
                scratch.d_gates.matmul_t_into(&self.wx, &mut d_in[t]);
            }
            // Recurrent gradient to previous step.
            scratch.d_gates.matmul_t_into(&self.wh, &mut scratch.dh);
            std::mem::swap(&mut scratch.dc_a, &mut scratch.dc_b);
        }
    }

    /// Runs the layer over a time-major batch of **dense** inputs (each
    /// `inputs[t]` a `batch x input_dim` matrix) — used by the upper layers
    /// of a stacked LSTM, whose inputs are the hidden states below rather
    /// than one-hot actions.
    ///
    /// Returns the cache plus a copy of the dense inputs needed by
    /// [`LstmLayer::backward_dense`]. (The allocation-free
    /// [`LstmLayer::forward_dense_into`] skips the copy; the caller keeps
    /// the inputs alive instead.)
    ///
    /// # Panics
    ///
    /// Panics if input shapes are inconsistent with the layer.
    pub fn forward_dense(&self, inputs: &[Matrix]) -> (LstmCache, Vec<Matrix>) {
        let mut cache = LstmCache::default();
        self.forward_dense_into(inputs, &mut cache, &mut Scratch::new());
        (cache, inputs.to_vec())
    }

    /// [`LstmLayer::forward_dense`] reusing a caller-owned cache and scratch
    /// workspace, without copying the dense inputs (the caller must keep
    /// them alive for [`LstmLayer::backward_dense_into`]).
    ///
    /// # Panics
    ///
    /// Panics if input shapes are inconsistent with the layer.
    pub fn forward_dense_into(
        &self,
        inputs: &[Matrix],
        cache: &mut LstmCache,
        scratch: &mut Scratch,
    ) {
        let batch = inputs.first().map_or(0, Matrix::rows);
        let h = self.hidden;
        cache.reset(inputs.len(), batch);
        scratch.zero.resize_zeroed(batch, h);
        for (t, x_t) in inputs.iter().enumerate() {
            assert_eq!(x_t.cols(), self.input_dim, "dense input width");
            assert_eq!(x_t.rows(), batch, "inconsistent batch size");
            // The cached inputs are pad markers: the dense inputs are
            // carried by the caller, not the cache.
            cache.inputs[t].clear();
            cache.inputs[t].resize(batch, StepInput::Pad);
            let gates = &mut cache.gates[t];
            gates.resize_zeroed(batch, 4 * h);
            x_t.matmul_acc_into(&self.wx, gates);
            if t > 0 {
                cache.hiddens[t - 1].matmul_acc_into(&self.wh, gates);
            }
            gates.add_row_bias(&self.b);
            let (c_done, c_rest) = cache.cells.split_at_mut(t);
            let c_prev: &Matrix = if t == 0 { &scratch.zero } else { &c_done[t - 1] };
            let c_t = &mut c_rest[0];
            c_t.resize_zeroed(batch, h);
            let tanh_c = &mut cache.tanh_cells[t];
            tanh_c.resize_zeroed(batch, h);
            let h_t = &mut cache.hiddens[t];
            h_t.resize_zeroed(batch, h);
            Self::fused_cell(h, batch, gates, c_prev, c_t, tanh_c, h_t);
        }
    }

    /// Backward pass matching [`LstmLayer::forward_dense`]: returns the
    /// parameter gradients plus the gradients with respect to each step's
    /// dense input (to be propagated into the layer below).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the cached forward pass.
    pub fn backward_dense(
        &self,
        cache: &LstmCache,
        dense_inputs: &[Matrix],
        d_hiddens: &[Matrix],
    ) -> (LstmGrads, Vec<Matrix>) {
        let mut grads = LstmGrads::default();
        let mut d_inputs = Vec::new();
        self.backward_dense_into(
            cache,
            dense_inputs,
            d_hiddens,
            &mut grads,
            &mut d_inputs,
            &mut Scratch::new(),
        );
        (grads, d_inputs)
    }

    /// [`LstmLayer::backward_dense`] writing into caller-owned buffers
    /// (`grads` and `d_inputs` are overwritten, not accumulated).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the cached forward pass.
    pub fn backward_dense_into(
        &self,
        cache: &LstmCache,
        dense_inputs: &[Matrix],
        d_hiddens: &[Matrix],
        grads: &mut LstmGrads,
        d_inputs: &mut Vec<Matrix>,
        scratch: &mut Scratch,
    ) {
        self.backward_core(
            cache,
            Some(dense_inputs),
            d_hiddens,
            grads,
            Some(d_inputs),
            scratch,
        );
    }

    /// Copies the bias into every live row of the batch gate slab: each
    /// lane's preactivations start from the bias, then accumulate the input
    /// and recurrent products.
    fn init_batch_gates(&self, lanes: usize, scratch: &mut BatchScratch) {
        let gates = &mut scratch.gates;
        gates.resize_zeroed(lanes, 4 * self.hidden);
        for r in 0..lanes {
            gates.row_mut(r).copy_from_slice(&self.b);
        }
    }

    /// The pointwise cell update of every live lane: activates row `r` of
    /// the gate slab and advances lane `r`'s cell and hidden vectors.
    // ibcm-lint: allow(transitive-panic, reason = "gate rows are 4*hidden wide and state rows hidden wide, as both step entry points assert")
    fn step_batch_pointwise(&self, states: &mut LstmBatchState, scratch: &BatchScratch) {
        let h = self.hidden;
        let LstmBatchState { h: hm, c: cm } = states;
        for r in 0..hm.rows() {
            let gates = scratch.gates.row(r);
            let c = cm.row_mut(r);
            let hv = hm.row_mut(r);
            for j in 0..h {
                let i_g = sigmoid(gates[j]);
                let f_g = sigmoid(gates[h + j]);
                let g_g = tanh_f(gates[2 * h + j]);
                let o_g = sigmoid(gates[3 * h + j]);
                c[j] = f_g * c[j] + i_g * g_g;
                hv[j] = o_g * tanh_f(c[j]);
            }
        }
    }

    /// Advances a batch of lanes by one step each, in lock-step, through
    /// the bottom (action-input) layer of a stack. `inputs[r]` is lane
    /// `r`'s input. This is the one inference step: the streaming scorer
    /// runs it at one lane, the batched scorer at one lane per session.
    ///
    /// One weight-matrix traversal (`wh` here, plus one `wx` row gather per
    /// acting lane) serves the whole batch, which is where the batched
    /// scorer's speedup comes from. Per lane the gate preactivations are
    /// the bias, plus the action's `wx` row, plus the `wh` product
    /// accumulated in ascending order, and no lane reads another lane's
    /// row; so lane `r` of an N-lane step is bit-identical to a one-lane
    /// step of that session. A [`StepInput::Pad`] lane gets the bias-only
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `states` has a different lane count than `inputs`, the
    /// state width does not match the layer, or an action index is out of
    /// the input range.
    ///
    /// # Example
    ///
    /// ```
    /// use ibcm_nn::{BatchScratch, LstmBatchState, LstmLayer, StepInput};
    /// let lstm = LstmLayer::new(6, 4, 9);
    /// let mut bs = BatchScratch::new();
    /// // Two lanes in lock-step ...
    /// let mut batch = LstmBatchState::new(2, 4);
    /// lstm.step_batch_scratch(&mut batch, &[StepInput::Action(1), StepInput::Action(5)], &mut bs);
    /// // ... match the same sessions stepped one at a time, bit for bit.
    /// let mut solo = LstmBatchState::new(1, 4);
    /// lstm.step_batch_scratch(&mut solo, &[StepInput::Action(5)], &mut bs);
    /// assert_eq!(batch.hiddens().row(1), solo.hiddens().row(0));
    /// ```
    pub fn step_batch_scratch(
        &self,
        states: &mut LstmBatchState,
        inputs: &[StepInput],
        scratch: &mut BatchScratch,
    ) {
        let lanes = inputs.len();
        assert_eq!(states.h.rows(), lanes, "one state lane per input");
        assert_eq!(states.h.cols(), self.hidden, "state size mismatch");
        self.init_batch_gates(lanes, scratch);
        for (r, input) in inputs.iter().enumerate() {
            if let StepInput::Action(a) = *input {
                assert!(a < self.input_dim, "action index {a} out of range");
                for (g, &w) in scratch.gates.row_mut(r).iter_mut().zip(self.wx.row(a).iter()) {
                    *g += w;
                }
            }
        }
        states.h.matmul_acc_into(&self.wh, &mut scratch.gates);
        self.step_batch_pointwise(states, scratch);
    }

    /// Advances a batch of lanes by one **dense** input row each, in
    /// lock-step, through an upper layer of a stack. Row `r` of `inputs` is
    /// lane `r`'s input vector (typically the [`LstmBatchState::hiddens`]
    /// of the layer below).
    ///
    /// Per lane the preactivations are the bias, then the `wx` product,
    /// then the `wh` product, each reduction in ascending order, so lane
    /// `r` is bit-identical to a one-lane step of that session.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts or widths disagree with the layer.
    pub fn step_batch_dense_scratch(
        &self,
        states: &mut LstmBatchState,
        inputs: &Matrix,
        scratch: &mut BatchScratch,
    ) {
        let lanes = inputs.rows();
        assert_eq!(states.h.rows(), lanes, "one state lane per input row");
        assert_eq!(states.h.cols(), self.hidden, "state size mismatch");
        assert_eq!(inputs.cols(), self.input_dim, "dense input width");
        self.init_batch_gates(lanes, scratch);
        inputs.matmul_acc_into(&self.wx, &mut scratch.gates);
        states.h.matmul_acc_into(&self.wh, &mut scratch.gates);
        self.step_batch_pointwise(states, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps each session alone, one lane, through a two-layer stack,
    /// reusing `scratch`; returns each layer's final hidden row.
    fn solo_run(
        bottom: &LstmLayer,
        upper: &LstmLayer,
        session: &[usize],
        scratch: &mut BatchScratch,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut st0 = LstmBatchState::new(1, bottom.hidden());
        let mut st1 = LstmBatchState::new(1, upper.hidden());
        for &a in session {
            bottom.step_batch_scratch(&mut st0, &[StepInput::Action(a)], scratch);
            upper.step_batch_dense_scratch(&mut st1, st0.hiddens(), scratch);
        }
        (st0.hiddens().row(0).to_vec(), st1.hiddens().row(0).to_vec())
    }

    /// Lane `r` of an N-lane lock-step run must be bitwise identical to a
    /// one-lane run of session `r` alone. The one-lane runs reuse the
    /// scratch the N-lane run left at its widest shape.
    #[test]
    fn step_batch_matches_per_lane_steps() {
        let bottom = LstmLayer::new(7, 5, 21);
        let upper = LstmLayer::new(5, 5, 22);
        let sessions: [&[usize]; 3] = [&[0, 3, 6, 2, 5], &[1, 4, 2], &[6]];
        // The sessions in lock-step, retiring lanes as they end.
        let mut b0 = LstmBatchState::new(sessions.len(), 5);
        let mut b1 = LstmBatchState::new(sessions.len(), 5);
        let mut bs = BatchScratch::new();
        let mut finals: Vec<(Vec<f32>, Vec<f32>)> = vec![Default::default(); sessions.len()];
        let max_len = sessions.iter().map(|s| s.len()).max().unwrap();
        for t in 0..max_len {
            let active = sessions.iter().filter(|s| s.len() > t).count();
            b0.truncate(active);
            b1.truncate(active);
            let inputs: Vec<StepInput> = sessions[..active]
                .iter()
                .map(|s| StepInput::Action(s[t]))
                .collect();
            bottom.step_batch_scratch(&mut b0, &inputs, &mut bs);
            let below = b0.hiddens().clone();
            upper.step_batch_dense_scratch(&mut b1, &below, &mut bs);
            for r in 0..active {
                if sessions[r].len() == t + 1 {
                    finals[r] = (b0.hiddens().row(r).to_vec(), b1.hiddens().row(r).to_vec());
                }
            }
        }
        for (r, s) in sessions.iter().enumerate() {
            assert_eq!(solo_run(&bottom, &upper, s, &mut bs), finals[r], "lane {r}");
        }
    }

    #[test]
    fn step_batch_pad_matches_pad_step() {
        let lstm = LstmLayer::new(4, 3, 8);
        let mut batch = LstmBatchState::new(2, 3);
        lstm.step_batch_scratch(
            &mut batch,
            &[StepInput::Pad, StepInput::Action(2)],
            &mut BatchScratch::new(),
        );
        let mut solo = LstmBatchState::new(1, 3);
        lstm.step_batch_scratch(&mut solo, &[StepInput::Pad], &mut BatchScratch::new());
        assert_eq!(batch.hiddens().row(0), solo.hiddens().row(0));
    }

    #[test]
    fn batch_state_truncate_keeps_leading_lanes() {
        let lstm = LstmLayer::new(4, 3, 8);
        let mut batch = LstmBatchState::new(3, 3);
        lstm.step_batch_scratch(
            &mut batch,
            &[StepInput::Action(0), StepInput::Action(1), StepInput::Action(2)],
            &mut BatchScratch::new(),
        );
        let lane0 = batch.hiddens().row(0).to_vec();
        batch.truncate(1);
        assert_eq!(batch.lanes(), 1);
        assert_eq!(batch.hiddens().row(0), lane0.as_slice());
    }

    fn tiny_inputs() -> Vec<Vec<StepInput>> {
        vec![
            vec![StepInput::Action(0), StepInput::Pad],
            vec![StepInput::Action(2), StepInput::Action(1)],
            vec![StepInput::Action(1), StepInput::Action(2)],
        ]
    }

    #[test]
    fn forward_shapes() {
        let lstm = LstmLayer::new(3, 5, 7);
        let cache = lstm.forward(&tiny_inputs());
        assert_eq!(cache.steps(), 3);
        assert_eq!(cache.batch(), 2);
        for hm in cache.hiddens() {
            assert_eq!((hm.rows(), hm.cols()), (2, 5));
        }
    }

    #[test]
    fn hidden_values_bounded() {
        let lstm = LstmLayer::new(4, 6, 3);
        let cache = lstm.forward(&tiny_inputs());
        for hm in cache.hiddens() {
            assert!(hm.as_slice().iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn pad_only_input_keeps_state_small_but_defined() {
        let lstm = LstmLayer::new(3, 4, 11);
        let cache = lstm.forward(&[vec![StepInput::Pad], vec![StepInput::Pad]]);
        // With zero input the state is still updated through biases; it must
        // be finite and identical across identical pad steps' dynamics.
        for hm in cache.hiddens() {
            assert!(hm.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn step_matches_forward_unroll() {
        let lstm = LstmLayer::new(5, 4, 9);
        let seq = [StepInput::Action(1), StepInput::Action(4), StepInput::Pad, StepInput::Action(0)];
        let batch: Vec<Vec<StepInput>> = seq.iter().map(|&s| vec![s]).collect();
        let cache = lstm.forward(&batch);
        let mut state = LstmBatchState::new(1, 4);
        let mut scratch = BatchScratch::new();
        for (t, &s) in seq.iter().enumerate() {
            lstm.step_batch_scratch(&mut state, &[s], &mut scratch);
            let expected = cache.hiddens()[t].row(0);
            for (a, b) in state.hiddens().row(0).iter().zip(expected.iter()) {
                assert!((a - b).abs() < 1e-5, "step {t}: {a} vs {b}");
            }
        }
    }

    /// A scratch slab left wider by an earlier step must not leak into a
    /// later, narrower one: reused and fresh workspaces give the same bits.
    #[test]
    fn reused_batch_scratch_matches_fresh_exactly() {
        let lstm = LstmLayer::new(5, 4, 9);
        let seq = [StepInput::Action(1), StepInput::Action(4), StepInput::Pad, StepInput::Action(0)];
        let mut reused_scratch = BatchScratch::new();
        let mut wide = LstmBatchState::new(3, 4);
        lstm.step_batch_scratch(&mut wide, &[StepInput::Action(2); 3], &mut reused_scratch);
        let mut fresh = LstmBatchState::new(1, 4);
        let mut reused = LstmBatchState::new(1, 4);
        for &s in &seq {
            lstm.step_batch_scratch(&mut fresh, &[s], &mut BatchScratch::new());
            lstm.step_batch_scratch(&mut reused, &[s], &mut reused_scratch);
            assert_eq!(fresh, reused, "scratch reuse must be bit-identical");
        }
    }

    #[test]
    fn forward_into_reused_cache_is_bit_identical() {
        let lstm = LstmLayer::new(4, 6, 13);
        let mut cache = LstmCache::default();
        let mut scratch = Scratch::new();
        // Longer sequence first so the reused buffers shrink on the second
        // call (the harder resize direction).
        let long: Vec<Vec<StepInput>> = (0..5).map(|t| vec![StepInput::Action(t % 4)]).collect();
        lstm.forward_into(&long, &mut cache, &mut scratch);
        let short = tiny_inputs();
        lstm.forward_into(&short, &mut cache, &mut scratch);
        let fresh = lstm.forward(&short);
        assert_eq!(cache.steps(), fresh.steps());
        for (a, b) in cache.hiddens().iter().zip(fresh.hiddens()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn backward_into_reused_buffers_bit_identical() {
        let lstm = LstmLayer::new(4, 3, 17);
        let inputs = tiny_inputs();
        let cache = lstm.forward(&inputs);
        let d_hiddens: Vec<Matrix> = (0..3).map(|t| Matrix::uniform(2, 3, 1.0, 60 + t)).collect();
        let fresh = lstm.backward(&cache, &d_hiddens);
        let mut grads = LstmGrads::default();
        let mut scratch = Scratch::new();
        // Run twice through the same buffers; the second pass must still
        // match the fresh-allocation result exactly.
        lstm.backward_into(&cache, &d_hiddens, &mut grads, &mut scratch);
        lstm.backward_into(&cache, &d_hiddens, &mut grads, &mut scratch);
        assert_eq!(grads.dwx, fresh.dwx);
        assert_eq!(grads.dwh, fresh.dwh);
        assert_eq!(grads.db, fresh.db);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let lstm = LstmLayer::new(3, 4, 1);
        let (_, _, b) = lstm.params();
        assert!(b[4..8].iter().all(|&v| v == 1.0));
        assert!(b[0..4].iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_rejects_out_of_vocab() {
        let lstm = LstmLayer::new(3, 4, 1);
        let _ = lstm.forward(&[vec![StepInput::Action(3)]]);
    }

    #[test]
    fn deterministic_construction() {
        let a = LstmLayer::new(6, 5, 123);
        let b = LstmLayer::new(6, 5, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_forward_matches_sparse_on_one_hot_inputs() {
        // Feeding explicit one-hot matrices through forward_dense must give
        // exactly the same hidden states as the sparse one-hot path.
        let lstm = LstmLayer::new(4, 3, 21);
        let sparse = vec![
            vec![StepInput::Action(1), StepInput::Action(3)],
            vec![StepInput::Action(0), StepInput::Pad],
        ];
        let dense: Vec<Matrix> = sparse
            .iter()
            .map(|step| {
                let mut m = Matrix::zeros(2, 4);
                for (b, &inp) in step.iter().enumerate() {
                    if let StepInput::Action(a) = inp {
                        m.set(b, a, 1.0);
                    }
                }
                m
            })
            .collect();
        let sparse_cache = lstm.forward(&sparse);
        let (dense_cache, _) = lstm.forward_dense(&dense);
        for (a, b) in sparse_cache.hiddens().iter().zip(dense_cache.hiddens()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn step_dense_matches_forward_dense() {
        let lstm = LstmLayer::new(3, 4, 33);
        let inputs: Vec<Matrix> = (0..4)
            .map(|t| Matrix::from_rows(&[&[0.3 * t as f32, -0.1, 0.7]]))
            .collect();
        let (cache, _) = lstm.forward_dense(&inputs);
        let mut state = LstmBatchState::new(1, 4);
        let mut scratch = BatchScratch::new();
        for (t, x) in inputs.iter().enumerate() {
            lstm.step_batch_dense_scratch(&mut state, x, &mut scratch);
            for (a, b) in state.hiddens().row(0).iter().zip(cache.hiddens()[t].row(0)) {
                assert!((a - b).abs() < 1e-5, "step {t}");
            }
        }
    }

    #[test]
    fn state_reset_matches_fresh_state() {
        let lstm = LstmLayer::new(3, 4, 35);
        let mut scratch = BatchScratch::new();
        let mut reused = LstmBatchState::new(2, 4);
        let pair = [StepInput::Action(1), StepInput::Action(2)];
        lstm.step_batch_scratch(&mut reused, &pair, &mut scratch);
        lstm.step_batch_scratch(&mut reused, &pair, &mut scratch);
        reused.reset();
        assert_eq!(reused, LstmBatchState::new(2, 4));
        let mut fresh = LstmBatchState::new(2, 4);
        lstm.step_batch_scratch(&mut reused, &pair, &mut scratch);
        lstm.step_batch_scratch(&mut fresh, &pair, &mut scratch);
        assert_eq!(reused, fresh);
    }

    /// Finite-difference check of the dense backward pass, including the
    /// input gradients a stacked LSTM propagates downward.
    // Finite-difference check: too many forward passes for Miri.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn dense_backward_gradcheck() {
        let lstm = LstmLayer::new(3, 2, 5);
        let inputs: Vec<Matrix> = (0..3)
            .map(|t| Matrix::uniform(2, 3, 0.8, 100 + t as u64))
            .collect();
        // Loss: sum of squares of the final hidden state.
        let eval = |l: &LstmLayer, xs: &[Matrix]| -> f32 {
            let (cache, _) = l.forward_dense(xs);
            cache
                .hiddens()
                .last()
                .unwrap()
                .as_slice()
                .iter()
                .map(|&v| v * v)
                .sum()
        };
        let (cache, dense) = lstm.forward_dense(&inputs);
        let mut d_hiddens: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(2, 2)).collect();
        let last = cache.hiddens().last().unwrap().clone();
        let dlast = d_hiddens.last_mut().unwrap();
        for (d, &v) in dlast.as_mut_slice().iter_mut().zip(last.as_slice()) {
            *d = 2.0 * v;
        }
        let (grads, d_inputs) = lstm.backward_dense(&cache, &dense, &d_hiddens);

        // Numeric check on wh.
        let mut theta: Vec<f32> = lstm.params().1.as_slice().to_vec();
        let num = crate::gradcheck::numerical_grad(&mut theta, 1e-2, |t| {
            let mut lc = lstm.clone();
            lc.params_mut().1.as_mut_slice().copy_from_slice(t);
            eval(&lc, &inputs)
        });
        let err = crate::gradcheck::max_rel_error(grads.dwh.as_slice(), &num, 1e-2);
        assert!(err < 2e-2, "dense dwh rel error {err}");

        // Numeric check on the first step's input gradient.
        let mut x0: Vec<f32> = inputs[0].as_slice().to_vec();
        let num = crate::gradcheck::numerical_grad(&mut x0, 1e-2, |t| {
            let mut xs = inputs.clone();
            xs[0] = Matrix::from_vec(2, 3, t.to_vec());
            eval(&lstm, &xs)
        });
        let err = crate::gradcheck::max_rel_error(d_inputs[0].as_slice(), &num, 1e-2);
        assert!(err < 2e-2, "dense d_input rel error {err}");
    }
}
