use crate::matrix::Matrix;

/// Reusable workspace for the allocation-free training passes.
///
/// One `Scratch` holds every intermediate buffer the LSTM layers' forward
/// and backward passes need outside their parameter and cache storage: the
/// one-hot gather indices for the embedding step, and the backward-pass
/// temporaries (`d_gates`, the cell/hidden recurrence gradients, and the
/// all-zero pre-sequence state). Buffers grow on first use and are reused
/// afterwards, so steady-state training performs no heap allocation per
/// batch.
///
/// The same instance may be threaded through any mix of
/// [`LstmLayer::forward_into`](crate::LstmLayer::forward_into) and
/// [`LstmLayer::backward_into`](crate::LstmLayer::backward_into); each
/// call resets the portions it uses. Inference steps use [`BatchScratch`].
///
/// # Example
///
/// ```
/// use ibcm_nn::{LstmCache, LstmLayer, Scratch, StepInput};
/// let lstm = LstmLayer::new(10, 8, 1);
/// let mut cache = LstmCache::default();
/// let mut scratch = Scratch::new();
/// let steps = vec![vec![StepInput::Action(3)], vec![StepInput::Action(7)]];
/// lstm.forward_into(&steps, &mut cache, &mut scratch);
/// lstm.forward_into(&steps[..1], &mut cache, &mut scratch);
/// assert_eq!(cache.steps(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// One-hot gather indices for the batched embedding step.
    pub(crate) hot: Vec<Option<usize>>,
    /// Gate gradients for one BPTT step (`batch x 4*hidden`).
    pub(crate) d_gates: Matrix,
    /// Cell-state recurrence gradient ping-pong buffers.
    pub(crate) dc_a: Matrix,
    pub(crate) dc_b: Matrix,
    /// Hidden-state recurrence gradient.
    pub(crate) dh: Matrix,
    /// All-zero `batch x hidden` stand-in for the pre-sequence state.
    pub(crate) zero: Matrix,
}

impl Scratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Reusable workspace for the lock-step inference step.
///
/// `BatchScratch` carries the batch-major `lanes x 4*hidden` gate slab that
/// [`LstmLayer::step_batch_scratch`](crate::LstmLayer::step_batch_scratch)
/// and [`LstmLayer::step_batch_dense_scratch`](crate::LstmLayer::step_batch_dense_scratch)
/// drive through the weight matrices once per timestep for the whole batch.
/// The streaming scorer keeps one at one lane; the batched scorer reuses
/// one across buckets. The slab is resized in place, so steady-state
/// scoring performs no heap allocation per step once the widest batch has
/// been seen.
///
/// # Example
///
/// ```
/// use ibcm_nn::{BatchScratch, LstmBatchState, LstmLayer, StepInput};
/// let lstm = LstmLayer::new(10, 8, 1);
/// let mut scratch = BatchScratch::new();
/// // Two sessions in lock-step ...
/// let mut states = LstmBatchState::new(2, 8);
/// lstm.step_batch_scratch(
///     &mut states,
///     &[StepInput::Action(3), StepInput::Action(7)],
///     &mut scratch,
/// );
/// // ... and one streaming session, through the same workspace.
/// let mut stream = LstmBatchState::new(1, 8);
/// lstm.step_batch_scratch(&mut stream, &[StepInput::Action(7)], &mut scratch);
/// assert_eq!(states.hiddens().row(1), stream.hiddens().row(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Batch-major `lanes x 4*hidden` gate slab for lock-step steps.
    pub(crate) gates: Matrix,
}

impl BatchScratch {
    /// Creates an empty workspace; the slab is sized lazily on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}
