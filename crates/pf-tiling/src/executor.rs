//! Execution of 2D convolutions through tiled 1D convolutions.
//!
//! [`TiledConvolver`] drives a [`Conv1dEngine`] according to a
//! [`TilingPlan`]:
//!
//! * [`TiledConvolver::correlate2d_valid`] reproduces 2D `valid`
//!   cross-correlation **exactly** (the identity proved in Section III-A),
//! * [`TiledConvolver::correlate2d_same`] reproduces 2D `same`
//!   cross-correlation either approximately (the paper's default, with the
//!   documented *edge effect* at row boundaries) or exactly (with horizontal
//!   zero-padding, at the cost of longer tiles).
//!
//! # Prepare, then run — one path, three bodies
//!
//! Every entry point is the same two steps. A single kernel is a kernel set
//! of one, and `valid` mode is `same` mode at zero offset.
//!
//! 1. [`TiledConvolver::prepare_set`] does everything that depends only on
//!    the kernels and the shape of the input plane: the shape checks, where
//!    the output grid sits on the plane the tiles are cut from (row and
//!    column offsets, horizontal padding), the [`TilingPlan`], and — for the
//!    one strategy the plan selects — every *stack* of tiled 1D kernels
//!    (the kernels one signal is correlated against), prepared **as a
//!    stack** through [`Conv1dEngine::prepare_kernels`] and **classified
//!    once** by how a run will drive it: `Shared` (every member prepared under one
//!    [`PreparedConv1d::signal_key`], and the signal's transform has more
//!    than one reader), `Each` (prepared, nothing to share) or `Plain` (the
//!    engine declined; all or nothing per stack). Each stack goes to the
//!    engine in one call (the JTC sends the kernels' rows of the joint
//!    plane through its first lens four to a pass); engines that report
//!    [`Conv1dEngine::prepares_kernels`] `== false` are never asked. The
//!    result is an owned [`KernelSet`]: the filter as it sits in the PFCU
//!    while input tiles stream past it, and the one thing prepared once and
//!    reused — nothing else is cached. Whoever meets the same kernels again
//!    keeps the set: the CNN executor one per layer, a batch the one it
//!    prepared.
//! 2. [`TiledConvolver::correlate2d_set`] runs a set against one input: it
//!    binds each stack's lead to the calling engine
//!    ([`Conv1dEngine::bind_prepared`], once per stack run — the set call
//!    made on the lead conditions every member on that engine's state, so
//!    one set can serve several engines of one configuration through
//!    [`TiledConvolver::on`]), cuts the signals, calls the engine and
//!    hands every output sample to the caller's sink in maximal row-major
//!    runs: a tile of row tiling whose rows are as long as the output's
//!    (`Wraparound` `same` layers) leaves in one run per kernel, anything
//!    else one run per row. It runs
//!    exactly one of three strategy bodies — row tiling, partial row
//!    tiling, row partitioning — the three genuinely different algorithms
//!    of Section III. Output samples whose window hangs over the edge of a
//!    tile (only possible at a non-zero column offset) are recomputed by
//!    one border body shared by all three: a direct dot product per
//!    position, every kernel of the set at once, kernel index innermost.
//!
//! The `correlate2d_*` entry points are step 1 then step 2 into fresh output
//! planes. A caller that meets the same kernels again (a CNN layer, image
//! after image) keeps the set and repeats only step 2.
//!
//! # One signal, one stack, one call
//!
//! Under all three strategies the unit of work is **one signal against one
//! stack**, every kernel of the stack before the next signal, written
//! kernel-major into one scratch per chunk. A `Shared` stack has the signal
//! transformed once ([`PreparedConv1d::prepare_signal_batch`] — for the JTC
//! its real-input half-spectrum), an `Each` stack does not; either goes to
//! the engine whole ([`PreparedConv1d::correlate_set_into`]: the JTC carries
//! four kernels to a lane block through its second lens, the digital engine
//! sixteen outputs of a kernel in registers). A `Plain` stack runs the
//! engine's [`Conv1dEngine::correlate_valid`]. Nothing is decided per tile
//! but its length: row tiling asks each set call only for the samples its
//! tile's output rows read, so a plane's last tile, which completes fewer
//! rows, asks for a prefix of every correlation (the `tiling.samples`
//! counter sums what a run asks for).
//!
//! * **One signal stage.** Every body first cuts the distinct signals its
//!   run reads, each once, planar into one buffer per length, and takes
//!   their transforms through any `Shared` stack of that length in one
//!   batched call per chunk: one contiguous chunk per pool thread, the
//!   whole buffer where work does not fan out. Transforms are indexed by
//!   position, never cached: by tile under row tiling (a chunk runs its
//!   tiles right after transforming them), by `(window start row, group
//!   row count)` under partial row tiling, by `(plane row, partition)`
//!   under row partitioning. A run holds them all, O(plane);
//! * independent chunks/rows are dispatched across rayon worker threads,
//!   results collected in input order and each a pure function of its
//!   inputs, so the output is bit-identical at every pool width. Engines
//!   that report [`Conv1dEngine::is_deterministic`] `== false` (optical
//!   sensing noise) are always driven serially so their noise streams stay
//!   reproducible, and work fans out only when this call is the outermost
//!   parallel region: on a worker of somebody else's region (a batch fanned
//!   out across images, a sweep across grid points) the pool answers 1;
//! * with telemetry enabled each chunk holds one [`StageAcc`] across its
//!   loop — the engine marks its stages once per lane block or per
//!   convolution, every mark exact — and flushes once; each run flushes
//!   its tallies into the `tiling.*` counters of the attached [`Telemetry`]
//!   handle (read them from a snapshot: `docs/PERFORMANCE.md` has the
//!   recipe). A transform miss is a transform taken, a hit a 1D
//!   correlation that read one, under every strategy and pool width.

use std::ops::Range;
use std::sync::Arc;

use pf_dsp::conv::Matrix;
use pf_telemetry::{Counter, Stage, StageAcc, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::engine::{Conv1dEngine, PreparedConv1d, PreparedSignal};
use crate::error::TilingError;
use crate::plan::{TilingPlan, TilingVariant};
use crate::tiler::{fill_tile_rows, tile_kernel_rows};

/// How `same`-mode horizontal boundaries are handled (Section III-A, "Edge
/// effect").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EdgeHandling {
    /// The paper's default: rows are tiled without horizontal padding, so a
    /// kernel row that slides past the end of an input row picks up values
    /// from the beginning of the next row instead of zeros. Cheap, slightly
    /// approximate at the left/right image borders.
    #[default]
    Wraparound,
    /// Each input row is zero-padded horizontally before tiling, making the
    /// result identical to 2D `same` convolution at the cost of
    /// `kernel_cols - 1` extra elements per tiled row.
    ZeroPad,
}

/// Whether a convolver may fan its tiles out across the pool.
///
/// The tiling layer only ever parallelises over *tiles* — rows of one
/// image's joint plane — and only when it is the outermost parallel
/// region: inside somebody else's region the pool width is 1 and tiles run
/// serially whatever the grain says (see `docs/PERFORMANCE.md`, "Reading
/// the scaling curves"). Both values are bit-identical (every tile is a
/// pure function of its inputs and results are collected in input order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelGrain {
    /// Tiles fan out when the engine's cost hint asks for it
    /// ([`Conv1dEngine::prefers_parallel_tiles`]) and the pool has threads
    /// to give.
    #[default]
    Auto,
    /// Tiles always run serially — the pinned serial reference of tests
    /// and of the benchmark's mirror.
    Image,
}

/// What one run did, in the order of the `tiling.*` counters it is flushed
/// into: tiles, 1D convolutions, signal-transform hits and misses (a miss
/// is a transform taken, a hit a 1D correlation that read one) and the 1D
/// output samples asked of the engine (the `out.len()` of every set call).
type Tally = [usize; 5];

/// The distinct signals of one length a run reads: cut once, back to back
/// in position order, with their transforms if a `Shared` stack took them.
struct Signals<K> {
    len: usize,
    keys: Vec<K>,
    samples: Vec<f64>,
    transforms: Option<Vec<Arc<dyn PreparedSignal>>>,
}

/// How a row of [`TiledConvolver::by_output_rows`] runs the signal of a
/// length at a position against a stack, kernel-major into the slice.
type Apply<'a, K> = &'a mut dyn FnMut(&Run<'_>, usize, K, &mut [f64]);

/// The tiled 1D kernels one signal is correlated against — a filter set as
/// it sits in the PFCU — classified **once**, when the set is prepared, by
/// how a run drives it. All or nothing: a stack is never driven kernel by
/// kernel down different paths.
#[derive(Debug)]
enum Stack {
    /// Every member prepared under one [`PreparedConv1d::signal_key`], and
    /// the signal's transform has more than one reader (several kernels, or
    /// a strategy whose signal positions repeat): the signal is transformed
    /// once and the whole stack goes to the engine in one call
    /// ([`PreparedConv1d::correlate_set_into`]).
    Shared(Vec<Arc<dyn PreparedConv1d>>),
    /// Every member prepared, nothing to share (no common key, or a single
    /// kernel under row tiling, whose tile positions never repeat): each
    /// member runs its own full chain.
    Each(Vec<Arc<dyn PreparedConv1d>>),
    /// The engine declined to prepare: the tiled kernel vectors go to
    /// [`Conv1dEngine::correlate_valid`].
    Plain(Vec<Vec<f64>>),
}

impl Stack {
    /// The prepared members, as the set holds them: not yet bound to any
    /// engine's own state.
    fn members(&self) -> &[Arc<dyn PreparedConv1d>] {
        match self {
            Stack::Shared(members) | Stack::Each(members) => members,
            Stack::Plain(_) => &[],
        }
    }

    /// This stack for the length of one run, over its members as `bound`
    /// for it: the lead bound to the calling engine
    /// ([`Conv1dEngine::bind_prepared`]), the rest as the set holds them.
    fn run<'a>(&'a self, bound: &'a [&'a dyn PreparedConv1d]) -> Run<'a> {
        match self {
            Stack::Shared(_) => Run::Shared(bound),
            Stack::Each(_) => Run::Each(bound),
            Stack::Plain(tiled) => Run::Plain(tiled),
        }
    }
}

/// A [`Stack`] bound for one run: what the engine's set call takes, built
/// once per run.
enum Run<'a> {
    Shared(&'a [&'a dyn PreparedConv1d]),
    Each(&'a [&'a dyn PreparedConv1d]),
    Plain(&'a [Vec<f64>]),
}

impl<'a> Run<'a> {
    /// The members that read a signal's shared transform: the whole stack
    /// if it is shared, none otherwise.
    fn sharing(&self) -> &'a [&'a dyn PreparedConv1d] {
        match self {
            Run::Shared(set) => set,
            _ => &[],
        }
    }
}

/// How the one strategy body a [`KernelSet`]'s plan selects indexes the
/// set's stacks.
#[derive(Debug)]
enum Layout {
    /// One stack: every kernel tiled whole.
    RowTiling,
    /// `(first kernel row, kernel rows)` per kernel-row group; `stacks[g]`
    /// tiles group `g` of every kernel.
    PartialRowTiling(Vec<(usize, usize)>),
    /// The overlap-save column partitions `(start, end)` every row shares;
    /// `stacks[dr * parts + p]` holds kernel rows `dr`, correlated against
    /// partition `p` of the plane row they land on.
    RowPartitioning(Vec<(usize, usize)>),
}

/// Kernels in a lane block of the border body ([`Taps::window`]): eight
/// running sums per pass, two for the row, held in registers.
const BORDER_LANES: usize = 8;

/// A set's 2D kernels as the border body reads them: **tap-major**, the
/// samples every kernel of the set has at one `(row, col)` side by side,
/// kernel index innermost, the set padded with zero kernels to whole lane
/// blocks of [`BORDER_LANES`].
#[derive(Debug)]
struct Taps {
    /// Kernels in the set (the padding not counted).
    count: usize,
    /// `(rows, cols)` of every kernel.
    shape: (usize, usize),
    /// Tap `(dr, dc)` of kernel `k` at `(dr * cols + dc) * padded + k`,
    /// `padded` being `count` rounded up to whole lane blocks.
    values: Vec<f64>,
}

impl Taps {
    /// Transposes `kernels` (one shape, at least one) tap-major.
    fn new(kernels: &[Matrix]) -> Self {
        let shape = (kernels[0].rows(), kernels[0].cols());
        let padded = kernels.len().next_multiple_of(BORDER_LANES);
        let mut values = vec![0.0; shape.0 * shape.1 * padded];
        for (k, kernel) in kernels.iter().enumerate() {
            for (tap, &v) in kernel.data().iter().enumerate() {
                values[tap * padded + k] = v;
            }
        }
        Self {
            count: kernels.len(),
            shape,
            values,
        }
    }

    /// The border body: the direct dot product of kernel rows `rows` of
    /// every kernel with the window of `plane` whose top-left corner is at
    /// `(top, left)` (`top` addresses kernel row 0), handed to `sample(k,
    /// value)` in kernel order.
    ///
    /// Taps that fall outside the plane are skipped, not multiplied by zero
    /// (a zero times an infinite sample would be a NaN). Every kernel's
    /// terms are added exactly as the scalar sum adds them — a row's
    /// products in column order onto `0.0`, the row sums in row order onto
    /// `0.0` — so a lane block computes, kernel for kernel, the scalar
    /// result bit for bit; the block only runs eight such sums side by
    /// side.
    fn window(
        &self,
        plane: &Matrix,
        rows: Range<usize>,
        top: isize,
        left: isize,
        mut sample: impl FnMut(usize, f64),
    ) {
        let cols = self.shape.1;
        let padded = self.values.len() / (self.shape.0 * cols);
        let live_rows = on_plane(rows, top, plane.rows());
        let live_cols = on_plane(0..cols, left, plane.cols());
        for block in (0..self.count).step_by(BORDER_LANES) {
            let mut sums = [0.0f64; BORDER_LANES];
            for dr in live_rows.clone() {
                let row = plane.row((top + dr as isize) as usize);
                let mut row_sums = [0.0f64; BORDER_LANES];
                for dc in live_cols.clone() {
                    let x = row[(left + dc as isize) as usize];
                    let at = (dr * cols + dc) * padded + block;
                    let taps: &[f64; BORDER_LANES] = self.values[at..at + BORDER_LANES]
                        .try_into()
                        .expect("whole lane blocks");
                    for (s, &t) in row_sums.iter_mut().zip(taps) {
                        *s += x * t;
                    }
                }
                for (s, r) in sums.iter_mut().zip(row_sums) {
                    *s += r;
                }
            }
            for (l, s) in sums.into_iter().enumerate().take(self.count - block) {
                sample(block + l, s);
            }
        }
    }
}

/// The part of `span` whose offsets land on a plane axis of `len` samples
/// when offset `i` sits at `at + i`.
fn on_plane(span: Range<usize>, at: isize, len: usize) -> Range<usize> {
    let lo = (-at).max(span.start as isize);
    let hi = (len as isize - at).min(span.end as isize);
    lo as usize..hi.max(lo) as usize
}

/// Kernels of one shape lowered for inputs of one shape: everything a 2D
/// convolution does that does not depend on the input
/// ([`TiledConvolver::prepare_set`]), kept so that it is done once however
/// many inputs stream past ([`TiledConvolver::correlate2d_set`]).
#[derive(Debug)]
pub struct KernelSet {
    /// The 2D kernels, tap-major: the border body reads them.
    taps: Taps,
    /// `(rows, cols)` of the inputs this set runs against.
    input_shape: (usize, usize),
    output_shape: (usize, usize),
    /// Output element `(r, c)` is the window whose top-left corner is
    /// `plane[(r - row_off, c - col_off)]`. `valid` mode is the zero-offset
    /// frame over the input itself; `same` mode offsets by the kernel's
    /// half extents (under [`EdgeHandling::ZeroPad`] the column half is
    /// absorbed by the padding, so `col_off` is zero).
    row_off: usize,
    col_off: usize,
    /// Zero columns added left and right of every input row before tiling
    /// ([`EdgeHandling::ZeroPad`]): the plane is the padded copy.
    pad: (usize, usize),
    /// Planned over the plane, padding included.
    plan: TilingPlan,
    layout: Layout,
    stacks: Vec<Stack>,
}

impl KernelSet {
    /// `(rows, cols)` of every output plane of this set: one plane per
    /// kernel.
    pub fn output_shape(&self) -> (usize, usize) {
        self.output_shape
    }
}

/// Executes 2D convolutions on a 1D convolution backend via row tiling.
#[derive(Debug)]
pub struct TiledConvolver<E> {
    engine: E,
    n_conv: usize,
    grain: ParallelGrain,
    /// Observability handle: disabled by default (zero-cost no-op path).
    /// When enabled, 1D convolutions and signal transforms mark their
    /// stages on a [`StageAcc`] (the engines' `_acc` forms) and each run
    /// flushes its tallies into the `tiling.*` counters.
    telemetry: Telemetry,
    /// The `tiling.*` counter handles, resolved once when the telemetry
    /// handle is attached: the per-run flush must not pay six name-lookup
    /// allocations.
    counters: TilingCounters,
}

/// Cached handles for the `tiling.*` counters (all no-ops when built from
/// a disabled handle).
#[derive(Clone, Debug, Default)]
struct TilingCounters {
    tiles: Counter,
    convs_1d: Counter,
    spectrum_hits: Counter,
    spectrum_misses: Counter,
    samples: Counter,
    kernel_prepares: Counter,
    conv2d_calls: Counter,
}

impl TilingCounters {
    fn new(tel: &Telemetry) -> Self {
        Self {
            tiles: tel.counter("tiling.tiles"),
            convs_1d: tel.counter("tiling.convs_1d"),
            spectrum_hits: tel.counter("tiling.spectrum_hits"),
            spectrum_misses: tel.counter("tiling.spectrum_misses"),
            samples: tel.counter("tiling.samples"),
            kernel_prepares: tel.counter("tiling.kernel_prepares"),
            conv2d_calls: tel.counter("tiling.conv2d_calls"),
        }
    }
}

impl<E: Conv1dEngine> TiledConvolver<E> {
    /// Creates a convolver for a backend with 1D capacity `n_conv`
    /// (the number of input waveguides of a PFCU). The grain defaults to
    /// [`ParallelGrain::Auto`]; see [`TiledConvolver::with_grain`].
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::CapacityTooSmall`] if `n_conv` is zero or
    /// exceeds the backend's own maximum signal length.
    pub fn new(engine: E, n_conv: usize) -> Result<Self, TilingError> {
        if n_conv == 0 {
            return Err(TilingError::CapacityTooSmall {
                n_conv,
                required: 1,
            });
        }
        check_capacity(&engine, n_conv)?;
        Ok(Self {
            engine,
            n_conv,
            grain: ParallelGrain::Auto,
            telemetry: Telemetry::disabled(),
            counters: TilingCounters::default(),
        })
    }

    /// Attaches a telemetry handle. With a disabled handle (the default)
    /// execution is byte-for-byte the untraced path; with an enabled handle
    /// 1D convolutions report per-stage time and the tallies (tiles, 1D
    /// convolutions and spectrum reuse per run, kernel preparations per
    /// prepared set) go into the `tiling.*` counters. Results are
    /// bit-identical either way — tracing observes, never perturbs.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.counters = TilingCounters::new(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// Sets the parallelism grain: [`ParallelGrain::Image`] pins tiles
    /// serial, [`ParallelGrain::Auto`] (the default) leaves the decision to
    /// the engine's hint and the pool. Both produce bit-identical results.
    pub fn with_grain(mut self, grain: ParallelGrain) -> Self {
        self.grain = grain;
        self
    }

    /// A view of this convolver driving **another engine** — same capacity,
    /// grain and telemetry handle. `engine` must prepare kernels
    /// interchangeably with this convolver's own: the same configuration up
    /// to per-engine state such as a noise seed. A [`KernelSet`] either
    /// prepared then runs on the other: every stack run binds its lead to
    /// its own engine ([`Conv1dEngine::bind_prepared`]) and the set call
    /// made on that lead conditions every member on the lead's state
    /// ([`PreparedConv1d::correlate_set_into`]), so a per-request seeded
    /// engine running a set the host prepared pays for one binding per
    /// stack run, never for the deterministic preparations, and draws every
    /// member's noise from its own stream.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::CapacityTooSmall`] if this convolver's
    /// capacity exceeds `engine`'s maximum signal length.
    pub fn on<F: Conv1dEngine>(&self, engine: F) -> Result<TiledConvolver<F>, TilingError> {
        check_capacity(&engine, self.n_conv)?;
        Ok(TiledConvolver {
            engine,
            n_conv: self.n_conv,
            grain: self.grain,
            telemetry: self.telemetry.clone(),
            counters: self.counters.clone(),
        })
    }

    /// A reference to the underlying backend.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Builds the tiling plan this convolver would use for the given shapes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`].
    pub fn plan(&self, input: &Matrix, kernel: &Matrix) -> Result<TilingPlan, TilingError> {
        TilingPlan::new(
            input.rows(),
            input.cols(),
            kernel.rows(),
            kernel.cols(),
            self.n_conv,
        )
    }

    /// 2D `valid` cross-correlation computed through tiled 1D convolutions.
    ///
    /// The result is bit-identical (up to backend numerics) to
    /// [`pf_dsp::conv::correlate2d`] with [`pf_dsp::conv::PaddingMode::Valid`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`].
    pub fn correlate2d_valid(
        &self,
        input: &Matrix,
        kernel: &Matrix,
    ) -> Result<Matrix, TilingError> {
        let mut outs = self.correlate2d(input, std::slice::from_ref(kernel), None)?;
        Ok(outs.pop().expect("one kernel in, one plane out"))
    }

    /// Correlates one input against **many kernels of one shape**, grouped
    /// by input tile: each tile is built (and, on engines with signal
    /// sharing, transformed) once and applied against every kernel. On
    /// deterministic engines the k-th output plane is bit-identical to
    /// `self.correlate2d_valid(input, &kernels[k])`; on stochastic engines
    /// (sensing noise) the noise stream is consumed tile-by-tile across the
    /// kernel set rather than kernel-by-kernel, so the planes are drawn
    /// from the same distribution but are not bitwise equal to sequential
    /// per-kernel calls (the multi call itself replays deterministically
    /// under a fixed seed).
    ///
    /// An empty kernel slice yields an empty result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`], plus
    /// [`TilingError::MismatchedKernels`] if the kernels differ in shape.
    pub fn correlate2d_valid_multi(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
    ) -> Result<Vec<Matrix>, TilingError> {
        self.correlate2d(input, kernels, None)
    }

    /// 2D `same` cross-correlation (output has the input's shape) computed
    /// through tiled 1D convolutions.
    ///
    /// With [`EdgeHandling::ZeroPad`] the result equals the digital reference
    /// exactly; with [`EdgeHandling::Wraparound`] the left/right image
    /// borders differ slightly (the paper's edge effect), which is what the
    /// Table I accuracy evaluation quantifies.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`]. With `ZeroPad` the padded row
    /// length must still fit the 1D capacity.
    pub fn correlate2d_same(
        &self,
        input: &Matrix,
        kernel: &Matrix,
        edges: EdgeHandling,
    ) -> Result<Matrix, TilingError> {
        let mut outs = self.correlate2d(input, std::slice::from_ref(kernel), Some(edges))?;
        Ok(outs.pop().expect("one kernel in, one plane out"))
    }

    /// `same`-mode counterpart of
    /// [`TiledConvolver::correlate2d_valid_multi`]: one input against many
    /// kernels of one shape, grouped by input tile. On deterministic
    /// engines the k-th output plane is bit-identical to
    /// `self.correlate2d_same(input, &kernels[k], edges)`; stochastic
    /// engines consume their noise stream in the tile-grouped order (see
    /// [`TiledConvolver::correlate2d_valid_multi`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TiledConvolver::correlate2d_same`], plus
    /// [`TilingError::MismatchedKernels`] if the kernels differ in shape.
    pub fn correlate2d_same_multi(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        edges: EdgeHandling,
    ) -> Result<Vec<Matrix>, TilingError> {
        self.correlate2d(input, kernels, Some(edges))
    }

    /// The body of every `correlate2d_*` entry point (`edges == None` is
    /// `valid` mode): prepare the set, run it into fresh output planes.
    fn correlate2d(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        edges: Option<EdgeHandling>,
    ) -> Result<Vec<Matrix>, TilingError> {
        if kernels.is_empty() {
            return Ok(Vec::new());
        }
        let set = self.prepare_set(kernels, input.rows(), input.cols(), edges)?;
        let (rows, cols) = set.output_shape();
        let mut planes: Vec<Vec<f64>> =
            (0..kernels.len()).map(|_| vec![0.0; rows * cols]).collect();
        self.correlate2d_set(&set, input, |k, r, c, samples| {
            let at = r * cols + c;
            planes[k][at..at + samples.len()].copy_from_slice(samples);
        })?;
        Ok(planes
            .into_iter()
            .map(|plane| Matrix::new(rows, cols, plane).expect("one sample per output element"))
            .collect())
    }

    /// Lowers `kernels` (one shape) for inputs of `plane_rows × plane_cols`:
    /// the half of a 2D convolution that does not depend on the input.
    /// `edges == None` is `valid` mode, `Some` is `same` mode with that
    /// edge handling. Places the output grid on the tiled plane, plans, and
    /// builds the tiled 1D kernels of the one strategy the plan selects,
    /// each stack prepared in one [`Conv1dEngine::prepare_kernels`] call
    /// (its kernels tallied into `tiling.kernel_prepares`).
    ///
    /// The set is tied to this convolver's capacity and to engines of its
    /// configuration; it runs on this convolver and on its
    /// [`TiledConvolver::on`] views. Nothing keeps it but the caller: a
    /// caller that will meet the same kernels again keeps the set.
    ///
    /// # Errors
    ///
    /// [`TilingError::EmptyOperand`] for an empty kernel slice,
    /// [`TilingError::MismatchedKernels`] if the kernels differ in shape,
    /// and the conditions of [`TilingPlan::new`] (with
    /// [`EdgeHandling::ZeroPad`] the padded row length must still fit the
    /// 1D capacity).
    pub fn prepare_set(
        &self,
        kernels: &[Matrix],
        plane_rows: usize,
        plane_cols: usize,
        edges: Option<EdgeHandling>,
    ) -> Result<KernelSet, TilingError> {
        let Some(first) = kernels.first() else {
            return Err(TilingError::EmptyOperand { what: "kernel set" });
        };
        check_kernel_shapes(kernels)?;
        let (kr, kc) = (first.rows(), first.cols());
        let (row_off, col_off, pad) = match edges {
            None => (0, 0, (0, 0)),
            Some(EdgeHandling::Wraparound) => ((kr - 1) / 2, (kc - 1) / 2, (0, 0)),
            Some(EdgeHandling::ZeroPad) => ((kr - 1) / 2, 0, ((kc - 1) / 2, kc / 2)),
        };
        let si = plane_cols + pad.0 + pad.1;
        let plan = TilingPlan::new(plane_rows, si, kr, kc, self.n_conv)?;
        let output_shape = match edges {
            None => (plane_rows - kr + 1, plane_cols - kc + 1),
            Some(_) => (plane_rows, plane_cols),
        };

        let mut prepares = 0usize;
        let mut stack = |tiled: Vec<Vec<f64>>, signal_len: usize, positions_repeat: bool| {
            self.stack(tiled, signal_len, positions_repeat, &mut prepares)
        };
        let (layout, stacks) = match plan.variant {
            TilingVariant::RowTiling => {
                let tiled = kernels
                    .iter()
                    .map(|k| tile_kernel_rows(k, 0, kr, si, plan.tiled_kernel_len()))
                    .collect();
                let stack = stack(tiled, plan.rows_per_tile * si, false);
                (Layout::RowTiling, vec![stack])
            }
            TilingVariant::PartialRowTiling => {
                // Kernel rows are processed in groups of `rows_per_tile`.
                let n_ir = plan.rows_per_tile.max(1);
                let groups: Vec<(usize, usize)> = (0..kr)
                    .step_by(n_ir)
                    .map(|k_start| (k_start, n_ir.min(kr - k_start)))
                    .collect();
                let stacks = groups
                    .iter()
                    .map(|&(k_start, count)| {
                        let tiled = kernels
                            .iter()
                            .map(|k| tile_kernel_rows(k, k_start, count, si, (count - 1) * si + kc))
                            .collect();
                        stack(tiled, count * si, true)
                    })
                    .collect();
                (Layout::PartialRowTiling(groups), stacks)
            }
            TilingVariant::RowPartitioning => {
                // Every row shares the same column partitioning, so the
                // partition list and the per-(kernel row, partition) stacks
                // of kernel rows are built once for the whole set.
                let step = self.n_conv - kc + 1;
                let parts = column_partitions(si - kc + 1, si, self.n_conv, step);
                let mut stacks = Vec::with_capacity(kr * parts.len());
                for dr in 0..kr {
                    for &(start, end) in &parts {
                        let rows = kernels.iter().map(|k| k.row(dr).to_vec()).collect();
                        stacks.push(stack(rows, end - start, true));
                    }
                }
                (Layout::RowPartitioning(parts), stacks)
            }
        };
        if self.telemetry.is_enabled() {
            self.counters.kernel_prepares.add(prepares as u64);
        }
        Ok(KernelSet {
            taps: Taps::new(kernels),
            input_shape: (plane_rows, plane_cols),
            output_shape,
            row_off,
            col_off,
            pad,
            plan,
            layout,
            stacks,
        })
    }

    /// Runs a prepared set against `input`: the half of a 2D convolution
    /// that is all signal-side work. Cuts the tiles, binds each stack's
    /// lead to this convolver's engine ([`Conv1dEngine::bind_prepared`],
    /// one binding per stack run; the other members ride on the lead's
    /// state), runs the one strategy body the set was planned for and
    /// flushes the run's tallies into the `tiling.*` counters.
    ///
    /// Output goes to `emit(k, row, col, samples)`: `samples` are
    /// consecutive row-major elements of kernel `k`'s output plane
    /// ([`KernelSet::output_shape`]), starting at `(row, col)` — a run may
    /// carry on into the rows below, never past the plane's last element,
    /// so a sink writes it through the flat plane at `row * cols + col`.
    /// Every element of every plane is emitted exactly once, and the
    /// emissions covering one `(row, col)` arrive in kernel order — a sink
    /// may combine a later kernel's sample with an earlier kernel's in
    /// place.
    ///
    /// # Errors
    ///
    /// [`TilingError::InputShapeMismatch`] if `input` does not have the
    /// shape the set was prepared for, [`TilingError::CapacityTooSmall`] if
    /// the set was prepared by a convolver of another capacity.
    pub fn correlate2d_set(
        &self,
        set: &KernelSet,
        input: &Matrix,
        mut emit: impl FnMut(usize, usize, usize, &[f64]),
    ) -> Result<(), TilingError> {
        let found = (input.rows(), input.cols());
        if found != set.input_shape {
            return Err(TilingError::InputShapeMismatch {
                expected: set.input_shape,
                found,
            });
        }
        if set.plan.n_conv != self.n_conv {
            return Err(TilingError::CapacityTooSmall {
                n_conv: self.n_conv,
                required: set.plan.n_conv,
            });
        }
        let padded;
        let plane = if set.pad == (0, 0) {
            input
        } else {
            padded = pad_columns(input, set.pad.0, set.pad.1);
            &padded
        };
        // Each prepared stack's lead — the member its set call and signal
        // transforms are made on — bound to this engine; the other members
        // ride on the lead's state and are borrowed from the set as they
        // are. Flat and in stack order; each stack's run takes its slice.
        let leads: Vec<Arc<dyn PreparedConv1d>> = set
            .stacks
            .iter()
            .filter_map(|stack| stack.members().first())
            .map(|lead| self.engine.bind_prepared(Arc::clone(lead)))
            .collect();
        let total = set.stacks.iter().map(|stack| stack.members().len()).sum();
        let mut refs: Vec<&dyn PreparedConv1d> = Vec::with_capacity(total);
        let mut leads = leads.iter();
        for members in set.stacks.iter().map(Stack::members) {
            if let Some((_, rest)) = members.split_first() {
                refs.push(&**leads.next().expect("one lead per prepared stack"));
                refs.extend(rest.iter().map(|member| &**member));
            }
        }
        let mut rest = &refs[..];
        let runs: Vec<Run<'_>> = set
            .stacks
            .iter()
            .map(|stack| {
                let (members, tail) = rest.split_at(stack.members().len());
                rest = tail;
                stack.run(members)
            })
            .collect();

        let tally = match &set.layout {
            Layout::RowTiling => self.by_row_tiling(plane, set, &runs[0], &mut emit),
            Layout::PartialRowTiling(groups) => {
                self.by_partial_tiling(plane, set, groups, &runs, &mut emit)
            }
            Layout::RowPartitioning(parts) => {
                self.by_partitioning(plane, set, parts, &runs, &mut emit)
            }
        };
        // Batched per run (not per tile) so the hot loop stays untouched;
        // no-op handles when telemetry is disabled.
        if self.telemetry.is_enabled() {
            let c = &self.counters;
            let counters = [
                &c.tiles,
                &c.convs_1d,
                &c.spectrum_hits,
                &c.spectrum_misses,
                &c.samples,
            ];
            for (counter, n) in counters.into_iter().zip(tally) {
                counter.add(n as u64);
            }
            c.conv2d_calls.inc();
        }
        Ok(())
    }

    // ----- shared machinery ------------------------------------------------

    /// Builds and classifies one stack of a set: `tiled` holds one tiled 1D
    /// kernel per kernel of the set, each for signals of `signal_len`
    /// samples; `positions_repeat` says whether the strategy meets the same
    /// signal more than once within a run. The stack goes to the engine in
    /// one [`Conv1dEngine::prepare_kernels`] call, its kernels tallied on
    /// `prepares` (`tiling.kernel_prepares`) — unless the engine reports
    /// [`Conv1dEngine::prepares_kernels`] `== false`, which is never asked.
    fn stack(
        &self,
        tiled: Vec<Vec<f64>>,
        signal_len: usize,
        positions_repeat: bool,
        prepares: &mut usize,
    ) -> Stack {
        if !self.engine.prepares_kernels() {
            return Stack::Plain(tiled);
        }
        let kernels: Vec<&[f64]> = tiled.iter().map(Vec::as_slice).collect();
        *prepares += kernels.len();
        let members: Option<Vec<_>> = self
            .engine
            .prepare_kernels(&kernels, signal_len)
            .into_iter()
            .collect();
        let Some(members) = members else {
            return Stack::Plain(tiled);
        };
        let key = members[0].signal_key();
        let one_key = key.is_some() && members.iter().all(|m| m.signal_key() == key);
        if one_key && (members.len() > 1 || positions_repeat) {
            Stack::Shared(members)
        } else {
            Stack::Each(members)
        }
    }

    /// Correlates one signal against a whole stack, the first
    /// `out.len() / kernels` samples of every kernel's output kernel-major
    /// into `out` (one equal slice per kernel). `shared` is the
    /// signal's transform when the run is [`Run::Shared`] and the engine
    /// produced one; without it (an [`Run::Each`] run, or the engine
    /// declined this signal) every member runs its own chain. `acc`
    /// (present exactly when telemetry is enabled) collects the per-stage
    /// split; the caller owns it across its loop and flushes once.
    fn apply(
        &self,
        run: &Run<'_>,
        signal: &[f64],
        shared: Option<&dyn PreparedSignal>,
        out: &mut [f64],
        acc: Option<&mut StageAcc>,
    ) {
        match run {
            Run::Plain(tiled) => {
                let len = out.len() / tiled.len();
                for (kernel, out) in tiled.iter().zip(out.chunks_exact_mut(len)) {
                    out.copy_from_slice(&self.engine.correlate_valid(signal, kernel)[..len]);
                }
            }
            Run::Shared(set) => set[0].correlate_set_into(set, shared, signal, out, acc),
            Run::Each(set) => set[0].correlate_set_into(set, None, signal, out, acc),
        }
    }

    /// The run of the two strategies that meet a signal again. Every
    /// distinct signal `reads` names (`(length, position)`, repeats
    /// included) is cut once by `cut`, planar per length, and transformed
    /// through any `Shared` stack of that length, one batched call per
    /// chunk; then `row(out_r, acc, corr, apply)` sums output row `out_r` of
    /// every kernel into `acc`, `apply(run, length, position, out)` running
    /// one signal against a stack into `out`, a slice of the scratch `corr`
    /// (both kernel-major). Returns the transform hits and misses and the
    /// samples asked of the engine.
    fn by_output_rows<K: Ord + Copy + Sync>(
        &self,
        set: &KernelSet,
        runs: &[Run<'_>],
        reads: impl Iterator<Item = (usize, K)>,
        cut: impl Fn(K, &mut [f64]),
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
        row: impl Fn(usize, &mut [f64], &mut [f64], Apply<'_, K>) + Sync,
    ) -> [usize; 3] {
        let mut reads: Vec<(usize, K)> = reads.collect();
        reads.sort_unstable();
        reads.dedup();
        let signals: Vec<Signals<K>> = (reads.chunk_by(|a, b| a.0 == b.0))
            .map(|class| {
                let (len, keys) = (class[0].0, class.iter().map(|&(_, key)| key).collect());
                let mut samples = vec![0.0; class.len() * len];
                for (&(_, key), buf) in class.iter().zip(samples.chunks_exact_mut(len)) {
                    cut(key, buf);
                }
                let sharers = runs.iter().flat_map(|run| run.sharing().first());
                let sharer = sharers.copied().find(|member| member.signal_len() == len);
                let transforms = sharer.and_then(|sharer| {
                    let chunks = self.by_chunks(class.len(), |at| {
                        let acc = self.telemetry.is_enabled().then(StageAcc::start);
                        let chunk = &samples[at.start * len..at.end * len];
                        let taken = sharer.prepare_signal_batch(chunk, at.len());
                        if let (Some(mut acc), Some(_)) = (acc, &taken) {
                            acc.mark(Stage::SignalFft);
                            acc.flush(&self.telemetry);
                        }
                        taken
                    });
                    let chunks: Option<Vec<_>> = chunks.into_iter().collect();
                    chunks.map(|chunks| chunks.into_iter().flatten().collect())
                });
                Signals {
                    len,
                    keys,
                    samples,
                    transforms,
                }
            })
            .collect();

        let ((out_rows, out_cols), count) = (set.output_shape, set.taps.count);
        let chunks = self.by_chunks(out_rows, |rows| {
            let mut stages = self.telemetry.is_enabled().then(StageAcc::start);
            let (mut hits, mut samples) = (0, 0);
            let mut accs = vec![0.0; rows.len() * count * out_cols];
            let mut corr = vec![0.0; count * signals.last().map_or(0, |class| class.len)];
            for (out_r, acc) in rows.zip(accs.chunks_exact_mut(count * out_cols)) {
                row(out_r, acc, &mut corr, &mut |run, len, key, out| {
                    let class = signals.iter().find(|class| class.len == len);
                    let class = class.expect("every length a row reads was cut");
                    let i = class.keys.binary_search(&key).expect("every read was cut");
                    let shared = class.transforms.as_ref().map(|t| &*t[i]);
                    hits += shared.map_or(0, |_| run.sharing().len());
                    samples += out.len();
                    if let Some(stages) = stages.as_mut() {
                        stages.skip();
                    }
                    let signal = &class.samples[i * len..(i + 1) * len];
                    self.apply(run, signal, shared, out, stages.as_mut());
                });
            }
            if let Some(stages) = stages.as_mut() {
                stages.flush(&self.telemetry);
            }
            (accs, hits, samples)
        });
        let rows = chunks.iter().flat_map(|c| c.0.chunks_exact(out_cols));
        for (at, samples) in rows.enumerate() {
            emit(at % count, at / count, 0, samples);
        }
        let hits = chunks.iter().map(|&(_, hits, _)| hits).sum();
        let samples = chunks.iter().map(|&(_, _, samples)| samples).sum();
        let taken = signals.iter().filter_map(|class| class.transforms.as_ref());
        [hits, taken.map(Vec::len).sum(), samples]
    }

    /// Maps `f` over `0..count` cut into one contiguous range per pool
    /// thread — one range, the whole of it, where work does not fan out —
    /// with results in order, so the parallel path is indistinguishable
    /// from the serial one.
    fn by_chunks<R: Send>(&self, count: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
        let active = self.parallel_active(count);
        let width = active.then(rayon::current_num_threads).unwrap_or(1);
        let step = count.div_ceil(width).max(1);
        let starts = (0..count).step_by(step);
        let ranges: Vec<_> = starts.map(|at| at..count.min(at + step)).collect();
        if active {
            ranges.par_iter().map(|range| f(range.clone())).collect()
        } else {
            ranges.into_iter().map(f).collect()
        }
    }

    /// Whether this call would actually fan work out across threads.
    fn parallel_active(&self, items: usize) -> bool {
        // Four gates: the grain, the engine's own cost hint (the vendored
        // rayon spawns scoped threads per call, so parallelising
        // memory-bound dot-product tiles would lose outright), determinism
        // (noise streams must keep their serial order) and the pool. The
        // pool gate is also what keeps parallel regions from nesting: a
        // worker of an outer region reads a width of 1 here.
        self.grain == ParallelGrain::Auto
            && self.engine.prefers_parallel_tiles()
            && items > 1
            && self.engine.is_deterministic()
            && rayon::current_num_threads() > 1
    }

    // ----- the three strategy bodies ---------------------------------------

    /// Row tiling (Section III-A): each 1D convolution covers
    /// `rows_per_tile` plane rows and completes `N_or` output rows (a
    /// plane's last one what is left), and asks the engine only for the
    /// samples of its correlations those rows read.
    fn by_row_tiling(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        run: &Run<'_>,
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> Tally {
        let (plan, taps) = (&set.plan, &set.taps);
        let (row_off, col_off) = (set.row_off, set.col_off);
        let si = plane.cols();
        let n_or = plan.valid_output_rows_per_conv;
        let tile_len = plan.rows_per_tile * si;
        let corr_len = tile_len + 1 - plan.tiled_kernel_len();

        let (out_rows, out_cols) = set.output_shape;
        // Tile `i` completes output rows `i * n_or ..`, all `n_or` of them
        // but on a plane's last tile, which completes what is left.
        let tiles = out_rows.div_ceil(n_or);
        let rows_of = |r0: usize| n_or.min(out_rows - r0);
        // The samples of a tile's correlations that are read: its output
        // row `rr` reads samples below `rr * si + out_cols - col_off`, and
        // `out_cols <= si + col_off` on every frame, so a tile of `rows`
        // output rows reads within its first `rows * si` samples and the
        // engine is asked for no more — a full tile for its whole
        // correlation, a plane's last tile for a prefix. Every covered
        // range below is the one the whole correlation gives: no border
        // sample changes path.
        debug_assert!(out_cols <= si + col_off, "an output row fits a plane row");
        let len_of = |r0: usize| corr_len.min(rows_of(r0) * si);
        // Output column `c` of the tile's `rr`-th output row reads
        // `corr[rr * si + c - col_off]`. Where the plane rows are as long
        // as the output rows (`si == out_cols`: `Wraparound` `same`,
        // one-column kernels) consecutive output rows read consecutive
        // samples, so the tile's rows are one line of `rows * out_cols`
        // elements and its result leaves in one run; otherwise every row is
        // a line of its own. A line's covered range is emitted as one slice
        // per kernel.
        let mut write = |r0: usize, per_kernel: &[f64]| {
            let rows = rows_of(r0);
            let len = len_of(r0);
            let (lines, width) = if si == out_cols {
                (1, rows * out_cols)
            } else {
                (rows, out_cols)
            };
            for line in 0..lines {
                let base = line * si;
                let covered = covered_columns(base, col_off, corr_len, width);
                if !covered.is_empty() {
                    let src = base + covered.start - col_off;
                    for (k, corr) in per_kernel.chunks_exact(len).enumerate() {
                        emit(k, r0 + line, covered.start, &corr[src..][..covered.len()]);
                    }
                }
                // The window starts before this tile (left border of the
                // tile's first output row) or runs past its end (right
                // border of its last output row). In hardware these samples
                // come from the neighbouring tile's output; reproduce them
                // exactly with a direct dot product so the only
                // approximation left is the genuine wraparound edge effect.
                for at in (0..covered.start).chain(covered.end..width) {
                    let flat = line * width + at;
                    let (out_r, c) = (r0 + flat / out_cols, flat % out_cols);
                    let (top, left) = (
                        out_r as isize - row_off as isize,
                        c as isize - col_off as isize,
                    );
                    taps.window(plane, 0..taps.shape.0, top, left, |k, sample| {
                        emit(k, out_r, c, &[sample]);
                    });
                }
            }
        };

        // Every tile is cut once, planar into one buffer: a chunk of it is
        // both the batch the engine transforms and the signal each of its
        // tiles' convolutions reads.
        let mut signals = vec![0.0; tiles * tile_len];
        for (i, tile) in signals.chunks_exact_mut(tile_len).enumerate() {
            let first_row = (i * n_or) as isize - row_off as isize;
            fill_tile_rows(tile, plane, first_row, plan.rows_per_tile);
        }
        // A chunk has its tiles transformed in one batched call (their
        // input-DAC pass rides along into `signal_fft`), then runs each
        // tile's stack kernel-major into the head of its share of one
        // scratch: `count` prefixes of the tile's `len_of` samples.
        let stack_len = taps.count * corr_len;
        let corrs = self.by_chunks(tiles, |at| {
            let chunk = &signals[at.start * tile_len..at.end * tile_len];
            let mut acc = self.telemetry.is_enabled().then(StageAcc::start);
            let sharer = run.sharing().first();
            let transforms = sharer.and_then(|s| s.prepare_signal_batch(chunk, at.len()));
            if let (Some(acc), Some(_)) = (acc.as_mut(), &transforms) {
                acc.mark(Stage::SignalFft);
            }
            let mut outs = vec![0.0; at.len() * stack_len];
            for (i, out) in outs.chunks_exact_mut(stack_len).enumerate() {
                let shared = transforms.as_ref().map(|t| &*t[i]);
                let tile = &chunk[i * tile_len..][..tile_len];
                let out = &mut out[..taps.count * len_of((at.start + i) * n_or)];
                self.apply(run, tile, shared, out, acc.as_mut());
            }
            if let Some(acc) = acc.as_mut() {
                acc.flush(&self.telemetry);
            }
            (outs, transforms.map_or(0, |t| t.len()))
        });
        let per_tile = corrs.iter().flat_map(|c| c.0.chunks_exact(stack_len));
        let mut samples = 0;
        for (i, per_kernel) in per_tile.enumerate() {
            let asked = &per_kernel[..taps.count * len_of(i * n_or)];
            samples += asked.len();
            write(i * n_or, asked);
        }
        let misses: usize = corrs.iter().map(|&(_, taken)| taken).sum();
        let hits = misses * run.sharing().len();
        [tiles, tiles * taps.count, hits, misses, samples]
    }

    /// Partial row tiling (Section III-B): one output row at a time;
    /// kernel rows are processed in groups of `rows_per_tile` and their
    /// contributions accumulated. Consecutive output rows revisit the same
    /// plane-row windows: a window is keyed by its start row.
    fn by_partial_tiling(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        groups: &[(usize, usize)],
        runs: &[Run<'_>],
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> Tally {
        let (row_off, col_off) = (set.row_off, set.col_off);
        let (taps, si) = (&set.taps, plane.cols());
        let (out_rows, out_cols) = set.output_shape;
        // Every group's 1D result has `si - kc + 1` samples; the columns
        // outside their range are border samples.
        let corr_len = si + 1 - taps.shape.1;
        let covered = covered_columns(0, col_off, corr_len, out_cols);
        // Output row `r` reads, for group `(k_start, count)`, the window of
        // `count` plane rows from `r - row_off + k_start`.
        let reads = groups.iter().flat_map(|&(k_start, count)| {
            (0..out_rows).map(move |r| (count * si, (r + k_start) as isize - row_off as isize))
        });
        let cut = |start, buf: &mut [f64]| fill_tile_rows(buf, plane, start, buf.len() / si);
        let [hits, misses, samples] =
            self.by_output_rows(set, runs, reads, cut, emit, |out_r, acc, corr, apply| {
                let top = out_r as isize - row_off as isize;
                let corr = &mut corr[..taps.count * corr_len];
                for (&(k_start, count), run) in groups.iter().zip(runs) {
                    apply(run, count * si, top + k_start as isize, corr);
                    for (k, corr) in corr.chunks_exact(corr_len).enumerate() {
                        for c in covered.clone() {
                            acc[k * out_cols + c] += corr[c - col_off];
                        }
                    }
                    for c in (0..covered.start).chain(covered.end..out_cols) {
                        let (rows, left) =
                            (k_start..k_start + count, c as isize - col_off as isize);
                        taps.window(plane, rows, top, left, |k, v| acc[k * out_cols + c] += v);
                    }
                }
            });
        let n = out_rows * groups.len();
        [n, n * taps.count, hits, misses, samples]
    }

    /// Row partitioning (Section III-C): overlap-save over columns — each
    /// kernel row is correlated with partitions of the matching plane row
    /// and the results accumulated. One plane row partition is slid over
    /// by *every* kernel row of *every* kernel: a partition is keyed by
    /// `(plane row, partition)`. A partition of one row is not a tile: the
    /// run counts none.
    fn by_partitioning(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        parts: &[(usize, usize)],
        runs: &[Run<'_>],
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> Tally {
        let (row_off, col_off) = (set.row_off, set.col_off);
        let taps = &set.taps;
        let (kernel_rows, kernel_cols) = taps.shape;
        let corr_len = plane.cols() - kernel_cols + 1;
        let (out_rows, out_cols) = set.output_shape;
        // The (kernel row, plane row) pairs of one output row: border rows
        // of an offset frame skip kernel rows hanging outside the plane.
        let live_rows = |out_r: usize| {
            (0..kernel_rows).filter_map(move |dr| {
                let r = out_r as isize - row_off as isize + dr as isize;
                (0..plane.rows() as isize)
                    .contains(&r)
                    .then_some((dr, r as usize))
            })
        };
        let reads = (0..out_rows)
            .flat_map(live_rows)
            .flat_map(|(_, r)| (0..parts.len()).map(move |p| (parts[p].1 - parts[p].0, (r, p))));
        let cut = |(r, p): (usize, usize), buf: &mut [f64]| {
            buf.copy_from_slice(&plane.row(r)[parts[p].0..parts[p].1]);
        };
        let covered = covered_columns(0, col_off, corr_len, out_cols);
        let [hits, misses, samples] =
            self.by_output_rows(set, runs, reads, cut, emit, |out_r, acc, corr, apply| {
                for (dr, r) in live_rows(out_r) {
                    for (p, &(start, end)) in parts.iter().enumerate() {
                        let part_len = end - start + 1 - kernel_cols;
                        let corr = &mut corr[..taps.count * part_len];
                        apply(&runs[dr * parts.len() + p], end - start, (r, p), corr);
                        for (k, corr) in corr.chunks_exact(part_len).enumerate() {
                            for (i, v) in corr.iter().enumerate() {
                                // Sample `start + i` of the row's correlation
                                // is output column `start + i + col_off`.
                                if start + i < corr_len && start + i + col_off < out_cols {
                                    acc[k * out_cols + start + i + col_off] += v;
                                }
                            }
                        }
                    }
                }
                // Columns whose window hangs over either end of the row:
                // no partition writes them, so the window over every kernel
                // row is their whole sum.
                let top = out_r as isize - row_off as isize;
                for c in (0..covered.start).chain(covered.end..out_cols) {
                    let left = c as isize - col_off as isize;
                    taps.window(plane, 0..kernel_rows, top, left, |k, sample| {
                        acc[k * out_cols + c] = sample;
                    });
                }
            });
        // Count only convolutions that actually run.
        let live = (0..out_rows).flat_map(live_rows).count();
        [0, live * parts.len() * taps.count, hits, misses, samples]
    }
}

/// A convolver's 1D capacity must fit the engine it drives.
fn check_capacity(engine: &impl Conv1dEngine, n_conv: usize) -> Result<(), TilingError> {
    match engine.max_signal_len() {
        Some(max) if n_conv > max => Err(TilingError::CapacityTooSmall {
            n_conv: max,
            required: n_conv,
        }),
        _ => Ok(()),
    }
}

/// Multi-kernel calls require one shared shape (one tiling plan, one
/// prepared-signal geometry).
fn check_kernel_shapes(kernels: &[Matrix]) -> Result<(), TilingError> {
    let expected = (kernels[0].rows(), kernels[0].cols());
    for k in &kernels[1..] {
        let found = (k.rows(), k.cols());
        if found != expected {
            return Err(TilingError::MismatchedKernels { expected, found });
        }
    }
    Ok(())
}

/// The columns `c` of an output row whose sample exists in a 1D result of
/// `corr_len` samples when column `c` reads `corr[base + c - col_off]`; the
/// columns outside the range need the direct dot-product fallback. At zero
/// offset (and `base + out_cols <= corr_len`) this is the whole row.
fn covered_columns(base: usize, col_off: usize, corr_len: usize, out_cols: usize) -> Range<usize> {
    let lo = col_off.saturating_sub(base).min(out_cols);
    let hi = (corr_len + col_off).saturating_sub(base).min(out_cols);
    lo..hi.max(lo)
}

/// Overlap-save column partitions shared by every row: `(start, end)` input
/// ranges stepping by `step` until the produced samples cover `needed`
/// output columns, each clipped to the `row_len`-sample row.
fn column_partitions(
    needed: usize,
    row_len: usize,
    n_conv: usize,
    step: usize,
) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = 0;
    while start < needed {
        parts.push((start, (start + n_conv).min(row_len)));
        start += step;
    }
    parts
}

/// Zero-pads a matrix horizontally by `left`/`right` columns.
fn pad_columns(input: &Matrix, left: usize, right: usize) -> Matrix {
    let mut out = Matrix::zeros(input.rows(), input.cols() + left + right);
    for r in 0..input.rows() {
        out.row_mut(r)[left..left + input.cols()].copy_from_slice(input.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DigitalEngine;
    use pf_dsp::conv::{correlate1d, correlate2d, PaddingMode};
    use pf_dsp::util::{max_abs_diff, relative_l2_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::new(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap()
    }

    fn convolver(n_conv: usize) -> TiledConvolver<DigitalEngine> {
        TiledConvolver::new(DigitalEngine, n_conv).unwrap()
    }

    /// Digital maths with the cost hint of an FFT-backed engine: the one
    /// way to reach the parallel tile branches without the optics.
    #[derive(Debug)]
    struct Hinted;

    impl Conv1dEngine for Hinted {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }
        fn prefers_parallel_tiles(&self) -> bool {
            true
        }
    }

    fn hinted(n_conv: usize) -> TiledConvolver<Hinted> {
        TiledConvolver::new(Hinted, n_conv).unwrap()
    }

    fn pool(width: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap()
    }

    /// The `tiling.*` tallies a call flushed into `tel`, as
    /// `[tiles, convs_1d, spectrum_hits, spectrum_misses]` since `before`.
    fn tallies(tel: &Telemetry, before: &pf_telemetry::MetricsSnapshot) -> [u64; 4] {
        let delta = tel.snapshot().delta_since(before);
        [
            "tiling.tiles",
            "tiling.convs_1d",
            "tiling.spectrum_hits",
            "tiling.spectrum_misses",
        ]
        .map(|name| delta.counter(name))
    }

    #[test]
    fn telemetry_counters_flow_and_results_match_disabled() {
        let input = random_matrix(8, 8, 900);
        let kernel = random_matrix(3, 3, 901);
        let tel = Telemetry::enabled();
        let plain = convolver(20).correlate2d_valid(&input, &kernel).unwrap();
        let traced = convolver(20)
            .with_telemetry(tel.clone())
            .correlate2d_valid(&input, &kernel)
            .unwrap();
        assert_eq!(plain.data(), traced.data(), "tracing must not perturb");
        let snap = tel.snapshot();
        assert!(snap.counter("tiling.convs_1d") > 0);
        assert!(snap.counter("tiling.tiles") > 0);
        assert_eq!(snap.counter("tiling.conv2d_calls"), 1);
    }

    #[test]
    fn constructor_validation() {
        assert!(TiledConvolver::new(DigitalEngine, 0).is_err());
        assert!(TiledConvolver::new(DigitalEngine, 256).is_ok());
        assert_eq!(convolver(256).grain, ParallelGrain::Auto);
    }

    #[test]
    fn valid_mode_equals_reference_row_tiling() {
        // Figure 3 setting: 5x5, 3x3, capacity 20.
        let input = random_matrix(5, 5, 1);
        let kernel = random_matrix(3, 3, 2);
        let tiled = convolver(20).correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-12);
    }

    #[test]
    fn valid_mode_equals_reference_many_shapes() {
        for (rows, cols, k, n_conv, seed) in [
            (8, 8, 3, 256, 3u64),
            (12, 9, 3, 64, 4),
            (7, 7, 5, 49, 5),
            (16, 16, 1, 32, 6),
            (10, 10, 3, 30, 7), // exactly sk*si
            (6, 6, 5, 30, 8),
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 100);
            let tiled = convolver(n_conv)
                .correlate2d_valid(&input, &kernel)
                .unwrap();
            let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
            assert!(
                max_abs_diff(tiled.data(), reference.data()) < 1e-10,
                "mismatch for {rows}x{cols} k{k} n{n_conv}"
            );
        }
    }

    #[test]
    fn valid_mode_partial_row_tiling_matches_reference() {
        // si = 10, sk*si = 30 > n_conv = 15 >= si -> partial row tiling.
        let input = random_matrix(10, 10, 11);
        let kernel = random_matrix(3, 3, 12);
        let c = convolver(15);
        assert_eq!(
            c.plan(&input, &kernel).unwrap().variant,
            TilingVariant::PartialRowTiling
        );
        let tiled = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn valid_mode_row_partitioning_matches_reference() {
        // n_conv = 7 < si = 12 -> row partitioning.
        let input = random_matrix(12, 12, 21);
        let kernel = random_matrix(3, 3, 22);
        let c = convolver(7);
        assert_eq!(
            c.plan(&input, &kernel).unwrap().variant,
            TilingVariant::RowPartitioning
        );
        let tiled = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn same_mode_zero_pad_is_exact() {
        for (rows, cols, k, n_conv, seed) in [
            (8, 8, 3, 256, 31u64),
            (10, 10, 5, 256, 32),
            (12, 12, 3, 48, 33),
            (9, 9, 3, 16, 34), // partial tiling path (padded cols = 11 < 16 < 33)
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 1000);
            let tiled = convolver(n_conv)
                .correlate2d_same(&input, &kernel, EdgeHandling::ZeroPad)
                .unwrap();
            let reference = correlate2d(&input, &kernel, PaddingMode::Same);
            assert!(
                max_abs_diff(tiled.data(), reference.data()) < 1e-10,
                "mismatch for {rows}x{cols} k{k} n{n_conv}"
            );
        }
    }

    #[test]
    fn same_mode_wraparound_interior_is_exact() {
        let input = random_matrix(10, 10, 41);
        let kernel = random_matrix(3, 3, 42);
        let tiled = convolver(256)
            .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        // Interior (excluding one-pixel border) must match exactly.
        for r in 1..9 {
            for c in 1..9 {
                assert!(
                    (tiled.get(r, c) - reference.get(r, c)).abs() < 1e-10,
                    "interior mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn same_mode_wraparound_edge_error_is_small() {
        // The paper argues the edge effect has minimal impact; check the
        // relative error across the whole output stays small for a smooth
        // input.
        let input = Matrix::new(
            16,
            16,
            (0..256).map(|i| ((i as f64) * 0.05).sin() + 1.5).collect(),
        )
        .unwrap();
        // A fixed mixed-sign kernel with a clearly non-zero sum: a random
        // kernel can sum to ~0, which deflates the reference norm and blows
        // up the *relative* error regardless of the edge effect under test.
        let kernel =
            Matrix::new(3, 3, vec![0.2, -0.1, 0.3, 0.4, 1.0, -0.2, 0.1, 0.3, 0.2]).unwrap();
        let tiled = convolver(256)
            .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        let err = relative_l2_error(tiled.data(), reference.data());
        assert!(err < 0.25, "edge-effect error unexpectedly large: {err}");
        // And strictly larger than zero: the approximation is real.
        assert!(err > 0.0);
    }

    #[test]
    fn same_mode_row_partitioning_zero_pad_matches_reference() {
        let input = random_matrix(12, 12, 61);
        let kernel = random_matrix(3, 3, 62);
        let c = convolver(7);
        let tiled = c
            .correlate2d_same(&input, &kernel, EdgeHandling::ZeroPad)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn plan_is_exposed() {
        let input = random_matrix(32, 32, 71);
        let kernel = random_matrix(3, 3, 72);
        let plan = convolver(256).plan(&input, &kernel).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        assert_eq!(plan.rows_per_tile, 8);
    }

    #[test]
    fn kernel_larger_than_input_is_rejected() {
        let input = random_matrix(3, 3, 81);
        let kernel = random_matrix(5, 5, 82);
        assert!(convolver(256).correlate2d_valid(&input, &kernel).is_err());
    }

    #[test]
    fn grain_gates_parallel_dispatch() {
        let serial = |c: TiledConvolver<Hinted>| c.with_grain(ParallelGrain::Image);
        pool(4).install(|| {
            // DigitalEngine's cost hint declines tile parallelism, so Auto
            // stays serial; an engine that asks for it gets it...
            assert!(!convolver(256).parallel_active(8));
            assert!(hinted(256).parallel_active(8));
            assert!(!hinted(256).parallel_active(1)); // but one tile is never fanned out
                                                      // ...and Image keeps tiles serial no matter what.
            assert!(!serial(hinted(256)).parallel_active(8));
            // Inside a worker of somebody else's region: never. (Two items
            // on a 4-wide pool: each runs on a worker of its own.)
            let nested: Vec<bool> = [(); 2]
                .par_iter()
                .map(|()| hinted(256).parallel_active(8))
                .collect();
            assert_eq!(nested, [false, false]);
        });
        // On a 1-wide pool neither grain fans out: the tiles run as one
        // chunk.
        pool(1).install(|| {
            assert!(!hinted(256).parallel_active(8));
            assert!(!serial(hinted(256)).parallel_active(8));
        });
    }

    #[test]
    fn parallel_tiles_are_bit_identical_to_serial_at_several_pool_widths() {
        let input = random_matrix(24, 24, 95);
        let kernel = random_matrix(3, 3, 96);
        let ser = hinted(64)
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel)
            .unwrap();
        for width in [1usize, 2, 4] {
            let par = pool(width)
                .install(|| hinted(64).correlate2d_valid(&input, &kernel))
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "divergence at pool width {width}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_are_bit_identical() {
        for (rows, cols, k, n_conv, seed) in [
            (32, 32, 3, 256, 91u64), // row tiling, several tiles
            (10, 10, 3, 15, 92),     // partial row tiling
            (12, 12, 3, 7, 93),      // row partitioning
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 500);
            let par = pool(4)
                .install(|| hinted(n_conv).correlate2d_valid(&input, &kernel))
                .unwrap();
            let ser = hinted(n_conv)
                .with_grain(ParallelGrain::Image)
                .correlate2d_valid(&input, &kernel)
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parallel/serial divergence");
            }
            let par = pool(4)
                .install(|| {
                    hinted(n_conv).correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
                })
                .unwrap();
            let ser = hinted(n_conv)
                .with_grain(ParallelGrain::Image)
                .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parallel/serial divergence");
            }
        }
    }

    #[test]
    fn multi_kernel_matches_per_kernel_calls_bitwise() {
        // Every variant: the multi path must reproduce the single-kernel
        // path bit for bit, in both padding modes.
        for (rows, cols, n_conv, seed) in [
            (12, 12, 256, 201u64), // row tiling
            (10, 10, 15, 202),     // partial row tiling
            (12, 12, 7, 203),      // row partitioning
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernels: Vec<Matrix> = (0..4).map(|i| random_matrix(3, 3, seed + 10 + i)).collect();
            let c = convolver(n_conv);
            let multi = c.correlate2d_valid_multi(&input, &kernels).unwrap();
            assert_eq!(multi.len(), kernels.len());
            for (kernel, plane) in kernels.iter().zip(&multi) {
                let single = c.correlate2d_valid(&input, kernel).unwrap();
                for (a, b) in single.data().iter().zip(plane.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "valid multi divergence");
                }
            }
            for edges in [EdgeHandling::Wraparound, EdgeHandling::ZeroPad] {
                let multi = c.correlate2d_same_multi(&input, &kernels, edges).unwrap();
                for (kernel, plane) in kernels.iter().zip(&multi) {
                    let single = c.correlate2d_same(&input, kernel, edges).unwrap();
                    for (a, b) in single.data().iter().zip(plane.data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "same multi divergence");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_kernel_validates_shapes_and_handles_empty() {
        let input = random_matrix(8, 8, 211);
        let c = convolver(64);
        let tel = Telemetry::enabled();
        let c = c.with_telemetry(tel.clone());
        let outs = c.correlate2d_valid_multi(&input, &[]).unwrap();
        assert!(outs.is_empty());
        assert_eq!(tel.snapshot().counter("tiling.convs_1d"), 0);
        let kernels = vec![random_matrix(3, 3, 212), random_matrix(2, 3, 213)];
        assert!(matches!(
            c.correlate2d_valid_multi(&input, &kernels),
            Err(TilingError::MismatchedKernels { .. })
        ));
        assert!(matches!(
            c.correlate2d_same_multi(&input, &kernels, EdgeHandling::Wraparound),
            Err(TilingError::MismatchedKernels { .. })
        ));
    }

    /// The scalar window sum the border body replaced, kept as its oracle:
    /// kernel rows `kernel_rows` of `kernel` against the window of `plane`
    /// whose top-left corner is `(top_row, left_col)`, taps outside the
    /// plane skipped.
    fn window_dot(
        plane: &Matrix,
        kernel: &Matrix,
        kernel_rows: Range<usize>,
        top_row: isize,
        left_col: isize,
    ) -> f64 {
        let mut acc = 0.0;
        for dr in kernel_rows {
            let r = top_row + dr as isize;
            if r < 0 || r >= plane.rows() as isize {
                continue;
            }
            acc += row_window_dot(plane.row(r as usize), kernel.row(dr), left_col);
        }
        acc
    }

    fn row_window_dot(row: &[f64], krow: &[f64], left_col: isize) -> f64 {
        let mut acc = 0.0;
        for (dc, &k) in krow.iter().enumerate() {
            let c = left_col + dc as isize;
            if c >= 0 && (c as usize) < row.len() {
                acc += row[c as usize] * k;
            }
        }
        acc
    }

    /// A `rows × cols` matrix of `scale`-sized samples with the values a
    /// re-associated or zero-multiplying sum would get wrong mixed in:
    /// signed zeros, subnormals, 1e300-scale samples, NaN and ±∞.
    fn extreme_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let smooth = random_matrix(rows, cols, seed);
        let data = (smooth.data().iter().enumerate())
            .map(|(i, &v)| match (i as u64 + seed) % 13 {
                0 => -0.0,
                1 => 0.0,
                2 => f64::MIN_POSITIVE / 8.0 * (i as f64 + 1.0),
                3 => -f64::MIN_POSITIVE / 3.0,
                4 => 1e300 * v,
                5 if i % 3 == 0 => f64::NAN,
                6 if i % 5 == 0 => f64::INFINITY,
                7 if i % 7 == 0 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect();
        Matrix::new(rows, cols, data).unwrap()
    }

    /// Bit equality, a NaN standing for any NaN: Rust leaves the payload of
    /// an arithmetic NaN unspecified.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn the_border_body_is_the_scalar_window_sum_bit_for_bit() {
        // Every strategy under both same-mode edge handlings, and every
        // output position of the set — every border position among them —
        // with the kernel rows that strategy sums there: all of them under
        // row tiling and row partitioning, each group's under partial row
        // tiling. Set sizes straddle the lane block (8) and its multiples.
        let strategies = [
            (TilingVariant::RowTiling, 256),
            (TilingVariant::PartialRowTiling, 15),
            (TilingVariant::RowPartitioning, 7),
        ];
        for &count in &[1usize, 3, 4, 16, 32, 33] {
            let kernels: Vec<Matrix> = (0..count as u64)
                .map(|i| extreme_matrix(3, 3, 300 + i))
                .collect();
            let input = extreme_matrix(10, 10, 299);
            for (variant, n_conv) in strategies {
                for edges in [EdgeHandling::Wraparound, EdgeHandling::ZeroPad] {
                    let c = convolver(n_conv);
                    let set = c.prepare_set(&kernels, 10, 10, Some(edges)).unwrap();
                    assert_eq!(set.plan.variant, variant, "n_conv {n_conv}");
                    let plane = pad_columns(&input, set.pad.0, set.pad.1);
                    let groups = match &set.layout {
                        Layout::PartialRowTiling(groups) => groups.clone(),
                        _ => vec![(0, 3)],
                    };
                    let (out_rows, out_cols) = set.output_shape;
                    for (r, col) in (0..out_rows).flat_map(|r| (0..out_cols).map(move |c| (r, c))) {
                        for &(k_start, rows) in &groups {
                            let top = r as isize - set.row_off as isize;
                            let left = col as isize - set.col_off as isize;
                            let mut got = Vec::new();
                            let kernel_rows = k_start..k_start + rows;
                            set.taps
                                .window(&plane, kernel_rows.clone(), top, left, |k, v| {
                                    got.push((k, v));
                                });
                            assert_eq!(got.len(), count);
                            for (i, (kernel, &(k, v))) in kernels.iter().zip(&got).enumerate() {
                                let want =
                                    window_dot(&plane, kernel, kernel_rows.clone(), top, left);
                                assert_eq!(k, i, "kernel order");
                                assert!(
                                    same_bits(v, want),
                                    "{variant:?} {edges:?}, {count} kernels, kernel {k} at \
                                     ({r}, {col}) rows {kernel_rows:?}: {v:e} vs {want:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_tiling_emits_every_element_once_in_maximal_row_major_runs() {
        // Valid, `Wraparound` and `ZeroPad` row tiling over one-row tiles,
        // many-row tiles with a short last tile, and one tile holding the
        // whole plane, for an odd and an even kernel shape.
        let input = random_matrix(7, 10, 500);
        for (kr, kc) in [(3usize, 3usize), (2, 4)] {
            let kernels: Vec<Matrix> = (0..3).map(|i| random_matrix(kr, kc, 501 + i)).collect();
            for edges in [
                None,
                Some(EdgeHandling::Wraparound),
                Some(EdgeHandling::ZeroPad),
            ] {
                let si = match edges {
                    Some(EdgeHandling::ZeroPad) => 10 + kc - 1,
                    _ => 10,
                };
                for n_conv in [kr * si, 5 * si, 256] {
                    let c = convolver(n_conv);
                    let set = c.prepare_set(&kernels, 7, 10, edges).unwrap();
                    assert_eq!(set.plan.variant, TilingVariant::RowTiling);
                    let (rows, cols) = set.output_shape();
                    let mut runs = Vec::new();
                    c.correlate2d_set(&set, &input, |k, r, col, samples| {
                        runs.push((k, r, col, samples.to_vec()));
                    })
                    .unwrap();
                    let case = format!("{kr}x{kc}, {edges:?}, n_conv {n_conv}");

                    // Who wrote each element, in order; and the per-row
                    // writer: every run cut at its rows' ends.
                    let mut writers = vec![Vec::new(); rows * cols];
                    let mut by_rows = vec![Matrix::zeros(rows, cols); kernels.len()];
                    for (k, r, col, samples) in &runs {
                        assert!(*r < rows && *col < cols, "{case}: run starts off its plane");
                        let at = r * cols + col;
                        assert!(
                            at + samples.len() <= rows * cols,
                            "{case}: run leaves its plane"
                        );
                        for (i, &v) in samples.iter().enumerate() {
                            writers[at + i].push(*k);
                            let (row, c) = ((at + i) / cols, (at + i) % cols);
                            by_rows[*k].row_mut(row)[c] = v;
                        }
                    }
                    let once_each: Vec<usize> = (0..kernels.len()).collect();
                    assert!(
                        writers.iter().all(|w| *w == once_each),
                        "{case}: every element once per kernel, in kernel order"
                    );

                    // Maximal runs: one per (tile, kernel) when the plane
                    // rows are the output rows, else one per (row, kernel);
                    // the border samples are the single-sample emissions.
                    let tiles = rows.div_ceil(set.plan.valid_output_rows_per_conv);
                    let long = runs.iter().filter(|run| run.3.len() > 1).count();
                    let lines = if si == cols { tiles } else { rows };
                    assert_eq!(long, lines * kernels.len(), "{case}");

                    let flat = match edges {
                        None => c.correlate2d_valid_multi(&input, &kernels),
                        Some(edges) => c.correlate2d_same_multi(&input, &kernels, edges),
                    };
                    for (a, b) in flat.unwrap().iter().zip(&by_rows) {
                        for (x, y) in a.data().iter().zip(b.data()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A digital kernel prepared without signal sharing.
    #[derive(Debug)]
    struct PreparedDigital {
        kernel: Vec<f64>,
        signal_len: usize,
    }

    impl PreparedConv1d for PreparedDigital {
        fn signal_len(&self) -> usize {
            self.signal_len
        }

        fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, &self.kernel)
        }
    }

    /// A prepared digital kernel that also opts into signal sharing: the
    /// "transform" is just a copy of the signal, so sharing is observable
    /// through the stats without changing any numerics.
    #[derive(Debug, Clone, Default)]
    struct SharingDigital;

    #[derive(Debug)]
    struct SharedDigitalSignal {
        signal: Vec<f64>,
    }

    impl PreparedSignal for SharedDigitalSignal {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[derive(Debug)]
    struct SharingPreparedDigital {
        kernel: Vec<f64>,
        signal_len: usize,
    }

    impl PreparedConv1d for SharingPreparedDigital {
        fn signal_len(&self) -> usize {
            self.signal_len
        }

        fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, &self.kernel)
        }

        fn signal_key(&self) -> Option<u64> {
            Some(self.signal_len as u64)
        }

        fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
            Some(Arc::new(SharedDigitalSignal {
                signal: signal.to_vec(),
            }))
        }

        fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
            match prepared.as_any().downcast_ref::<SharedDigitalSignal>() {
                Some(shared) => DigitalEngine.correlate_valid(&shared.signal, &self.kernel),
                None => self.correlate_valid(signal),
            }
        }
    }

    impl Conv1dEngine for SharingDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        // Like the optics it stands in for: tiles fan out where the pool
        // has threads to give.
        fn prefers_parallel_tiles(&self) -> bool {
            true
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            Some(Arc::new(SharingPreparedDigital {
                kernel: kernel.to_vec(),
                signal_len,
            }))
        }
    }

    #[test]
    fn multi_kernel_shares_signal_transforms_and_counts_reuse() {
        // Every strategy, 4 kernels: each distinct signal's transform is
        // taken once, in its chunk's batched call (a miss), and every
        // per-kernel correlation reads one (a hit). One signal stage, so
        // one way to count: the tallies and the bits are the same whether
        // the signals ran as one chunk or one chunk per thread, run after
        // run.
        let kernels: Vec<Matrix> = (0..4).map(|i| random_matrix(3, 3, 222 + i)).collect();
        let tel = Telemetry::enabled();
        for (rows, cols, n_conv, row) in [
            // 12 output rows, 5 rows/tile, 3 valid rows per tile: 4 tiles.
            (12, 12, 64, [4, 4 * 4, 4 * 4, 4]),
            // One kernel row per group, 3 groups over 8 output rows: 24
            // windows read, 10 distinct (plane rows 0..10).
            (10, 10, 15, [24, 24 * 4, 24 * 4, 10]),
            // 10 output rows x 3 kernel rows x 2 partitions: 60 partitions
            // read, 24 distinct (12 plane rows x 2).
            (12, 12, 7, [0, 60 * 4, 60 * 4, 24]),
        ] {
            let input = random_matrix(rows, cols, 221);
            let c = TiledConvolver::new(SharingDigital, n_conv)
                .unwrap()
                .with_telemetry(tel.clone());
            for width in [1usize, 2, 4] {
                for _ in 0..5 {
                    let before = tel.snapshot();
                    let outs = pool(width)
                        .install(|| c.correlate2d_valid_multi(&input, &kernels))
                        .unwrap();
                    assert_eq!(
                        tallies(&tel, &before),
                        row,
                        "n_conv {n_conv}, pool width {width}"
                    );
                    for (kernel, plane) in kernels.iter().zip(&outs) {
                        let reference = correlate2d(&input, kernel, PaddingMode::Valid);
                        assert!(max_abs_diff(plane.data(), reference.data()) < 1e-10);
                    }
                }
            }
        }

        // Single-kernel row tiling takes no shared transform at all: tile
        // positions never repeat, so there is nothing to share.
        let input = random_matrix(12, 12, 221);
        let c = TiledConvolver::new(SharingDigital, 64)
            .unwrap()
            .with_telemetry(tel.clone());
        let before = tel.snapshot();
        c.correlate2d_valid(&input, &kernels[0]).unwrap();
        assert_eq!(tallies(&tel, &before), [4, 4, 0, 0]);
    }

    /// Prepares kernels that share signal transforms and kernels that do
    /// not, by the sign of the kernel's first sample.
    #[derive(Debug)]
    struct HalfSharingDigital;

    impl Conv1dEngine for HalfSharingDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            let kernel = kernel.to_vec();
            Some(if kernel[0] >= 0.0 {
                Arc::new(SharingPreparedDigital { kernel, signal_len })
            } else {
                Arc::new(PreparedDigital { kernel, signal_len })
            })
        }
    }

    #[test]
    fn a_stack_without_one_common_signal_key_runs_per_kernel() {
        // Sharers (+) and non-sharers (-) of a signal transform in one
        // set: there is no one key the whole stack was prepared under, so
        // nothing is shared, every kernel runs its own chain, and every
        // output must land in its kernel's slot.
        let input = random_matrix(12, 12, 261);
        let kernels: Vec<Matrix> = [1.0, -1.0, 1.0, 1.0, -1.0]
            .iter()
            .enumerate()
            .map(|(i, sign)| {
                let mut data = random_matrix(3, 3, 262 + i as u64).data().to_vec();
                data[0] = data[0].abs() * sign;
                Matrix::new(3, 3, data).unwrap()
            })
            .collect();
        let tel = Telemetry::enabled();
        let c = TiledConvolver::new(HalfSharingDigital, 64)
            .unwrap()
            .with_telemetry(tel.clone());
        let set = c.prepare_set(&kernels, 12, 12, None).unwrap();
        assert!(matches!(set.stacks[..], [Stack::Each(_)]));
        let before = tel.snapshot();
        let outs = c.correlate2d_valid_multi(&input, &kernels).unwrap();
        // 4 tiles x 5 kernels, no transform taken or read.
        assert_eq!(tallies(&tel, &before), [4, 4 * 5, 0, 0]);
        for (kernel, plane) in kernels.iter().zip(&outs) {
            let reference = correlate2d(&input, kernel, PaddingMode::Valid);
            assert!(max_abs_diff(plane.data(), reference.data()) < 1e-10);
        }
        // The sharers alone do have one key.
        let sharers = [kernels[0].clone(), kernels[2].clone(), kernels[3].clone()];
        let set = c.prepare_set(&sharers, 12, 12, None).unwrap();
        assert!(matches!(set.stacks[..], [Stack::Shared(_)]));
    }

    /// The digital engine, except that it declines to prepare any kernel
    /// whose first sample is negative.
    #[derive(Debug)]
    struct DecliningDigital;

    impl Conv1dEngine for DecliningDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            (kernel[0] >= 0.0)
                .then(|| DigitalEngine.prepare_kernel(kernel, signal_len))
                .flatten()
        }
    }

    #[test]
    fn an_engine_that_declines_one_kernel_runs_the_whole_stack_plain() {
        // Every strategy, one declined kernel in the middle of the set: the
        // stack is all or nothing, and the plain path must reproduce the
        // all-prepared run of the same maths bit for bit.
        for (rows, cols, n_conv, seed) in [
            (12, 12, 64, 271u64), // row tiling
            (10, 10, 15, 272),    // partial row tiling
            (12, 12, 7, 273),     // row partitioning
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernels: Vec<Matrix> = [1.0, -1.0, 1.0]
                .iter()
                .enumerate()
                .map(|(i, sign)| {
                    let mut data = random_matrix(3, 3, seed + 10 + i as u64).data().to_vec();
                    data[0] = data[0].abs() * sign;
                    Matrix::new(3, 3, data).unwrap()
                })
                .collect();
            let declining = TiledConvolver::new(DecliningDigital, n_conv).unwrap();
            let set = declining.prepare_set(&kernels, rows, cols, None).unwrap();
            assert!(set.stacks.iter().all(|s| matches!(s, Stack::Plain(_))));
            let prepared = convolver(n_conv)
                .prepare_set(&kernels, rows, cols, None)
                .unwrap();
            assert!(prepared.stacks.iter().all(|s| matches!(s, Stack::Each(_))));
            let plain = declining.correlate2d_valid_multi(&input, &kernels).unwrap();
            let reference = convolver(n_conv)
                .correlate2d_valid_multi(&input, &kernels)
                .unwrap();
            for (a, b) in plain.iter().zip(&reference) {
                for (x, y) in a.data().iter().zip(b.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n_conv {n_conv}");
                }
            }
        }
    }

    #[test]
    fn partitioning_reuses_row_transforms_across_kernel_rows() {
        // n_conv = 7 < si = 12 -> row partitioning. One row partition is
        // slid over by every kernel row reaching it, so even a single
        // kernel sees spectrum reuse.
        let input = random_matrix(12, 12, 231);
        let kernel = random_matrix(3, 3, 232);
        let tel = Telemetry::enabled();
        let c = TiledConvolver::new(SharingDigital, 7)
            .unwrap()
            .with_telemetry(tel.clone());
        let before = tel.snapshot();
        let out = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-10);
        let [_, convs_1d, hits, misses] = tallies(&tel, &before);
        // 12 plane rows x 2 partitions, each transformed once and read by
        // every kernel row that reaches it: 10 output rows x 3 x 2 reads.
        assert_eq!(misses, 24);
        assert_eq!(convs_1d, 60);
        assert_eq!(
            hits, convs_1d,
            "every 1D convolution read a shared transform"
        );
    }

    #[test]
    fn a_tall_partitioned_run_transforms_every_row_partition_once() {
        // Over a thousand plane rows, two thousand distinct signals: a run
        // holds the transforms of all its signals, so none is dropped and
        // none is taken twice.
        let rows = 1_064;
        let input = random_matrix(rows, 12, 241);
        let kernel = random_matrix(1, 3, 242);
        let tel = Telemetry::enabled();
        let c = TiledConvolver::new(SharingDigital, 7)
            .unwrap()
            .with_telemetry(tel.clone());
        let before = tel.snapshot();
        let out = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-10);
        // 12 columns at capacity 7 under a 3-wide kernel: 2 partitions.
        let [_, convs_1d, hits, misses] = tallies(&tel, &before);
        assert_eq!(misses, (rows * 2) as u64);
        assert_eq!(hits, convs_1d);
    }

    /// A backend with no prepared fast path: it reports the trait's default
    /// `prepares_kernels() == false`, and a preparation it is asked for
    /// anyway fails the test.
    #[derive(Debug, Clone, Copy, Default)]
    struct PlainDigital;

    impl Conv1dEngine for PlainDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            correlate1d(signal, kernel, PaddingMode::Valid)
        }

        fn prepare_kernel(&self, _: &[f64], _: usize) -> Option<Arc<dyn PreparedConv1d>> {
            panic!("an engine that does not prepare kernels was asked to")
        }
    }

    #[test]
    fn a_non_preparing_engine_is_never_asked_and_its_stacks_run_plain() {
        for (rows, cols, n_conv) in [
            (12, 12, 64), // row tiling
            (10, 10, 15), // partial row tiling
            (12, 12, 7),  // row partitioning
        ] {
            let input = random_matrix(rows, cols, 251);
            let kernels: Vec<Matrix> = (0..3).map(|i| random_matrix(3, 3, 252 + i)).collect();
            let tel = Telemetry::enabled();
            let c = TiledConvolver::new(PlainDigital, n_conv)
                .unwrap()
                .with_telemetry(tel.clone());
            let set = c.prepare_set(&kernels, rows, cols, None).unwrap();
            assert!(set.stacks.iter().all(|s| matches!(s, Stack::Plain(_))));
            let outs = c.correlate2d_valid_multi(&input, &kernels).unwrap();
            for (kernel, plane) in kernels.iter().zip(&outs) {
                let reference = correlate2d(&input, kernel, PaddingMode::Valid);
                assert!(max_abs_diff(plane.data(), reference.data()) < 1e-12);
            }
            assert_eq!(tel.snapshot().counter("tiling.kernel_prepares"), 0);
        }
    }

    #[test]
    fn same_mode_partitioning_stats_count_only_real_convolutions() {
        // 12x12 input, 3x3 kernel, capacity 7 -> row partitioning in same
        // mode. corr_len = 10, step = 5 -> 2 partitions per kernel row.
        // Interior output rows run all 3 kernel rows (6 convs); the top and
        // bottom border rows skip one out-of-range kernel row (4 convs):
        // 10 * 6 + 2 * 4 = 68.
        let input = random_matrix(12, 12, 111);
        let kernel = random_matrix(3, 3, 112);
        let tel = Telemetry::enabled();
        let before = tel.snapshot();
        convolver(7)
            .with_telemetry(tel.clone())
            .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        // Row partitioning slices rows in place: no tiled vectors built.
        assert_eq!(tallies(&tel, &before), [0, 68, 0, 0]);
    }

    #[test]
    fn stats_count_convolutions() {
        // Figure 3 setting: 3 tiles for a 5x5 input (see plan tests).
        let input = random_matrix(5, 5, 101);
        let kernel = random_matrix(3, 3, 102);
        let tel = Telemetry::enabled();
        let c = convolver(20).with_telemetry(tel.clone());
        let before = tel.snapshot();
        c.correlate2d_valid(&input, &kernel).unwrap();
        // ceil(3 output rows / 2 per conv) tiles, one convolution each.
        assert_eq!(tallies(&tel, &before), [2, 2, 0, 0]);
        // The counters accumulate across calls.
        c.correlate2d_valid(&input, &kernel).unwrap();
        assert_eq!(tallies(&tel, &before), [4, 4, 0, 0]);
        assert_eq!(tel.snapshot().counter("tiling.conv2d_calls"), 2);
    }
}
