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
//!    one strategy the plan selects — every tiled 1D kernel with its
//!    prepared form. The result is an owned [`KernelSet`]: the filter as it
//!    sits in the PFCU while input tiles stream past it.
//! 2. [`TiledConvolver::correlate2d_set`] runs a set against one input:
//!    it cuts the tiles, calls the engine and hands every output sample to
//!    the caller's sink. It runs exactly one of three strategy bodies — row
//!    tiling, partial row tiling, row partitioning — the three genuinely
//!    different algorithms of Section III. Output samples whose window
//!    hangs over the edge of a tile (only possible at a non-zero column
//!    offset) are recomputed with a direct dot product; everything else is
//!    handed over out of the 1D results a covered column range at a time.
//!
//! The `correlate2d_*` entry points are step 1 then step 2 into fresh output
//! planes. A caller that meets the same kernels again (a CNN layer, image
//! after image) keeps the set and repeats only step 2.
//!
//! # Throughput engineering
//!
//! The convolver is built for batch throughput, and its loops are grouped
//! **by input signal** rather than by kernel so that per-signal work is
//! shared:
//!
//! * nothing that depends on the kernels alone happens per input: a
//!   [`KernelSet`] holds the tiled kernels already prepared through
//!   [`Conv1dEngine::prepare_kernel`]. Preparations are looked up in a
//!   store (keyed by the exact kernel bits and the tile length) *while the
//!   set is built*, so two sets — or two bare convolutions — over the same
//!   weights prepare them once; a run never touches the store. Engines
//!   report [`Conv1dEngine::prepares_kernels`] so engines without a fast
//!   path never pay the key hashing. One store, and one set, can serve
//!   several engines of one configuration ([`TiledConvolver::on`] —
//!   per-request seeded engines of a stochastic backend): each run binds
//!   the set's preparations to the calling engine's own state through
//!   [`Conv1dEngine::bind_prepared`];
//! * a run correlates **each input tile against every kernel of the set
//!   before moving to the next tile**: the tile is built once, and engines
//!   that support signal sharing ([`PreparedConv1d::prepare_signal`])
//!   compute the tile's transform (for the JTC: its real-input
//!   half-spectrum) once and replay it against all N prepared kernel
//!   spectra. The consumers of one tile's transform go to the engine as a
//!   whole set ([`PreparedConv1d::correlate_set_with_signal`]), so an
//!   engine that can carry several kernels through its second transform
//!   together (the JTC: four to a lane block) does — one spectrum-add per
//!   kernel and one inverse transform per block instead of two transforms
//!   per kernel. A CNN layer correlates each tile against up to
//!   `2 × out_channels` kernels, so this removes the dominant redundant
//!   signal FFTs of batched inference. On serial multi-kernel row tiling
//!   the tile transforms are additionally requested in **one batched
//!   call** ([`PreparedConv1d::prepare_signal_batch`]): when a kernel of
//!   the set produces shared transforms, every tile of the image is packed
//!   planar and handed over before the per-tile loop consumes the seeded
//!   cache (a set without a producer — the digital engine — packs nothing);
//! * shared signal transforms live in a **per-run scratch cache**; row
//!   partitioning also reuses one row partition's transform across all
//!   kernel rows that slide over it. The scratch and the prepared-kernel
//!   store share one bound and one eviction rule (1024 entries, then drop
//!   everything);
//! * output samples go to a caller-supplied sink, a row segment at a time,
//!   so the caller decides where a plane lives and how it is combined: the
//!   `correlate2d_*` entry points copy into fresh matrices, the CNN
//!   executor subtracts a pseudo-negative pair straight into one flat
//!   buffer;
//! * independent tiles/rows are dispatched across rayon worker threads with
//!   deterministic ordering (results are collected in tile order, and each
//!   tile is a pure function of its inputs), so the parallel output is
//!   bit-identical to the serial output. Engines that report
//!   [`Conv1dEngine::is_deterministic`] `== false` (optical sensing noise)
//!   are always driven serially so their noise streams stay reproducible.
//!   Tiles fan out only when this call is the outermost parallel region:
//!   the gate reads the pool width, and on a worker of somebody else's
//!   region (a batch fanned out across images, a sweep across grid points)
//!   the pool answers 1, so nested tiles take the serial fast path without
//!   any caller having to say so;
//! * tallies (tiles, 1D convolutions and spectrum reuse per run, kernel
//!   preparations per prepared set) are flushed into the `tiling.*`
//!   counters of the attached [`Telemetry`] handle; read them from a
//!   snapshot (`docs/PERFORMANCE.md` has the recipe).

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use pf_dsp::conv::Matrix;
use pf_telemetry::{Counter, Stage, StageAcc, Stopwatch, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::engine::{Conv1dEngine, PreparedConv1d, PreparedSignal};
use crate::error::TilingError;
use crate::plan::{TilingPlan, TilingVariant};
use crate::tiler::{fill_tile_rows, tile_input_rows, tile_kernel_rows};

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

/// Entry bound shared by the prepared-kernel store and the per-run signal
/// scratch. A CNN batch touches a few hundred distinct (kernel, tile
/// length) pairs at most, and one 2D call a few dozen tile transforms; a
/// workload streaming unbounded distinct kernels (template matching) or a
/// huge input under row partitioning would otherwise grow the maps forever.
const CACHE_CAP: usize = 1024;

/// The one eviction rule of both caches: at [`CACHE_CAP`] entries the map
/// resets wholesale before the newcomer goes in — crude, but fixed-kernel
/// workloads never hit it and every entry is cheap to recompute. An LRU was
/// measured against this on the `conv_fresh` benchmark workload and
/// declined (`docs/PERFORMANCE.md`). When two workers race to insert the
/// same key the first entry stays; the values are interchangeable.
fn insert_capped<K: Eq + Hash, V>(map: &mut HashMap<K, V>, key: K, value: V) {
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.entry(key).or_insert(value);
}

/// Store key: exact bit pattern of the tiled kernel plus the tile length it
/// was prepared for.
type PrepKey = (usize, Vec<u64>);

type PrepMap = HashMap<PrepKey, Option<Arc<dyn PreparedConv1d>>>;

/// Position of one 1D signal within the current run: (first plane row,
/// start column, end column). Within one run, equal keys denote
/// bit-identical signal content, so the key doubles as the shared
/// signal-transform cache key without hashing the samples themselves.
type SigKey = (isize, usize, usize);

/// The per-run shared signal-transform scratch: transforms keyed by signal
/// position, plus the tallies flushed into `tiling.spectrum_hits` /
/// `tiling.spectrum_misses` when the run ends. Best-effort under parallel
/// dispatch (two workers may compute the same transform concurrently).
#[derive(Debug, Default)]
struct SignalScratch {
    map: HashMap<SigKey, Arc<dyn PreparedSignal>>,
    hits: usize,
    misses: usize,
}

/// One tiled 1D kernel of a [`KernelSet`].
#[derive(Debug)]
struct Kernel1d {
    /// The tiled kernel vector, for engines without a fast path; empty when
    /// `prep` stands in for it.
    tiled: Vec<f64>,
    /// The engine's prepared form, as the store holds it: not yet bound to
    /// any engine's own state.
    prep: Option<Arc<dyn PreparedConv1d>>,
}

/// A [`Kernel1d`] for the length of one run: its preparation bound to the
/// calling engine ([`Conv1dEngine::bind_prepared`]).
struct Bound<'a> {
    tiled: &'a [f64],
    prep: Option<Arc<dyn PreparedConv1d>>,
}

/// The tiled 1D kernels of a [`KernelSet`], in the layout of the one
/// strategy body its plan selects.
#[derive(Debug)]
enum Stacks {
    /// One tiled kernel per kernel of the set.
    RowTiling(Vec<Kernel1d>),
    /// `(first kernel row, kernel rows, one tiled kernel per kernel)` per
    /// kernel-row group.
    PartialRowTiling(Vec<(usize, usize, Vec<Kernel1d>)>),
    /// The overlap-save column partitions `(start, end)` every row shares,
    /// and `sets[dr][p]`: the kernel rows `dr` correlated against partition
    /// `p` of the plane row they land on.
    RowPartitioning {
        parts: Vec<(usize, usize)>,
        sets: Vec<Vec<Vec<Kernel1d>>>,
    },
}

/// Kernels of one shape lowered for inputs of one shape: everything a 2D
/// convolution does that does not depend on the input
/// ([`TiledConvolver::prepare_set`]), kept so that it is done once however
/// many inputs stream past ([`TiledConvolver::correlate2d_set`]).
#[derive(Debug)]
pub struct KernelSet {
    /// The 2D kernels: border samples and row partitioning read them.
    kernels: Vec<Matrix>,
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
    stacks: Stacks,
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
    /// Prepared kernels shared across [`TiledConvolver::on`] views (and
    /// therefore across the seeded requests of a session): `None` entries
    /// record that the engine declined to prepare.
    prep_cache: Arc<Mutex<PrepMap>>,
    /// Observability handle: disabled by default (zero-cost no-op path).
    /// When enabled, 1D convolutions run through the traced engine variants
    /// (which attribute per-stage time) and each run flushes its tallies
    /// into the `tiling.*` counters.
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
            prep_cache: Arc::new(Mutex::new(HashMap::new())),
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
    /// grain, prepared-kernel store and telemetry handle. `engine` must
    /// prepare kernels interchangeably with this convolver's own: the same
    /// configuration up to per-engine state such as a noise seed. Whatever
    /// either engine prepares, the other reads from the one store, and a
    /// [`KernelSet`] either prepared runs on the other: every run binds the
    /// preparations to its own engine ([`Conv1dEngine::bind_prepared`]), so
    /// a per-request seeded engine pays for its noise stream only, never
    /// for the deterministic preparations.
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
            prep_cache: Arc::clone(&self.prep_cache),
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
        let mut outs: Vec<Matrix> = (0..kernels.len())
            .map(|_| Matrix::zeros(rows, cols))
            .collect();
        self.correlate2d_set(&set, input, |k, r, c, samples| {
            outs[k].row_mut(r)[c..c + samples.len()].copy_from_slice(samples);
        })?;
        Ok(outs)
    }

    /// Lowers `kernels` (one shape) for inputs of `plane_rows × plane_cols`:
    /// the half of a 2D convolution that does not depend on the input.
    /// `edges == None` is `valid` mode, `Some` is `same` mode with that
    /// edge handling. Places the output grid on the tiled plane, plans, and
    /// builds the tiled 1D kernels of the one strategy the plan selects,
    /// each with its prepared form from the store (a miss prepares it,
    /// stores it and is tallied into `tiling.kernel_prepares`).
    ///
    /// The set is tied to this convolver's capacity and to engines of its
    /// configuration; it runs on this convolver and on its
    /// [`TiledConvolver::on`] views.
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
        let stacks = match plan.variant {
            TilingVariant::RowTiling => {
                let tile_len = plan.rows_per_tile * si;
                Stacks::RowTiling(
                    kernels
                        .iter()
                        .map(|k| {
                            let tiled = tile_kernel_rows(k, 0, kr, si, plan.tiled_kernel_len());
                            self.kernel1d(tiled, tile_len, &mut prepares)
                        })
                        .collect(),
                )
            }
            TilingVariant::PartialRowTiling => {
                // Kernel rows are processed in groups of `rows_per_tile`.
                let n_ir = plan.rows_per_tile.max(1);
                let mut groups = Vec::new();
                let mut k_start = 0;
                while k_start < kr {
                    let count = n_ir.min(kr - k_start);
                    let ks = kernels
                        .iter()
                        .map(|k| {
                            let tiled =
                                tile_kernel_rows(k, k_start, count, si, (count - 1) * si + kc);
                            self.kernel1d(tiled, count * si, &mut prepares)
                        })
                        .collect();
                    groups.push((k_start, count, ks));
                    k_start += count;
                }
                Stacks::PartialRowTiling(groups)
            }
            TilingVariant::RowPartitioning => {
                // Every row shares the same column partitioning, so the
                // partition list and the per-(kernel row, partition, kernel)
                // prepared kernel rows are built once for the whole set.
                let step = self.n_conv - kc + 1;
                let parts = column_partitions(si - kc + 1, si, self.n_conv, step);
                let sets = (0..kr)
                    .map(|dr| {
                        parts
                            .iter()
                            .map(|&(s, e)| {
                                kernels
                                    .iter()
                                    .map(|k| {
                                        self.kernel1d(k.row(dr).to_vec(), e - s, &mut prepares)
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                Stacks::RowPartitioning { parts, sets }
            }
        };
        if self.telemetry.is_enabled() {
            self.counters.kernel_prepares.add(prepares as u64);
        }
        Ok(KernelSet {
            kernels: kernels.to_vec(),
            input_shape: (plane_rows, plane_cols),
            output_shape,
            row_off,
            col_off,
            pad,
            plan,
            stacks,
        })
    }

    /// Runs a prepared set against `input`: the half of a 2D convolution
    /// that is all signal-side work. Cuts the tiles, binds the set's
    /// preparations to this convolver's engine
    /// ([`Conv1dEngine::bind_prepared`]), runs the one strategy body the
    /// set was planned for and flushes the run's tallies into the
    /// `tiling.*` counters.
    ///
    /// Output goes to `emit(k, row, col, samples)`: `samples` are
    /// consecutive elements of kernel `k`'s output plane
    /// ([`KernelSet::output_shape`]), starting at `(row, col)` and staying
    /// within that row. Every element of every plane is emitted exactly
    /// once, and the emissions covering one `(row, col)` arrive in kernel
    /// order — a sink may combine a later kernel's sample with an earlier
    /// kernel's in place.
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
        let scratch = Mutex::new(SignalScratch::default());

        let (tiles, convs) = match &set.stacks {
            Stacks::RowTiling(stack) => self.by_row_tiling(plane, set, stack, &scratch, &mut emit),
            Stacks::PartialRowTiling(groups) => {
                self.by_partial_tiling(plane, set, groups, &scratch, &mut emit)
            }
            Stacks::RowPartitioning { parts, sets } => {
                self.by_partitioning(plane, set, parts, sets, &scratch, &mut emit)
            }
        };
        // Batched per run (not per tile) so the hot loop stays untouched;
        // no-op handles when telemetry is disabled.
        if self.telemetry.is_enabled() {
            let scratch = scratch.into_inner();
            self.counters.tiles.add(tiles as u64);
            self.counters.convs_1d.add(convs as u64);
            self.counters.spectrum_hits.add(scratch.hits as u64);
            self.counters.spectrum_misses.add(scratch.misses as u64);
            self.counters.conv2d_calls.inc();
        }
        Ok(())
    }

    // ----- shared machinery ------------------------------------------------

    /// Stage attribution of the single-kernel tile loop measures one
    /// convolution in this many (scaled back up at flush; see
    /// `extrapolate_ns`). Every tile of a call runs the identical stage
    /// sequence on identical geometry, so a strided sample reconstructs the
    /// split at a quarter of the clock-read cost — what keeps traced runs
    /// inside the CI overhead budget. (Kernel sets need no sampling: the
    /// engine marks once per lane block; see `apply_kernel_set`.)
    const STAGE_SAMPLE_STRIDE: usize = 4;

    /// Scales a sampled per-stage split up to `total` convolutions.
    fn extrapolate_ns(ns: [u64; Stage::COUNT], total: u64, sampled: u64) -> [u64; Stage::COUNT] {
        if sampled == 0 || sampled >= total {
            return ns;
        }
        ns.map(|v| ((v as u128 * total as u128) / sampled as u128) as u64)
    }

    /// Looks up (or builds) the prepared form of `kernel` for tiles of
    /// `signal_len` samples. `None` means the engine has no fast path. The
    /// entry is the store's own — prepared by whichever engine sharing the
    /// store ([`TiledConvolver::on`]) met the kernel first; a run binds it
    /// to its engine. A miss is tallied on `prepares`
    /// (`tiling.kernel_prepares`).
    fn prepared(
        &self,
        kernel: &[f64],
        signal_len: usize,
        prepares: &mut usize,
    ) -> Option<Arc<dyn PreparedConv1d>> {
        if !self.engine.prepares_kernels() {
            // Building and hashing the bit-pattern key costs more than a
            // short dot product; engines without a fast path skip it.
            return None;
        }
        let key: PrepKey = (signal_len, kernel.iter().map(|v| v.to_bits()).collect());
        let cached = self.prep_cache.lock().get(&key).cloned();
        if let Some(entry) = cached {
            return entry;
        }
        // Build outside the lock: preparation may run an FFT.
        let prep = self.engine.prepare_kernel(kernel, signal_len);
        *prepares += 1;
        insert_capped(&mut self.prep_cache.lock(), key, prep.clone());
        prep
    }

    /// Builds one tiled kernel of a set.
    fn kernel1d(&self, tiled: Vec<f64>, signal_len: usize, prepares: &mut usize) -> Kernel1d {
        let prep = self.prepared(&tiled, signal_len, prepares);
        let tiled = if prep.is_some() { Vec::new() } else { tiled };
        Kernel1d { tiled, prep }
    }

    /// Binds a stack's preparations to this convolver's engine for one run.
    fn bind<'a>(&self, stack: &'a [Kernel1d]) -> Vec<Bound<'a>> {
        stack
            .iter()
            .map(|k| Bound {
                tiled: &k.tiled,
                prep: k.prep.clone().map(|p| self.engine.bind_prepared(p)),
            })
            .collect()
    }

    /// Runs `f` — a batched shared-transform preparation — attributing its
    /// wall time to the `signal_fft` stage when telemetry is enabled.
    /// Without this (and the equivalent mark in `apply_kernel_set`) a
    /// traced shared run would show no signal-FFT time at all: the shared
    /// path computes its transforms only at the prepare sites. The
    /// preparation also includes the input-DAC quantisation of the
    /// signals; that sliver rides along into `signal_fft` rather than
    /// `dac_adc` (the transform dominates).
    fn attribute_signal_fft<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.telemetry.is_enabled() {
            return f();
        }
        let mut sw = Stopwatch::start();
        let out = f();
        let mut ns = [0u64; Stage::COUNT];
        ns[Stage::SignalFft.index()] = sw.lap_ns();
        self.telemetry.stage_add_ns(ns);
        out
    }

    /// Runs one 1D convolution through the prepared fast path when
    /// available, falling back to the engine. `acc` (present exactly when
    /// telemetry is enabled) collects the per-stage split; the caller owns
    /// it across its tile loop and flushes once.
    fn run1d(&self, kernel: &Bound<'_>, signal: &[f64], acc: Option<&mut StageAcc>) -> Vec<f64> {
        match (&kernel.prep, acc) {
            (Some(p), Some(acc)) => p.correlate_valid_acc(signal, acc),
            (Some(p), None) => p.correlate_valid(signal),
            (None, _) => self.engine.correlate_valid(signal, kernel.tiled),
        }
    }

    /// Correlates one signal against a whole kernel set, sharing the
    /// signal's transform across every kernel that supports it.
    ///
    /// `share` additionally enables the per-run scratch cache lookup; it is
    /// off for single-kernel row tiling, where tile positions never repeat
    /// and the shared path would only add copies.
    fn apply_kernel_set(
        &self,
        scratch: &Mutex<SignalScratch>,
        key: SigKey,
        signal: &[f64],
        kernels: &[Bound<'_>],
        share: bool,
    ) -> Vec<Vec<f64>> {
        let share_key = if share {
            kernels
                .iter()
                .find_map(|k| k.prep.as_ref().and_then(|p| p.signal_key()))
        } else {
            None
        };

        // One set-local accumulator, one registry flush at the end. Every
        // mark is exact: the shared-transform preparation, each run of
        // consumers (the engine marks its stages once per lane block — as
        // many clock reads as a one-in-`STAGE_SAMPLE_STRIDE` sample would
        // cost, with nothing to extrapolate), fallback convolutions.
        let mut acc = self.telemetry.is_enabled().then(StageAcc::start);

        let mut shared: Option<Arc<dyn PreparedSignal>> = None;
        let mut computed_here = false;
        if let Some(sk) = share_key {
            shared = scratch.lock().map.get(&key).cloned();
            if shared.is_none() {
                let producer = kernels
                    .iter()
                    .find(|k| k.prep.as_ref().is_some_and(|p| p.signal_key() == Some(sk)))
                    .and_then(|k| k.prep.as_ref());
                // Compute outside the lock: this is the signal FFT. The
                // preparation includes the input-DAC quantisation of the
                // signal; that sliver rides into `signal_fft` (the
                // transform dominates, and splitting it out would cost an
                // extra clock read per tile).
                if let Some(sig) = producer.and_then(|p| p.prepare_signal(signal)) {
                    if let Some(acc) = acc.as_mut() {
                        acc.mark(Stage::SignalFft);
                    }
                    computed_here = true;
                    insert_capped(&mut scratch.lock().map, key, Arc::clone(&sig));
                    shared = Some(sig);
                }
            }
        }

        // Consumers of the shared transform go to the engine as whole runs
        // (one call per tile when every kernel consumes, the usual case);
        // a kernel that cannot consume it ends the run and goes through on
        // its own, so outputs and any engine noise stream keep kernel
        // order.
        let consumes = |k: &Bound<'_>| {
            let key = k.prep.as_ref().map(|p| p.signal_key());
            shared.is_some() && key == Some(share_key)
        };
        let mut consumers = 0usize;
        let mut out: Vec<Vec<f64>> = Vec::new();
        let mut rest = kernels;
        while let Some(k) = rest.first() {
            if let Some(acc) = acc.as_mut() {
                acc.skip();
            }
            if let (true, Some(sig)) = (consumes(k), &shared) {
                let mut run: Vec<&dyn PreparedConv1d> = Vec::with_capacity(rest.len());
                run.extend(
                    rest.iter()
                        .take_while(|k| consumes(k))
                        .filter_map(|k| k.prep.as_deref()),
                );
                let outputs = run[0].correlate_set_with_signal(&run, &**sig, signal, acc.as_mut());
                if out.is_empty() {
                    out = outputs;
                } else {
                    out.extend(outputs);
                }
                consumers += run.len();
                rest = &rest[run.len()..];
            } else {
                // All of it on the first pass; nothing after.
                out.reserve(rest.len());
                out.push(self.run1d(k, signal, acc.as_mut()));
                rest = &rest[1..];
            }
        }
        if let Some(acc) = acc.as_mut() {
            acc.flush(&self.telemetry);
        }

        if consumers > 0 {
            let mut guard = scratch.lock();
            if computed_here {
                guard.misses += 1;
                guard.hits += consumers - 1;
            } else {
                guard.hits += consumers;
            }
        }
        out
    }

    /// Seeds the shared-signal scratch from a **batched** transform pass:
    /// all tile signals are packed planar (`keys.len()` rows, back to back
    /// in `signals`) and handed to `producer`'s
    /// [`PreparedConv1d::prepare_signal_batch`] in one call (the JTC
    /// transforms the rows one after another). The per-tile loop that
    /// follows then finds each transform already cached.
    ///
    /// Each seeded transform is bit-identical to what the per-tile path
    /// would have computed (the trait contract), so consuming code needs no
    /// changes and results are unchanged bit for bit. Counters: one miss
    /// per transform seeded here; every consumption downstream is a hit.
    fn seed_shared_signals(
        &self,
        scratch: &Mutex<SignalScratch>,
        producer: &dyn PreparedConv1d,
        keys: &[SigKey],
        signals: &[f64],
    ) {
        let Some(transforms) =
            self.attribute_signal_fft(|| producer.prepare_signal_batch(signals, keys.len()))
        else {
            return;
        };
        let mut guard = scratch.lock();
        for (key, sig) in keys.iter().zip(transforms) {
            insert_capped(&mut guard.map, *key, sig);
            guard.misses += 1;
        }
    }

    /// Whether this call would actually fan work out across threads.
    fn parallel_active(&self, items: usize) -> bool {
        // Four gates: the grain, the engine's own cost hint (the vendored
        // rayon spawns scoped threads per call, so parallelising
        // memory-bound dot-product tiles would lose outright), determinism
        // (noise streams must keep their serial order) and the pool. The
        // pool gate is also what keeps parallel regions from nesting: a
        // worker of an outer region reads a width of 1 here. On a 1-wide
        // pool the collect-based parallel branches would run inline anyway,
        // minus the serial path's buffer reuse and batched transform
        // pre-pass.
        self.grain == ParallelGrain::Auto
            && self.engine.prefers_parallel_tiles()
            && items > 1
            && self.engine.is_deterministic()
            && rayon::current_num_threads() > 1
    }

    /// Maps `f` over `items`, in parallel when the engine allows it.
    /// Results are always collected in input order, so the parallel path is
    /// indistinguishable from the serial one.
    fn dispatch<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.parallel_active(items.len()) {
            items.par_iter().map(f).collect()
        } else {
            items.iter().map(f).collect()
        }
    }

    // ----- the three strategy bodies ---------------------------------------

    /// Row tiling (Section III-A): each 1D convolution covers
    /// `rows_per_tile` plane rows and completes `N_or` output rows.
    /// Returns `(tiles built, 1D convolutions run)`.
    fn by_row_tiling(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        stack: &[Kernel1d],
        scratch: &Mutex<SignalScratch>,
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> (usize, usize) {
        let (plan, kernels) = (&set.plan, &set.kernels);
        let (row_off, col_off) = (set.row_off, set.col_off);
        let si = plane.cols();
        let n_or = plan.valid_output_rows_per_conv;
        let tile_len = plan.rows_per_tile * si;
        let ks = self.bind(stack);
        // Tile positions never repeat within a run, so the scratch cache
        // only pays off when several kernels share one tile transform.
        let share = kernels.len() > 1;

        let (out_rows, out_cols) = set.output_shape;
        let starts: Vec<usize> = (0..out_rows).step_by(n_or).collect();
        let tile_start = |r0: usize| r0 as isize - row_off as isize;
        // Output column `c` of the tile's `rr`-th output row reads
        // `corr[rr * si + c - col_off]`. The covered column range is
        // computed once per row and emitted as a slice; at zero offset it
        // is the whole row.
        let mut write = |r0: usize, per_kernel: &[Vec<f64>]| {
            for (k, (corr, kernel)) in per_kernel.iter().zip(kernels).enumerate() {
                for rr in 0..n_or.min(out_rows - r0) {
                    let (out_r, base) = (r0 + rr, rr * si);
                    let covered = covered_columns(base, col_off, corr.len(), out_cols);
                    if !covered.is_empty() {
                        let src = base + covered.start - col_off;
                        emit(k, out_r, covered.start, &corr[src..src + covered.len()]);
                    }
                    // The window starts before this tile (left border of
                    // the tile's first output row) or runs past its end
                    // (right border of its last output row). In hardware
                    // these samples come from the neighbouring tile's
                    // output; reproduce them exactly with a direct dot
                    // product so the only approximation left is the
                    // genuine wraparound edge effect.
                    for c in (0..covered.start).chain(covered.end..out_cols) {
                        let sample = window_dot(
                            plane,
                            kernel,
                            0..kernel.rows(),
                            out_r as isize - row_off as isize,
                            c as isize - col_off as isize,
                        );
                        emit(k, out_r, c, &[sample]);
                    }
                }
            }
        };

        if self.parallel_active(starts.len()) {
            let corrs = self.dispatch(&starts, |&r0| {
                let tiled_input =
                    tile_input_rows(plane, tile_start(r0), plan.rows_per_tile, self.n_conv);
                self.apply_kernel_set(
                    scratch,
                    (tile_start(r0), 0, tile_len),
                    &tiled_input[..tile_len],
                    &ks,
                    share,
                )
            });
            for (per_kernel, &r0) in corrs.iter().zip(&starts) {
                write(r0, per_kernel);
            }
        } else {
            // Serial fast path: one tile buffer reused across every tile,
            // results handed over immediately (no intermediate collection;
            // the single-kernel case additionally skips the per-kernel
            // result vector entirely).
            let mut buf = vec![0.0; self.n_conv];
            // Batched pre-pass, when a kernel of the set produces shared
            // transforms at all (asked before anything is packed): every
            // tile goes planar into one buffer and the whole batch is
            // transformed in one call; the loop below hits the seeded
            // cache tile by tile.
            let producer = (share && starts.len() <= CACHE_CAP)
                .then(|| {
                    ks.iter()
                        .filter_map(|k| k.prep.as_deref())
                        .find(|p| p.signal_key().is_some())
                })
                .flatten();
            if let Some(producer) = producer {
                let mut signals = Vec::with_capacity(starts.len() * tile_len);
                let keys: Vec<SigKey> = starts
                    .iter()
                    .map(|&r0| {
                        fill_tile_rows(&mut buf, plane, tile_start(r0), plan.rows_per_tile);
                        signals.extend_from_slice(&buf[..tile_len]);
                        (tile_start(r0), 0, tile_len)
                    })
                    .collect();
                self.seed_shared_signals(scratch, producer, &keys, &signals);
            }
            // Single-kernel runs hold one accumulator across the tile loop
            // with the same strided sampling as the kernel-set path (which
            // flushes inside `apply_kernel_set`); the `skip` drops tile
            // refills and result hand-over from the next mark.
            let mut acc = (!share && self.telemetry.is_enabled()).then(StageAcc::start);
            let mut sampled = 0u64;
            for (i, &r0) in starts.iter().enumerate() {
                fill_tile_rows(&mut buf, plane, tile_start(r0), plan.rows_per_tile);
                let signal = &buf[..tile_len];
                if share {
                    let per_kernel = self.apply_kernel_set(
                        scratch,
                        (tile_start(r0), 0, tile_len),
                        signal,
                        &ks,
                        share,
                    );
                    write(r0, &per_kernel);
                } else {
                    let corr = match acc.as_mut() {
                        Some(acc) if i.is_multiple_of(Self::STAGE_SAMPLE_STRIDE) => {
                            sampled += 1;
                            acc.skip();
                            self.run1d(&ks[0], signal, Some(acc))
                        }
                        _ => self.run1d(&ks[0], signal, None),
                    };
                    write(r0, std::slice::from_ref(&corr));
                }
            }
            if let Some(acc) = acc.as_mut() {
                self.telemetry.stage_add_ns(Self::extrapolate_ns(
                    acc.ns(),
                    starts.len() as u64,
                    sampled,
                ));
            }
        }
        (starts.len(), starts.len() * kernels.len())
    }

    /// Partial row tiling (Section III-B): one output row at a time;
    /// kernel rows are processed in groups of `rows_per_tile` and their
    /// contributions accumulated. Returns `(tiles built, 1D convolutions
    /// run)`.
    fn by_partial_tiling(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        groups: &[(usize, usize, Vec<Kernel1d>)],
        scratch: &Mutex<SignalScratch>,
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> (usize, usize) {
        let (row_off, col_off) = (set.row_off, set.col_off);
        // Consecutive output rows revisit the same plane-row windows, so
        // the shared-signal scratch is active even for a single kernel.
        let kernels = &set.kernels;
        let si = plane.cols();
        let groups: Vec<(usize, usize, Vec<Bound<'_>>)> = groups
            .iter()
            .map(|(k_start, count, ks)| (*k_start, *count, self.bind(ks)))
            .collect();

        let (out_rows, out_cols) = set.output_shape;
        let rows: Vec<usize> = (0..out_rows).collect();
        let accs = self.dispatch(&rows, |&out_r| {
            let top = out_r as isize - row_off as isize;
            let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
            for (k_start, count, ks) in &groups {
                let tile_start = top + *k_start as isize;
                let tiled_input = tile_input_rows(plane, tile_start, *count, self.n_conv);
                let key = (tile_start, 0, count * si);
                let per_kernel =
                    self.apply_kernel_set(scratch, key, &tiled_input[..count * si], ks, true);
                for ((acc_k, corr), kernel) in acc.iter_mut().zip(&per_kernel).zip(kernels) {
                    let covered = covered_columns(0, col_off, corr.len(), out_cols);
                    for (c, slot) in acc_k.iter_mut().enumerate() {
                        *slot += if covered.contains(&c) {
                            corr[c - col_off]
                        } else {
                            window_dot(
                                plane,
                                kernel,
                                *k_start..k_start + count,
                                top,
                                c as isize - col_off as isize,
                            )
                        };
                    }
                }
            }
            acc
        });
        emit_rows(&accs, emit);
        let n = rows.len() * groups.len();
        (n, n * kernels.len())
    }

    /// Row partitioning (Section III-C): overlap-save over columns — each
    /// kernel row is correlated with partitions of the matching plane row
    /// and the results accumulated. Rows are sliced in place, so no tiled
    /// vectors are built: returns `(0, 1D convolutions run)`.
    fn by_partitioning(
        &self,
        plane: &Matrix,
        set: &KernelSet,
        parts: &[(usize, usize)],
        sets: &[Vec<Vec<Kernel1d>>],
        scratch: &Mutex<SignalScratch>,
        emit: &mut impl FnMut(usize, usize, usize, &[f64]),
    ) -> (usize, usize) {
        let (row_off, col_off) = (set.row_off, set.col_off);
        // One plane row partition is slid over by *every* kernel row of
        // *every* kernel, so its shared transform is computed once and
        // replayed `kernels × kernel_rows` times through the scratch cache.
        let kernels = &set.kernels;
        let kernel_rows = kernels[0].rows();
        let corr_len = plane.cols() - kernels[0].cols() + 1;
        let sets: Vec<Vec<Vec<Bound<'_>>>> = sets
            .iter()
            .map(|per_part| per_part.iter().map(|ks| self.bind(ks)).collect())
            .collect();
        let (out_rows, out_cols) = set.output_shape;
        let rows: Vec<usize> = (0..out_rows).collect();
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
        let covered = covered_columns(0, col_off, corr_len, out_cols);
        let accs = self.dispatch(&rows, |&out_r| {
            let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
            for (dr, r) in live_rows(out_r) {
                let row = plane.row(r);
                for (p, &(start, end)) in parts.iter().enumerate() {
                    let key = (r as isize, start, end);
                    let per_kernel =
                        self.apply_kernel_set(scratch, key, &row[start..end], &sets[dr][p], true);
                    for (acc_k, corr) in acc.iter_mut().zip(&per_kernel) {
                        for (i, v) in corr.iter().enumerate() {
                            // Sample `start + i` of the row's correlation
                            // is output column `start + i + col_off`.
                            if start + i < corr_len && start + i + col_off < out_cols {
                                acc_k[start + i + col_off] += v;
                            }
                        }
                    }
                }
                // Columns whose window hangs over either end of the row.
                for (acc_k, kernel) in acc.iter_mut().zip(kernels) {
                    for c in (0..covered.start).chain(covered.end..out_cols) {
                        acc_k[c] +=
                            row_window_dot(row, kernel.row(dr), c as isize - col_off as isize);
                    }
                }
            }
            acc
        });
        emit_rows(&accs, emit);
        // Count only convolutions that actually run.
        let live: usize = rows.iter().map(|&out_r| live_rows(out_r).count()).sum();
        (0, live * parts.len() * kernels.len())
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

/// Emits per-output-row accumulators (`accs[out_r][kernel]`) as whole rows.
fn emit_rows(accs: &[Vec<Vec<f64>>], emit: &mut impl FnMut(usize, usize, usize, &[f64])) {
    for (out_r, acc) in accs.iter().enumerate() {
        for (k, acc_k) in acc.iter().enumerate() {
            emit(k, out_r, 0, acc_k);
        }
    }
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

/// Direct dot product of kernel rows `kernel_rows` with the window whose
/// top-left corner is at (`top_row`, `left_col`) of `plane` (`top_row`
/// addresses kernel row 0), out-of-range elements reading as the row-major
/// "flat" continuation (the wraparound semantics of the tiled 1D view) when
/// inside the matrix, or zero when outside it entirely.
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
        // On a 1-wide pool neither grain fans out: the serial fast path
        // (tile buffer reuse, batched transform pre-pass) is chosen at the
        // source.
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

    /// Digital-reference engine that opts into the prepared fast path and
    /// counts how many kernels it has prepared — the probe for the cache
    /// tests below. Clones share the counter, mirroring how clones of the
    /// convolver share the cache.
    #[derive(Debug, Clone, Default)]
    struct CountingPrepEngine {
        prepares: Arc<std::sync::atomic::AtomicUsize>,
    }

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

    impl Conv1dEngine for CountingPrepEngine {
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
            self.prepares
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(Arc::new(PreparedDigital {
                kernel: kernel.to_vec(),
                signal_len,
            }))
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
        // Row tiling, 4 kernels: every tile's transform is computed in the
        // batched pre-pass (one miss per tile) and every per-kernel
        // correlation then consumes the seeded transform (a hit).
        let input = random_matrix(12, 12, 221);
        let kernels: Vec<Matrix> = (0..4).map(|i| random_matrix(3, 3, 222 + i)).collect();
        let tel = Telemetry::enabled();
        let c = TiledConvolver::new(SharingDigital, 64)
            .unwrap()
            .with_telemetry(tel.clone());
        let before = tel.snapshot();
        let outs = c.correlate2d_valid_multi(&input, &kernels).unwrap();
        // 12 output rows, 5 rows/tile, 3 valid rows per tile -> 4 tiles;
        // one batched transform per tile (a miss), and every 1D
        // convolution consumed a seed (a hit).
        assert_eq!(tallies(&tel, &before), [4, 4 * 4, 4 * 4, 4]);
        for (kernel, plane) in kernels.iter().zip(&outs) {
            let reference = correlate2d(&input, kernel, PaddingMode::Valid);
            assert!(max_abs_diff(plane.data(), reference.data()) < 1e-10);
        }

        // Single-kernel row tiling skips the scratch entirely: tile
        // positions never repeat, so there is nothing to share.
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
    fn mixed_sets_go_to_the_engine_as_runs_in_kernel_order() {
        // Consumers (+) and non-consumers (-) of the shared transform in
        // one set: + - + + - leaves runs of 1, 2 and two lone kernels, and
        // every output must land in its kernel's slot.
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
        let before = tel.snapshot();
        let outs = c.correlate2d_valid_multi(&input, &kernels).unwrap();
        // 4 tiles x 5 kernels; only the 3 consumers per tile touch the
        // shared transform (one batched miss per tile).
        assert_eq!(tallies(&tel, &before), [4, 4 * 5, 4 * 3, 4]);
        for (kernel, plane) in kernels.iter().zip(&outs) {
            let reference = correlate2d(&input, kernel, PaddingMode::Valid);
            assert!(max_abs_diff(plane.data(), reference.data()) < 1e-10);
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
        assert!(misses > 0);
        assert!(hits > 0, "kernel rows must reuse row-partition transforms");
        assert_eq!(
            hits + misses,
            convs_1d,
            "every 1D convolution went through the shared path"
        );
    }

    #[test]
    fn spectrum_scratch_evicts_at_the_cap() {
        // A synthetic workload with more distinct signals than the cap:
        // partitioning a tall input produces one key per (row, partition).
        let input = random_matrix(CACHE_CAP + 40, 12, 241);
        let kernel = random_matrix(1, 3, 242);
        let tel = Telemetry::enabled();
        let c = TiledConvolver::new(SharingDigital, 7)
            .unwrap()
            .with_telemetry(tel.clone());
        let before = tel.snapshot();
        let out = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-10);
        // More transforms computed than the cap holds: eviction happened,
        // results stayed exact, and the counters still balance.
        let [_, convs_1d, hits, misses] = tallies(&tel, &before);
        assert!(misses > CACHE_CAP as u64);
        assert_eq!(hits + misses, convs_1d);
    }

    #[test]
    fn prep_cache_evicts_at_the_cap_and_reprepares_correctly() {
        let cap = CACHE_CAP;
        let engine = CountingPrepEngine::default();
        let prepares = Arc::clone(&engine.prepares);
        let c = TiledConvolver::new(engine, 64).unwrap();
        let mut tally = 0usize;

        // Fill the cache with `cap` distinct kernels; every one is a miss.
        for i in 0..cap {
            let kernel = [i as f64 + 0.5];
            assert!(c.prepared(&kernel, 8, &mut tally).is_some());
        }
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap);
        assert_eq!(c.prep_cache.lock().len(), cap);

        // A repeat within the cap is a hit: no new preparation.
        assert!(c.prepared(&[0.5], 8, &mut tally).is_some());
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap);

        // One more distinct kernel trips the cap: the cache resets
        // wholesale and holds only the newcomer.
        assert!(c.prepared(&[-1.0], 8, &mut tally).is_some());
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap + 1);
        assert_eq!(c.prep_cache.lock().len(), 1);

        // A re-requested evicted kernel is re-prepared — and still computes
        // the exact digital result.
        let signal: Vec<f64> = (0..8).map(|i| i as f64 * 0.25).collect();
        let before = prepares.load(std::sync::atomic::Ordering::Relaxed);
        let prep = c.prepared(&[0.5], 8, &mut tally).expect("re-prepared");
        assert_eq!(
            prepares.load(std::sync::atomic::Ordering::Relaxed),
            before + 1,
            "evicted kernel must be prepared again"
        );
        assert_eq!(
            prep.correlate_valid(&signal),
            DigitalEngine.correlate_valid(&signal, &[0.5])
        );
        assert_eq!(c.prep_cache.lock().len(), 2);
        // The call tally (`tiling.kernel_prepares`) counted exactly the
        // misses the engine saw.
        assert_eq!(tally, prepares.load(std::sync::atomic::Ordering::Relaxed));
    }

    /// A backend with no prepared fast path at all (the trait defaults).
    #[derive(Debug, Clone, Copy, Default)]
    struct PlainDigital;

    impl Conv1dEngine for PlainDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            correlate1d(signal, kernel, PaddingMode::Valid)
        }
    }

    #[test]
    fn non_preparing_engine_skips_the_prep_cache() {
        // An engine reporting prepares_kernels() == false must never pay
        // for a cache key — not even a None marker may appear.
        let c = TiledConvolver::new(PlainDigital, 20).unwrap();
        let input = random_matrix(5, 5, 251);
        let kernel = random_matrix(3, 3, 252);
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        let out = c.correlate2d_valid(&input, &kernel).unwrap();
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-12);
        assert!(
            c.prep_cache.lock().is_empty(),
            "no entries (not even None markers) for a non-preparing engine"
        );
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
