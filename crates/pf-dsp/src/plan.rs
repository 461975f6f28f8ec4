//! Reusable FFT execution plans.
//!
//! The JTC simulation runs *millions* of fixed-length transforms (two per
//! row tile), so this module precomputes each length's tables once:
//!
//! * [`FftPlan`] — a precomputed complex transform plan for one
//!   **5-smooth** length (`2^a·3^b·5^c`), with allocation-free in-place
//!   execution ([`FftPlan::process`]) and allocating wrappers
//!   ([`FftPlan::fft`] / [`FftPlan::ifft`]). One kernel runs every length:
//!   mixed-radix decimation in time — a gather through a leaf-order table
//!   built with the plan, then one combine pass per factor with
//!   specialised radix-2/3/4/5 butterflies — so joint-plane geometry can
//!   pick tight sizes instead of rounding up to the next power of two. A
//!   power of two factors into radix-2 passes: its leaf order is the bit
//!   reversal and its 2-point combine the radix-2 butterfly, so it computes
//!   the classic radix-2 transform's bits. A length with a prime factor
//!   above 5 is refused when the plan is built.
//! * [`RealFftPlan`] — real-input transforms returning the non-redundant
//!   half spectrum (bins `0..=n/2`) for an even `n` whose half is 5-smooth,
//!   through the classic packing trick (one `n/2`-point complex FFT plus an
//!   O(n) unpacking pass). Two input shapes, each with **one body**, each
//!   costing half of the one before:
//!   - *any real signal*, zero-padded on the right
//!     ([`RealFftPlan::forward_real_bins_into`], the unpacking pass
//!     evaluated over a selected bin range only, bit-identical per bin;
//!     [`RealFftPlan::forward_real_into`] is the full range). The body —
//!     pack through the half plan's gather order, butterfly passes,
//!     unpack — is generic over the butterfly element like the one below:
//!     over [`Complex`] it is one row, over [`ComplexLanes`] it is
//!     [`RealFftPlan::forward_real_batch_into`], the rows of a planar batch
//!     **four to a pass**, every lane bit-identical to the one-row
//!     transform by construction;
//!   - *an even-symmetric real signal given by samples `0..=n/2`* (a
//!     square-law intensity spectrum), for lengths that are a multiple of
//!     four: real **and even** input has a real, even transform — the
//!     DCT-I of the stored half — which one `n/4`-point complex transform
//!     computes (even bins straight off it, odd bins as a running sum down
//!     from bin `n/2`; the identity and the error bound are on
//!     `RealFftPlan::symmetric_body`), written out over the requested bins
//!     only, as plain `f64`s. The mirror half is never stored, and the
//!     bits are this transform's own — the full-length transform of the
//!     mirrored signal agrees to rounding, not bit for bit — so the
//!     conformance suite holds every bin to an exact O(n²) oracle within
//!     a recorded `c·ε·Σ|x_j|·√(1 + steps)`. The body is generic over the
//!     butterfly element and instantiated at two widths —
//!     [`RealFftPlan::forward_real_bins_symmetric`] over [`Complex`] (one
//!     signal), [`RealFftPlan::forward_real_bins_lanes`] over
//!     [`ComplexLanes`] ([`LANES`] signals) — so a lane is bit-identical to
//!     the one-signal transform by construction.
//! * a process-wide plan registry ([`FftPlan::shared`] /
//!   [`RealFftPlan::shared`]) guarded by a `parking_lot` mutex, so every
//!   caller transforming the same length shares one set of tables.
//!
//! Plans are bit-for-bit deterministic: the free [`crate::fft::fft`] /
//! [`crate::fft::ifft`] functions are thin wrappers over the shared plans,
//! so mixing the two APIs can never produce diverging numerics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::butterfly::{leaf_order, mixed_passes, unpack_bin, Element};
use crate::complex::{Complex, ComplexLanes, LANES};
use crate::error::DspError;

/// A precomputed FFT plan for one 5-smooth length (see the module docs for
/// the kernel).
///
/// # Examples
///
/// ```
/// use pf_dsp::plan::FftPlan;
/// use pf_dsp::{Complex, DspError};
///
/// let plan = FftPlan::shared(8)?;
/// let x = vec![Complex::ONE; 8];
/// let y = plan.fft(&x)?;
/// assert!((y[0].re - 8.0).abs() < 1e-12);
///
/// // Any 5-smooth length runs; a prime factor above 5 is refused.
/// let plan = FftPlan::shared(12)?;
/// let y = plan.fft(&vec![Complex::ONE; 12])?;
/// assert!((y[0].re - 12.0).abs() < 1e-12);
/// assert!(matches!(FftPlan::new(7), Err(DspError::InvalidLength { .. })));
/// # Ok::<(), pf_dsp::DspError>(())
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Radix of each decimation level, outermost first
    /// ([`five_smooth_factors`]).
    factors: Vec<usize>,
    /// Full twiddle table `exp(-2πik/n)` for `k in 0..n`.
    twiddles: Vec<Complex>,
    /// `leaf[i]` is the input index working-buffer slot `i` starts from
    /// ([`leaf_order`]).
    leaf: Vec<u32>,
}

/// Splits `n` into mixed-radix factors, outermost first: a power of two
/// into 2s (so its leaf order is the bit reversal and every pass the
/// radix-2 butterfly), any other length into 4s, then at most one 2, then
/// 3s, then 5s. Returns `None` when `n` has a prime factor larger than 5.
fn five_smooth_factors(n: usize) -> Option<Vec<usize>> {
    if n.is_power_of_two() {
        return Some(vec![2; n.trailing_zeros() as usize]);
    }
    let mut rem = n;
    let mut factors = Vec::new();
    while rem.is_multiple_of(4) {
        factors.push(4);
        rem /= 4;
    }
    if rem.is_multiple_of(2) {
        factors.push(2);
        rem /= 2;
    }
    while rem.is_multiple_of(3) {
        factors.push(3);
        rem /= 3;
    }
    while rem.is_multiple_of(5) {
        factors.push(5);
        rem /= 5;
    }
    if rem == 1 {
        Some(factors)
    } else {
        None
    }
}

/// Borrows the calling thread's plan-internal scratch buffer for the
/// duration of `f`. Take/replace (instead of a held `RefMut`) keeps the
/// cell usable if `f` itself executes another plan on this thread.
fn with_plan_scratch<R>(f: impl FnOnce(&mut Vec<Complex>) -> R) -> R {
    thread_local! {
        static PLAN_SCRATCH: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
    }
    PLAN_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.replace(buf);
        out
    })
}

/// [`with_plan_scratch`] for the lane working buffer of the batched first
/// lens ([`RealFftPlan::forward_real_batch_into`]): half a grid of
/// [`ComplexLanes`], 32 KB per thread on a 1000-point grid.
fn with_lane_scratch<R>(f: impl FnOnce(&mut Vec<ComplexLanes>) -> R) -> R {
    thread_local! {
        static LANE_SCRATCH: RefCell<Vec<ComplexLanes>> = const { RefCell::new(Vec::new()) };
    }
    LANE_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.replace(buf);
        out
    })
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`, any 5-smooth `n >= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for `n == 0` and
    /// [`DspError::InvalidLength`] when `n` has a prime factor above 5.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                what: "fft plan length",
            });
        }
        let factors = five_smooth_factors(n).ok_or(DspError::InvalidLength {
            len: n,
            requirement: "FFT plan lengths must be 5-smooth (2^a·3^b·5^c)",
        })?;
        let mut twiddles = Vec::with_capacity(n);
        for k in 0..n {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            twiddles.push(Complex::cis(ang));
        }
        let leaf = leaf_order(n, &factors);
        Ok(Self {
            n,
            factors,
            twiddles,
            leaf,
        })
    }

    /// Fetches (building on first use) the process-wide shared plan for
    /// length `n` from the `parking_lot`-guarded registry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::new`].
    pub fn shared(n: usize) -> Result<Arc<FftPlan>, DspError> {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(plan) = registry.lock().get(&n) {
            return Ok(plan.clone());
        }
        // Build outside the lock: table construction is O(n) and the map is
        // shared process-wide.
        let plan = Arc::new(FftPlan::new(n)?);
        let mut guard = registry.lock();
        Ok(guard.entry(n).or_insert(plan).clone())
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true for a constructed plan;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Executes the transform in place.
    ///
    /// A forward transform computes `X[k] = Σ_j x[j]·exp(-2πijk/n)`; the
    /// inverse additionally scales by `1/n`. The gather borrows a
    /// per-thread scratch buffer that keeps its capacity across calls.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `data.len()` differs from the
    /// plan length.
    pub fn process(&self, data: &mut [Complex], inverse: bool) -> Result<(), DspError> {
        if data.len() != self.n {
            return Err(DspError::InvalidLength {
                len: data.len(),
                requirement: "input length must match the FFT plan length",
            });
        }
        with_plan_scratch(|src| {
            src.clear();
            src.extend_from_slice(data);
            for (slot, &from) in data.iter_mut().zip(&self.leaf) {
                *slot = src[from as usize];
            }
        });
        self.passes(data, inverse);
        if inverse {
            let scale = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(scale);
            }
        }
        Ok(())
    }

    /// The input index each working-buffer slot starts from: the leaf
    /// order (the bit reversal for a power of two).
    pub(crate) fn gather_order(&self) -> &[u32] {
        &self.leaf
    }

    /// Runs the plan's butterfly passes in place over `data`, which must
    /// hold the input gathered through [`gather_order`](Self::gather_order)
    /// (without the inverse transform's `1/n` scale). The one body behind
    /// the scalar and the lane transform.
    #[inline(always)]
    pub(crate) fn passes<E: Element>(&self, data: &mut [E], inverse: bool) {
        mixed_passes(data, &self.factors, &self.twiddles, inverse);
    }

    /// Forward FFT of `input` (must have the plan length).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] on a length mismatch.
    pub fn fft(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        let mut data = input.to_vec();
        self.process(&mut data, false)?;
        Ok(data)
    }

    /// Inverse FFT of `input` (must have the plan length).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] on a length mismatch.
    pub fn ifft(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        let mut data = input.to_vec();
        self.process(&mut data, true)?;
        Ok(data)
    }
}

/// One instantiation of the batched first lens' lane block
/// (`RealFftPlan::first_lens_lanes`): the plan, the block's rows and their
/// length, the lane working buffer, the block's half spectra.
type LaneBlock = fn(&RealFftPlan, &[f64], usize, &mut Vec<ComplexLanes>, &mut [Complex]);

/// A plan computing `n`-point transforms of *real* inputs, returning only
/// the non-redundant bins `0..=n/2`; the remaining bins follow from
/// conjugate symmetry (`X[n-k] = conj(X[k])`).
///
/// `n` is even with a 5-smooth half, and every transform runs through one
/// `n/2`-point complex FFT (the even/odd packing trick). Both lenses of the
/// JTC chain transform real sequences, so this roughly halves the
/// simulation's FFT cost.
///
/// # Examples
///
/// ```
/// use pf_dsp::plan::RealFftPlan;
/// use pf_dsp::fft::fft_real;
///
/// let x: Vec<f64> = (0..16).map(|k| (k as f64 * 0.4).sin()).collect();
/// let plan = RealFftPlan::shared(16)?;
/// let mut scratch = Vec::new();
/// let mut half = Vec::new();
/// plan.forward_real_into(&x, &mut scratch, &mut half)?;
/// let full = fft_real(&x)?;
/// for k in 0..=8 {
///     assert!((half[k] - full[k]).abs() < 1e-10);
/// }
/// # Ok::<(), pf_dsp::DspError>(())
/// ```
#[derive(Debug)]
pub struct RealFftPlan {
    n: usize,
    /// The `n/2`-point complex plan of the packed transform.
    half_plan: Arc<FftPlan>,
    /// The `n/4`-point complex plan of the symmetric-input transform, when
    /// `n` is a multiple of four.
    quarter_plan: Option<Arc<FftPlan>>,
    /// `exp(-2πik/n)` for `k in 0..=n/2`: the unpacking twiddles, and the
    /// sines and cosines of the symmetric-input packing pass.
    unpack: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a real-input plan for transforms of length `n`: any even
    /// `n >= 2` whose half `n/2` is 5-smooth.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for `n == 0` and
    /// [`DspError::InvalidLength`] for an odd `n` or a half with a prime
    /// factor above 5.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                what: "real fft plan length",
            });
        }
        if !n.is_multiple_of(2) || five_smooth_factors(n / 2).is_none() {
            return Err(DspError::InvalidLength {
                len: n,
                requirement: "real-input FFT plans need an even length with a 5-smooth half",
            });
        }
        let half_plan = FftPlan::shared(n / 2)?;
        let quarter_plan = if n.is_multiple_of(4) {
            Some(FftPlan::shared(n / 4)?)
        } else {
            None
        };
        let mut unpack = Vec::with_capacity(n / 2 + 1);
        for k in 0..=(n / 2) {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            unpack.push(Complex::cis(ang));
        }
        Ok(Self {
            n,
            half_plan,
            quarter_plan,
            unpack,
        })
    }

    /// Fetches (building on first use) the process-wide shared plan for
    /// length `n`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealFftPlan::new`].
    pub fn shared(n: usize) -> Result<Arc<RealFftPlan>, DspError> {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<RealFftPlan>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(plan) = registry.lock().get(&n) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(RealFftPlan::new(n)?);
        let mut guard = registry.lock();
        Ok(guard.entry(n).or_insert(plan).clone())
    }

    /// Transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true for a constructed plan;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of produced spectrum bins (`n/2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Computes bins `0..=n/2` of the `n`-point DFT of `input`, treating
    /// `input` as zero-padded on the right to the plan length.
    ///
    /// `scratch` and `out` are caller-owned buffers that are cleared and
    /// refilled, so steady-state execution performs no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `input` is longer than the
    /// plan length.
    pub fn forward_real_into(
        &self,
        input: &[f64],
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        self.forward_real_bins_into(input, 0..=self.n / 2, scratch, out)
    }

    /// Computes only bins `bins` (a sub-range of `0..=n/2`) of the
    /// `n`-point DFT of `input`: `out[i]` receives bin `bins.start() + i`.
    ///
    /// The transform itself runs in full; what shrinks is the even-length
    /// unpacking pass, which is evaluated over the requested bins alone —
    /// the saving for callers that read a narrow window of the spectrum
    /// (the JTC's second lens reads only the correlation lobe). Each
    /// produced bin is **bit-identical** to the same bin of
    /// [`forward_real_into`](Self::forward_real_into), which is this call
    /// over the full range.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `input` is longer than the
    /// plan length, if the range is inverted (`start > end`) or if it
    /// reaches past bin `n/2`.
    pub fn forward_real_bins_into(
        &self,
        input: &[f64],
        bins: RangeInclusive<usize>,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        if input.len() > self.n {
            return Err(DspError::InvalidLength {
                len: input.len(),
                requirement: "real FFT input must not exceed the plan length",
            });
        }
        self.check_bins(&bins)?;
        out.clear();
        out.resize(bins.end() - bins.start() + 1, Complex::ZERO);
        self.forward_real_core(input, bins, scratch, out);
        Ok(())
    }

    /// A selected-bins range must be ordered and lie within `0..=n/2`.
    fn check_bins(&self, bins: &RangeInclusive<usize>) -> Result<(), DspError> {
        if bins.start() > bins.end() || *bins.end() >= self.spectrum_len() {
            return Err(DspError::InvalidLength {
                len: *bins.end(),
                requirement: "spectrum bin range must be ordered and lie within 0..=n/2",
            });
        }
        Ok(())
    }

    /// One real forward transform into a pre-sized output slice (one slot
    /// per requested bin; `bins` must lie within `0..=n/2`). Shared by the
    /// single, selected-bins and batched paths so they are bit-identical by
    /// construction.
    fn forward_real_core(
        &self,
        input: &[f64],
        bins: RangeInclusive<usize>,
        scratch: &mut Vec<Complex>,
        out: &mut [Complex],
    ) {
        // Indices beyond the input read as the implicit zero padding.
        let at = |idx: usize| input.get(idx).copied().unwrap_or(0.0);
        let lo = *bins.start();
        self.packed_even_body(at, bins, scratch, |k, bin| out[k - lo] = bin);
    }

    /// The first lens — the real-input transform — written once for every
    /// width: `E` is [`Complex`] for one signal, [`ComplexLanes`] for
    /// [`LANES`]. `at(j)` is sample `j` of every signal carried (zero beyond
    /// a signal's end); bin `k` of every signal goes to `emit(k, _)` for
    /// each `k` in `bins`.
    ///
    /// Three passes: `x[2j] + i·x[2j+1]` packed straight into the half
    /// plan's gather order, the half plan's butterfly passes, and the
    /// unpacking pass over the requested bins. Every lane executes the
    /// expression sequence the one-signal instantiation executes, so lane
    /// `l` is bit-identical to transforming signal `l` alone — and gathering
    /// while packing moves no value, so the one-signal instantiation is
    /// bit-identical to packing in natural order and running
    /// [`FftPlan::process`]. `#[inline(always)]` down to the butterflies so
    /// that each caller compiles its own copy for its own element and ISA.
    ///
    /// The pack pass stays an `extend(map(..))`, unlike the second lens's
    /// ([`symmetric_body`](Self::symmetric_body)): the same rewrite into a
    /// plain loop read `conv_fresh` 2 % slower over five rounds here.
    #[inline(always)]
    fn packed_even_body<E: Element>(
        &self,
        at: impl Fn(usize) -> E::Real,
        bins: RangeInclusive<usize>,
        work: &mut Vec<E>,
        emit: impl FnMut(usize, E),
    ) {
        work.clear();
        work.extend(self.half_plan.gather_order().iter().map(|&slot| {
            let j = 2 * slot as usize;
            E::pack(at(j), at(j + 1))
        }));
        self.half_plan.passes(work, false);
        self.unpack_bins(work, bins, emit);
    }

    /// Unpacks bins `bins` of a packed even transform through
    /// [`unpack_bin`], handing bin `k` to `emit(k, _)`. A bin's value does
    /// not depend on which range asked for it.
    #[inline(always)]
    fn unpack_bins<E: Element>(
        &self,
        packed: &[E],
        bins: RangeInclusive<usize>,
        mut emit: impl FnMut(usize, E),
    ) {
        let m = self.n / 2;
        let (lo, hi) = (*bins.start(), *bins.end());
        // Bins 0 and m both wrap to packed[0]; interior bins pair k with
        // m - k directly, keeping the hot loop free of modular reductions.
        if lo == 0 {
            emit(0, unpack_bin(packed[0], packed[0].conj(), self.unpack[0]));
        }
        for k in lo.max(1)..(hi + 1).min(m) {
            emit(
                k,
                unpack_bin(packed[k], packed[m - k].conj(), self.unpack[k]),
            );
        }
        if hi == m {
            emit(m, unpack_bin(packed[0], packed[0].conj(), self.unpack[m]));
        }
    }

    /// Whether this plan runs the symmetric-input transforms
    /// ([`forward_real_bins_symmetric`](Self::forward_real_bins_symmetric),
    /// [`forward_real_bins_lanes`](Self::forward_real_bins_lanes)): the
    /// length is a multiple of four.
    pub fn supports_lanes(&self) -> bool {
        self.quarter_plan.is_some()
    }

    /// Computes bins `bins` (a sub-range of `0..=n/2`) of the `n`-point DFT
    /// of one real **even-symmetric** signal: `half[i]` is sample `i` for
    /// `i in 0..=n/2`, and sample `n - i` equals sample `i` (what a
    /// square-law intensity spectrum looks like, so the mirror half is
    /// never stored). The transform of a real even signal is real — a
    /// DCT-I of `half` — so `out[i]` receives bin `bins.start() + i` as one
    /// `f64`; `work` is the caller-owned transform buffer.
    ///
    /// This is [`forward_real_bins_lanes`](Self::forward_real_bins_lanes) at
    /// width 1 — the same body over [`Complex`] instead of
    /// [`ComplexLanes`]. A bin's value does not depend on the range that
    /// asked for it. Against the exact transform an even bin is within a
    /// few `ε·Σ|x_j|`; the odd bins come off a running sum started at bin
    /// `n/2`, so theirs grows with the square root of the distance from
    /// there (the conformance suite records the constant) — see the
    /// quarter-length body for why that is safe on the grids this
    /// repository transforms.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`forward_real_bins_lanes`](Self::forward_real_bins_lanes).
    pub fn forward_real_bins_symmetric(
        &self,
        half: &[f64],
        bins: RangeInclusive<usize>,
        work: &mut Vec<Complex>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        let quarter = self.check_symmetric(half, &bins)?;
        self.symmetric_body(quarter, half, bins, work, out);
        Ok(())
    }

    /// [`forward_real_bins_symmetric`](Self::forward_real_bins_symmetric)
    /// for [`LANES`] signals at once: `half[i][l]` is sample `i` of signal
    /// `l`, and `out[i][l]` receives bin `bins.start() + i` of signal `l`.
    ///
    /// Lane `l` of every produced bin is **bit-identical** to what the
    /// one-signal transform produces for signal `l` alone, whatever rides
    /// in the other lanes: the body is one, instantiated over
    /// [`ComplexLanes`] here and over [`Complex`] there.
    ///
    /// The lane instantiation is compiled twice — for the build's baseline
    /// ISA and, on x86-64, with AVX2 enabled — and this call picks by
    /// `is_x86_feature_detected!`. The two cannot differ in a bit: both
    /// are IEEE-exact per lane, FMA is not enabled and Rust never
    /// contracts a multiply-add on its own.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if the plan does not
    /// [support lanes](Self::supports_lanes), if `half` is not exactly
    /// `n/2 + 1` samples, or if the range is inverted or reaches past bin
    /// `n/2`.
    pub fn forward_real_bins_lanes(
        &self,
        half: &[[f64; LANES]],
        bins: RangeInclusive<usize>,
        work: &mut Vec<ComplexLanes>,
        out: &mut Vec<[f64; LANES]>,
    ) -> Result<(), DspError> {
        let quarter = self.check_symmetric(half, &bins)?;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one requirement of a `#[target_feature]` function
            // is that the CPU has the feature, checked on the line above.
            unsafe { self.lanes_avx2(quarter, half, bins, work, out) };
            return Ok(());
        }
        self.symmetric_body(quarter, half, bins, work, out);
        Ok(())
    }

    /// [`forward_real_bins_lanes`](Self::forward_real_bins_lanes) pinned to
    /// the baseline-ISA instantiation, whatever the CPU offers — so a test
    /// on an AVX2 host can hold both instantiations against each other and
    /// against the one-signal transform.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`forward_real_bins_lanes`](Self::forward_real_bins_lanes).
    pub fn forward_real_bins_lanes_portable(
        &self,
        half: &[[f64; LANES]],
        bins: RangeInclusive<usize>,
        work: &mut Vec<ComplexLanes>,
        out: &mut Vec<[f64; LANES]>,
    ) -> Result<(), DspError> {
        let quarter = self.check_symmetric(half, &bins)?;
        self.symmetric_body(quarter, half, bins, work, out);
        Ok(())
    }

    /// Entry checks of the symmetric-input transform at any width (`R` is
    /// one sample of every signal carried); hands back the quarter plan.
    fn check_symmetric<R>(
        &self,
        half: &[R],
        bins: &RangeInclusive<usize>,
    ) -> Result<&FftPlan, DspError> {
        let Some(quarter) = self.quarter_plan.as_deref() else {
            return Err(DspError::InvalidLength {
                len: self.n,
                requirement: "symmetric-input transforms need a multiple of four",
            });
        };
        if half.len() != self.spectrum_len() {
            return Err(DspError::InvalidLength {
                len: half.len(),
                requirement: "a symmetric input holds exactly samples 0..=n/2",
            });
        }
        self.check_bins(bins)?;
        Ok(quarter)
    }

    /// The symmetric-input selected-bins transform, written once for every
    /// width: `E` is [`Complex`] for one signal, [`ComplexLanes`] for
    /// [`LANES`]. `#[inline(always)]` down to the butterflies so that each
    /// caller compiles its own copy for its own element and ISA.
    ///
    /// A real even signal `x` given by `h_j = x_j`, `j in 0..=m`, `m = n/2`,
    /// transforms to the real sequence (a DCT-I)
    /// `X[k] = h_0 + (-1)^k·h_m + 2·Σ_{0<j<m} h_j·cos(πjk/m)`. With
    /// `t_j = h_j + h_{m-j}` (even about `m/2`) and `a_j = h_j − h_{m-j}`
    /// (odd about it), the even bins are the `m`-point transform of `t`,
    /// `X[2k] = Σ_j t_j·cos(2πjk/m)`, and neighbouring odd bins differ by
    /// `X[2k+1] − X[2k−1] = −2·Σ_j a_j·sin(πj/m)·sin(2πjk/m)`. So one
    /// `m`-point **real** transform carries both: for
    /// `y_j = t_j − 2·sin(πj/m)·a_j`, `Y = DFT_m(y)` has `Re Y[k] = X[2k]`
    /// and `Im Y[k] = X[2k−1] − X[2k+1]` — and a real `m`-point transform is
    /// one `q = n/4`-point complex transform of `y_{2j} + i·y_{2j+1}` plus
    /// the usual unpacking pass. Three passes over the data:
    ///
    /// 1. *pack*: `y_{2j} + i·y_{2j+1}` written straight into the quarter
    ///    plan's gather order, `sin(πj/m) = −Im w_n^j` read off the unpack
    ///    table, and `Σ_j a_j·cos(πj/m)` (`Re w_n^j`) accumulated alongside,
    ///    even `j` in the accumulator's real part `A_e`, odd `j` in its
    ///    imaginary part `A_o`. Both ends of the odd bins are anchored by
    ///    it: `X[1] = A_e + A_o`, and `X[m−1] = A_e − A_o`
    ///    (`cos(πj(m−1)/m) = (−1)^j·cos(πj/m)`);
    /// 2. the quarter plan's butterfly passes;
    /// 3. *unpack and read*, from the top down: `Y[k]` through
    ///    [`unpack_bin`] with `w_m^k = w_n^{2k}` for `k` from `m/2` down to
    ///    `lo/2`, `X[2k] = Re Y[k]`, and the odd bins off the running sum
    ///    `X[2k−1] = X[2k+1] + Im Y[k]` started at `X[m+1] = X[m−1]`; bins
    ///    inside `bins` are written out. Down from the top because that is
    ///    where a JTC reads: its correlation lobe ends a few bins below
    ///    `m` and the central term — three orders larger — fills the bins
    ///    below `m/2`, so the sum reaches the lobe in the fewest steps and
    ///    never crosses the large values.
    ///
    /// The running sum is what bounds the length: an odd bin carries the
    /// rounding of the anchor and of every step behind it, each relative to
    /// the whole row's magnitude (not the bin's), so its error grows like
    /// `ε·Σ|x|·√steps` — this is the classic fast DCT-I, and that growth is
    /// why general-purpose libraries decline it. Measured against the
    /// full-length transform on the benchmark's planes a lobe sample moves
    /// by ≤ 4·10⁻¹⁵ of the plane's DC term (n = 240 and n = 1000): far
    /// below an 8-bit code or a 1e-9 identity at `n ≤ 1024`, and to be
    /// revisited (re-anchor every few hundred bins, or sum from both ends)
    /// before grids of 10⁴ points and more.
    #[inline(always)]
    fn symmetric_body<E: Element>(
        &self,
        quarter: &FftPlan,
        half: &[E::Real],
        bins: RangeInclusive<usize>,
        work: &mut Vec<E>,
        out: &mut Vec<E::Real>,
    ) {
        let (m, order) = (self.n / 2, quarter.gather_order());
        let q = m / 2;
        let mut anchor = E::ZERO;
        // A plain loop over the resized buffer, not `extend(map(..))`: the
        // adapter's fold compiles out of line at the baseline ISA (bounds
        // checks in, `anchor` through memory), under the AVX2 caller too.
        work.resize(order.len(), E::ZERO);
        for (packed, &slot) in work.iter_mut().zip(order) {
            let j = 2 * slot as usize;
            let near = E::pack(half[j], half[j + 1]);
            let far = E::pack(half[m - j], half[m - j - 1]);
            let (t, a) = (near + far, near - far);
            let (w0, w1) = (self.unpack[j], self.unpack[j + 1]);
            anchor = anchor + a.scale_parts(w0.re, w1.re);
            *packed = t + a.scale_parts(2.0 * w0.im, 2.0 * w1.im);
        }
        quarter.passes(work, false);
        // Bins 0 and m of the m-point real transform both wrap to packed
        // slot 0; a compare-select keeps the loop free of a division.
        let wrap = |k: usize| if k == q { 0 } else { k };
        // The running odd bin rides in a real part, downwards from the
        // top: X[m+1] = X[m−1] to start, and Im Y[q] is a zero, so the
        // first step leaves it alone.
        let mut odd = anchor + anchor.mul_i();
        let lo = *bins.start();
        out.clear();
        out.resize(bins.end() - lo + 1, E::ZERO.re());
        for k in (lo / 2..=q).rev() {
            let y = unpack_bin(work[wrap(k)], work[wrap(q - k)].conj(), self.unpack[2 * k]);
            for (bin, value) in [(2 * k + 1, odd), (2 * k, y)] {
                if bins.contains(&bin) {
                    out[bin - lo] = value.re();
                }
            }
            odd = odd - y.mul_i();
        }
    }

    /// [`symmetric_body`](Self::symmetric_body) over lanes compiled with
    /// AVX2: one 256-bit operation per lane block where the baseline ISA
    /// issues two 128-bit ones.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2(
        &self,
        quarter: &FftPlan,
        half: &[[f64; LANES]],
        bins: RangeInclusive<usize>,
        work: &mut Vec<ComplexLanes>,
        out: &mut Vec<[f64; LANES]>,
    ) {
        self.symmetric_body(quarter, half, bins, work, out);
    }

    /// Computes the half spectra of `rows` equal-length real signals laid
    /// out back-to-back in `inputs` (planar — every tile of one image, or
    /// one tile per image of a batch), writing `rows * spectrum_len()` bins
    /// back-to-back into `out`. Rows shorter than the plan length are
    /// zero-padded on the right.
    ///
    /// **Rows go four to a pass.** The transform has one body
    /// (`packed_even_body`), instantiated over [`Complex`] for
    /// [`forward_real_into`](Self::forward_real_into) and over
    /// [`ComplexLanes`] here: each block of [`LANES`] rows rides the half
    /// plan's butterflies together, one row per lane, and a lane executes
    /// the expression sequence the one-row instantiation executes — so the
    /// result is **bit-identical to looping
    /// [`forward_real_into`](Self::forward_real_into) over the rows**,
    /// whatever rides in the other lanes. A last block of two or three rows
    /// rides with idle lanes (they repeat its last row; still cheaper than
    /// that many one-row transforms); a last block of one row runs the
    /// one-row instantiation. The lane
    /// instantiation is compiled for the build's baseline ISA and, on
    /// x86-64, with AVX2, picked by `is_x86_feature_detected!` exactly as
    /// [`forward_real_bins_lanes`](Self::forward_real_bins_lanes) picks;
    /// its working buffer (half a grid of [`ComplexLanes`]) is the plan
    /// module's own per-thread one, `scratch` serves the one-row transforms.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `inputs.len()` is not
    /// `rows` equal rows, both at least 1, or a row exceeds the plan
    /// length.
    pub fn forward_real_batch_into(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        self.batch_body(inputs, rows, scratch, out, Self::first_lens_dispatched)
    }

    /// [`forward_real_batch_into`](Self::forward_real_batch_into) pinned to
    /// the baseline-ISA lane instantiation, whatever the CPU offers — what
    /// [`forward_real_bins_lanes_portable`](Self::forward_real_bins_lanes_portable)
    /// is to the symmetric-input transform.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`forward_real_batch_into`](Self::forward_real_batch_into).
    pub fn forward_real_batch_into_portable(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        self.batch_body(inputs, rows, scratch, out, Self::first_lens_lanes)
    }

    /// The entry checks and the block loop of the batched first lens;
    /// `lane_block` is the lane instantiation a block of two to [`LANES`]
    /// rows takes.
    fn batch_body(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
        lane_block: LaneBlock,
    ) -> Result<(), DspError> {
        if rows == 0 || inputs.is_empty() || !inputs.len().is_multiple_of(rows) {
            return Err(DspError::InvalidLength {
                len: inputs.len(),
                requirement: "batched real input must be rows * row_len samples, both >= 1",
            });
        }
        let row_len = inputs.len() / rows;
        if row_len > self.n {
            return Err(DspError::InvalidLength {
                len: row_len,
                requirement: "real FFT input must not exceed the plan length",
            });
        }
        let sl = self.spectrum_len();
        out.clear();
        out.resize(rows * sl, Complex::ZERO);
        with_lane_scratch(|work| {
            let blocks = inputs
                .chunks(LANES * row_len)
                .zip(out.chunks_mut(LANES * sl));
            for (block, spectra) in blocks {
                if block.len() > row_len {
                    lane_block(self, block, row_len, work, spectra);
                } else {
                    self.forward_real_core(block, 0..=self.n / 2, scratch, spectra);
                }
            }
        });
        Ok(())
    }

    /// [`first_lens_lanes`](Self::first_lens_lanes) in the widest
    /// instantiation the CPU runs.
    fn first_lens_dispatched(
        &self,
        block: &[f64],
        row_len: usize,
        work: &mut Vec<ComplexLanes>,
        spectra: &mut [Complex],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one requirement of a `#[target_feature]` function
            // is that the CPU has the feature, checked on the line above.
            unsafe { self.first_lens_avx2(block, row_len, work, spectra) };
            return;
        }
        self.first_lens_lanes(block, row_len, work, spectra);
    }

    /// One lane block of the batched first lens: the one to [`LANES`] rows
    /// of `row_len` samples stored back to back in `block`, one per lane
    /// (idle lanes repeat the last row and write nothing), transformed by
    /// `packed_even_body` over [`ComplexLanes`] and transposed
    /// into their `n/2 + 1`-bin half spectra, back to back in `spectra`.
    #[inline(always)]
    fn first_lens_lanes(
        &self,
        block: &[f64],
        row_len: usize,
        work: &mut Vec<ComplexLanes>,
        spectra: &mut [Complex],
    ) {
        let live = block.len() / row_len;
        let sl = self.spectrum_len();
        let rows: [&[f64]; LANES] = std::array::from_fn(|l| {
            let row = l.min(live - 1);
            &block[row * row_len..(row + 1) * row_len]
        });
        let at = |j: usize| {
            if j < row_len {
                rows.map(|row| row[j])
            } else {
                [0.0; LANES]
            }
        };
        self.packed_even_body(at, 0..=self.n / 2, work, |k, bin| {
            for l in 0..live {
                spectra[l * sl + k] = bin.lane(l);
            }
        });
    }

    /// [`first_lens_lanes`](Self::first_lens_lanes) compiled with AVX2: one
    /// 256-bit operation per lane block where the baseline ISA issues two
    /// 128-bit ones.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn first_lens_avx2(
        &self,
        block: &[f64],
        row_len: usize,
        work: &mut Vec<ComplexLanes>,
        spectra: &mut [Complex],
    ) {
        self.first_lens_lanes(block, row_len, work, spectra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft, fft, fft_real};

    #[test]
    fn plan_rejects_zero_and_lengths_outside_the_five_smooth_domain() {
        assert!(matches!(FftPlan::new(0), Err(DspError::EmptyInput { .. })));
        assert!(matches!(
            RealFftPlan::new(0),
            Err(DspError::EmptyInput { .. })
        ));
        // One kernel: a complex length with a prime factor above 5, an odd
        // real length or a real length whose half has one is refused.
        for n in [7usize, 11, 14, 22, 97] {
            assert!(
                matches!(FftPlan::new(n), Err(DspError::InvalidLength { .. })),
                "n={n}"
            );
        }
        for n in [1usize, 7, 9, 14, 22, 45] {
            assert!(
                matches!(RealFftPlan::new(n), Err(DspError::InvalidLength { .. })),
                "n={n}"
            );
        }
        for n in [1usize, 3, 6, 12, 20, 64, 100] {
            assert_eq!(FftPlan::new(n).unwrap().len(), n);
        }
        for n in [2usize, 6, 10, 12, 20, 90] {
            assert_eq!(RealFftPlan::new(n).unwrap().len(), n);
        }
    }

    #[test]
    fn plan_matches_free_fft_bit_for_bit() {
        for log in 0..9u32 {
            let n = 1usize << log;
            let x: Vec<Complex> = (0..n)
                .map(|k| Complex::new((k as f64 * 0.37).sin(), (k as f64 * 0.21).cos()))
                .collect();
            let plan = FftPlan::shared(n).unwrap();
            let a = plan.fft(&x).unwrap();
            let b = fft(&x).unwrap();
            assert_eq!(a.len(), b.len());
            for (p, q) in a.iter().zip(&b) {
                assert_eq!(p.re.to_bits(), q.re.to_bits(), "re mismatch at n={n}");
                assert_eq!(p.im.to_bits(), q.im.to_bits(), "im mismatch at n={n}");
            }
        }
    }

    #[test]
    fn plan_matches_dft() {
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|k| Complex::new((k as f64 * 0.13).cos(), (k as f64 * 0.41).sin()))
            .collect();
        let plan = FftPlan::new(n).unwrap();
        let a = plan.fft(&x).unwrap();
        let b = dft(&x).unwrap();
        for (p, q) in a.iter().zip(&b) {
            assert!((*p - *q).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_radix_matches_dft() {
        // Powers of two run radix-2 passes alone; the other 5-smooth sizes
        // exercise every butterfly (4s, a lone 2, 3s, 5s).
        assert!(matches!(
            FftPlan::new(97),
            Err(DspError::InvalidLength { .. })
        ));
        for n in [2usize, 8, 16, 3, 5, 6, 10, 12, 15, 20, 24, 45, 60, 90, 135] {
            let x: Vec<Complex> = (0..n)
                .map(|k| Complex::new((k as f64 * 0.29).sin(), (k as f64 * 0.53).cos()))
                .collect();
            let plan = FftPlan::shared(n).unwrap();
            let a = plan.fft(&x).unwrap();
            let b = dft(&x).unwrap();
            for (k, (p, q)) in a.iter().zip(&b).enumerate() {
                assert!((*p - *q).abs() < 1e-9, "bin {k} of n={n}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn inverse_roundtrips_in_place() {
        assert!(matches!(
            FftPlan::new(97),
            Err(DspError::InvalidLength { .. })
        ));
        for n in [32usize, 12, 45, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|k| Complex::new(k as f64, -(k as f64) * 0.3))
                .collect();
            let plan = FftPlan::new(n).unwrap();
            let mut data = x.clone();
            plan.process(&mut data, false).unwrap();
            plan.process(&mut data, true).unwrap();
            for (a, b) in x.iter().zip(&data) {
                assert!((*a - *b).abs() < 1e-9, "roundtrip failed at n={n}");
            }
        }
    }

    #[test]
    fn shared_registry_reuses_plans() {
        let a = FftPlan::shared(256).unwrap();
        let b = FftPlan::shared(256).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let ra = RealFftPlan::shared(256).unwrap();
        let rb = RealFftPlan::shared(256).unwrap();
        assert!(Arc::ptr_eq(&ra, &rb));
    }

    #[test]
    fn real_plan_matches_complex_fft() {
        for n in [2usize, 4, 16, 128, 2048] {
            let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.7).sin() + 0.25).collect();
            let plan = RealFftPlan::shared(n).unwrap();
            let mut scratch = Vec::new();
            let mut half = Vec::new();
            plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
            assert_eq!(half.len(), n / 2 + 1);
            let full = fft_real(&x).unwrap();
            for k in 0..=(n / 2) {
                assert!(
                    (half[k] - full[k]).abs() < 1e-9 * (n as f64),
                    "bin {k} of n={n}"
                );
            }
        }
    }

    #[test]
    fn real_plan_handles_non_pow2_lengths_and_refuses_odd_ones() {
        for n in [9usize, 45, 135] {
            assert!(matches!(
                RealFftPlan::new(n),
                Err(DspError::InvalidLength { .. })
            ));
        }
        for n in [6usize, 10, 12, 20, 90, 270, 1350] {
            let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.31).cos() - 0.1).collect();
            let plan = RealFftPlan::shared(n).unwrap();
            let mut scratch = Vec::new();
            let mut half = Vec::new();
            plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
            assert_eq!(half.len(), n / 2 + 1);
            let full: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
            let reference = dft(&full).unwrap();
            for k in 0..half.len() {
                assert!(
                    (half[k] - reference[k]).abs() < 1e-9 * (n as f64).max(1.0),
                    "bin {k} of n={n}"
                );
            }
        }
    }

    #[test]
    fn batched_real_rows_are_bit_identical_to_serial() {
        let row = |n: usize, seed: usize| -> Vec<f64> {
            (0..n)
                .map(|k| ((k + 3 * seed) as f64 * 0.23).sin() + 0.1 * seed as f64)
                .collect()
        };
        assert!(matches!(
            RealFftPlan::new(9),
            Err(DspError::InvalidLength { .. })
        ));
        for n in [16usize, 12, 10] {
            for rows in [1usize, 2, 3, 4] {
                let plan = RealFftPlan::shared(n).unwrap();
                let row_len = n - 2; // exercise the zero-padding path
                let inputs: Vec<f64> = (0..rows).flat_map(|r| row(row_len, r)).collect();
                let mut scratch = Vec::new();
                let mut batched = Vec::new();
                plan.forward_real_batch_into(&inputs, rows, &mut scratch, &mut batched)
                    .unwrap();
                let sl = plan.spectrum_len();
                assert_eq!(batched.len(), rows * sl);
                for r in 0..rows {
                    let mut single = Vec::new();
                    plan.forward_real_into(
                        &inputs[r * row_len..(r + 1) * row_len],
                        &mut scratch,
                        &mut single,
                    )
                    .unwrap();
                    for k in 0..sl {
                        let b = batched[r * sl + k];
                        assert_eq!(b.re.to_bits(), single[k].re.to_bits(), "n={n} r={r} k={k}");
                        assert_eq!(b.im.to_bits(), single[k].im.to_bits(), "n={n} r={r} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_rejects_ragged_real_inputs() {
        let plan = RealFftPlan::shared(8).unwrap();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        // 7 samples do not split into 2 rows; a row may not exceed the plan
        // length; empty rows have nothing to transform; zero rows never
        // divide evenly.
        for (inputs, rows) in [
            (&[0.0; 7][..], 2),
            (&[0.0; 18][..], 2),
            (&[][..], 2),
            (&[0.0; 8][..], 0),
        ] {
            assert!(matches!(
                plan.forward_real_batch_into(inputs, rows, &mut scratch, &mut out),
                Err(DspError::InvalidLength { .. })
            ));
        }
    }

    #[test]
    fn real_plan_zero_pads_short_inputs() {
        let n = 64;
        let x: Vec<f64> = (0..20).map(|k| (k as f64 * 0.3).cos()).collect();
        let mut padded = x.clone();
        padded.resize(n, 0.0);
        let plan = RealFftPlan::new(n).unwrap();
        let mut scratch = Vec::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plan.forward_real_into(&x, &mut scratch, &mut a).unwrap();
        plan.forward_real_into(&padded, &mut scratch, &mut b)
            .unwrap();
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.re.to_bits(), q.re.to_bits());
            assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
        assert!(matches!(
            plan.forward_real_into(&vec![0.0; n + 1], &mut scratch, &mut a),
            Err(DspError::InvalidLength { .. })
        ));
    }
}
