//! Prepared kernel spectra — the one execution path of the JTC engine.
//!
//! Row tiling drives the JTC with **one fixed kernel against many tiles of
//! equal length**: every tile of a convolution layer (and every image of a
//! batch) reuses the same tiled filter. Simulated literally
//! ([`JtcSimulator::output_plane`](crate::correlator::JtcSimulator::output_plane),
//! kept as the Figure 2 visualiser and as the slow oracle this module is
//! tested against), every tile rebuilds the joint input plane and runs two
//! full-grid complex FFTs. This module amortises and shrinks that work, and
//! a one-off correlation
//! ([`JtcEngine::correlate`](crate::engine::JtcEngine::correlate)) simply
//! prepares for its one call:
//!
//! * [`PreparedSpectrum`] fixes the input-plane geometry (separation `d`,
//!   grid size `n`) for one `(kernel, signal_len)` pair and precomputes the
//!   kernel's padded half-spectrum once — a filter is *loaded* as a stack
//!   ([`PreparedSpectrum::new_batch`]: the kernels of one length share a
//!   geometry, their halves of the joint plane go through the first lens
//!   together, and one kernel is a stack of one). The plane **holds only what is
//!   read**: the smallest separation and the smallest 5-smooth grid that is
//!   a multiple of four (mixed-radix plans run it directly, and the second
//!   lens below needs the quarter) on which nothing aliases into the valid
//!   window of the correlation lobe — `d = 2·Ls − Lk`, `n ≥ 4·Ls − Lk` —
//!   where the oracle keeps all three output terms whole and apart on a
//!   power-of-two grid. Every stage below is O(n) or O(n log n) in that
//!   size;
//! * the **first lens** is a real-input half-spectrum FFT of the signal
//!   alone (one `n/2`-point complex FFT instead of an `n`-point one) — the
//!   Fourier transform is linear, so `F[s + k] = F[s] + F[k]` and the
//!   kernel's half is added afterwards. It has one body, the batch
//!   ([`PreparedSpectrum::signal_spectra_batch`], N planar rows transformed
//!   **four rows to a pass** — [`RealFftPlan::forward_real_batch_into`]
//!   carries a block of [`LANES`] rows through the half-length butterflies
//!   together, each lane the one-row transform bit for bit; the row-tiling
//!   hook is [`PreparedConv1d::prepare_signal_batch`]): one signal is a
//!   batch of one row, the kernel side is the same call over the kernels'
//!   rows, and the result is a [`SignalSpectrum`] any prepared kernel of
//!   the same geometry replays — a CNN layer correlates each input tile
//!   against **many** kernels (one per output channel, two with
//!   pseudo-negative splitting), and `F[s]` does not depend on the kernel;
//! * everything behind the first lens has **one body at every width**
//!   (`PreparedSpectrum::finish_block`): for the 1 to [`LANES`] kernels of
//!   one geometry that ride a pass together it adds each kernel spectrum,
//!   takes the square-law intensities — real **and even**
//!   (`I[n-k] = I[k]`), so only samples `0..=n/2` exist anywhere and the
//!   output plane is real — runs the second lens as the DCT-I of those
//!   samples through **one quarter-length complex transform** (`n/4`
//!   points: 60 for the 240-point plane, 250 for the 1000-point one),
//!   written out over the lobe's bins alone as plain `f64`s — over the
//!   top of it, when a caller asks for the first samples only and no ADC
//!   or sensing noise reads the whole lobe — and reads every lobe out.
//!   Width one is not a special case: a lone kernel
//!   ([`PreparedSpectrum::correlate`],
//!   [`PreparedSpectrum::correlate_spectrum`], the tail of a set of
//!   `4k + 1`) is the body over `f64`
//!   ([`RealFftPlan::forward_real_bins_symmetric`]), a lane block
//!   ([`PreparedConv1d::correlate_set_into`]) the same source over
//!   `[f64; LANES]` ([`RealFftPlan::forward_real_bins_lanes`]) — so a
//!   lane's samples are the lone kernel's, bit for bit, by construction.
//!   That holds for the two O(n) passes around the lens as well: the joint
//!   power spectrum gathers each bin's kernel values side by side and
//!   squares every lane in the one-kernel expression, and the read-out
//!   writes every lane's samples in one pass over the lobe, straight into
//!   the caller's buffer, with the sums of squares running side by side,
//!   each in output order — written once
//!   over the width, the lane instantiation compiled with AVX2 where the
//!   CPU has it, as the lens is.
//!   Against the full-length transform a lobe sample moves by a few
//!   10⁻¹⁵ of the plane's DC term (`pf-dsp`'s conformance suite holds the
//!   bound; [`crate::correlator`]'s aliasing wall and `tests/geometry.rs`
//!   hold the result to the direct sum).
//!
//! [`PreparedKernel`] layers the engine's DAC/ADC quantisation on top —
//! still deterministic, so shareable between engines of one configuration
//! — plus, for noisy engines, a binding to one engine's sensing-noise
//! stream, and plugs into row tiling through [`pf_tiling::PreparedConv1d`].
//! The full chain ([`correlate_valid`](PreparedConv1d::correlate_valid)) is
//! the shared-signal chain
//! ([`correlate_with_signal`](PreparedConv1d::correlate_with_signal)) on a
//! transform it takes itself, so the two cannot differ in a bit.
//!
//! Every body takes `Option<&mut StageAcc>` and writes into the caller's
//! slice; the set call hands each kernel its slice of the caller's buffer
//! and allocates nothing, and the inherent, trait, `_acc` and `_traced`
//! entry points that return a vector are thin callers. Passing an
//! accumulator marks the stage boundaries (`signal_fft`, `spectrum_apply`,
//! `inverse`, `dac_adc`) in place; stage totals are read back as
//! [`pf_telemetry::StageTotals`].

use std::any::Any;
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::RangeInclusive;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pf_dsp::complex::{Complex, LANES};
use pf_dsp::plan::RealFftPlan;
use pf_dsp::scratch::{with_spectrum_scratch, SpectrumScratch};
use pf_dsp::DspError;
use pf_photonics::adc::{peak_magnitude, Adc};
use pf_photonics::dac::Dac;
use pf_photonics::detector::SensingNoise;
use pf_telemetry::{Stage, StageAcc};
use pf_tiling::{PreparedConv1d, PreparedSignal};

use crate::error::JtcError;

/// Marks a stage boundary on the caller's accumulator, when there is one.
/// Every chain body below takes `Option<&mut StageAcc>`: `None` is the
/// untraced hot path (no clock reads), `Some` the traced one — the same
/// floating-point operations either way, so tracing never perturbs results.
fn mark(acc: &mut Option<&mut StageAcc>, stage: Stage) {
    if let Some(acc) = acc {
        acc.mark(stage);
    }
}

/// What the second lens' read-out — the one pass that touches every output
/// sample before conditioning — does besides extracting the lobe.
#[derive(Debug, Clone, Copy)]
struct ReadOut {
    /// Factor applied to every sample: the engine's DAC rescale
    /// (`s_scale * k_scale`), or `1.0` at optics level, which changes no bit.
    gain: f64,
    /// Whether to return the samples' sum of squares (accumulated in
    /// output order, for the sensing-noise RMS). Only noisy engines ask:
    /// the sum is a loop-carried chain a noiseless read-out need not pay.
    sum_squares: bool,
}

impl ReadOut {
    /// The optics-level read-out: the bare correlation lobe.
    const PLAIN: Self = Self {
        gain: 1.0,
        sum_squares: false,
    };
}

/// Every kernel's sum of squares of one block's read-out, in kernel order
/// (`0.0` where not asked for, and past the block's kernels).
type Sums = [f64; LANES];

/// How many kernels ride one pass of [`PreparedSpectrum::finish_block`],
/// named by the block's sample — of the Fourier-plane intensity going into
/// the second lens and of the (real) output plane coming out: `f64` is a
/// block of one, `[f64; LANES]` a lane block. What differs between the
/// widths is listed here — which arena buffers have this shape, which
/// instantiation of the symmetric transform takes them, which ISA the two
/// passes around it are compiled for — so the body is written once.
trait Width: Copy {
    /// One sample per kernel: `f(l)` is kernel `l`'s.
    fn per_kernel(f: impl FnMut(usize) -> f64) -> Self;
    /// Kernel `l`'s sample.
    fn kernel(self, l: usize) -> f64;
    /// The arena's intensity buffer of this width.
    fn intensity(s: &mut SpectrumScratch) -> &mut Vec<Self>;
    /// [`joint_power`] at this width, in the widest instantiation the CPU
    /// runs.
    fn joint_power(signal_half: &[Complex], kernels: &[&[Complex]; LANES], out: &mut Vec<Self>);
    /// Bins `bins` of the transforms of the symmetric sequences whose
    /// samples `0..=n/2` sit in [`Width::intensity`], left in the arena.
    fn second_lens<'s>(
        plan: &RealFftPlan,
        s: &'s mut SpectrumScratch,
        bins: RangeInclusive<usize>,
    ) -> Result<&'s [Self], DspError>;
    /// [`read_lobes`] at this width, in the widest instantiation the CPU
    /// runs.
    fn read_lobes(lobes: &[Self], inv_n: f64, read_outs: &[ReadOut], out: &mut [f64]) -> Sums;
}

impl Width for f64 {
    #[inline(always)]
    fn per_kernel(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }

    #[inline(always)]
    fn kernel(self, _: usize) -> f64 {
        self
    }

    fn intensity(s: &mut SpectrumScratch) -> &mut Vec<f64> {
        &mut s.real
    }

    fn joint_power(signal_half: &[Complex], kernels: &[&[Complex]; LANES], out: &mut Vec<f64>) {
        joint_power(signal_half, kernels, out);
    }

    fn second_lens<'s>(
        plan: &RealFftPlan,
        s: &'s mut SpectrumScratch,
        bins: RangeInclusive<usize>,
    ) -> Result<&'s [f64], DspError> {
        plan.forward_real_bins_symmetric(&s.real, bins, &mut s.fft, &mut s.half)?;
        Ok(&s.half)
    }

    fn read_lobes(lobes: &[f64], inv_n: f64, read_outs: &[ReadOut], out: &mut [f64]) -> Sums {
        read_lobes(lobes, inv_n, read_outs, out)
    }
}

impl Width for [f64; LANES] {
    #[inline(always)]
    fn per_kernel(f: impl FnMut(usize) -> f64) -> Self {
        std::array::from_fn(f)
    }

    #[inline(always)]
    fn kernel(self, l: usize) -> f64 {
        self[l]
    }

    fn intensity(s: &mut SpectrumScratch) -> &mut Vec<[f64; LANES]> {
        &mut s.lanes_real
    }

    fn joint_power(
        signal_half: &[Complex],
        kernels: &[&[Complex]; LANES],
        out: &mut Vec<[f64; LANES]>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one requirement of a `#[target_feature]` function
            // is that the CPU has the feature, checked on the line above.
            unsafe { joint_power_avx2(signal_half, kernels, out) };
            return;
        }
        joint_power(signal_half, kernels, out);
    }

    fn second_lens<'s>(
        plan: &RealFftPlan,
        s: &'s mut SpectrumScratch,
        bins: RangeInclusive<usize>,
    ) -> Result<&'s [[f64; LANES]], DspError> {
        plan.forward_real_bins_lanes(&s.lanes_real, bins, &mut s.lanes_fft, &mut s.lanes_half)?;
        Ok(&s.lanes_half)
    }

    fn read_lobes(
        lobes: &[[f64; LANES]],
        inv_n: f64,
        read_outs: &[ReadOut],
        out: &mut [f64],
    ) -> Sums {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as in `joint_power` above.
            return unsafe { read_lobes_avx2(lobes, inv_n, read_outs, out) };
        }
        read_lobes(lobes, inv_n, read_outs, out)
    }
}

/// `spectrum_apply`'s pass, written once for every width: sample `k` of
/// kernel `l`'s joint power spectrum is `|F[s][k] + F[k_l][k]|²` for the
/// signal half spectrum `signal_half` and the kernel half spectra `kernels`
/// (a block of one reads `kernels[0]` only). Every kernel spectrum is cut
/// to the signal's `n/2 + 1` bins before the loop, so the loop indexes
/// nothing it has not proved in range, and a bin's [`LANES`] kernel values
/// are read once, side by side. `#[inline(always)]` so that each caller
/// compiles its own copy for its own width and ISA.
#[inline(always)]
fn joint_power<W: Width>(signal_half: &[Complex], kernels: &[&[Complex]; LANES], out: &mut Vec<W>) {
    let bins = signal_half.len();
    let kernels = kernels.map(|kernel| &kernel[..bins]);
    out.clear();
    out.resize(bins, W::per_kernel(|_| 0.0));
    // A plain loop over slices: `Vec::extend` would run out of line,
    // compiled for the baseline ISA whatever its caller is compiled for.
    for (k, (joint, signal)) in out.iter_mut().zip(signal_half).enumerate() {
        *joint = W::per_kernel(|l| (*signal + kernels[l][k]).norm_sqr());
    }
}

/// The read-out pass, written once for every width: one pass over a
/// block's lobe bins `lobes` (ascending; lobe sample `j` is the `j`-th
/// from the top) writes every kernel's samples `bin · inv_n · gain` — the
/// double-transform gain of N normalised away, then the kernel's
/// [`ReadOut::gain`] — straight into its lobe of `out` (kernel-major, one
/// lobe per entry of `read_outs`) and, when any kernel asks, runs the
/// kernels' sums of squares side by side, each in output order.
/// `read_outs` holds one entry per kernel; idle lanes are computed and
/// dropped.
#[inline(always)]
fn read_lobes<W: Width>(lobes: &[W], inv_n: f64, read_outs: &[ReadOut], out: &mut [f64]) -> Sums {
    let live = read_outs.len();
    let gain = W::per_kernel(|l| read_outs[l.min(live - 1)].gain);
    let sum_squares = read_outs.iter().any(|read_out| read_out.sum_squares);
    let mut rows = out.chunks_exact_mut(lobes.len());
    let mut rows: [&mut [f64]; LANES] = std::array::from_fn(|_| rows.next().unwrap_or_default());
    let mut sums = W::per_kernel(|_| 0.0);
    for (j, bin) in lobes.iter().rev().enumerate() {
        let sample = W::per_kernel(|l| bin.kernel(l) * inv_n * gain.kernel(l));
        if sum_squares {
            sums = W::per_kernel(|l| sums.kernel(l) + sample.kernel(l) * sample.kernel(l));
        }
        for (l, row) in rows[..live].iter_mut().enumerate() {
            row[j] = sample.kernel(l);
        }
    }
    std::array::from_fn(|l| match read_outs.get(l) {
        Some(read_out) if read_out.sum_squares => sums.kernel(l),
        _ => 0.0,
    })
}

/// [`joint_power`] over lanes compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn joint_power_avx2(
    signal_half: &[Complex],
    kernels: &[&[Complex]; LANES],
    out: &mut Vec<[f64; LANES]>,
) {
    joint_power(signal_half, kernels, out);
}

/// [`read_lobes`] over lanes compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn read_lobes_avx2(
    lobes: &[[f64; LANES]],
    inv_n: f64,
    read_outs: &[ReadOut],
    out: &mut [f64],
) -> Sums {
    read_lobes(lobes, inv_n, read_outs, out)
}

/// The precomputed optics-level state for correlating one fixed kernel with
/// signals of one fixed length: input-plane geometry plus the kernel's
/// padded half-spectrum.
#[derive(Debug, Clone)]
pub struct PreparedSpectrum {
    signal_len: usize,
    kernel_len: usize,
    /// Offset of the kernel origin on the joint input plane.
    d: usize,
    /// Simulation grid size.
    n: usize,
    /// Bins `0..=n/2` of the `n`-point DFT of the kernel placed at offset
    /// `d` (the rest of the spectrum follows from conjugate symmetry).
    kernel_half_spec: Vec<Complex>,
    plan: Arc<RealFftPlan>,
}

/// The first-lens transform of one signal: bins `0..=n/2` of the `n`-point
/// DFT of the signal placed at the input-plane origin.
///
/// Computed once per tile by [`PreparedSpectrum::signal_spectra_batch`] and
/// read by [`PreparedSpectrum::correlate_spectrum`] for every kernel
/// prepared with the same geometry, replacing the per-kernel signal FFT.
#[derive(Debug, Clone)]
pub struct SignalSpectrum {
    signal_len: usize,
    n: usize,
    half_spec: Vec<Complex>,
}

impl PreparedSpectrum {
    /// Builds the prepared state for `kernel` against signals of exactly
    /// `signal_len` samples on the smallest joint plane that keeps the
    /// **read window** exact: signal at the origin, kernel at offset
    /// `d = 2·Ls − Lk`, on the smallest 5-smooth multiple of four of at
    /// least `4·Ls − Lk` points. Only the valid window of the correlation lobe is
    /// ever read, so the rest of the output plane is left to alias; the
    /// [`JtcSimulator`](crate::correlator::JtcSimulator) oracle, which
    /// shows the whole plane, keeps a wider separation and a power-of-two
    /// grid on which all three terms stay apart.
    ///
    /// This is [`PreparedSpectrum::new_batch`] over one kernel.
    ///
    /// # Errors
    ///
    /// * [`JtcError::EmptyOperand`] if the kernel is empty or `signal_len`
    ///   is zero.
    /// * [`JtcError::InputTooLarge`] if either operand exceeds `capacity`.
    pub fn new(kernel: &[f64], signal_len: usize, capacity: usize) -> Result<Self, JtcError> {
        let mut batch = Self::new_batch(&[kernel], signal_len, capacity)?;
        Ok(batch.pop().expect("one kernel in, one spectrum out"))
    }

    /// Loads a whole filter stack: the prepared state of every kernel of
    /// `kernels` — all of **one length** — against signals of `signal_len`
    /// samples, in kernel order. One geometry serves them all, so their
    /// halves of the joint input plane go through the first lens together:
    /// a block of [`LANES`] kernels' rows at a time, planar in the scratch
    /// arena, one pass of [`RealFftPlan::forward_real_batch_into`] per
    /// block (so the working set stays four rows however tall the stack),
    /// each kernel's `n/2 + 1` bins copied out to its own spectrum —
    /// nothing is stored twice. A kernel's spectrum is, bit for bit, what
    /// [`PreparedSpectrum::new`] computes for it alone, whatever else is in
    /// the batch. An empty batch prepares nothing.
    ///
    /// # Errors
    ///
    /// The conditions of [`PreparedSpectrum::new`], plus
    /// [`JtcError::InvalidConfig`] if the kernels differ in length.
    pub fn new_batch(
        kernels: &[&[f64]],
        signal_len: usize,
        capacity: usize,
    ) -> Result<Vec<Self>, JtcError> {
        if signal_len == 0 {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        let Some(first) = kernels.first() else {
            return Ok(Vec::new());
        };
        let kernel_len = first.len();
        if kernel_len == 0 {
            return Err(JtcError::EmptyOperand { what: "kernel" });
        }
        if kernels.iter().any(|kernel| kernel.len() != kernel_len) {
            return Err(JtcError::InvalidConfig {
                name: "kernels",
                requirement: format!("a batch prepares kernels of one length ({kernel_len})"),
            });
        }
        if signal_len > capacity || kernel_len > capacity {
            return Err(JtcError::InputTooLarge {
                signal_len,
                kernel_len,
                capacity,
            });
        }
        let (d, n) = crate::correlator::prepared_geometry(signal_len, kernel_len);
        let plan = RealFftPlan::shared(n)?;
        debug_assert!(plan.supports_lanes(), "a 5-smooth multiple of four");

        // Kernel half-spectra, computed once: each kernel occupies
        // [d, d + kernel_len) of its otherwise-zero row of input plane.
        // Nothing prepares a kernel from inside a scratch borrow, so the
        // padded rows and the packing buffer are the thread's own.
        let mut halves = Vec::new();
        let mut spectra = Vec::with_capacity(kernels.len());
        for block in kernels.chunks(LANES) {
            with_spectrum_scratch(|s| {
                s.real.clear();
                for kernel in block {
                    s.real.resize(s.real.len() + d, 0.0);
                    s.real.extend_from_slice(kernel);
                }
                plan.forward_real_batch_into(&s.real, block.len(), &mut s.fft, &mut halves)
            })?;
            spectra.extend(halves.chunks_exact(plan.spectrum_len()).map(|half| Self {
                signal_len,
                kernel_len,
                d,
                n,
                kernel_half_spec: half.to_vec(),
                plan: Arc::clone(&plan),
            }));
        }
        Ok(spectra)
    }

    /// The simulation grid size used by this prepared geometry.
    pub fn grid_size(&self) -> usize {
        self.n
    }

    fn check_signal_len(&self, len: usize) -> Result<(), JtcError> {
        if len != self.signal_len {
            return Err(JtcError::InvalidConfig {
                name: "signal_len",
                requirement: format!(
                    "prepared for signals of {} samples, got {len}",
                    self.signal_len
                ),
            });
        }
        Ok(())
    }

    /// Computes the first-lens transform of `signal` alone (real input,
    /// implicit zero padding), reusable against every prepared kernel that
    /// shares this geometry (same `signal_len` and grid size):
    /// [`PreparedSpectrum::signal_spectra_batch`] over one row.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `signal.len()` differs from
    /// the signal length this spectrum was prepared for, and
    /// [`JtcError::EmptyOperand`] for an empty signal.
    pub fn signal_spectrum(&self, signal: &[f64]) -> Result<SignalSpectrum, JtcError> {
        let mut batch = self.signal_spectra_batch(signal, 1)?;
        Ok(batch.pop().expect("one row in, one spectrum out"))
    }

    /// Computes the first-lens transforms of `count` signals stored back to
    /// back in `signals` (planar layout, each row exactly
    /// the prepared signal length) in one call to
    /// [`RealFftPlan::forward_real_batch_into`], which carries the rows
    /// through the real-input transform four to a pass, sharing one scratch
    /// borrow and one output allocation across the batch.
    ///
    /// A row's spectrum does not depend on what else is in the batch: a
    /// lane of a pass is the one-row transform, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::EmptyOperand`] for an empty batch and
    /// [`JtcError::InvalidConfig`] if `signals` does not divide into `count`
    /// rows of the prepared signal length.
    pub fn signal_spectra_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Result<Vec<SignalSpectrum>, JtcError> {
        if count == 0 || signals.is_empty() {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        if !signals.len().is_multiple_of(count) {
            return Err(JtcError::InvalidConfig {
                name: "signals",
                requirement: format!(
                    "planar batch of {count} equal rows, got {} samples",
                    signals.len()
                ),
            });
        }
        self.check_signal_len(signals.len() / count)?;
        let sl = self.plan.spectrum_len();
        let mut halves = Vec::new();
        with_spectrum_scratch(|s| {
            self.plan
                .forward_real_batch_into(signals, count, &mut s.fft, &mut halves)
        })?;
        Ok(halves
            .chunks_exact(sl)
            .map(|half| SignalSpectrum {
                signal_len: self.signal_len,
                n: self.n,
                half_spec: half.to_vec(),
            })
            .collect())
    }

    /// Runs the optics chain against `signal` and extracts the valid
    /// cross-correlation, reusing the prepared kernel spectrum.
    ///
    /// This is `self.correlate_spectrum(&self.signal_spectrum(signal)?)`.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `signal.len()` differs from
    /// the signal length this spectrum was prepared for, and
    /// [`JtcError::EmptyOperand`] for an empty signal.
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, JtcError> {
        self.correlate_spectrum(&self.signal_spectrum(signal)?)
    }

    /// Runs the optics chain against a signal transform computed by
    /// [`PreparedSpectrum::signal_spectrum`] — the multi-kernel fast path:
    /// one spectrum-add plus one inverse-lens transform, no signal FFT.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if the transform's geometry
    /// (signal length or grid size) differs from this kernel's.
    pub fn correlate_spectrum(&self, spectrum: &SignalSpectrum) -> Result<Vec<f64>, JtcError> {
        let mut out = vec![0.0; self.corr_len()];
        self.correlate_spectrum_acc(spectrum, ReadOut::PLAIN, &mut out, None)?;
        Ok(out)
    }

    /// The body of [`PreparedSpectrum::correlate_spectrum`]: the entry
    /// checks, then a block of one, its first `out.len()` lobe samples
    /// (`0 < out.len() <= corr_len` for a kernel no longer than the
    /// signal) read out into `out`. `acc` chains stage
    /// boundaries on the caller's accumulator, so a caller that already
    /// marked earlier stages pays no extra clock reads at the hand-off
    /// boundary (the entry checks fall into `spectrum_apply`). `read_out`
    /// and the returned sum of squares are
    /// [`PreparedSpectrum::finish_block`]'s.
    fn correlate_spectrum_acc(
        &self,
        spectrum: &SignalSpectrum,
        read_out: ReadOut,
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) -> Result<f64, JtcError> {
        self.check_signal_len(spectrum.signal_len)?;
        if spectrum.n != self.n {
            return Err(JtcError::InvalidConfig {
                name: "grid_size",
                requirement: format!(
                    "signal spectrum taken on a {}-point grid, kernel prepared on {}",
                    spectrum.n, self.n
                ),
            });
        }
        if self.kernel_len > self.signal_len {
            return Ok(0.0);
        }
        let [sum_sq, ..] =
            Self::finish_block::<f64>(&[self], &spectrum.half_spec, &[read_out], out, &mut acc)?;
        Ok(sum_sq)
    }

    /// The one body behind every chain: `block` holds the prepared kernels
    /// of one geometry that ride this pass together — one at width `f64`,
    /// 1 to [`LANES`] at width `[f64; LANES]` (a short block repeats its
    /// last kernel in the idle lanes and drops their output) — against the
    /// signal half spectrum `signal_half` taken on that geometry's grid.
    ///
    /// `spectrum_apply`: `F[s+k] = F[s] + F[k]`, then the square-law
    /// intensity. The joint input is real, so the intensity is symmetric
    /// (`I[n-k] = I[k]`): only samples `0..=n/2` are stored, the transform
    /// reads the mirror half. `inverse`: the second lens, evaluated only
    /// where it is read — the valid window of the correlation lobe lives at
    /// output-plane bins `d-corr_len+1..=d`, all within the half spectrum
    /// (`d < n/2` by construction) and the only bins the geometry keeps
    /// alias-free, and of those only the top `len = out.len() /
    /// read_outs.len()` are evaluated (`0 < len <= corr_len`): the first
    /// `len` lobe samples, which the lens' read-out from the top down
    /// computes bit for bit as it does on the way to the whole lobe. Every
    /// kernel's samples are then read out by its `read_outs` entry (lobe
    /// sample `j` is bin `d - j`, the double-transform gain of N normalised
    /// away) straight into its slice of `out`, kernel-major, and their sum
    /// of squares returned, in kernel order. A kernel's samples are, bit
    /// for bit, what a block of that kernel alone computes.
    ///
    /// The two O(n) passes around the lens run the whole block at once:
    /// [`joint_power`] gathers a bin's kernel values side by side, and
    /// [`read_lobes`] writes every kernel's samples in one pass over the
    /// lobe, the sums of squares side by side. Both are written once over
    /// [`Width`]; the lane instantiation is compiled with AVX2 where the CPU
    /// has it, the way the lens is (one dispatch per pass).
    ///
    /// # Errors
    ///
    /// The plan's, if `signal_half` was not taken on its grid — what
    /// [`PreparedKernel::lane_set`] rules out before any block of a set
    /// runs (a block must not fail once an earlier one has drawn noise).
    /// Every grid [`prepared_geometry`](crate::correlator) hands out has
    /// the symmetric transform.
    fn finish_block<W: Width>(
        block: &[&PreparedSpectrum],
        signal_half: &[Complex],
        read_outs: &[ReadOut],
        out: &mut [f64],
        acc: &mut Option<&mut StageAcc>,
    ) -> Result<Sums, JtcError> {
        let first = block[0];
        let kernels: [&[Complex]; LANES] =
            std::array::from_fn(|l| &*block[l.min(block.len() - 1)].kernel_half_spec);
        let len = out.len() / read_outs.len();
        with_spectrum_scratch(|s| {
            W::joint_power(signal_half, &kernels, W::intensity(s));
            mark(acc, Stage::SpectrumApply);
            let lobes = W::second_lens(&first.plan, s, first.lobe_prefix(len))?;
            let sums = W::read_lobes(lobes, 1.0 / first.n as f64, read_outs, out);
            mark(acc, Stage::Inverse);
            Ok(sums)
        })
    }

    /// Samples of the valid correlation: the lobe's length, or none for a
    /// kernel longer than the signal.
    fn corr_len(&self) -> usize {
        (self.signal_len + 1).saturating_sub(self.kernel_len)
    }

    /// The output-plane bins of the first `len` samples of the
    /// correlation lobe (`0 < len <= corr_len`), ascending: lobe sample `j`
    /// is bin `d - j`, so a prefix is the top of the lobe.
    fn lobe_prefix(&self, len: usize) -> RangeInclusive<usize> {
        debug_assert!(0 < len && len <= self.corr_len(), "a prefix of the lobe");
        self.d + 1 - len..=self.d
    }

    /// Whether `other` lays its joint input plane out exactly as `self`
    /// does, so the two can share a lane block.
    fn same_geometry(&self, other: &PreparedSpectrum) -> bool {
        (self.signal_len, self.kernel_len, self.d, self.n)
            == (other.signal_len, other.kernel_len, other.d, other.n)
    }
}

/// An engine-level prepared kernel, in two halves. The **deterministic
/// half** — the optics-level [`PreparedSpectrum`] (behind an `Arc`), the
/// kernel's DAC scale and copies of the engine's DAC/ADC — is a pure
/// function of the kernel and the engine configuration, so any engine of
/// that configuration can share it. The **noise binding** is per engine: a
/// handle to the seeded sensing-noise stream of the
/// [`JtcEngine`](crate::engine::JtcEngine) this kernel draws from (`None`
/// for deterministic engines).
/// [`Conv1dEngine::bind_prepared`](pf_tiling::Conv1dEngine::bind_prepared)
/// swaps the binding and keeps the half.
///
/// Implements [`pf_tiling::PreparedConv1d`], so row tiling can reuse it
/// across every tile of a convolution — and, held by a kept
/// [`pf_tiling::KernelSet`], across every image of a batch and every seeded
/// engine the set runs on. Noisy engines' prepared kernels draw their
/// per-call noise from the **bound engine's** stream in call order, so
/// under a fixed seed the cached-spectrum path replays bit-identically to
/// preparing the kernel afresh on every call; call order stays serial
/// because the engine reports
/// [`is_deterministic`](pf_tiling::Conv1dEngine::is_deterministic)` == false`.
/// A set call ([`PreparedConv1d::correlate_set_into`]) draws every member's
/// noise from the stream of the kernel it is made on, in member order —
/// the executor binds that one kernel per stack run and the others ride on
/// it, whatever stream they were prepared with.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    spectrum: Arc<PreparedSpectrum>,
    /// Scale undoing the kernel's pre-DAC normalisation.
    k_scale: f64,
    /// Copy of the engine's input DAC (quantises incoming signals).
    dac: Option<Dac>,
    /// Copy of the engine's output ADC.
    adc: Option<Adc>,
    /// The bound engine's sensing-noise stream (shared, not copied: every
    /// kernel an engine prepares draws from that engine's one stream). A
    /// set call made on this kernel conditions every member on it.
    noise: Option<Arc<Mutex<SensingNoise>>>,
}

/// The engine-level shared signal state handed out through
/// [`pf_tiling::PreparedConv1d::prepare_signal`]: the DAC-quantised
/// signal's first-lens transform plus the scale undoing its pre-DAC
/// normalisation.
#[derive(Debug)]
struct SharedSignal {
    spectrum: SignalSpectrum,
    s_scale: f64,
}

impl PreparedSignal for SharedSignal {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Normalises an operand to `[-1, 1]`, passes it through the DAC (if
/// present) and returns the quantised values together with the scale factor
/// to undo the normalisation. Without a DAC quantisation is the identity
/// and the operand comes back borrowed. (Behind a DAC an all-zero operand,
/// an identity too, is copied like any other: how often a chain allocates
/// must not depend on the data it sees.)
fn quantize_through_dac<'a>(dac: Option<&Dac>, values: &'a [f64]) -> (Cow<'a, [f64]>, f64) {
    let Some(dac) = dac else {
        return (Cow::Borrowed(values), 1.0);
    };
    let mut quantised = Vec::with_capacity(values.len());
    let scale = dac_row_into(dac, values, &mut quantised);
    (Cow::Owned(quantised), scale)
}

/// The DAC pass of one operand, appended to `out`: `values` normalised to
/// `[-1, 1]` against their own peak and quantised; returns the scale
/// undoing the normalisation. An all-zero operand is appended as it is,
/// at scale `1.0`.
fn dac_row_into(dac: &Dac, values: &[f64], out: &mut Vec<f64>) -> f64 {
    let max_abs = peak_magnitude(values);
    if max_abs == 0.0 {
        out.extend_from_slice(values);
        return 1.0;
    }
    // The DAC generates magnitudes; signs ride along as the phase of the
    // modulated field (or as the pseudo-negative split at the architecture
    // level).
    out.extend(
        values
            .iter()
            .map(|&v| dac.generate(v.abs() / max_abs) * v.signum()),
    );
    max_abs
}

thread_local! {
    /// Whole lobes of a block whose read-out ranges over the lobe, when the
    /// caller asked for prefixes ([`read_prefixes`]); grown once per thread
    /// and reused.
    static WHOLE_LOBES: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Hands `out` — `count` kernels' first `len = out.len() / count` samples
/// each, kernel-major, `len <= corr_len` — the prefixes of their lobes, as
/// `body` reads and conditions them into the buffer it is given (one lobe
/// prefix per kernel, kernel-major, of `buffer.len() / count` samples):
///
/// * a read-out that depends on the whole lobe (`whole`: an ADC full
///   scale, a noise RMS, noise positions reserved per lobe) runs on whole
///   lobes in this thread's buffer, and each prefix is copied out, so no
///   value, no noise position and no allocation of a warm thread moves;
/// * any other read-out is per sample: `body` evaluates only the prefixes,
///   straight into `out`, and an empty prefix asks for nothing.
///
/// A whole request (`len == corr_len`) always goes straight into `out`.
fn read_prefixes(
    out: &mut [f64],
    count: usize,
    corr_len: usize,
    whole: bool,
    body: impl FnOnce(&mut [f64]) -> Result<(), JtcError>,
) -> Result<(), JtcError> {
    let len = out.len() / count.max(1);
    if len == corr_len || (!whole && len > 0) {
        return body(out);
    }
    if !whole {
        return Ok(());
    }
    let mut lobes = WHOLE_LOBES.take();
    lobes.clear();
    lobes.resize(count * corr_len, 0.0);
    let read = body(&mut lobes);
    if read.is_ok() && len > 0 {
        for (prefix, lobe) in out.chunks_exact_mut(len).zip(lobes.chunks_exact(corr_len)) {
            prefix.copy_from_slice(&lobe[..len]);
        }
    }
    WHOLE_LOBES.set(lobes);
    read
}

impl PreparedKernel {
    /// Prepares every kernel of `kernels` (one length) for an engine of
    /// input-plane `capacity` with the given converters and noise stream:
    /// each kernel goes through the DAC once, against its own peak, and the
    /// stack's spectra are computed together
    /// ([`PreparedSpectrum::new_batch`]). Draws no noise.
    pub(crate) fn new_batch(
        kernels: &[&[f64]],
        signal_len: usize,
        capacity: usize,
        dac: Option<&Dac>,
        adc: Option<&Adc>,
        noise: Option<&Arc<Mutex<SensingNoise>>>,
    ) -> Result<Vec<Self>, JtcError> {
        let quantised: Vec<_> = kernels
            .iter()
            .map(|kernel| quantize_through_dac(dac, kernel))
            .collect();
        let rows: Vec<&[f64]> = quantised.iter().map(|(row, _)| &**row).collect();
        let spectra = PreparedSpectrum::new_batch(&rows, signal_len, capacity)?;
        Ok(spectra
            .into_iter()
            .zip(&quantised)
            .map(|(spectrum, &(_, k_scale))| Self {
                spectrum: Arc::new(spectrum),
                k_scale,
                dac: dac.cloned(),
                adc: adc.cloned(),
                noise: noise.cloned(),
            })
            .collect())
    }

    /// The same deterministic half drawing from another noise stream: what
    /// [`JtcEngine::prepare`](crate::engine::JtcEngine::prepare) on the
    /// engine owning `noise` would return for this kernel, without the
    /// preparation.
    pub(crate) fn bound_to(&self, noise: Option<Arc<Mutex<SensingNoise>>>) -> Self {
        Self {
            noise,
            ..self.clone()
        }
    }

    /// The optics-level prepared state.
    pub fn spectrum(&self) -> &PreparedSpectrum {
        &self.spectrum
    }

    /// Runs the full signal chain (DAC → optics → rescale → sensing noise →
    /// ADC) against `signal`. Deterministic engines carry no noise stream,
    /// so their chain is a pure function of the input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::correlate`].
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, JtcError> {
        let mut out = vec![0.0; self.spectrum.corr_len()];
        self.chain(self.stream().as_deref_mut(), signal, &mut out, None)?;
        Ok(out)
    }

    /// This kernel's own noise stream, locked for one call (`None` on a
    /// deterministic engine). The chain bodies below take the locked stream
    /// as a parameter and never lock: a set call locks its caller's stream
    /// and conditions every member on it.
    fn stream(&self) -> Option<MutexGuard<'_, SensingNoise>> {
        self.noise.as_deref().map(Mutex::lock)
    }

    /// A chain's output as a fresh vector, for the entries that return
    /// one. Shape-only contract, like `Conv1dEngine::correlate_valid`: a
    /// mismatched call degenerates to an empty result.
    fn collect(&self, chain: impl FnOnce(&mut [f64]) -> Result<(), JtcError>) -> Vec<f64> {
        let mut out = vec![0.0; self.spectrum.corr_len()];
        chain(&mut out).map_or_else(|_| Vec::new(), |()| out)
    }

    /// The full chain into `out`, drawing sensing noise from `noise`: the
    /// first lens on the DAC-quantised signal, then the shared-signal
    /// chain on that transform. Stage boundaries are marked on a
    /// caller-held [`StageAcc`] when there is one (one clock read per
    /// boundary; see the accumulator's docs for why loops hold one).
    fn chain(
        &self,
        noise: Option<&mut SensingNoise>,
        signal: &[f64],
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) -> Result<(), JtcError> {
        let (signal_q, s_scale) = quantize_through_dac(self.dac.as_ref(), signal);
        mark(&mut acc, Stage::DacAdc);
        let spectrum = self.spectrum.signal_spectrum(&signal_q)?;
        mark(&mut acc, Stage::SignalFft);
        self.chain_shared(noise, &SharedSignal { spectrum, s_scale }, out, acc)
    }

    /// The one body of a kernel's own chain into `out`, as the per-kernel
    /// loop runs it: the shared-signal chain on `prepared` when that is
    /// this engine's transform of this geometry — no signal-FFT stage here:
    /// the shared transform was computed (and attributed to `signal_fft`)
    /// where it was prepared, the executor's `prepare_signal_batch` call
    /// sites — else (no transform, a foreign or mismatched one) the full
    /// chain on `signal`. Sensing noise comes from `noise`.
    fn chain_with_signal(
        &self,
        mut noise: Option<&mut SensingNoise>,
        prepared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) -> Result<(), JtcError> {
        let shared = prepared.and_then(|p| p.as_any().downcast_ref::<SharedSignal>());
        if let Some(shared) = shared {
            let chained = self.chain_shared(noise.as_deref_mut(), shared, out, acc.as_deref_mut());
            if chained.is_ok() {
                return Ok(());
            }
        }
        self.chain(noise, signal, out, acc)
    }

    /// The shared-signal chain on this engine's own transform type, the
    /// first `out.len()` samples of its correlation into `out`
    /// ([`read_prefixes`]), drawing sensing noise from `noise`.
    fn chain_shared(
        &self,
        noise: Option<&mut SensingNoise>,
        shared: &SharedSignal,
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) -> Result<(), JtcError> {
        let whole = self.reads_whole_lobe(noise.is_some());
        read_prefixes(out, 1, self.spectrum.corr_len(), whole, |lobe| {
            let sum_sq = self.spectrum.correlate_spectrum_acc(
                &shared.spectrum,
                self.read_out(shared.s_scale, noise.is_some()),
                lobe,
                acc.as_deref_mut(),
            )?;
            Self::condition(noise, [self], [lobe], [sum_sq]);
            mark(&mut acc, Stage::DacAdc);
            Ok(())
        })
    }

    /// Whether this kernel's read-out depends on its whole lobe, under
    /// sensing noise when `noisy`: the ADC's full scale is the lobe's
    /// peak, the noise level its RMS and the noise positions are reserved
    /// per lobe. Without either a sample is read out on its own, and a
    /// prefix of the lobe is the read-out of the prefix's bins.
    fn reads_whole_lobe(&self, noisy: bool) -> bool {
        noisy || self.adc.is_some()
    }

    /// The one body of the shared-signal chain for a whole kernel set that
    /// [`PreparedKernel::lane_set`] cleared, every kernel's lobe into its
    /// slice of `out` (kernel-major): the optics run per block
    /// ([`PreparedSpectrum::finish_block`], which reads each lobe out
    /// straight into its slice), then the block is conditioned as one on
    /// `noise` — the set caller's stream, locked once for the whole call —
    /// ([`PreparedKernel::condition`]: its noise positions reserved **in
    /// kernel order**), so the stream is consumed exactly as the per-kernel
    /// chain of each member bound to it consumes it. Each kernel gets the
    /// first `out.len() / set.len()` samples of its lobe
    /// ([`read_prefixes`], decided per block: whole lobes if any of its
    /// kernels [reads its whole lobe](PreparedKernel::reads_whole_lobe)).
    /// Stages are marked once per block. A block of one — a set of one
    /// kernel, the tail of a set of `4k + 1` — runs at width 1
    /// ([`PreparedKernel::chain_shared`]): a whole lane transform for one
    /// lobe costs more than the one-signal instantiation (single-kernel
    /// partial tiling ran 20–29 % slower through lanes). Nothing here
    /// allocates once this thread's whole-lobe buffer has grown.
    fn chain_set(
        set: &[&dyn PreparedConv1d],
        shared: &SharedSignal,
        mut noise: Option<&mut SensingNoise>,
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) {
        let corr_len = Self::of(set[0])
            .expect("lane_set cleared every member")
            .spectrum
            .corr_len();
        let len = out.len() / set.len();
        assert!(
            len <= corr_len && out.len() == set.len() * len,
            "a prefix of one lobe per kernel of the set"
        );
        for (b, block) in set.chunks(LANES).enumerate() {
            let out = &mut out[b * LANES * len..][..block.len() * len];
            if let [lone] = block {
                let lone = Self::of(*lone).expect("lane_set cleared every member");
                lone.chain_shared(noise.as_deref_mut(), shared, out, acc.as_deref_mut())
                    .expect("lane_set cleared the geometry");
                continue;
            }
            // Fixed-size views (a short block repeats its last kernel):
            // nothing here may allocate per block.
            let kernels: [&PreparedKernel; LANES] = std::array::from_fn(|l| {
                Self::of(block[l.min(block.len() - 1)]).expect("lane_set cleared every member")
            });
            let spectra = kernels.map(|k| &*k.spectrum);
            let read_outs = kernels.map(|k| k.read_out(shared.s_scale, noise.is_some()));
            let whole = kernels.iter().any(|k| k.reads_whole_lobe(noise.is_some()));
            read_prefixes(out, block.len(), corr_len, whole, |lobes| {
                let sums = PreparedSpectrum::finish_block::<[f64; LANES]>(
                    &spectra[..block.len()],
                    &shared.spectrum.half_spec,
                    &read_outs[..block.len()],
                    lobes,
                    &mut acc,
                )?;
                // A short block's idle lanes condition empty slices: nothing.
                let mut slices = lobes.chunks_exact_mut(lobes.len() / block.len());
                let slices = std::array::from_fn(|_| slices.next().unwrap_or(&mut []));
                Self::condition(noise.as_deref_mut(), kernels, slices, sums);
                mark(&mut acc, Stage::DacAdc);
                Ok(())
            })
            .expect("lane_set cleared the geometry");
        }
    }

    /// `member` as this engine's own prepared kernel, if it is one.
    fn of(member: &dyn PreparedConv1d) -> Option<&PreparedKernel> {
        (member as &dyn Any).downcast_ref()
    }

    /// `prepared` as this engine's own transform, when the whole of `set`
    /// can ride in lanes with it: every member is a [`PreparedKernel`] on
    /// one geometry whose lobe is non-empty, and the transform was taken on
    /// that geometry. The streams the members were bound to do not matter:
    /// the set is conditioned on its caller's.
    fn lane_set<'a>(
        set: &[&dyn PreparedConv1d],
        prepared: &'a dyn PreparedSignal,
    ) -> Option<&'a SharedSignal> {
        let shared = prepared.as_any().downcast_ref::<SharedSignal>()?;
        let first = &*Self::of(*set.first()?)?.spectrum;
        let rides = first.kernel_len <= first.signal_len
            && (shared.spectrum.signal_len, shared.spectrum.n) == (first.signal_len, first.n)
            && set
                .iter()
                .all(|member| Self::of(*member).is_some_and(|k| k.spectrum.same_geometry(first)));
        rides.then_some(shared)
    }

    /// What both chains ask of the second lens' read-out for a signal with
    /// pre-DAC scale `s_scale`, `noisy` when sensing noise follows.
    fn read_out(&self, s_scale: f64, noisy: bool) -> ReadOut {
        ReadOut {
            gain: s_scale * self.k_scale,
            sum_squares: noisy,
        }
    }

    /// The output conditioning behind the optics, shared by every chain,
    /// on `L` kernels drawing from one stream `noise` (`None`: no sensing
    /// noise), each with its rescaled samples in its slice and their sum of
    /// squares (`sums`, accumulated in output order) from the second lens'
    /// read-out: photodetector sensing noise relative to each slice's RMS —
    /// every slice's positions reserved in kernel order, the draws
    /// interleaved ([`SensingNoise::add_scaled_blocks`]) — then each
    /// kernel's ADC quantisation in place against its slice's own full
    /// scale. A zero-RMS slice draws nothing.
    ///
    /// Total over non-finite input: an overflowed RMS or full scale comes
    /// back as non-finite samples, never as a panic.
    fn condition<const L: usize>(
        noise: Option<&mut SensingNoise>,
        kernels: [&Self; L],
        mut slices: [&mut [f64]; L],
        sums: [f64; L],
    ) {
        let mut peaks = [None; L];
        if let Some(noise) = noise {
            let rms: [f64; L] =
                std::array::from_fn(|l| (sums[l] / slices[l].len().max(1) as f64).sqrt());
            let live = rms.map(|rms| rms > 0.0);
            // A silent slice rides as an empty block: no position is
            // reserved for it.
            let mut lanes = live.iter();
            let blocks = slices.each_mut().map(|slice| match lanes.next() {
                Some(true) => &mut **slice,
                _ => &mut [],
            });
            let drawn = noise.add_scaled_blocks(blocks, rms);
            for ((peak, drawn), live) in peaks.iter_mut().zip(drawn).zip(live) {
                *peak = live.then_some(drawn);
            }
        }
        for ((kernel, slice), peak) in kernels.iter().zip(slices).zip(peaks) {
            if let Some(adc) = &kernel.adc {
                // The noise call hands back the peak of the samples it
                // wrote; only a noiseless (or silent) slice is scanned here.
                let peak = peak.unwrap_or_else(|| peak_magnitude(slice));
                adc.quantize_in_place(slice, peak.max(f64::EPSILON));
            }
        }
    }
}

impl PreparedConv1d for PreparedKernel {
    fn signal_len(&self) -> usize {
        self.spectrum.signal_len
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.collect(|out| self.chain(self.stream().as_deref_mut(), signal, out, None))
    }

    fn signal_key(&self) -> Option<u64> {
        // Two prepared kernels accept each other's shared signal when the
        // first-lens transform they expect is identical: same simulation
        // grid and same input-DAC resolution (the transform is taken on
        // the *quantised* signal). The geometry also fixes signal_len
        // through the executor's per-(signal length) preparation, so
        // (grid, dac bits) is a complete key.
        let dac_code = match &self.dac {
            Some(dac) => u64::from(dac.bits()) + 1,
            None => 0,
        };
        Some(((self.spectrum.n as u64) << 8) | dac_code)
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        self.prepare_signal_batch(signal, 1)?.pop()
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        if count == 0 || !signals.len().is_multiple_of(count) {
            return None;
        }
        let row = signals.len() / count;
        // DAC quantisation normalises each signal against its own peak, so
        // it stays per-row (bit-identical to `prepare_signal`), each row
        // quantised straight into one planar buffer; only the transforms
        // are batched. Without a DAC the batch reads the caller's buffer.
        let (packed, scales): (Cow<'_, [f64]>, Vec<f64>) = match &self.dac {
            Some(dac) => {
                let mut quantised = Vec::with_capacity(signals.len());
                let scales = signals
                    .chunks_exact(row)
                    .map(|chunk| dac_row_into(dac, chunk, &mut quantised))
                    .collect();
                (Cow::Owned(quantised), scales)
            }
            None => (Cow::Borrowed(signals), vec![1.0; count]),
        };
        let spectra = self.spectrum.signal_spectra_batch(&packed, count).ok()?;
        Some(
            spectra
                .into_iter()
                .zip(scales)
                .map(|(spectrum, s_scale)| {
                    Arc::new(SharedSignal { spectrum, s_scale }) as Arc<dyn PreparedSignal>
                })
                .collect(),
        )
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        self.collect(|out| {
            let mut noise = self.stream();
            self.chain_with_signal(noise.as_deref_mut(), Some(prepared), signal, out, None)
        })
    }

    fn correlate_set_into(
        &self,
        set: &[&dyn PreparedConv1d],
        shared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) {
        // One lock of this kernel's stream for the whole set: every member
        // is conditioned on it, in member order.
        if let Some(lanes) = shared.and_then(|prepared| Self::lane_set(set, prepared)) {
            return Self::chain_set(set, lanes, self.stream().as_deref_mut(), out, acc);
        }
        // No transform, a foreign member, mixed geometries, an empty lobe:
        // every member in order — this engine's own kernels each through
        // its chain on this kernel's stream (locked per member: a foreign
        // member may lock it too), a foreign one on its own terms, through
        // its own set call on a set of one. A mismatched call leaves its
        // slice as it was.
        let len = out.len() / set.len().max(1);
        for (k, member) in set.iter().enumerate() {
            let out = &mut out[k * len..][..len];
            match Self::of(*member) {
                Some(kernel) => {
                    let _ = kernel.chain_with_signal(
                        self.stream().as_deref_mut(),
                        shared,
                        signal,
                        out,
                        acc.as_deref_mut(),
                    );
                }
                None => member.correlate_set_into(
                    std::slice::from_ref(member),
                    shared,
                    signal,
                    out,
                    acc.as_deref_mut(),
                ),
            }
        }
    }

    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        self.collect(|out| self.chain(self.stream().as_deref_mut(), signal, out, Some(acc)))
    }

    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        self.collect(|out| {
            let mut noise = self.stream();
            self.chain_with_signal(noise.as_deref_mut(), Some(prepared), signal, out, Some(acc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlator::JtcSimulator;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::max_abs_diff;
    use pf_telemetry::Telemetry;

    #[test]
    fn prepared_matches_per_call_optics() {
        let jtc = JtcSimulator::new(64).unwrap();
        let kernel = vec![0.25, 0.5, 1.0, 0.5, 0.25];
        let prep = PreparedSpectrum::new(&kernel, 40, jtc.capacity()).unwrap();
        for seed in 0..5u64 {
            let signal: Vec<f64> = (0..40)
                .map(|i| ((i as f64 + seed as f64) * 0.3).sin() + 0.5)
                .collect();
            let fast = prep.correlate(&signal).unwrap();
            let slow = jtc.correlate(&signal, &kernel).unwrap();
            assert_eq!(fast.len(), slow.len());
            assert!(max_abs_diff(&fast, &slow) < 1e-9);
        }
    }

    #[test]
    fn prepared_matches_digital_reference() {
        let kernel = vec![-1.0, 2.0, -1.0];
        let prep = PreparedSpectrum::new(&kernel, 100, 128).unwrap();
        let signal: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.17).cos()).collect();
        let fast = prep.correlate(&signal).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&fast, &digital) < 1e-9);
    }

    #[test]
    fn prepared_validates_inputs() {
        assert!(matches!(
            PreparedSpectrum::new(&[], 8, 16),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            PreparedSpectrum::new(&[1.0], 0, 16),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            PreparedSpectrum::new(&[1.0], 17, 16),
            Err(JtcError::InputTooLarge { .. })
        ));
        let prep = PreparedSpectrum::new(&[1.0, 1.0], 8, 16).unwrap();
        assert!(matches!(
            prep.correlate(&[1.0; 7]),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            prep.correlate(&[]),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            prep.signal_spectrum(&[1.0; 7]),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            prep.signal_spectrum(&[]),
            Err(JtcError::EmptyOperand { .. })
        ));
    }

    #[test]
    fn kernel_longer_than_signal_is_empty() {
        let prep = PreparedSpectrum::new(&[1.0; 5], 3, 16).unwrap();
        assert!(prep.correlate(&[1.0; 3]).unwrap().is_empty());
        let spec = prep.signal_spectrum(&[1.0; 3]).unwrap();
        assert!(prep.correlate_spectrum(&spec).unwrap().is_empty());
    }

    #[test]
    fn prepared_is_deterministic_across_calls() {
        let kernel = vec![0.3, -0.2, 0.7];
        let prep = PreparedSpectrum::new(&kernel, 20, 32).unwrap();
        let signal: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin()).collect();
        let a = prep.correlate(&signal).unwrap();
        let b = prep.correlate(&signal).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A freshly prepared spectrum is bit-identical too.
        let prep2 = PreparedSpectrum::new(&kernel, 20, 32).unwrap();
        let c = prep2.correlate(&signal).unwrap();
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn shared_spectrum_path_is_bit_identical() {
        // One signal transform applied against several kernels must produce
        // exactly what the per-kernel fused path produces.
        let kernels: Vec<Vec<f64>> = vec![
            vec![0.25, 0.5, 1.0, 0.5, 0.25],
            vec![-1.0, 2.0, -1.0, 0.5, 0.0],
            vec![0.1, 0.1, 0.1, 0.1, 0.1],
        ];
        let preps: Vec<PreparedSpectrum> = kernels
            .iter()
            .map(|k| PreparedSpectrum::new(k, 40, 64).unwrap())
            .collect();
        let signal: Vec<f64> = (0..40).map(|i| (i as f64 * 0.31).sin() + 0.2).collect();
        // All kernels share a geometry, so any of them can take the
        // transform.
        let spectrum = preps[0].signal_spectrum(&signal).unwrap();
        for prep in &preps {
            let shared = prep.correlate_spectrum(&spectrum).unwrap();
            let fused = prep.correlate(&signal).unwrap();
            assert_eq!(shared.len(), fused.len());
            for (a, b) in shared.iter().zip(&fused) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prepared_grid_is_tight_and_still_exact() {
        let jtc = JtcSimulator::new(256).unwrap();
        let kernel = vec![0.25, -0.5, 1.0, 0.5, -0.25, 0.1, 0.3];
        let prep = PreparedSpectrum::new(&kernel, 256, jtc.capacity()).unwrap();
        // Tight 5-smooth grid, strictly smaller than the 2048-point grid
        // of the joint-plane oracle.
        assert!(prep.grid_size() < jtc.grid_size());
        assert_eq!(prep.grid_size() % 2, 0);
        let signal: Vec<f64> = (0..256).map(|i| ((i as f64) * 0.13).sin() + 0.4).collect();
        let fast = prep.correlate(&signal).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&fast, &digital) < 1e-9);
    }

    #[test]
    fn batched_signal_spectra_are_bit_identical_to_serial() {
        let prep = PreparedSpectrum::new(&[0.3, -0.2, 0.7], 40, 64).unwrap();
        for count in [1usize, 2, 3, 5] {
            let signals: Vec<f64> = (0..40 * count)
                .map(|i| ((i as f64) * 0.29).sin() + 0.1)
                .collect();
            let batch = prep.signal_spectra_batch(&signals, count).unwrap();
            assert_eq!(batch.len(), count);
            for (row, spec) in batch.iter().enumerate() {
                let serial = prep
                    .signal_spectrum(&signals[row * 40..(row + 1) * 40])
                    .unwrap();
                let a = prep.correlate_spectrum(spec).unwrap();
                let b = prep.correlate_spectrum(&serial).unwrap();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "count {count} row {row}");
                }
            }
        }
        // Ragged batches are rejected.
        assert!(matches!(
            prep.signal_spectra_batch(&[1.0; 41], 2),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            prep.signal_spectra_batch(&[], 2),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            prep.signal_spectra_batch(&[1.0; 40], 0),
            Err(JtcError::EmptyOperand { .. })
        ));
    }

    #[test]
    fn prepare_signal_batch_matches_prepare_signal() {
        // Through the row-tiling trait, with a DAC in the chain: per-row
        // quantisation plus batched transforms must reproduce the serial
        // path bit for bit.
        let engine = crate::engine::JtcEngine::new(crate::engine::JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: None,
            sensing_snr_db: None,
            noise_seed: 0,
        })
        .unwrap();
        let prep = engine.prepare(&[0.4, -0.1, 0.8], 32).unwrap();
        for count in [1usize, 2, 4, 5] {
            let signals: Vec<f64> = (0..32 * count)
                .map(|i| ((i as f64) * 0.37).cos() * (1.0 + i as f64 / 100.0))
                .collect();
            let batch = prep
                .prepare_signal_batch(&signals, count)
                .expect("batch preparation succeeds");
            assert_eq!(batch.len(), count);
            for (row, shared) in batch.iter().enumerate() {
                let tile = &signals[row * 32..(row + 1) * 32];
                let serial = prep.prepare_signal(tile).unwrap();
                let a = prep.correlate_with_signal(shared.as_ref(), tile);
                let b = prep.correlate_with_signal(serial.as_ref(), tile);
                let c = prep.correlate_valid(tile);
                assert_eq!(a.len(), c.len());
                for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                    assert_eq!(x.to_bits(), y.to_bits(), "count {count} row {row}");
                    assert_eq!(x.to_bits(), z.to_bits(), "count {count} row {row}");
                }
            }
        }
        // Ragged batches fall back to None (callers then go one-at-a-time).
        assert!(prep.prepare_signal_batch(&[1.0; 33], 2).is_none());
        assert!(prep.prepare_signal_batch(&[1.0; 32], 0).is_none());
    }

    #[test]
    fn correlate_spectrum_rejects_foreign_geometry() {
        let prep_a = PreparedSpectrum::new(&[1.0, 0.5], 40, 64).unwrap();
        let prep_b = PreparedSpectrum::new(&[1.0, 0.5], 32, 64).unwrap();
        let spectrum = prep_a
            .signal_spectrum(&vec![1.0; 40])
            .expect("valid spectrum");
        assert!(matches!(
            prep_b.correlate_spectrum(&spectrum),
            Err(JtcError::InvalidConfig { .. })
        ));
    }

    /// The two passes around the second lens, pinned per instantiation —
    /// what `forward_real_bins_lanes_portable` pins for the lens itself:
    /// on the benchmark's grids (n = 240 and n = 1000), for every block
    /// width, the baseline-ISA lanes, the AVX2 lanes (where this CPU has
    /// them) and the width-1 body run on each kernel alone agree bit for
    /// bit, sums of squares included.
    #[test]
    fn fourier_plane_passes_are_bit_equal_in_every_instantiation() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (len, taps, grid) in [(64, 19, 240), (256, 35, 1000)] {
            let kernels: Vec<Vec<f64>> = (0..LANES)
                .map(|i| {
                    (0..taps)
                        .map(|j| ((i * 7 + j * 3) as f64 * 0.41).sin() - 0.2 * i as f64)
                        .collect()
                })
                .collect();
            let rows: Vec<&[f64]> = kernels.iter().map(Vec::as_slice).collect();
            let spectra = PreparedSpectrum::new_batch(&rows, len, 256).unwrap();
            let first = &spectra[0];
            assert_eq!(first.grid_size(), grid);
            let signal: Vec<f64> = (0..len).map(|i| (i as f64 * 0.29).sin() + 0.3).collect();
            let signal_half = first.signal_spectrum(&signal).unwrap().half_spec;
            let inv_n = 1.0 / grid as f64;
            for live in 1..=LANES {
                let what = format!("n = {grid}, {live} live lanes");
                let block: [&[Complex]; LANES] =
                    std::array::from_fn(|l| &*spectra[l.min(live - 1)].kernel_half_spec);

                let mut lanes = Vec::new();
                joint_power::<[f64; LANES]>(&signal_half, &block, &mut lanes);
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut avx2 = Vec::new();
                    // SAFETY: the CPU has AVX2, checked on the line above.
                    unsafe { joint_power_avx2(&signal_half, &block, &mut avx2) };
                    assert_eq!(
                        bits(avx2.as_flattened()),
                        bits(lanes.as_flattened()),
                        "{what}: intensity, AVX2 against baseline"
                    );
                }
                for (l, kernel) in block.iter().enumerate() {
                    let mut one = Vec::new();
                    joint_power::<f64>(&signal_half, &[*kernel; LANES], &mut one);
                    for (k, (a, b)) in one.iter().zip(&lanes).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b[l].to_bits(),
                            "{what}: intensity {k}, lane {l}"
                        );
                    }
                }

                let mut work = Vec::new();
                let mut lobes = Vec::new();
                first
                    .plan
                    .forward_real_bins_lanes(
                        &lanes,
                        first.lobe_prefix(first.corr_len()),
                        &mut work,
                        &mut lobes,
                    )
                    .unwrap();
                for noisy in [false, true] {
                    let read_outs: Vec<ReadOut> = (0..live)
                        .map(|l| ReadOut {
                            gain: 0.5 + 0.75 * l as f64,
                            sum_squares: noisy && l != 1,
                        })
                        .collect();
                    // A whole block's worth of rows, idle ones included:
                    // an idle lane must leave its row as it found it.
                    let len = first.signal_len - first.kernel_len + 1;
                    assert_eq!(lobes.len(), len, "{what}: one bin per sample");
                    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
                    let mut lane_out = vec![sentinel; LANES * len];
                    let lane_sums =
                        read_lobes::<[f64; LANES]>(&lobes, inv_n, &read_outs, &mut lane_out);
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut avx2_out = vec![sentinel; LANES * len];
                        // SAFETY: as above.
                        let avx2_sums =
                            unsafe { read_lobes_avx2(&lobes, inv_n, &read_outs, &mut avx2_out) };
                        assert_eq!(bits(&avx2_out), bits(&lane_out), "{what}: AVX2 samples");
                        assert_eq!(bits(&avx2_sums), bits(&lane_sums), "{what}: AVX2 sums");
                    }
                    let rows = lane_out.chunks_exact(len).zip(lane_sums);
                    for (l, (samples, sum_sq)) in rows.enumerate() {
                        let Some(read_out) = read_outs.get(l) else {
                            assert!(
                                bits(samples) == bits(&vec![sentinel; len]) && sum_sq == 0.0,
                                "{what}: idle lane {l}"
                            );
                            continue;
                        };
                        let column: Vec<f64> = lobes.iter().map(|bin| bin[l]).collect();
                        let mut one = vec![0.0; len];
                        let [one_sum, ..] =
                            read_lobes::<f64>(&column, inv_n, &[*read_out], &mut one);
                        for (j, (a, b)) in one.iter().zip(samples).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{what}: sample {j}, lane {l}");
                        }
                        assert_eq!(one_sum.to_bits(), sum_sq.to_bits(), "{what}: sum, lane {l}");
                        assert_eq!(sum_sq == 0.0, !read_out.sum_squares, "{what}: lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn traced_paths_are_bit_identical_and_attribute_stages() {
        let prep = PreparedKernel::new_batch(&[&[0.3, -0.2, 0.7]], 48, 64, None, None, None)
            .unwrap()
            .pop()
            .unwrap();
        let signal: Vec<f64> = (0..48).map(|i| (i as f64 * 0.13).sin()).collect();
        let tel = Telemetry::enabled();

        // One chain body serves the inherent, trait and traced entry
        // points: marking stages must not change a bit, and must account
        // time to every stage.
        let plain = prep.correlate_valid(&signal);
        let inherent = prep.correlate(&signal).unwrap();
        let traced = prep.correlate_valid_traced(&signal, &tel);
        for ((a, b), c) in plain.iter().zip(&traced).zip(&inherent) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let totals = tel.stage_totals();
        for stage in Stage::ALL {
            assert_eq!(totals.stage_calls(stage), 1, "{}", stage.name());
            assert!(totals.stage_ns(stage) > 0, "{}", stage.name());
        }

        // Shared-signal path: spectrum stages only, no signal-FFT stage.
        let shared = prep.prepare_signal(&signal).unwrap();
        let plain = prep.correlate_with_signal(&*shared, &signal);
        let before = tel.stage_totals();
        let traced = prep.correlate_with_signal_traced(&*shared, &signal, &tel);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let delta = tel.stage_totals().delta_since(&before);
        assert_eq!(delta.stage_calls(Stage::SignalFft), 0);
        assert_eq!(delta.stage_calls(Stage::SpectrumApply), 1);
        assert_eq!(delta.stage_calls(Stage::Inverse), 1);
        assert_eq!(delta.stage_calls(Stage::DacAdc), 1);
        assert_eq!(delta.stage_ns(Stage::SignalFft), 0);
    }
}
