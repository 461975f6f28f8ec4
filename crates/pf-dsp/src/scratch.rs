//! Per-thread scratch buffers for spectrum pipelines.
//!
//! The JTC hot path runs millions of fixed-size transforms whose
//! intermediates (packed FFT inputs, half spectra, intensity sequences) are
//! identical in shape from call to call. Allocating them per call would put
//! the allocator on the critical path, and threading `&mut Vec` parameters
//! through every layer would leak buffer management into the public
//! signatures. This module provides the middle ground: one
//! [`SpectrumScratch`] per thread, borrowed for the duration of a
//! computation through [`with_spectrum_scratch`].
//!
//! Buffers keep their capacity across calls (steady-state execution
//! performs no allocation) and are only ever *logically* cleared by the
//! borrower — callers must not assume any particular content on entry.
//! One-off work borrows the same arena: preparing kernel spectra pads
//! their inputs in [`SpectrumScratch::real`] and packs a lone one in
//! [`SpectrumScratch::fft`] instead of allocating both per kernel.
//!
//! Every buffer is sized by the grid its borrower transforms on, so the
//! arena is as small as the JTC's joint plane: on the 1000-point grid of
//! a 256-sample tile against a 35-sample tiled kernel a lane block of the
//! second lens holds 501 × 32 B of intensities, 250 × 64 B of
//! quarter-length transform and 222 × 32 B of (real) lobe — 39 KB per
//! thread. The first lens' lane buffer is not in this arena: a batched
//! first lens ([`crate::plan::RealFftPlan::forward_real_batch_into`]) is
//! called *from inside* a borrow (its packing scratch is [`SpectrumScratch::fft`]),
//! so its four-rows-to-a-pass working buffer — **half a grid** of
//! [`ComplexLanes`], 500 × 64 B = 32 KB on that grid — is the plan
//! module's own per-thread buffer, next to the one mixed-radix plans
//! gather through. What the arena holds for a stack being prepared is the
//! planar input: a block of [`LANES`] kernels' rows of the joint plane in
//! [`SpectrumScratch::real`] (4 × 512 × 8 B = 16 KB there).
//!
//! Threads are how the row tiler dispatches independent tiles, so
//! thread-local state needs no locking and cannot alias across concurrent
//! correlations.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::complex::{Complex, ComplexLanes, LANES};

/// How often the scratch arena has (re)allocated: `grows` counts borrows
/// in which any of the arena's buffers grew its capacity inside the closure —
/// i.e. the steady state was *not* allocation-free — and `borrows` counts
/// every [`with_spectrum_scratch`] call. A warmed-up pipeline should hold
/// `grows` flat while `borrows` climbs; the repo benchmark reports the
/// growth over its warm runs as the `pf-dsp.scratch_grows` ladder row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Borrows in which at least one scratch buffer grew its capacity.
    pub grows: u64,
    /// Total scratch borrows.
    pub borrows: u64,
}

static SCRATCH_GROWS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_BORROWS: AtomicU64 = AtomicU64::new(0);

/// Process-wide scratch allocation counters (see [`ScratchStats`]).
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        grows: SCRATCH_GROWS.load(Ordering::Relaxed),
        borrows: SCRATCH_BORROWS.load(Ordering::Relaxed),
    }
}

/// Reusable working buffers for one spectrum computation: one complex
/// vector (FFT packing scratch) and two real ones (an intensity or
/// padded-input sequence, and the real bins of a symmetric sequence's
/// transform), each with a lane counterpart for computations that carry
/// [`LANES`] spectra at once. The lane buffers here are the second lens':
/// sized by what a lane block reads — half a symmetric intensity, the
/// quarter-length transform, the requested bins — never the full grid (the
/// first lens' half-grid lane buffer lives with the plans, see the module
/// docs).
#[derive(Debug, Default)]
pub struct SpectrumScratch {
    /// Packed-input scratch for [`crate::plan::RealFftPlan::forward_real_into`].
    pub fft: Vec<Complex>,
    /// Selected bins of the half spectrum of a symmetric real sequence —
    /// real, like the sequence (e.g. the output-plane bins of a JTC pass'
    /// correlation lobe).
    pub half: Vec<f64>,
    /// Real-valued working buffer (e.g. a square-law intensity sequence, or
    /// a block of kernels, each zero-padded to its input-plane offset, while
    /// their stack is prepared).
    pub real: Vec<f64>,
    /// Transform buffer of
    /// [`crate::plan::RealFftPlan::forward_real_bins_lanes`].
    pub lanes_fft: Vec<ComplexLanes>,
    /// Lane counterpart of [`half`](Self::half) (e.g. the output-plane bins
    /// of [`LANES`] correlation lobes).
    pub lanes_half: Vec<[f64; LANES]>,
    /// Lane counterpart of [`real`](Self::real) (e.g. samples `0..=n/2` of
    /// [`LANES`] symmetric intensity sequences).
    pub lanes_real: Vec<[f64; LANES]>,
}

impl SpectrumScratch {
    /// Capacity of every buffer, for the growth counter.
    fn capacities(&self) -> [usize; 6] {
        [
            self.fft.capacity(),
            self.half.capacity(),
            self.real.capacity(),
            self.lanes_fft.capacity(),
            self.lanes_half.capacity(),
            self.lanes_real.capacity(),
        ]
    }
}

/// Borrows the calling thread's [`SpectrumScratch`] for the duration of `f`.
///
/// # Panics
///
/// Panics if `f` re-enters `with_spectrum_scratch` on the same thread (the
/// scratch is a single exclusive borrow by design: nested spectrum
/// computations would silently clobber each other's buffers otherwise).
///
/// # Examples
///
/// ```
/// use pf_dsp::scratch::with_spectrum_scratch;
///
/// let sum = with_spectrum_scratch(|s| {
///     s.real.clear();
///     s.real.extend([1.0, 2.0, 3.0]);
///     s.real.iter().sum::<f64>()
/// });
/// assert_eq!(sum, 6.0);
/// ```
pub fn with_spectrum_scratch<R>(f: impl FnOnce(&mut SpectrumScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<SpectrumScratch> = RefCell::new(SpectrumScratch::default());
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell
            .try_borrow_mut()
            .expect("with_spectrum_scratch must not be re-entered on one thread");
        SCRATCH_BORROWS.fetch_add(1, Ordering::Relaxed);
        let before = scratch.capacities();
        let out = f(&mut scratch);
        if scratch.capacities() != before {
            SCRATCH_GROWS.fetch_add(1, Ordering::Relaxed);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_keeps_capacity_across_borrows() {
        with_spectrum_scratch(|s| {
            s.real.clear();
            s.real.resize(1024, 1.0);
            s.half.clear();
            s.half.resize(64, 0.0);
        });
        with_spectrum_scratch(|s| {
            assert!(s.real.capacity() >= 1024);
            assert!(s.half.capacity() >= 64);
        });
    }

    #[test]
    fn nested_borrow_panics() {
        let result = std::panic::catch_unwind(|| {
            with_spectrum_scratch(|_| with_spectrum_scratch(|_| ()));
        });
        assert!(result.is_err());
    }

    #[test]
    fn growth_counter_sees_first_allocation() {
        // The counters are process-wide and other tests borrow scratch
        // concurrently, so assert the monotone facts only: a fresh
        // thread's first over-sized borrow registers a growth, so does a
        // later borrow that grows nothing but a lane buffer, and every
        // borrow registers a borrow.
        let before = scratch_stats();
        std::thread::spawn(|| {
            with_spectrum_scratch(|s| {
                s.real.clear();
                s.real.resize(1 << 16, 0.0);
            });
            with_spectrum_scratch(|s| s.lanes_real.resize(1 << 10, [0.0; LANES]));
        })
        .join()
        .unwrap();
        let after = scratch_stats();
        assert!(
            after.grows >= before.grows + 2,
            "fresh arena growth is counted, lane buffers included"
        );
        assert!(after.borrows >= before.borrows + 2);
    }

    #[test]
    fn scratch_is_per_thread() {
        with_spectrum_scratch(|s| {
            s.real.clear();
            s.real.push(42.0);
        });
        std::thread::spawn(|| {
            with_spectrum_scratch(|s| assert!(s.real.is_empty()));
        })
        .join()
        .unwrap();
    }
}
