//! The 1D convolution backend abstraction.
//!
//! Row tiling "can be applied to any hardware that supports 1D convolution"
//! (Section III). The executor therefore only needs a backend that slides a
//! kernel over a signal; the digital reference backend lives here and the
//! photonic JTC backend (with square-law detection, quantisation and noise)
//! lives in `pf-jtc`.

use std::any::Any;
use std::fmt::Debug;
use std::sync::Arc;

use pf_dsp::conv::{correlate1d, PaddingMode};
use pf_telemetry::{StageAcc, Telemetry};

/// A backend that computes 1D *valid* cross-correlation:
/// `out[p] = Σ_j signal[p + j] · kernel[j]` for
/// `p = 0 .. signal.len() - kernel.len()`.
///
/// Implementations may introduce numerical error (quantisation, optical
/// noise); the contract is only about shape: the output must have
/// `signal.len() - kernel.len() + 1` elements whenever
/// `kernel.len() <= signal.len()`, and must be empty otherwise.
///
/// Engines are required to be `Sync` so the tiled executor can dispatch
/// independent tiles across rayon worker threads.
pub trait Conv1dEngine: Debug + Sync {
    /// Computes the valid cross-correlation of `signal` with `kernel`.
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64>;

    /// Maximum signal length the backend supports (for the PFCU this is the
    /// number of input waveguides). `None` means unbounded.
    fn max_signal_len(&self) -> Option<usize> {
        None
    }

    /// Whether [`Conv1dEngine::correlate_valid`] is a pure function of its
    /// inputs. Engines with internal RNG state (optical sensing noise) must
    /// return `false`; the tiled executor then keeps its call order identical
    /// to the serial path so noise streams stay reproducible.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Whether one 1D convolution is expensive enough that spawning a
    /// thread per tile pays off. Defaults to `false`: a memory-bound dot
    /// product costs far less than a thread spawn, so cheap engines run
    /// tiles serially even when the executor's parallelism is enabled.
    /// FFT-backed optics simulations should return `true`.
    fn prefers_parallel_tiles(&self) -> bool {
        false
    }

    /// Whether [`Conv1dEngine::prepare_kernel`] can ever return `Some` for
    /// this engine. The tiled executor asks an engine that reports `false`
    /// for no preparation at all: its kernel stacks run through
    /// [`Conv1dEngine::correlate_valid`].
    ///
    /// Implementations overriding [`Conv1dEngine::prepare_kernel`] must
    /// override this too; the default is `false`.
    fn prepares_kernels(&self) -> bool {
        false
    }

    /// Prepares `kernel` for repeated correlation against signals of exactly
    /// `signal_len` samples, amortising per-kernel work (spectrum
    /// computation, quantisation) across many tiles.
    ///
    /// Returning `None` (the default) means the engine has no prepared fast
    /// path and callers should fall back to
    /// [`Conv1dEngine::correlate_valid`]. Implementations must guarantee the
    /// prepared path computes exactly what `correlate_valid` would, up to
    /// the engine's own numerical tolerance (both engines of this workspace
    /// meet it bit for bit: the JTC's `correlate_valid` *is* prepare-then-
    /// run, the digital sparse kernel replays the dense sum's order).
    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        let _ = (kernel, signal_len);
        None
    }

    /// [`Conv1dEngine::prepare_kernel`] for a whole stack — the kernels one
    /// signal is correlated against, a filter set as it is loaded — in one
    /// call: one entry per kernel, in kernel order, each **interchangeable**
    /// with what `prepare_kernel` returns for that kernel alone (the
    /// kernel-side twin of [`PreparedConv1d::prepare_signal_batch`]; `None`
    /// declines that kernel only).
    ///
    /// The default is exactly that loop. Engines that can do better with
    /// the stack in hand override it (the JTC transforms the kernels' rows
    /// of the joint plane four to a pass) and fall back to the loop on a
    /// stack they cannot batch.
    fn prepare_kernels(
        &self,
        kernels: &[&[f64]],
        signal_len: usize,
    ) -> Vec<Option<Arc<dyn PreparedConv1d>>> {
        kernels
            .iter()
            .map(|kernel| self.prepare_kernel(kernel, signal_len))
            .collect()
    }

    /// Binds a prepared kernel held by a kept kernel set to *this* engine's
    /// per-engine state, so one set can serve several engines of one
    /// configuration ([`TiledConvolver::on`](crate::TiledConvolver::on)).
    /// `cached` may have been prepared by a different engine.
    ///
    /// Engines whose prepared kernels carry no such state return `cached`
    /// unchanged (the default). A stochastic engine returns a kernel that
    /// reads the same deterministic preparation but draws from its **own**
    /// noise stream, exactly as if it had prepared the kernel itself.
    fn bind_prepared(&self, cached: Arc<dyn PreparedConv1d>) -> Arc<dyn PreparedConv1d> {
        cached
    }
}

/// An engine-specific transform of one *signal*, reusable across every
/// prepared kernel that shares the same [`PreparedConv1d::signal_key`].
///
/// For the JTC optics this is the signal tile's quantised real-input
/// half-spectrum: computing it once and applying it against N prepared
/// kernel spectra replaces N signal FFTs with one. The executor treats the
/// value as opaque; implementations downcast through
/// [`PreparedSignal::as_any`].
pub trait PreparedSignal: Debug + Send + Sync {
    /// Downcasting hook for the owning engine.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A kernel prepared by [`Conv1dEngine::prepare_kernel`]: correlates one
/// fixed kernel against many signals of one fixed length. [`Any`] lets the
/// owning engine recognise its own type in [`Conv1dEngine::bind_prepared`].
pub trait PreparedConv1d: Any + Debug + Send + Sync {
    /// The signal length this kernel was prepared for.
    fn signal_len(&self) -> usize;

    /// Valid cross-correlation of `signal` (which must have
    /// [`PreparedConv1d::signal_len`] samples) with the prepared kernel.
    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64>;

    /// Identifies the compatibility class of signal transforms this
    /// prepared kernel can consume: two prepared kernels returning the same
    /// `Some` key accept each other's [`PreparedConv1d::prepare_signal`]
    /// output (for the JTC: same simulation grid size and same input-DAC
    /// resolution). `None` (the default) opts out of signal sharing.
    fn signal_key(&self) -> Option<u64> {
        None
    }

    /// Computes the shareable transform of `signal` (e.g. its quantised
    /// half-spectrum). Must be a pure function of `signal`; the executor
    /// takes it once per distinct signal of a run and replays it against
    /// many kernels.
    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        let _ = signal;
        None
    }

    /// Computes the shareable transforms of `count` equal-length signals
    /// stored back to back in `signals` (planar layout). Returns one
    /// transform per row, in order.
    ///
    /// Each returned transform must be **bit-identical** to what
    /// [`PreparedConv1d::prepare_signal`] produces for that row — the
    /// executor may use either path interchangeably. Engines that can do
    /// better with the whole batch in hand override this; the default
    /// simply loops. Returns `None` if any row fails to prepare or the
    /// batch does not divide evenly.
    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        if count == 0 || !signals.len().is_multiple_of(count) {
            return None;
        }
        let row = signals.len() / count;
        signals
            .chunks_exact(row)
            .map(|chunk| self.prepare_signal(chunk))
            .collect()
    }

    /// Correlates using a transform produced by a compatible kernel's
    /// [`PreparedConv1d::prepare_signal`]. `signal` is the original signal
    /// the transform was computed from (kept available so implementations
    /// can fall back on a foreign `prepared`).
    ///
    /// Must be **bit-identical** to `correlate_valid(signal)` whenever
    /// `prepared` came from a kernel with the same
    /// [`PreparedConv1d::signal_key`]; the default falls back to
    /// [`PreparedConv1d::correlate_valid`].
    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        let _ = prepared;
        self.correlate_valid(signal)
    }

    /// [`PreparedConv1d::correlate_valid`] with per-stage time marked on
    /// `acc` — the hot traced path. The executor holds one [`StageAcc`]
    /// across a whole tile or kernel-set loop and flushes it to the
    /// registry once, so per-convolution tracing cost is just the stage
    /// boundary clock reads.
    ///
    /// Must return **bit-identical** output to `correlate_valid(signal)` —
    /// tracing observes, never perturbs. The default marks nothing;
    /// engines with a staged path (the JTC) override it.
    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        let _ = acc;
        self.correlate_valid(signal)
    }

    /// [`PreparedConv1d::correlate_with_signal`] with per-stage time
    /// marked on `acc`. Same bit-identity contract as
    /// [`PreparedConv1d::correlate_valid_acc`].
    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        let _ = acc;
        self.correlate_with_signal(prepared, signal)
    }

    /// Correlates one signal against a whole set of prepared kernels —
    /// every kernel of one stack, `self` among them, all producing outputs
    /// of one length `corr_len` — writing them into `out` kernel-major:
    /// kernel `k`'s samples at `k * corr_len`, `out` exactly
    /// `set.len() * corr_len` long. `shared` is the signal's transform
    /// when a member's [`PreparedConv1d::prepare_signal`] took one for the
    /// set to read; without it every member runs its own full chain.
    /// `acc`, when present, collects the stage split of the whole call.
    ///
    /// Must be **bit-identical**, output for output, to calling
    /// [`PreparedConv1d::correlate_with_signal`] (with `shared`) or
    /// [`PreparedConv1d::correlate_valid`] (without) on each member in
    /// turn, and must consume any per-engine state (a noise stream) in that
    /// same order. The default is exactly that loop, each output copied
    /// into its slice; engines that can do better with the set in hand
    /// override it (the JTC carries four kernels of a set through one
    /// second lens, the digital engine keeps a block of a kernel's outputs
    /// in registers) and fall back to the loop on a set they cannot batch — a
    /// member of a foreign type, a transform they cannot read.
    fn correlate_set_into(
        &self,
        set: &[&dyn PreparedConv1d],
        shared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        out: &mut [f64],
        mut acc: Option<&mut StageAcc>,
    ) {
        let len = out.len() / set.len().max(1);
        for (k, member) in set.iter().enumerate() {
            let samples = match (shared, acc.as_deref_mut()) {
                (Some(shared), Some(acc)) => member.correlate_with_signal_acc(shared, signal, acc),
                (Some(shared), None) => member.correlate_with_signal(shared, signal),
                (None, Some(acc)) => member.correlate_valid_acc(signal, acc),
                (None, None) => member.correlate_valid(signal),
            };
            out[k * len..][..len].copy_from_slice(&samples);
        }
    }

    /// [`PreparedConv1d::correlate_valid_acc`] for a one-off call: starts
    /// a fresh [`StageAcc`] and flushes it straight into `tel`'s stage
    /// slots. Loops should hold their own accumulator and call
    /// [`PreparedConv1d::correlate_valid_acc`] instead.
    fn correlate_valid_traced(&self, signal: &[f64], tel: &Telemetry) -> Vec<f64> {
        let mut acc = StageAcc::start();
        let out = self.correlate_valid_acc(signal, &mut acc);
        acc.flush(tel);
        out
    }

    /// [`PreparedConv1d::correlate_with_signal_acc`] for a one-off call,
    /// flushing straight into `tel` like
    /// [`PreparedConv1d::correlate_valid_traced`].
    fn correlate_with_signal_traced(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        tel: &Telemetry,
    ) -> Vec<f64> {
        let mut acc = StageAcc::start();
        let out = self.correlate_with_signal_acc(prepared, signal, &mut acc);
        acc.flush(tel);
        out
    }
}

/// Exact digital reference backend built on [`pf_dsp::conv::correlate1d`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigitalEngine;

impl Conv1dEngine for DigitalEngine {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        correlate1d(signal, kernel, PaddingMode::Valid)
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        Some(Arc::new(SparseKernel::new(kernel, signal_len)))
    }
}

/// A kernel prepared for the digital engine.
///
/// Row tiling pads kernels heavily with **structural zeros**: the tiled form
/// of an `sk × sc` kernel over `si`-column rows is `(sk-1)·si + sc` samples
/// long but has at most `sk · sc` non-zeros, and pseudo-negative splitting
/// zeroes half of each filter pair on top. The dense dot product spends most
/// of its time multiplying by those zeros, so preparation records the
/// non-zero taps once and the per-tile correlation only touches them.
///
/// The correlation is **register-blocked** ([`correlate_taps`]): a block of
/// [`OUTPUT_BLOCK`] outputs keeps its running sums in registers across all
/// of the kernel's non-zero taps, taps ascending onto `+0.0`, and is stored
/// once. Each output receives its surviving terms in the same
/// ascending-index order as the dense reference, and a skipped term
/// contributes an exact `+0.0` there, so for finite signals the sparse
/// result is identical to [`pf_dsp::conv::correlate1d`].
#[derive(Debug)]
struct SparseKernel {
    kernel_len: usize,
    signal_len: usize,
    /// `(offset, value)` of every non-zero sample, offsets ascending.
    taps: Vec<(usize, f64)>,
}

impl SparseKernel {
    fn new(kernel: &[f64], signal_len: usize) -> Self {
        Self {
            kernel_len: kernel.len(),
            signal_len,
            taps: kernel
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, v)| v != 0.0)
                .collect(),
        }
    }
}

/// Outputs of one kernel whose running sums [`correlate_taps`] holds in
/// registers across the kernel's taps: four AVX2 registers, eight SSE2
/// ones. Each tap's additions depend on the previous tap's, so the block
/// must hold enough independent sums to cover the adder's latency: eight
/// outputs (two AVX2 registers) left the loop waiting on it and measured
/// slower than streaming one tap over every output.
const OUTPUT_BLOCK: usize = 16;

/// The digital engine's correlation, written once: sample `p` of `out` is
/// `Σ signal[p + offset] · value` over `taps`, the terms added in tap order
/// onto `+0.0` — what a loop streaming one tap over every output computes,
/// bit for bit, without loading and storing every output once per tap.
/// Every block of [`OUTPUT_BLOCK`] outputs runs the taps with its sums in
/// registers; the last block ends at the last output, overlapping its
/// predecessor where the length is no multiple of the block, and stores
/// the same sums there again (an output's sum does not depend on the block
/// it rides in). Fewer outputs than one block run the same loop over fewer
/// lanes. `#[inline(always)]` so that each caller compiles its own copy
/// for its own ISA.
#[inline(always)]
fn correlate_taps(taps: &[(usize, f64)], signal: &[f64], out: &mut [f64]) {
    let len = out.len();
    if len < OUTPUT_BLOCK {
        let mut sums = [0.0f64; OUTPUT_BLOCK];
        for &(offset, tap) in taps {
            for (sum, &x) in sums.iter_mut().zip(&signal[offset..offset + len]) {
                *sum += x * tap;
            }
        }
        out.copy_from_slice(&sums[..len]);
        return;
    }
    for b in 0..len.div_ceil(OUTPUT_BLOCK) {
        let at = (b * OUTPUT_BLOCK).min(len - OUTPUT_BLOCK);
        let mut sums = [0.0f64; OUTPUT_BLOCK];
        for &(offset, tap) in taps {
            let window: &[f64; OUTPUT_BLOCK] = signal[at + offset..][..OUTPUT_BLOCK]
                .try_into()
                .expect("a whole block");
            for (sum, &x) in sums.iter_mut().zip(window) {
                *sum += x * tap;
            }
        }
        out[at..at + OUTPUT_BLOCK].copy_from_slice(&sums);
    }
}

/// The digital engine's set body: each member's `out.len() / set.len()`
/// outputs into its slice of `out`, in set order — a [`SparseKernel`]
/// through [`correlate_taps`], any other member through its own set call
/// on a set of one.
#[inline(always)]
fn correlate_sparse_set(
    set: &[&dyn PreparedConv1d],
    shared: Option<&dyn PreparedSignal>,
    signal: &[f64],
    out: &mut [f64],
    mut acc: Option<&mut StageAcc>,
) {
    let len = out.len() / set.len().max(1);
    for (k, member) in set.iter().enumerate() {
        let out = &mut out[k * len..][..len];
        match (*member as &dyn Any).downcast_ref::<SparseKernel>() {
            Some(kernel) => correlate_taps(&kernel.taps, signal, out),
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

/// [`correlate_sparse_set`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn correlate_sparse_set_avx2(
    set: &[&dyn PreparedConv1d],
    shared: Option<&dyn PreparedSignal>,
    signal: &[f64],
    out: &mut [f64],
    acc: Option<&mut StageAcc>,
) {
    correlate_sparse_set(set, shared, signal, out, acc);
}

impl PreparedConv1d for SparseKernel {
    fn signal_len(&self) -> usize {
        self.signal_len
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        if self.kernel_len > signal.len() || signal.is_empty() {
            return Vec::new();
        }
        let len = signal.len() - self.kernel_len + 1;
        // Allocated, then zeroed: `vec![0.0; len]` takes zeroed memory from
        // `calloc`, which bypasses the per-thread cache results are freed
        // into, and measured slower.
        let mut out = Vec::with_capacity(len);
        out.resize(len, 0.0);
        self.correlate_set_into(&[self], None, signal, &mut out, None);
        out
    }

    fn correlate_set_into(
        &self,
        set: &[&dyn PreparedConv1d],
        shared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        out: &mut [f64],
        acc: Option<&mut StageAcc>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one requirement of a `#[target_feature]` function
            // is that the CPU has the feature, checked on the line above.
            unsafe { correlate_sparse_set_avx2(set, shared, signal, out, acc) };
            return;
        }
        correlate_sparse_set(set, shared, signal, out, acc);
    }
}

impl<E: Conv1dEngine + ?Sized> Conv1dEngine for &E {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        (**self).correlate_valid(signal, kernel)
    }

    fn max_signal_len(&self) -> Option<usize> {
        (**self).max_signal_len()
    }

    fn is_deterministic(&self) -> bool {
        (**self).is_deterministic()
    }

    fn prefers_parallel_tiles(&self) -> bool {
        (**self).prefers_parallel_tiles()
    }

    fn prepares_kernels(&self) -> bool {
        (**self).prepares_kernels()
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        (**self).prepare_kernel(kernel, signal_len)
    }

    fn prepare_kernels(
        &self,
        kernels: &[&[f64]],
        signal_len: usize,
    ) -> Vec<Option<Arc<dyn PreparedConv1d>>> {
        (**self).prepare_kernels(kernels, signal_len)
    }

    fn bind_prepared(&self, cached: Arc<dyn PreparedConv1d>) -> Arc<dyn PreparedConv1d> {
        (**self).bind_prepared(cached)
    }
}

#[cfg(test)]
mod digital_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digital_engine_known_values() {
        let signal = [1.0, 2.0, 3.0, 4.0];
        let kernel = [1.0, 1.0];
        let out = DigitalEngine.correlate_valid(&signal, &kernel);
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn digital_engine_empty_when_kernel_longer() {
        let out = DigitalEngine.correlate_valid(&[1.0], &[1.0, 2.0]);
        assert!(out.is_empty());
    }

    #[test]
    fn digital_engine_unbounded() {
        assert_eq!(DigitalEngine.max_signal_len(), None);
    }

    #[test]
    fn reference_impl_through_reference() {
        let engine = DigitalEngine;
        let by_ref: &dyn Conv1dEngine = &engine;
        let out = by_ref.correlate_valid(&[1.0, 0.0, 1.0], &[1.0]);
        assert_eq!(out, vec![1.0, 0.0, 1.0]);
        assert!(by_ref.prepares_kernels());
    }

    #[test]
    fn sparse_prepared_digital_matches_dense_bitwise() {
        // Row-tiled layouts: long zero gaps between kernel rows, plus
        // interior zeros (pseudo-negative splits), plus degenerate kernels.
        let kernels: Vec<Vec<f64>> = vec![
            // tiled 2x3 kernel over 8-column rows
            vec![0.5, -1.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, -0.5],
            // pseudo-negative style: interior zeros
            vec![0.0, 1.5, 0.0, 0.0, 3.0, 0.25, 0.0],
            // leading/trailing zeros
            vec![0.0, 0.0, 1.0, 0.0],
            // all zeros
            vec![0.0, 0.0, 0.0],
            // dense
            vec![1.0, 2.0, 3.0],
        ];
        let smooth: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.37).sin() - 0.2).collect();
        // Values a tap-outer and an output-outer sum could round
        // differently if either re-associated: signed zeros, subnormals,
        // samples near the top of the exponent range, all interleaved.
        let extreme: Vec<f64> = (0..40)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::MIN_POSITIVE / 8.0 * (i as f64 + 1.0),
                2 => 1e300 * ((i as f64) * 0.11).cos(),
                3 => -f64::MIN_POSITIVE / 3.0,
                _ => smooth[i],
            })
            .collect();
        // The longest tiled kernel above, so exactly one output, and a
        // signal no longer than that kernel.
        let one_output = &smooth[..11];
        for kernel in &kernels {
            for signal in [&smooth[..], &extreme[..], one_output] {
                let prep = DigitalEngine
                    .prepare_kernel(kernel, signal.len())
                    .expect("digital prepares");
                assert_eq!(prep.signal_len(), signal.len());
                let sparse = prep.correlate_valid(signal);
                let dense = DigitalEngine.correlate_valid(signal, kernel);
                assert_eq!(sparse.len(), dense.len());
                assert_eq!(sparse.len(), signal.len() - kernel.len() + 1);
                for (a, b) in sparse.iter().zip(&dense) {
                    assert_eq!(a.to_bits(), b.to_bits(), "kernel {kernel:?}");
                }
            }
        }
        // Shape contract: kernel longer than signal degenerates to empty.
        let prep = DigitalEngine.prepare_kernel(&[1.0; 5], 3).unwrap();
        assert!(prep.correlate_valid(&[1.0; 3]).is_empty());
    }
}
