//! A forwarding [`Conv1dEngine`] that records one span per engine call.
//!
//! Row tiling reaches the optics only through `Conv1dEngine` and the
//! `PreparedConv1d` handles it returns, so wrapping both measures the time
//! `pf-jtc` (or the digital engine) spends *under* `pf-tiling` from outside
//! either crate. The wrapper must forward **every** method, including the
//! ones with default bodies: a swallowed `prepares_kernels`,
//! `prefers_parallel_tiles`, `signal_key` or `prepare_signal_batch` would
//! silently send the executor down a different path (no prepared-kernel
//! cache, serial instead of batched signal transforms) and the spans would
//! describe a program nobody runs. `tests/traced_engine.rs` pins that.

use std::sync::Arc;

use pf_telemetry::{StageAcc, Telemetry};
use pf_tiling::{Conv1dEngine, PreparedConv1d, PreparedSignal};

use crate::spans::Recorder;

/// Span names recorded by the wrapper (all children of whatever span is
/// open when row tiling calls the engine).
pub mod names {
    /// `Conv1dEngine::correlate_valid` — the unprepared fallback.
    pub const CORRELATE_UNPREPARED: &str = "engine.correlate_unprepared";
    /// `Conv1dEngine::prepare_kernel`.
    pub const PREPARE_KERNEL: &str = "engine.prepare_kernel";
    /// `PreparedConv1d::prepare_signal`.
    pub const PREPARE_SIGNAL: &str = "engine.prepare_signal";
    /// `PreparedConv1d::prepare_signal_batch`.
    pub const PREPARE_SIGNAL_BATCH: &str = "engine.prepare_signal_batch";
    /// `PreparedConv1d::correlate_valid` and its `_acc` / `_traced` forms.
    pub const CORRELATE: &str = "engine.correlate";
    /// `PreparedConv1d::correlate_with_signal` and its `_acc` / `_traced`
    /// forms (the shared-spectrum path).
    pub const CORRELATE_WITH_SIGNAL: &str = "engine.correlate_with_signal";

    /// Every name above, for summing "time inside the engine".
    pub const ALL: [&str; 6] = [
        CORRELATE_UNPREPARED,
        PREPARE_KERNEL,
        PREPARE_SIGNAL,
        PREPARE_SIGNAL_BATCH,
        CORRELATE,
        CORRELATE_WITH_SIGNAL,
    ];
}

/// Forwards every [`Conv1dEngine`] call to `inner`, recording a span
/// around the ones that do work.
#[derive(Debug, Clone)]
pub struct TracedEngine<E> {
    inner: E,
    recorder: Arc<Recorder>,
}

impl<E: Conv1dEngine> TracedEngine<E> {
    /// Wraps `inner`; spans go to `recorder`.
    pub fn new(inner: E, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl<E: Conv1dEngine> Conv1dEngine for TracedEngine<E> {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE_UNPREPARED);
        self.inner.correlate_valid(signal, kernel)
    }

    fn max_signal_len(&self) -> Option<usize> {
        self.inner.max_signal_len()
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }

    fn prefers_parallel_tiles(&self) -> bool {
        self.inner.prefers_parallel_tiles()
    }

    fn prepares_kernels(&self) -> bool {
        self.inner.prepares_kernels()
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        let prepared = {
            let _span = self.recorder.enter(names::PREPARE_KERNEL);
            self.inner.prepare_kernel(kernel, signal_len)
        };
        prepared.map(|inner| {
            Arc::new(TracedPrepared {
                inner,
                recorder: Arc::clone(&self.recorder),
            }) as Arc<dyn PreparedConv1d>
        })
    }
}

/// Forwards every [`PreparedConv1d`] call to the engine's own prepared
/// kernel. Shared signal transforms pass through untouched, so the inner
/// kernel still recognises (downcasts) its own [`PreparedSignal`] type.
#[derive(Debug)]
struct TracedPrepared {
    inner: Arc<dyn PreparedConv1d>,
    recorder: Arc<Recorder>,
}

impl PreparedConv1d for TracedPrepared {
    fn signal_len(&self) -> usize {
        self.inner.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE);
        self.inner.correlate_valid(signal)
    }

    fn signal_key(&self) -> Option<u64> {
        self.inner.signal_key()
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        let _span = self.recorder.enter(names::PREPARE_SIGNAL);
        self.inner.prepare_signal(signal)
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        let _span = self.recorder.enter(names::PREPARE_SIGNAL_BATCH);
        self.inner.prepare_signal_batch(signals, count)
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE_WITH_SIGNAL);
        self.inner.correlate_with_signal(prepared, signal)
    }

    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE);
        self.inner.correlate_valid_acc(signal, acc)
    }

    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE_WITH_SIGNAL);
        self.inner.correlate_with_signal_acc(prepared, signal, acc)
    }

    fn correlate_valid_traced(&self, signal: &[f64], tel: &Telemetry) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE);
        self.inner.correlate_valid_traced(signal, tel)
    }

    fn correlate_with_signal_traced(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        tel: &Telemetry,
    ) -> Vec<f64> {
        let _span = self.recorder.enter(names::CORRELATE_WITH_SIGNAL);
        self.inner
            .correlate_with_signal_traced(prepared, signal, tel)
    }
}
