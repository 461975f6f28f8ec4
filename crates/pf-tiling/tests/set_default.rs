//! The default body of [`PreparedConv1d::correlate_set_with_signal`] stays a
//! valid path: an engine wrapper written before the method existed — it
//! forwards every other method, so the executor still shares signal
//! transforms through it, but inherits the per-kernel default for the set
//! call — must yield the bits of the bare engine, whose prepared kernels
//! override the set call and ride the second lens in lanes. On the CG
//! engine that includes the order the noise stream is consumed in.

use std::sync::Arc;

use pf_dsp::conv::Matrix;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_telemetry::{StageAcc, Telemetry};
use pf_tiling::{Conv1dEngine, EdgeHandling, PreparedConv1d, PreparedSignal, TiledConvolver};

/// Forwards every [`Conv1dEngine`] method and wraps the prepared handles.
#[derive(Debug)]
struct Wrapped<E>(E);

impl<E: Conv1dEngine> Conv1dEngine for Wrapped<E> {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        self.0.correlate_valid(signal, kernel)
    }

    fn max_signal_len(&self) -> Option<usize> {
        self.0.max_signal_len()
    }

    fn is_deterministic(&self) -> bool {
        self.0.is_deterministic()
    }

    fn prefers_parallel_tiles(&self) -> bool {
        self.0.prefers_parallel_tiles()
    }

    fn prepares_kernels(&self) -> bool {
        self.0.prepares_kernels()
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        let inner = self.0.prepare_kernel(kernel, signal_len)?;
        Some(Arc::new(WrappedPrepared(inner)))
    }
}

/// Forwards every [`PreparedConv1d`] method that existed before the set
/// call — and not the set call.
#[derive(Debug)]
struct WrappedPrepared(Arc<dyn PreparedConv1d>);

impl PreparedConv1d for WrappedPrepared {
    fn signal_len(&self) -> usize {
        self.0.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.0.correlate_valid(signal)
    }

    fn signal_key(&self) -> Option<u64> {
        self.0.signal_key()
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        self.0.prepare_signal(signal)
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        self.0.prepare_signal_batch(signals, count)
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        self.0.correlate_with_signal(prepared, signal)
    }

    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        self.0.correlate_valid_acc(signal, acc)
    }

    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        self.0.correlate_with_signal_acc(prepared, signal, acc)
    }
}

fn matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i * 13 + seed * 29) as f64 * 0.173).sin() + 0.05 * (seed % 4) as f64)
        .collect();
    Matrix::new(rows, cols, data).unwrap()
}

fn engines() -> Vec<(&'static str, JtcEngineConfig)> {
    vec![
        ("jtc_ideal", JtcEngineConfig::ideal(256)),
        (
            "cg_seed5",
            JtcEngineConfig {
                noise_seed: 5,
                ..JtcEngineConfig::photofourier_cg(256)
            },
        ),
    ]
}

#[test]
fn a_wrapper_without_the_set_call_yields_the_bare_engines_bits() {
    let input = matrix(16, 16, 1);
    for (name, config) in engines() {
        // Full blocks, a short last block, fewer kernels than one block.
        for count in [2usize, 4, 7, 9] {
            let kernels: Vec<Matrix> = (0..count).map(|k| matrix(3, 3, 40 + k)).collect();
            for telemetry in [Telemetry::disabled(), Telemetry::enabled()] {
                let bare = TiledConvolver::new(JtcEngine::new(config.clone()).unwrap(), 256)
                    .unwrap()
                    .with_telemetry(telemetry.clone());
                let wrapped =
                    TiledConvolver::new(Wrapped(JtcEngine::new(config.clone()).unwrap()), 256)
                        .unwrap()
                        .with_telemetry(telemetry.clone());
                // Two calls: a noisy engine's stream carries over.
                for call in 0..2 {
                    let what = format!(
                        "{name}, {count} kernels, call {call}, telemetry {}",
                        telemetry.is_enabled()
                    );
                    let pairs = [
                        (
                            bare.correlate2d_valid_multi(&input, &kernels).unwrap(),
                            wrapped.correlate2d_valid_multi(&input, &kernels).unwrap(),
                        ),
                        (
                            bare.correlate2d_same_multi(&input, &kernels, EdgeHandling::ZeroPad)
                                .unwrap(),
                            wrapped
                                .correlate2d_same_multi(&input, &kernels, EdgeHandling::ZeroPad)
                                .unwrap(),
                        ),
                    ];
                    for (a, b) in pairs {
                        assert_eq!(a.len(), b.len(), "{what}");
                        for (x, y) in a.iter().zip(&b) {
                            assert_eq!(x.data().len(), y.data().len(), "{what}");
                            for (p, q) in x.data().iter().zip(y.data()) {
                                assert_eq!(p.to_bits(), q.to_bits(), "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}
