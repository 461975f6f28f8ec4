//! The default body of [`PreparedConv1d::correlate_set_into`] stays a valid
//! path: an engine wrapper written before the method existed — it forwards
//! every other method, so the executor still shares signal transforms
//! through it, but inherits the per-kernel default for the set call, each
//! kernel's vector copied into its slice of the caller's buffer — must
//! yield the bits of the bare engine, whose prepared kernels override the
//! set call: the JTC's ride the second lens in lanes and read their lobes
//! out into the buffer, the digital engine's keep eight outputs in
//! registers across their taps. On the CG engine that includes the order
//! the noise stream is consumed in. Row tiling asks a plane's last tile
//! for a prefix of each correlation, which the default body copies out of
//! each member's whole vector.

use std::sync::Arc;

use pf_dsp::conv::Matrix;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_telemetry::{StageAcc, Telemetry};
use pf_tiling::{
    Conv1dEngine, DigitalEngine, EdgeHandling, PreparedConv1d, PreparedSignal, TiledConvolver,
};

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

/// Runs one input through a bare engine and through [`Wrapped`] around a
/// second engine of one configuration, at every set size, telemetry off
/// and on, twice (a noisy engine's stream carries over), and asserts the
/// same bits.
fn check_bare_equals_wrapped<E: Conv1dEngine>(name: &str, engine: impl Fn() -> E) {
    let input = matrix(16, 16, 1);
    // Full blocks, a short last block, fewer kernels than one block.
    for count in [2usize, 4, 7, 9] {
        let kernels: Vec<Matrix> = (0..count).map(|k| matrix(3, 3, 40 + k)).collect();
        for telemetry in [Telemetry::disabled(), Telemetry::enabled()] {
            let bare = TiledConvolver::new(engine(), 256)
                .unwrap()
                .with_telemetry(telemetry.clone());
            let wrapped = TiledConvolver::new(Wrapped(engine()), 256)
                .unwrap()
                .with_telemetry(telemetry.clone());
            for call in 0..2 {
                let what = format!(
                    "{name}, {count} kernels, call {call}, telemetry {}",
                    telemetry.is_enabled()
                );
                // `valid` runs one tile, whole; both `same` modes a second
                // whose correlations are read only in part.
                let mut pairs = vec![(
                    bare.correlate2d_valid_multi(&input, &kernels).unwrap(),
                    wrapped.correlate2d_valid_multi(&input, &kernels).unwrap(),
                )];
                for edges in [EdgeHandling::ZeroPad, EdgeHandling::Wraparound] {
                    pairs.push((
                        bare.correlate2d_same_multi(&input, &kernels, edges)
                            .unwrap(),
                        wrapped
                            .correlate2d_same_multi(&input, &kernels, edges)
                            .unwrap(),
                    ));
                }
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

#[test]
fn a_wrapper_without_the_set_call_yields_the_bare_engines_bits() {
    let jtc = [
        ("jtc_ideal", JtcEngineConfig::ideal(256)),
        (
            "cg_seed5",
            JtcEngineConfig {
                noise_seed: 5,
                ..JtcEngineConfig::photofourier_cg(256)
            },
        ),
    ];
    for (name, config) in jtc {
        check_bare_equals_wrapped(name, || JtcEngine::new(config.clone()).unwrap());
    }
    check_bare_equals_wrapped("digital", || DigitalEngine);
}

/// Asks a set of wrapped kernels (the default body) for the first `len`
/// samples of every correlation, and the bare engine's set call for all of
/// them, on twin engines: the prefixes must be the whole call's, bit for
/// bit, every sample of the buffer written, and a noisy engine's stream
/// must be where the whole call left its twin's.
fn check_default_body_copies_prefixes<E: Conv1dEngine>(name: &str, engine: impl Fn() -> E) {
    let (tile_len, taps) = (64, 19);
    let corr_len = tile_len + 1 - taps;
    let tile: Vec<f64> = (0..tile_len)
        .map(|i| (i as f64 * 0.29).sin() + 0.3)
        .collect();
    for count in [1usize, 2, 5] {
        let kernels: Vec<Vec<f64>> = (0..count)
            .map(|k| {
                (0..taps)
                    .map(|j| ((k * 7 + j * 3) as f64 * 0.41).sin())
                    .collect()
            })
            .collect();
        let kernels: Vec<&[f64]> = kernels.iter().map(Vec::as_slice).collect();
        for len in [0, 1, 16, corr_len - 1, corr_len] {
            let what = format!("{name}, {count} kernels, len {len} of {corr_len}");
            let (bare, wrapped) = (engine(), Wrapped(engine()));
            let prepare = |engine: &dyn Conv1dEngine| -> Vec<Arc<dyn PreparedConv1d>> {
                let prepared = kernels.iter().map(|k| engine.prepare_kernel(k, tile_len));
                prepared.map(Option::unwrap).collect()
            };
            let (bare_set, wrapped_set) = (prepare(&bare), prepare(&wrapped));
            let bare_refs: Vec<&dyn PreparedConv1d> = bare_set.iter().map(|p| &**p).collect();
            let wrapped_refs: Vec<&dyn PreparedConv1d> = wrapped_set.iter().map(|p| &**p).collect();
            let bare_shared = bare_refs[0].prepare_signal(&tile);
            let wrapped_shared = wrapped_refs[0].prepare_signal(&tile);
            let mut whole = vec![f64::NAN; count * corr_len];
            bare_refs[0].correlate_set_into(
                &bare_refs,
                bare_shared.as_deref(),
                &tile,
                &mut whole,
                None,
            );
            let mut prefix = vec![f64::NAN; count * len];
            wrapped_refs[0].correlate_set_into(
                &wrapped_refs,
                wrapped_shared.as_deref(),
                &tile,
                &mut prefix,
                None,
            );
            for k in 0..count {
                for i in 0..len {
                    assert_eq!(
                        prefix[k * len + i].to_bits(),
                        whole[k * corr_len + i].to_bits(),
                        "{what}: kernel {k} sample {i}"
                    );
                }
            }
            assert_eq!(format!("{bare:?}"), format!("{:?}", wrapped.0), "{what}");
        }
    }
}

#[test]
fn the_default_body_copies_prefixes() {
    check_default_body_copies_prefixes("jtc_ideal", || JtcEngine::ideal(256).unwrap());
    check_default_body_copies_prefixes("cg_seed5", || {
        JtcEngine::new(JtcEngineConfig {
            noise_seed: 5,
            ..JtcEngineConfig::photofourier_cg(256)
        })
        .unwrap()
    });
    check_default_body_copies_prefixes("digital", || DigitalEngine);
}
