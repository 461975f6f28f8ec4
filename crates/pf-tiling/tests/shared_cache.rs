//! One kernel set, many engines ([`TiledConvolver::on`]): a set the host
//! prepared runs on seeded views of it, and every view must replay exactly
//! the stream it would have produced on a convolver of its own, preparing
//! nothing.

use pf_dsp::conv::Matrix;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_telemetry::Telemetry;
use pf_tiling::{Conv1dEngine, KernelSet, TiledConvolver, TilingError};

const N_CONV: usize = 64;

fn cg(capacity: usize, noise_seed: u64) -> JtcEngine {
    JtcEngine::new(JtcEngineConfig {
        noise_seed,
        ..JtcEngineConfig::photofourier_cg(capacity)
    })
    .unwrap()
}

fn kernel(i: usize) -> Matrix {
    Matrix::new(
        3,
        3,
        (0..9)
            .map(|j| ((i * 9 + j) as f64 * 0.61).sin() + 0.01 * i as f64)
            .collect(),
    )
    .unwrap()
}

/// The one plane of a one-kernel `set` run on `convolver`.
fn run<E: Conv1dEngine>(convolver: &TiledConvolver<E>, set: &KernelSet, input: &Matrix) -> Matrix {
    let (rows, cols) = set.output_shape();
    let mut plane = vec![0.0; rows * cols];
    convolver
        .correlate2d_set(set, input, |_, r, c, samples| {
            let at = r * cols + c;
            plane[at..at + samples.len()].copy_from_slice(samples);
        })
        .unwrap();
    Matrix::new(rows, cols, plane).unwrap()
}

fn assert_bits(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.data().len(), b.data().len(), "{what}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

#[test]
fn a_set_the_host_prepared_runs_on_seeded_views_without_sharing_streams() {
    let tel = Telemetry::enabled();
    let host = TiledConvolver::new(cg(N_CONV, 0), N_CONV)
        .unwrap()
        .with_telemetry(tel.clone());
    let prepares = || tel.snapshot().counter("tiling.kernel_prepares");
    let (a, b) = (
        host.on(cg(N_CONV, 11)).unwrap(),
        host.on(cg(N_CONV, 12)).unwrap(),
    );
    // The oracle: the same seeds, each on a convolver of its own, one-shot.
    let fresh_a = TiledConvolver::new(cg(N_CONV, 11), N_CONV).unwrap();
    let fresh_b = TiledConvolver::new(cg(N_CONV, 12), N_CONV).unwrap();
    let input = Matrix::new(8, 8, (0..64).map(|i| (i as f64 * 0.23).cos()).collect()).unwrap();

    // Over a thousand distinct kernels, each prepared once on the host and
    // run through both views: each view binds the host's preparation to
    // its own stream.
    let distinct = 1_100;
    for i in 0..distinct {
        let k = kernel(i);
        let set = host
            .prepare_set(std::slice::from_ref(&k), 8, 8, None)
            .unwrap();
        let prepared = prepares();
        let what = format!("kernel {i}");
        assert_bits(
            &run(&a, &set, &input),
            &fresh_a.correlate2d_valid(&input, &k).unwrap(),
            &what,
        );
        assert_bits(
            &run(&b, &set, &input),
            &fresh_b.correlate2d_valid(&input, &k).unwrap(),
            &what,
        );
        assert_eq!(prepares(), prepared, "{what}: a run prepares nothing");
    }
    assert_eq!(prepares(), distinct as u64, "one preparation per kernel");
}

#[test]
fn on_rejects_an_engine_smaller_than_the_convolver() {
    let host = TiledConvolver::new(cg(N_CONV, 0), N_CONV).unwrap();
    assert!(matches!(
        host.on(cg(N_CONV / 2, 1)),
        Err(TilingError::CapacityTooSmall { .. })
    ));
}
