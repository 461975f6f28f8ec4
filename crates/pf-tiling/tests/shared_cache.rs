//! One prepared-kernel cache serving several seeded engines
//! ([`TiledConvolver::on`]): every engine must replay exactly the stream it
//! would have produced on a convolver — and a cache — of its own, whoever
//! prepared the kernel it reads, and across a wholesale cache reset.

use pf_dsp::conv::Matrix;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_telemetry::Telemetry;
use pf_tiling::{TiledConvolver, TilingError};

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

fn assert_bits(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.data().len(), b.data().len(), "{what}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

#[test]
fn seeded_engines_share_one_cache_across_a_reset_without_sharing_streams() {
    let tel = Telemetry::enabled();
    let host = TiledConvolver::new(cg(N_CONV, 0), N_CONV)
        .unwrap()
        .with_telemetry(tel.clone());
    let prepares = || tel.snapshot().counter("tiling.kernel_prepares");
    let (a, b) = (
        host.on(cg(N_CONV, 11)).unwrap(),
        host.on(cg(N_CONV, 12)).unwrap(),
    );
    // The oracle: the same seeds, each on a convolver and cache of its own.
    let fresh_a = TiledConvolver::new(cg(N_CONV, 11), N_CONV).unwrap();
    let fresh_b = TiledConvolver::new(cg(N_CONV, 12), N_CONV).unwrap();
    let input = Matrix::new(8, 8, (0..64).map(|i| (i as f64 * 0.23).cos()).collect()).unwrap();

    // More distinct kernels than the cache holds (1024), each through both
    // engines: `a` meets every kernel first and prepares it, `b` reads
    // `a`'s preparation bound to its own stream.
    let distinct = 1024 + 76;
    for i in 0..distinct {
        let k = kernel(i);
        let what = format!("kernel {i}");
        assert_bits(
            &a.correlate2d_valid(&input, &k).unwrap(),
            &fresh_a.correlate2d_valid(&input, &k).unwrap(),
            &what,
        );
        assert_bits(
            &b.correlate2d_valid(&input, &k).unwrap(),
            &fresh_b.correlate2d_valid(&input, &k).unwrap(),
            &what,
        );
    }
    assert_eq!(prepares(), distinct as u64, "one preparation per kernel");

    // The reset dropped kernel 0: `b` now prepares it itself, and `a` reads
    // *that* entry. Both keep replaying their own streams.
    let k = kernel(0);
    assert_bits(
        &b.correlate2d_valid(&input, &k).unwrap(),
        &fresh_b.correlate2d_valid(&input, &k).unwrap(),
        "after the reset, b first",
    );
    assert_eq!(prepares(), distinct as u64 + 1, "the reset evicted it");
    assert_bits(
        &a.correlate2d_valid(&input, &k).unwrap(),
        &fresh_a.correlate2d_valid(&input, &k).unwrap(),
        "after the reset, a second",
    );
    assert_eq!(prepares(), distinct as u64 + 1);
}

#[test]
fn on_rejects_an_engine_smaller_than_the_convolver() {
    let host = TiledConvolver::new(cg(N_CONV, 0), N_CONV).unwrap();
    assert!(matches!(
        host.on(cg(N_CONV / 2, 1)),
        Err(TilingError::CapacityTooSmall { .. })
    ));
}
