//! A stochastic `Session` keeps one set of lowered layers for every seeded
//! engine it spins up. The oracle here is the construction the facade used
//! before — spelled out, not called: a fresh `instantiate_seeded` engine on
//! its own `TiledExecutor::new` (nothing lowered) through
//! `SmallCnn::features`. Sharing the deterministic half of the preparation
//! must not move one bit, must never let two requests observe each other's
//! noise stream, and must show up as fewer `tiling.kernel_prepares`.

use photofourier::nn::models::small::SmallCnn;
use photofourier::prelude::*;
use rayon::prelude::*;

/// The CG chain under the paper's numeric pipeline (8-bit operands,
/// pseudo-negative filter pairs), as `scenarios/resnet18_cg.toml` runs it.
fn cg_scenario() -> Scenario {
    let mut scenario = Scenario::new(
        "seeded-store",
        "resnet18",
        BackendSpec::photofourier_cg(256),
    );
    scenario.pipeline = PipelineConfig::photofourier_default();
    scenario
}

fn images(count: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 900 + i))
        .collect()
}

/// The old path: nothing shared, one engine, one executor, its own lowered
/// layers per request. `telemetry` lets a caller count what it prepares.
fn fresh_engine_oracle(
    scenario: &Scenario,
    image: &Tensor,
    seed: u64,
    telemetry: Telemetry,
) -> Tensor {
    let backend = scenario.backend.instantiate_seeded(seed).unwrap();
    let executor = TiledExecutor::new(backend, scenario.backend.capacity, scenario.pipeline)
        .unwrap()
        .with_telemetry(telemetry);
    let cnn = SmallCnn::new(
        scenario.functional.input_channels,
        scenario.functional.input_size,
        scenario.functional.weight_seed,
    )
    .unwrap();
    let features = cnn.features(image, &executor).unwrap();
    Tensor::new(vec![features.len()], features).unwrap()
}

fn assert_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

fn kernel_prepares(telemetry: &Telemetry) -> u64 {
    telemetry.snapshot().counter("tiling.kernel_prepares")
}

#[test]
fn seeded_requests_equal_the_fresh_engine_construction_cold_and_warm() {
    let scenario = cg_scenario();
    let images = images(4);
    let expected = |i: usize, seed: u64| {
        fresh_engine_oracle(&scenario, &images[i], seed, Telemetry::disabled())
    };

    // Nothing lowered, then the same requests again on the lowered layers.
    let session = Session::from_scenario(scenario.clone()).unwrap();
    for round in ["cold", "warm"] {
        for (i, image) in images.iter().enumerate() {
            let seed = 40 + i as u64;
            let got = session.run_inference_seeded(image, seed).unwrap();
            assert_bits(&got, &expected(i, seed), &format!("{round} image {i}"));
        }
    }

    // `run_batch` seeds by image index, with nothing lowered (fresh
    // session, images racing to lower) and on a warmed session.
    let by_index: Vec<Tensor> = (0..images.len()).map(|i| expected(i, i as u64)).collect();
    for warm in [false, true] {
        let session = Session::from_scenario(scenario.clone()).unwrap();
        if warm {
            session.warmup().unwrap();
        }
        for (i, got) in session.run_batch(&images).unwrap().iter().enumerate() {
            assert_bits(
                got,
                &by_index[i],
                &format!("run_batch warm={warm} image {i}"),
            );
        }
    }
}

#[test]
fn interleaved_seeds_replay_on_pools_of_every_width() {
    let scenario = cg_scenario();
    let images = images(3);
    // Each image under two seeds, interleaved so neighbouring work items
    // share kernels but never a stream.
    let requests: Vec<(usize, u64)> = (0..images.len())
        .flat_map(|i| [(i, 7), (i, 1000 + i as u64)])
        .collect();
    let expected: Vec<Tensor> = requests
        .iter()
        .map(|&(i, seed)| fresh_engine_oracle(&scenario, &images[i], seed, Telemetry::disabled()))
        .collect();
    for width in [1usize, 2, 4] {
        // Nothing lowered per width: the first requests race to lower.
        let session = Session::from_scenario(scenario.clone()).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let got: Vec<Tensor> = pool.install(|| {
            requests
                .par_iter()
                .map(|&(i, seed)| session.run_inference_seeded(&images[i], seed).unwrap())
                .collect()
        });
        for ((got, want), (i, seed)) in got.iter().zip(&expected).zip(&requests) {
            assert_bits(got, want, &format!("width {width} image {i} seed {seed}"));
        }
    }
}

#[test]
fn requests_never_observe_each_others_stream() {
    let session = Session::from_scenario(cg_scenario()).unwrap();
    let image = &images(1)[0];
    // A, B, A again: B reads kernels A prepared (bound to A's stream at
    // the time) and must neither draw from nor disturb that stream.
    let first = session.run_inference_seeded(image, 5).unwrap();
    let other = session.run_inference_seeded(image, 6).unwrap();
    let third = session.run_inference_seeded(image, 5).unwrap();
    assert_bits(&first, &third, "same seed, B in between");
    assert_ne!(first, other, "different seeds draw different noise");
}

#[test]
fn kernels_are_prepared_once_per_session_not_once_per_request() {
    let scenario = cg_scenario();
    let images = images(3);

    // The old construction prepares the network's every kernel per image.
    let oracle_tel = Telemetry::enabled();
    fresh_engine_oracle(&scenario, &images[0], 1, oracle_tel.clone());
    let per_image = kernel_prepares(&oracle_tel);
    assert_eq!(
        per_image, 272,
        "(8 + 16 x 8) filters, positive and negative"
    );
    fresh_engine_oracle(&scenario, &images[1], 2, oracle_tel.clone());
    assert_eq!(kernel_prepares(&oracle_tel), 2 * per_image);

    // The session prepares them for its first seeded image only.
    let tel = Telemetry::enabled();
    let session = Session::builder()
        .scenario(scenario.clone())
        .telemetry(tel.clone())
        .build()
        .unwrap();
    session.run_inference_seeded(&images[0], 1).unwrap();
    assert_eq!(kernel_prepares(&tel), per_image);
    for (seed, image) in images.iter().enumerate() {
        session
            .run_inference_seeded(image, 10 + seed as u64)
            .unwrap();
    }
    session.run_batch(&images).unwrap();
    assert_eq!(kernel_prepares(&tel), per_image, "later images only read");
}

#[test]
fn a_second_seeded_engine_lowers_nothing_and_prepares_nothing() {
    let scenario = cg_scenario();
    let images = images(2);
    let tel = Telemetry::enabled();
    let session = Session::builder()
        .scenario(scenario.clone())
        .telemetry(tel.clone())
        .build()
        .unwrap();
    session.run_inference_seeded(&images[0], 1).unwrap();
    assert_eq!(kernel_prepares(&tel), 272, "the first engine lowers");

    // 1 040 never-repeated kernels through the bare `conv2d` path: each
    // call prepares its 16 afresh and keeps none. A forward that lowered its layers again instead of finding
    // them lowered would now have to prepare all 272 once more.
    let input = Matrix::new(8, 8, (0..64).map(|i| (i as f64 * 0.21).cos()).collect()).unwrap();
    for call in 0..65 {
        let fresh: Vec<Matrix> = (0..16)
            .map(|k| {
                let phase = (call * 16 + k) as f64;
                Matrix::new(
                    3,
                    3,
                    (0..9).map(|i| (phase + i as f64 * 0.37).sin()).collect(),
                )
                .unwrap()
            })
            .collect();
        session.conv2d_multi(&input, &fresh).unwrap();
    }
    assert_eq!(kernel_prepares(&tel), 272 + 65 * 16);

    // A second seeded engine, through `on()`: the layers are found lowered.
    let before = kernel_prepares(&tel);
    let got = session.run_inference_seeded(&images[1], 2).unwrap();
    assert_eq!(
        kernel_prepares(&tel),
        before,
        "nothing lowered, nothing prepared"
    );
    assert_bits(
        &got,
        &fresh_engine_oracle(&scenario, &images[1], 2, Telemetry::disabled()),
        "second seeded engine on lowered layers",
    );
}

#[test]
fn warmup_fills_the_store_without_touching_the_session_stream() {
    let scenario = cg_scenario();
    let image = &images(1)[0];
    let input = Matrix::new(12, 12, (0..144).map(|i| (i as f64 * 0.13).sin()).collect()).unwrap();
    let kernels: Vec<Matrix> = (0..2)
        .map(|k| Matrix::new(3, 3, (0..9).map(|i| (i + k) as f64 / 9.0 - 0.4).collect()).unwrap())
        .collect();

    let tel = Telemetry::enabled();
    let warmed = Session::builder()
        .scenario(scenario.clone())
        .telemetry(tel.clone())
        .build()
        .unwrap();
    warmed.warmup().unwrap();
    assert_eq!(kernel_prepares(&tel), 272, "warm-up prepares the network");
    warmed.run_inference_seeded(image, 3).unwrap();
    assert_eq!(kernel_prepares(&tel), 272, "the first request only reads");

    // The session engine's own stream (unseeded `run_inference`, the
    // `conv2d*` paths) is exactly where a never-warmed session's is.
    let warmed = Session::from_scenario(scenario.clone()).unwrap();
    warmed.warmup().unwrap();
    let cold = Session::from_scenario(scenario).unwrap();
    for round in 0..2 {
        assert_bits(
            &warmed.run_inference(image).unwrap(),
            &cold.run_inference(image).unwrap(),
            &format!("run_inference round {round}"),
        );
    }
    assert_eq!(
        warmed.conv2d(&input, &kernels[0]).unwrap(),
        cold.conv2d(&input, &kernels[0]).unwrap()
    );
    assert_eq!(
        warmed.conv2d_multi(&input, &kernels).unwrap(),
        cold.conv2d_multi(&input, &kernels).unwrap()
    );
}
