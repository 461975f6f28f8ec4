//! Work counted, not timed: exact per-image counts of what a warm
//! `SmallCnn` image asks of its engine.
//!
//! A wall-clock pair on a small shared host cannot resolve a move of a few
//! per cent; a count can, exactly, in debug and release alike. Each count
//! here is pinned per warm image on every backend and must not depend on
//! the pool width. A change that moves a count updates the pin and says
//! why.
//!
//! * `tiling.samples` — the 1D output samples every set call asks the
//!   engine for (the sum of `out.len()`). Row tiling asks a plane's last
//!   tile only for the rows it completes: conv1 asks 16 kernels for
//!   222 + 32 samples on its two tiles (4 064), conv2 eight sets of 32
//!   kernels for 46 + 16 on theirs (15 872) — 19 936 per image, 30 656
//!   while every tile was asked for its whole correlation.

use photofourier::prelude::*;

/// `tiling.samples` per warm `SmallCnn` image.
const SAMPLES_PER_IMAGE: u64 = 19_936;

fn session(backend: BackendSpec, telemetry: &Telemetry) -> Session {
    let mut scenario = Scenario::new("work-ledger", "resnet18", backend);
    scenario.pipeline = PipelineConfig::photofourier_default();
    Session::builder()
        .scenario(scenario)
        .telemetry(telemetry.clone())
        .build()
        .unwrap()
}

fn samples(telemetry: &Telemetry) -> u64 {
    telemetry.snapshot().counter("tiling.samples")
}

#[test]
fn a_warm_image_asks_for_the_pinned_samples_at_every_pool_width() {
    let backends = [
        ("digital", BackendSpec::digital(256)),
        ("jtc_ideal", BackendSpec::jtc_ideal(256)),
        ("photofourier_cg", BackendSpec::photofourier_cg(256)),
    ];
    let images: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 500 + i))
        .collect();
    for (name, backend) in backends {
        for width in [1usize, 2] {
            let what = format!("{name}, pool width {width}");
            let telemetry = Telemetry::enabled();
            let session = session(backend, &telemetry);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            pool.install(|| {
                session.warmup().unwrap();
                // One image (tiles fanned out where the engine allows),
                // then a batch (images fanned out at width 2).
                let before = samples(&telemetry);
                session.run_inference(&images[0]).unwrap();
                let one = samples(&telemetry) - before;
                assert_eq!(one, SAMPLES_PER_IMAGE, "{what}: one image");
                let before = samples(&telemetry);
                session.run_batch(&images).unwrap();
                let batch = samples(&telemetry) - before;
                assert_eq!(batch, 2 * SAMPLES_PER_IMAGE, "{what}: a batch of two");
            });
        }
    }
}
