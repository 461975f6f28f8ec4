//! Determinism of the one parallelism rule at the facade level: under
//! scoped rayon pools of width 1, 2 and 4 — for batches on both sides of
//! `images >= width`, so images fan out at some points and tiles at others
//! — every call must produce results bit-identical to the 1-wide
//! reference. Odd batch sizes never divide evenly across the pool, and the
//! prepared-spectrum CG path is stochastic, so its per-image noise streams
//! are pinned by seed, not by schedule.

use photofourier::prelude::*;
use proptest::prelude::*;

const POOL_WIDTHS: [usize; 3] = [1, 2, 4];

fn scenario(kind: BackendKind) -> Scenario {
    Scenario::new(
        format!("scaling_{kind}"),
        "resnet18",
        BackendSpec {
            kind,
            capacity: 256,
        },
    )
}

fn images(batch: usize, seed: u64) -> Vec<pf_nn::Tensor> {
    (0..batch)
        .map(|i| pf_nn::Tensor::random(vec![1, 16, 16], 0.0, 1.0, seed + i as u64))
        .collect()
}

fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
}

/// `run_batch` on a fresh session of `kind` under a `width`-wide pool.
fn batch_under(kind: BackendKind, width: usize, images: &[pf_nn::Tensor]) -> Vec<pf_nn::Tensor> {
    let session = Session::from_scenario(scenario(kind)).unwrap();
    pool(width).install(|| session.run_batch(images)).unwrap()
}

proptest! {
    // Sessions are expensive to build; a handful of cases over the odd
    // batch sizes and seeds is plenty — the backend/width matrix inside
    // each case is exhaustive.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn deterministic_batches_are_grain_and_schedule_invariant(
        half in 0usize..3, // odd batches 1, 3, 5: never split evenly at width 2 or 4
        seed in 0u64..500,
    ) {
        let batch = 2 * half + 1;
        let inputs = images(batch, seed);
        for kind in [BackendKind::Digital, BackendKind::JtcIdeal] {
            let reference = batch_under(kind, 1, &inputs);
            for width in POOL_WIDTHS {
                let out = batch_under(kind, width, &inputs);
                prop_assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(&reference) {
                    prop_assert!(a == b, "batch mismatch on {} at width {}", kind, width);
                }
                // One image at a time owns the pool: its tiles may fan out.
                let session = Session::from_scenario(scenario(kind)).unwrap();
                for (image, b) in inputs.iter().zip(&reference) {
                    let single = pool(width).install(|| session.run_inference(image)).unwrap();
                    prop_assert!(&single == b, "single mismatch on {} at width {}", kind, width);
                }
            }
        }
    }

    #[test]
    fn multi_kernel_batches_match_one_kernel_at_a_time(
        n_kernels in 1usize..5, // even and odd kernel-batch sizes
        seed in 0u64..500,
    ) {
        // conv2d_multi transforms whole tile batches through the batched
        // planar FFT pre-pass; the output must equal running each kernel's
        // conv2d one tile at a time, bit for bit, under every pool width.
        let input = Matrix::new(
            12,
            12,
            (0..144)
                .map(|i| ((i as u64 + 31 * seed) as f64 * 0.11).sin())
                .collect(),
        )
        .unwrap();
        let kernels: Vec<Matrix> = (0..n_kernels)
            .map(|k| {
                Matrix::new(
                    3,
                    3,
                    (0..9).map(|i| ((i + 5 * k) as f64 - 4.0) / 9.0).collect(),
                )
                .unwrap()
            })
            .collect();
        let session = Session::from_scenario(scenario(BackendKind::JtcIdeal)).unwrap();
        let singles: Vec<Matrix> = kernels
            .iter()
            .map(|k| session.conv2d(&input, k).unwrap())
            .collect();
        for width in POOL_WIDTHS {
            let multi = pool(width)
                .install(|| session.conv2d_multi(&input, &kernels))
                .unwrap();
            prop_assert_eq!(multi.len(), singles.len());
            for (plane, single) in multi.iter().zip(&singles) {
                for (x, y) in plane.data().iter().zip(single.data()) {
                    prop_assert!(x.to_bits() == y.to_bits(), "mismatch at width {}", width);
                }
            }
        }
    }

    #[test]
    fn prepared_spectrum_cg_batches_are_grain_and_schedule_invariant(
        half in 0usize..3,
        seed in 0u64..500,
    ) {
        // The CG backend is stochastic: run_batch pins each image's noise
        // stream to its batch index via seeded engine clones that share the
        // prepared-spectrum cache. That identity (not determinism of the
        // schedule) is what makes the result reproducible under any pool
        // width. The unseeded single-image path draws from the session's
        // own stream instead, so a fresh session replays it at any width.
        let batch = 2 * half + 1;
        let inputs = images(batch, seed);
        let kind = BackendKind::PhotofourierCg;
        let reference = batch_under(kind, 1, &inputs);
        let first = Session::from_scenario(scenario(kind)).unwrap().run_inference(&inputs[0]).unwrap();
        for width in POOL_WIDTHS {
            let out = batch_under(kind, width, &inputs);
            for (a, b) in out.iter().zip(&reference) {
                prop_assert!(a == b, "batch mismatch at width {}", width);
            }
            let session = Session::from_scenario(scenario(kind)).unwrap();
            let single = pool(width).install(|| session.run_inference(&inputs[0])).unwrap();
            prop_assert!(single == first, "single mismatch at width {}", width);
        }
    }
}
