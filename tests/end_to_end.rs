//! Cross-crate integration tests: the full PhotoFourier stack from the
//! simulated optics up to the architecture-level metrics, driven through
//! the `Session`/`Scenario` facade.

use pf_dsp::util::{max_abs_diff, relative_l2_error};
use photofourier::prelude::*;

fn session(network: &str, backend: BackendSpec) -> Session {
    Session::builder()
        .scenario(Scenario::new("e2e", network, backend))
        .build()
        .unwrap()
}

/// A convolution layer executed on the simulated JTC optics through row
/// tiling matches the exact digital reference (the paper's core identity,
/// across three crates: pf-dsp, pf-tiling, pf-jtc) — through one Session.
#[test]
fn photonic_row_tiled_convolution_matches_reference() {
    let input = Matrix::new(
        12,
        12,
        (0..144).map(|i| ((i as f64) * 0.13).sin().abs()).collect(),
    )
    .unwrap();
    let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 10.0).collect()).unwrap();

    let photonic = session("resnet18", BackendSpec::jtc_ideal(128));
    let optical = photonic.conv2d(&input, &kernel).unwrap();
    let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
    assert!(max_abs_diff(optical.data(), reference.data()) < 1e-7);
}

/// One scenario file drives both sides of the paper: the functional conv2d
/// result matches the digital reference (ideal backend) and the analytical
/// model produces a full performance report — the facade's two-call flow.
#[test]
fn scenario_file_yields_functional_and_analytical_results() {
    let session = Session::builder()
        .scenario_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/scenarios/crosslight.toml"
        ))
        .unwrap()
        .build()
        .unwrap();

    // Functional: ideal optics == digital reference.
    let input = Matrix::new(16, 16, (0..256).map(|i| ((i % 11) as f64) / 11.0).collect()).unwrap();
    let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 + 1.0) / 20.0).collect()).unwrap();
    let optical = session.conv2d(&input, &kernel).unwrap();
    let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
    assert!(max_abs_diff(optical.data(), reference.data()) < 1e-8);

    // Analytical: a complete NetworkPerformance for the same configuration.
    let perf = session.evaluate_performance().unwrap();
    assert_eq!(perf.network, "CrossLight-CNN");
    assert!(perf.fps > 0.0 && perf.fps_per_watt > 0.0 && perf.energy_j > 0.0);
    assert_eq!(perf.layers.len(), session.network().num_conv_layers());
}

/// One PFCU's optics (256 input waveguides, ideal numerics) executes a
/// row-tiled CNN layer end to end through a `Session` and matches the
/// digital result: a 5×5 kernel, the 25 taps the PFCU has weight DACs for,
/// and a 7×7 kernel (49 taps, ResNet's `conv1`) over that limit.
#[test]
fn pfcu_executes_row_tiled_layer() {
    let session = session("resnet18", BackendSpec::jtc_ideal(256));
    let input = Matrix::new(16, 16, (0..256).map(|i| ((i % 7) as f64) / 7.0).collect()).unwrap();
    for k in [5, 7] {
        let taps = k * k;
        let kernel = Matrix::new(k, k, (0..taps).map(|i| (i as f64) / 50.0).collect()).unwrap();
        let out = session.conv2d(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert_eq!(
            (out.rows(), out.cols()),
            (reference.rows(), reference.cols())
        );
        let diff = max_abs_diff(out.data(), reference.data());
        assert!(diff < 1e-6, "{k}x{k} kernel: max |diff| {diff}");
    }
}

/// Full CNN-layer execution through the photonic pipeline with the paper's
/// default settings stays within a few percent of the reference — the
/// numerical basis of the "<1% accuracy drop" claim of Table I.
#[test]
fn photofourier_pipeline_fidelity_on_resnet_layer() {
    use pf_nn::executor::{Conv2dExecutor, ReferenceExecutor};
    use pf_nn::layers::Conv2d;

    let layer = Conv2d::random(16, 4, 3, 1, true, 0.4, 7).unwrap();
    let input = Tensor::random(vec![16, 28, 28], 0.0, 1.0, 8);

    let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
    let photonic = TiledExecutor::new(
        JtcEngine::ideal(256).unwrap(),
        256,
        PipelineConfig::photofourier_default(),
    )
    .unwrap()
    .forward(&input, &layer)
    .unwrap();

    // Residual error comes from 8-bit quantisation, the partial-sum ADC and
    // the wraparound edge effect at the 28x28 borders.
    let err = relative_l2_error(photonic.data(), reference.data());
    assert!(err < 0.15, "pipeline error too large: {err}");
}

/// The architecture simulator reproduces the headline comparison shape:
/// PhotoFourier-NG beats PhotoFourier-CG, which beats the un-optimised
/// baseline, on both efficiency and EDP for every comparison network —
/// with every design point selected declaratively through ArchSpec.
#[test]
fn design_point_ordering_holds_across_networks() {
    for network in ["alexnet", "vgg16", "resnet18"] {
        let perf_of = |preset: ArchPreset| {
            let mut scenario = Scenario::new("ordering", network, BackendSpec::digital(256));
            scenario.arch = ArchSpec::preset(preset);
            Session::builder()
                .scenario(scenario)
                .build()
                .unwrap()
                .evaluate_performance()
                .unwrap()
        };
        let b = perf_of(ArchPreset::BaselineSinglePfcu);
        let c = perf_of(ArchPreset::PhotofourierCg);
        let n = perf_of(ArchPreset::PhotofourierNg);
        assert!(c.fps_per_watt > b.fps_per_watt, "{network}");
        assert!(n.fps_per_watt > c.fps_per_watt, "{network}");
        assert!(c.edp < b.edp, "{network}");
        assert!(n.edp < c.edp, "{network}");
    }
}

/// PhotoFourier-CG beats the anchored prior-work reference points on EDP
/// (Figure 13(c): PhotoFourier-NG best everywhere, CG best in most cases).
#[test]
fn comparison_with_prior_work_preserves_orderings() {
    use pf_baselines::published::prior_photonic_accelerators;

    let cg = Simulator::new(ArchConfig::photofourier_cg()).unwrap();
    let ng = Simulator::new(ArchConfig::photofourier_ng()).unwrap();
    let networks = [alexnet(), vgg16(), resnet18()];
    let cg_results: Vec<_> = networks
        .iter()
        .map(|n| cg.evaluate_network(n).unwrap())
        .collect();

    for reference in prior_photonic_accelerators() {
        let anchored = reference.anchored(&cg_results);
        for (network, cg_perf) in networks.iter().zip(&cg_results) {
            let ng_perf = ng.evaluate_network(network).unwrap();
            let prior_edp = anchored.edp(network).unwrap();
            // NG achieves the best EDP against every prior design.
            assert!(
                ng_perf.edp < prior_edp,
                "{} should lose to NG on {}",
                reference.name,
                network.name
            );
            // CG is within the claimed factors of Albireo-c (28x better EDP).
            if reference.name == "Albireo-c" {
                let gain = prior_edp / cg_perf.edp;
                assert!(
                    gain > 5.0,
                    "CG EDP gain over Albireo-c on {} is only {gain}",
                    network.name
                );
            }
        }
    }
}

/// The UNPU-like digital baseline has far lower throughput than
/// PhotoFourier-CG but comparable-order efficiency (Figure 13(a)/(b)).
#[test]
fn digital_baseline_relationship() {
    use pf_baselines::digital::SystolicArray;

    let unpu = SystolicArray::unpu_like();
    for name in ["vgg16", "resnet18"] {
        let session = session(name, BackendSpec::digital(256));
        let pf = session.evaluate_performance().unwrap();
        let network = session.network();
        let unpu_fps = unpu.fps(network).unwrap();
        assert!(
            pf.fps > 10.0 * unpu_fps,
            "PhotoFourier should be much faster than UNPU on {}",
            network.name
        );
        let unpu_eff = unpu.fps_per_watt(network).unwrap();
        let ratio = pf.fps_per_watt / unpu_eff;
        assert!(
            (0.05..50.0).contains(&ratio),
            "efficiency ratio CG/UNPU on {} is {ratio}",
            network.name
        );
    }
}

/// Memory capacity checks reflect the paper's sizing rationale.
#[test]
fn memory_sizing_is_consistent() {
    use pf_arch::memory::check_network;

    let cfg = ArchConfig::photofourier_cg();
    let report = check_network(&resnet_s(), &cfg);
    assert!(report.fits());
    let vgg_report = check_network(&vgg16(), &cfg);
    // VGG-16's early activations exceed 2 MiB x 2, the known stress case.
    assert!(!vgg_report.activations_fit());
}

/// The full optimisation ladder of Figure 10 is monotone when evaluated
/// through the public facade.
#[test]
fn optimisation_ladder_is_monotone() {
    let networks = [resnet18()];
    let mut last = 0.0;
    for step in OptimizationStep::ALL {
        let sim = Simulator::new(step.config()).unwrap();
        let value = sim.geomean_fps_per_watt(&networks).unwrap();
        assert!(value > last, "{} did not improve", step.label());
        last = value;
    }
}

/// Batch inference through the facade is deterministic and parallel-safe.
/// On a deterministic backend the rayon-dispatched batch equals per-image
/// sequential execution; on the stochastic CG chain (per-image seeded noise
/// engines) two identical batches must agree with each other.
#[test]
fn batch_inference_is_consistent_with_sequential() {
    let digital = session("resnet_s", BackendSpec::digital(256));
    let images: Vec<Tensor> = (0..6)
        .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 50 + i))
        .collect();
    let batch = digital.run_batch(&images).unwrap();
    for (image, batched) in images.iter().zip(&batch) {
        assert_eq!(&digital.run_inference(image).unwrap(), batched);
    }

    let noisy = session("resnet_s", BackendSpec::photofourier_cg(256));
    let a = noisy.run_batch(&images).unwrap();
    let b = noisy.run_batch(&images).unwrap();
    assert_eq!(a, b, "stochastic batches must be reproducible");
}
