//! Quickstart: one `Scenario`, one `Session`, both sides of the paper.
//!
//! Loads `scenarios/resnet18_cg.toml`, builds a single [`Session`] from it,
//! and demonstrates the two-call flow the facade exists for: a functional
//! 2D convolution through the simulated optics (validated against the
//! digital reference) and the analytical performance report for the same
//! configuration. Then sweeps design points and networks through builder
//! overrides.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use photofourier::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== PhotoFourier quickstart ==\n");

    // ------------------------------------------------------------------
    // 1. One declarative scenario file -> one session.
    // ------------------------------------------------------------------
    let session = Session::builder()
        .scenario_path("scenarios/resnet18_cg.toml")?
        .build()?;
    println!(
        "scenario `{}`: network {}, backend {}, design point {:?}",
        session.scenario().name,
        session.network().name,
        session.backend_id(),
        session.scenario().arch.preset,
    );

    // ------------------------------------------------------------------
    // 2. Functional: a 2D convolution through the scenario's backend via
    //    row tiling. The CG chain quantises, so compare against an
    //    ideal-optics session of the *same* scenario to show the override
    //    mechanism, and validate that one against the digital reference.
    // ------------------------------------------------------------------
    let input = Matrix::new(
        16,
        16,
        (0..256).map(|i| ((i as f64) * 0.07).sin().abs()).collect(),
    )?;
    let kernel = Matrix::new(3, 3, vec![0.1, 0.2, 0.1, 0.2, 0.4, 0.2, 0.1, 0.2, 0.1])?;

    let ideal = Session::builder()
        .scenario(session.scenario().clone())
        .backend(BackendSpec::jtc_ideal(256))
        .build()?;
    let optical = ideal.conv2d(&input, &kernel)?;
    let digital = correlate2d(&input, &kernel, PaddingMode::Valid);
    let error = pf_dsp::util::max_abs_diff(optical.data(), digital.data());
    println!(
        "\nrow-tiled convolution on the simulated JTC ({}):",
        ideal.backend_id()
    );
    println!(
        "  output shape         : {}x{}",
        optical.rows(),
        optical.cols()
    );
    println!("  max |optical-digital|: {error:.2e}");
    assert!(
        error < 1e-8,
        "ideal optics should match the digital reference"
    );

    let noisy = session.conv2d(&input, &kernel)?;
    let noisy_err = pf_dsp::util::relative_l2_error(noisy.data(), digital.data());
    println!("  CG signal chain rel. L2 error: {noisy_err:.2e} (quantisation + noise)");

    // ------------------------------------------------------------------
    // 3. Analytical: the paper's headline metrics for the same scenario,
    //    then the other design points / networks via builder overrides.
    // ------------------------------------------------------------------
    let perf = session.evaluate_performance()?;
    println!(
        "\n{}: {:.0} FPS, {:.2} W, {:.1} FPS/W on {}",
        perf.network, perf.fps, perf.avg_power_w, perf.fps_per_watt, perf.design_point
    );

    println!(
        "\n{:<12} {:>16} {:>12} {:>12} {:>14}",
        "network", "design point", "FPS", "power (W)", "FPS/W"
    );
    for preset in [ArchPreset::PhotofourierCg, ArchPreset::PhotofourierNg] {
        for network in ["alexnet", "vgg16", "resnet18"] {
            let mut scenario = session.scenario().clone();
            scenario.arch = ArchSpec::preset(preset);
            scenario.network = network.to_string();
            let sweep_session = Session::from_scenario(scenario)?;
            let perf = sweep_session.evaluate_performance()?;
            println!(
                "{:<12} {:>16} {:>12.1} {:>12.2} {:>14.1}",
                perf.network, perf.design_point, perf.fps, perf.avg_power_w, perf.fps_per_watt
            );
        }
    }

    // ------------------------------------------------------------------
    // 4. Batch inference through the numeric pipeline (rayon-parallel).
    // ------------------------------------------------------------------
    let images: Vec<Tensor> = (0..8)
        .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 1000 + i))
        .collect();
    let features = session.run_batch(&images)?;
    println!(
        "\nbatch inference: {} images -> {} feature vectors of length {}",
        images.len(),
        features.len(),
        features[0].numel()
    );

    println!("\nOK");
    Ok(())
}
