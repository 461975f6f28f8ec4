//! Tests for the unified `Session`/`Backend`/`Scenario` API: serialization
//! round trips, error unification, the backend registry, and cross-backend
//! agreement of the functional path.

use pf_dsp::util::max_abs_diff;
use photofourier::prelude::*;

fn demo_scenario() -> Scenario {
    let mut scenario = Scenario::new("api_demo", "resnet18", BackendSpec::jtc_ideal(256));
    scenario.arch = ArchSpec {
        preset: ArchPreset::PhotofourierNg,
        num_pfcus: Some(32),
        input_waveguides: Some(105),
        temporal_accumulation: None,
        area_budget_mm2: Some(90.0),
    };
    scenario.pipeline = PipelineConfig::photofourier_default();
    scenario.functional = FunctionalSpec {
        input_channels: 3,
        input_size: 32,
        weight_seed: 9,
    };
    scenario
}

#[test]
fn scenario_round_trips_through_toml() {
    let scenario = demo_scenario();
    let text = scenario.to_toml().unwrap();
    let back = Scenario::from_toml(&text).unwrap();
    assert_eq!(back, scenario);
}

#[test]
fn scenario_round_trips_through_json() {
    let scenario = demo_scenario();
    let text = scenario.to_json().unwrap();
    let back = Scenario::from_json(&text).unwrap();
    assert_eq!(back, scenario);
}

/// Every `.toml` under `dir`, sorted.
fn toml_files(dir: &str) -> Vec<std::path::PathBuf> {
    let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn shipped_scenario_files_load_and_build() {
    let files: Vec<_> = ["scenarios", "benchmark/workloads"]
        .into_iter()
        .flat_map(toml_files)
        .collect();
    assert!(files.len() >= 2, "no scenario files found");
    for path in files {
        let file = path.display();
        let scenario = Scenario::from_path(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        // Round trip: what we serialize parses back to the same scenario.
        assert_eq!(
            Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap(),
            scenario,
            "{file}"
        );
        let session = Session::builder().scenario(scenario).build().unwrap();
        assert!(session.evaluate_performance().unwrap().fps > 0.0, "{file}");
    }
}

#[test]
fn pferror_converts_from_every_subcrate_error() {
    use photofourier::arch::ArchError;
    use photofourier::dsp::DspError;
    use photofourier::jtc::JtcError;
    use photofourier::nn::NnError;
    use photofourier::photonics::PhotonicsError;
    use photofourier::tiling::TilingError;

    let dsp: PfError = DspError::EmptyInput { what: "signal" }.into();
    assert!(matches!(dsp, PfError::Dsp(_)));

    let photonics: PfError = PhotonicsError::UnsupportedResolution { bits: 99 }.into();
    assert!(matches!(photonics, PfError::Photonics(_)));

    let tiling: PfError = TilingError::CapacityTooSmall {
        n_conv: 1,
        required: 3,
    }
    .into();
    assert!(matches!(tiling, PfError::Tiling(_)));

    let jtc: PfError = JtcError::EmptyOperand { what: "kernel" }.into();
    assert!(matches!(jtc, PfError::Jtc(_)));

    let nn: PfError = NnError::InvalidParameter {
        name: "temporal_depth",
        requirement: "must be at least 1".into(),
    }
    .into();
    assert!(matches!(nn, PfError::Nn(_)));

    let arch: PfError = ArchError::Unschedulable {
        layer: "conv1".into(),
        reason: "too big".into(),
    }
    .into();
    assert!(matches!(arch, PfError::Arch(_)));
}

#[test]
fn pferror_flows_through_the_session_with_question_mark() {
    // The point of the unified error: one `?`-compatible Result type across
    // layers that used to have six different error enums.
    fn flow() -> Result<f64, PfError> {
        let scenario = Scenario::new("flow", "resnet_s", BackendSpec::jtc_ideal(64));
        let session = Session::builder().scenario(scenario).build()?;
        let input = Matrix::new(6, 6, vec![1.0; 36])?; // DspError via From
        let kernel = Matrix::new(3, 3, vec![0.5; 9])?;
        let out = session.conv2d(&input, &kernel)?; // TilingError via From
        let perf = session.evaluate_performance()?; // ArchError via From
        Ok(out.data().iter().sum::<f64>() + perf.fps)
    }
    assert!(flow().unwrap() > 0.0);
}

#[test]
fn backend_registry_instantiates_all_kinds() {
    for kind in BackendKind::ALL {
        let spec = BackendSpec { kind, capacity: 64 };
        let backend = spec.instantiate().unwrap();
        assert_eq!(backend.kind(), kind);
    }
    assert!(BackendSpec {
        kind: BackendKind::JtcIdeal,
        capacity: 0
    }
    .instantiate()
    .is_err());
}

/// Cross-backend agreement: a Session on the digital backend and a Session
/// on the ideal JTC backend produce the same conv2d result to 1e-8.
#[test]
fn digital_and_ideal_jtc_sessions_agree_on_conv2d() {
    let digital = Session::builder()
        .scenario(Scenario::new("x", "resnet18", BackendSpec::digital(256)))
        .build()
        .unwrap();
    let optical = Session::builder()
        .scenario(Scenario::new("x", "resnet18", BackendSpec::jtc_ideal(256)))
        .build()
        .unwrap();

    for (size, kernel_size, seed) in [(8usize, 3usize, 1u64), (16, 5, 2), (20, 3, 3)] {
        let input = Matrix::new(
            size,
            size,
            Tensor::random(vec![size * size], -1.0, 1.0, seed)
                .data()
                .to_vec(),
        )
        .unwrap();
        let kernel = Matrix::new(
            kernel_size,
            kernel_size,
            Tensor::random(vec![kernel_size * kernel_size], -0.5, 0.5, seed + 100)
                .data()
                .to_vec(),
        )
        .unwrap();
        let a = digital.conv2d(&input, &kernel).unwrap();
        let b = optical.conv2d(&input, &kernel).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert!(
            max_abs_diff(a.data(), b.data()) < 1e-8,
            "backends disagree for {size}x{size} conv {kernel_size}x{kernel_size}"
        );
    }
}

/// Cross-backend agreement extends through the full inference pipeline when
/// the numeric pipeline is ideal.
#[test]
fn digital_and_ideal_jtc_sessions_agree_on_inference() {
    let scenario = |backend| Scenario::new("infer", "resnet_s", backend);
    let digital = Session::builder()
        .scenario(scenario(BackendSpec::digital(256)))
        .build()
        .unwrap();
    let optical = Session::builder()
        .scenario(scenario(BackendSpec::jtc_ideal(256)))
        .build()
        .unwrap();
    let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 77);
    let a = digital.run_inference(&image).unwrap();
    let b = optical.run_inference(&image).unwrap();
    assert_eq!(a.shape(), b.shape());
    assert!(max_abs_diff(a.data(), b.data()) < 1e-7);
}

#[test]
fn invalid_scenarios_are_rejected_at_build_time() {
    // Unknown network.
    let bad = Scenario::new("bad", "lenet", BackendSpec::digital(256));
    assert!(matches!(
        Session::builder().scenario(bad).build(),
        Err(PfError::InvalidScenario { .. })
    ));

    // Zero capacity.
    let mut bad = demo_scenario();
    bad.backend.capacity = 0;
    assert!(Session::builder().scenario(bad).build().is_err());

    // Inconsistent architecture override.
    let mut bad = demo_scenario();
    bad.arch.num_pfcus = Some(0);
    assert!(Session::builder().scenario(bad).build().is_err());

    // Malformed TOML reports a Format error.
    assert!(matches!(
        Scenario::from_toml("name = \"x\"\nnetwork ="),
        Err(PfError::Format { .. })
    ));
}
