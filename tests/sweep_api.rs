//! Integration tests for the scenario sweep engine: expansion of the
//! shipped sweep scenarios, filter semantics, and bit-for-bit determinism
//! of reports under parallel execution (including the stochastic CG
//! backend).

use photofourier::prelude::*;

fn shipped(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_path(&path).unwrap()
}

#[test]
fn shipped_sweep_scenarios_expand_to_the_documented_grids() {
    let plan = SweepPlan::expand(&shipped("sweep_design_space.toml")).unwrap();
    // 4 PFCU counts x 3 backends x 2 temporal depths.
    assert_eq!(plan.points().len(), 24);
    assert!(plan.points().iter().all(|p| p.scenario.sweep.is_none()));

    let plan = SweepPlan::expand(&shipped("sweep_networks.toml")).unwrap();
    // 2 design points x 7 networks — the full pf-nn inventory.
    assert_eq!(plan.points().len(), 14);
    let networks: std::collections::BTreeSet<&str> = plan
        .points()
        .iter()
        .map(|p| p.scenario.network.as_str())
        .collect();
    assert_eq!(networks.len(), NETWORK_REGISTRY.len());
}

#[test]
fn shipped_sweep_scenarios_round_trip_through_toml() {
    for file in ["sweep_design_space.toml", "sweep_networks.toml"] {
        let scenario = shipped(file);
        assert!(scenario.sweep.is_some(), "{file} must declare a sweep");
        let back = Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap();
        assert_eq!(back, scenario, "{file}");
    }
}

#[test]
fn expansion_order_is_deterministic_and_filterable() {
    let scenario = shipped("sweep_design_space.toml");
    let a = SweepPlan::expand(&scenario).unwrap();
    let b = SweepPlan::expand(&scenario).unwrap();
    assert_eq!(a, b);
    // Outermost axis first: all pfcu=4 points precede all pfcu=8 points.
    let ids: Vec<&str> = a.points().iter().map(|p| p.id.as_str()).collect();
    let first_8 = ids.iter().position(|id| id.starts_with("pfcu=8")).unwrap();
    assert!(ids[..first_8].iter().all(|id| id.starts_with("pfcu=4")));

    let mut filtered = a.clone();
    assert_eq!(filtered.retain_matching("backend=digital"), 8);
    assert_eq!(filtered.retain_matching("td=16"), 4);
}

#[test]
fn design_space_smoke_report_is_identical_serial_and_parallel() {
    // The acceptance-criterion property, on a slice of the shipped grid
    // that includes the stochastic CG chain: per-point FPS/W (and every
    // other field) must be bit-for-bit identical between serial and
    // parallel execution.
    let run = || {
        SweepRunner::new(shipped("sweep_design_space.toml"))
            .unwrap()
            .filter("pfcu=8,")
            .smoke(true)
            .run()
            .unwrap()
    };
    // The pool width is the one way to say "serial".
    let one_wide = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let serial = one_wide.install(run);
    let parallel = run();
    assert_eq!(serial.points.len(), 6);
    assert_eq!(serial, parallel);
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(
            a.fps_per_watt.to_bits(),
            b.fps_per_watt.to_bits(),
            "{}",
            a.id
        );
        assert_eq!(
            a.inference_mean_abs_err.to_bits(),
            b.inference_mean_abs_err.to_bits(),
            "{}",
            a.id
        );
    }
    assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // And the whole thing is reproducible across repeated runs.
    assert_eq!(run(), parallel);
}

#[test]
fn a_parallel_sweep_opens_no_parallel_region_from_inside_a_worker() {
    // Every grid point builds a session and calls `conv2d` /
    // `run_inference` on it from a worker of the sweep's own fan-out. On a
    // pool wide enough to give every point a worker, those calls must find
    // a pool they cannot split (width 1) and run serially: the vendored
    // rayon `debug_assert!`s at its spawn site that no worker ever reaches
    // it, so in a debug build a nested dispatch panics this test — which
    // is how it fails when the pool's worker rule is reverted.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let report = wide.install(|| {
        SweepRunner::new(shipped("sweep_design_space.toml"))
            .unwrap()
            .filter("pfcu=8,")
            .smoke(true)
            .run()
            .unwrap()
    });
    assert_eq!(report.points.len(), 6);
}

#[test]
fn report_carries_both_analytical_and_functional_results() {
    let report = SweepRunner::new(shipped("sweep_design_space.toml"))
        .unwrap()
        .filter("pfcu=4,backend=photofourier_cg")
        .smoke(true)
        .run()
        .unwrap();
    assert_eq!(report.schema, photofourier::SWEEP_SCHEMA);
    assert_eq!(report.base, "sweep_design_space");
    assert_eq!(report.mode, "smoke");
    for p in &report.points {
        assert!(
            p.fps > 0.0 && p.fps_per_watt > 0.0 && p.edp > 0.0,
            "{}",
            p.id
        );
        // The CG signal chain quantises and adds noise: visibly nonzero
        // error against the digital reference, but bounded.
        assert!(p.conv2d_max_abs_err > 1e-6, "{}", p.id);
        assert!(p.conv2d_max_abs_err < 1.0, "{}", p.id);
        assert!(p.inference_mean_abs_err > 1e-6, "{}", p.id);
    }
    // Deeper temporal accumulation makes the analytical ADCs cheaper.
    let td = |depth: usize| {
        report
            .points
            .iter()
            .find(|p| p.temporal_depth == depth)
            .unwrap()
            .fps_per_watt
    };
    assert!(td(16) > td(1), "td=16 {} vs td=1 {}", td(16), td(1));
}

#[test]
fn filter_matching_nothing_is_an_error() {
    let runner = SweepRunner::new(shipped("sweep_networks.toml"))
        .unwrap()
        .filter("backend=quantum");
    assert!(runner.plan().points().is_empty());
    assert!(runner.run().is_err());
}
