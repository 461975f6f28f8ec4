//! The analytical model's outputs, pinned bit for bit.
//!
//! The other analytical tests hold the paper's figures to windows (a PIC
//! area "between 70 and 120 mm²", NG "at least as efficient as CG"), so an
//! edit to the Table IV / Table V constants, the area rule or the energy
//! model can move every number the paper reproduces and still pass them.
//! These pins cannot: each value below is compared by `to_bits` with the
//! reading recorded from the model, and a change that is meant to move one
//! updates the pin and says why.
//!
//! * ResNet-18 on PhotoFourier-CG (the `jtc_ideal` scenario the benchmark
//!   reports as `sim_fps`, `sim_fps_per_w` and `sim_edp_js`): the network
//!   totals and the Figure 12 energy breakdown.
//! * The Figure 11 area breakdowns of the CG and NG design points.
//!
//! Each literal is the shortest decimal that reads back as the recorded
//! `f64`, so comparing bits compares exactly that value.

use photofourier::arch::area::{AreaBreakdown, AreaModel};
use photofourier::photonics::params::TechConfig;
use photofourier::prelude::*;

/// Asserts every `(name, got, want)` row is equal bit for bit, naming all
/// the rows that are not.
fn assert_bits(what: &str, rows: &[(&str, f64, f64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got.to_bits() != want.to_bits())
        .map(|(name, got, want)| format!("{name}: {got:?} (pinned {want:?})"))
        .collect();
    assert!(moved.is_empty(), "{what} moved: {}", moved.join(", "));
}

#[test]
fn resnet18_on_cg_reads_the_pinned_performance_and_energy() {
    let scenario = Scenario::new("analytical-pin", "resnet18", BackendSpec::jtc_ideal(256));
    let session = Session::builder().scenario(scenario).build().unwrap();
    let perf = session.evaluate_performance().unwrap();
    assert_bits(
        "ResNet-18 performance",
        &[
            ("fps", perf.fps, 10198.878123406424),
            ("fps_per_watt", perf.fps_per_watt, 354.6141866452271),
            ("edp", perf.edp, 2.7649768027496846e-7),
            ("latency_s", perf.latency_s, 9.805000000000001e-5),
            ("energy_j", perf.energy_j, 0.002819966142529),
            ("avg_power_w", perf.avg_power_w, 28.76049099978582),
        ],
    );
    let e = perf.breakdown;
    assert_bits(
        "ResNet-18 energy breakdown",
        &[
            ("laser_pj", e.laser_pj, 17231245.749999996),
            ("mrr_pj", e.mrr_pj, 729333563.6500001),
            ("dac_pj", e.dac_pj, 1230655571.4650002),
            ("adc_pj", e.adc_pj, 69286232.06400003),
            ("sram_pj", e.sram_pj, 408929289.6),
            ("cmos_pj", e.cmos_pj, 141192000.0),
            ("dram_pj", e.dram_pj, 223338240.0),
        ],
    );
}

fn area_rows(a: &AreaBreakdown) -> [(&'static str, f64); 7] {
    [
        ("mrr_mm2", a.mrr_mm2),
        ("photodetector_mm2", a.photodetector_mm2),
        ("lens_mm2", a.lens_mm2),
        ("waveguide_routing_mm2", a.waveguide_routing_mm2),
        ("laser_splitter_mm2", a.laser_splitter_mm2),
        ("sram_mm2", a.sram_mm2),
        ("cmos_mm2", a.cmos_mm2),
    ]
}

#[test]
fn cg_and_ng_read_the_pinned_area_breakdowns() {
    let pinned = [
        (
            TechConfig::photofourier_cg(),
            [
                1.5667199999999997,
                7.864319999999999,
                31.9488,
                37.864320000000006,
                1.0847308800000002,
                5.85,
                10.15,
            ],
        ),
        (
            TechConfig::photofourier_ng(),
            [
                2.0889599999999997,
                7.864319999999999,
                63.8976,
                19.350144,
                2.0501376000000002,
                5.3,
                16.5,
            ],
        ),
    ];
    for (tech, want) in pinned {
        let area = AreaModel::for_tech(&tech).breakdown(&tech);
        let rows: Vec<(&str, f64, f64)> = area_rows(&area)
            .into_iter()
            .zip(want)
            .map(|((name, got), want)| (name, got, want))
            .collect();
        assert_bits(&format!("{} area breakdown", tech.name), &rows);
    }
}
