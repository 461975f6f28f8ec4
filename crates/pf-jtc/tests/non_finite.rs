//! A huge or non-finite sample must travel the mixed-signal chain as data:
//! an overflowed RMS or ADC full scale comes back as non-finite outputs for
//! the serving tier's NaN/Inf integrity screen to report, never as a panic
//! in a worker. (`1e200` used to panic in the ADC's `clamp`: its square
//! overflows the sensing-noise RMS, the noise add makes ±∞, the ADC full
//! scale is ∞ and `full_scale - step` is NaN.)

use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_tiling::Conv1dEngine;

const KERNEL: [f64; 3] = [0.5, 1.0, 0.5];
const SIGNAL_LEN: usize = 32;
const POISON_AT: usize = 13;

fn signal(poison: f64) -> Vec<f64> {
    let mut signal: Vec<f64> = (0..SIGNAL_LEN)
        .map(|i| (i as f64 * 0.3).sin() + 0.2)
        .collect();
    signal[POISON_AT] = poison;
    signal
}

/// Every way a signal reaches the chain: the engine's one-off entry, a
/// kept prepared kernel through the trait (what row tiling drives), and the
/// shared-signal path behind it.
fn every_path(config: &JtcEngineConfig, signal: &[f64]) -> Vec<(&'static str, Vec<f64>)> {
    let engine = || JtcEngine::new(config.clone()).unwrap();
    let prepared = engine()
        .prepare_kernel(&KERNEL, SIGNAL_LEN)
        .expect("JTC engines prepare");
    let sharing = engine().prepare_kernel(&KERNEL, SIGNAL_LEN).unwrap();
    let shared = sharing
        .prepare_signal(signal)
        .expect("JTC kernels share signals");
    vec![
        ("one-off", engine().correlate_valid(signal, &KERNEL)),
        ("prepared", prepared.correlate_valid(signal)),
        (
            "shared signal",
            sharing.correlate_with_signal(&*shared, signal),
        ),
    ]
}

#[test]
fn poisoned_samples_come_back_as_data_on_every_path() {
    let cg = JtcEngineConfig::photofourier_cg(64);
    let adc_only = JtcEngineConfig {
        sensing_snr_db: None,
        ..cg.clone()
    };
    for poison in [f64::NAN, f64::INFINITY, 1e200, 1e308] {
        for (chain, config) in [("CG", &cg), ("ADC only", &adc_only)] {
            for (path, out) in every_path(config, &signal(poison)) {
                let what = format!("{poison:e} on {chain}, {path}");
                assert_eq!(out.len(), SIGNAL_LEN - KERNEL.len() + 1, "{what}");
                // A poisoned input that cannot be represented must be
                // visible to the integrity screen.
                let finite_input = poison.is_finite();
                let overflows_rms = chain == "CG" && poison * poison == f64::INFINITY;
                if !finite_input || overflows_rms {
                    assert!(
                        out.iter().any(|v| !v.is_finite()),
                        "{what}: the damage is invisible in {out:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_large_sample_that_fits_the_converter_is_still_converted() {
    // Without sensing noise nothing squares the samples: 1e200 is an
    // ordinary (if absurd) full scale and the 8-bit answer is right to a
    // quantisation step.
    let adc_only = JtcEngineConfig {
        sensing_snr_db: None,
        ..JtcEngineConfig::photofourier_cg(64)
    };
    let signal = signal(1e200);
    for (path, out) in every_path(&adc_only, &signal) {
        let step = 2.0 * 1e200 / 256.0;
        for (j, v) in out.iter().enumerate() {
            let exact: f64 = KERNEL.iter().zip(&signal[j..]).map(|(k, s)| k * s).sum();
            assert!(
                (v - exact).abs() <= 2.0 * step,
                "{path}: sample {j} is {v}, expected {exact}"
            );
        }
    }
}
