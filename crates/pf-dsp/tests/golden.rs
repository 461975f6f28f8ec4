//! Golden-vector tests: fixed input/spectrum pairs committed under
//! `tests/golden/`, with expected values derived **analytically** (impulse
//! → flat spectrum, DC → bin 0, exact {±1, 0}-sampled tones → n/2 at ±f).
//! A plan refactor therefore cannot silently re-derive a wrong baseline:
//! the expectations never came from the code under test.
//!
//! Every vector is run through all execution paths that must agree with
//! it: the complex plan (forward and inverse), the real-input plan, and
//! the batched real path.

use pf_dsp::plan::{FftPlan, RealFftPlan};
use pf_dsp::Complex;

const TOL: f64 = 1e-9;

struct Golden {
    name: &'static str,
    n: usize,
    input: Vec<f64>,
    expect: Vec<Complex>,
}

fn parse(name: &'static str, text: &str) -> Golden {
    let mut n = None;
    let mut input = None;
    let mut re = None;
    let mut im = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line
            .split_once(':')
            .unwrap_or_else(|| panic!("{name}: malformed line {line:?}"));
        let values: Vec<f64> = rest
            .split_whitespace()
            .map(|tok| {
                tok.parse()
                    .unwrap_or_else(|_| panic!("{name}: bad number {tok:?}"))
            })
            .collect();
        match key.trim() {
            "n" => n = Some(values[0] as usize),
            "input" => input = Some(values),
            "re" => re = Some(values),
            "im" => im = Some(values),
            other => panic!("{name}: unknown key {other:?}"),
        }
    }
    let n = n.unwrap_or_else(|| panic!("{name}: missing n"));
    let input = input.unwrap_or_else(|| panic!("{name}: missing input"));
    let re = re.unwrap_or_else(|| panic!("{name}: missing re"));
    let im = im.unwrap_or_else(|| panic!("{name}: missing im"));
    assert_eq!(input.len(), n, "{name}: input length");
    assert_eq!(re.len(), n, "{name}: re length");
    assert_eq!(im.len(), n, "{name}: im length");
    let expect = re
        .into_iter()
        .zip(im)
        .map(|(r, i)| Complex::new(r, i))
        .collect();
    Golden {
        name,
        n,
        input,
        expect,
    }
}

fn goldens() -> Vec<Golden> {
    vec![
        parse("impulse_6", include_str!("golden/impulse_6.txt")),
        parse("impulse_12", include_str!("golden/impulse_12.txt")),
        parse("impulse_20", include_str!("golden/impulse_20.txt")),
        parse("dc_6", include_str!("golden/dc_6.txt")),
        parse("dc_12", include_str!("golden/dc_12.txt")),
        parse("dc_20", include_str!("golden/dc_20.txt")),
        parse("tone_cos_12", include_str!("golden/tone_cos_12.txt")),
        parse("tone_cos_20", include_str!("golden/tone_cos_20.txt")),
        parse("tone_sin_20", include_str!("golden/tone_sin_20.txt")),
        parse("tone_nyquist_6", include_str!("golden/tone_nyquist_6.txt")),
    ]
}

#[test]
fn complex_plans_reproduce_golden_spectra() {
    for g in goldens() {
        let plan = FftPlan::shared(g.n).unwrap();
        let x: Vec<Complex> = g.input.iter().map(|&v| Complex::from_real(v)).collect();
        let spec = plan.fft(&x).unwrap();
        for (k, (got, want)) in spec.iter().zip(&g.expect).enumerate() {
            assert!(
                (*got - *want).abs() < TOL,
                "{}: forward bin {k}: {got} vs {want}",
                g.name
            );
        }
        // The committed spectrum must also invert back to the input.
        let back = plan.ifft(&g.expect).unwrap();
        for (j, (got, want)) in back.iter().zip(&g.input).enumerate() {
            assert!(
                (*got - Complex::from_real(*want)).abs() < TOL,
                "{}: inverse sample {j}",
                g.name
            );
        }
    }
}

#[test]
fn real_plans_reproduce_golden_half_spectra() {
    for g in goldens() {
        let plan = RealFftPlan::shared(g.n).unwrap();
        let mut scratch = Vec::new();
        let mut half = Vec::new();
        plan.forward_real_into(&g.input, &mut scratch, &mut half)
            .unwrap();
        assert_eq!(half.len(), g.n / 2 + 1, "{}", g.name);
        for (k, (got, want)) in half.iter().zip(&g.expect).enumerate() {
            assert!(
                (*got - *want).abs() < TOL,
                "{}: real bin {k}: {got} vs {want}",
                g.name
            );
        }
    }
}

#[test]
fn batched_real_path_reproduces_golden_spectra() {
    for g in goldens() {
        // Two identical rows through the batched real path.
        let plan = RealFftPlan::shared(g.n).unwrap();
        let inputs: Vec<f64> = g.input.iter().chain(&g.input).copied().collect();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        plan.forward_real_batch_into(&inputs, 2, &mut scratch, &mut out)
            .unwrap();
        for (r, chunk) in out.chunks_exact(plan.spectrum_len()).enumerate() {
            for (k, (got, want)) in chunk.iter().zip(&g.expect).enumerate() {
                assert!(
                    (*got - *want).abs() < TOL,
                    "{}: real batch row {r} bin {k}",
                    g.name
                );
            }
        }
    }
}
