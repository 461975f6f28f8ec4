//! One rounding helper, three quantisers, one table.
//!
//! `pf_photonics::adc::round_half_away` replaced `f64::round` in the ADC
//! (`Adc::quantize_in_place`), the DAC (`Dac::generate`) and the
//! activation quantiser (`pf_nn::quant::quantize_symmetric`) so that their
//! loops vectorise; it must be `f64::round` on every input, bit for bit.
//! This table holds the helper and each of its three call sites to an
//! oracle that still spells `f64::round` (and `f64::clamp`), on the values
//! where rounding decides anything: exact half-codes and their
//! neighbours, ±0, subnormals, the clip edges, NaN, ±∞ and magnitudes from
//! 2⁵² up, where every `f64` is an integer already.
//!
//! CI runs it in release too: that is the build whose vectorised loops
//! users run.

use pf_nn::quant::quantize_symmetric;
use pf_photonics::adc::{round_half_away, Adc};
use pf_photonics::dac::Dac;

/// Same number, or NaN on both sides (a NaN's payload is not a contract).
fn assert_same(got: f64, want: f64, what: &str) {
    assert!(
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
        "{what}: {got:e} ({:#018x}), f64::round says {want:e} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    );
}

/// `v`, its two neighbours and the three mirrored.
fn around(v: f64) -> [f64; 6] {
    [
        v,
        v.next_down(),
        v.next_up(),
        -v,
        -v.next_down(),
        -v.next_up(),
    ]
}

/// Where `round` decides: every half up to 600, halves next to 2⁵² (the
/// last ones there are), and the magnitudes around and beyond it.
fn rounding_table() -> Vec<f64> {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let mut table = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for v in [
        0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        0.25,
        1.0,
        255.0,
        65_535.0,
        TWO_52 / 2.0 + 0.5,
        TWO_52 - 1.5,
        TWO_52 - 0.5,
        TWO_52,
        TWO_52 + 1.0,
        2.0 * TWO_52 - 1.0,
        2.0 * TWO_52,
        1e300,
        f64::MAX,
    ] {
        table.extend(around(v));
    }
    for k in 0..600 {
        table.extend(around(f64::from(k) + 0.5));
    }
    table
}

#[test]
fn the_helper_is_f64_round_on_every_row_of_the_table() {
    for q in rounding_table() {
        assert_same(round_half_away(q), q.round(), &format!("q = {q:e}"));
    }
    // A dense sweep across the first few codes, both signs.
    for i in -40_000..=40_000 {
        let q = f64::from(i) / 8_192.0;
        assert_same(round_half_away(q), q.round(), &format!("q = {q}"));
    }
}

#[test]
fn the_adc_rounds_its_codes_as_f64_round_does() {
    let oracle = |adc: &Adc, value: f64, full_scale: f64| {
        let step = 2.0 * full_scale / f64::from(adc.levels());
        let clipped = value.clamp(-full_scale, full_scale - step);
        ((clipped + full_scale) / step).round() * step - full_scale
    };
    for bits in [1u32, 4, 8, 12, 16] {
        let adc = Adc::new(bits, 0.625, 0.93).unwrap();
        for full_scale in [1.0, 0.37, 3.0, f64::EPSILON, 1e200] {
            let step = 2.0 * full_scale / f64::from(adc.levels());
            let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            values.extend(around(0.0));
            values.extend(around(f64::MIN_POSITIVE));
            // Both clip edges and every exact half-code (up to 600).
            values.extend(around(full_scale));
            values.extend(around(full_scale - step));
            for code in 0..adc.levels().min(600) {
                values.extend(around((f64::from(code) + 0.5) * step - full_scale));
            }
            let quantised = adc.quantize_slice(&values, full_scale);
            for (&v, &q) in values.iter().zip(&quantised) {
                let what = format!("{bits}-bit ADC, full scale {full_scale:e}, v = {v:e}");
                assert_same(q, oracle(&adc, v, full_scale), &what);
                assert_same(adc.quantize(v, full_scale), q, &what);
            }
        }
    }
}

#[test]
fn the_dac_rounds_its_codes_as_f64_round_does() {
    for bits in [1u32, 2, 8, 10, 16] {
        let dac = Dac::new(bits, 10.0, 35.71).unwrap();
        let levels = f64::from(dac.levels() - 1);
        let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        values.extend(around(0.0));
        values.extend(around(f64::MIN_POSITIVE));
        values.extend(around(1.0));
        for code in 0..dac.levels().min(600) {
            values.extend(around((f64::from(code) + 0.5) / levels));
        }
        let generated = dac.generate_slice(&values);
        for (&v, &g) in values.iter().zip(&generated) {
            let want = (v.clamp(0.0, 1.0) * levels).round() / levels;
            assert_same(g, want, &format!("{bits}-bit DAC, v = {v:e}"));
        }
    }
}

#[test]
fn the_activation_quantiser_rounds_its_codes_as_f64_round_does() {
    for bits in [2u32, 8, 12, 31] {
        let levels = ((1u64 << (bits - 1)) - 1) as f64;
        for max_abs in [1.0, 0.37, 3.0, 1e-300, 1e200] {
            let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            values.extend(around(0.0));
            values.extend(around(f64::MIN_POSITIVE));
            values.extend(around(max_abs));
            for code in 0..600u32.min(levels as u32) {
                values.extend(around((f64::from(code) + 0.5) / levels * max_abs));
            }
            for v in values {
                let want =
                    (v.clamp(-max_abs, max_abs) / max_abs * levels).round() / levels * max_abs;
                let what = format!("{bits} bits, max_abs {max_abs:e}, v = {v:e}");
                assert_same(quantize_symmetric(v, max_abs, bits), want, &what);
            }
        }
    }
}
