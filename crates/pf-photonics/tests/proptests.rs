//! Property-based tests for the mixed-signal component models.

use pf_photonics::adc::{peak_magnitude, Adc};
use pf_photonics::dac::Dac;
use pf_photonics::detector::SensingNoise;
use proptest::prelude::*;

proptest! {
    #[test]
    fn adc_error_is_within_half_lsb(
        value in -1.0f64..1.0,
        bits in 4u32..14,
        full_scale in 0.5f64..8.0,
    ) {
        let adc = Adc::new(bits, 1.0, 1.0).unwrap();
        let clipped = value * full_scale;
        let q = adc.quantize(clipped, full_scale);
        let lsb = 2.0 * full_scale / adc.levels() as f64;
        prop_assert!((q - clipped).abs() <= lsb, "error beyond one LSB");
        // Quantisation is idempotent.
        prop_assert!((adc.quantize(q, full_scale) - q).abs() < 1e-12);
    }

    #[test]
    fn dac_output_is_monotone(
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        bits in 2u32..12,
    ) {
        let dac = Dac::new(bits, 10.0, 10.0).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(dac.generate(lo) <= dac.generate(hi) + 1e-12);
    }

    #[test]
    fn peak_magnitude_is_the_serial_fold(
        values in prop::collection::vec(
            (0u8..6, 0u64..=u64::MAX).prop_map(|(class, bits)| {
                let (sign, mantissa) = (bits & (1 << 63), bits & ((1 << 52) - 1));
                match class {
                    // Any bit pattern at all.
                    0 => f64::from_bits(bits),
                    // A NaN with a random payload, then ±∞, subnormals, ±0.
                    1 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | mantissa.max(1)),
                    2 => f64::from_bits(sign | 0x7ff0_0000_0000_0000),
                    3 => f64::from_bits(sign | mantissa),
                    4 => f64::from_bits(sign),
                    _ => (bits % 2001) as f64 / 1000.0 - 1.0,
                }
            }),
            0..40,
        ),
    ) {
        let fold = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        prop_assert_eq!(peak_magnitude(&values).to_bits(), fold.to_bits());
    }

    #[test]
    fn sensing_noise_mean_is_near_zero(sigma in 0.01f64..1.0, seed in 0u64..100) {
        let mut noise = SensingNoise::new(sigma, seed).unwrap();
        let n = 4000;
        let mean: f64 = (0..n).map(|_| noise.perturb(0.0)).sum::<f64>() / n as f64;
        prop_assert!(mean.abs() < 5.0 * sigma / (n as f64).sqrt() + 1e-3);
    }
}
