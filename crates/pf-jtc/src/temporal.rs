//! Temporal accumulation (Section V-C).
//!
//! The capacitor bank and its accumulation loop —
//! [`pf_photonics::temporal::TemporalAccumulator`],
//! [`pf_photonics::temporal::accumulate_with_depth`] — live in
//! [`pf_photonics::temporal`], next to the ADC they read out through, so that
//! the CNN executor runs the same loop. What this module adds is their
//! counterpart [`accumulate_quantized_per_cycle`], the baseline that
//! quantises every cycle, so Figure 7 can be regenerated by comparing the
//! two.

use pf_photonics::adc::{peak_magnitude, Adc};

/// Baseline behaviour without temporal accumulation: every cycle's partial
/// sums are quantised by the ADC and accumulated digitally. Returns the final
/// digital sums. `full_scale` has the same meaning as in
/// [`pf_photonics::temporal::TemporalAccumulator::read_out`], applied per
/// cycle.
pub fn accumulate_quantized_per_cycle(
    cycles: &[Vec<f64>],
    adc: &Adc,
    full_scale: Option<f64>,
) -> Vec<f64> {
    if cycles.is_empty() {
        return Vec::new();
    }
    let lanes = cycles[0].len();
    let mut acc = vec![0.0; lanes];
    for cycle in cycles {
        let fs = full_scale.unwrap_or_else(|| peak_magnitude(cycle).max(f64::EPSILON));
        for (a, &v) in acc.iter_mut().zip(cycle) {
            *a += adc.quantize(v, fs);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::util::relative_l2_error;
    use pf_photonics::temporal::{accumulate_with_depth, TemporalAccumulator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn adc8() -> Adc {
        Adc::new(8, 0.625, 0.93).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(TemporalAccumulator::new(0, 16).is_err());
        assert!(TemporalAccumulator::new(4, 0).is_err());
        let acc = TemporalAccumulator::new(4, 16).unwrap();
        assert_eq!(acc.lanes(), 4);
        assert_eq!(acc.depth(), 16);
        assert_eq!(acc.cycles(), 0);
    }

    #[test]
    fn accumulation_and_readout() {
        let mut acc = TemporalAccumulator::new(2, 4).unwrap();
        acc.accumulate(&[1.0, 2.0]).unwrap();
        acc.accumulate(&[0.5, -1.0]).unwrap();
        assert_eq!(acc.cycles(), 2);
        let out = acc.read_out(None, None);
        assert_eq!(out, vec![1.5, 1.0]);
        assert_eq!(acc.cycles(), 0);
    }

    #[test]
    fn lane_mismatch_and_overflow_rejected() {
        let mut acc = TemporalAccumulator::new(2, 2).unwrap();
        assert!(acc.accumulate(&[1.0]).is_err());
        acc.accumulate(&[1.0, 1.0]).unwrap();
        acc.accumulate(&[1.0, 1.0]).unwrap();
        assert!(acc.is_full());
        assert!(acc.accumulate(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn single_quantization_beats_per_cycle_quantization() {
        // The core claim behind Figure 7: accumulating 16 channels before one
        // 8-bit quantisation produces a more accurate sum than quantising
        // each of the 16 partial sums.
        let mut rng = StdRng::seed_from_u64(99);
        let lanes = 64;
        let depth = 16;
        let cycles: Vec<Vec<f64>> = (0..depth)
            .map(|_| (0..lanes).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let exact: Vec<f64> = (0..lanes)
            .map(|l| cycles.iter().map(|c| c[l]).sum())
            .collect();

        let adc = adc8();
        // Fixed full scale representative of the partial-sum range.
        let fs = Some(16.0);
        let temporal = accumulate_with_depth(&cycles, depth, Some(&adc), fs).unwrap();
        let per_cycle = accumulate_quantized_per_cycle(&cycles, &adc, fs);

        let err_temporal = relative_l2_error(&temporal, &exact);
        let err_per_cycle = relative_l2_error(&per_cycle, &exact);
        assert!(
            err_temporal < err_per_cycle,
            "temporal {err_temporal} should beat per-cycle {err_per_cycle}"
        );
    }

    #[test]
    fn deeper_accumulation_means_fewer_quantizations() {
        // Error decreases (or stays equal) as depth grows, matching the
        // monotone trend of Figure 7.
        let mut rng = StdRng::seed_from_u64(123);
        let lanes = 32;
        let total_cycles = 32;
        let cycles: Vec<Vec<f64>> = (0..total_cycles)
            .map(|_| (0..lanes).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let exact: Vec<f64> = (0..lanes)
            .map(|l| cycles.iter().map(|c| c[l]).sum())
            .collect();
        let adc = adc8();
        let fs = Some(32.0);

        let mut last_err = f64::INFINITY;
        for depth in [1usize, 2, 4, 8, 16, 32] {
            let out = accumulate_with_depth(&cycles, depth, Some(&adc), fs).unwrap();
            let err = relative_l2_error(&out, &exact);
            assert!(
                err <= last_err + 1e-6,
                "error should not increase with depth: depth {depth} err {err} > {last_err}"
            );
            last_err = err;
        }
    }

    #[test]
    fn depth_one_equals_per_cycle_baseline() {
        let cycles = vec![vec![0.3, -0.2], vec![0.7, 0.5], vec![-0.1, 0.4]];
        let adc = adc8();
        let fs = Some(4.0);
        let a = accumulate_with_depth(&cycles, 1, Some(&adc), fs).unwrap();
        let b = accumulate_quantized_per_cycle(&cycles, &adc, fs);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_cycles() {
        let adc = adc8();
        let none: [Vec<f64>; 0] = [];
        assert!(accumulate_with_depth(&none, 16, Some(&adc), None)
            .unwrap()
            .is_empty());
        assert!(accumulate_quantized_per_cycle(&[], &adc, None).is_empty());
    }

    #[test]
    fn readout_quantizes_with_adc() {
        let mut acc = TemporalAccumulator::new(1, 4).unwrap();
        acc.accumulate(&[0.123456]).unwrap();
        let adc = adc8();
        let out = acc.read_out(Some(&adc), Some(1.0));
        // Quantised to the 8-bit grid: multiple of 2/256.
        let lsb = 2.0 / 256.0;
        let ratio = out[0] / lsb;
        assert!((ratio - ratio.round()).abs() < 1e-9);
    }
}
