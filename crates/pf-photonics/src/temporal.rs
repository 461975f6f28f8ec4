//! Temporal accumulation at the photodetector (Section V-C).
//!
//! In an output-stationary dataflow the convolution results of consecutive
//! input channels must be summed. Doing that *after* an 8-bit ADC quantises
//! every partial sum wrecks accuracy; doing it *at the photodetector* — by
//! letting charge accumulate on a capacitor over up to 16 cycles before a
//! single read-out — keeps the accumulation at full precision and lets the
//! ADC run 16× slower. [`TemporalAccumulator`] is the capacitor bank and
//! [`accumulate_with_depth_into`] the one two-level accumulation loop over
//! it (analog within a group, digital across groups, Section V-F): the
//! Figure 7 experiment and the CNN executor's partial-sum path both run it
//! and differ only in the full scale they hand the ADC.
//! [`accumulate_with_depth`] is its returning form, and
//! [`accumulate_quantized_per_cycle`] the per-cycle ADC baseline Figure 7
//! compares it against.

use serde::{Deserialize, Serialize};

use crate::adc::{peak_magnitude, Adc};
use crate::error::PhotonicsError;

/// Analog partial-sum accumulator sitting behind a bank of photodetectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalAccumulator {
    depth: usize,
    accumulated: Vec<f64>,
    cycles: usize,
}

impl TemporalAccumulator {
    /// Creates an accumulator for `lanes` parallel photodetectors that can
    /// integrate up to `depth` cycles before read-out.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `depth` or `lanes`
    /// is zero.
    pub fn new(lanes: usize, depth: usize) -> Result<Self, PhotonicsError> {
        for (name, value) in [("depth", depth), ("lanes", lanes)] {
            if value == 0 {
                return Err(PhotonicsError::InvalidParameter {
                    name,
                    value: 0.0,
                    requirement: "must be at least 1",
                });
            }
        }
        Ok(Self {
            depth,
            accumulated: vec![0.0; lanes],
            cycles: 0,
        })
    }

    /// Temporal accumulation depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of parallel lanes.
    pub fn lanes(&self) -> usize {
        self.accumulated.len()
    }

    /// Cycles accumulated since the last read-out.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Whether the capacitor bank is full and must be read out.
    pub fn is_full(&self) -> bool {
        self.cycles >= self.depth
    }

    /// Adds one cycle of photodetector outputs to the capacitors.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `partial.len()`
    /// differs from the number of lanes, or if the accumulator is already
    /// full (call [`TemporalAccumulator::read_out`] first).
    pub fn accumulate(&mut self, partial: &[f64]) -> Result<(), PhotonicsError> {
        if partial.len() != self.accumulated.len() {
            return Err(PhotonicsError::InvalidParameter {
                name: "partial",
                value: partial.len() as f64,
                requirement: "must have one sample per lane",
            });
        }
        if self.is_full() {
            return Err(PhotonicsError::InvalidParameter {
                name: "cycles",
                value: self.cycles as f64,
                requirement: "accumulator is full; call read_out() first",
            });
        }
        for (acc, &p) in self.accumulated.iter_mut().zip(partial) {
            *acc += p;
        }
        self.cycles += 1;
        Ok(())
    }

    /// Reads the group out and resets the capacitors: one conversion per
    /// lane through `adc`, or the accumulated analog values themselves when
    /// `adc` is `None` (the full-precision reference).
    ///
    /// `full_scale` is the ADC input range; `None` auto-ranges to the
    /// group's own maximum (an idealisation useful for sensitivity
    /// studies).
    pub fn read_out(&mut self, adc: Option<&Adc>, full_scale: Option<f64>) -> Vec<f64> {
        // `0.0 + x` is `x` for every `x` but `-0.0`, which neither the bank
        // (a sum onto `0.0`) nor the converter (`code · step − fs`) holds.
        let mut out = vec![0.0; self.accumulated.len()];
        self.read_out_into(&mut out, adc, full_scale);
        out
    }

    /// The one read-out body: converts the bank in place, adds the group's
    /// read-out into the running digital sum `digital` and resets the
    /// capacitors. Nothing is allocated.
    fn read_out_into(&mut self, digital: &mut [f64], adc: Option<&Adc>, full_scale: Option<f64>) {
        if let Some(adc) = adc {
            let fs =
                full_scale.unwrap_or_else(|| peak_magnitude(&self.accumulated).max(f64::EPSILON));
            adc.quantize_in_place(&mut self.accumulated, fs);
        }
        for (d, bank) in digital.iter_mut().zip(&mut self.accumulated) {
            *d += *bank;
            *bank = 0.0;
        }
        self.cycles = 0;
    }
}

/// Accumulates `cycles` through a [`TemporalAccumulator`] of the given depth,
/// reading out (and digitally summing the read-outs) whenever the capacitor
/// bank fills up — the two-level accumulation scheme of Section V-F. `adc`
/// and `full_scale` are those of [`TemporalAccumulator::read_out`].
///
/// A thin caller of [`accumulate_with_depth_into`], the one loop: it builds
/// the bank and the digital sum for this call alone and returns the sum.
/// A caller that accumulates many planes of one shape (the CNN executor,
/// once per output channel) keeps both and calls that form directly.
///
/// # Errors
///
/// Returns [`PhotonicsError::InvalidParameter`] if the cycles have
/// inconsistent lengths or `depth` is zero.
pub fn accumulate_with_depth<C: AsRef<[f64]>>(
    cycles: &[C],
    depth: usize,
    adc: Option<&Adc>,
    full_scale: Option<f64>,
) -> Result<Vec<f64>, PhotonicsError> {
    let Some(first) = cycles.first() else {
        return Ok(Vec::new());
    };
    let mut bank = TemporalAccumulator::new(first.as_ref().len(), depth)?;
    let mut digital = vec![0.0; bank.lanes()];
    accumulate_with_depth_into(
        &mut bank,
        cycles.iter().map(AsRef::as_ref),
        &mut digital,
        adc,
        full_scale,
    )?;
    Ok(digital)
}

/// The two-level accumulation loop, into the caller's buffers: every cycle
/// goes onto `bank`, which is read out whenever it is full and after the
/// last cycle, each read-out added into `digital`. `digital` is zeroed
/// first, so it ends as the sum of the read-outs; the bank ends empty and
/// serves the next call as it is. Nothing is allocated.
///
/// With no cycles `digital` is all zeros.
///
/// # Errors
///
/// Returns [`PhotonicsError::InvalidParameter`] if `digital` or a cycle is
/// not one sample per lane of `bank`, or if `bank` holds cycles not yet
/// read out. `digital` is then unspecified.
pub fn accumulate_with_depth_into<'a>(
    bank: &mut TemporalAccumulator,
    cycles: impl ExactSizeIterator<Item = &'a [f64]>,
    digital: &mut [f64],
    adc: Option<&Adc>,
    full_scale: Option<f64>,
) -> Result<(), PhotonicsError> {
    if digital.len() != bank.lanes() {
        return Err(PhotonicsError::InvalidParameter {
            name: "digital",
            value: digital.len() as f64,
            requirement: "must have one sample per lane",
        });
    }
    if bank.cycles() != 0 {
        return Err(PhotonicsError::InvalidParameter {
            name: "cycles",
            value: bank.cycles() as f64,
            requirement: "bank must be read out before a new accumulation",
        });
    }
    digital.fill(0.0);
    let last = cycles.len();
    for (i, cycle) in cycles.enumerate() {
        bank.accumulate(cycle)?;
        if bank.is_full() || i + 1 == last {
            bank.read_out_into(digital, adc, full_scale);
        }
    }
    Ok(())
}

/// Baseline behaviour without temporal accumulation: every cycle's partial
/// sums are quantised by the ADC and accumulated digitally — the per-cycle
/// curve Figure 7 compares [`accumulate_with_depth`] against. Returns the
/// final digital sums. `full_scale` has the same meaning as in
/// [`TemporalAccumulator::read_out`], applied per cycle.
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn one_bank_serves_many_accumulations() {
        let adc = Adc::new(8, 0.625, 0.93).unwrap();
        let planes: Vec<Vec<f64>> = (0..7)
            .map(|c| (0..5).map(|l| ((c * 5 + l) as f64 * 0.61).sin()).collect())
            .collect();
        let mut bank = TemporalAccumulator::new(5, 3).unwrap();
        let mut digital = vec![f64::NAN; 5];
        // Every cycle count, so the last group is full, partial or the
        // only one; every result must be the returning form's, bit for bit.
        for count in (0..=planes.len()).rev() {
            for (adc, fs) in [(Some(&adc), Some(4.0)), (Some(&adc), None), (None, None)] {
                let cycles = planes[..count].iter().map(Vec::as_slice);
                accumulate_with_depth_into(&mut bank, cycles, &mut digital, adc, fs).unwrap();
                let want = accumulate_with_depth(&planes[..count], 3, adc, fs).unwrap();
                let want = if count == 0 { vec![0.0; 5] } else { want };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&digital), bits(&want), "{count} cycles");
                assert_eq!(bank.cycles(), 0);
            }
        }

        let cycles = || planes.iter().map(Vec::as_slice);
        let mut short = vec![0.0; 4];
        assert!(accumulate_with_depth_into(&mut bank, cycles(), &mut short, None, None).is_err());
        bank.accumulate(&planes[0]).unwrap();
        assert!(
            accumulate_with_depth_into(&mut bank, cycles(), &mut digital, None, None).is_err(),
            "a bank with cycles pending is refused"
        );
    }

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
