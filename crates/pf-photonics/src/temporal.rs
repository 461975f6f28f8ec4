//! Temporal accumulation at the photodetector (Section V-C).
//!
//! In an output-stationary dataflow the convolution results of consecutive
//! input channels must be summed. Doing that *after* an 8-bit ADC quantises
//! every partial sum wrecks accuracy; doing it *at the photodetector* — by
//! letting charge accumulate on a capacitor over up to 16 cycles before a
//! single read-out — keeps the accumulation at full precision and lets the
//! ADC run 16× slower. [`TemporalAccumulator`] is the capacitor bank and
//! [`accumulate_with_depth`] the one two-level accumulation loop over it
//! (analog within a group, digital across groups, Section V-F): the
//! Figure 7 experiment and the CNN executor's partial-sum path both run it
//! and differ only in the full scale they hand the ADC.

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
/// and `full_scale` are those of [`TemporalAccumulator::read_out`]. One bank
/// serves every group and each group is read out in place into the running
/// sum: the returned sum is the call's only other allocation.
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
    let mut accumulator = TemporalAccumulator::new(first.as_ref().len(), depth)?;
    let mut digital = vec![0.0; accumulator.lanes()];
    for (i, cycle) in cycles.iter().enumerate() {
        accumulator.accumulate(cycle.as_ref())?;
        if accumulator.is_full() || i + 1 == cycles.len() {
            accumulator.read_out_into(&mut digital, adc, full_scale);
        }
    }
    Ok(digital)
}
