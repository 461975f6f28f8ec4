//! Analog-to-digital converter model.
//!
//! ADCs perform the O-E read-out of the photodetector outputs. In the
//! baseline JTC system they dominate power (Figure 6); temporal accumulation
//! reduces their frequency 16× (Section V-C). The model is the uniform
//! mid-rise quantisation of a bounded analog value; a converter's power is
//! the Table IV figure it is built with, which the architecture model
//! charges (the NG scaling and the baseline's 10 GHz penalty are constants
//! in [`crate::params`]).
//!
//! The quantiser is the per-sample cost of every read-out, so its body is
//! written for the vector unit: one divide, and the rounding to a code
//! through [`round_half_away`] — `f64::round`, bit for bit, without the
//! out-of-line libm call the baseline x86-64 ISA compiles `round` to (which
//! also keeps the loop scalar). The same helper rounds the DAC's codes
//! ([`Dac::generate`](crate::dac::Dac::generate)) and `pf-nn`'s activation
//! quantiser.

use serde::{Deserialize, Serialize};

use crate::error::PhotonicsError;
use crate::units::Milliwatts;

/// `f64::round` — to the nearest integer, halves away from zero — for every
/// input, bit for bit, in branch-free arithmetic a loop can be vectorised
/// around.
///
/// Adding and subtracting 2⁵² rounds `|q|` to an integer in the FPU's own
/// mode, nearest-even; that differs from half-away only on a tie that went
/// *down* to the even neighbour (`|q| − t == 0.5`, an exact subtraction),
/// which takes one more. From 2⁵² up every `f64` is an integer already (and
/// the addition would round it), so those — and ±∞, and NaN, which fails
/// both comparisons — pass through. The sign bit is taken off first and
/// put back last, as bits, so `−0.3` rounds to `−0.0` and a NaN keeps its
/// sign.
///
/// `#[inline(always)]`: a converter loop compiled with AVX2 must get this
/// body at its own width, not a call into the baseline-ISA copy.
#[inline(always)]
pub fn round_half_away(q: f64) -> f64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let sign = q.to_bits() & (1 << 63);
    let magnitude = f64::from_bits(q.to_bits() ^ sign);
    let nearest_even = (magnitude + TWO_52) - TWO_52;
    let tie_went_down = if magnitude - nearest_even == 0.5 {
        1.0
    } else {
        0.0
    };
    let integral = if magnitude < TWO_52 {
        nearest_even + tie_went_down
    } else {
        magnitude
    };
    f64::from_bits(integral.to_bits() | sign)
}

/// The largest magnitude in `values`, `0.0` for an empty slice: the full
/// scale a converter auto-ranges to, and the scale every quantiser behind
/// one normalises by.
///
/// `values.iter().fold(0.0, |m, v| m.max(v.abs()))` for every input — a NaN
/// sample is skipped, ±0 read `0.0`, ±∞ read `+∞` — but without the fold's
/// one serial chain: eight running maxima, each a compare-select
/// (`if |v| > m { m = |v| }`, which `maxpd` computes), merged at the end.
/// Magnitudes carry no sign and a NaN never wins a comparison, so the order
/// of the merge cannot change the value.
#[inline]
pub fn peak_magnitude(values: &[f64]) -> f64 {
    const LANES: usize = 8;
    let max = |m: f64, v: f64| {
        let magnitude = v.abs();
        if magnitude > m {
            magnitude
        } else {
            m
        }
    };
    let mut lanes = [0.0f64; LANES];
    let mut blocks = values.chunks_exact(LANES);
    for block in &mut blocks {
        for (m, &v) in lanes.iter_mut().zip(block) {
            *m = max(*m, v);
        }
    }
    let peak = blocks.remainder().iter().fold(0.0, |m, &v| max(m, v));
    lanes.into_iter().fold(peak, max)
}

/// An idealised successive-approximation ADC with uniform quantisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    bits: u32,
    frequency_ghz: f64,
    power_mw: f64,
}

impl Adc {
    /// Creates an ADC model.
    ///
    /// `power_mw` is the power at `frequency_ghz`.
    ///
    /// # Errors
    ///
    /// Returns an error if `bits` is 0 or greater than 16, or if the
    /// frequency or power is not positive.
    pub fn new(bits: u32, frequency_ghz: f64, power_mw: f64) -> Result<Self, PhotonicsError> {
        if bits == 0 || bits > 16 {
            return Err(PhotonicsError::UnsupportedResolution { bits });
        }
        if frequency_ghz <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "frequency_ghz",
                value: frequency_ghz,
                requirement: "must be positive",
            });
        }
        if power_mw <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "power_mw",
                value: power_mw,
                requirement: "must be positive",
            });
        }
        Ok(Self {
            bits,
            frequency_ghz,
            power_mw,
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Sampling frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// Power at the configured sampling frequency.
    pub fn power(&self) -> Milliwatts {
        Milliwatts(self.power_mw)
    }

    /// Number of quantisation levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantises `value` assuming a symmetric full-scale range
    /// `[-full_scale, full_scale]`, returning the reconstructed analog value.
    ///
    /// Values outside the range are clipped (saturating converter), which is
    /// exactly what makes 8-bit partial sums lossy and motivates temporal
    /// accumulation (Section V-C).
    ///
    /// The converter is total over everything else: a NaN sample reads back
    /// NaN, and an infinite full scale has no finite code grid, so every
    /// sample reads back NaN instead of tripping an assertion.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize(&self, value: f64, full_scale: f64) -> f64 {
        let mut sample = [value];
        self.quantize_in_place(&mut sample, full_scale);
        sample[0]
    }

    /// Quantises an entire slice with a shared full-scale range.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize_slice(&self, values: &[f64], full_scale: f64) -> Vec<f64> {
        let mut out = values.to_vec();
        self.quantize_in_place(&mut out, full_scale);
        out
    }

    /// [`Adc::quantize`] over a slice, overwriting it: the one quantiser
    /// body, with the code grid (step and clip edges) computed once per
    /// call rather than once per sample.
    ///
    /// The body is compiled twice — for the build's baseline ISA and, on
    /// x86-64, with AVX2 — and this call picks by `is_x86_feature_detected!`.
    /// The step is a division (a multiply by its reciprocal would round
    /// differently), so what AVX2 buys is four samples per operation instead
    /// of two. The two cannot differ in a bit: every operation is IEEE-exact
    /// per lane and nothing is contracted.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize_in_place(&self, values: &mut [f64], full_scale: f64) {
        assert!(full_scale > 0.0, "full_scale must be positive");
        let step = 2.0 * full_scale / self.levels() as f64;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one requirement of a `#[target_feature]` function
            // is that the CPU has the feature, checked on the line above.
            unsafe { quantize_avx2(values, full_scale, step) };
            return;
        }
        quantize_body(values, full_scale, step);
    }

    /// Worst-case quantisation error (half an LSB) for the given full scale.
    pub fn max_quantization_error(&self, full_scale: f64) -> f64 {
        full_scale / self.levels() as f64
    }
}

/// The quantiser of [`Adc::quantize_in_place`] on the code grid of
/// `full_scale` and `step`, inlined into each instantiation.
#[inline(always)]
fn quantize_body(values: &mut [f64], full_scale: f64, step: f64) {
    let (low, high) = (-full_scale, full_scale - step);
    for v in values {
        // `f64::clamp` spelled out, because it asserts `low <= high` and
        // an infinite full scale makes `high` NaN: both comparisons are
        // then false and the NaN surfaces in the code arithmetic below.
        let mut clipped = *v;
        if clipped < low {
            clipped = low;
        }
        if clipped > high {
            clipped = high;
        }
        let code = round_half_away((clipped + full_scale) / step);
        *v = code * step - full_scale;
    }
}

/// [`quantize_body`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_avx2(values: &mut [f64], full_scale: f64, step: f64) {
    quantize_body(values, full_scale, step);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc8() -> Adc {
        Adc::new(8, 0.625, 0.93).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Adc::new(0, 1.0, 1.0).is_err());
        assert!(Adc::new(20, 1.0, 1.0).is_err());
        assert!(Adc::new(8, -1.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 0.0).is_err());
        assert!(Adc::new(8, 1.0, 1.0).is_ok());
    }

    #[test]
    fn paper_adc_parameters() {
        let adc = adc8();
        assert_eq!(adc.bits(), 8);
        assert_eq!(adc.levels(), 256);
        assert_eq!(adc.power(), Milliwatts(0.93));
    }

    #[test]
    fn quantization_is_idempotent() {
        let adc = adc8();
        for &v in &[0.0, 0.3, -0.77, 0.99, -1.0] {
            let q1 = adc.quantize(v, 1.0);
            let q2 = adc.quantize(q1, 1.0);
            assert!((q1 - q2).abs() < 1e-12);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = adc8();
        let full_scale = 2.0;
        let lsb = 2.0 * full_scale / 256.0;
        for i in 0..1000 {
            let v = -full_scale + (i as f64 / 999.0) * (2.0 * full_scale - lsb);
            let q = adc.quantize(v, full_scale);
            assert!(
                (q - v).abs() <= lsb / 2.0 + 1e-12,
                "error too large at {v}: {q}"
            );
        }
        assert!((adc.max_quantization_error(full_scale) - full_scale / 256.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_clips_out_of_range() {
        let adc = adc8();
        let q = adc.quantize(10.0, 1.0);
        assert!(q <= 1.0);
        let q = adc.quantize(-10.0, 1.0);
        assert!(q >= -1.0 - 1e-12);
    }

    /// The per-sample quantiser as it stood before the code grid was
    /// hoisted out of the loop: `f64::clamp` and everything recomputed per
    /// call. Kept as the oracle for the one in-place body.
    fn quantize_oracle(adc: &Adc, value: f64, full_scale: f64) -> f64 {
        let levels = adc.levels() as f64;
        let step = 2.0 * full_scale / levels;
        let clipped = value.clamp(-full_scale, full_scale - step);
        let code = ((clipped + full_scale) / step).round();
        code * step - full_scale
    }

    #[test]
    fn quantize_slice_matches_scalar() {
        for bits in [1u32, 4, 8, 12] {
            let adc = Adc::new(bits, 1.0, 1.0).unwrap();
            for full_scale in [1.0, 0.37, 2.0, f64::EPSILON, 1e200, 8e307] {
                let step = 2.0 * full_scale / adc.levels() as f64;
                // ±full scale and beyond, both clip edges and their
                // neighbours, every exact half-code (where `round` decides),
                // a dense interior sweep, signed zeros and the non-finites.
                let mut vals = vec![
                    full_scale,
                    -full_scale,
                    full_scale * 1.5,
                    -full_scale * 1.5,
                    full_scale - step,
                    (full_scale - step).next_down(),
                    (full_scale - step).next_up(),
                    (-full_scale).next_up(),
                    0.0,
                    -0.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                for code in 0..adc.levels().min(512) {
                    let half = (f64::from(code) + 0.5) * step - full_scale;
                    vals.extend([half, half.next_down(), half.next_up()]);
                }
                vals.extend((0..2000).map(|i| (f64::from(i) / 999.5 - 1.0) * 1.01 * full_scale));

                let mut in_place = vals.clone();
                adc.quantize_in_place(&mut in_place, full_scale);
                let by_slice = adc.quantize_slice(&vals, full_scale);
                for ((&v, q), s) in vals.iter().zip(&in_place).zip(&by_slice) {
                    let want = quantize_oracle(&adc, v, full_scale).to_bits();
                    assert_eq!(q.to_bits(), want, "{bits} bits, fs {full_scale}, v {v}");
                    assert_eq!(s.to_bits(), want);
                    assert_eq!(adc.quantize(v, full_scale).to_bits(), want);
                }
            }
        }
    }

    /// Where rounding decides (the table `pf-nn`'s `round_half_away` test
    /// holds the helper to): ±0, subnormals, every half up to 300 and its
    /// neighbours, magnitudes around 2⁵² and beyond, NaN and ±∞ — read as
    /// samples, so under a full scale of 128 with 8 bits (a step of one)
    /// each half is a half-code.
    fn rounding_table() -> Vec<f64> {
        const TWO_52: f64 = (1u64 << 52) as f64;
        let mut table = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let halves = (0..300).map(|k| f64::from(k) + 0.5);
        let specials = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            255.0,
            TWO_52 - 0.5,
            TWO_52,
            1e300,
            f64::MAX,
        ];
        for v in specials.into_iter().chain(halves) {
            table.extend([v, v.next_down(), v.next_up()]);
            table.extend([-v, -v.next_down(), -v.next_up()]);
        }
        table
    }

    #[test]
    fn both_quantizer_instantiations_are_the_scalar_converter_bit_for_bit() {
        for bits in [1u32, 8, 12] {
            let adc = Adc::new(bits, 1.0, 1.0).unwrap();
            for full_scale in [1.0, 128.0, 0.37, f64::MIN_POSITIVE, 8e307, f64::INFINITY] {
                let step = 2.0 * full_scale / adc.levels() as f64;
                let mut values = rounding_table();
                // The clip edges and their neighbours, and the first
                // half-codes of this grid.
                for edge in [full_scale, -full_scale, full_scale - step] {
                    values.extend([edge, edge.next_down(), edge.next_up()]);
                }
                for code in 0..adc.levels().min(64) {
                    let half = (f64::from(code) + 0.5) * step - full_scale;
                    values.extend([half, half.next_down(), half.next_up()]);
                }
                let want: Vec<u64> = values
                    .iter()
                    .map(|&v| adc.quantize(v, full_scale).to_bits())
                    .collect();
                if full_scale.is_finite() {
                    for (&v, &w) in values.iter().zip(&want) {
                        let oracle = quantize_oracle(&adc, v, full_scale).to_bits();
                        assert_eq!(w, oracle, "{bits} bits, fs {full_scale}, v {v:e}");
                    }
                }
                // Every length from 0 to 17, so every vector tail is hit.
                for len in 0..=17usize {
                    for (at, chunk) in values.chunks(len.max(1)).enumerate() {
                        let chunk = &chunk[..chunk.len().min(len)];
                        let want = &want[at * len.max(1)..][..chunk.len()];
                        let what = format!("{bits} bits, fs {full_scale}, len {len}, chunk {at}");
                        let mut baseline = chunk.to_vec();
                        quantize_body(&mut baseline, full_scale, step);
                        let got: Vec<u64> = baseline.iter().map(|q| q.to_bits()).collect();
                        assert_eq!(got, want, "{what}: baseline ISA");
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("avx2") {
                            let mut lanes = chunk.to_vec();
                            // SAFETY: the CPU has AVX2, checked on the line
                            // above.
                            unsafe { quantize_avx2(&mut lanes, full_scale, step) };
                            let got: Vec<u64> = lanes.iter().map(|q| q.to_bits()).collect();
                            assert_eq!(got, want, "{what}: AVX2");
                        }
                        let mut dispatched = chunk.to_vec();
                        adc.quantize_in_place(&mut dispatched, full_scale);
                        let got: Vec<u64> = dispatched.iter().map(|q| q.to_bits()).collect();
                        assert_eq!(got, want, "{what}: dispatched");
                    }
                }
            }
        }
    }

    #[test]
    fn infinite_full_scale_reads_back_nan_without_panicking() {
        // The oracle's `clamp` panics here ("min > max, or either was NaN").
        let adc = adc8();
        for v in [0.0, 1.0, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(adc.quantize(v, f64::INFINITY).is_nan());
        }
        assert!(adc
            .quantize_slice(&[0.5, -0.5], f64::INFINITY)
            .iter()
            .all(|q| q.is_nan()));
    }

    #[test]
    #[should_panic(expected = "full_scale must be positive")]
    fn quantize_rejects_bad_full_scale() {
        adc8().quantize(0.0, 0.0);
    }

    /// The serial fold every peak scan was before [`peak_magnitude`].
    fn peak_oracle(values: &[f64]) -> f64 {
        values.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    #[test]
    fn peak_magnitude_is_the_serial_fold() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e300,
            0.75,
        ];
        let base = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((i as f64) * 0.73).sin() * (1.0 + i as f64))
                .collect()
        };
        for len in (0..=9).chain([1000]) {
            let mut cases = vec![base(len)];
            // A NaN in every position — so in every lane and in the tail —
            // alone and beside every special value, at the start of the
            // slice and at its end.
            for at in 0..len {
                let mut with_nan = base(len);
                with_nan[at] = f64::NAN;
                cases.push(with_nan.clone());
                for &special in &specials {
                    let mut both = with_nan.clone();
                    both[(at + 1) % len] = special;
                    both[len - 1 - at] = -special;
                    cases.push(both);
                }
            }
            cases.extend(specials.iter().map(|&s| vec![s; len]));
            cases.push(vec![f64::NAN; len]);
            for values in &cases {
                let (got, want) = (peak_magnitude(values), peak_oracle(values));
                assert_eq!(got.to_bits(), want.to_bits(), "{values:?}");
            }
        }
    }

    #[test]
    fn more_bits_means_finer_quantization() {
        let coarse = Adc::new(4, 1.0, 1.0).unwrap();
        let fine = Adc::new(12, 1.0, 1.0).unwrap();
        assert!(fine.max_quantization_error(1.0) < coarse.max_quantization_error(1.0));
    }
}
