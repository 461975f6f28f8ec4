//! Read-out noise of the output-plane photodetectors.
//!
//! The detectors' square-law response is the JTC's non-linearity, which
//! the correlator simulates as the intensity of the joint Fourier plane;
//! their integration capacitor — **temporal accumulation** (Section V-C):
//! charge from up to 16 consecutive cycles summed before a single ADC
//! read-out — is [`crate::temporal::TemporalAccumulator`], the bank the CNN
//! executor runs.
//!
//! [`SensingNoise`] is the read-out noise of those detectors as the
//! accuracy experiments model it: additive zero-mean Gaussian noise at a
//! configured SNR, **keyed by position**: sample `j` of a seed's stream is
//! the [`standard_normal`] law (a 128-layer ziggurat — one 64-bit word,
//! one table look-up, one multiply and one compare on 97.2 % of draws; the
//! wedges and the tail are sampled exactly, with libm, on the rest) applied
//! to word `j` of a counter-based generator keyed by the seed, its rare
//! retries to a sequence of its own. A sample's noise is a pure function
//! of (seed, position) and each sample takes exactly one position, so how
//! samples are grouped into blocks is invisible: two back-to-back blocks
//! draw what their concatenation draws, and so do four blocks reserved at
//! once.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::adc::peak_magnitude;
use crate::error::PhotonicsError;

/// Layers of the ziggurat: the low 7 bits of a word pick one, its top 53
/// the position within it.
const LAYERS: usize = 128;
const _: () = assert!(LAYERS.is_power_of_two() && LAYERS.trailing_zeros() + 53 <= 64);
/// Where the base layer's rectangle ends and the tail begins (Marsaglia &
/// Tsang's constant for 128 layers of the unnormalised density
/// `f(x) = exp(−x²/2)`).
const TAIL_START: f64 = 3.442_619_855_899;
/// The area of every layer — of the base layer, rectangle plus tail.
const LAYER_AREA: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's 2 KB of tables: `x[i]` is the right edge of layer `i`
/// (widest first — `x[0]` is the base layer's *virtual* edge,
/// `LAYER_AREA / f(TAIL_START)`, `x[1] = TAIL_START`, `x[LAYERS] = 0`) and
/// `f[i] = exp(−x[i]²/2)` the density there.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// A word the one-word path could not settle: the layer it picked, its
/// uniform `u` in `[−1, 1)` and the candidate `x = u·x[layer]`.
struct Miss {
    layer: usize,
    u: f64,
    x: f64,
}

impl Ziggurat {
    /// The tables, built on first use: equal-area layers stacked from the
    /// tail up, `x[i+1] = f⁻¹(LAYER_AREA / x[i] + f(x[i]))`.
    fn shared() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let density = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; LAYERS + 1];
            x[0] = LAYER_AREA / density(TAIL_START);
            x[1] = TAIL_START;
            for i in 1..LAYERS - 1 {
                x[i + 1] = (-2.0 * (LAYER_AREA / x[i] + density(x[i])).ln()).sqrt();
            }
            Ziggurat {
                f: x.map(density),
                x,
            }
        })
    }

    /// The one-word path: the low 7 bits of `bits` pick a layer, its top
    /// 53 a uniform `u` in `[−1, 1)` (disjoint bits, so the layer and the
    /// position within it cannot correlate), and `u·x[layer]` is the draw
    /// whenever it falls under the next layer up — inside the part of the
    /// layer that lies wholly below the density.
    #[inline(always)]
    fn place(&self, bits: u64) -> Result<f64, Miss> {
        let layer = (bits & (LAYERS as u64 - 1)) as usize;
        // The top 53 bits as a multiple of 2⁻⁵² in [0, 2), shifted to
        // [−1, 1): every step is exact.
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        let x = u * self.x[layer];
        if x.abs() < self.x[layer + 1] {
            Ok(x)
        } else {
            Err(Miss { layer, u, x })
        }
    }

    /// Settles a miss exactly, on further words from `rng`: in a wedge by
    /// one more uniform against the density itself, in the tail of the
    /// base layer by Marsaglia's exponential rejection — or rejects it, and
    /// the draw starts over on a fresh word. Out of line: 2.8 % of draws
    /// come here.
    #[cold]
    #[inline(never)]
    fn settle(&self, mut miss: Miss, rng: &mut impl RngCore) -> f64 {
        loop {
            let Miss { layer, u, x } = miss;
            if layer == 0 {
                // |x| landed past the rectangle of the base layer: draw
                // from the tail beyond TAIL_START, on the side `u` picked.
                loop {
                    let along = open_unit(rng).ln() / TAIL_START;
                    let across = open_unit(rng).ln();
                    if -2.0 * across >= along * along {
                        return (TAIL_START - along).copysign(u);
                    }
                }
            }
            // A wedge: uniform in height over the layer, kept when it
            // falls under the curve.
            let height = self.f[layer + 1] + (self.f[layer] - self.f[layer + 1]) * open_unit(rng);
            if height < (-0.5 * x * x).exp() {
                return x;
            }
            miss = match self.place(rng.next_u64()) {
                Ok(x) => return x,
                Err(miss) => miss,
            };
        }
    }
}

/// A uniform draw from the open interval `(0, 1)`: 52 bits, centred in
/// their cell (exactly), so that `ln` sees neither a zero nor a one.
fn open_unit(rng: &mut impl RngCore) -> f64 {
    ((rng.next_u64() >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// One standard normal draw from `rng`: the ziggurat method over 128 layers.
///
/// The common path spends one `next_u64`: its low 7 bits pick a layer, its
/// top 53 a uniform `u` in `[−1, 1)`, and `u·x[layer]` is the draw
/// whenever it falls under the next layer up. Otherwise the draw is
/// settled exactly on further words: in a wedge by one more uniform
/// against the density itself, in the tail of the base layer by
/// Marsaglia's exponential rejection — or rejected, and the whole draw
/// starts over. The accepted values are exactly normal whatever `LAYERS`
/// is; the tables only set how often the slow paths run (2.8 % of draws
/// see a wedge test, 5.7·10⁻⁴ the tail).
///
/// Generic over the word source. [`SensingNoise`] runs the same tables,
/// wedge and tail on keyed words instead: the first word of sample `j` is
/// word `j` of its key, the rest come from a sequence of that sample's own.
pub fn standard_normal(rng: &mut impl RngCore) -> f64 {
    let zig = Ziggurat::shared();
    match zig.place(rng.next_u64()) {
        Ok(x) => x,
        Err(miss) => zig.settle(miss, rng),
    }
}

/// wyrand's Weyl increment and multiplier mask.
const WY_INCREMENT: u64 = 0xa076_1d64_78bd_642f;
const WY_MASK: u64 = 0xe703_7ed1_a0b4_28db;
/// Parts a stream's retry key from its key.
const RETRY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word `position` of the sequence keyed by `key`: wyrand's output
/// function (one 64 × 64 → 128-bit multiply, the halves folded) on step
/// `position` of a Weyl sequence that starts at `key`. A pure function of
/// the pair, so words can be taken in any order and several at a time.
#[inline(always)]
fn word(key: u64, position: u64) -> u64 {
    let s = key.wrapping_add(position.wrapping_mul(WY_INCREMENT));
    let t = u128::from(s) * u128::from(s ^ WY_MASK);
    (t >> 64) as u64 ^ t as u64
}

/// A keyed sequence read in order: the word source of one sample's wedge
/// and tail retries.
struct Keyed {
    key: u64,
    position: u64,
}

impl RngCore for Keyed {
    fn next_u64(&mut self) -> u64 {
        let bits = word(self.key, self.position);
        self.position += 1;
        bits
    }
}

/// Sample `position` of the stream keyed by `key`: the ziggurat on word
/// `position`; a miss is settled on the sample's own retry sequence, keyed
/// by word `position` of the retry key, so a sample consumes one position
/// whatever is rejected.
#[inline(always)]
fn normal_at(zig: &Ziggurat, key: u64, position: u64) -> f64 {
    match zig.place(word(key, position)) {
        Ok(x) => x,
        Err(miss) => {
            let mut retries = Keyed {
                key: word(key ^ RETRY_SALT, position),
                position: 0,
            };
            zig.settle(miss, &mut retries)
        }
    }
}

/// Additive Gaussian sensing-noise model used by the accuracy experiments
/// (Figure 7 simulates "applying square function to partial sums and adding
/// sensing noise"): zero-mean, standard deviation `sigma`, independent per
/// sample, **keyed by position**: sample `j` of a seed's stream is a pure
/// function of (seed, `j`).
///
/// The source is a key, a position and `sigma`. Every entry point is a
/// caller of [`SensingNoise::add_scaled_blocks`], which reserves one
/// position per sample, in order, and draws the [`standard_normal`] law
/// there — so neither the *law* nor the *values* a seed produces depend on
/// how samples are grouped into blocks: replaying a seeded run means
/// replaying how many samples it drew before each block.
#[derive(Debug, Clone)]
pub struct SensingNoise {
    /// The seed's key: the first word of the seed's `StdRng` stream.
    key: u64,
    /// Samples drawn so far: the position the next sample takes.
    position: u64,
    sigma: f64,
}

impl SensingNoise {
    /// Creates a noise source with standard deviation `sigma` (relative to
    /// the signal units it will be added to) and a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if sigma < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                requirement: "must be non-negative",
            });
        }
        Ok(Self {
            key: StdRng::seed_from_u64(seed).next_u64(),
            position: 0,
            sigma,
        })
    }

    /// Creates a noise source whose standard deviation corresponds to the
    /// given SNR (in dB) for signals with RMS value `signal_rms`.
    ///
    /// # Errors
    ///
    /// Returns an error if `signal_rms` is negative.
    pub fn from_snr_db(snr_db: f64, signal_rms: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if signal_rms < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "signal_rms",
                value: signal_rms,
                requirement: "must be non-negative",
            });
        }
        let sigma = signal_rms / 10f64.powf(snr_db / 20.0);
        Self::new(sigma, seed)
    }

    /// Noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Adds Gaussian noise to a single value: a one-sample
    /// [`SensingNoise::add_scaled`] block.
    pub fn perturb(&mut self, value: f64) -> f64 {
        let mut sample = [value];
        self.add_scaled(&mut sample, 1.0);
        sample[0]
    }

    /// Adds independent Gaussian noise to every element of a slice: one
    /// [`SensingNoise::add_scaled`] block over a copy.
    pub fn perturb_slice(&mut self, values: &[f64]) -> Vec<f64> {
        let mut out = values.to_vec();
        self.add_scaled(&mut out, 1.0);
        out
    }

    /// Adds one block of independent Gaussian noise, `sigma * scale` per
    /// sample, to `out` in place and returns the block's peak magnitude
    /// after the add (the full scale an ADC behind the detector converts
    /// against, so the caller needs no second scan): a one-block
    /// [`SensingNoise::add_scaled_blocks`].
    pub fn add_scaled(&mut self, out: &mut [f64], scale: f64) -> f64 {
        let [peak] = self.add_scaled_blocks([out], [scale]);
        peak
    }

    /// Adds noise to `L` blocks as one reservation — block `b` scaled by
    /// `scales[b]` and taking the positions right after block `b − 1`'s —
    /// and returns each block's peak magnitude after the add: exactly what
    /// `L` back-to-back [`SensingNoise::add_scaled`] calls draw and return.
    ///
    /// The one draw body: one sample per position, the blocks interleaved
    /// (one sample of each per step, `L` independent counters), then each
    /// block's peak in a pass of its own — a running maximum in the draw
    /// loop is a loop-carried chain, which the slow path's out-of-line call
    /// pins to general registers. `sigma == 0` consumes nothing; an empty
    /// block consumes nothing and reads peak 0.
    pub fn add_scaled_blocks<const L: usize>(
        &mut self,
        blocks: [&mut [f64]; L],
        scales: [f64; L],
    ) -> [f64; L] {
        if self.sigma != 0.0 {
            let zig = Ziggurat::shared();
            let key = self.key;
            let starts = blocks.each_ref().map(|block| {
                let start = self.position;
                self.position += block.len() as u64;
                start
            });
            let sigmas = scales.map(|scale| self.sigma * scale);
            let steps = blocks.iter().map(|block| block.len()).max().unwrap_or(0);
            for i in 0..steps {
                for b in 0..L {
                    if let Some(v) = blocks[b].get_mut(i) {
                        *v += normal_at(zig, key, starts[b] + i as u64) * sigmas[b];
                    }
                }
            }
        }
        blocks.map(|block| peak_magnitude(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ziggurat_layers_are_stacked_with_equal_areas() {
        let zig = Ziggurat::shared();
        // Edges narrow and densities climb from the base layer to the top,
        // which closes on the mode.
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        assert!(zig.f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!((zig.x[1], zig.x[LAYERS]), (TAIL_START, 0.0));
        assert_eq!(zig.f[LAYERS], 1.0);
        // Every layer above the base is an x[i] × (f[i+1] − f[i]) box of
        // the same area — the top one too, which no step of the recursion
        // forced: it closes only if TAIL_START and LAYER_AREA are the pair
        // for this many layers.
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!(
                (area / LAYER_AREA - 1.0).abs() < 1e-8,
                "layer {i}: area {area}"
            );
        }
        // The base layer: its rectangle plus the tail beyond it,
        // sqrt(π/2)·erfc(TAIL_START/√2) = 7.2204e-4 (the tail mass the law
        // test counts, unnormalised).
        let base = TAIL_START * zig.f[1] + 7.220_449_4e-4;
        assert!((base / LAYER_AREA - 1.0).abs() < 1e-6, "base area {base}");
    }

    #[test]
    fn sensing_noise_statistics() {
        let mut noise = SensingNoise::new(0.1, 42).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.perturb(0.0)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn sensing_noise_is_deterministic_per_seed() {
        let mut a = SensingNoise::new(0.5, 7).unwrap();
        let mut b = SensingNoise::new(0.5, 7).unwrap();
        let va: Vec<f64> = (0..10).map(|_| a.perturb(1.0)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.perturb(1.0)).collect();
        assert_eq!(va, vb);
        let mut c = SensingNoise::new(0.5, 8).unwrap();
        let vc: Vec<f64> = (0..10).map(|_| c.perturb(1.0)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let mut noise = SensingNoise::new(0.0, 1).unwrap();
        assert_eq!(noise.perturb(3.5), 3.5);
        assert_eq!(noise.perturb_slice(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn noise_from_snr() {
        let noise = SensingNoise::from_snr_db(20.0, 1.0, 3).unwrap();
        assert!((noise.sigma() - 0.1).abs() < 1e-12);
        assert!(SensingNoise::from_snr_db(20.0, -1.0, 3).is_err());
        assert!(SensingNoise::new(-0.1, 0).is_err());
    }
}
