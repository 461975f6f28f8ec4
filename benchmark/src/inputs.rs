//! Seeded input generation. The same `--seed` gives the same images,
//! kernels and model sequence; the program only ever receives what is
//! generated here.

use pf_dsp::conv::Matrix;
use pf_nn::Tensor;

/// SplitMix64: a tiny, well-mixed generator whose whole state is one
/// word, so independent streams are just different starting words.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, stream)`: streams of one seed do not overlap
    /// in practice (their starting words are themselves mixed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mix = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        mix.next_u64();
        mix
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[low, high)`.
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.next_f64()
    }
}

const STREAM_IMAGES: u64 = 1;
const STREAM_KERNELS: u64 = 2;
const STREAM_MODELS: u64 = 3;
const STREAM_PLANE: u64 = 4;

/// `count` images of shape `channels × size × size`, pixels in `[0, 1)`.
pub fn images(seed: u64, count: usize, channels: usize, size: usize) -> Vec<Tensor> {
    let mut rng = SplitMix64::new(seed, STREAM_IMAGES);
    (0..count)
        .map(|_| {
            let data = (0..channels * size * size)
                .map(|_| rng.next_f64())
                .collect();
            Tensor::new(vec![channels, size, size], data).expect("shape matches the data length")
        })
        .collect()
}

/// One `size × size` plane with values in `[0, 1)` (the `conv_fresh`
/// input).
pub fn plane(seed: u64, size: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed, STREAM_PLANE);
    let data = (0..size * size).map(|_| rng.next_f64()).collect();
    Matrix::new(size, size, data).expect("shape matches the data length")
}

/// An endless stream of `3 × 3` kernels with weights in `[-1, 1)`. Every
/// kernel draws nine fresh 53-bit values, so no kernel ever repeats and
/// none is ever found in a prepared-kernel cache.
#[derive(Debug, Clone)]
pub struct KernelStream(SplitMix64);

impl KernelStream {
    /// The kernel stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed, STREAM_KERNELS))
    }

    /// The next `count` kernels.
    pub fn take(&mut self, count: usize) -> Vec<Matrix> {
        (0..count)
            .map(|_| {
                let data = (0..9).map(|_| self.0.range(-1.0, 1.0)).collect();
                Matrix::new(3, 3, data).expect("nine weights fill a 3 x 3 kernel")
            })
            .collect()
    }
}

/// The model-variant key of each of `count` routed requests, uniform over
/// `models` variants.
pub fn model_sequence(seed: u64, count: usize, models: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, STREAM_MODELS);
    (0..count).map(|_| rng.next_u64() % models.max(1)).collect()
}
