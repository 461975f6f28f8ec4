//! The butterflies, written once.
//!
//! Every plan executes as "gather the input through a table built at plan
//! time, then run combine passes in place". The passes — radix-2/3/4/5
//! combine butterflies, radix-2 alone for a power of two — are generic over
//! an [`Element`]: [`Complex`] is one transform, [`ComplexLanes`] is
//! [`LANES`] independent transforms carried through each butterfly
//! together. Every lane executes the expression sequence the one-lane
//! instantiation executes, so a lane's result is bit-identical to
//! transforming that lane alone.
//!
//! Everything here is `#[inline(always)]`: the real-input transforms (the
//! first lens' packed-even body and the symmetric-input body) instantiate
//! their whole bodies once per element and, over lanes, once more per ISA
//! (the build's baseline and AVX2, see
//! [`RealFftPlan::forward_real_batch_into`](crate::plan::RealFftPlan::forward_real_batch_into)
//! and
//! [`RealFftPlan::forward_real_bins_lanes`](crate::plan::RealFftPlan::forward_real_bins_lanes)),
//! and a butterfly left out of line would be compiled for the baseline ISA
//! only.

use std::ops::{Add, Mul, Sub};

use crate::complex::{Complex, ComplexLanes, LANES};

/// What a butterfly needs of the values it combines: addition,
/// subtraction, multiplication by one (scalar) twiddle, and the exact
/// sign/swap operations.
pub(crate) trait Element:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Complex, Output = Self>
{
    /// The real samples an element is packed from: one `f64` per transform
    /// carried.
    type Real: Copy;
    /// Every transform carried at `0 + 0i`.
    const ZERO: Self;
    /// `re + i·im`, per transform carried.
    fn pack(re: Self::Real, im: Self::Real) -> Self;
    /// The real part, per transform carried.
    fn re(self) -> Self::Real;
    /// Multiplies by a real scalar.
    fn scale(self, s: f64) -> Self;
    /// `s_re·re + i·s_im·im`: each part times its own real scalar (two real
    /// samples riding one element, each with its own table entry).
    fn scale_parts(self, s_re: f64, s_im: f64) -> Self;
    /// Complex conjugate.
    fn conj(self) -> Self;
    /// `i·z` without a full complex multiply.
    fn mul_i(self) -> Self;
    /// `-i·z` without a full complex multiply.
    fn mul_neg_i(self) -> Self;
}

impl Element for Complex {
    type Real = f64;
    const ZERO: Self = Complex::ZERO;

    #[inline(always)]
    fn pack(re: f64, im: f64) -> Self {
        Complex::new(re, im)
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Complex::scale(self, s)
    }

    #[inline(always)]
    fn scale_parts(self, s_re: f64, s_im: f64) -> Self {
        Complex::new(self.re * s_re, self.im * s_im)
    }

    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }

    #[inline(always)]
    fn mul_i(self) -> Self {
        Complex::new(-self.im, self.re)
    }

    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        Complex::new(self.im, -self.re)
    }
}

#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> [f64; LANES] {
    std::array::from_fn(f)
}

impl Add for ComplexLanes {
    type Output = ComplexLanes;
    #[inline(always)]
    fn add(self, rhs: ComplexLanes) -> ComplexLanes {
        ComplexLanes {
            re: lanes(|l| self.re[l] + rhs.re[l]),
            im: lanes(|l| self.im[l] + rhs.im[l]),
        }
    }
}

impl Sub for ComplexLanes {
    type Output = ComplexLanes;
    #[inline(always)]
    fn sub(self, rhs: ComplexLanes) -> ComplexLanes {
        ComplexLanes {
            re: lanes(|l| self.re[l] - rhs.re[l]),
            im: lanes(|l| self.im[l] - rhs.im[l]),
        }
    }
}

impl Mul<Complex> for ComplexLanes {
    type Output = ComplexLanes;
    /// Every lane times the same `rhs`, in [`Complex`]'s own expression.
    #[inline(always)]
    fn mul(self, rhs: Complex) -> ComplexLanes {
        ComplexLanes {
            re: lanes(|l| self.re[l] * rhs.re - self.im[l] * rhs.im),
            im: lanes(|l| self.re[l] * rhs.im + self.im[l] * rhs.re),
        }
    }
}

impl Element for ComplexLanes {
    type Real = [f64; LANES];
    const ZERO: Self = ComplexLanes::ZERO;

    #[inline(always)]
    fn pack(re: [f64; LANES], im: [f64; LANES]) -> Self {
        ComplexLanes { re, im }
    }

    #[inline(always)]
    fn re(self) -> [f64; LANES] {
        self.re
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        ComplexLanes {
            re: lanes(|l| self.re[l] * s),
            im: lanes(|l| self.im[l] * s),
        }
    }

    #[inline(always)]
    fn scale_parts(self, s_re: f64, s_im: f64) -> Self {
        ComplexLanes {
            re: lanes(|l| self.re[l] * s_re),
            im: lanes(|l| self.im[l] * s_im),
        }
    }

    #[inline(always)]
    fn conj(self) -> Self {
        ComplexLanes {
            re: self.re,
            im: lanes(|l| -self.im[l]),
        }
    }

    #[inline(always)]
    fn mul_i(self) -> Self {
        ComplexLanes {
            re: lanes(|l| -self.im[l]),
            im: self.re,
        }
    }

    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        ComplexLanes {
            re: self.im,
            im: lanes(|l| -self.re[l]),
        }
    }
}

/// The combine passes of a mixed-radix decimation-in-time transform over
/// `data` gathered in leaf order ([`leaf_order`]): one pass per factor,
/// innermost first, each over every contiguous sub-transform of its level.
/// `factors` is outermost first, `twiddles` the full table
/// `exp(-2πik/n)` for `k in 0..n`.
#[inline(always)]
pub(crate) fn mixed_passes<E: Element>(
    data: &mut [E],
    factors: &[usize],
    twiddles: &[Complex],
    inverse: bool,
) {
    let n = data.len();
    let mut len = 1;
    for &r in factors.iter().rev() {
        len *= r;
        for block in data.chunks_exact_mut(len) {
            combine(block, r, twiddles, n / len, inverse);
        }
    }
}

/// Where each slot of a mixed-radix transform's working buffer reads its
/// input: decimation in time over `factors` (outermost first) sends input
/// `Σ q_l · stride_l` to slot `Σ q_l · span_l`, digit by digit.
pub(crate) fn leaf_order(n: usize, factors: &[usize]) -> Vec<u32> {
    (0..n)
        .map(|slot| {
            let (mut rem, mut span, mut stride, mut src) = (slot, n, 1, 0);
            for &r in factors {
                span /= r;
                src += (rem / span) * stride;
                rem %= span;
                stride *= r;
            }
            src as u32
        })
        .collect()
}

/// Combines the `r` length-`m` sub-transforms held back to back in `block`:
/// `X[k + t·m] = Σ_q (Y_q[k]·W_N^{qk·(N/n)}) · W_r^{qt}`, with the inner
/// r-point DFT unrolled into a specialised butterfly and the twiddle
/// indices advanced incrementally (`q·k·tw_stride` stays below `N`, so no
/// modular reduction is needed).
#[inline(always)]
fn combine<E: Element>(
    block: &mut [E],
    r: usize,
    twiddles: &[Complex],
    tw_stride: usize,
    inverse: bool,
) {
    let m = block.len() / r;
    // Inverse transforms conjugate the twiddles; the `-1·im` multiply is
    // bit-identical to `conj()` and keeps the loops branch-free.
    let (sign, im_sign) = if inverse { (1.0, -1.0) } else { (-1.0, 1.0) };
    let tw = |idx: usize| {
        let w = twiddles[idx];
        Complex::new(w.re, w.im * im_sign)
    };
    match r {
        2 => {
            let (d0, d1) = block.split_at_mut(m);
            let mut i1 = 0usize;
            for k in 0..m {
                let t0 = d0[k];
                let t1 = d1[k] * tw(i1);
                d0[k] = t0 + t1;
                d1[k] = t0 - t1;
                i1 += tw_stride;
            }
        }
        3 => {
            let s3 = 3.0f64.sqrt() * 0.5;
            let (d0, tail) = block.split_at_mut(m);
            let (d1, d2) = tail.split_at_mut(m);
            let (mut i1, mut i2) = (0usize, 0usize);
            for k in 0..m {
                let t0 = d0[k];
                let t1 = d1[k] * tw(i1);
                let t2 = d2[k] * tw(i2);
                let sum = t1 + t2;
                let diff = t1 - t2;
                let a = t0 + sum.scale(-0.5);
                let b = diff.mul_i().scale(sign * s3);
                d0[k] = t0 + sum;
                d1[k] = a + b;
                d2[k] = a - b;
                i1 += tw_stride;
                i2 += 2 * tw_stride;
            }
        }
        4 => {
            let (lo, hi) = block.split_at_mut(2 * m);
            let (d0, d1) = lo.split_at_mut(m);
            let (d2, d3) = hi.split_at_mut(m);
            let (mut i1, mut i2, mut i3) = (0usize, 0usize, 0usize);
            for k in 0..m {
                let t0 = d0[k];
                let t1 = d1[k] * tw(i1);
                let t2 = d2[k] * tw(i2);
                let t3 = d3[k] * tw(i3);
                let s0 = t0 + t2;
                let s1 = t0 - t2;
                let s2 = t1 + t3;
                let j3 = (t1 - t3).mul_i().scale(sign);
                d0[k] = s0 + s2;
                d1[k] = s1 + j3;
                d2[k] = s0 - s2;
                d3[k] = s1 - j3;
                i1 += tw_stride;
                i2 += 2 * tw_stride;
                i3 += 3 * tw_stride;
            }
        }
        5 => {
            let tau = 2.0 * std::f64::consts::PI / 5.0;
            let (c1, s1) = (tau.cos(), tau.sin());
            let (c2, s2) = ((2.0 * tau).cos(), (2.0 * tau).sin());
            let (lo, hi) = block.split_at_mut(2 * m);
            let (d0, d1) = lo.split_at_mut(m);
            let (mid, d4) = hi.split_at_mut(2 * m);
            let (d2, d3) = mid.split_at_mut(m);
            let (mut i1, mut i2, mut i3, mut i4) = (0usize, 0usize, 0usize, 0usize);
            for k in 0..m {
                let t0 = d0[k];
                let t1 = d1[k] * tw(i1);
                let t2 = d2[k] * tw(i2);
                let t3 = d3[k] * tw(i3);
                let t4 = d4[k] * tw(i4);
                let a1 = t1 + t4;
                let b1 = t1 - t4;
                let a2 = t2 + t3;
                let b2 = t2 - t3;
                let m1 = t0 + a1.scale(c1) + a2.scale(c2);
                let v1 = (b1.scale(s1) + b2.scale(s2)).mul_i().scale(sign);
                let m2 = t0 + a1.scale(c2) + a2.scale(c1);
                let v2 = (b1.scale(s2) - b2.scale(s1)).mul_i().scale(sign);
                d0[k] = t0 + a1 + a2;
                d1[k] = m1 + v1;
                d2[k] = m2 + v2;
                d3[k] = m2 - v2;
                d4[k] = m1 - v1;
                i1 += tw_stride;
                i2 += 2 * tw_stride;
                i3 += 3 * tw_stride;
                i4 += 4 * tw_stride;
            }
        }
        _ => unreachable!("factors are drawn from {{2, 3, 4, 5}}"),
    }
}

/// One bin of a packed even real transform from the packed half-length
/// transform's bin `zk` and the conjugate `zmk` of its mirror:
/// `X[k] = E[k] + w_n^k · O[k]`, with `E`/`O` the spectra of the even/odd
/// subsequences.
#[inline(always)]
pub(crate) fn unpack_bin<E: Element>(zk: E, zmk: E, w: Complex) -> E {
    let even = (zk + zmk).scale(0.5);
    let odd = (zk - zmk).scale(0.5).mul_neg_i();
    even + odd * w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_order_is_the_decimation_in_time_recursion() {
        // The recursion the table replaces, kept here as its oracle.
        fn rec(dst: &mut [u32], offset: usize, stride: usize, factors: &[usize]) {
            let Some((&r, rest)) = factors.split_first() else {
                dst[0] = offset as u32;
                return;
            };
            let m = dst.len() / r;
            for q in 0..r {
                rec(
                    &mut dst[q * m..(q + 1) * m],
                    offset + q * stride,
                    stride * r,
                    rest,
                );
            }
        }
        for factors in [
            vec![],
            vec![3],
            vec![4, 3],
            vec![4, 3, 3, 5],
            vec![2, 3, 5, 5],
        ] {
            let n: usize = factors.iter().product();
            let mut expected = vec![0u32; n];
            rec(&mut expected, 0, 1, &factors);
            assert_eq!(leaf_order(n, &factors), expected, "{factors:?}");
        }
    }

    #[test]
    fn every_lane_runs_the_one_lane_expression() {
        let z = |s: f64| Complex::new((s * 0.7).sin(), (s * 1.3).cos());
        let pack = |f: &dyn Fn(usize) -> Complex| ComplexLanes {
            re: lanes(|l| f(l).re),
            im: lanes(|l| f(l).im),
        };
        let (a, b) = (pack(&|l| z(l as f64)), pack(&|l| z(l as f64 + 0.5)));
        let w = z(9.0);
        let cases: [(ComplexLanes, &dyn Fn(usize) -> Complex); 9] = [
            (a + b, &|l| z(l as f64) + z(l as f64 + 0.5)),
            (a - b, &|l| z(l as f64) - z(l as f64 + 0.5)),
            (a * w, &|l| z(l as f64) * w),
            (Element::scale(a, 0.3), &|l| z(l as f64).scale(0.3)),
            (a.scale_parts(0.3, -1.7), &|l| {
                z(l as f64).scale_parts(0.3, -1.7)
            }),
            (Element::conj(a), &|l| z(l as f64).conj()),
            (a.mul_i(), &|l| z(l as f64).mul_i()),
            (a.mul_neg_i(), &|l| z(l as f64).mul_neg_i()),
            (unpack_bin(a, b, w), &|l| {
                unpack_bin(z(l as f64), z(l as f64 + 0.5), w)
            }),
        ];
        for (i, (got, want)) in cases.iter().enumerate() {
            for l in 0..LANES {
                assert_eq!(got.re[l].to_bits(), want(l).re.to_bits(), "case {i}");
                assert_eq!(got.im[l].to_bits(), want(l).im.to_bits(), "case {i}");
            }
        }
    }
}
