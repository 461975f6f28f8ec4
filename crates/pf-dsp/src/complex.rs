//! Minimal complex-number type used by the Fourier transforms.
//!
//! The PhotoFourier simulation only needs `f64` complex arithmetic, so rather
//! than pulling in an external crate this module provides a small, fully
//! tested [`Complex`] value type with the usual field operations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use pf_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a + b, Complex::new(4.0, 1.0));
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    ///
    /// ```
    /// use pf_dsp::Complex;
    /// let c = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((c.re).abs() < 1e-12);
    /// assert!((c.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns `e^{i theta}`, a unit-magnitude phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|^2` — the quantity a square-law photodetector
    /// measures.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// How many independent transforms a [`ComplexLanes`] element carries.
pub const LANES: usize = 4;

/// [`LANES`] complex numbers carried side by side, real parts together and
/// imaginary parts together: the element of the lane-parallel transform
/// ([`RealFftPlan::forward_real_bins_lanes`](crate::plan::RealFftPlan::forward_real_bins_lanes)),
/// where lane `l` of every element belongs to transform `l`. Arithmetic on
/// it is per lane and in [`Complex`]'s own expressions, so a lane's values
/// are bit-identical to the same computation on [`Complex`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComplexLanes {
    /// Real part of each lane.
    pub re: [f64; LANES],
    /// Imaginary part of each lane.
    pub im: [f64; LANES],
}

impl ComplexLanes {
    /// All lanes `0 + 0i`.
    pub const ZERO: ComplexLanes = ComplexLanes {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    /// The complex number in lane `lane`.
    #[inline]
    pub fn lane(&self, lane: usize) -> Complex {
        Complex::new(self.re[lane], self.im[lane])
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Self {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructors() {
        assert_eq!(Complex::new(1.0, 2.0), Complex { re: 1.0, im: 2.0 });
        assert_eq!(Complex::from_real(3.0), Complex::new(3.0, 0.0));
        assert_eq!(Complex::from(4.0), Complex::new(4.0, 0.0));
        assert_eq!(Complex::default(), Complex::ZERO);
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.5, 1.2);
        assert!((c.abs() - 2.5).abs() < EPS);
        assert!((c.arg() - 1.2).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        let q = (a / b) * b - a;
        assert!(q.abs() < EPS);
    }

    #[test]
    fn assign_ops() {
        let mut a = Complex::new(1.0, 1.0);
        a += Complex::new(2.0, 3.0);
        assert_eq!(a, Complex::new(3.0, 4.0));
        a -= Complex::new(1.0, 1.0);
        assert_eq!(a, Complex::new(2.0, 3.0));
        a *= Complex::I;
        assert_eq!(a, Complex::new(-3.0, 2.0));
    }

    #[test]
    fn scalar_ops() {
        let a = Complex::new(1.0, -2.0);
        assert_eq!(a * 2.0, Complex::new(2.0, -4.0));
        assert_eq!(a / 2.0, Complex::new(0.5, -1.0));
        assert_eq!(a.scale(3.0), Complex::new(3.0, -6.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        // |z|^2 == z * conj(z)
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < EPS && p.im.abs() < EPS);
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..5).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(10.0, 5.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn finite_check() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::INFINITY).is_finite());
    }
}
