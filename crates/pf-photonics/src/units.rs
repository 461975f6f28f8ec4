//! Typed physical quantities used throughout the accelerator models.
//!
//! Thin `f64` newtypes keep power, energy and area bookkeeping honest across
//! crates (milliwatts cannot silently be added to square millimetres) while
//! staying trivially cheap.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Returns the underlying value.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |acc, x| acc + x)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:.4} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Power in milliwatts.
    Milliwatts,
    "mW"
);
quantity!(
    /// Area in square micrometres.
    SquareMicrons,
    "um^2"
);

impl SquareMicrons {
    /// Converts to square millimetres.
    #[inline]
    pub fn to_mm2(self) -> f64 {
        self.0 * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Milliwatts(2.0) + Milliwatts(3.0);
        assert_eq!(a, Milliwatts(5.0));
        assert_eq!(a - Milliwatts(1.0), Milliwatts(4.0));
        assert_eq!(a * 2.0, Milliwatts(10.0));
        assert_eq!(a / 2.0, Milliwatts(2.5));
        assert_eq!(Milliwatts(10.0) / Milliwatts(2.0), 5.0);
        let mut b = Milliwatts(1.0);
        b += Milliwatts(1.5);
        assert_eq!(b, Milliwatts(2.5));
    }

    #[test]
    fn sums() {
        let total: Milliwatts = vec![Milliwatts(1.0), Milliwatts(2.0)].into_iter().sum();
        assert_eq!(total, Milliwatts(3.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(SquareMicrons(2e6).to_mm2(), 2.0);
    }

    #[test]
    fn display() {
        assert_eq!(Milliwatts(3.1).to_string(), "3.1000 mW");
        assert_eq!(SquareMicrons(255.0).to_string(), "255.0000 um^2");
    }
}
