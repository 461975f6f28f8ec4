//! Error type for the tiling crate.

use std::error::Error;
use std::fmt;

/// Errors returned by tiling plan construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TilingError {
    /// The kernel does not fit in the input (2D `valid` convolution would be
    /// empty).
    KernelLargerThanInput {
        /// Kernel rows/cols.
        kernel: (usize, usize),
        /// Input rows/cols.
        input: (usize, usize),
    },
    /// The 1D convolution capacity is too small to hold even one kernel row.
    CapacityTooSmall {
        /// Available 1D convolution size.
        n_conv: usize,
        /// Minimum size required.
        required: usize,
    },
    /// An empty input or kernel was supplied.
    EmptyOperand {
        /// Which operand was empty.
        what: &'static str,
    },
    /// A multi-kernel call mixed kernels of different shapes (they must
    /// share one tiling plan and one prepared signal geometry).
    MismatchedKernels {
        /// Shape of the first kernel (rows, cols).
        expected: (usize, usize),
        /// Shape of the offending kernel (rows, cols).
        found: (usize, usize),
    },
    /// A prepared kernel set was run against an input of another shape than
    /// the one it was prepared for.
    InputShapeMismatch {
        /// Input shape the set was prepared for (rows, cols).
        expected: (usize, usize),
        /// Shape of the input supplied (rows, cols).
        found: (usize, usize),
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::KernelLargerThanInput { kernel, input } => write!(
                f,
                "kernel {}x{} does not fit in input {}x{}",
                kernel.0, kernel.1, input.0, input.1
            ),
            TilingError::CapacityTooSmall { n_conv, required } => write!(
                f,
                "1D convolution capacity {n_conv} is smaller than the minimum required {required}"
            ),
            TilingError::EmptyOperand { what } => write!(f, "{what} must not be empty"),
            TilingError::MismatchedKernels { expected, found } => write!(
                f,
                "multi-kernel convolution mixes kernel shapes: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            TilingError::InputShapeMismatch { expected, found } => write!(
                f,
                "kernel set prepared for {}x{} inputs was run against a {}x{} input",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl Error for TilingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = TilingError::KernelLargerThanInput {
            kernel: (7, 7),
            input: (5, 5),
        };
        assert!(e.to_string().contains("7x7"));
        let e = TilingError::CapacityTooSmall {
            n_conv: 2,
            required: 3,
        };
        assert!(e.to_string().contains('2'));
        let e = TilingError::EmptyOperand { what: "input" };
        assert!(e.to_string().contains("input"));
        let e = TilingError::MismatchedKernels {
            expected: (3, 3),
            found: (5, 5),
        };
        assert!(e.to_string().contains("3x3") && e.to_string().contains("5x5"));
        let e = TilingError::InputShapeMismatch {
            expected: (16, 16),
            found: (8, 8),
        };
        assert!(e.to_string().contains("16x16") && e.to_string().contains("8x8"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TilingError>();
    }
}
