//! Error type for the DSP substrate.

use std::error::Error;
use std::fmt;

/// Errors returned by fallible DSP operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// The input length is not supported by the requested transform
    /// (for example an FFT plan asked for a length with a prime factor
    /// above 5).
    InvalidLength {
        /// Length that was supplied.
        len: usize,
        /// Human-readable requirement description.
        requirement: &'static str,
    },
    /// An operand was empty where a non-empty slice is required.
    EmptyInput {
        /// Name of the offending argument.
        what: &'static str,
    },
    /// Two operands whose sizes must agree did not.
    ShapeMismatch {
        /// Description of the expected relationship.
        expected: String,
        /// Description of what was found.
        found: String,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::InvalidLength { len, requirement } => {
                write!(f, "invalid input length {len}: {requirement}")
            }
            DspError::EmptyInput { what } => write!(f, "{what} must not be empty"),
            DspError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DspError::InvalidLength {
            len: 3,
            requirement: "length must be a power of two",
        };
        assert_eq!(
            e.to_string(),
            "invalid input length 3: length must be a power of two"
        );
        let e = DspError::EmptyInput { what: "signal" };
        assert_eq!(e.to_string(), "signal must not be empty");
        let e = DspError::ShapeMismatch {
            expected: "kernel <= signal".into(),
            found: "kernel = 5, signal = 3".into(),
        };
        assert!(e.to_string().contains("shape mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
