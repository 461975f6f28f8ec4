//! The exit statuses of the `repro` binary, in one place so the CI jobs,
//! the docs and the binary cannot drift apart.
//!
//! | code | meaning |
//! |------|---------|
//! | [`OK`] | every requested experiment ran |
//! | [`FAILURE`] | hard failure: an experiment error |
//! | [`USAGE`] | bad command line |

/// Every requested experiment ran.
pub const OK: u8 = 0;

/// Hard failure (an experiment error).
pub const FAILURE: u8 = 1;

/// Bad command line.
pub const USAGE: u8 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        // CI reads these statuses: renumbering breaks the workflow, so pin
        // the values.
        assert_eq!([OK, FAILURE, USAGE], [0, 1, 2]);
    }
}
