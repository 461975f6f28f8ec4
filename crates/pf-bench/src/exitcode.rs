//! The exit statuses of the `repro` and `perf` binaries, in one place so
//! the CI jobs, the docs and the binaries cannot drift apart.
//!
//! | code | meaning |
//! |------|---------|
//! | [`OK`] | run (and any gate) passed |
//! | [`FAILURE`] | hard failure: an experiment error, a breached gate, an I/O error |
//! | [`USAGE`] | bad command line |

/// The run — and any gate it ran under — passed.
pub const OK: u8 = 0;

/// Hard failure (experiment error, breached gate, I/O).
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
