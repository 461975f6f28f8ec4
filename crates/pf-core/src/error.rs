//! The unified error type of the PhotoFourier facade.
//!
//! Every sub-crate keeps its own focused error enum; [`PfError`] wraps all
//! six behind `From` impls so facade-level code (and downstream users) can
//! use one `Result<_, PfError>` end to end with `?`.

use std::error::Error;
use std::fmt;

use pf_arch::ArchError;
use pf_dsp::DspError;
use pf_jtc::JtcError;
use pf_nn::NnError;
use pf_photonics::PhotonicsError;
use pf_tiling::TilingError;

/// Any error the PhotoFourier stack can produce, from the DSP substrate up
/// to the architecture simulator, plus facade-level configuration errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PfError {
    /// Error from the DSP substrate (`pf-dsp`).
    Dsp(DspError),
    /// Error from the photonic component models (`pf-photonics`).
    Photonics(PhotonicsError),
    /// Error from the row-tiling algorithms (`pf-tiling`).
    Tiling(TilingError),
    /// Error from the JTC optics simulation (`pf-jtc`).
    Jtc(JtcError),
    /// Error from the neural-network substrate (`pf-nn`).
    Nn(NnError),
    /// Error from the architecture simulator (`pf-arch`).
    Arch(ArchError),
    /// A scenario or session was configured inconsistently.
    InvalidScenario {
        /// What was wrong.
        reason: String,
    },
    /// An inference server's admission control rejected a request because
    /// its bounded queue was full (`pf-serve`).
    Overloaded {
        /// Requests already queued when the request was rejected.
        queued: usize,
        /// The configured queue depth.
        limit: usize,
    },
    /// A request's deadline passed before it could be served: it expired in
    /// the queue (never dispatched), or the caller abandoned its ticket
    /// (`Ticket::wait_deadline` timed out).
    DeadlineExceeded {
        /// Where in its lifetime the request ran out of time:
        /// `"queued"` (expired before dispatch) or `"abandoned"` (the
        /// caller's wait timed out and cancelled it).
        stage: &'static str,
    },
    /// A router intentionally shed this request to protect higher-priority
    /// traffic under overload (`pf-router`). Distinct from [`Overloaded`]:
    /// shedding is a policy decision taken while queue capacity remains,
    /// not an admission-queue rejection.
    ///
    /// [`Overloaded`]: PfError::Overloaded
    Shed {
        /// Name of the priority class the request belonged to.
        class: String,
    },
    /// A scenario file could not be parsed or serialized.
    Format {
        /// The serialization format involved.
        format: &'static str,
        /// Parser / serializer message.
        reason: String,
    },
    /// One or more server worker threads panicked and died before shutdown
    /// could join them cleanly. Any requests those workers held were still
    /// resolved (the batch dispatch path catches engine panics), but the
    /// server itself is compromised and its statistics may be incomplete.
    WorkerPanicked {
        /// How many worker threads panicked.
        workers: usize,
    },
    /// A deterministic fault plan injected a transient failure into this
    /// request (`photofourier::route`'s `FaultyEngine`). Requests failing
    /// with this error are safe to retry: the fault is scheduled by request
    /// sequence number, not by payload.
    FaultInjected {
        /// The injected fault kind, e.g. `"transient_error"`.
        kind: &'static str,
    },
    /// A served payload failed the router's NaN/Inf integrity screen: the
    /// replica produced a response containing non-finite values. The
    /// response was discarded rather than handed to the caller.
    IntegrityViolation {
        /// Index of the replica that produced the corrupt payload.
        replica: usize,
    },
}

impl PfError {
    /// Convenience constructor for facade-level configuration errors.
    pub fn invalid_scenario(reason: impl Into<String>) -> Self {
        PfError::InvalidScenario {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfError::Dsp(e) => write!(f, "dsp: {e}"),
            PfError::Photonics(e) => write!(f, "photonics: {e}"),
            PfError::Tiling(e) => write!(f, "tiling: {e}"),
            PfError::Jtc(e) => write!(f, "jtc: {e}"),
            PfError::Nn(e) => write!(f, "nn: {e}"),
            PfError::Arch(e) => write!(f, "arch: {e}"),
            PfError::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
            PfError::Overloaded { queued, limit } => write!(
                f,
                "server overloaded: {queued} request(s) queued at the admission limit of {limit}"
            ),
            PfError::DeadlineExceeded { stage } => {
                write!(f, "request deadline exceeded while {stage}")
            }
            PfError::Shed { class } => write!(
                f,
                "request shed by the router (priority class `{class}`) to protect \
                 higher-priority traffic"
            ),
            PfError::Format { format, reason } => write!(f, "{format} error: {reason}"),
            PfError::WorkerPanicked { workers } => {
                write!(f, "{workers} server worker thread(s) panicked")
            }
            PfError::FaultInjected { kind } => {
                write!(f, "injected fault: {kind}")
            }
            PfError::IntegrityViolation { replica } => write!(
                f,
                "integrity screen rejected a non-finite payload from replica {replica}"
            ),
        }
    }
}

impl Error for PfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PfError::Dsp(e) => Some(e),
            PfError::Photonics(e) => Some(e),
            PfError::Tiling(e) => Some(e),
            PfError::Jtc(e) => Some(e),
            PfError::Nn(e) => Some(e),
            PfError::Arch(e) => Some(e),
            PfError::InvalidScenario { .. }
            | PfError::Overloaded { .. }
            | PfError::DeadlineExceeded { .. }
            | PfError::Shed { .. }
            | PfError::Format { .. }
            | PfError::WorkerPanicked { .. }
            | PfError::FaultInjected { .. }
            | PfError::IntegrityViolation { .. } => None,
        }
    }
}

impl From<DspError> for PfError {
    fn from(e: DspError) -> Self {
        PfError::Dsp(e)
    }
}

impl From<PhotonicsError> for PfError {
    fn from(e: PhotonicsError) -> Self {
        PfError::Photonics(e)
    }
}

impl From<TilingError> for PfError {
    fn from(e: TilingError) -> Self {
        PfError::Tiling(e)
    }
}

impl From<JtcError> for PfError {
    fn from(e: JtcError) -> Self {
        PfError::Jtc(e)
    }
}

impl From<NnError> for PfError {
    fn from(e: NnError) -> Self {
        PfError::Nn(e)
    }
}

impl From<ArchError> for PfError {
    fn from(e: ArchError) -> Self {
        PfError::Arch(e)
    }
}

impl From<serde_json::Error> for PfError {
    fn from(e: serde_json::Error) -> Self {
        PfError::Format {
            format: "json",
            reason: e.to_string(),
        }
    }
}

impl From<toml::Error> for PfError {
    fn from(e: toml::Error) -> Self {
        PfError::Format {
            format: "toml",
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_subcrate_error() {
        let errors: Vec<PfError> = vec![
            DspError::EmptyInput { what: "signal" }.into(),
            PhotonicsError::UnsupportedResolution { bits: 99 }.into(),
            TilingError::EmptyOperand { what: "kernel" }.into(),
            JtcError::EmptyOperand { what: "kernel" }.into(),
            NnError::InvalidParameter {
                name: "depth",
                requirement: "positive".into(),
            }
            .into(),
            ArchError::InvalidConfig {
                name: "pfcus",
                requirement: "positive".into(),
            }
            .into(),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_are_preserved() {
        let e = PfError::from(JtcError::from(DspError::EmptyInput { what: "signal" }));
        let source = Error::source(&e).expect("jtc error has a source");
        assert!(source.to_string().contains("dsp error"));
        assert!(Error::source(&PfError::invalid_scenario("x")).is_none());
    }

    #[test]
    fn overloaded_reports_queue_state() {
        let e = PfError::Overloaded {
            queued: 64,
            limit: 64,
        };
        assert!(e.to_string().contains("64"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn serving_tier_errors_are_descriptive() {
        let e = PfError::DeadlineExceeded { stage: "queued" };
        assert!(e.to_string().contains("deadline"));
        assert!(e.to_string().contains("queued"));
        assert!(Error::source(&e).is_none());

        let e = PfError::Shed {
            class: "background".into(),
        };
        assert!(e.to_string().contains("shed"));
        assert!(e.to_string().contains("background"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn fault_tolerance_errors_are_descriptive() {
        let e = PfError::WorkerPanicked { workers: 2 };
        assert!(e.to_string().contains("2 server worker thread(s) panicked"));
        assert!(Error::source(&e).is_none());

        let e = PfError::FaultInjected {
            kind: "transient_error",
        };
        assert!(e.to_string().contains("injected fault"));
        assert!(e.to_string().contains("transient_error"));
        assert!(Error::source(&e).is_none());

        let e = PfError::IntegrityViolation { replica: 1 };
        assert!(e.to_string().contains("integrity"));
        assert!(e.to_string().contains("replica 1"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PfError>();
    }
}
