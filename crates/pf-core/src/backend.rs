//! The unified 1D-convolution backend abstraction.
//!
//! The paper's row-tiling algorithm "can be applied to any hardware that
//! supports 1D convolution"; the workspace correspondingly has several
//! [`Conv1dEngine`] implementations (the exact digital reference, the ideal
//! simulated JTC optics, and the full PhotoFourier-CG signal chain with
//! quantisation and noise). [`Backend`] unifies them behind a trait object
//! with a string/enum registry so sessions and scenario files can select a
//! compute substrate declaratively. The engines carry the trait themselves
//! and [`BackendSpec::instantiate_seeded`] is the one place a backend is
//! built, so the only forwarding layer is `Box<dyn Backend>`'s own
//! [`Conv1dEngine`] impl.

use std::fmt;
use std::sync::Arc;

use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_tiling::{Conv1dEngine, DigitalEngine, PreparedConv1d};
use serde::{Deserialize, Serialize};

use crate::error::PfError;

/// Registry of compute substrates a scenario can select.
///
/// Serializes as the snake_case registry name (`"digital"`, `"jtc_ideal"`,
/// `"photofourier_cg"`); deserialization accepts the variant spelling too
/// (see the manual impls below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Exact digital reference (what a GPU would compute).
    #[default]
    Digital,
    /// Simulated JTC optics with no quantisation or noise.
    JtcIdeal,
    /// The PhotoFourier-CG signal chain: 8-bit DACs/ADC plus photodetector
    /// sensing noise.
    PhotofourierCg,
}

impl BackendKind {
    /// Every registered backend kind.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Digital,
        BackendKind::JtcIdeal,
        BackendKind::PhotofourierCg,
    ];

    /// Stable registry name (what scenario files may also use).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Digital => "digital",
            BackendKind::JtcIdeal => "jtc_ideal",
            BackendKind::PhotofourierCg => "photofourier_cg",
        }
    }

    /// Whether the substrate draws random noise samples (and therefore has
    /// RNG state whose stream order matters for reproducibility).
    pub fn is_stochastic(self) -> bool {
        matches!(self, BackendKind::PhotofourierCg)
    }

    /// Looks a kind up by registry name (accepts both the snake_case
    /// registry name and the serialized variant name).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self, PfError> {
        match name {
            "digital" | "Digital" => Ok(BackendKind::Digital),
            "jtc_ideal" | "JtcIdeal" => Ok(BackendKind::JtcIdeal),
            "photofourier_cg" | "PhotofourierCg" => Ok(BackendKind::PhotofourierCg),
            other => Err(PfError::invalid_scenario(format!(
                "unknown backend `{other}` (known: digital, jtc_ideal, photofourier_cg)"
            ))),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Manual serde impls so scenario files can use the documented registry
// names: serialize as snake_case, deserialize through `from_name` (which
// accepts both `"jtc_ideal"` and `"JtcIdeal"`).
impl serde::Serialize for BackendKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for BackendKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let name = value.as_str().ok_or_else(|| {
            serde::DeError::new(format!("expected a backend name string, found {value:?}"))
        })?;
        BackendKind::from_name(name).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

/// Declarative description of a backend, as it appears in a [`crate::Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Which registered substrate to instantiate.
    pub kind: BackendKind,
    /// 1D convolution capacity in samples (the number of input waveguides
    /// of a PFCU; also used as the row-tiling capacity for the digital
    /// reference).
    pub capacity: usize,
}

impl BackendSpec {
    /// A digital-reference spec with the given tiling capacity.
    pub fn digital(capacity: usize) -> Self {
        Self {
            kind: BackendKind::Digital,
            capacity,
        }
    }

    /// An ideal-JTC spec with the given capacity.
    pub fn jtc_ideal(capacity: usize) -> Self {
        Self {
            kind: BackendKind::JtcIdeal,
            capacity,
        }
    }

    /// A PhotoFourier-CG spec with the given capacity.
    pub fn photofourier_cg(capacity: usize) -> Self {
        Self {
            kind: BackendKind::PhotofourierCg,
            capacity,
        }
    }

    /// Instantiates the backend this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for a zero capacity, or
    /// propagates engine construction errors.
    pub fn instantiate(&self) -> Result<Box<dyn Backend>, PfError> {
        self.instantiate_seeded(0)
    }

    /// Instantiates the backend with an explicit noise seed (ignored by
    /// deterministic substrates). Used for reproducible parallel dispatch:
    /// one independently-seeded engine per work item keeps stochastic
    /// backends deterministic regardless of thread interleaving.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BackendSpec::instantiate`].
    pub fn instantiate_seeded(&self, noise_seed: u64) -> Result<Box<dyn Backend>, PfError> {
        if self.capacity == 0 {
            return Err(PfError::invalid_scenario(
                "backend capacity must be at least 1",
            ));
        }
        let config = match self.kind {
            BackendKind::Digital => return Ok(Box::new(DigitalEngine)),
            BackendKind::JtcIdeal => JtcEngineConfig::ideal(self.capacity),
            BackendKind::PhotofourierCg => JtcEngineConfig {
                noise_seed,
                ..JtcEngineConfig::photofourier_cg(self.capacity)
            },
        };
        Ok(Box::new(JtcEngine::new(config)?))
    }
}

impl Default for BackendSpec {
    fn default() -> Self {
        Self {
            kind: BackendKind::Digital,
            capacity: 256,
        }
    }
}

/// A 1D convolution substrate usable by row tiling, tagged with its registry
/// identity so sessions can report what they run on.
///
/// Every `Backend` is also a [`Conv1dEngine`] (the supertrait), so trait
/// objects plug directly into [`pf_tiling::TiledConvolver`] and
/// [`pf_nn::executor::TiledExecutor`].
pub trait Backend: Conv1dEngine + Send + Sync {
    /// Which registry entry this backend came from.
    fn kind(&self) -> BackendKind;

    /// The capacity the backend was instantiated with, if bounded.
    fn capacity(&self) -> Option<usize> {
        self.max_signal_len()
    }

    /// Human-readable identity, e.g. `jtc_ideal(256)`.
    fn id(&self) -> String {
        match self.capacity() {
            Some(cap) => format!("{}({cap})", self.kind()),
            None => self.kind().to_string(),
        }
    }
}

impl Conv1dEngine for Box<dyn Backend> {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        (**self).correlate_valid(signal, kernel)
    }

    fn max_signal_len(&self) -> Option<usize> {
        (**self).max_signal_len()
    }

    fn is_deterministic(&self) -> bool {
        (**self).is_deterministic()
    }

    fn prefers_parallel_tiles(&self) -> bool {
        (**self).prefers_parallel_tiles()
    }

    fn prepares_kernels(&self) -> bool {
        (**self).prepares_kernels()
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        (**self).prepare_kernel(kernel, signal_len)
    }

    fn prepare_kernels(
        &self,
        kernels: &[&[f64]],
        signal_len: usize,
    ) -> Vec<Option<Arc<dyn PreparedConv1d>>> {
        (**self).prepare_kernels(kernels, signal_len)
    }

    fn bind_prepared(&self, cached: Arc<dyn PreparedConv1d>) -> Arc<dyn PreparedConv1d> {
        (**self).bind_prepared(cached)
    }
}

/// The exact digital reference (unbounded capacity).
impl Backend for DigitalEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Digital
    }
}

/// The simulated JTC optics. The registry's two JTC entries differ in
/// whether the signal chain draws sensing noise
/// ([`BackendKind::is_stochastic`]), and so does the tag.
impl Backend for JtcEngine {
    fn kind(&self) -> BackendKind {
        if self.is_deterministic() {
            BackendKind::JtcIdeal
        } else {
            BackendKind::PhotofourierCg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::max_abs_diff;

    #[test]
    fn registry_round_trips() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(BackendKind::from_name("quantum").is_err());
    }

    #[test]
    fn kind_serializes_as_registry_name_and_accepts_both_spellings() {
        use serde::{Deserialize, Serialize, Value};
        assert_eq!(
            BackendKind::JtcIdeal.to_value(),
            Value::Str("jtc_ideal".into())
        );
        for spelling in ["jtc_ideal", "JtcIdeal"] {
            assert_eq!(
                BackendKind::from_value(&Value::Str(spelling.into())).unwrap(),
                BackendKind::JtcIdeal,
                "{spelling}"
            );
        }
        assert!(BackendKind::from_value(&Value::Str("quantum".into())).is_err());
    }

    #[test]
    fn seeded_instantiation_controls_the_noise_stream() {
        let spec = BackendSpec::photofourier_cg(64);
        let signal: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.3).sin() + 1.0).collect();
        let kernel = vec![0.2, 0.4, 0.2];
        let a = spec
            .instantiate_seeded(1)
            .unwrap()
            .correlate_valid(&signal, &kernel);
        let b = spec
            .instantiate_seeded(1)
            .unwrap()
            .correlate_valid(&signal, &kernel);
        let c = spec
            .instantiate_seeded(2)
            .unwrap()
            .correlate_valid(&signal, &kernel);
        assert_eq!(a, b, "same seed must reproduce the same noise");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn specs_instantiate_their_kind_and_identity() {
        let digital = BackendSpec::digital(64).instantiate().unwrap();
        assert_eq!(digital.kind(), BackendKind::Digital);
        assert_eq!(digital.capacity(), None);
        assert_eq!(digital.id(), "digital");

        let ideal = BackendSpec::jtc_ideal(64).instantiate().unwrap();
        assert_eq!(ideal.kind(), BackendKind::JtcIdeal);
        assert_eq!(ideal.capacity(), Some(64));
        assert_eq!(ideal.id(), "jtc_ideal(64)");

        let cg = BackendSpec::photofourier_cg(64).instantiate().unwrap();
        assert_eq!(cg.kind(), BackendKind::PhotofourierCg);
        assert_eq!(cg.id(), "photofourier_cg(64)");
        for kind in BackendKind::ALL {
            let spec = BackendSpec { kind, capacity: 0 };
            assert!(spec.instantiate().is_err(), "{kind}");
            // Every kind's tag survives the trip through its engine.
            let spec = BackendSpec { kind, capacity: 32 };
            assert_eq!(spec.instantiate_seeded(9).unwrap().kind(), kind);
        }
    }

    #[test]
    fn ideal_backend_matches_digital() {
        let signal: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.21).sin()).collect();
        let kernel = vec![0.25, 0.5, 0.25];
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        let ideal = BackendSpec::jtc_ideal(64).instantiate().unwrap();
        let optical = ideal.correlate_valid(&signal, &kernel);
        assert!(max_abs_diff(&optical, &digital) < 1e-8);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let spec = BackendSpec::jtc_ideal(128);
        let json = serde_json::to_string(&spec).unwrap();
        let back: BackendSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn boxed_backend_is_a_conv1d_engine() {
        let backend: Box<dyn Backend> = BackendSpec::digital(8).instantiate().unwrap();
        let out = backend.correlate_valid(&[1.0, 2.0, 3.0], &[1.0, 1.0]);
        assert_eq!(out, vec![3.0, 5.0]);
    }
}
