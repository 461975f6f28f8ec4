//! Declarative experiment scenarios.
//!
//! A [`Scenario`] captures everything a PhotoFourier experiment needs —
//! which network, which compute backend, which accelerator design point and
//! which numeric-pipeline options — as plain data, loadable from TOML or
//! JSON. Experiments become files instead of code, the way large
//! characterization studies drive many configurations through one harness.

use pf_arch::config::ArchConfig;
use pf_nn::executor::PipelineConfig;
use pf_nn::models::{self, NetworkSpec};
use serde::{Deserialize, Serialize};

use crate::backend::BackendSpec;
use crate::error::PfError;
use crate::sweep::SweepSpec;

/// Registry of the networks a scenario can reference by name.
pub const NETWORK_REGISTRY: [&str; 7] = [
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet_s",
    "crosslight_cnn",
];

/// Resolves a network registry name to its layer inventory.
///
/// # Errors
///
/// Returns [`PfError::InvalidScenario`] for unknown names.
pub fn network_by_name(name: &str) -> Result<NetworkSpec, PfError> {
    match name {
        "alexnet" => Ok(models::imagenet::alexnet()),
        "vgg16" => Ok(models::imagenet::vgg16()),
        "resnet18" => Ok(models::imagenet::resnet18()),
        "resnet34" => Ok(models::imagenet::resnet34()),
        "resnet50" => Ok(models::imagenet::resnet50()),
        "resnet_s" => Ok(models::cifar::resnet_s()),
        "crosslight_cnn" => Ok(models::cifar::crosslight_cnn()),
        other => Err(PfError::invalid_scenario(format!(
            "unknown network `{other}` (known: {})",
            NETWORK_REGISTRY.join(", ")
        ))),
    }
}

/// The accelerator design points a scenario can start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ArchPreset {
    /// PhotoFourier-CG: 8 PFCUs, 14 nm CMOS chiplet.
    #[default]
    PhotofourierCg,
    /// PhotoFourier-NG: 16 PFCUs, 7 nm monolithic, passive non-linearity.
    PhotofourierNg,
    /// The un-optimised single-PFCU baseline of Section V-B.
    BaselineSinglePfcu,
}

impl ArchPreset {
    /// The base configuration of this preset.
    pub fn base_config(self) -> ArchConfig {
        match self {
            ArchPreset::PhotofourierCg => ArchConfig::photofourier_cg(),
            ArchPreset::PhotofourierNg => ArchConfig::photofourier_ng(),
            ArchPreset::BaselineSinglePfcu => ArchConfig::baseline_single_pfcu(),
        }
    }
}

/// Declarative accelerator selection: a named design point plus optional
/// overrides for the knobs the design-space exploration sweeps.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Which design point to start from.
    pub preset: ArchPreset,
    /// Overrides the PFCU count (keeping full input broadcasting).
    pub num_pfcus: Option<usize>,
    /// Overrides the number of input waveguides per PFCU.
    pub input_waveguides: Option<usize>,
    /// Overrides the temporal-accumulation depth, re-deriving the ADC
    /// sampling rate and power (see
    /// `ArchConfig::with_temporal_accumulation`).
    pub temporal_accumulation: Option<usize>,
    /// Overrides the chip area budget in mm².
    pub area_budget_mm2: Option<f64>,
}

impl ArchSpec {
    /// A spec selecting a preset with no overrides.
    pub fn preset(preset: ArchPreset) -> Self {
        Self {
            preset,
            ..Self::default()
        }
    }

    /// Resolves the spec into a validated [`ArchConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Arch`] if the overridden configuration is
    /// inconsistent.
    pub fn resolve(&self) -> Result<ArchConfig, PfError> {
        let mut config = self.preset.base_config();
        match (self.num_pfcus, self.input_waveguides) {
            (None, None) => {}
            (pfcus, waveguides) => {
                let pfcus = pfcus.unwrap_or(config.tech.num_pfcus);
                let waveguides = waveguides.unwrap_or(config.tech.input_waveguides);
                config = config.with_pfcus_and_waveguides(pfcus, waveguides);
            }
        }
        if let Some(depth) = self.temporal_accumulation {
            if depth == 0 {
                return Err(PfError::invalid_scenario(
                    "arch temporal_accumulation must be at least 1",
                ));
            }
            config = config.with_temporal_accumulation(depth);
        }
        if let Some(budget) = self.area_budget_mm2 {
            config.area_budget_mm2 = budget;
        }
        Ok(config.validated()?)
    }
}

/// The runnable functional network (a seeded random two-layer CNN feature
/// extractor — the reproduction's stand-in for shipping ImageNet weights;
/// see `pf_nn::models::small`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalSpec {
    /// Input image channels.
    pub input_channels: usize,
    /// Input image height/width (must be a multiple of 4).
    pub input_size: usize,
    /// Seed of the fixed random extractor weights.
    pub weight_seed: u64,
}

impl Default for FunctionalSpec {
    fn default() -> Self {
        Self {
            input_channels: 1,
            input_size: 16,
            weight_seed: 42,
        }
    }
}

/// Declarative configuration of the `pf-serve` micro-batching inference
/// server (the optional `[serving]` section of a scenario file).
///
/// `pf_serve::ServeConfig` is built from this spec; the fields mirror its
/// knobs with serde-friendly types (the batch-formation timeout is in
/// microseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// Largest micro-batch the batcher dispatches in one engine call.
    pub max_batch: usize,
    /// How long the batcher waits for more requests before dispatching a
    /// partial batch, in microseconds, counted from the admission of the
    /// batch's oldest request. `0` dispatches whatever is queued
    /// immediately.
    pub batch_timeout_us: u64,
    /// Bounded queue depth: requests submitted while this many are already
    /// queued are rejected with `PfError::Overloaded`.
    pub queue_depth: usize,
    /// Number of batcher/dispatch worker threads. `0` auto-sizes the pool
    /// so that `workers x rayon threads <= host threads` (the worker count
    /// composes with rayon's per-batch parallelism instead of
    /// oversubscribing it); any explicit value overrides the cap.
    pub workers: usize,
    /// Optional front-tier router configuration (the `[serving.router]`
    /// sub-section); `None` (the key absent from the file) means a single
    /// server with no routing tier.
    pub router: Option<RouterSpec>,
}

impl Default for ServingSpec {
    fn default() -> Self {
        Self {
            max_batch: 8,
            batch_timeout_us: 2_000,
            queue_depth: 64,
            workers: 1,
            router: None,
        }
    }
}

impl ServingSpec {
    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PfError> {
        if self.max_batch == 0 {
            return Err(PfError::invalid_scenario(
                "serving max_batch must be at least 1",
            ));
        }
        if self.queue_depth == 0 {
            return Err(PfError::invalid_scenario(
                "serving queue_depth must be at least 1",
            ));
        }
        // workers == 0 is legal: it selects automatic pool sizing.
        if let Some(router) = &self.router {
            router.validate()?;
        }
        Ok(())
    }
}

/// Registry of the dispatch policies a `[serving.router]` section can name.
pub const ROUTER_POLICIES: [&str; 3] = ["round_robin", "least_loaded", "kernel_affinity"];

/// Declarative configuration of the `pf-router` multi-replica serving tier
/// (the optional `[serving.router]` sub-section of a scenario file).
///
/// The router owns `replicas` independent `pf-serve` servers (each with its
/// own session, its network's layers lowered), admits requests with
/// per-request deadlines and priority classes, and dispatches them by
/// `policy`. Under overload it degrades in stages — shrink the
/// batch-formation window at `shrink_at` pressure, shed the lowest priority
/// class at `shed_at`, and rejects only when every replica queue is full.
/// Every field has a default, so an empty `[serving.router]` table is a
/// valid two-replica kernel-affinity router (missing keys are filled from
/// [`RouterSpec::default`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RouterSpec {
    /// Number of replica shards (independent servers), at least 1.
    pub replicas: usize,
    /// Dispatch policy: one of [`ROUTER_POLICIES`] — `round_robin`
    /// (rotate over replicas), `least_loaded` (fewest outstanding
    /// requests), or `kernel_affinity` (consistent hashing on the request's
    /// model key, so one model's lowered layers stay resident on one
    /// replica; a busy home yields to a less-loaded replica that holds the
    /// model).
    pub policy: String,
    /// Priority class names, ordered highest to lowest. Requests name their
    /// class by index; only the last (lowest) class is ever shed.
    pub priority_classes: Vec<String>,
    /// Number of model variants the tier serves (each variant re-seeds the
    /// functional network's weights, so each has its own kernel set).
    pub models: usize,
    /// Model-variant sessions kept resident per replica (LRU beyond this).
    /// Routing policy determines how often a request finds its model's
    /// layers already lowered.
    pub replica_cache: usize,
    /// Queue-pressure fraction (total queued / total capacity) at which the
    /// router starts shedding the lowest priority class.
    pub shed_at: f64,
    /// Queue-pressure fraction at which the router shrinks every replica's
    /// batch-formation window to zero (dispatch immediately). Must not
    /// exceed `shed_at`.
    pub shrink_at: f64,
}

impl Default for RouterSpec {
    fn default() -> Self {
        Self {
            replicas: 2,
            policy: "kernel_affinity".to_string(),
            priority_classes: vec![
                "interactive".to_string(),
                "standard".to_string(),
                "background".to_string(),
            ],
            models: 1,
            replica_cache: 2,
            shed_at: 0.75,
            shrink_at: 0.5,
        }
    }
}

impl RouterSpec {
    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PfError> {
        if self.replicas == 0 {
            return Err(PfError::invalid_scenario(
                "router replicas must be at least 1",
            ));
        }
        if !ROUTER_POLICIES.contains(&self.policy.as_str()) {
            return Err(PfError::invalid_scenario(format!(
                "unknown router policy `{}` (known: {})",
                self.policy,
                ROUTER_POLICIES.join(", ")
            )));
        }
        if self.priority_classes.is_empty() || self.priority_classes.len() > 8 {
            return Err(PfError::invalid_scenario(
                "router priority_classes must name between 1 and 8 classes",
            ));
        }
        for (i, class) in self.priority_classes.iter().enumerate() {
            if class.is_empty() {
                return Err(PfError::invalid_scenario(
                    "router priority class names must not be empty",
                ));
            }
            if self.priority_classes[..i].contains(class) {
                return Err(PfError::invalid_scenario(format!(
                    "router priority class `{class}` is listed twice"
                )));
            }
        }
        if self.models == 0 {
            return Err(PfError::invalid_scenario(
                "router models must be at least 1",
            ));
        }
        if self.replica_cache == 0 {
            return Err(PfError::invalid_scenario(
                "router replica_cache must be at least 1",
            ));
        }
        if !(self.shrink_at > 0.0
            && self.shrink_at <= 1.0
            && self.shed_at > 0.0
            && self.shed_at <= 1.0)
        {
            return Err(PfError::invalid_scenario(
                "router shed_at and shrink_at must lie in (0, 1]",
            ));
        }
        if self.shrink_at > self.shed_at {
            return Err(PfError::invalid_scenario(
                "router shrink_at must not exceed shed_at (the window shrinks before \
                 shedding starts)",
            ));
        }
        Ok(())
    }
}

/// Registry of the fault kinds a `[[faults.windows]]` entry can name.
pub const FAULT_KINDS: [&str; 7] = [
    "latency_spike",
    "stall",
    "panic",
    "transient_error",
    "corrupt_nan",
    "corrupt_inf",
    "calibration_drift",
];

/// Declarative configuration of deterministic fault injection (the optional
/// top-level `[faults]` section of a scenario file).
///
/// `photofourier::route` compiles this spec into a `FaultPlan`, which its
/// `FaultyEngine` injects into one replica's inference engine; every fault
/// fires on that replica's own request sequence numbers, so a chaos run
/// replays bit-identically given the same seed. Every field has a default,
/// so a bare `[faults]` table is a valid (empty, fault-free) plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultsSpec {
    /// Seed for per-request fault magnitudes (jitter on spike durations,
    /// calibration-drift draws). The schedule itself — which seqs fault —
    /// is fixed by the windows, not the seed.
    pub seed: u64,
    /// Index of the replica the fault plan wraps. Faults flap exactly one
    /// replica so recovery (quarantine then re-admission) is observable.
    pub replica: usize,
    /// The fault schedule: each window injects one fault kind over a
    /// half-open range of the wrapped replica's request sequence numbers
    /// (the `[[faults.windows]]` array of tables).
    pub windows: Vec<FaultWindowSpec>,
}

/// One entry of the `[[faults.windows]]` array: a fault kind scheduled over
/// a half-open request-sequence range. Missing keys fall back to
/// [`FaultWindowSpec::default`], so an entry naming only a `kind` is
/// complete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultWindowSpec {
    /// Fault kind: one of [`FAULT_KINDS`] — `latency_spike` (sleep before
    /// serving), `stall` (a longer sleep, same mechanism), `panic` (the
    /// engine panics mid-batch), `transient_error` (a typed retryable
    /// error), `corrupt_nan` / `corrupt_inf` (non-finite values written
    /// into the response payload), or `calibration_drift` (a seeded
    /// multiplicative gain error on the response, reusing the pf-photonics
    /// sensing-noise machinery).
    pub kind: String,
    /// First request sequence number (inclusive) the window covers.
    pub from_seq: u64,
    /// End of the window (exclusive).
    pub until_seq: u64,
    /// Inject on every n-th sequence number inside the window (1 = all).
    pub every: u64,
    /// Fault magnitude: microseconds for `latency_spike`/`stall`, the gain
    /// sigma for `calibration_drift`; ignored by the other kinds.
    pub magnitude: f64,
}

impl Default for FaultWindowSpec {
    fn default() -> Self {
        Self {
            kind: "transient_error".to_string(),
            from_seq: 0,
            until_seq: u64::MAX,
            every: 1,
            magnitude: 0.0,
        }
    }
}

impl FaultsSpec {
    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PfError> {
        for window in &self.windows {
            if !FAULT_KINDS.contains(&window.kind.as_str()) {
                return Err(PfError::invalid_scenario(format!(
                    "unknown fault kind `{}` (known: {})",
                    window.kind,
                    FAULT_KINDS.join(", ")
                )));
            }
            if window.until_seq <= window.from_seq {
                return Err(PfError::invalid_scenario(
                    "fault window until_seq must exceed from_seq (half-open range)",
                ));
            }
            if window.every == 0 {
                return Err(PfError::invalid_scenario(
                    "fault window every must be at least 1",
                ));
            }
            if !(window.magnitude.is_finite() && window.magnitude >= 0.0) {
                return Err(PfError::invalid_scenario(
                    "fault window magnitude must be finite and non-negative",
                ));
            }
        }
        Ok(())
    }
}

/// A complete, declarative experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (for reports).
    pub name: String,
    /// Network registry name, e.g. `"resnet18"` (drives the performance
    /// model; see [`NETWORK_REGISTRY`]).
    pub network: String,
    /// Which 1D convolution substrate functional execution runs on.
    pub backend: BackendSpec,
    /// Which accelerator design point the performance model evaluates.
    pub arch: ArchSpec,
    /// Numeric-pipeline options for functional execution.
    pub pipeline: PipelineConfig,
    /// Shape/seed of the runnable functional network.
    pub functional: FunctionalSpec,
    /// Optional design-space sweep axes; `None` (the key absent from the
    /// file) means a single-point scenario. See [`crate::sweep::SweepPlan`].
    pub sweep: Option<SweepSpec>,
    /// Optional inference-server configuration; `None` (the key absent from
    /// the file) means the `pf-serve` defaults.
    pub serving: Option<ServingSpec>,
    /// Optional deterministic fault-injection plan; `None` (the key absent
    /// from the file) means no faults. See [`FaultsSpec`].
    pub faults: Option<FaultsSpec>,
}

impl Scenario {
    /// A scenario with the given name, network and backend, and default
    /// architecture/pipeline settings.
    pub fn new(name: impl Into<String>, network: impl Into<String>, backend: BackendSpec) -> Self {
        Self {
            name: name.into(),
            network: network.into(),
            backend,
            arch: ArchSpec::default(),
            pipeline: PipelineConfig::ideal(),
            functional: FunctionalSpec::default(),
            sweep: None,
            serving: None,
            faults: None,
        }
    }

    /// Checks internal consistency without instantiating anything heavy.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] (or a propagated sub-crate
    /// error) describing the first problem found.
    pub fn validate(&self) -> Result<(), PfError> {
        if self.name.is_empty() {
            return Err(PfError::invalid_scenario("scenario name must not be empty"));
        }
        network_by_name(&self.network)?;
        if self.backend.capacity == 0 {
            return Err(PfError::invalid_scenario(
                "backend capacity must be at least 1",
            ));
        }
        if self.pipeline.temporal_depth == 0 {
            return Err(PfError::invalid_scenario(
                "pipeline temporal_depth must be at least 1",
            ));
        }
        if self.functional.input_channels == 0 {
            return Err(PfError::invalid_scenario(
                "functional input_channels must be at least 1",
            ));
        }
        if self.functional.input_size == 0 || !self.functional.input_size.is_multiple_of(4) {
            return Err(PfError::invalid_scenario(
                "functional input_size must be a non-zero multiple of 4",
            ));
        }
        self.arch.resolve()?;
        if let Some(sweep) = &self.sweep {
            sweep.validate()?;
        }
        if let Some(serving) = &self.serving {
            serving.validate()?;
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
            let replicas = self
                .serving
                .as_ref()
                .and_then(|s| s.router.as_ref())
                .map_or(1, |r| r.replicas);
            if faults.replica >= replicas {
                return Err(PfError::invalid_scenario(format!(
                    "faults replica {} is out of range for a {replicas}-replica tier",
                    faults.replica
                )));
            }
        }
        Ok(())
    }

    /// Resolves the network registry name.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for unknown names.
    pub fn network_spec(&self) -> Result<NetworkSpec, PfError> {
        network_by_name(&self.network)
    }

    /// Serializes to TOML.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] on serialization failure.
    pub fn to_toml(&self) -> Result<String, PfError> {
        Ok(toml::to_string(self)?)
    }

    /// Parses a scenario from TOML and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] for malformed TOML or
    /// [`PfError::InvalidScenario`] for inconsistent contents.
    pub fn from_toml(text: &str) -> Result<Self, PfError> {
        let scenario: Scenario = toml::from_str(text)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] on serialization failure.
    pub fn to_json(&self) -> Result<String, PfError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a scenario from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] for malformed JSON or
    /// [`PfError::InvalidScenario`] for inconsistent contents.
    pub fn from_json(text: &str) -> Result<Self, PfError> {
        let scenario: Scenario = serde_json::from_str(text)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads a scenario from a `.toml` or `.json` file.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] for unreadable files or unknown
    /// extensions, and the usual parse/validation errors otherwise.
    pub fn from_path(path: impl AsRef<std::path::Path>) -> Result<Self, PfError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| PfError::Format {
            format: "file",
            reason: format!("{}: {e}", path.display()),
        })?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => Self::from_toml(&text),
            Some("json") => Self::from_json(&text),
            other => Err(PfError::Format {
                format: "file",
                reason: format!("unsupported scenario extension {other:?} (use .toml or .json)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;

    fn demo() -> Scenario {
        let mut scenario = Scenario::new("demo", "resnet18", BackendSpec::photofourier_cg(256));
        scenario.arch = ArchSpec {
            preset: ArchPreset::PhotofourierNg,
            num_pfcus: Some(32),
            input_waveguides: Some(105),
            temporal_accumulation: Some(8),
            area_budget_mm2: Some(80.0),
        };
        scenario.pipeline = PipelineConfig::photofourier_default();
        scenario.serving = Some(ServingSpec {
            max_batch: 4,
            batch_timeout_us: 500,
            queue_depth: 32,
            workers: 2,
            router: Some(RouterSpec {
                replicas: 3,
                policy: "least_loaded".to_string(),
                models: 4,
                ..RouterSpec::default()
            }),
        });
        scenario.faults = Some(FaultsSpec {
            seed: 7,
            replica: 1,
            windows: vec![
                FaultWindowSpec {
                    kind: "transient_error".to_string(),
                    from_seq: 4,
                    until_seq: 10,
                    every: 1,
                    magnitude: 0.0,
                },
                FaultWindowSpec {
                    kind: "latency_spike".to_string(),
                    from_seq: 16,
                    until_seq: 20,
                    every: 2,
                    magnitude: 250.0,
                },
            ],
        });
        scenario
    }

    #[test]
    fn registry_is_complete() {
        for name in NETWORK_REGISTRY {
            assert!(network_by_name(name).is_ok(), "{name}");
        }
        assert!(network_by_name("lenet").is_err());
    }

    #[test]
    fn toml_round_trip_preserves_everything() {
        let scenario = demo();
        let text = scenario.to_toml().unwrap();
        let back = Scenario::from_toml(&text).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let scenario = demo();
        let text = scenario.to_json().unwrap();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let mut s = demo();
        s.network = "lenet".into();
        assert!(s.validate().is_err());

        let mut s = demo();
        s.backend.capacity = 0;
        assert!(s.validate().is_err());

        let mut s = demo();
        s.pipeline.temporal_depth = 0;
        assert!(s.validate().is_err());

        let mut s = demo();
        s.functional.input_size = 15;
        assert!(s.validate().is_err());

        let mut s = demo();
        s.arch.num_pfcus = Some(0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn serving_spec_is_validated() {
        for break_it in [
            (|s: &mut ServingSpec| s.max_batch = 0) as fn(&mut ServingSpec),
            |s| s.queue_depth = 0,
        ] {
            let mut s = demo();
            let spec = s.serving.as_mut().unwrap();
            break_it(spec);
            assert!(s.validate().is_err());
        }
        // workers == 0 selects automatic sizing and is legal.
        let mut s = demo();
        s.serving.as_mut().unwrap().workers = 0;
        assert!(s.validate().is_ok());
        // The whole section is optional (the demo fault plan targets
        // replica 1, which only exists while the router does).
        let mut s = demo();
        s.serving = None;
        s.faults = None;
        assert!(s.validate().is_ok());
        assert_eq!(ServingSpec::default().max_batch, 8);
    }

    #[test]
    fn router_spec_is_validated() {
        for break_it in [
            (|r: &mut RouterSpec| r.replicas = 0) as fn(&mut RouterSpec),
            |r| r.policy = "random".to_string(),
            |r| r.priority_classes.clear(),
            |r| r.priority_classes = vec!["a".into(); 9],
            |r| r.priority_classes = vec!["a".into(), "a".into()],
            |r| r.priority_classes = vec![String::new()],
            |r| r.models = 0,
            |r| r.replica_cache = 0,
            |r| r.shed_at = 1.5,
            |r| r.shrink_at = 0.0,
            |r| {
                r.shrink_at = 0.9;
                r.shed_at = 0.5;
            },
        ] {
            let mut s = demo();
            let router = s.serving.as_mut().unwrap().router.as_mut().unwrap();
            break_it(router);
            assert!(s.validate().is_err());
        }
        // Every policy in the registry is accepted.
        for policy in ROUTER_POLICIES {
            let mut s = demo();
            s.serving.as_mut().unwrap().router.as_mut().unwrap().policy = policy.to_string();
            assert!(s.validate().is_ok(), "{policy}");
        }
        assert_eq!(RouterSpec::default().replicas, 2);
    }

    #[test]
    fn faults_spec_is_validated() {
        for break_it in [
            (|f: &mut FaultsSpec| f.windows[0].kind = "gremlin".to_string()) as fn(&mut FaultsSpec),
            |f| f.windows[0].until_seq = f.windows[0].from_seq,
            |f| f.windows[0].every = 0,
            |f| f.windows[0].magnitude = f64::NAN,
            |f| f.windows[0].magnitude = -1.0,
            |f| f.replica = 3, // demo router has 3 replicas: 0..=2
        ] {
            let mut s = demo();
            break_it(s.faults.as_mut().unwrap());
            assert!(s.validate().is_err());
        }
        // Every registered kind is accepted.
        for kind in FAULT_KINDS {
            let mut s = demo();
            s.faults.as_mut().unwrap().windows[0].kind = kind.to_string();
            assert!(s.validate().is_ok(), "{kind}");
        }
        // Without a router, only replica 0 exists.
        let mut s = demo();
        s.serving = None;
        s.faults.as_mut().unwrap().replica = 1;
        assert!(s.validate().is_err());
        // The whole section is optional, and a bare table is a no-op plan.
        let mut s = demo();
        s.faults = None;
        assert!(s.validate().is_ok());
        assert!(FaultsSpec::default().windows.is_empty());
    }

    #[test]
    fn empty_router_table_uses_defaults() {
        let text = r#"
name = "routed"
network = "resnet18"

[backend]
kind = "jtc_ideal"
capacity = 256

[arch]
preset = "PhotofourierCg"

[pipeline]
temporal_depth = 16
pseudo_negative = true
edge_handling = "Wraparound"

[pipeline.weight_quant]
bits = 8
enabled = true

[pipeline.activation_quant]
bits = 8
enabled = true

[functional]
input_channels = 1
input_size = 16
weight_seed = 42

[serving]
max_batch = 8
batch_timeout_us = 2000
queue_depth = 64
workers = 1

[serving.router]
"#;
        let scenario = Scenario::from_toml(text).unwrap();
        let router = scenario.serving.unwrap().router.unwrap();
        assert_eq!(router, RouterSpec::default());
        assert_eq!(router.priority_classes.len(), 3);
    }

    #[test]
    fn arch_overrides_apply() {
        let config = demo().arch.resolve().unwrap();
        assert_eq!(config.tech.num_pfcus, 32);
        assert_eq!(config.tech.input_waveguides, 105);
        assert_eq!(config.tech.temporal_accumulation, 8);
        assert_eq!(config.area_budget_mm2, 80.0);
        let mut bad = demo();
        bad.arch.temporal_accumulation = Some(0);
        assert!(bad.arch.resolve().is_err());
        // Preset with no overrides resolves to the stock design point.
        let stock = ArchSpec::preset(ArchPreset::PhotofourierCg)
            .resolve()
            .unwrap();
        assert_eq!(stock, ArchConfig::photofourier_cg());
    }

    #[test]
    fn handwritten_toml_parses() {
        let text = r#"
name = "hand"
network = "crosslight_cnn"

[backend]
kind = "JtcIdeal"
capacity = 256

[arch]
preset = "PhotofourierCg"

[pipeline]
temporal_depth = 16
psum_adc_bits = 8
pseudo_negative = true
edge_handling = "Wraparound"

[pipeline.weight_quant]
bits = 8
enabled = true

[pipeline.activation_quant]
bits = 8
enabled = true

[functional]
input_channels = 1
input_size = 16
weight_seed = 42
"#;
        let scenario = Scenario::from_toml(text).unwrap();
        assert_eq!(scenario.backend.kind, BackendKind::JtcIdeal);
        assert_eq!(scenario.pipeline.temporal_depth, 16);
        assert_eq!(scenario.arch.num_pfcus, None);
    }
}
