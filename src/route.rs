//! Scale-out serving: the `pf-router` multi-replica tier wired to
//! model-sharded [`Session`]s.
//!
//! Each replica runs a [`ModelShardEngine`]: a small LRU of model-variant
//! sessions (each with its own weights and its layers lowered).
//! Requests carry a model key; the `kernel_affinity` dispatch policy
//! consistent-hashes that key so one model's requests concentrate on one
//! replica and keep its spectra resident — the cache-hit counters in
//! [`pf_router::RouterStats`] measure exactly how much locality each
//! policy achieves. A request whose home replica is busy goes instead to
//! a strictly less-loaded replica that already holds its model
//! ([`ReplicaEngine::holds`]), so spreading load never costs a miss.
//! See `docs/SERVING.md` for the degradation ladder and stats fields.
//!
//! [`chaos_scenario`] builds the same tier with every replica wrapped in a
//! [`FaultyEngine`], which injects the scenario's `[faults]` plan
//! ([`FaultPlan`]) keyed by the replica's request sequence numbers, so a
//! chaos run replays its faults exactly.
//!
//! ```no_run
//! use photofourier::prelude::*;
//! use photofourier::route::{self, ModelRequest};
//! use pf_router::RouterRequest;
//!
//! let scenario = Scenario::from_path("scenarios/routing_resnet18.toml")?;
//! let router = route::route_scenario(scenario)?;
//!
//! let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 1);
//! let request = ModelRequest::new(image, 2).with_seed(0);
//! let ticket = router.submit(RouterRequest::new(request).with_affinity(2))?;
//! let features = ticket.wait()?;
//!
//! let stats = router.drain()?;
//! println!("p99: {:.2} ms, cache hit rate: {:.0}%",
//!     stats.latency.p99_ms, stats.cache().hit_rate() * 100.0);
//! # Ok::<(), photofourier::PfError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pf_core::{FaultsSpec, PfError, Scenario, ServingSpec};
use pf_nn::Tensor;
use pf_photonics::detector::SensingNoise;
use pf_router::policy::{splitmix64, unit_from_bits};
use pf_serve::InferenceEngine;
use pf_telemetry::Telemetry;

pub use pf_router::{
    BreakerState, CacheStats, Policy, ReplicaEngine, ReplicaHealthReport, Router, RouterConfig,
    RouterRequest, RouterStats, RouterTicket,
};

use crate::session::Session;

/// A [`pf_router::Router`] whose replicas run model-sharded sessions.
pub type SessionRouter = Router<ModelShardEngine>;

/// One routed inference request: an image bound for a model variant, plus
/// the replay seed for stochastic backends.
#[derive(Debug, Clone)]
pub struct ModelRequest {
    /// Input image.
    pub image: Tensor,
    /// Model-variant key (see [`model_scenario`]). Also the affinity key
    /// the `kernel_affinity` policy hashes.
    pub model: u64,
    /// Noise-stream seed for stochastic backends, assigned by the caller
    /// (for instance the request's arrival index) so served
    /// results replay offline via [`Session::run_inference_seeded`]
    /// regardless of batching or replica placement. Ignored by
    /// deterministic backends.
    pub seed: u64,
}

impl ModelRequest {
    /// A request for `model` with seed 0.
    pub fn new(image: Tensor, model: u64) -> Self {
        Self {
            image,
            model,
            seed: 0,
        }
    }

    /// Sets the stochastic replay seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The scenario of one model variant: the base scenario with the
/// functional network re-seeded by the variant key (variant 0 *is* the
/// base scenario). Every replica derives variants the same way, so a
/// model's weights — and therefore its outputs and its prepared kernel
/// spectra — are identical wherever it is instantiated.
pub fn model_scenario(base: &Scenario, model: u64) -> Scenario {
    let mut scenario = base.clone();
    if model != 0 {
        scenario.name = format!("{}/model={model}", base.name);
        scenario.functional.weight_seed = base.functional.weight_seed.wrapping_add(model);
    }
    scenario
}

/// One replica's engine: an LRU of model-variant [`Session`]s.
///
/// A request whose model is resident is a cache *hit* — it runs against a
/// session whose layers are already lowered. A miss builds (and warms)
/// the variant's session, evicting the least-recently-used resident
/// variant once the shard holds `capacity` sessions. Routing policy
/// decides how often each case happens; the hit/miss counters feed
/// [`pf_router::RouterStats`] via [`ReplicaEngine::cache_stats`].
#[derive(Debug)]
pub struct ModelShardEngine {
    base: Arc<Scenario>,
    capacity: usize,
    /// Most-recently-used first.
    resident: Mutex<Vec<(u64, Arc<Session>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Handed to every variant session this shard builds, so stage
    /// timings from all variants land in one registry.
    telemetry: Telemetry,
}

impl ModelShardEngine {
    /// A shard over `base`'s model variants keeping at most `capacity`
    /// sessions resident, with model 0 (the base scenario) pre-built and
    /// warmed so a fresh router serves its first request from a warm
    /// cache. Every variant session the shard builds shares `telemetry`
    /// (pass [`Telemetry::disabled`] for none).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for a zero capacity, or
    /// session construction/warm-up errors.
    pub fn new(
        base: Arc<Scenario>,
        capacity: usize,
        telemetry: Telemetry,
    ) -> Result<Self, PfError> {
        if capacity == 0 {
            return Err(PfError::invalid_scenario(
                "model shard capacity must be at least 1",
            ));
        }
        let shard = Self {
            base,
            capacity,
            resident: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            telemetry,
        };
        let warm = shard.build_session(0)?;
        shard.resident.lock().push((0, warm));
        Ok(shard)
    }

    /// Sessions currently resident (for tests and introspection).
    pub fn resident_models(&self) -> Vec<u64> {
        self.resident.lock().iter().map(|&(m, _)| m).collect()
    }

    fn build_session(&self, model: u64) -> Result<Arc<Session>, PfError> {
        let session = Session::builder()
            .scenario(model_scenario(&self.base, model))
            .telemetry(self.telemetry.clone())
            .build()?;
        session.warmup()?;
        Ok(Arc::new(session))
    }

    /// The session for `model`, counting the lookup and updating the LRU.
    fn session_for(&self, model: u64) -> Result<Arc<Session>, PfError> {
        let mut resident = self.resident.lock();
        if let Some(pos) = resident.iter().position(|&(m, _)| m == model) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let entry = resident.remove(pos);
            let session = Arc::clone(&entry.1);
            resident.insert(0, entry);
            return Ok(session);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Build while holding the lock: a shard's worker threads must not
        // race to build the same variant twice (the build dominates the
        // lock hold anyway — it is the miss penalty being measured).
        let session = self.build_session(model)?;
        resident.insert(0, (model, Arc::clone(&session)));
        resident.truncate(self.capacity);
        Ok(session)
    }
}

impl InferenceEngine for ModelShardEngine {
    type Request = ModelRequest;
    type Response = Tensor;

    /// Runs each request against its model's session, seeded with the
    /// request's own `seed` ([`Session::run_inference_seeded`]: stochastic
    /// backends pin the noise stream to it, deterministic ones ignore it
    /// and are bit-identical to offline [`Session::run_inference`] on the
    /// same variant).
    fn infer_batch(&self, inputs: &[ModelRequest], _seqs: &[u64]) -> Result<Vec<Tensor>, PfError> {
        inputs
            .iter()
            .map(|request| {
                let session = self.session_for(request.model)?;
                session.run_inference_seeded(&request.image, request.seed)
            })
            .collect()
    }
}

impl ReplicaEngine for ModelShardEngine {
    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// A served feature tensor is sane only if every element is finite:
    /// one NaN or Inf (e.g. injected detector corruption) taints any
    /// downstream computation silently, so the router discards the
    /// response and retries instead of delivering it.
    fn screen(&self, response: &Tensor) -> bool {
        response.data().iter().all(|v| v.is_finite())
    }

    /// Whether `request.model`'s session is resident. A contended lock
    /// answers `false`: a worker may hold it for a whole session build,
    /// and a submit must never wait for one. Counts no hit or miss and
    /// leaves the LRU order as it is.
    fn holds(&self, request: &ModelRequest) -> bool {
        self.resident
            .try_lock()
            .is_some_and(|resident| resident.iter().any(|&(m, _)| m == request.model))
    }
}

/// Builds a routing tier from a scenario: replica count, policy, priority
/// classes and thresholds from the `[serving.router]` section (defaults
/// when absent), each replica a [`ModelShardEngine`] with
/// `replica_cache` resident model sessions.
///
/// # Errors
///
/// Propagates configuration validation and session construction errors.
pub fn route_scenario(scenario: Scenario) -> Result<SessionRouter, PfError> {
    route_scenario_traced(scenario, Telemetry::disabled())
}

/// Like [`route_scenario`] with an observability handle: request ids are
/// minted at router admission and carried down through the chosen replica,
/// so one routed request yields one span tree (admission → queue → batch →
/// per-stage execution) and each replica's counters are scoped under a
/// `replicaN.` prefix.
///
/// # Errors
///
/// Same conditions as [`route_scenario`].
pub fn route_scenario_traced(
    scenario: Scenario,
    telemetry: Telemetry,
) -> Result<SessionRouter, PfError> {
    let (config, replica_cache) = router_config(&scenario)?;
    let base = Arc::new(scenario);
    let shard_tel = telemetry.clone();
    Router::with_telemetry(config, telemetry, |_replica| {
        ModelShardEngine::new(Arc::clone(&base), replica_cache, shard_tel.clone())
    })
}

/// The router configuration of `scenario`'s `[serving.router]` section
/// (defaults when absent), validated, with the shard capacity
/// (`replica_cache`) the engines need.
fn router_config(scenario: &Scenario) -> Result<(RouterConfig, usize), PfError> {
    let serving = scenario.serving.clone().unwrap_or_default();
    let router_spec = serving.router.clone().unwrap_or_default();
    let config = RouterConfig::from_spec(&ServingSpec {
        router: Some(router_spec.clone()),
        ..serving
    })?;
    router_spec.validate()?;
    Ok((config, router_spec.replica_cache))
}

/// One injectable fault, compiled from a `[[faults.windows]]` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Sleep for roughly this long (seeded jitter applies) before serving
    /// the batch.
    LatencySpike {
        /// Nominal spike duration in microseconds.
        micros: u64,
    },
    /// A longer sleep: same mechanism as a spike, reported separately so a
    /// wedged replica is distinguishable from a slow one.
    Stall {
        /// Nominal stall duration in microseconds.
        micros: u64,
    },
    /// The engine panics while serving the batch.
    Panic,
    /// The batch fails with a typed, retry-safe [`PfError::FaultInjected`].
    TransientError,
    /// A NaN is written into the first element of the faulted request's
    /// response.
    CorruptNan,
    /// An infinity is written into the first element of the faulted
    /// request's response.
    CorruptInf,
    /// The faulted request's response is scaled by a seeded calibration
    /// gain error drawn from `pf-photonics`' sensing-noise model.
    CalibrationDrift {
        /// Gain-error sigma (standard deviation around a gain of 1.0).
        sigma: f64,
    },
}

/// A compiled fault window: one [`FaultKind`] over a half-open seq range.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultWindow {
    kind: FaultKind,
    from_seq: u64,
    until_seq: u64,
    every: u64,
}

/// A seeded, fully deterministic fault schedule, compiled from the
/// scenario's `[faults]` section ([`pf_core::FaultsSpec`]).
///
/// The schedule is a pure function of the wrapped replica's request
/// sequence number: given the same request stream, the same faults fire at
/// the same points in every run, so chaos runs replay bit-identically and
/// their counts can be pinned. The seed only feeds per-request
/// *magnitudes* (spike jitter, drift draws), never *whether* a fault
/// fires. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Compiles a `[faults]` spec into a plan.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] if the spec fails
    /// [`FaultsSpec::validate`].
    pub fn from_spec(spec: &FaultsSpec) -> Result<Self, PfError> {
        spec.validate()?;
        let windows = spec
            .windows
            .iter()
            .map(|w| {
                let kind = match w.kind.as_str() {
                    "latency_spike" => FaultKind::LatencySpike {
                        micros: w.magnitude as u64,
                    },
                    "stall" => FaultKind::Stall {
                        micros: w.magnitude as u64,
                    },
                    "panic" => FaultKind::Panic,
                    "transient_error" => FaultKind::TransientError,
                    "corrupt_nan" => FaultKind::CorruptNan,
                    "corrupt_inf" => FaultKind::CorruptInf,
                    "calibration_drift" => FaultKind::CalibrationDrift { sigma: w.magnitude },
                    other => unreachable!("validate() admitted unknown fault kind `{other}`"),
                };
                FaultWindow {
                    kind,
                    from_seq: w.from_seq,
                    until_seq: w.until_seq,
                    every: w.every,
                }
            })
            .collect();
        Ok(Self {
            seed: spec.seed,
            windows,
        })
    }

    /// The fault (if any) scheduled for request sequence number `seq`.
    /// Earlier windows win when windows overlap.
    pub fn fault_for(&self, seq: u64) -> Option<FaultKind> {
        self.windows.iter().find_map(|w| {
            (seq >= w.from_seq && seq < w.until_seq && (seq - w.from_seq).is_multiple_of(w.every))
                .then_some(w.kind)
        })
    }

    /// Deterministic per-seq jitter factor in `[0.5, 1.0)`.
    fn jitter(&self, seq: u64) -> f64 {
        0.5 + 0.5
            * unit_from_bits(splitmix64(
                self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
    }

    /// Deterministic calibration-drift gain for `seq`: a draw around 1.0
    /// with standard deviation `sigma`, via the pf-photonics sensing-noise
    /// model seeded from the plan seed and the sequence number.
    fn drift_gain(&self, seq: u64, sigma: f64) -> f64 {
        let seed = splitmix64(self.seed ^ seq ^ 0xD1F7_5EED);
        match SensingNoise::new(sigma, seed) {
            Ok(mut noise) => noise.perturb(1.0),
            // validate() guarantees sigma >= 0, so this arm is unreachable;
            // degrade to a no-op gain rather than panicking inside a fault.
            Err(_) => 1.0,
        }
    }
}

/// How many faults of each kind a [`FaultyEngine`] has injected. These are
/// pure counts of deterministic events, so two runs of the same plan over
/// the same request stream produce identical values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Latency spikes slept.
    pub spikes: u64,
    /// Stalls slept.
    pub stalls: u64,
    /// Panics raised.
    pub panics: u64,
    /// Transient typed errors returned.
    pub errors: u64,
    /// NaN/Inf payload corruptions applied.
    pub corruptions: u64,
    /// Calibration-drift gains applied.
    pub drifts: u64,
}

/// An engine serving feature [`Tensor`]s, wrapped to inject the faults a
/// [`FaultPlan`] schedules; otherwise it forwards to the wrapped engine
/// unchanged, so it drops into a router tier as is. Of the
/// [`ReplicaEngine`] seam it forwards the cache counters and the screen
/// but keeps the default [`ReplicaEngine::holds`]: faults key on each
/// replica's sequence numbers, so placement under injection must stay a
/// pure function of the affinity key for a chaos run to replay.
///
/// Panics and transient errors take the whole batch down, as a real
/// replica would; spikes and stalls sleep the largest jittered delay once
/// per batch; corruption and drift are written into the faulted request's
/// response on the way out.
#[derive(Debug)]
pub struct FaultyEngine<E> {
    inner: E,
    plan: FaultPlan,
    counts: Mutex<FaultCounts>,
}

impl<E> FaultyEngine<E> {
    /// Wraps `inner` with a fault plan.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            counts: Mutex::new(FaultCounts::default()),
        }
    }

    /// Snapshot of how many faults of each kind have been injected.
    pub fn counts(&self) -> FaultCounts {
        *self.counts.lock()
    }
}

impl<E: InferenceEngine<Response = Tensor>> InferenceEngine for FaultyEngine<E> {
    type Request = E::Request;
    type Response = Tensor;

    fn infer_batch(&self, inputs: &[E::Request], seqs: &[u64]) -> Result<Vec<Tensor>, PfError> {
        let faults: Vec<Option<FaultKind>> = seqs.iter().map(|&s| self.plan.fault_for(s)).collect();

        if faults.contains(&Some(FaultKind::Panic)) {
            self.counts.lock().panics += 1;
            panic!("injected engine panic");
        }
        if faults.contains(&Some(FaultKind::TransientError)) {
            self.counts.lock().errors += 1;
            return Err(PfError::FaultInjected {
                kind: "transient_error",
            });
        }

        let mut delay_us = 0u64;
        for (fault, &seq) in faults.iter().zip(seqs) {
            let micros = match *fault {
                Some(FaultKind::LatencySpike { micros }) => {
                    self.counts.lock().spikes += 1;
                    micros
                }
                Some(FaultKind::Stall { micros }) => {
                    self.counts.lock().stalls += 1;
                    micros
                }
                _ => continue,
            };
            delay_us = delay_us.max((micros as f64 * self.plan.jitter(seq)) as u64);
        }
        if delay_us > 0 {
            std::thread::sleep(Duration::from_micros(delay_us));
        }

        let mut outputs = self.inner.infer_batch(inputs, seqs)?;
        for ((output, fault), &seq) in outputs.iter_mut().zip(&faults).zip(seqs) {
            // NaN/Inf in the first element is enough for any all-finite
            // screen to reject the payload; drift scales every element.
            let data = output.data_mut();
            match *fault {
                Some(FaultKind::CorruptNan) => {
                    self.counts.lock().corruptions += 1;
                    if let Some(v) = data.first_mut() {
                        *v = f64::NAN;
                    }
                }
                Some(FaultKind::CorruptInf) => {
                    self.counts.lock().corruptions += 1;
                    if let Some(v) = data.first_mut() {
                        *v = f64::INFINITY;
                    }
                }
                Some(FaultKind::CalibrationDrift { sigma }) => {
                    self.counts.lock().drifts += 1;
                    let gain = self.plan.drift_gain(seq, sigma);
                    data.iter_mut().for_each(|v| *v *= gain);
                }
                _ => {}
            }
        }
        Ok(outputs)
    }
}

impl<E: ReplicaEngine<Response = Tensor>> ReplicaEngine for FaultyEngine<E> {
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn screen(&self, response: &Tensor) -> bool {
        self.inner.screen(response)
    }
}

/// One chaos replica: a [`ModelShardEngine`] wrapped in a deterministic
/// fault injector. The `Arc` is shared between the router (which serves
/// through it) and the caller (which reads [`FaultyEngine::counts`]).
pub type ChaosShard = Arc<FaultyEngine<ModelShardEngine>>;

/// A routing tier whose replicas inject faults per the scenario's
/// `[faults]` plan.
pub type ChaosRouter = Router<ChaosShard>;

/// Like [`route_scenario`], but every replica is wrapped in a
/// [`FaultyEngine`]: the scenario's `[faults]` plan is installed on its
/// target replica (the empty plan elsewhere). Returns the router plus one
/// [`ChaosShard`] handle per replica, in replica order, so the caller can
/// read injected-fault counts without tearing the router down.
///
/// A scenario without a `[faults]` section yields pure passthrough
/// wrappers — useful as the control arm of a chaos experiment.
///
/// # Errors
///
/// Propagates configuration validation and session construction errors.
pub fn chaos_scenario(scenario: Scenario) -> Result<(ChaosRouter, Vec<ChaosShard>), PfError> {
    let (config, replica_cache) = router_config(&scenario)?;
    let faults = scenario.faults.clone().unwrap_or_default();
    let plan = FaultPlan::from_spec(&faults)?;
    let base = Arc::new(scenario);
    let mut shards: Vec<ChaosShard> = Vec::new();
    let router = Router::new(config, |replica| {
        let inner = ModelShardEngine::new(Arc::clone(&base), replica_cache, Telemetry::disabled())?;
        let plan = if replica == faults.replica {
            plan.clone()
        } else {
            FaultPlan::default()
        };
        let shard = Arc::new(FaultyEngine::new(inner, plan));
        shards.push(Arc::clone(&shard));
        Ok(shard)
    })?;
    Ok((router, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::{BackendSpec, FaultWindowSpec};

    fn base_scenario() -> Scenario {
        Scenario::new("route_test", "resnet18", BackendSpec::digital(256))
    }

    #[test]
    fn model_zero_is_the_base_scenario() {
        let base = base_scenario();
        assert_eq!(model_scenario(&base, 0), base);
        let variant = model_scenario(&base, 3);
        assert_ne!(variant.functional.weight_seed, base.functional.weight_seed);
        assert!(variant.name.contains("model=3"));
        variant.validate().unwrap();
    }

    #[test]
    fn shard_lru_evicts_and_counts() {
        let shard =
            ModelShardEngine::new(Arc::new(base_scenario()), 2, Telemetry::disabled()).unwrap();
        assert_eq!(shard.resident_models(), vec![0]);
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 5);

        // Model 0 is pre-warmed: a hit.
        shard
            .infer_batch(&[ModelRequest::new(image.clone(), 0)], &[0])
            .unwrap();
        // Model 1: miss, now resident (MRU first).
        shard
            .infer_batch(&[ModelRequest::new(image.clone(), 1)], &[1])
            .unwrap();
        assert_eq!(shard.resident_models(), vec![1, 0]);
        // Model 2: miss, evicts model 0.
        shard
            .infer_batch(&[ModelRequest::new(image.clone(), 2)], &[2])
            .unwrap();
        assert_eq!(shard.resident_models(), vec![2, 1]);
        // Model 0 again: miss (was evicted).
        shard
            .infer_batch(&[ModelRequest::new(image, 0)], &[3])
            .unwrap();
        let cache = shard.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 3);
    }

    #[test]
    fn holds_reports_resident_variants_without_touching_the_lru() {
        let shard =
            ModelShardEngine::new(Arc::new(base_scenario()), 2, Telemetry::disabled()).unwrap();
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 5);
        let request = |model| ModelRequest::new(image.clone(), model);
        assert!(shard.holds(&request(0)), "variant 0 is pre-built");
        assert!(!shard.holds(&request(1)));

        shard.infer_batch(&[request(1)], &[0]).unwrap();
        let (resident, cache) = (shard.resident_models(), shard.cache_stats());
        assert_eq!(resident, vec![1, 0]);
        assert!(shard.holds(&request(0)) && shard.holds(&request(1)));
        assert!(!shard.holds(&request(2)));
        assert_eq!(shard.resident_models(), resident, "holds reordered the LRU");
        assert_eq!(shard.cache_stats(), cache, "holds counted a lookup");

        // A worker building a session holds the lock: answer at once.
        let building = shard.resident.lock();
        assert!(!shard.holds(&request(0)), "a contended lock answers false");
        drop(building);
    }

    #[test]
    fn variants_differ_and_are_deterministic_across_shards() {
        let base = Arc::new(base_scenario());
        let a = ModelShardEngine::new(Arc::clone(&base), 2, Telemetry::disabled()).unwrap();
        let b = ModelShardEngine::new(Arc::clone(&base), 2, Telemetry::disabled()).unwrap();
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 9);

        let m0 = a
            .infer_batch(&[ModelRequest::new(image.clone(), 0)], &[0])
            .unwrap();
        let m1 = a
            .infer_batch(&[ModelRequest::new(image.clone(), 1)], &[1])
            .unwrap();
        assert_ne!(m0, m1, "variants have different weights");
        // The same variant on a different shard is bit-identical.
        let m1_b = b.infer_batch(&[ModelRequest::new(image, 1)], &[0]).unwrap();
        assert_eq!(m1, m1_b);
    }

    /// Echo engine: response = `[seq, value]`.
    #[derive(Debug)]
    struct Echo;

    impl InferenceEngine for Echo {
        type Request = f64;
        type Response = Tensor;

        fn infer_batch(&self, inputs: &[f64], seqs: &[u64]) -> Result<Vec<Tensor>, PfError> {
            Ok(seqs
                .iter()
                .zip(inputs)
                .map(|(&seq, &value)| Tensor::new(vec![2], vec![seq as f64, value]).unwrap())
                .collect())
        }
    }

    fn plan(windows: &[(&str, u64, u64, u64, f64)]) -> FaultPlan {
        FaultPlan::from_spec(&FaultsSpec {
            seed: 7,
            replica: 0,
            windows: windows
                .iter()
                .map(
                    |&(kind, from_seq, until_seq, every, magnitude)| FaultWindowSpec {
                        kind: kind.to_string(),
                        from_seq,
                        until_seq,
                        every,
                        magnitude,
                    },
                )
                .collect(),
        })
        .unwrap()
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_seq() {
        let plan = plan(&[
            ("transient_error", 4, 8, 2, 0.0),
            ("corrupt_nan", 6, 10, 1, 0.0),
        ]);
        for _ in 0..3 {
            assert_eq!(plan.fault_for(3), None);
            assert_eq!(plan.fault_for(4), Some(FaultKind::TransientError));
            assert_eq!(plan.fault_for(5), None);
            // Overlap: the earlier window wins.
            assert_eq!(plan.fault_for(6), Some(FaultKind::TransientError));
            assert_eq!(plan.fault_for(7), Some(FaultKind::CorruptNan));
            assert_eq!(plan.fault_for(8), Some(FaultKind::CorruptNan));
            assert_eq!(plan.fault_for(10), None);
        }
    }

    #[test]
    fn transient_errors_and_panics_take_the_whole_batch() {
        let engine = FaultyEngine::new(Echo, plan(&[("transient_error", 1, 2, 1, 0.0)]));
        assert!(engine.infer_batch(&[1.0], &[0]).is_ok());
        let err = engine.infer_batch(&[1.0, 2.0], &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            PfError::FaultInjected {
                kind: "transient_error"
            }
        );
        assert!(engine.infer_batch(&[1.0], &[2]).is_ok());
        assert_eq!(
            engine.counts(),
            FaultCounts {
                errors: 1,
                ..FaultCounts::default()
            }
        );

        let engine = FaultyEngine::new(Echo, plan(&[("panic", 1, 2, 1, 0.0)]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.infer_batch(&[1.0, 2.0], &[0, 1])
        }));
        assert!(result.is_err());
        assert_eq!(engine.counts().panics, 1);
    }

    #[test]
    fn corruption_poisons_element_zero_and_drift_replays_bit_for_bit() {
        let plan = plan(&[
            ("corrupt_nan", 0, 1, 1, 0.0),
            ("corrupt_inf", 1, 2, 1, 0.0),
            ("calibration_drift", 2, 3, 1, 0.25),
        ]);
        let run = || {
            let engine = FaultyEngine::new(Echo, plan.clone());
            let out = engine.infer_batch(&[3.0; 4], &[0, 1, 2, 3]).unwrap();
            (out, engine.counts())
        };
        let (out, counts) = run();
        assert!(out[0].data()[0].is_nan());
        assert!(out[1].data()[0].is_infinite());
        assert_eq!(out[0].data()[1], 3.0, "corruption writes element 0 only");
        assert_eq!(out[1].data()[1], 3.0, "corruption writes element 0 only");
        let gain = plan.drift_gain(2, 0.25);
        assert!(gain.is_finite() && gain != 1.0, "drift must perturb");
        assert_eq!(
            out[2].data(),
            [2.0 * gain, 3.0 * gain],
            "drift scales every element"
        );
        assert_eq!(out[3].data(), [3.0, 3.0]);
        assert_eq!(counts.corruptions, 2);
        assert_eq!(counts.drifts, 1);
        // Same plan, same stream: the same bits out.
        let (again, counts_again) = run();
        assert_eq!(out[2].data()[1].to_bits(), again[2].data()[1].to_bits());
        assert_eq!(counts, counts_again);
    }

    #[test]
    fn spikes_sleep_but_serve() {
        let engine = FaultyEngine::new(Echo, plan(&[("latency_spike", 0, 1, 1, 100.0)]));
        let out = engine.infer_batch(&[1.0], &[0]).unwrap();
        assert_eq!(out[0].data(), [0.0, 1.0]);
        assert_eq!(engine.counts().spikes, 1);
    }

    #[test]
    fn the_empty_plan_injects_nothing() {
        let engine = FaultyEngine::new(Echo, FaultPlan::default());
        for seq in 0..64 {
            let out = engine.infer_batch(&[1.0], &[seq]).unwrap();
            assert_eq!(out[0].data(), [seq as f64, 1.0]);
        }
        assert_eq!(engine.counts(), FaultCounts::default());
    }
}
