//! Scale-out serving: the `pf-router` multi-replica tier wired to
//! model-sharded [`Session`]s.
//!
//! Each replica runs a [`ModelShardEngine`]: a small LRU of model-variant
//! sessions (each with its own weights and its layers lowered).
//! Requests carry a model key; the `kernel_affinity` dispatch policy
//! consistent-hashes that key so one model's requests concentrate on one
//! replica and keep its spectra resident — the cache-hit counters in
//! [`pf_router::RouterStats`] measure exactly how much locality each
//! policy achieves. See `docs/SERVING.md` for the degradation ladder and
//! stats fields.
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

use parking_lot::Mutex;
use pf_core::{PfError, Scenario, ServingSpec};
use pf_nn::Tensor;
use pf_serve::InferenceEngine;
use pf_telemetry::Telemetry;

pub use pf_faults::{Corruption, FaultCounts, FaultPlan, FaultyEngine};
pub use pf_router::{
    BreakerState, CacheStats, HealthConfig, Policy, ReplicaEngine, ReplicaHealthReport, Router,
    RouterConfig, RouterRequest, RouterStats, RouterTicket,
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
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for a zero capacity, or
    /// session construction/warm-up errors.
    pub fn new(base: Arc<Scenario>, capacity: usize) -> Result<Self, PfError> {
        Self::with_telemetry(base, capacity, Telemetry::disabled())
    }

    /// Like [`ModelShardEngine::new`] with an observability handle shared
    /// by every variant session the shard builds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelShardEngine::new`].
    pub fn with_telemetry(
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
        ModelShardEngine::with_telemetry(Arc::clone(&base), replica_cache, shard_tel.clone())
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

/// One chaos replica: a [`ModelShardEngine`] wrapped in a deterministic
/// fault injector. The `Arc` is shared between the router (which serves
/// through it) and the caller (which reads [`FaultyEngine::counts`]).
pub type ChaosShard = Arc<FaultyEngine<ModelShardEngine>>;

/// A routing tier whose replicas inject faults per the scenario's
/// `[faults]` plan.
pub type ChaosRouter = Router<ChaosShard>;

/// Like [`route_scenario`], but every replica is wrapped in a
/// [`FaultyEngine`]: the scenario's `[faults]` plan is installed on its
/// target replica (an empty plan elsewhere), with a [`Tensor`] corruptor
/// that writes NaN/Inf into the first element or scales the payload by the
/// drift gain. Returns the router plus one [`ChaosShard`] handle per
/// replica, in replica order, so the caller can read injected-fault
/// counts without tearing the router down.
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
        let inner = ModelShardEngine::new(Arc::clone(&base), replica_cache)?;
        let plan = if replica == faults.replica {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        let shard = Arc::new(FaultyEngine::new(inner, plan).with_corruptor(corrupt_tensor));
        shards.push(Arc::clone(&shard));
        Ok(shard)
    })?;
    Ok((router, shards))
}

/// Applies a [`Corruption`] to a served feature tensor: NaN/Inf poison the
/// first element (enough for any all-finite screen to reject the payload),
/// drift scales every element by the gain.
fn corrupt_tensor(tensor: &mut Tensor, corruption: Corruption) {
    match corruption {
        Corruption::Nan => {
            if let Some(v) = tensor.data_mut().first_mut() {
                *v = f64::NAN;
            }
        }
        Corruption::Inf => {
            if let Some(v) = tensor.data_mut().first_mut() {
                *v = f64::INFINITY;
            }
        }
        Corruption::Gain(gain) => {
            for v in tensor.data_mut() {
                *v *= gain;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::BackendSpec;

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
        let shard = ModelShardEngine::new(Arc::new(base_scenario()), 2).unwrap();
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
    fn variants_differ_and_are_deterministic_across_shards() {
        let base = Arc::new(base_scenario());
        let a = ModelShardEngine::new(Arc::clone(&base), 2).unwrap();
        let b = ModelShardEngine::new(Arc::clone(&base), 2).unwrap();
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
}
