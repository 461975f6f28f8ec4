//! The front tier: admission, priority shedding, policy dispatch,
//! graceful degradation, drain.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pf_core::{PfError, ServingSpec};
use pf_serve::{InferenceEngine, RequestTrace, ServeConfig, Server, Ticket};
use pf_telemetry::Telemetry;

use crate::policy::{splitmix64, unit_from_bits, HashRing, Policy};
use crate::stats::{Outcome, ReplicaRollup, RouterCollector, RouterStats};
use crate::CacheStats;

/// Retry attempts per request submitted via [`Router::submit_with_retry`].
const MAX_RETRIES: u32 = 2;
/// Base of the jittered exponential retry backoff, microseconds.
const BACKOFF_BASE_US: u64 = 200;
/// Upper bound on one backoff sleep, microseconds.
const BACKOFF_CAP_US: u64 = 5_000;

/// An [`InferenceEngine`] that can additionally report how often requests
/// found their model's session (and its lowered layers) already
/// resident. The router rolls these counters into
/// [`RouterStats`] so dispatch policies are compared on
/// *measured* cache locality. Engines without a model cache (mocks, single
/// -model sessions) keep the default all-zero counters.
pub trait ReplicaEngine: InferenceEngine {
    /// Model-session cache counters since construction.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Cheap integrity screen over a served payload: `false` means the
    /// response is corrupt (e.g. contains NaN/Inf) and must not reach the
    /// caller. The router runs this on every successful result, discards
    /// failures, and counts them as integrity rejects. The default accepts
    /// everything.
    fn screen(&self, response: &Self::Response) -> bool {
        let _ = response;
        true
    }
}

impl<E: ReplicaEngine + ?Sized> ReplicaEngine for Arc<E> {
    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }

    fn screen(&self, response: &Self::Response) -> bool {
        (**self).screen(response)
    }
}

/// Router configuration: the per-replica server config plus the routing
/// tier's own knobs. The serde-facing twin is the `[serving.router]`
/// scenario section ([`pf_core::RouterSpec`]); [`RouterConfig::from_spec`]
/// converts a full `[serving]` spec. The spec's `models`/`replica_cache`
/// fields configure the *engines* (how many model variants exist and how
/// many stay resident per replica) and are consumed by the engine factory,
/// not by the router core.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Configuration every replica's `pf-serve` server runs with.
    pub serve: ServeConfig,
    /// Number of replica shards, at least 1.
    pub replicas: usize,
    /// Dispatch policy.
    pub policy: Policy,
    /// Priority class names, highest first. Requests carry their class as
    /// an index into this list; only the last class is ever shed.
    pub priority_classes: Vec<String>,
    /// Queue-pressure fraction at which the lowest class is shed.
    pub shed_at: f64,
    /// Queue-pressure fraction at which batch-formation windows shrink to
    /// zero. Restored (with hysteresis, at half this pressure) when load
    /// subsides.
    pub shrink_at: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::from_spec(&ServingSpec {
            router: Some(pf_core::RouterSpec::default()),
            ..ServingSpec::default()
        })
        .expect("default spec is valid")
    }
}

impl RouterConfig {
    /// Builds the config from a validated `[serving]` scenario section; a
    /// missing `[serving.router]` sub-section means the defaults (two
    /// replicas, kernel affinity).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] if the spec does not validate.
    pub fn from_spec(spec: &ServingSpec) -> Result<Self, PfError> {
        spec.validate()?;
        let router = spec.router.clone().unwrap_or_default();
        Ok(Self {
            serve: ServeConfig::from_spec(spec),
            replicas: router.replicas,
            policy: Policy::from_name(&router.policy)?,
            priority_classes: router.priority_classes,
            shed_at: router.shed_at,
            shrink_at: router.shrink_at,
        })
    }

    /// Checks the configuration's internal consistency (delegating the
    /// replica-server part to [`ServeConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PfError> {
        let mut spec = self.serve.to_spec();
        spec.router = Some(pf_core::RouterSpec {
            replicas: self.replicas,
            policy: self.policy.name().to_string(),
            priority_classes: self.priority_classes.clone(),
            shed_at: self.shed_at,
            shrink_at: self.shrink_at,
            ..pf_core::RouterSpec::default()
        });
        spec.validate()
    }

    /// Index of the lowest (only sheddable) priority class.
    pub fn lowest_class(&self) -> usize {
        self.priority_classes.len() - 1
    }
}

/// One request offered to the router.
#[derive(Debug, Clone)]
pub struct RouterRequest<Rq> {
    /// The payload handed to the replica engine.
    pub payload: Rq,
    /// Priority class, as an index into the configured `priority_classes`
    /// (0 = highest).
    pub class: usize,
    /// Affinity key for the `kernel_affinity` policy — the request's model
    /// identity. Ignored by the other policies.
    pub affinity: u64,
    /// Optional absolute deadline, enforced by the replica server (expired
    /// requests are never dispatched) and accounted as a deadline miss if
    /// the request completes late.
    pub deadline: Option<Instant>,
}

impl<Rq> RouterRequest<Rq> {
    /// A highest-priority request with no affinity and no deadline.
    pub fn new(payload: Rq) -> Self {
        Self {
            payload,
            class: 0,
            affinity: 0,
            deadline: None,
        }
    }

    /// Sets the priority class index.
    pub fn with_class(mut self, class: usize) -> Self {
        self.class = class;
        self
    }

    /// Sets the affinity (model) key.
    pub fn with_affinity(mut self, affinity: u64) -> Self {
        self.affinity = affinity;
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A boxed payload factory, so retries can resubmit without putting a
/// `Clone` bound on every ticket (only [`Router::submit_with_retry`]
/// requires `E::Request: Clone`).
type Replay<Rq> = Box<dyn Fn() -> Rq + Send>;

/// Handle to one routed request. Waiting on the ticket records the
/// request's outcome (latency, deadline miss, failure kind) in the
/// router's stats — and, for requests submitted via
/// [`Router::submit_with_retry`], transparently retries failed attempts on
/// another replica with deadline-aware jittered exponential backoff. A
/// ticket dropped without waiting leaves its completion unrecorded at
/// router level (the replica's own [`pf_serve::ServerStats`] still counts
/// it).
///
/// The ticket borrows its router: all tickets must be resolved (or
/// dropped) before [`Router::drain`] can consume the router.
pub struct RouterTicket<'r, E: ReplicaEngine + 'static> {
    router: &'r Router<E>,
    inner: Option<Ticket<E::Response>>,
    class: usize,
    replica: usize,
    affinity: u64,
    admitted: Instant,
    deadline: Option<Instant>,
    replay: Option<Replay<E::Request>>,
    attempts: u32,
    backoff_seed: u64,
}

impl<E: ReplicaEngine + 'static> std::fmt::Debug for RouterTicket<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterTicket")
            .field("seq", &self.seq())
            .field("class", &self.class)
            .field("replica", &self.replica)
            .field("attempts", &self.attempts)
            .field("retryable", &self.replay.is_some())
            .finish_non_exhaustive()
    }
}

/// What one dispatch attempt's resolution decided.
enum Resolution<R> {
    /// The request is finished (outcome recorded).
    Done(Result<R, PfError>),
    /// The attempt failed but was resubmitted; wait again.
    Retry,
}

impl<'r, E: ReplicaEngine + 'static> RouterTicket<'r, E> {
    /// The replica index the request is currently dispatched to (after a
    /// retry, the replica of the live attempt).
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// The request's priority class index.
    pub fn class(&self) -> usize {
        self.class
    }

    /// How many times the request has been retried so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The replica-server sequence number of the live attempt.
    pub fn seq(&self) -> u64 {
        self.inner.as_ref().map_or(0, Ticket::seq)
    }

    /// Relinquishes the router-side machinery — retries, health scoring
    /// and per-class outcome recording — and returns the raw
    /// replica-server [`Ticket`]. The detached handle no longer borrows
    /// the router, so it can outlive it and be resolved after
    /// [`Router::drain`]; the dispatch stays counted, but its outcome is
    /// no longer attributed to a class.
    pub fn detach(mut self) -> Ticket<E::Response> {
        self.inner.take().expect("ticket waited once")
    }

    /// Blocks until the request completes (retrying failed attempts if
    /// submitted via [`Router::submit_with_retry`]); records the outcome.
    pub fn wait(mut self) -> Result<E::Response, PfError> {
        loop {
            let ticket = self.inner.take().expect("ticket waited once");
            let (result, completed) = ticket.wait_timed();
            match self.resolve(result, Some(completed), None) {
                Resolution::Done(result) => return result,
                Resolution::Retry => {}
            }
        }
    }

    /// Waits up to `timeout` in total (across retries); on timeout the
    /// live attempt is abandoned (its queue slot reclaimed, counted as
    /// `abandoned`).
    ///
    /// # Errors
    ///
    /// The request's own error, or [`PfError::DeadlineExceeded`] on
    /// timeout.
    pub fn wait_deadline(mut self, timeout: Duration) -> Result<E::Response, PfError> {
        let budget = Instant::now() + timeout;
        loop {
            let ticket = self.inner.take().expect("ticket waited once");
            let remaining = budget.saturating_duration_since(Instant::now());
            let (result, completed) = ticket.wait_deadline_timed(remaining);
            match self.resolve(result, completed, Some(budget)) {
                Resolution::Done(result) => return result,
                Resolution::Retry => {}
            }
        }
    }

    /// Records one attempt's result against replica health and either
    /// finishes the request (recording its class outcome) or retries it.
    fn resolve(
        &mut self,
        result: Result<E::Response, PfError>,
        completed: Option<Instant>,
        budget: Option<Instant>,
    ) -> Resolution<E::Response> {
        match (result, completed) {
            (Ok(response), Some(completed)) => {
                if !self.router.replicas[self.replica]
                    .engine()
                    .screen(&response)
                {
                    let mut collector = self.router.collector.lock();
                    collector.record_integrity_reject();
                    collector.record_attempt_failure(self.replica);
                    drop(collector);
                    let err = PfError::IntegrityViolation {
                        replica: self.replica,
                    };
                    return self.fail_or_retry(err, budget);
                }
                let latency = completed.saturating_duration_since(self.admitted);
                let mut collector = self.router.collector.lock();
                collector.record_attempt_success(self.replica);
                collector.record_outcome(
                    self.class,
                    Outcome::Served {
                        latency,
                        missed: self.deadline.is_some_and(|d| completed > d),
                    },
                );
                Resolution::Done(Ok(response))
            }
            (Ok(_), None) => unreachable!("a served result always has a completion instant"),
            (Err(e @ PfError::DeadlineExceeded { stage: "queued" }), _) => {
                let mut collector = self.router.collector.lock();
                collector.release_probe(self.replica);
                collector.record_outcome(self.class, Outcome::Expired);
                Resolution::Done(Err(e))
            }
            (Err(e @ PfError::DeadlineExceeded { .. }), _) => {
                let mut collector = self.router.collector.lock();
                collector.release_probe(self.replica);
                collector.record_outcome(self.class, Outcome::Abandoned);
                Resolution::Done(Err(e))
            }
            (Err(e), _) => {
                self.router
                    .collector
                    .lock()
                    .record_attempt_failure(self.replica);
                self.fail_or_retry(e, budget)
            }
        }
    }

    /// After a failed attempt (health already updated): retry if the
    /// request is retryable and time allows, else record the final failure.
    fn fail_or_retry(&mut self, err: PfError, budget: Option<Instant>) -> Resolution<E::Response> {
        if self.try_retry(budget) {
            return Resolution::Retry;
        }
        self.router
            .collector
            .lock()
            .record_outcome(self.class, Outcome::Failed);
        Resolution::Done(Err(err))
    }

    /// Attempts to resubmit the request: backs off (jittered exponential,
    /// abandoned if the deadline or wait budget would pass), then offers
    /// the payload to the breaker-gated dispatch order, preferring any
    /// replica other than the one that just failed. Returns `false` if the
    /// request is not retryable, out of attempts, out of time, or no
    /// replica admits it.
    fn try_retry(&mut self, budget: Option<Instant>) -> bool {
        let Some(replay) = &self.replay else {
            return false;
        };
        if self.attempts >= MAX_RETRIES {
            return false;
        }
        let exp = BACKOFF_BASE_US.saturating_mul(1u64 << self.attempts.min(20));
        let jitter = 0.5
            + 0.5 * unit_from_bits(splitmix64(self.backoff_seed ^ u64::from(self.attempts + 1)));
        let delay = Duration::from_micros((exp.min(BACKOFF_CAP_US) as f64 * jitter) as u64);
        let now = Instant::now();
        // Deadline-aware: a retry that cannot complete in time is pointless.
        if [self.deadline, budget]
            .into_iter()
            .flatten()
            .any(|limit| now + delay >= limit)
        {
            return false;
        }
        std::thread::sleep(delay);

        let mut order = self.router.gated_order(self.affinity);
        if order.len() > 1 {
            order.retain(|&r| r != self.replica);
        }
        let mut payload = replay();
        for &replica in &order {
            match self.router.replicas[replica].try_submit(payload, self.deadline, None) {
                Ok(ticket) => {
                    self.router.collector.lock().record_retry(replica);
                    self.attempts += 1;
                    self.replica = replica;
                    self.inner = Some(ticket);
                    return true;
                }
                Err((returned, PfError::Overloaded { .. })) => payload = returned,
                Err(_) => return false,
            }
        }
        false
    }
}

/// A multi-replica SLO-aware serving tier.
///
/// The router owns `replicas` independent [`pf_serve::Server`]s and
/// dispatches [`RouterRequest`]s to them by [`Policy`]. Under overload it
/// degrades in stages rather than failing abruptly:
///
/// 1. **shrink** — at `shrink_at` queue pressure, every replica's
///    batch-formation window drops to zero (dispatch immediately, smaller
///    batches, lower latency); restored with hysteresis at half that
///    pressure;
/// 2. **shed** — at `shed_at` pressure, requests of the *lowest* priority
///    class are refused with [`PfError::Shed`] (a policy decision, counted
///    separately from capacity rejections); higher classes are never shed;
/// 3. **spill** — an admitted request whose chosen replica is full falls
///    back down the policy's order before the router gives up;
/// 4. **reject** — only when every replica's queue is full does the
///    request fail with [`PfError::Overloaded`].
///
/// Queue pressure is total queued requests over total queue capacity
/// (`replicas x queue_depth`), in `[0, 1]`.
pub struct Router<E: ReplicaEngine + 'static> {
    config: RouterConfig,
    replicas: Vec<Server<E>>,
    ring: HashRing,
    next_rr: AtomicUsize,
    shrunk: AtomicBool,
    collector: Arc<Mutex<RouterCollector>>,
    telemetry: Telemetry,
}

impl<E: ReplicaEngine + 'static> std::fmt::Debug for Router<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("config", &self.config)
            .field("replicas", &self.replicas.len())
            .field("queue_pressure", &self.queue_pressure())
            .finish_non_exhaustive()
    }
}

impl<E: ReplicaEngine + 'static> Router<E> {
    /// Validates `config` and builds the replica shards, calling `factory`
    /// once per replica index (the factory builds the engine — session,
    /// model cache, warmup — for that shard).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an inconsistent config, or
    /// whatever the factory fails with.
    pub fn new(
        config: RouterConfig,
        factory: impl FnMut(usize) -> Result<E, PfError>,
    ) -> Result<Self, PfError> {
        Self::with_telemetry(config, Telemetry::disabled(), factory)
    }

    /// Like [`Router::new`] with an observability handle. The request id
    /// is minted here, at router admission, and carried down through the
    /// chosen replica so one routed request yields one span tree
    /// (admission → queue → batch → per-stage execution). Each replica's
    /// `serve.*` counters are scoped under a `replicaN.` prefix; spans and
    /// stage slots stay shared (one trace, one stage breakdown).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Router::new`].
    pub fn with_telemetry(
        config: RouterConfig,
        telemetry: Telemetry,
        mut factory: impl FnMut(usize) -> Result<E, PfError>,
    ) -> Result<Self, PfError> {
        config.validate()?;
        let replicas = (0..config.replicas)
            .map(|i| {
                Server::with_telemetry(
                    factory(i)?,
                    config.serve,
                    telemetry.with_prefix(&format!("replica{i}")),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let collector = Arc::new(Mutex::new(RouterCollector::new(
            config.priority_classes.len(),
            config.replicas,
            &telemetry,
        )));
        Ok(Self {
            ring: HashRing::new(config.replicas),
            next_rr: AtomicUsize::new(0),
            shrunk: AtomicBool::new(false),
            collector,
            config,
            replicas,
            telemetry,
        })
    }

    /// The observability handle (disabled unless the router was built with
    /// [`Router::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration the router runs with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Number of replica shards.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Total queued requests over total queue capacity, in `[0, 1]`.
    pub fn queue_pressure(&self) -> f64 {
        let queued: usize = self.replicas.iter().map(Server::queue_len).sum();
        let capacity = self.replicas.len() * self.config.serve.queue_depth;
        queued as f64 / capacity as f64
    }

    /// Whether the degradation ladder currently has the batch windows
    /// shrunk to zero.
    pub fn windows_shrunk(&self) -> bool {
        self.shrunk.load(Ordering::Relaxed)
    }

    /// Offers one request to the router.
    ///
    /// # Errors
    ///
    /// * [`PfError::InvalidScenario`] — `class` out of range (a caller
    ///   bug; not counted as traffic);
    /// * [`PfError::Shed`] — lowest-class request refused under overload;
    /// * [`PfError::Overloaded`] — every replica's queue is full.
    pub fn submit(
        &self,
        request: RouterRequest<E::Request>,
    ) -> Result<RouterTicket<'_, E>, PfError> {
        self.submit_inner(request, None)
    }

    /// Like [`Router::submit`], but the request is marked **idempotent**:
    /// if an attempt fails (engine error, injected fault, integrity
    /// rejection), waiting on the ticket transparently resubmits the
    /// payload — preferring a different replica — with deadline-aware
    /// jittered exponential backoff (200 µs doubling per attempt, capped
    /// at 5 ms, each sleep jittered into its upper half), up to two times.
    /// Only side-effect-free requests should use this path; the router
    /// cannot tell whether a failed attempt partially executed.
    ///
    /// # Errors
    ///
    /// Same admission-time conditions as [`Router::submit`] (retry only
    /// covers failures *after* admission).
    pub fn submit_with_retry(
        &self,
        request: RouterRequest<E::Request>,
    ) -> Result<RouterTicket<'_, E>, PfError>
    where
        E::Request: Clone,
    {
        let template = request.payload.clone();
        self.submit_inner(request, Some(Box::new(move || template.clone())))
    }

    fn submit_inner(
        &self,
        request: RouterRequest<E::Request>,
        replay: Option<Replay<E::Request>>,
    ) -> Result<RouterTicket<'_, E>, PfError> {
        let RouterRequest {
            payload,
            class,
            affinity,
            deadline,
        } = request;
        if class >= self.config.priority_classes.len() {
            return Err(PfError::invalid_scenario(format!(
                "priority class index {class} out of range ({} classes configured)",
                self.config.priority_classes.len()
            )));
        }

        let pressure = self.queue_pressure();
        self.degrade(pressure);

        // Stage 2: shed the lowest class — and only the lowest class —
        // once pressure crosses `shed_at`. With a single configured class
        // there is no lower-priority traffic to sacrifice, so shedding is
        // disabled and admission control alone applies.
        if pressure >= self.config.shed_at
            && self.config.priority_classes.len() > 1
            && class == self.config.lowest_class()
        {
            self.collector.lock().record_shed(class);
            return Err(PfError::Shed {
                class: self.config.priority_classes[class].clone(),
            });
        }

        // Stages 3-4: dispatch in breaker-gated policy order, spilling
        // past full replicas; reject only when every queue is full.
        let order = self.gated_order(affinity);
        let admitted = Instant::now();
        // Mint the request's tracing identity here — router admission is
        // where the request enters the serving stack. The admission span
        // covers policy dispatch and any spill attempts; the request's
        // root span (recorded by the replica at fulfilment) hangs from it.
        let (trace, _admit_span) = if self.telemetry.is_enabled() {
            let req = self.telemetry.next_request_id();
            let span = self.telemetry.span_with_parent("admit", "router", 0, req);
            let trace = RequestTrace {
                req,
                parent: span.id(),
                admitted,
            };
            (Some(trace), Some(span))
        } else {
            (None, None)
        };
        let mut payload = payload;
        let mut last_overload = None;
        for (attempt, &replica) in order.iter().enumerate() {
            match self.replicas[replica].try_submit(payload, deadline, trace) {
                Ok(ticket) => {
                    self.collector
                        .lock()
                        .record_admitted(class, replica, attempt > 0);
                    let backoff_seed = ticket.seq();
                    return Ok(RouterTicket {
                        router: self,
                        inner: Some(ticket),
                        class,
                        replica,
                        affinity,
                        admitted,
                        deadline,
                        replay,
                        attempts: 0,
                        backoff_seed,
                    });
                }
                Err((returned, e @ PfError::Overloaded { .. })) => {
                    payload = returned;
                    last_overload = Some(e);
                }
                Err((_, e)) => return Err(e),
            }
        }
        self.collector.lock().record_rejected(class);
        Err(last_overload.expect("dispatch order is never empty"))
    }

    /// Applies degradation stage 1 (window shrink/restore with
    /// hysteresis).
    fn degrade(&self, pressure: f64) {
        if pressure >= self.config.shrink_at {
            if !self.shrunk.swap(true, Ordering::Relaxed) {
                self.collector.lock().record_window_shrink();
                for server in &self.replicas {
                    server.set_batch_window(Duration::ZERO);
                }
            }
        } else if pressure < self.config.shrink_at * 0.5
            && self.shrunk.swap(false, Ordering::Relaxed)
        {
            for server in &self.replicas {
                server.set_batch_window(self.config.serve.batch_timeout);
            }
        }
    }

    /// The replica indices to try, best first, per the configured policy.
    fn dispatch_order(&self, affinity: u64) -> Vec<usize> {
        let n = self.replicas.len();
        match self.config.policy {
            Policy::RoundRobin => {
                let start = self.next_rr.fetch_add(1, Ordering::Relaxed) % n;
                (0..n).map(|i| (start + i) % n).collect()
            }
            Policy::LeastLoaded => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (self.replicas[i].queue_len(), i));
                order
            }
            Policy::KernelAffinity => self.ring.order(affinity),
        }
    }

    /// The policy's dispatch order filtered through each replica's circuit
    /// breaker: quarantined (open) replicas are skipped, half-open
    /// replicas admit a limited number of probe requests (moved to the
    /// front so probes are not starved by healthy replicas). If the
    /// breakers would leave nothing to dispatch to, the raw policy order
    /// is used instead — total unavailability degrades to normal spill
    /// behaviour rather than an artificial reject.
    fn gated_order(&self, affinity: u64) -> Vec<usize> {
        self.collector
            .lock()
            .gate_order(self.dispatch_order(affinity))
    }

    /// A mid-flight snapshot of the router's accounting.
    pub fn stats(&self) -> RouterStats {
        let collector = self.collector.lock();
        let rollups = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, server)| ReplicaRollup {
                replica: i,
                dispatched: collector.dispatched(i),
                health: collector.health_report(i),
                server: server.stats(),
                cache: server.engine().cache_stats(),
            })
            .collect();
        collector.snapshot(
            self.config.policy.name(),
            &self.config.priority_classes,
            rollups,
        )
    }

    /// Drains every replica (stopping admissions, resolving every
    /// outstanding ticket) and returns the final stats.
    ///
    /// # Errors
    ///
    /// [`PfError::WorkerPanicked`] if any replica's worker thread
    /// panicked (every replica is still joined first, so no thread is
    /// leaked).
    pub fn drain(self) -> Result<RouterStats, PfError> {
        let mut rollups = Vec::with_capacity(self.replicas.len());
        let mut panicked = 0usize;
        for (i, server) in self.replicas.into_iter().enumerate() {
            let cache = server.engine().cache_stats();
            match server.shutdown() {
                Ok(server_stats) => rollups.push((i, server_stats, cache)),
                Err(PfError::WorkerPanicked { workers }) => panicked += workers,
                Err(e) => return Err(e),
            }
        }
        if panicked > 0 {
            return Err(PfError::WorkerPanicked { workers: panicked });
        }
        let collector = self.collector.lock();
        let rollups = rollups
            .into_iter()
            .map(|(i, server, cache)| ReplicaRollup {
                replica: i,
                dispatched: collector.dispatched(i),
                health: collector.health_report(i),
                server,
                cache,
            })
            .collect();
        Ok(collector.snapshot(
            self.config.policy.name(),
            &self.config.priority_classes,
            rollups,
        ))
    }
}
