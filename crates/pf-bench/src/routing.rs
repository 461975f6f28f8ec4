//! The routing load-generator behind `cargo run -p pf-bench --bin loadgen
//! --route`.
//!
//! Drives the `pf-router` multi-replica serving tier with **trace-driven**
//! arrivals and emits a machine-readable `BENCH_routing.json` (schema
//! [`SCHEMA`]). Where `serving.rs` measures one replica under closed/open
//! loops, this module measures the *front tier*: dispatch policies compared
//! on recorded tail latency and model-cache locality, the degradation
//! ladder exercised by a deliberate overload record, and per-class
//! accounting (shed vs rejected vs served) checked by the smoke gate.
//!
//! Three seeded, replayable arrival processes ([`TraceKind`]):
//!
//! * **bursty** — a baseline Poisson rate with periodic bursts at ten times
//!   that rate (the CI trace: bursts expose queueing and spills without
//!   needing wall-clock scale);
//! * **diurnal** — the arrival rate ramps sinusoidally from 30% of the
//!   base rate to its peak and back (a compressed day);
//! * **heavy_tail** — Pareto inter-arrival gaps (α = 1.5) with the same
//!   mean rate, so rare long gaps alternate with tight clumps.
//!
//! Every event carries a model key (requests arrive in runs of the same
//! model, the locality a `kernel_affinity` router can exploit) and a
//! priority class drawn from the configured distribution. Traces are pure
//! functions of their seed: the same seed replays the same arrival times,
//! models and classes, and — for deterministic backends — bit-identical
//! served results, verified against offline per-variant sessions.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use photofourier::prelude::*;
use photofourier::route::{self, model_scenario, ModelRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{scenario_image, tensors_bit_equal};

/// Schema identifier written into the report.
pub const SCHEMA: &str = "pf-bench/routing-v1";

/// The priority classes every routing record runs with (highest first).
pub const CLASSES: [&str; 3] = ["interactive", "standard", "background"];

/// One of the seeded arrival processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Baseline Poisson rate with periodic 10x bursts.
    Bursty,
    /// Sinusoidal ramp from 30% of the base rate to peak and back.
    Diurnal,
    /// Pareto (α = 1.5) inter-arrival gaps at the same mean rate.
    HeavyTail,
}

impl TraceKind {
    /// All trace kinds, in report order.
    pub const ALL: [TraceKind; 3] = [TraceKind::Bursty, TraceKind::Diurnal, TraceKind::HeavyTail];

    /// The report-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Bursty => "bursty",
            TraceKind::Diurnal => "diurnal",
            TraceKind::HeavyTail => "heavy_tail",
        }
    }

    /// Parses a trace name (inverse of [`TraceKind::name`]).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an unknown name.
    pub fn from_name(name: &str) -> Result<Self, PfError> {
        match name {
            "bursty" => Ok(TraceKind::Bursty),
            "diurnal" => Ok(TraceKind::Diurnal),
            "heavy_tail" => Ok(TraceKind::HeavyTail),
            other => Err(PfError::invalid_scenario(format!(
                "unknown trace `{other}` (known: bursty, diurnal, heavy_tail)"
            ))),
        }
    }
}

/// One arrival in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Offset from the trace start.
    pub at: Duration,
    /// Model-variant key (also the affinity key).
    pub model: u64,
    /// Priority class index into [`CLASSES`].
    pub class: usize,
}

/// A generated arrival trace: replayable from `(kind, seed)` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Which arrival process generated it.
    pub kind: TraceKind,
    /// The generation seed.
    pub seed: u64,
    /// Arrivals in time order.
    pub events: Vec<TraceEvent>,
}

/// Events per model run: arrivals come in runs of the same model, the
/// temporal locality `kernel_affinity` exploits.
const MODEL_RUN: usize = 6;

/// Burst shape of [`TraceKind::Bursty`]: after every `BURST_PERIOD` baseline
/// arrivals, `BURST_LEN` arrivals at 10x the base rate.
const BURST_PERIOD: usize = 8;
/// See [`BURST_PERIOD`].
const BURST_LEN: usize = 8;

impl Trace {
    /// Generates `requests` arrivals at a mean `base_rps`, cycling model
    /// keys `0..models` in runs of six, classes drawn 25%
    /// interactive / 50% standard / 25% background. Deterministic in
    /// `(kind, requests, base_rps, models, seed)`.
    pub fn generate(
        kind: TraceKind,
        requests: usize,
        base_rps: f64,
        models: u64,
        seed: u64,
    ) -> Self {
        assert!(base_rps > 0.0, "trace needs a positive base rate");
        assert!(models >= 1, "trace needs at least one model");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut at = Duration::ZERO;
        let mut events = Vec::with_capacity(requests);
        for k in 0..requests {
            let u: f64 = rng.gen_range(0.0..1.0);
            let gap = match kind {
                TraceKind::Bursty => {
                    // Exponential gaps; every BURST_PERIOD + BURST_LEN
                    // events, BURST_LEN of them arrive at 10x the rate.
                    let phase = k % (BURST_PERIOD + BURST_LEN);
                    let rate = if phase < BURST_PERIOD {
                        base_rps
                    } else {
                        base_rps * 10.0
                    };
                    -(1.0 - u).ln() / rate
                }
                TraceKind::Diurnal => {
                    // Rate ramps 0.3x -> 1.7x -> 0.3x over the trace.
                    let t = k as f64 / requests.max(1) as f64;
                    let rate = base_rps * (0.3 + 1.4 * (std::f64::consts::PI * t).sin());
                    -(1.0 - u).ln() / rate
                }
                TraceKind::HeavyTail => {
                    // Pareto(α = 1.5) with mean 1/base_rps: mean of Pareto
                    // is α·xm/(α-1) = 3·xm, so xm = 1/(3·base_rps).
                    let alpha = 1.5;
                    let xm = 1.0 / (3.0 * base_rps);
                    xm * (1.0 - u).powf(-1.0 / alpha)
                }
            };
            at += Duration::from_secs_f64(gap);
            let cu: f64 = rng.gen_range(0.0..1.0);
            let class = if cu < 0.25 {
                0
            } else if cu < 0.75 {
                1
            } else {
                2
            };
            events.push(TraceEvent {
                at,
                model: (k / MODEL_RUN) as u64 % models,
                class,
            });
        }
        Self { kind, seed, events }
    }
}

/// One measured router run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingRecord {
    /// Backend registry name.
    pub backend: String,
    /// Dispatch policy the router ran with.
    pub policy: String,
    /// Trace name ([`TraceKind::name`]).
    pub trace: String,
    /// Arrivals offered.
    pub requests: usize,
    /// Whether this record deliberately overloads the tier (tiny queues,
    /// unpaced arrivals) to exercise the shed/spill/reject ladder.
    /// Shedding is *expected* here and *unexpected* everywhere else.
    pub overload: bool,
    /// Whether every served result was bit-identical to an offline
    /// session of the same model variant (seeded replay for stochastic
    /// backends).
    pub matches_offline: bool,
    /// The p99 SLO (milliseconds) the highest class is held to.
    pub slo_p99_ms: f64,
    /// The router's full accounting (per-class, per-replica, aggregate).
    pub stats: RouterStats,
}

/// The full report serialised to `BENCH_routing.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Rayon worker threads on this host.
    pub host_threads: usize,
    /// Measured records.
    pub results: Vec<RoutingRecord>,
    /// Telemetry accounting when the run was traced (`loadgen --route
    /// --trace`); see [`crate::serving::TraceSummary`].
    pub trace: Option<crate::serving::TraceSummary>,
}

/// Options of [`run_route_suite`], typically parsed from loadgen flags.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOptions {
    /// Small fixed request counts and the smoke route gate (CI).
    pub smoke: bool,
    /// Backend the per-policy records run on.
    pub backend: BackendKind,
    /// Mean arrival rate of the paced traces (requests/s).
    pub base_rps: f64,
    /// Arrivals per record (0 means the mode's default).
    pub requests: usize,
    /// Seed of the trace and image RNGs.
    pub seed: u64,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            backend: BackendKind::Digital,
            base_rps: 400.0,
            requests: 0,
            seed: 42,
        }
    }
}

/// Knobs of one router run; [`RouteRun::record`] executes it.
#[derive(Debug, Clone)]
struct RouteRun {
    backend: BackendKind,
    policy: String,
    replicas: usize,
    queue_depth: usize,
    models: u64,
    replica_cache: usize,
    slo_p99_ms: f64,
    /// Pace submissions to the trace's arrival times. The overload record
    /// turns this off: all arrivals at once, so queue pressure is a
    /// property of the trace rather than of host speed.
    paced: bool,
    /// Per-request deadline budget from submission. `None` = no deadlines.
    deadline: Option<Duration>,
    overload: bool,
}

impl RouteRun {
    fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new(
            format!("routegen_{}_{}", self.backend, self.policy),
            "resnet18",
            BackendSpec {
                kind: self.backend,
                capacity: 256,
            },
        );
        scenario.serving = Some(ServingSpec {
            max_batch: 4,
            batch_timeout_us: 200,
            queue_depth: self.queue_depth,
            workers: 1,
            router: Some(RouterSpec {
                replicas: self.replicas,
                policy: self.policy.clone(),
                priority_classes: CLASSES.iter().map(|c| c.to_string()).collect(),
                slo_p99_ms: self.slo_p99_ms,
                models: self.models as usize,
                replica_cache: self.replica_cache,
                shed_at: 0.75,
                shrink_at: 0.5,
            }),
        });
        scenario
    }

    /// Runs the trace through a fresh router and verifies served results
    /// against offline per-variant sessions. Under an enabled telemetry
    /// handle the router also records admission spans, `router.*` counters
    /// and replica-scoped `serve.*` metrics into `tel`; results are
    /// bit-identical either way.
    fn record(&self, trace: &Trace, seed: u64, tel: &Telemetry) -> Result<RoutingRecord, PfError> {
        let scenario = self.scenario();
        // Scope this record's counters apart from the suite's other routers
        // (the registry is shared, so an unscoped second router would
        // report cumulative counts); spans stay on the shared timeline.
        let scope = format!(
            "{}_{}_{}{}",
            trace.kind.name(),
            self.policy,
            self.backend,
            if self.overload { "_overload" } else { "" }
        );
        let router = route::route_scenario_traced(scenario.clone(), tel.with_prefix(&scope))?;

        let start = Instant::now();
        // (trace index, model, input, ticket) of every admitted request.
        let mut pending = Vec::with_capacity(trace.events.len());
        for (k, event) in trace.events.iter().enumerate() {
            if self.paced {
                let arrival = start + event.at;
                let now = Instant::now();
                if arrival > now {
                    std::thread::sleep(arrival - now);
                }
            }
            let input = request_image(&scenario, seed, k);
            let payload = ModelRequest::new(input.clone(), event.model).with_seed(k as u64);
            let mut request = RouterRequest::new(payload)
                .with_class(event.class)
                .with_affinity(event.model);
            if let Some(budget) = self.deadline {
                request = request.with_deadline(Instant::now() + budget);
            }
            match router.submit(request) {
                Ok(ticket) => pending.push((k as u64, event.model, input, ticket)),
                // Sheds and rejections are the router's accounting, not
                // the load generator's problem.
                Err(PfError::Shed { .. }) | Err(PfError::Overloaded { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        // Waiting after the fact is safe for latency accounting: the
        // replica stamps each ticket's completion instant when it is
        // fulfilled, not when it is waited on.
        let mut outcomes = Vec::with_capacity(pending.len());
        for (k, model, input, ticket) in pending {
            if let Ok(output) = ticket.wait() {
                outcomes.push((k, model, input, output));
            }
        }
        let stats = router.drain()?;
        let matches_offline = verify_offline(&scenario, &outcomes)?;
        Ok(RoutingRecord {
            backend: self.backend.name().to_string(),
            policy: self.policy.clone(),
            trace: trace.kind.name().to_string(),
            requests: trace.events.len(),
            overload: self.overload,
            matches_offline,
            slo_p99_ms: self.slo_p99_ms,
            stats,
        })
    }
}

/// The image request `k` of a trace submits: seeded, so a replay (and the
/// offline verification) sees identical traffic.
pub(crate) fn request_image(scenario: &Scenario, seed: u64, k: usize) -> Tensor {
    scenario_image(
        scenario,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64),
    )
}

/// Re-runs every served request through a fresh offline session of its
/// model variant and checks bit-identity — `run_inference` for
/// deterministic backends, `run_inference_seeded` with the request's trace
/// index for stochastic ones (the same seed the router's replicas used).
fn verify_offline(
    base: &Scenario,
    outcomes: &[(u64, u64, Tensor, Tensor)],
) -> Result<bool, PfError> {
    let mut sessions: BTreeMap<u64, Arc<Session>> = BTreeMap::new();
    for (k, model, input, served) in outcomes {
        let session = match sessions.get(model) {
            Some(session) => Arc::clone(session),
            None => {
                let session = Arc::new(Session::from_scenario(model_scenario(base, *model))?);
                sessions.insert(*model, Arc::clone(&session));
                session
            }
        };
        let offline = session.run_inference_seeded(input, *k)?;
        if !tensors_bit_equal(&offline, served) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Runs the routing record matrix for one mode.
///
/// Smoke: the bursty trace through all three policies on a 2-replica
/// router (roomy queues, generous deadlines — the gate demands zero
/// deadline-violating completions), plus one deliberate **overload**
/// record (tiny queues, unpaced arrivals) that exercises the
/// shed → spill → reject ladder. Full: the same per-policy comparison
/// with more arrivals, plus the diurnal and heavy-tail traces under
/// `kernel_affinity` and a stochastic-backend record proving seeded
/// replay through the tier. Every record's router shares `tel`, and the
/// report carries a [`TraceSummary`](crate::serving::TraceSummary) when it
/// is enabled.
///
/// # Errors
///
/// Propagates the first record's construction error.
pub fn run_route_suite(options: &RouteOptions, tel: &Telemetry) -> Result<RoutingReport, PfError> {
    let requests = match options.requests {
        0 if options.smoke => 48,
        0 => 192,
        n => n,
    };
    let models = 3;
    let policy_run = |policy: &str| RouteRun {
        backend: options.backend,
        policy: policy.to_string(),
        replicas: 2,
        queue_depth: 256,
        models,
        // Every model fits on every replica, so the policies are compared
        // purely on how many *cold builds* they cause, with no risk of two
        // models thrashing one slot when the ring homes them together.
        replica_cache: models as usize,
        slo_p99_ms: 1_000.0,
        paced: true,
        deadline: Some(Duration::from_secs(10)),
        overload: false,
    };

    let mut results = Vec::new();
    for policy in ROUTER_POLICIES {
        let trace = Trace::generate(
            TraceKind::Bursty,
            requests,
            options.base_rps,
            models,
            options.seed,
        );
        results.push(policy_run(policy).record(&trace, options.seed, tel)?);
    }

    if !options.smoke {
        for kind in [TraceKind::Diurnal, TraceKind::HeavyTail] {
            let trace = Trace::generate(kind, requests, options.base_rps, models, options.seed);
            results.push(policy_run("kernel_affinity").record(&trace, options.seed, tel)?);
        }
        // Seeded replay through the tier on the stochastic CG chain.
        let trace = Trace::generate(
            TraceKind::Bursty,
            requests.min(48),
            options.base_rps,
            models,
            options.seed,
        );
        let mut run = policy_run("kernel_affinity");
        run.backend = BackendKind::PhotofourierCg;
        results.push(run.record(&trace, options.seed, tel)?);
    }

    // The overload record: tiny queues and unpaced arrivals force the
    // degradation ladder. Only the lowest class may be shed; the highest
    // class must stay within its SLO (queues this small cannot hold much
    // latency).
    let overload_trace = Trace::generate(
        TraceKind::Bursty,
        requests,
        options.base_rps,
        models,
        options.seed,
    );
    results.push(
        RouteRun {
            backend: options.backend,
            policy: "least_loaded".to_string(),
            replicas: 2,
            queue_depth: 2,
            models,
            replica_cache: models as usize,
            slo_p99_ms: 1_000.0,
            paced: false,
            deadline: None,
            overload: true,
        }
        .record(&overload_trace, options.seed, tel)?,
    );

    Ok(RoutingReport {
        schema: SCHEMA.to_string(),
        mode: if options.smoke { "smoke" } else { "full" }.to_string(),
        host_threads: rayon::current_num_threads(),
        results,
        trace: crate::serving::TraceSummary::from_telemetry(tel),
    })
}

/// Outcome of the route smoke gate: hard `failures` (broken accounting,
/// SLO violations, capacity rejections, offline divergence — exit 1) are
/// kept apart from `unexpected_sheds` (intentional policy shedding that
/// leaked into a record where it was not provoked — its own exit path,
/// distinct from rejections, so CI can tell "the tier protected itself"
/// from "the tier failed").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteGate {
    /// Hard gate failures.
    pub failures: Vec<String>,
    /// Shedding observed outside the overload record.
    pub unexpected_sheds: Vec<String>,
}

impl RouteGate {
    /// Whether the gate passes outright.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.unexpected_sheds.is_empty()
    }
}

/// The smoke gate CI enforces on a routing report.
///
/// Non-overload records: no rejections, no failures, no expiries, no
/// abandons, **zero deadline-violating completions**, offline
/// bit-identity, the highest class's p99 within the record's SLO, and
/// class accounting that sums to the aggregate. Shedding here is counted
/// separately (see [`RouteGate`]). The overload record must actually shed
/// — only from the lowest class — while the highest class still meets its
/// SLO. Across records, `kernel_affinity` must beat `round_robin` on
/// model-cache hit rate on the same trace.
pub fn check_route_smoke(report: &RoutingReport) -> RouteGate {
    let mut gate = RouteGate::default();
    for record in &report.results {
        let tag = format!("{}/{}/{}", record.trace, record.policy, record.backend);
        let s = &record.stats;
        if s.submitted != s.admitted + s.shed + s.rejected {
            gate.failures.push(format!(
                "{tag}: admission accounting broken ({} + {} + {} != {})",
                s.admitted, s.shed, s.rejected, s.submitted
            ));
        }
        if !record.matches_offline {
            gate.failures.push(format!(
                "{tag}: served results diverge from offline per-variant sessions"
            ));
        }
        let failed: u64 = s.classes.iter().map(|c| c.failed).sum();
        if failed > 0 {
            gate.failures
                .push(format!("{tag}: {failed} request(s) failed"));
        }
        let highest = &s.classes[0];
        if highest.latency.count > 0 && highest.latency.p99_ms > record.slo_p99_ms {
            gate.failures.push(format!(
                "{tag}: highest-class p99 {:.3} ms exceeds the {:.0} ms SLO",
                highest.latency.p99_ms, record.slo_p99_ms
            ));
        }
        if record.overload {
            if s.shed == 0 {
                gate.failures.push(format!(
                    "{tag}: overload record shed nothing (ladder untested)"
                ));
            }
            let protected_shed: u64 = s
                .classes
                .iter()
                .take(s.classes.len().saturating_sub(1))
                .map(|c| c.shed)
                .sum();
            if protected_shed > 0 {
                gate.failures.push(format!(
                    "{tag}: {protected_shed} shed request(s) above the lowest class"
                ));
            }
        } else {
            if s.rejected > 0 {
                gate.failures
                    .push(format!("{tag}: {} request(s) rejected", s.rejected));
            }
            if s.deadline_misses > 0 {
                gate.failures.push(format!(
                    "{tag}: {} deadline-violating completion(s)",
                    s.deadline_misses
                ));
            }
            let expired: u64 = s.classes.iter().map(|c| c.expired).sum();
            let abandoned: u64 = s.classes.iter().map(|c| c.abandoned).sum();
            if expired > 0 || abandoned > 0 {
                gate.failures.push(format!(
                    "{tag}: {expired} expired / {abandoned} abandoned on an unloaded record"
                ));
            }
            if s.shed > 0 {
                gate.unexpected_sheds.push(format!(
                    "{tag}: {} request(s) shed outside the overload record",
                    s.shed
                ));
            }
        }
    }

    // Policy comparison: kernel affinity must actually buy cache locality
    // over the oblivious baseline on the same trace.
    let hit_rate = |policy: &str| {
        report
            .results
            .iter()
            .find(|r| !r.overload && r.policy == policy && r.trace == "bursty")
            .map(|r| r.stats.cache().hit_rate())
    };
    if let (Some(affinity), Some(round_robin)) =
        (hit_rate("kernel_affinity"), hit_rate("round_robin"))
    {
        if affinity <= round_robin {
            gate.failures.push(format!(
                "kernel_affinity hit rate {:.3} not above round_robin {:.3}",
                affinity, round_robin
            ));
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_given_seed() {
        for kind in TraceKind::ALL {
            let a = Trace::generate(kind, 64, 500.0, 3, 7);
            let b = Trace::generate(kind, 64, 500.0, 3, 7);
            assert_eq!(a, b, "{} not replayable", kind.name());
            let c = Trace::generate(kind, 64, 500.0, 3, 8);
            assert_ne!(a, c, "{} ignores its seed", kind.name());
            // Time is monotone and classes/models are in range.
            for pair in a.events.windows(2) {
                assert!(pair[0].at <= pair[1].at);
            }
            assert!(a.events.iter().all(|e| e.class < CLASSES.len()));
            assert!(a.events.iter().all(|e| e.model < 3));
            assert_eq!(TraceKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(TraceKind::from_name("steady").is_err());
    }

    #[test]
    fn bursty_trace_has_tighter_gaps_in_bursts() {
        let trace = Trace::generate(TraceKind::Bursty, BURST_PERIOD + BURST_LEN, 100.0, 1, 3);
        let gap = |i: usize| (trace.events[i].at - trace.events[i - 1].at).as_secs_f64();
        let base: f64 = (1..BURST_PERIOD).map(gap).sum::<f64>() / (BURST_PERIOD - 1) as f64;
        let burst: f64 = (BURST_PERIOD + 1..BURST_PERIOD + BURST_LEN)
            .map(gap)
            .sum::<f64>()
            / (BURST_LEN - 1) as f64;
        assert!(
            burst < base,
            "burst mean gap {burst} not below baseline {base}"
        );
    }

    #[test]
    fn smoke_suite_passes_its_own_gate() {
        let options = RouteOptions {
            smoke: true,
            requests: 32,
            ..RouteOptions::default()
        };
        let report = run_route_suite(&options, &Telemetry::disabled()).unwrap();
        assert_eq!(report.schema, SCHEMA);
        // Per-policy bursty records plus the overload record.
        assert_eq!(report.results.len(), ROUTER_POLICIES.len() + 1);
        let gate = check_route_smoke(&report);
        assert!(gate.passed(), "{gate:?}");

        let overload = report.results.last().unwrap();
        assert!(overload.overload);
        assert!(overload.stats.shed > 0, "overload record must shed");
        let by_policy = |p: &str| {
            report
                .results
                .iter()
                .find(|r| !r.overload && r.policy == p)
                .unwrap()
        };
        let affinity = by_policy("kernel_affinity").stats.cache().hit_rate();
        let rr = by_policy("round_robin").stats.cache().hit_rate();
        assert!(
            affinity > rr,
            "affinity {affinity} must beat round robin {rr}"
        );
    }

    #[test]
    fn gate_separates_sheds_from_failures() {
        let options = RouteOptions {
            smoke: true,
            requests: 32,
            ..RouteOptions::default()
        };
        let mut report = run_route_suite(&options, &Telemetry::disabled()).unwrap();
        // Teleport the overload record's sheds into a normal record: the
        // gate must route them to the shed path, not the failure path.
        let sheds = report.results.last().unwrap().stats.shed;
        assert!(sheds > 0);
        report.results[0].stats.shed = sheds;
        report.results[0].stats.submitted += sheds;
        let gate = check_route_smoke(&report);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!(gate.unexpected_sheds.len(), 1);
        assert!(!gate.passed());

        // A rejection on a normal record is a hard failure.
        report.results[0].stats.shed = 0;
        report.results[0].stats.rejected = 1;
        let gate = check_route_smoke(&report);
        assert!(!gate.failures.is_empty());
    }

    #[test]
    fn report_serializes_round_trip() {
        let options = RouteOptions {
            smoke: true,
            requests: 24,
            ..RouteOptions::default()
        };
        let report = run_route_suite(&options, &Telemetry::disabled()).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RoutingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
