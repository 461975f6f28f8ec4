//! The chaos load-generator behind `cargo run -p pf-bench --bin loadgen
//! -- --chaos`.
//!
//! Where `routing.rs` measures the front tier on clean replicas, this
//! module measures it **under injected faults**: the scenario's `[faults]`
//! plan (see `docs/SCENARIOS.md`) is compiled onto its target replica via
//! [`photofourier::route::chaos_scenario_traced`], the trace is driven
//! through [`Router::submit_with_retry`], and the report records how the
//! self-healing machinery responded — retries, breaker transitions,
//! quarantine and re-admission, integrity rejects — next to the injected
//! fault counts.
//!
//! Everything the gate asserts is a **count of deterministic events**. The
//! committed chaos scenario pins `max_batch = 1` and `workers = 1`, the
//! driver submits from one thread through a bounded FIFO in-flight window,
//! and the fault plan is a pure function of each replica's request
//! sequence numbers — so two runs of the same scenario and seed inject
//! bit-identical fault/retry/breaker counts even though wall-clock
//! latencies differ ([`ChaosCounts`] is the comparable object).
//!
//! [`Router::submit_with_retry`]: photofourier::route::Router::submit_with_retry

use std::collections::{BTreeMap, VecDeque};

use photofourier::prelude::*;
use photofourier::route::{self, ChaosShard, RouterRequest, RouterStats};
use serde::{Deserialize, Serialize};

use crate::routing::{request_image, Trace, TraceKind};

/// Schema identifier written into the report.
pub const SCHEMA: &str = "pf-bench/chaos-v1";

/// The committed scenario CI's chaos-smoke job drives.
pub const DEFAULT_SCENARIO: &str = "scenarios/chaos_resnet18.toml";

/// How many tickets the driver keeps in flight. Bounded and FIFO so the
/// interleaving of submissions, waits and retries is a pure function of
/// the trace — the determinism the chaos gate relies on.
const IN_FLIGHT: usize = 4;

/// Options of [`run_chaos_suite`], typically parsed from loadgen flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Small fixed request count and the chaos smoke gate (CI).
    pub smoke: bool,
    /// Scenario path (must carry a `[faults]` section to inject anything).
    pub scenario: String,
    /// Arrivals (0 means the mode's default).
    pub requests: usize,
    /// Mean arrival rate used to *shape* the bursty trace (the driver
    /// submits unpaced: determinism beats wall-clock realism here).
    pub base_rps: f64,
    /// Seed of the trace and image RNGs.
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            scenario: DEFAULT_SCENARIO.to_string(),
            requests: 0,
            base_rps: 400.0,
            seed: 42,
        }
    }
}

/// The deterministic-event counts of one chaos run: the object two runs of
/// the same scenario and seed must agree on byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosCounts {
    /// Injected faults by kind name (aggregated over every replica's
    /// [`FaultyEngine`](photofourier::route::FaultyEngine)); only kinds
    /// that fired appear.
    pub faults: BTreeMap<String, u64>,
    /// Failed attempts the router resubmitted.
    pub retries: u64,
    /// Circuit-breaker state changes across all replicas.
    pub breaker_transitions: u64,
    /// Transitions into `open` (quarantine events).
    pub quarantined: u64,
    /// Served payloads discarded by the integrity screen.
    pub integrity_rejects: u64,
}

/// The full report serialised to `BENCH_chaos.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Scenario name (from the loaded file).
    pub scenario: String,
    /// The replica the fault plan targets.
    pub fault_replica: usize,
    /// Arrivals offered.
    pub requests: usize,
    /// Tickets that resolved with a served result.
    pub resolved: u64,
    /// Tickets that resolved with an error after retries were exhausted
    /// (or the request was not admitted for a non-capacity reason).
    pub failed: u64,
    /// Requests refused by the shed ladder (not admitted).
    pub shed: u64,
    /// Requests rejected with every queue full (not admitted).
    pub rejected: u64,
    /// The p99 SLO (milliseconds) the highest class is held to.
    pub slo_p99_ms: f64,
    /// The deterministic-event counts (the determinism gate's object).
    pub counts: ChaosCounts,
    /// The router's full accounting, including each replica's final
    /// breaker state and health scores.
    pub stats: RouterStats,
    /// Telemetry accounting when the run was traced; see
    /// [`crate::serving::TraceSummary`].
    pub trace: Option<crate::serving::TraceSummary>,
}

/// Runs the chaos scenario once. Under an enabled `tel`,
/// `router.retries`, `router.breaker_transitions` and friends land in it
/// and the report carries a trace summary.
///
/// # Errors
///
/// Propagates scenario loading/validation and tier construction errors.
/// Per-request failures do **not** error the run — they are what the gate
/// inspects.
pub fn run_chaos_suite(options: &ChaosOptions, tel: &Telemetry) -> Result<ChaosReport, PfError> {
    let scenario = Scenario::from_path(&options.scenario)?;
    let requests = match options.requests {
        0 if options.smoke => 96,
        0 => 192,
        n => n,
    };
    let router_spec = scenario
        .serving
        .clone()
        .unwrap_or_default()
        .router
        .unwrap_or_default();
    let fault_replica = scenario.faults.as_ref().map_or(0, |f| f.replica);
    let slo_p99_ms = router_spec.slo_p99_ms;
    let scenario_name = scenario.name.clone();

    let (router, shards) =
        route::chaos_scenario_traced(scenario.clone(), tel.with_prefix("chaos"))?;
    let trace = Trace::generate(
        TraceKind::Bursty,
        requests,
        options.base_rps,
        router_spec.models as u64,
        options.seed,
    );

    let mut resolved = 0u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut rejected = 0u64;
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let settle = |pending: &mut VecDeque<_>, resolved: &mut u64, failed: &mut u64| {
        if let Some(ticket) = pending.pop_front() {
            match route::RouterTicket::<'_, ChaosShard>::wait(ticket) {
                Ok(_) => *resolved += 1,
                Err(_) => *failed += 1,
            }
        }
    };
    for (k, event) in trace.events.iter().enumerate() {
        if pending.len() >= IN_FLIGHT {
            settle(&mut pending, &mut resolved, &mut failed);
        }
        let image = request_image(&scenario, options.seed, k);
        let payload = route::ModelRequest::new(image, event.model).with_seed(k as u64);
        let request = RouterRequest::new(payload)
            .with_class(event.class)
            .with_affinity(event.model);
        match router.submit_with_retry(request) {
            Ok(ticket) => pending.push_back(ticket),
            Err(PfError::Shed { .. }) => shed += 1,
            Err(PfError::Overloaded { .. }) => rejected += 1,
            Err(e) => return Err(e),
        }
    }
    while !pending.is_empty() {
        settle(&mut pending, &mut resolved, &mut failed);
    }

    let stats = router.drain()?;
    let mut faults = BTreeMap::new();
    let mut add = |kind: &str, n: u64| {
        if n > 0 {
            *faults.entry(kind.to_string()).or_insert(0) += n;
        }
    };
    for shard in &shards {
        let counts = shard.counts();
        add("latency_spike", counts.spikes);
        add("stall", counts.stalls);
        add("panic", counts.panics);
        add("transient_error", counts.errors);
        add("corruption", counts.corruptions);
        add("calibration_drift", counts.drifts);
    }

    Ok(ChaosReport {
        schema: SCHEMA.to_string(),
        mode: if options.smoke { "smoke" } else { "full" }.to_string(),
        scenario: scenario_name,
        fault_replica,
        requests,
        resolved,
        failed,
        shed,
        rejected,
        slo_p99_ms,
        counts: ChaosCounts {
            faults,
            retries: stats.retries,
            breaker_transitions: stats.breaker_transitions,
            quarantined: stats.quarantined,
            integrity_rejects: stats.integrity_rejects,
        },
        stats,
        trace: crate::serving::TraceSummary::from_telemetry(tel),
    })
}

/// The chaos smoke gate CI enforces (exit [`crate::exitcode::CHAOS`] on
/// breach).
///
/// Self-healing must actually have worked: every ticket resolves (no
/// hangs, no exhausted retries), the plan injected faults and the router
/// retried them, the flapped replica was quarantined at least once and its
/// breaker walked back to `closed` (closed → open → half-open → closed,
/// ≥ 3 transitions), the integrity screen caught the injected corruption,
/// admission accounting still sums, and the highest class's p99 stayed
/// inside the scenario's SLO while all of that happened.
pub fn check_chaos_smoke(report: &ChaosReport) -> Vec<String> {
    let mut failures = Vec::new();
    let s = &report.stats;
    if report.failed > 0 {
        failures.push(format!(
            "{} request(s) failed after retries — self-healing did not absorb the plan",
            report.failed
        ));
    }
    if report.resolved + report.failed + report.shed + report.rejected != report.requests as u64 {
        failures.push(format!(
            "ticket resolution incomplete: {} resolved + {} failed + {} shed + {} rejected != {} offered",
            report.resolved, report.failed, report.shed, report.rejected, report.requests
        ));
    }
    if report.shed > 0 || report.rejected > 0 {
        failures.push(format!(
            "{} shed / {} rejected on a tier sized to admit the whole trace",
            report.shed, report.rejected
        ));
    }
    if s.submitted != s.admitted + s.shed + s.rejected {
        failures.push(format!(
            "admission accounting broken ({} + {} + {} != {})",
            s.admitted, s.shed, s.rejected, s.submitted
        ));
    }
    let c = &report.counts;
    if c.faults.is_empty() {
        failures.push("the fault plan injected nothing".to_string());
    }
    if c.retries == 0 {
        failures.push("no retries recorded under an injected-fault plan".to_string());
    }
    if c.quarantined == 0 {
        failures.push("the flapping replica was never quarantined".to_string());
    }
    if c.breaker_transitions < 3 {
        failures.push(format!(
            "breaker transitions {} < 3 (closed -> open -> half-open -> closed never completed)",
            c.breaker_transitions
        ));
    }
    if c.faults.contains_key("corruption") && c.integrity_rejects == 0 {
        failures.push("injected corruption was served past the integrity screen".to_string());
    }
    match s.replicas.get(report.fault_replica) {
        Some(rollup) if rollup.health.state != "closed" => failures.push(format!(
            "replica {} finished `{}`, never re-admitted",
            report.fault_replica, rollup.health.state
        )),
        None => failures.push(format!(
            "fault replica {} missing from the rollups",
            report.fault_replica
        )),
        Some(_) => {}
    }
    if let Some(highest) = s.classes.first() {
        if highest.latency.count > 0 && highest.latency.p99_ms > report.slo_p99_ms {
            failures.push(format!(
                "highest-class p99 {:.3} ms exceeds the {:.0} ms SLO under faults",
                highest.latency.p99_ms, report.slo_p99_ms
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options() -> ChaosOptions {
        ChaosOptions {
            smoke: true,
            scenario: format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), DEFAULT_SCENARIO),
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn chaos_smoke_passes_its_own_gate() {
        let report = run_chaos_suite(&smoke_options(), &Telemetry::disabled()).unwrap();
        assert_eq!(report.schema, SCHEMA);
        let failures = check_chaos_smoke(&report);
        assert!(failures.is_empty(), "{failures:?}");
        // The committed plan exercises every self-healing mechanism.
        assert!(report.counts.faults.contains_key("transient_error"));
        assert!(report.counts.faults.contains_key("corruption"));
        assert!(report.counts.faults.contains_key("panic"));
        assert!(report.counts.integrity_rejects >= 1);
    }

    #[test]
    fn chaos_counts_replay_bit_identically() {
        let a = run_chaos_suite(&smoke_options(), &Telemetry::disabled()).unwrap();
        let b = run_chaos_suite(&smoke_options(), &Telemetry::disabled()).unwrap();
        assert_eq!(a.counts, b.counts, "fault/retry/breaker counts diverged");
        assert_eq!(a.resolved, b.resolved);
        assert_eq!(a.failed, b.failed);
        let json_a = serde_json::to_string(&a.counts).unwrap();
        let json_b = serde_json::to_string(&b.counts).unwrap();
        assert_eq!(json_a, json_b, "serialised counts diverged");
    }

    #[test]
    fn gate_flags_the_failure_modes() {
        let report = run_chaos_suite(&smoke_options(), &Telemetry::disabled()).unwrap();
        assert!(check_chaos_smoke(&report).is_empty());

        let mut broken = report.clone();
        broken.failed = 1;
        assert!(!check_chaos_smoke(&broken).is_empty());

        let mut broken = report.clone();
        broken.counts.quarantined = 0;
        assert!(!check_chaos_smoke(&broken).is_empty());

        let mut broken = report.clone();
        broken.stats.replicas[broken.fault_replica].health.state = "open".to_string();
        assert!(!check_chaos_smoke(&broken).is_empty());

        let mut broken = report;
        broken.counts.integrity_rejects = 0;
        assert!(!check_chaos_smoke(&broken).is_empty());
    }
}
