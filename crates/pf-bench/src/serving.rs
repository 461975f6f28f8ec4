//! The serving load-generator behind `cargo run -p pf-bench --bin loadgen`.
//!
//! Drives the `pf-serve` micro-batching inference server with concurrent,
//! seeded-RNG traffic and emits a machine-readable `BENCH_serving.json` —
//! the latency axis of the repo's performance trajectory (the throughput
//! axis is `perf.rs`). Two arrival patterns:
//!
//! * **closed loop** — `concurrency` submitter threads, each submitting a
//!   request and blocking on its result before the next (classic
//!   latency-measurement harness; offered load adapts to service rate);
//! * **open loop** — one submitter paces arrivals by a seeded exponential
//!   (Poisson) process at a target request rate, never waiting for results
//!   (offered load is independent of service rate, so queueing and
//!   overload behaviour are visible).
//!
//! Every record carries the server's own [`ServerStats`] (p50/p95/p99
//! latency, queue-wait, achieved batch-size histogram, throughput) plus
//! `matches_offline`: whether every served result was bit-identical to the
//! offline path — `Session::run_batch` for deterministic backends,
//! `Session::run_inference_seeded` keyed by each ticket's admission
//! sequence number for the stochastic CG chain.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use photofourier::prelude::*;
use photofourier::serve::{self, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{scenario_image, tensors_bit_equal};

/// Schema identifier written into the report.
pub const SCHEMA: &str = "pf-bench/serving-v1";

/// How long a load run offers traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Exactly this many requests in total (deterministic; the smoke mode).
    Requests(usize),
    /// As many requests as fit in this wall-time window.
    Wall(Duration),
}

/// One measured backend/pattern combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingRecord {
    /// Backend registry name (`digital`, `jtc_ideal`, `photofourier_cg`).
    pub backend: String,
    /// `closed_loop` or `open_loop`.
    pub pattern: String,
    /// Closed loop: submitter threads. Open loop: always 1.
    pub concurrency: usize,
    /// Open loop: target arrival rate. Closed loop: 0 (load is adaptive).
    pub target_rps: f64,
    /// Whether every served result was bit-identical to the offline
    /// single-session path on the same inputs.
    pub matches_offline: bool,
    /// The server's own accounting: counts, latency percentiles,
    /// queue-wait, achieved batch-size histogram, throughput.
    pub stats: ServerStats,
}

/// Telemetry accounting for a traced run, embedded in the report when the
/// load was generated under a live [`Telemetry`] handle (absent otherwise,
/// so untraced reports round-trip unchanged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Spans the bounded ring buffer retained.
    pub spans_recorded: u64,
    /// Spans the ring discarded once full (drop-oldest losses; non-zero
    /// means the start of the trace is missing, not that data is wrong).
    pub spans_dropped: u64,
    /// Deepest queue occupancy any server in the run saw — the max over
    /// every `serve.queue_high_water` gauge (replica-prefixed ones
    /// included, so routed runs report the worst shard).
    pub queue_high_water: u64,
}

impl TraceSummary {
    /// Reads the summary out of a telemetry handle, first mirroring the
    /// process-wide scratch-arena counters so the snapshot is complete.
    /// `None` when the handle is disabled.
    pub fn from_telemetry(tel: &Telemetry) -> Option<Self> {
        if !tel.is_enabled() {
            return None;
        }
        photofourier::mirror_scratch_gauges(tel);
        let snapshot = tel.snapshot();
        let queue_high_water = snapshot
            .gauges
            .iter()
            .filter(|(name, _)| name.ends_with("serve.queue_high_water"))
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0);
        Some(Self {
            spans_recorded: snapshot.spans_recorded,
            spans_dropped: snapshot.spans_dropped,
            queue_high_water,
        })
    }
}

/// The full report serialised to `BENCH_serving.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Worker threads rayon-style dispatch uses on this host (the engine's
    /// per-image parallelism inside each micro-batch).
    pub host_threads: usize,
    /// Measured records.
    pub results: Vec<ServingRecord>,
    /// Telemetry accounting when the run was traced (`loadgen --trace`).
    pub trace: Option<TraceSummary>,
}

/// Options of [`run_suite`], typically parsed from loadgen flags.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// Small fixed request counts and the smoke serving config (CI).
    pub smoke: bool,
    /// Backends to measure. Empty means the mode's default set.
    pub backends: Vec<BackendKind>,
    /// Closed-loop submitter threads.
    pub concurrency: usize,
    /// Open-loop target arrival rate (requests/s).
    pub rps: f64,
    /// Full-mode wall-time budget per closed-loop record; also sizes the
    /// open-loop request count (`rps * duration`).
    pub duration: Duration,
    /// Seed of the arrival-process and image RNGs.
    pub seed: u64,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            backends: Vec::new(),
            concurrency: 4,
            rps: 200.0,
            duration: Duration::from_secs(2),
            seed: 42,
        }
    }
}

/// The serving configuration a load run uses (the scenario's `[serving]`
/// section equivalent, sized for the mode).
fn serving_spec(smoke: bool) -> ServingSpec {
    if smoke {
        ServingSpec {
            max_batch: 4,
            batch_timeout_us: 200,
            queue_depth: 256,
            workers: 1,
            router: None,
        }
    } else {
        ServingSpec {
            max_batch: 8,
            batch_timeout_us: 1_000,
            queue_depth: 256,
            workers: 1,
            router: None,
        }
    }
}

fn backend_scenario(kind: BackendKind, smoke: bool) -> Scenario {
    let mut scenario = Scenario::new(
        format!("loadgen_{kind}"),
        "resnet18",
        BackendSpec {
            kind,
            capacity: 256,
        },
    );
    scenario.serving = Some(serving_spec(smoke));
    scenario
}

/// The image request `(worker, k)` submits: seeded, so two runs (and the
/// offline verification) see identical traffic.
fn request_image(scenario: &Scenario, seed: u64, worker: usize, k: usize) -> Tensor {
    let image_seed = seed
        .wrapping_add(worker as u64 * 1_000_003)
        .wrapping_add(k as u64);
    scenario_image(scenario, image_seed)
}

/// One served request, recorded for offline verification.
type Outcome = (u64, Tensor, Tensor); // (seq, input, served output)

/// Re-runs every served request through a fresh offline session and checks
/// bit-identity. Deterministic backends go through the batched offline path
/// (`run_batch`); the stochastic chain replays each request's admission
/// seed.
fn verify_offline(session: &Session, outcomes: &[Outcome]) -> bool {
    if outcomes.is_empty() {
        return true;
    }
    if session.is_stochastic() {
        return outcomes.iter().all(|(seq, input, served)| {
            session
                .run_inference_seeded(input, *seq)
                .map(|offline| tensors_bit_equal(&offline, served))
                .unwrap_or(false)
        });
    }
    let inputs: Vec<Tensor> = outcomes.iter().map(|(_, input, _)| input.clone()).collect();
    match session.run_batch(&inputs) {
        Ok(offline) => offline
            .iter()
            .zip(outcomes)
            .all(|(o, (_, _, served))| tensors_bit_equal(o, served)),
        Err(_) => false,
    }
}

/// Runs a closed-loop load: `concurrency` submitter threads, each blocking
/// on its request's result before submitting the next. Under an enabled
/// `tel` the server records `serve.*` counters and per-request span trees
/// into it; results are bit-identical with [`Telemetry::disabled`].
///
/// # Errors
///
/// Propagates session/server construction errors (individual request
/// failures are accounted in the record's stats instead).
pub fn run_closed_loop(
    kind: BackendKind,
    concurrency: usize,
    budget: Budget,
    seed: u64,
    smoke: bool,
    tel: &Telemetry,
) -> Result<ServingRecord, PfError> {
    let scenario = backend_scenario(kind, smoke);
    let offline = Session::from_scenario(scenario.clone())?;
    // Scope this record's counters apart from the suite's other servers
    // (the registry is shared, so an unscoped second server would report
    // cumulative counts); spans stay on the shared unscoped timeline.
    let server =
        serve::serve_scenario_traced(scenario, tel.with_prefix(&format!("closed_{kind}")))?;

    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    let deadline = match budget {
        Budget::Wall(window) => Some(Instant::now() + window),
        Budget::Requests(_) => None,
    };
    let per_worker = |w: usize| match budget {
        Budget::Requests(total) => {
            total / concurrency.max(1) + usize::from(w < total % concurrency.max(1))
        }
        Budget::Wall(_) => usize::MAX,
    };

    std::thread::scope(|scope| {
        for w in 0..concurrency.max(1) {
            let server = &server;
            let outcomes = &outcomes;
            let scenario = offline.scenario();
            scope.spawn(move || {
                let quota = per_worker(w);
                let mut k = 0;
                while k < quota {
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    let input = request_image(scenario, seed, w, k);
                    if let Ok(ticket) = server.submit(input.clone()) {
                        let seq = ticket.seq();
                        if let Ok(output) = ticket.wait() {
                            outcomes.lock().push((seq, input, output));
                        }
                    }
                    k += 1;
                }
            });
        }
    });

    let stats = server.shutdown()?;
    let matches_offline = verify_offline(&offline, &outcomes.into_inner());
    Ok(ServingRecord {
        backend: kind.name().to_string(),
        pattern: "closed_loop".to_string(),
        concurrency: concurrency.max(1),
        target_rps: 0.0,
        matches_offline,
        stats,
    })
}

/// Runs an open-loop load: one submitter paces `requests` arrivals by a
/// seeded exponential (Poisson) process at `rps`, collecting every ticket
/// afterwards. Overload shows up as rejected requests in the stats rather
/// than back-pressure on the arrival process. `tel` as in
/// [`run_closed_loop`].
///
/// # Errors
///
/// Propagates session/server construction errors.
pub fn run_open_loop(
    kind: BackendKind,
    rps: f64,
    requests: usize,
    seed: u64,
    smoke: bool,
    tel: &Telemetry,
) -> Result<ServingRecord, PfError> {
    assert!(rps > 0.0, "open loop needs a positive arrival rate");
    let scenario = backend_scenario(kind, smoke);
    let offline = Session::from_scenario(scenario.clone())?;
    // See run_closed_loop: per-record metric scope, shared spans.
    let server = serve::serve_scenario_traced(scenario, tel.with_prefix(&format!("open_{kind}")))?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(requests);
    let mut next_arrival = Instant::now();
    for k in 0..requests {
        // Exponential inter-arrival gap (u is in [0, 1), so 1 - u > 0).
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() / rps;
        next_arrival += Duration::from_secs_f64(gap);
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        let input = request_image(offline.scenario(), seed, 0, k);
        if let Ok(ticket) = server.submit(input.clone()) {
            tickets.push((input, ticket));
        }
    }

    let mut outcomes: Vec<Outcome> = Vec::with_capacity(tickets.len());
    for (input, ticket) in tickets {
        let seq = ticket.seq();
        if let Ok(output) = ticket.wait() {
            outcomes.push((seq, input, output));
        }
    }

    let stats = server.shutdown()?;
    let matches_offline = verify_offline(&offline, &outcomes);
    Ok(ServingRecord {
        backend: kind.name().to_string(),
        pattern: "open_loop".to_string(),
        concurrency: 1,
        target_rps: rps,
        matches_offline,
        stats,
    })
}

/// Runs the full record matrix for one mode.
///
/// Smoke: closed loop on the mode's backends (default `digital` +
/// `jtc_ideal`) with 32 requests each, plus one open-loop record on the
/// last backend. Full: closed loop (wall-time budget) and open loop
/// (`rps * duration` requests) on every backend (default all three).
/// Every record's server shares `tel`, and the report carries a
/// [`TraceSummary`] when it is enabled.
///
/// # Errors
///
/// Propagates the first record's error.
pub fn run_suite(options: &LoadgenOptions, tel: &Telemetry) -> Result<ServingReport, PfError> {
    let backends: Vec<BackendKind> = if options.backends.is_empty() {
        if options.smoke {
            vec![BackendKind::Digital, BackendKind::JtcIdeal]
        } else {
            BackendKind::ALL.to_vec()
        }
    } else {
        options.backends.clone()
    };

    let mut results = Vec::new();
    for &kind in &backends {
        let budget = if options.smoke {
            Budget::Requests(32)
        } else {
            Budget::Wall(options.duration)
        };
        results.push(run_closed_loop(
            kind,
            options.concurrency,
            budget,
            options.seed,
            options.smoke,
            tel,
        )?);
    }
    let open_backends: &[BackendKind] = if options.smoke {
        &backends[backends.len() - 1..]
    } else {
        &backends
    };
    for &kind in open_backends {
        let requests = if options.smoke {
            32
        } else {
            ((options.rps * options.duration.as_secs_f64()).ceil() as usize).max(1)
        };
        results.push(run_open_loop(
            kind,
            options.rps,
            requests,
            options.seed,
            options.smoke,
            tel,
        )?);
    }

    Ok(ServingReport {
        schema: SCHEMA.to_string(),
        mode: if options.smoke { "smoke" } else { "full" }.to_string(),
        host_threads: rayon::current_num_threads(),
        results,
        trace: TraceSummary::from_telemetry(tel),
    })
}

/// The smoke gate CI enforces: no rejections, no failures, every record
/// bit-identical to the offline path, and the sanity invariants
/// (`served + rejected + failed + expired + cancelled == submitted`,
/// monotone percentiles).
/// Returns human-readable failure descriptions (empty = gate passes).
pub fn check_smoke(report: &ServingReport) -> Vec<String> {
    let mut failures = Vec::new();
    for record in &report.results {
        let tag = format!("{}/{}", record.pattern, record.backend);
        let s = &record.stats;
        if s.rejected > 0 {
            failures.push(format!("{tag}: {} request(s) rejected", s.rejected));
        }
        if s.failed > 0 {
            failures.push(format!("{tag}: {} request(s) failed", s.failed));
        }
        if !record.matches_offline {
            failures.push(format!(
                "{tag}: served results diverge from the offline session"
            ));
        }
        if s.expired > 0 || s.cancelled > 0 {
            failures.push(format!(
                "{tag}: {} expired / {} cancelled (loadgen sets no deadlines)",
                s.expired, s.cancelled
            ));
        }
        if s.served + s.rejected + s.failed + s.expired + s.cancelled != s.submitted {
            failures.push(format!(
                "{tag}: accounting broken ({} + {} + {} + {} + {} != {})",
                s.served, s.rejected, s.failed, s.expired, s.cancelled, s.submitted
            ));
        }
        if s.latency.p99_ms < s.latency.p50_ms {
            failures.push(format!(
                "{tag}: p99 {} below p50 {}",
                s.latency.p99_ms, s.latency.p50_ms
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke closed-loop record of exactly `requests` requests, untraced.
    fn closed(kind: BackendKind, concurrency: usize, requests: usize, seed: u64) -> ServingRecord {
        let budget = Budget::Requests(requests);
        run_closed_loop(
            kind,
            concurrency,
            budget,
            seed,
            true,
            &Telemetry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn smoke_closed_loop_matches_offline_and_accounts_fully() {
        let record = closed(BackendKind::Digital, 2, 8, 7);
        assert_eq!(record.backend, "digital");
        assert_eq!(record.pattern, "closed_loop");
        assert!(record.matches_offline);
        let s = &record.stats;
        assert_eq!(s.submitted, 8);
        assert_eq!(s.served, 8);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.served + s.rejected + s.failed, s.submitted);
        assert!(s.latency.p99_ms >= s.latency.p50_ms);
        assert!(s.throughput_rps > 0.0);
        let batches: u64 = s.batch_histogram.iter().map(|b| b.count).sum();
        let requests: u64 = s
            .batch_histogram
            .iter()
            .map(|b| b.size as u64 * b.count)
            .sum();
        assert!(batches > 0);
        assert_eq!(requests, s.served + s.failed);
    }

    #[test]
    fn open_loop_paces_and_verifies() {
        let tel = Telemetry::disabled();
        let record = run_open_loop(BackendKind::JtcIdeal, 400.0, 8, 9, true, &tel).unwrap();
        assert_eq!(record.pattern, "open_loop");
        assert!(record.matches_offline);
        assert_eq!(record.stats.submitted, 8);
        assert_eq!(record.stats.served, 8);
    }

    #[test]
    fn stochastic_backend_replays_by_admission_seed() {
        let record = closed(BackendKind::PhotofourierCg, 2, 6, 11);
        assert!(
            record.matches_offline,
            "CG results must replay from ticket seqs"
        );
        assert_eq!(record.stats.served, 6);
    }

    #[test]
    fn smoke_gate_flags_broken_records() {
        let good = closed(BackendKind::Digital, 1, 4, 3);
        let mut report = ServingReport {
            schema: SCHEMA.to_string(),
            mode: "smoke".to_string(),
            host_threads: 1,
            results: vec![good],
            trace: None,
        };
        assert!(check_smoke(&report).is_empty());
        report.results[0].matches_offline = false;
        report.results[0].stats.rejected = 1;
        let failures = check_smoke(&report);
        assert_eq!(failures.len(), 3, "{failures:?}"); // reject, diverge, accounting
    }

    #[test]
    fn report_serializes_round_trip() {
        let record = closed(BackendKind::Digital, 1, 2, 1);
        let report = ServingReport {
            schema: SCHEMA.to_string(),
            mode: "smoke".to_string(),
            host_threads: 4,
            results: vec![record],
            trace: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ServingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
