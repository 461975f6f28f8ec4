//! `cargo run -p pf-bench --bin loadgen` — the serving load generator.
//!
//! Drives the `pf-serve` micro-batching inference server with closed- and
//! open-loop traffic (seeded arrival RNG), prints a latency summary table
//! and writes `BENCH_serving.json` (schema `pf-bench/serving-v1`). In
//! `--smoke` mode (CI's route-smoke job) the run also gates: any rejected
//! or failed request, or any served result that is not bit-identical to
//! the offline `Session` path, is a non-zero exit.
//!
//! With `--route` the generator instead drives the `pf-router`
//! multi-replica tier with trace-driven arrivals (bursty / diurnal /
//! heavy-tail, seeded and replayable) and writes `BENCH_routing.json`
//! (schema `pf-bench/routing-v1`). With `--chaos` it drives the tier with
//! the scenario's deterministic `[faults]` plan installed (default
//! `scenarios/chaos_resnet18.toml`, override with `--scenario`) through
//! the retrying submission path, and writes `BENCH_chaos.json` (schema
//! `pf-bench/chaos-v1`).
//!
//! Exit codes (see [`pf_bench::exitcode`]): **0** pass, **1** hard
//! failure (rejections, SLO violations, offline divergence, I/O), **2**
//! bad command line, **3** route smoke gate found only *intentional
//! shedding* outside the overload record, **4** chaos gate breach (hung
//! tickets, a replica never re-admitted, or a healthy-class SLO miss
//! under faults). The smoke-gating CI jobs assert this taxonomy.
//!
//! Flags:
//!
//! * `--smoke`           small fixed request counts + the smoke gate (CI)
//! * `--route`           drive the multi-replica router instead
//! * `--chaos`           drive the router under the scenario's `[faults]` plan
//! * `--scenario PATH`   chaos mode: scenario file (default `scenarios/chaos_resnet18.toml`)
//! * `--rps F`           open-loop / trace mean arrival rate (default 200 serve, 400 route/chaos)
//! * `--concurrency N`   closed-loop submitter threads (default 4)
//! * `--duration SECS`   full-mode wall-time budget per record (default 2)
//! * `--requests N`      route/chaos mode: arrivals per trace record (default by mode)
//! * `--backend NAME`    restrict to one backend (repeatable; route mode uses the first)
//! * `--seed N`          arrival/image RNG seed (default 42)
//! * `--out PATH`        report path (default `BENCH_serving.json` /
//!   `BENCH_routing.json` / `BENCH_chaos.json`)
//! * `--trace [PATH]`    run under a live telemetry handle and export the
//!   span trees as Chrome trace-event JSON (default `TRACE_serving.json` /
//!   `TRACE_routing.json` / `TRACE_chaos.json`; the written file is always
//!   validated, invalid JSON is a non-zero exit). The summary gains spans
//!   recorded / dropped (ring drop-oldest losses) and the queue high-water
//!   mark.
//! * `--report-every SECS`  print a periodic metrics-delta snapshot while
//!   the load runs (implies metrics collection even without `--trace`)

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pf_bench::chaos::{check_chaos_smoke, run_chaos_suite, ChaosOptions, ChaosReport};
use pf_bench::exitcode;
use pf_bench::routing::{check_route_smoke, run_route_suite, RouteOptions, RoutingReport};
use pf_bench::serving::{check_smoke, run_suite, LoadgenOptions, ServingReport, TraceSummary};
use pf_bench::Table;
use photofourier::telemetry::validate_chrome_trace;
use photofourier::{BackendKind, Telemetry};

fn usage() {
    eprintln!(
        "usage: loadgen [--smoke] [--route | --chaos] [--scenario PATH] [--rps F] \
         [--concurrency N] [--duration SECS] [--requests N] [--backend NAME]... [--seed N] \
         [--out PATH] [--trace [PATH]] [--report-every SECS]"
    );
}

/// A background thread printing metrics-delta snapshots every interval
/// while the load runs. Stops (and joins) on drop.
struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    fn start(tel: &Telemetry, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let tel = tel.clone();
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(50).min(every);
            let mut since = Duration::ZERO;
            let mut elapsed = Duration::ZERO;
            let mut prev = tel.snapshot();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since += tick;
                elapsed += tick;
                if since < every {
                    continue;
                }
                since = Duration::ZERO;
                let now = tel.snapshot();
                let delta = now.delta_since(&prev);
                prev = now;
                let table = delta.format_table();
                println!(
                    "-- telemetry delta @ ~{:.0}s --\n{}",
                    elapsed.as_secs_f64(),
                    if table.is_empty() { "(idle)\n" } else { &table }
                );
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Prints the traced-run summary line: ring losses and the queue
/// high-water mark.
fn print_trace_summary(summary: &TraceSummary) {
    println!(
        "trace: {} span(s) retained, {} dropped (ring drop-oldest), queue high water {}",
        summary.spans_recorded, summary.spans_dropped, summary.queue_high_water
    );
}

/// Exports the retained spans as Chrome trace-event JSON, validates the
/// exact bytes written, and reports the span-pair/track counts.
fn write_trace(tel: &Telemetry, path: &str) -> Result<(), ExitCode> {
    let json = tel.chrome_trace_json();
    let stats = match validate_chrome_trace(&json) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("exported trace is not valid Chrome trace JSON: {e}");
            return Err(ExitCode::from(exitcode::FAILURE));
        }
    };
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::from(exitcode::FAILURE));
    }
    println!(
        "wrote {path} ({} event(s), {} span pair(s), {} track(s))",
        stats.events, stats.pairs, stats.tracks
    );
    Ok(())
}

fn print_report(report: &ServingReport) {
    println!(
        "\n== PhotoFourier serving ({} mode, {} host thread(s)) ==\n",
        report.mode, report.host_threads
    );
    let mut table = Table::new(vec![
        "pattern",
        "backend",
        "submitted",
        "served",
        "rejected",
        "rps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "mean batch",
        "offline match",
    ]);
    for r in &report.results {
        table.row(vec![
            r.pattern.clone(),
            r.backend.clone(),
            r.stats.submitted.to_string(),
            r.stats.served.to_string(),
            r.stats.rejected.to_string(),
            format!("{:.1}", r.stats.throughput_rps),
            format!("{:.3}", r.stats.latency.p50_ms),
            format!("{:.3}", r.stats.latency.p95_ms),
            format!("{:.3}", r.stats.latency.p99_ms),
            format!("{:.2}", r.stats.mean_batch_size()),
            if r.matches_offline { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn print_route_report(report: &RoutingReport) {
    println!(
        "\n== PhotoFourier routing ({} mode, {} host thread(s)) ==\n",
        report.mode, report.host_threads
    );
    let mut table = Table::new(vec![
        "trace",
        "policy",
        "backend",
        "submitted",
        "served",
        "shed",
        "rejected",
        "spills",
        "p50 ms",
        "p99 ms",
        "miss",
        "cache hit",
        "offline match",
    ]);
    for r in &report.results {
        let s = &r.stats;
        table.row(vec![
            if r.overload {
                format!("{} (overload)", r.trace)
            } else {
                r.trace.clone()
            },
            r.policy.clone(),
            r.backend.clone(),
            s.submitted.to_string(),
            s.served().to_string(),
            s.shed.to_string(),
            s.rejected.to_string(),
            s.spills.to_string(),
            format!("{:.3}", s.latency.p50_ms),
            format!("{:.3}", s.latency.p99_ms),
            s.deadline_misses.to_string(),
            format!("{:.0}%", s.cache().hit_rate() * 100.0),
            if r.matches_offline { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn print_chaos_report(report: &ChaosReport) {
    println!(
        "\n== PhotoFourier chaos ({} mode, scenario {}) ==\n",
        report.mode, report.scenario
    );
    println!(
        "offered {} | resolved {} | failed {} | shed {} | rejected {}",
        report.requests, report.resolved, report.failed, report.shed, report.rejected
    );
    let c = &report.counts;
    let injected: Vec<String> = c.faults.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "injected: {} | retries {} | breaker transitions {} | quarantined {} | integrity rejects {}",
        if injected.is_empty() {
            "(none)".to_string()
        } else {
            injected.join(" ")
        },
        c.retries,
        c.breaker_transitions,
        c.quarantined,
        c.integrity_rejects
    );
    let mut table = Table::new(vec![
        "replica",
        "state",
        "ewma ms",
        "err rate",
        "transitions",
        "quarantines",
        "dispatched",
    ]);
    for r in &report.stats.replicas {
        table.row(vec![
            r.replica.to_string(),
            r.health.state.clone(),
            format!("{:.3}", r.health.ewma_latency_ms),
            format!("{:.3}", r.health.ewma_error_rate),
            r.health.transitions.to_string(),
            r.health.quarantines.to_string(),
            r.dispatched.to_string(),
        ]);
    }
    println!("{}", table.render());
    if let Some(highest) = report.stats.classes.first() {
        println!(
            "highest-class p99 {:.3} ms (SLO {:.0} ms)",
            highest.latency.p99_ms, report.slo_p99_ms
        );
    }
}

fn run_chaos(
    options: &LoadgenOptions,
    scenario: Option<String>,
    requests: usize,
    out: Option<String>,
    tel: &Telemetry,
    trace_out: Option<&str>,
) -> ExitCode {
    let mut chaos_options = ChaosOptions {
        smoke: options.smoke,
        requests,
        base_rps: if options.rps > 0.0 {
            options.rps
        } else {
            400.0
        },
        seed: options.seed,
        ..ChaosOptions::default()
    };
    if let Some(path) = scenario {
        chaos_options.scenario = path;
    }
    let report = match run_chaos_suite(&chaos_options, tel) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos loadgen failed: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
    };
    print_chaos_report(&report);
    if let Some(summary) = &report.trace {
        print_trace_summary(summary);
    }
    let out = out.unwrap_or_else(|| "BENCH_chaos.json".to_string());
    if let Err(code) = write_json(&report, &out) {
        return code;
    }
    if let Some(path) = trace_out {
        if let Err(code) = write_trace(tel, path) {
            return code;
        }
    }

    if options.smoke {
        let failures = check_chaos_smoke(&report);
        if failures.is_empty() {
            println!("chaos smoke gate passed");
        } else {
            eprintln!("chaos smoke gate BREACHED:");
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            return ExitCode::from(exitcode::CHAOS);
        }
    }
    ExitCode::from(exitcode::OK)
}

fn write_json<T: serde::Serialize>(report: &T, out: &str) -> Result<(), ExitCode> {
    let json = match serde_json::to_string_pretty(report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("failed to serialise report: {e}");
            return Err(ExitCode::from(exitcode::FAILURE));
        }
    };
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("failed to write {out}: {e}");
        return Err(ExitCode::from(exitcode::FAILURE));
    }
    println!("wrote {out}");
    Ok(())
}

fn run_route(
    options: &LoadgenOptions,
    requests: usize,
    out: Option<String>,
    tel: &Telemetry,
    trace_out: Option<&str>,
) -> ExitCode {
    let route_options = RouteOptions {
        smoke: options.smoke,
        backend: options
            .backends
            .first()
            .copied()
            .unwrap_or(BackendKind::Digital),
        base_rps: if options.rps > 0.0 {
            options.rps
        } else {
            400.0
        },
        requests,
        seed: options.seed,
    };
    let report = match run_route_suite(&route_options, tel) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("route loadgen failed: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
    };
    print_route_report(&report);
    if let Some(summary) = &report.trace {
        print_trace_summary(summary);
    }
    let out = out.unwrap_or_else(|| "BENCH_routing.json".to_string());
    if let Err(code) = write_json(&report, &out) {
        return code;
    }
    if let Some(path) = trace_out {
        if let Err(code) = write_trace(tel, path) {
            return code;
        }
    }

    if options.smoke {
        let gate = check_route_smoke(&report);
        if gate.passed() {
            println!("route smoke gate passed");
        } else if gate.failures.is_empty() {
            // Intentional shedding only: the tier degraded by policy
            // rather than failing — its own exit path, distinct from
            // rejections.
            eprintln!("route smoke gate: intentional shedding outside the overload record:");
            for shed in &gate.unexpected_sheds {
                eprintln!("  - {shed}");
            }
            return ExitCode::from(exitcode::SHED);
        } else {
            eprintln!("route smoke gate FAILED:");
            for failure in &gate.failures {
                eprintln!("  - {failure}");
            }
            for shed in &gate.unexpected_sheds {
                eprintln!("  - (shed) {shed}");
            }
            return ExitCode::from(exitcode::FAILURE);
        }
    }
    ExitCode::from(exitcode::OK)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = LoadgenOptions::default();
    let mut route = false;
    let mut chaos = false;
    let mut scenario: Option<String> = None;
    let mut requests = 0usize;
    let mut rps_set = false;
    let mut out: Option<String> = None;
    let mut trace = false;
    let mut trace_path: Option<String> = None;
    let mut report_every: Option<Duration> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => options.smoke = true,
            "--full" => options.smoke = false,
            "--route" => route = true,
            "--chaos" => chaos = true,
            "--trace" => {
                trace = true;
                // Optional path operand: `--trace out.json` or bare `--trace`.
                if let Some(value) = args.get(i + 1) {
                    if !value.starts_with("--") {
                        trace_path = Some(value.clone());
                        i += 1;
                    }
                }
            }
            "--rps" | "--concurrency" | "--duration" | "--requests" | "--backend" | "--seed"
            | "--out" | "--scenario" | "--report-every" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("{flag} needs a value");
                    usage();
                    return ExitCode::from(exitcode::USAGE);
                };
                match flag.as_str() {
                    "--rps" => match value.parse::<f64>() {
                        Ok(rps) if rps > 0.0 => {
                            options.rps = rps;
                            rps_set = true;
                        }
                        _ => {
                            eprintln!("--rps needs a positive number");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--concurrency" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => options.concurrency = n,
                        _ => {
                            eprintln!("--concurrency needs an integer >= 1");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--duration" => match value.parse::<f64>() {
                        Ok(secs) if secs > 0.0 => {
                            options.duration = Duration::from_secs_f64(secs);
                        }
                        _ => {
                            eprintln!("--duration needs a positive number of seconds");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--requests" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => requests = n,
                        _ => {
                            eprintln!("--requests needs an integer >= 1");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--backend" => match BackendKind::from_name(value) {
                        Ok(kind) => options.backends.push(kind),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--seed" => match value.parse::<u64>() {
                        Ok(seed) => options.seed = seed,
                        Err(_) => {
                            eprintln!("--seed needs an integer");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--report-every" => match value.parse::<f64>() {
                        Ok(secs) if secs > 0.0 => {
                            report_every = Some(Duration::from_secs_f64(secs));
                        }
                        _ => {
                            eprintln!("--report-every needs a positive number of seconds");
                            return ExitCode::from(exitcode::USAGE);
                        }
                    },
                    "--scenario" => scenario = Some(value.clone()),
                    _ => out = Some(value.clone()),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::from(exitcode::OK);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::from(exitcode::USAGE);
            }
        }
        i += 1;
    }

    // `--trace` records spans + metrics; `--report-every` alone still needs
    // the metric registry but no span ring.
    let tel = if trace {
        Telemetry::enabled()
    } else if report_every.is_some() {
        Telemetry::with_span_capacity(0)
    } else {
        Telemetry::disabled()
    };
    let _reporter = report_every.map(|every| Reporter::start(&tel, every));

    if route && chaos {
        eprintln!("--route and --chaos are mutually exclusive");
        usage();
        return ExitCode::from(exitcode::USAGE);
    }
    if chaos {
        if !rps_set {
            options.rps = 400.0;
        }
        let trace_out = trace.then(|| {
            trace_path
                .clone()
                .unwrap_or_else(|| "TRACE_chaos.json".to_string())
        });
        return run_chaos(
            &options,
            scenario,
            requests,
            out,
            &tel,
            trace_out.as_deref(),
        );
    }
    if route {
        if !rps_set {
            options.rps = 400.0;
        }
        let trace_out = trace.then(|| {
            trace_path
                .clone()
                .unwrap_or_else(|| "TRACE_routing.json".to_string())
        });
        return run_route(&options, requests, out, &tel, trace_out.as_deref());
    }

    let report = match run_suite(&options, &tel) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
    };
    print_report(&report);
    if let Some(summary) = &report.trace {
        print_trace_summary(summary);
    }
    let out = out.unwrap_or_else(|| "BENCH_serving.json".to_string());
    if let Err(code) = write_json(&report, &out) {
        return code;
    }
    if trace {
        let path = trace_path.unwrap_or_else(|| "TRACE_serving.json".to_string());
        if let Err(code) = write_trace(&tel, &path) {
            return code;
        }
    }

    if options.smoke {
        let failures = check_smoke(&report);
        if failures.is_empty() {
            println!("serve smoke gate passed");
        } else {
            eprintln!("serve smoke gate FAILED:");
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            return ExitCode::from(exitcode::FAILURE);
        }
    }
    ExitCode::from(exitcode::OK)
}
