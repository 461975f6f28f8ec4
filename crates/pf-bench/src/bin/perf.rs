//! `cargo run -p pf-bench --bin perf` — the throughput perf harness.
//!
//! Measures batched conv2d and batched inference on every backend, writes
//! `BENCH_throughput.json`, and (with `--check`) gates against the
//! committed `benches/baseline.json`. See the README "Performance" section
//! for the schema and the CI wiring, and `docs/PERFORMANCE.md` ("Reading
//! the scaling curves") for the `--threads-sweep` output.
//!
//! Flags:
//!
//! * `--smoke`          small shapes / few reps (the CI bench-smoke job)
//! * `--out PATH`       report path (default `BENCH_throughput.json`)
//! * `--check PATH`     compare against a committed baseline; non-zero exit
//!   on regression (throughput floors and, when the sweep ran, the
//!   core-gated thread-scaling floors)
//! * `--tolerance F`    allowed fractional regression for `--check`
//!   (default 0.30 = 30%)
//! * `--threads N`      size the parallel-dispatch worker pool (default:
//!   one worker per available core); the report records both the request
//!   (`host_threads_configured`) and the pool actually used
//!   (`host_threads`)
//! * `--threads-sweep 1,2,4`  measure thread-scaling curves: each listed
//!   pool width is installed as a scoped pool and every smoke scenario is
//!   re-timed under it; emitted under the report's `threads` key
//! * `--grain G`        parallelism grain for the sweep sessions: `auto`
//!   (default), `image` or `tile`
//! * `--md-summary PATH`  write the report as a GitHub-flavoured markdown
//!   table (the CI `$GITHUB_STEP_SUMMARY` payload)
//! * `--trace PATH`     run one batched inference per backend under a live
//!   telemetry handle and export the span trees (bench → run_batch →
//!   per-stage children) as validated Chrome trace-event JSON, printing
//!   the flamegraph-style text tree alongside
//! * `--overhead-check` measure the telemetry-enabled inference workload
//!   against the disabled path (interleaved best-of) and fail if the
//!   overhead exceeds the budget (default 3%)
//! * `--overhead-budget F`  override that budget fraction

use std::process::ExitCode;

use pf_bench::perf::{
    check_against_baseline, check_scaling_against_baseline, markdown_summary, run_suite,
    telemetry_overhead, thread_scaling, traced_run, Baseline, PerfReport, OVERHEAD_BUDGET,
};
use photofourier::telemetry::validate_chrome_trace;
use photofourier::{ParallelGrain, Telemetry};

fn usage() {
    eprintln!(
        "usage: perf [--smoke] [--out PATH] [--check BASELINE] [--tolerance FRACTION] \
         [--threads N] [--threads-sweep N,N,...] [--grain auto|image|tile] [--md-summary PATH] \
         [--trace PATH] [--overhead-check] [--overhead-budget F]"
    );
}

fn print_report(report: &PerfReport) {
    println!(
        "\n== PhotoFourier throughput ({} mode, {} host thread(s), {} core(s)) ==",
        report.mode, report.host_threads, report.host_cores
    );
    println!(
        "{:<22} {:<16} {:>6} {:>12} {:>12} {:>10} {:>14}",
        "scenario", "backend", "batch", "imgs/s", "seed imgs/s", "us/conv", "speedup_vs_seed"
    );
    for r in &report.results {
        println!(
            "{:<22} {:<16} {:>6} {:>12.2} {:>12.2} {:>10.2} {:>14.2}",
            r.scenario,
            r.backend,
            r.batch,
            r.images_per_s,
            r.seed_images_per_s,
            r.us_per_conv,
            r.speedup_vs_seed
        );
    }
    if let Some(threads) = &report.threads {
        println!(
            "\n-- thread scaling (requested grain: {}, widths {:?}) --",
            threads.grain, threads.counts
        );
        println!(
            "{:<22} {:<16} {:>7} {:>8} {:>12} {:>12} {:>11}",
            "scenario", "backend", "threads", "grain", "imgs/s", "speedup_vs_1", "efficiency"
        );
        for r in &threads.curve {
            println!(
                "{:<22} {:<16} {:>7} {:>8} {:>12.2} {:>12.2} {:>11.2}",
                r.scenario,
                r.backend,
                r.threads,
                r.grain,
                r.images_per_s,
                r.speedup_vs_1,
                r.efficiency
            );
        }
    }
    println!();
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_throughput.json".to_string();
    let mut check: Option<String> = None;
    let mut tolerance = 0.30f64;
    let mut threads: Option<usize> = None;
    let mut sweep: Option<Vec<usize>> = None;
    let mut grain = ParallelGrain::Auto;
    let mut md_summary: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut overhead_check = false;
    let mut overhead_budget = OVERHEAD_BUDGET;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--full" => smoke = false,
            "--overhead-check" => overhead_check = true,
            "--out" | "--check" | "--tolerance" | "--threads" | "--threads-sweep" | "--grain"
            | "--md-summary" | "--trace" | "--overhead-budget" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("{flag} needs a value");
                    usage();
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--out" => out = value.clone(),
                    "--check" => check = Some(value.clone()),
                    "--md-summary" => md_summary = Some(value.clone()),
                    "--trace" => trace = Some(value.clone()),
                    "--overhead-budget" => match value.parse::<f64>() {
                        Ok(f) if (0.0..1.0).contains(&f) => overhead_budget = f,
                        _ => {
                            eprintln!("--overhead-budget needs a fraction in [0, 1)");
                            return ExitCode::from(2);
                        }
                    },
                    "--threads" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => threads = Some(n),
                        _ => {
                            eprintln!("--threads needs an integer >= 1");
                            return ExitCode::from(2);
                        }
                    },
                    "--threads-sweep" => {
                        let counts: Result<Vec<usize>, _> = value
                            .split(',')
                            .map(|s| s.trim().parse::<usize>())
                            .collect();
                        match counts {
                            Ok(counts) if counts.iter().all(|&n| n >= 1) && !counts.is_empty() => {
                                sweep = Some(counts);
                            }
                            _ => {
                                eprintln!(
                                    "--threads-sweep needs a comma-separated list of integers >= 1"
                                );
                                return ExitCode::from(2);
                            }
                        }
                    }
                    "--grain" => match ParallelGrain::from_name(value) {
                        Some(g) => grain = g,
                        None => {
                            eprintln!("--grain needs one of: auto, image, tile");
                            return ExitCode::from(2);
                        }
                    },
                    _ => match value.parse::<f64>() {
                        Ok(t) if (0.0..1.0).contains(&t) => tolerance = t,
                        _ => {
                            eprintln!("--tolerance needs a fraction in [0, 1)");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if let Some(n) = threads {
        if rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .is_err()
        {
            eprintln!("failed to configure a {n}-thread worker pool");
            return ExitCode::FAILURE;
        }
    }

    let mut report = match run_suite(smoke) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.host_threads_configured = threads.unwrap_or(0);
    if let Some(counts) = &sweep {
        report.threads = match thread_scaling(smoke, counts, grain) {
            Ok(scaling) => Some(scaling),
            Err(e) => {
                eprintln!("thread-scaling sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    print_report(&report);

    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("failed to serialise report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    let baseline: Option<Baseline> = match &check {
        Some(baseline_path) => {
            match std::fs::read_to_string(baseline_path)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
            {
                Ok(baseline) => Some(baseline),
                Err(e) => {
                    eprintln!("failed to read baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    if let Some(path) = &md_summary {
        if let Err(e) = std::fs::write(path, markdown_summary(&report, baseline.as_ref())) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(path) = &trace {
        let tel = Telemetry::enabled();
        if let Err(e) = traced_run(smoke, &tel) {
            eprintln!("traced run failed: {e}");
            return ExitCode::FAILURE;
        }
        let json = tel.chrome_trace_json();
        let stats = match validate_chrome_trace(&json) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("exported trace is not valid Chrome trace JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n-- span tree (one batched inference per backend) --");
        print!("{}", tel.text_tree());
        println!(
            "wrote {path} ({} event(s), {} span pair(s), {} track(s))",
            stats.events, stats.pairs, stats.tracks
        );
    }

    if overhead_check {
        let overhead = match telemetry_overhead(smoke) {
            Ok(overhead) => overhead,
            Err(e) => {
                eprintln!("overhead measurement failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "telemetry overhead: disabled {:.3} ms, enabled {:.3} ms, {:+.2}% (budget {:.0}%)",
            overhead.disabled_s * 1e3,
            overhead.enabled_s * 1e3,
            overhead.overhead_frac * 100.0,
            overhead_budget * 100.0
        );
        if overhead.overhead_frac > overhead_budget {
            eprintln!(
                "telemetry overhead gate FAILED: {:.2}% exceeds the {:.0}% budget",
                overhead.overhead_frac * 100.0,
                overhead_budget * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("telemetry overhead gate passed");
    }

    if let (Some(baseline_path), Some(baseline)) = (&check, &baseline) {
        let mut failures = check_against_baseline(&report, baseline, tolerance);
        let (scaling_failures, skipped) = check_scaling_against_baseline(&report, baseline);
        failures.extend(scaling_failures);
        for note in &skipped {
            println!("scaling gate skipped: {note}");
        }
        if failures.is_empty() {
            println!(
                "bench gate passed against {baseline_path} ({}% tolerance)",
                tolerance * 100.0
            );
        } else {
            eprintln!("bench gate FAILED against {baseline_path}:");
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
