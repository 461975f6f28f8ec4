//! `cargo run -p pf-bench --bin perf` — the thread-sweep report and the
//! telemetry-overhead gate.
//!
//! How fast the engines are, and where the time goes, is measured by the
//! repo benchmark (`BENCHMARK.json`, `benchmark/README.md`); this binary
//! takes the two host-side measurements the benchmark does not. See the
//! README's "Measuring performance" section and `docs/PERFORMANCE.md`
//! ("Reading the scaling curves").
//!
//! A run needs at least one mode flag (`--threads-sweep`,
//! `--overhead-check`, `--trace`); the first two each write one report and
//! exclude each other. Exit codes: **0** pass, **1** a measurement failed,
//! the overhead gate was breached or a file could not be written, **2**
//! bad command line.
//!
//! Flags:
//!
//! * `--smoke`          small shapes / few reps (the CI bench-smoke job);
//!   the default is the full shapes
//! * `--threads-sweep 1,2,4`  measure the thread-scaling curves: each
//!   listed pool width (and always 1) is installed as a scoped pool, every
//!   curve is re-timed under it, and the report (schema
//!   `pf-bench/thread-sweep-v2`) is written; a report, not a gate
//! * `--overhead-check` time the inference workload with telemetry enabled
//!   against the disabled path (interleaved pairs), write the report
//!   (schema `pf-bench/telemetry-overhead-v2`: the pair count, both sides'
//!   medians, the median pair ratio, the budget and the verdict) and fail
//!   if the overhead exceeds the 3% budget
//! * `--out PATH`       where the mode's report goes (default
//!   `BENCH_scaling.json` / `BENCH_overhead.json`)
//! * `--trace PATH`     run one batched inference per backend under a live
//!   telemetry handle and export the span trees (bench → run_batch →
//!   per-stage children) as validated Chrome trace-event JSON, printing
//!   the flamegraph-style text tree alongside

use std::process::ExitCode;

use pf_bench::perf::{telemetry_overhead, thread_scaling, traced_run, PerfReport};
use photofourier::telemetry::validate_chrome_trace;
use photofourier::Telemetry;

const USAGE: &str = "usage: perf [--smoke] [--threads-sweep N,N,... | --overhead-check] \
    [--out PATH] [--trace PATH]   (at least one of --threads-sweep, --overhead-check, --trace)";

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    out: Option<String>,
    sweep: Option<Vec<usize>>,
    trace: Option<String>,
    overhead_check: bool,
}

/// Parses the flags after the program name; the error is the one-line
/// message printed above the usage string.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--overhead-check" => parsed.overhead_check = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--trace" => parsed.trace = Some(value()?.clone()),
            "--threads-sweep" => {
                let widths: Result<Vec<usize>, _> =
                    value()?.split(',').map(|s| s.trim().parse()).collect();
                parsed.sweep = Some(
                    widths
                        .ok()
                        .filter(|widths| widths.iter().all(|&n| n >= 1))
                        .ok_or("--threads-sweep needs a comma-separated list of integers >= 1")?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (&parsed.sweep, parsed.overhead_check, &parsed.trace) {
        (Some(_), true, _) => Err("--threads-sweep and --overhead-check each write one \
                                   report; run them separately"
            .to_string()),
        (None, false, None) => {
            Err("nothing to do: pass --threads-sweep, --overhead-check or --trace".to_string())
        }
        (None, false, Some(_)) if parsed.out.is_some() => {
            Err("--out needs --threads-sweep or --overhead-check".to_string())
        }
        _ => Ok(parsed),
    }
}

fn print_sweep(report: &PerfReport) {
    println!(
        "== PhotoFourier thread sweep ({} mode, {} host thread(s), {} core(s), widths {:?}) ==",
        report.mode, report.host_threads, report.host_cores, report.threads.counts
    );
    println!(
        "{:<22} {:<16} {:>7} {:>12} {:>12} {:>11}",
        "scenario", "backend", "threads", "imgs/s", "speedup_vs_1", "efficiency"
    );
    for r in &report.threads.curve {
        println!(
            "{:<22} {:<16} {:>7} {:>12.2} {:>12.2} {:>11.2}",
            r.scenario, r.backend, r.threads, r.images_per_s, r.speedup_vs_1, r.efficiency
        );
    }
}

/// Serialises `report` to `path`; the error is ready to print.
fn write_json<T: serde::Serialize>(report: &T, path: &str) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| format!("failed to serialise report: {e}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("failed to write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs the parsed modes in order: sweep, trace, overhead gate.
fn run(args: &Args) -> Result<(), String> {
    if let Some(counts) = &args.sweep {
        let threads = thread_scaling(args.smoke, counts)
            .map_err(|e| format!("thread-scaling sweep failed: {e}"))?;
        let report = PerfReport::new(args.smoke, threads);
        print_sweep(&report);
        write_json(&report, args.out.as_deref().unwrap_or("BENCH_scaling.json"))?;
    }

    if let Some(path) = &args.trace {
        let tel = Telemetry::enabled();
        traced_run(args.smoke, &tel).map_err(|e| format!("traced run failed: {e}"))?;
        let json = tel.chrome_trace_json();
        let stats = validate_chrome_trace(&json)
            .map_err(|e| format!("exported trace is not valid Chrome trace JSON: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("-- span tree (one batched inference per backend) --");
        print!("{}", tel.text_tree());
        println!(
            "wrote {path} ({} event(s), {} span pair(s), {} track(s))",
            stats.events, stats.pairs, stats.tracks
        );
    }

    if args.overhead_check {
        let overhead = telemetry_overhead(args.smoke)
            .map_err(|e| format!("overhead measurement failed: {e}"))?;
        println!(
            "telemetry overhead ({}, {} pairs): median disabled {:.3} ms, enabled {:.3} ms, \
             median pair ratio {:+.2}% (budget {:.0}%)",
            overhead.mode,
            overhead.pairs,
            overhead.disabled_s * 1e3,
            overhead.enabled_s * 1e3,
            overhead.overhead_frac * 100.0,
            overhead.budget * 100.0
        );
        // Written before the verdict: a breach is what the report is for.
        write_json(
            &overhead,
            args.out.as_deref().unwrap_or("BENCH_overhead.json"),
        )?;
        if !overhead.passed {
            return Err(format!(
                "telemetry overhead gate FAILED: {:.2}% exceeds the {:.0}% budget",
                overhead.overhead_frac * 100.0,
                overhead.budget * 100.0
            ));
        }
        println!("telemetry overhead gate passed");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(pf_bench::exitcode::USAGE);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn the_ci_command_lines_parse() {
        assert_eq!(
            parse("--smoke --threads-sweep 1,2,4 --out BENCH_scaling.json"),
            Ok(Args {
                smoke: true,
                out: Some("BENCH_scaling.json".to_string()),
                sweep: Some(vec![1, 2, 4]),
                trace: None,
                overhead_check: false,
            })
        );
        assert_eq!(
            parse("--smoke --overhead-check --trace TRACE_perf.json --out BENCH_overhead.json"),
            Ok(Args {
                smoke: true,
                out: Some("BENCH_overhead.json".to_string()),
                sweep: None,
                trace: Some("TRACE_perf.json".to_string()),
                overhead_check: true,
            })
        );
        // A trace alone is a mode; full shapes are the default.
        let trace_only = parse("--trace t.json").unwrap();
        assert!(!trace_only.smoke && trace_only.trace.is_some());
    }

    #[test]
    fn unknown_and_removed_flags_are_usage_errors() {
        // The seven flags removed with the throughput suite (spelled
        // without their dashes so the retired names stay greppable as
        // absent), one removed earlier and one that never existed.
        for name in [
            "check",
            "tolerance",
            "md-summary",
            "full",
            "threads",
            "grain",
            "overhead-budget",
            "stages",
            "bogus",
        ] {
            let err = parse(&format!("--smoke --overhead-check --{name} 1")).unwrap_err();
            assert_eq!(err, format!("unknown flag --{name}"));
        }
    }

    #[test]
    fn a_run_with_no_mode_flag_is_a_usage_error() {
        for line in ["", "--smoke", "--smoke --out x.json"] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with("nothing to do"), "`{line}`: {err}");
        }
        // One report per run, and --out needs a report to name.
        assert!(parse("--threads-sweep 1,2 --overhead-check").is_err());
        assert!(parse("--trace t.json --out x.json")
            .unwrap_err()
            .starts_with("--out needs"));
    }

    #[test]
    fn threads_sweep_rejects_zero_empty_and_non_integers() {
        for value in ["0", "1,0", ",", "1,,2", "two", "1.5", "-1"] {
            let err = parse(&format!("--threads-sweep {value}")).unwrap_err();
            assert!(err.starts_with("--threads-sweep needs"), "`{value}`: {err}");
        }
        // An empty operand (`--threads-sweep ""`) is rejected the same way.
        let empty = ["--threads-sweep".to_string(), String::new()];
        assert!(parse_args(&empty)
            .unwrap_err()
            .starts_with("--threads-sweep needs"));
        assert_eq!(
            parse("--threads-sweep 4,2").unwrap().sweep,
            Some(vec![4, 2])
        );
    }

    #[test]
    fn a_flag_missing_its_value_is_reported_by_name() {
        for flag in ["--out", "--threads-sweep", "--trace"] {
            assert_eq!(
                parse(&format!("--smoke {flag}")).unwrap_err(),
                format!("{flag} needs a value")
            );
        }
    }
}
