//! The repo benchmark's command line.
//!
//! ```text
//! pf-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! pf-benchmark --all    [--seed N] [--seconds S]
//! pf-benchmark --repeat N [--seed N] [--seconds S]
//! ```
//!
//! The first form runs one workload in this process (one process per
//! workload, so `peak_rss_mb` is the workload's own) and ends with one
//! JSON object on the last line of standard output. `--all` runs every
//! workload untraced and then traced, each in a child process, prints
//! every metric by name and writes `benchmark/out/results.json`.
//! `--repeat N` runs the untraced set N times in alternating order and
//! compares the spread of every end-to-end metric with its bound.

use std::process::{Command, ExitCode, Stdio};

use pf_benchmark::offline::{self, Op};
use pf_benchmark::report::{relative_diff, Outcome};
use pf_benchmark::spec::{self, MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use pf_benchmark::stats::relative_range;
use pf_benchmark::{host, ladder, route};
use serde::Value;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Simulated metrics must match the recorded baseline to this relative
/// difference (they are exact; the slack is for libm's last bit).
const SIM_TOLERANCE: f64 = 1e-9;

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--all" => cli.all = true,
            "--workload" => cli.workload = Some(value("a workload name")?.to_string()),
            "--repeat" => {
                let n = value("a count")?;
                cli.repeat = Some(n.parse().map_err(|e| format!("--repeat {n}: {e}"))?);
            }
            "--seed" => {
                let n = value("a number")?;
                cli.seed = n.parse().map_err(|e| format!("--seed {n}: {e}"))?;
            }
            "--seconds" => {
                let n = value("a number")?;
                cli.seconds = n.parse().map_err(|e| format!("--seconds {n}: {e}"))?;
                // Below a second a phase may not hold a single round.
                if !(1.0..=600.0).contains(&cli.seconds) {
                    return Err(format!("--seconds {n}: must be in [1, 600]"));
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (cli.all, &cli.workload, cli.repeat) {
        (true, None, None) | (false, Some(_), None) => Ok(cli),
        (false, None, Some(n)) if n >= 2 => Ok(cli),
        (false, None, Some(_)) => Err("--repeat needs at least 2 runs to compare".to_string()),
        _ => Err("give exactly one of --workload NAME, --all, --repeat N".to_string()),
    }
}

fn operation(workload: &str) -> Op {
    match workload {
        "conv_fresh" => Op::ConvMulti,
        route::NAME => Op::Single,
        _ => Op::Batch,
    }
}

/// A simulator-only change must leave the simulated numbers where the
/// recorded result set (`benchmark/baseline.json`) has them; a baseline
/// that is missing, unreadable or silent on a metric fails the run too.
fn check_simulated(outcome: &mut Outcome) {
    let path = offline::bench_dir().join("baseline.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::parse_value(&text).map_err(|e| e.to_string()));
    let baseline = match baseline {
        Ok(baseline) => baseline,
        Err(problem) => {
            outcome.require(false, format!("{}: {problem}", path.display()));
            return;
        }
    };
    for name in ["sim_fps", "sim_fps_per_w", "sim_edp_js"] {
        let recorded = baseline
            .get("workloads")
            .and_then(|w| w.get(outcome.workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|m| m.get(name))
            .and_then(Value::as_f64);
        let now = outcome.get(name);
        let same = matches!(
            (recorded, now),
            (Some(recorded), Some(now)) if relative_diff(recorded, now) <= SIM_TOLERANCE
        );
        outcome.require(
            same,
            format!("{name} is {now:?}, the recorded baseline has {recorded:?}"),
        );
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(name: &'static str, cli: &Cli) -> ExitCode {
    let op = operation(name);
    let result = if cli.trace {
        // The offline ladder owns the calling thread's pool; the router's
        // replica workers are pinned through the global width instead.
        width_one(|| ladder::run_traced(name, op, cli.seed, cli.seconds))
    } else if name == route::NAME {
        route::run_untraced(cli.seed, cli.seconds)
    } else {
        width_one(|| offline::run_untraced(name, op, cli.seed, cli.seconds))
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pf-benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    let table: &[MetricSpec] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(problem) = outcome.check_against(table) {
        eprintln!("pf-benchmark: {name}: {problem}");
        return ExitCode::from(2);
    }
    if !cli.trace {
        check_simulated(&mut outcome);
    }
    print!("{}", outcome.text(table));
    println!(
        "{}",
        serde_json::to_string(&outcome.json(table)).expect("every metric was checked to be finite")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `f` inside a scoped one-thread rayon pool.
fn width_one<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored rayon never refuses a width")
        .install(f)
}

/// One child run: whether it exited with 0 (which it does only when its
/// outputs were correct) and the JSON object on its last line.
struct Child {
    ok: bool,
    result: Option<Value>,
}

/// Runs one workload in a child process (waiting for it to exit), echoes
/// its report and parses the JSON on its last line.
fn spawn(workload: &str, cli: &Cli, trace: bool, echo: bool) -> Child {
    let exe = std::env::current_exe().expect("the running program has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let Ok(output) = output else {
        eprintln!("pf-benchmark: could not start the {workload} run");
        return Child {
            ok: false,
            result: None,
        };
    };
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, last) = match text.trim_end().rsplit_once('\n') {
        Some((report, last)) => (report, last),
        None => ("", text.trim_end()),
    };
    if echo {
        println!("{report}");
    }
    Child {
        ok: output.status.success(),
        result: serde_json::parse_value(last).ok(),
    }
}

fn metric_values(result: &Value) -> Vec<(String, Value)> {
    match result.get("metrics") {
        Some(Value::Map(entries)) => entries
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.clone())))
            .collect(),
        _ => Vec::new(),
    }
}

fn host_block() -> Value {
    let calibration = host::calibrate();
    let text = |s: String| Value::Str(s);
    Value::Map(vec![
        ("nproc".to_string(), Value::UInt(host::nproc() as u64)),
        ("cpu_model".to_string(), text(host::cpu_model())),
        (
            "rustc".to_string(),
            text(host::command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".to_string(),
            text(host::command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "pool_widths".to_string(),
            Value::Map(vec![
                ("offline_scoped".to_string(), Value::UInt(1)),
                ("route_closed_global".to_string(), Value::UInt(1)),
                ("route_closed_replica_workers".to_string(), Value::UInt(2)),
            ]),
        ),
        (
            "calib_ms".to_string(),
            Value::Map(vec![
                ("fma".to_string(), Value::Float(calibration.fma_ms)),
                ("triad".to_string(), Value::Float(calibration.triad_ms)),
            ]),
        ),
    ])
}

/// `--all`: every workload untraced, then traced; one results file.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut workloads = Vec::new();
    let host = host_block();
    for workload in &WORKLOADS {
        let mut entry = Vec::new();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let child = spawn(workload.name, cli, trace, true);
            ok &= child.ok;
            let Some(result) = child.result else {
                ok = false;
                continue;
            };
            if !trace {
                for field in ["correct", "attempted", "failed"] {
                    if let Some(v) = result.get(field) {
                        entry.push((field.to_string(), v.clone()));
                    }
                }
            }
            entry.push((key.to_string(), Value::Map(metric_values(&result))));
        }
        workloads.push((workload.name.to_string(), Value::Map(entry)));
    }
    let results = Value::Map(vec![
        (
            "schema".to_string(),
            Value::Str("pf-benchmark/results-v1".to_string()),
        ),
        ("seed".to_string(), Value::UInt(cli.seed)),
        ("seconds".to_string(), Value::Float(cli.seconds)),
        ("host".to_string(), host),
        ("workloads".to_string(), Value::Map(workloads)),
    ]);
    let dir = offline::bench_dir().join("out");
    let path = dir.join("results.json");
    let written = serde_json::to_string_pretty(&results)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, text + "\n"))
                .map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => {
            eprintln!("pf-benchmark: writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("pf-benchmark: at least one workload failed, mismatched or drifted");
        ExitCode::from(1)
    }
}

/// `--repeat N`: the untraced set N times, workload order alternating,
/// then every end-to-end metric's spread against its bound.
fn run_repeat(cli: &Cli, runs: usize) -> ExitCode {
    let mut ok = true;
    // values[workload][metric] = one value per run.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for run in 0..runs {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if run % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let child = spawn(WORKLOADS[w].name, cli, false, false);
            if !child.ok {
                eprintln!("pf-benchmark: run {run} of {} failed", WORKLOADS[w].name);
                ok = false;
            }
            let measured = child.result.map(|r| metric_values(&r)).unwrap_or_default();
            for (m, metric) in END_TO_END.iter().enumerate() {
                if let Some((_, v)) = measured.iter().find(|(n, _)| n == metric.name) {
                    values[w][m].extend(v.as_f64());
                }
            }
        }
    }
    println!(
        "# workload metric spread bound verdict   (spread = (max - min) / min over {runs} runs)"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let spread = relative_range(&values[w][m]);
            let within = values[w][m].len() == runs && spread <= bound;
            ok &= within;
            println!(
                "{} {} {spread:.6} {bound} {}",
                workload.name,
                metric.name,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            eprintln!("pf-benchmark: {problem}");
            eprintln!(
                "usage: pf-benchmark (--workload NAME --trace 0|1 | --all | --repeat N) \
                 [--seed N] [--seconds S]"
            );
            return ExitCode::from(2);
        }
    };
    if cli.all {
        return run_all(&cli);
    }
    if let Some(runs) = cli.repeat {
        return run_repeat(&cli, runs);
    }
    let requested = cli.workload.as_deref().unwrap_or_default();
    match spec::workload_index(requested) {
        Some(index) => run_one(WORKLOADS[index].name, &cli),
        None => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("pf-benchmark: unknown workload {requested} (known: {known:?})");
            ExitCode::from(2)
        }
    }
}
