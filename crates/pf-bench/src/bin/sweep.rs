//! `cargo run -p pf-bench --bin sweep` — the declarative design-space
//! sweep driver.
//!
//! Loads a scenario file, expands its `[sweep]` section into the full
//! cartesian grid (see `docs/SCENARIOS.md`), executes every point
//! through the `photofourier::SweepRunner` (points fan out across the
//! rayon pool; reports are bit-for-bit identical at every pool width),
//! prints a summary table and writes the `SweepReport` as both JSON and
//! CSV.
//!
//! Flags:
//!
//! * `--scenario PATH`  scenario file (`.toml` or `.json`) — required
//! * `--out PATH`       JSON report path (default `SWEEP_report.json`);
//!   the CSV is written next to it with a `.csv` extension
//! * `--smoke`          small functional probes (the CI configuration)
//! * `--filter SUBSTR`  run only points whose id contains the substring

use std::path::PathBuf;
use std::process::ExitCode;

use pf_bench::Table;
use photofourier::prelude::*;

fn usage() {
    eprintln!("usage: sweep --scenario PATH [--out PATH] [--smoke] [--filter SUBSTR]");
}

fn print_report(report: &SweepReport) {
    println!(
        "\n== sweep `{}` ({} mode, {} point(s)) ==\n",
        report.base,
        report.mode,
        report.points.len()
    );
    let mut table = Table::new(vec![
        "point",
        "backend",
        "network",
        "pfcu",
        "td",
        "fps",
        "fps/W",
        "conv2d err",
        "infer err",
    ]);
    for p in &report.points {
        table.row(vec![
            p.id.clone(),
            p.backend.clone(),
            p.network.clone(),
            p.num_pfcus.to_string(),
            p.temporal_depth.to_string(),
            format!("{:.1}", p.fps),
            format!("{:.1}", p.fps_per_watt),
            format!("{:.2e}", p.conv2d_max_abs_err),
            format!("{:.2e}", p.inference_mean_abs_err),
        ]);
    }
    println!("{}", table.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut out = "SWEEP_report.json".to_string();
    let mut smoke = false;
    let mut filter: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--full" => smoke = false,
            "--scenario" | "--out" | "--filter" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("{flag} needs a value");
                    usage();
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--scenario" => scenario_path = Some(value.clone()),
                    "--out" => out = value.clone(),
                    _ => filter = Some(value.clone()),
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

    let Some(scenario_path) = scenario_path else {
        eprintln!("--scenario is required");
        usage();
        return ExitCode::from(2);
    };
    let scenario = match Scenario::from_path(&scenario_path) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("failed to load {scenario_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut runner = match SweepRunner::new(scenario) {
        Ok(runner) => runner,
        Err(e) => {
            eprintln!("failed to expand sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total = runner.plan().points().len();
    if let Some(pattern) = &filter {
        runner = runner.filter(pattern);
        println!(
            "filter `{pattern}` matched {} of {total} point(s)",
            runner.plan().points().len()
        );
    } else {
        println!("expanded {total} point(s)");
    }
    runner = runner.smoke(smoke);

    let start = std::time::Instant::now();
    let report = match runner.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();
    print_report(&report);
    println!(
        "ran {} point(s) in {:.2}s on {} thread(s)",
        report.points.len(),
        elapsed.as_secs_f64(),
        rayon::current_num_threads()
    );

    let json = match report.to_json() {
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
    let csv_path = PathBuf::from(&out).with_extension("csv");
    if let Err(e) = std::fs::write(&csv_path, report.to_csv()) {
        eprintln!("failed to write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {out} and {}", csv_path.display());
    ExitCode::SUCCESS
}
