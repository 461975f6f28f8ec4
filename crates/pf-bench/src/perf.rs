//! The throughput perf harness behind `cargo run -p pf-bench --bin perf`.
//!
//! Drives batched 2D convolution and batched (ResNet-18-shaped scenario)
//! inference through each backend via the [`photofourier::Session`] facade
//! and emits a machine-readable `BENCH_throughput.json` — the repo's
//! performance trajectory. Every record carries `speedup_vs_seed`: measured
//! throughput divided by the throughput of a **seed reference path** run on
//! the same host in the same process, so the number is comparable across
//! machines (and is what the CI bench gate checks).
//!
//! Seed reference paths:
//!
//! * **conv2d on the ideal JTC** — the [`seed`] module below, a frozen copy
//!   of the pre-engine hot path (per-call complex FFTs with incrementally
//!   computed twiddles, joint-plane assembly per tile, serial tiling). It
//!   is deliberately kept verbatim so future optimisation PRs measure
//!   against the same origin.
//! * **conv2d on the digital backend** — the same frozen serial tiling over
//!   the dot-product engine.
//! * **conv2d on the CG chain** — the frozen [`seed::SeedCg`] signal chain
//!   (seed optics plus unprepared per-call DAC/noise/ADC), serial tiling;
//!   the live path now caches prepared kernel spectra for noisy engines
//!   too, which is exactly what this seed measures against.
//! * **multi-kernel conv2d** — the frozen seed path run once per kernel;
//!   the live path tiles each input once and shares every tile's signal
//!   spectrum across the whole kernel set.
//! * **batched inference** — the same frozen engines ([`seed::SeedEngine`]
//!   is a [`pf_tiling::Conv1dEngine`] with no prepared path) under the
//!   live layer executor, one image at a time: the pre-engine execution
//!   structure (`docs/PERFORMANCE.md`, "Reading BENCH_throughput.json",
//!   records the one time this row's origin changed).
//!
//! Where the time of one correlation goes — by stage, on the real run — is
//! the repo benchmark's traced ladder (`--trace 1`, `pf-jtc.stage_*_share`),
//! not this harness.

pub mod seed;

use std::time::{Duration, Instant};

use pf_nn::models::small::SmallCnn;
use pf_nn::Tensor;
use photofourier::prelude::*;
use photofourier::PfError;
use serde::{Deserialize, Serialize};

/// Schema identifier written into the report.
///
/// `throughput-v2` extends v1 with the `threads` scaling-curve section and
/// the `host_threads_configured` / `host_cores` host metadata (see
/// [`ThreadScaling`] and [`PerfReport`]).
pub const SCHEMA: &str = "pf-bench/throughput-v2";

/// One measured scenario/backend combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Scenario name, e.g. `conv2d_batch` or `resnet18_batch_infer`.
    pub scenario: String,
    /// Backend registry name (`digital`, `jtc_ideal`, `photofourier_cg`).
    pub backend: String,
    /// Images per batch.
    pub batch: usize,
    /// Timing repetitions (the best repetition is reported).
    pub reps: usize,
    /// Measured engine throughput in images per second.
    pub images_per_s: f64,
    /// Mean microseconds per 1D convolution on the engine path.
    pub us_per_conv: f64,
    /// 1D convolutions needed per image.
    pub convs_per_image: usize,
    /// Throughput of the seed reference path in images per second.
    pub seed_images_per_s: f64,
    /// `images_per_s / seed_images_per_s` — the host-independent metric the
    /// CI bench gate tracks.
    pub speedup_vs_seed: f64,
}

/// One point of a thread-scaling curve: one scenario/backend pair measured
/// under a scoped rayon pool of `threads` workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScalingRecord {
    /// Scenario name, e.g. `conv2d_batch` or `resnet18_batch_infer`.
    pub scenario: String,
    /// Backend registry name.
    pub backend: String,
    /// Scoped pool width this point was measured under.
    pub threads: usize,
    /// The parallelism grain the batch actually ran at under this pool
    /// width (`auto` sessions resolve per point: `image` when the batch
    /// fills the pool, `tile` otherwise).
    pub grain: String,
    /// Measured engine throughput in images per second.
    pub images_per_s: f64,
    /// Throughput relative to the 1-thread point of the same curve — the
    /// cores-vs-throughput metric the scaling gate checks.
    pub speedup_vs_1: f64,
    /// `speedup_vs_1 / threads`: 1.0 is perfect linear scaling.
    pub efficiency: f64,
}

/// The `threads` section of a throughput-v2 report: scaling curves over a
/// set of scoped pool widths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScaling {
    /// Pool widths swept (always includes 1, the curve's reference point).
    pub counts: Vec<usize>,
    /// The session-level grain the sweep was requested with (`auto`,
    /// `image` or `tile`); per-point resolution is in each record.
    pub grain: String,
    /// One record per (scenario, backend, pool width).
    pub curve: Vec<ThreadScalingRecord>,
}

/// The full report serialised to `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Worker threads rayon-style dispatch actually uses for this run: the
    /// pool size configured through `--threads` /
    /// `rayon::ThreadPoolBuilder`, or the host's available core count.
    pub host_threads: usize,
    /// The pool size `--threads` *asked for*; `0` when no override was
    /// requested. Recording both sides makes a silently-ignored override
    /// visible: `host_threads` is what dispatch really used.
    pub host_threads_configured: usize,
    /// Physical cores available to the process
    /// (`std::thread::available_parallelism`). Pool widths beyond this are
    /// concurrency without parallelism — the scaling gate skips floors it
    /// cannot measure honestly (see [`check_scaling_against_baseline`]).
    pub host_cores: usize,
    /// Measured records.
    pub results: Vec<PerfRecord>,
    /// Thread-scaling curves; present when the harness ran with
    /// `--threads-sweep`.
    pub threads: Option<ThreadScaling>,
}

/// Expected floor for one scenario/backend pair, committed in
/// `benches/baseline.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Scenario name to match.
    pub scenario: String,
    /// Backend registry name to match.
    pub backend: String,
    /// Committed `speedup_vs_seed` floor for this combination.
    pub min_speedup_vs_seed: f64,
}

/// Committed parallel-efficiency floor for one point of a thread-scaling
/// curve: at `threads` workers, the scenario/backend pair must reach at
/// least `min_speedup_vs_1` over its own 1-thread throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingBaselineEntry {
    /// Scenario name to match.
    pub scenario: String,
    /// Backend registry name to match.
    pub backend: String,
    /// Pool width the floor applies at.
    pub threads: usize,
    /// Committed `speedup_vs_1` floor at that width.
    pub min_speedup_vs_1: f64,
}

/// The committed baseline file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Per-scenario floors.
    pub entries: Vec<BaselineEntry>,
    /// Thread-scaling floors, checked by
    /// [`check_scaling_against_baseline`] when the report carries a
    /// `threads` section. Optional so pre-v2 baseline files still load.
    pub scaling: Option<Vec<ScalingBaselineEntry>>,
}

/// Compares a report against the committed baseline.
///
/// A record regresses when its measured `speedup_vs_seed` falls more than
/// `tolerance` (e.g. `0.30` = 30%) below the committed floor; a baseline
/// entry with no matching record is also a failure. Returns human-readable
/// failure descriptions (empty = gate passes).
pub fn check_against_baseline(
    report: &PerfReport,
    baseline: &Baseline,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for entry in &baseline.entries {
        let Some(record) = report
            .results
            .iter()
            .find(|r| r.scenario == entry.scenario && r.backend == entry.backend)
        else {
            failures.push(format!(
                "baseline entry {}/{} has no measured record",
                entry.scenario, entry.backend
            ));
            continue;
        };
        let floor = entry.min_speedup_vs_seed * (1.0 - tolerance);
        if record.speedup_vs_seed < floor {
            failures.push(format!(
                "{}/{}: speedup_vs_seed {:.2} fell below {:.2} (committed {:.2} - {:.0}% tolerance)",
                entry.scenario,
                entry.backend,
                record.speedup_vs_seed,
                floor,
                entry.min_speedup_vs_seed,
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// Checks a report's thread-scaling curve against the baseline's `scaling`
/// floors. Returns `(failures, skipped)`:
///
/// * a floor whose pool width exceeds the report's `host_cores` is
///   **skipped**, not failed — a 1-core host can time a 4-wide pool but
///   cannot honestly measure parallel speedup on it, so the floor belongs
///   to a wider runner (CI's `scaling-smoke` job);
/// * a checkable floor with no matching curve record, and a record below
///   its floor, are **failures**.
///
/// Reports without a `threads` section (the sweep did not run) skip every
/// floor with a single note.
pub fn check_scaling_against_baseline(
    report: &PerfReport,
    baseline: &Baseline,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut skipped = Vec::new();
    let Some(floors) = &baseline.scaling else {
        return (failures, skipped);
    };
    let Some(threads) = &report.threads else {
        if !floors.is_empty() {
            skipped.push(format!(
                "report has no `threads` section — {} scaling floor(s) unchecked (run with --threads-sweep)",
                floors.len()
            ));
        }
        return (failures, skipped);
    };
    for entry in floors {
        if entry.threads > report.host_cores {
            skipped.push(format!(
                "{}/{} @ {}T: host has {} core(s) — floor needs a wider runner",
                entry.scenario, entry.backend, entry.threads, report.host_cores
            ));
            continue;
        }
        let Some(record) = threads.curve.iter().find(|r| {
            r.scenario == entry.scenario && r.backend == entry.backend && r.threads == entry.threads
        }) else {
            failures.push(format!(
                "scaling floor {}/{} @ {}T has no measured curve point",
                entry.scenario, entry.backend, entry.threads
            ));
            continue;
        };
        if record.speedup_vs_1 < entry.min_speedup_vs_1 {
            failures.push(format!(
                "{}/{} @ {}T: speedup_vs_1 {:.2} fell below committed floor {:.2}",
                entry.scenario,
                entry.backend,
                entry.threads,
                record.speedup_vs_1,
                entry.min_speedup_vs_1
            ));
        }
    }
    (failures, skipped)
}

/// Times `f` `reps` times and returns the best (minimum) duration — the
/// standard way to suppress scheduler noise on shared CI hosts.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// Runs `f` on the frozen seed engine standing in for `kind` (built outside
/// whatever `f` times).
fn with_seed_engine<R>(
    kind: BackendKind,
    capacity: usize,
    f: impl FnOnce(&seed::SeedEngine<'_>) -> R,
) -> R {
    let jtc = seed::SeedJtc::new(capacity);
    let cg = parking_lot::Mutex::new(seed::SeedCg::new(capacity));
    f(&match kind {
        BackendKind::Digital => seed::SeedEngine::Digital,
        BackendKind::JtcIdeal => seed::SeedEngine::Jtc(&jtc),
        BackendKind::PhotofourierCg => seed::SeedEngine::Cg(&cg),
    })
}

/// The 1D convolutions one operation of a scenario costs (`convs_per_image`):
/// `op` runs once, untimed, on a telemetry-enabled twin of the timed
/// session and the tiling layer's own `tiling.convs_1d` counter is read
/// back.
fn count_convs(
    scenario: Scenario,
    op: impl FnOnce(&Session) -> Result<(), PfError>,
) -> Result<usize, PfError> {
    let telemetry = Telemetry::with_span_capacity(0);
    let twin = Session::builder()
        .scenario(scenario)
        .telemetry(telemetry.clone())
        .build()?;
    op(&twin)?;
    Ok(telemetry.snapshot().counter("tiling.convs_1d") as usize)
}

fn backend_scenario(kind: BackendKind) -> Scenario {
    Scenario::new(
        format!("perf_{kind}"),
        "resnet18",
        BackendSpec {
            kind,
            capacity: 256,
        },
    )
}

fn conv2d_inputs(batch: usize, size: usize) -> Vec<Matrix> {
    (0..batch)
        .map(|b| {
            Matrix::new(
                size,
                size,
                (0..size * size)
                    .map(|i| ((i + 13 * b) as f64 * 0.17).sin() + 0.4)
                    .collect(),
            )
            .expect("well-formed perf input")
        })
        .collect()
}

fn conv2d_kernel() -> Matrix {
    Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).expect("3x3 kernel")
}

/// Runs the batched-conv2d scenario on one backend.
///
/// # Errors
///
/// Propagates session construction and convolution errors.
pub fn conv2d_scenario(
    kind: BackendKind,
    batch: usize,
    reps: usize,
    size: usize,
) -> Result<PerfRecord, PfError> {
    let session = Session::from_scenario(backend_scenario(kind))?;
    let inputs = conv2d_inputs(batch, size);
    let kernel = conv2d_kernel();

    // Engine path: prepared kernels + (on multicore hosts) parallel tiles
    // and images. Warm the prepared-kernel cache once so the timing
    // measures the steady state a batch pipeline runs in.
    let _ = session.conv2d(&inputs[0], &kernel)?;
    let convs_per_image = count_convs(backend_scenario(kind), |twin| {
        twin.conv2d(&inputs[0], &kernel).map(drop)
    })?;
    let engine_time = best_of(reps, || {
        session
            .conv2d_batch(&inputs, &kernel)
            .expect("perf conv2d batch");
    });

    // Seed path: the frozen optics (for CG wrapped in the frozen unprepared
    // DAC/noise/ADC chain) or dot product, serial tiling.
    let seed_time = with_seed_engine(kind, 256, |engine| {
        best_of(reps, || {
            for input in &inputs {
                let _ = seed::seed_conv2d_valid(engine, input, &kernel, 256);
            }
        })
    });

    let images_per_s = batch as f64 / engine_time.as_secs_f64().max(1e-12);
    let seed_images_per_s = batch as f64 / seed_time.as_secs_f64().max(1e-12);
    Ok(PerfRecord {
        scenario: "conv2d_batch".to_string(),
        backend: kind.name().to_string(),
        batch,
        reps,
        images_per_s,
        us_per_conv: engine_time.as_secs_f64() * 1e6 / (convs_per_image * batch).max(1) as f64,
        convs_per_image,
        seed_images_per_s,
        speedup_vs_seed: images_per_s / seed_images_per_s.max(1e-12),
    })
}

/// Runs the multi-kernel conv2d scenario on one backend: every image of
/// the batch is correlated against `n_kernels` distinct kernels through
/// [`Session::conv2d_multi`], which tiles each input once and shares each
/// tile's signal spectrum across the whole kernel set. The seed path runs
/// the frozen per-kernel seed convolution `n_kernels` times per image.
///
/// # Errors
///
/// Propagates session construction and convolution errors.
pub fn conv2d_multikernel_scenario(
    kind: BackendKind,
    batch: usize,
    reps: usize,
    size: usize,
    n_kernels: usize,
) -> Result<PerfRecord, PfError> {
    let session = Session::from_scenario(backend_scenario(kind))?;
    let inputs = conv2d_inputs(batch, size);
    let kernels: Vec<Matrix> = (0..n_kernels)
        .map(|k| {
            Matrix::new(
                3,
                3,
                (0..9)
                    .map(|i| ((i + 2 * k) as f64 - 4.0) / (9.0 + k as f64))
                    .collect(),
            )
            .expect("3x3 kernel")
        })
        .collect();

    // Warm the prepared-kernel cache, then time the steady state.
    let _ = session.conv2d_multi(&inputs[0], &kernels)?;
    let convs_per_image = count_convs(backend_scenario(kind), |twin| {
        twin.conv2d_multi(&inputs[0], &kernels).map(drop)
    })?;
    let engine_time = best_of(reps, || {
        for input in &inputs {
            let _ = session
                .conv2d_multi(input, &kernels)
                .expect("perf conv2d multi");
        }
    });

    // Seed path: the frozen per-kernel seed convolution, once per kernel.
    let seed_time = with_seed_engine(kind, 256, |engine| {
        best_of(reps, || {
            for input in &inputs {
                for kernel in &kernels {
                    let _ = seed::seed_conv2d_valid(engine, input, kernel, 256);
                }
            }
        })
    });

    let images_per_s = batch as f64 / engine_time.as_secs_f64().max(1e-12);
    let seed_images_per_s = batch as f64 / seed_time.as_secs_f64().max(1e-12);
    Ok(PerfRecord {
        scenario: "conv2d_multikernel".to_string(),
        backend: kind.name().to_string(),
        batch,
        reps,
        images_per_s,
        us_per_conv: engine_time.as_secs_f64() * 1e6 / (convs_per_image * batch).max(1) as f64,
        convs_per_image,
        seed_images_per_s,
        speedup_vs_seed: images_per_s / seed_images_per_s.max(1e-12),
    })
}

/// Runs the batched-inference scenario (the ResNet-18-shaped session
/// configuration: 256-waveguide backend, the scenario's feature-extractor
/// CNN) on one backend.
///
/// # Errors
///
/// Propagates session construction and inference errors.
pub fn inference_scenario(
    kind: BackendKind,
    batch: usize,
    reps: usize,
) -> Result<PerfRecord, PfError> {
    let scenario = backend_scenario(kind);
    let session = Session::from_scenario(scenario.clone())?;
    let images: Vec<Tensor> = (0..batch)
        .map(|i| {
            Tensor::random(
                vec![
                    scenario.functional.input_channels,
                    scenario.functional.input_size,
                    scenario.functional.input_size,
                ],
                0.0,
                1.0,
                1000 + i as u64,
            )
        })
        .collect();

    // Engine path: batched, prepared kernels shared across the batch.
    let _ = session.run_batch(&images[..1])?; // warm the prepared cache
    let engine_time = best_of(reps, || {
        session.run_batch(&images).expect("perf batch inference");
    });

    // Seed path: per-image serial execution on the frozen engines, which
    // have no prepared fast path.
    let cnn = SmallCnn::new(
        scenario.functional.input_channels,
        scenario.functional.input_size,
        scenario.functional.weight_seed,
    )?;
    let capacity = scenario.backend.capacity;
    let seed_time = with_seed_engine(kind, capacity, |engine| {
        let seed_exec = pf_nn::executor::TiledExecutor::new(engine, capacity, scenario.pipeline)?;
        Ok::<_, PfError>(best_of(reps, || {
            for image in &images {
                let _ = cnn
                    .features(image, &seed_exec)
                    .expect("perf seed inference");
            }
        }))
    })?;

    let convs_per_image = count_convs(scenario, |twin| twin.run_inference(&images[0]).map(drop))?;

    let images_per_s = batch as f64 / engine_time.as_secs_f64().max(1e-12);
    let seed_images_per_s = batch as f64 / seed_time.as_secs_f64().max(1e-12);
    Ok(PerfRecord {
        scenario: "resnet18_batch_infer".to_string(),
        backend: kind.name().to_string(),
        batch,
        reps,
        images_per_s,
        us_per_conv: engine_time.as_secs_f64() * 1e6 / (convs_per_image * batch).max(1) as f64,
        convs_per_image,
        seed_images_per_s,
        speedup_vs_seed: images_per_s / seed_images_per_s.max(1e-12),
    })
}

/// Physical cores available to the process (1 if the host will not say).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builds a scoped rayon pool of exactly `threads` workers (see the
/// vendored `rayon::ThreadPool`: `install` overrides the advertised pool
/// width for the closure's dispatch decisions).
fn scoped_pool(threads: usize) -> Result<rayon::ThreadPool, PfError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| PfError::invalid_scenario(format!("scoped thread pool: {e}")))
}

/// Normalises a requested sweep into the measured pool widths: positive,
/// sorted, deduplicated, and always containing 1 — the curve's reference
/// point, without which `speedup_vs_1` has no denominator.
fn sweep_widths(counts: &[usize]) -> Vec<usize> {
    let mut widths: Vec<usize> = counts.iter().copied().filter(|&n| n > 0).collect();
    widths.push(1);
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// Measures the thread-scaling curves: every smoke scenario/backend pair is
/// timed under a scoped rayon pool at each requested width, and each
/// curve's throughput is normalised to its own 1-thread point.
///
/// One session per scenario is built up front (prepared-kernel caches warm
/// once and are shared across the whole curve), so the only thing that
/// varies between points is the advertised pool width — which is exactly
/// what the parallel dispatch heuristics key on. The per-point `grain`
/// field records how the session actually resolved its [`ParallelGrain`]
/// under that width (stochastic conv2d batches pin to `serial`: determinism
/// forbids parallel dispatch there regardless of grain).
///
/// On a host with fewer cores than a requested width the point is still
/// measured — the scoped pool advertises the width and dispatch follows it
/// — but the speedup cannot exceed ~1.0; [`check_scaling_against_baseline`]
/// core-gates its floors for exactly this reason.
///
/// # Errors
///
/// Propagates session construction and execution errors.
pub fn thread_scaling(
    smoke: bool,
    counts: &[usize],
    grain: ParallelGrain,
) -> Result<ThreadScaling, PfError> {
    let (conv_batch, conv_reps) = if smoke { (8, 3) } else { (32, 5) };
    let (infer_batch, infer_reps) = if smoke { (4, 2) } else { (16, 3) };
    let widths = sweep_widths(counts);
    let mut curve = Vec::new();

    // conv2d_batch on every backend.
    for kind in [
        BackendKind::Digital,
        BackendKind::JtcIdeal,
        BackendKind::PhotofourierCg,
    ] {
        let session = Session::with_grain(backend_scenario(kind), grain)?;
        let inputs = conv2d_inputs(conv_batch, 32);
        let kernel = conv2d_kernel();
        let _ = session.conv2d(&inputs[0], &kernel)?; // warm the prepared cache
        let mut base = 0.0;
        for &threads in &widths {
            let pool = scoped_pool(threads)?;
            let elapsed = pool.install(|| {
                best_of(conv_reps, || {
                    session
                        .conv2d_batch(&inputs, &kernel)
                        .expect("scaling conv2d batch");
                })
            });
            let point_grain = if session.is_stochastic() {
                "serial".to_string()
            } else {
                pool.install(|| session.effective_grain(conv_batch))
                    .name()
                    .to_string()
            };
            let images_per_s = conv_batch as f64 / elapsed.as_secs_f64().max(1e-12);
            if threads == 1 {
                base = images_per_s;
            }
            let speedup_vs_1 = images_per_s / base.max(1e-12);
            curve.push(ThreadScalingRecord {
                scenario: "conv2d_batch".to_string(),
                backend: kind.name().to_string(),
                threads,
                grain: point_grain,
                images_per_s,
                speedup_vs_1,
                efficiency: speedup_vs_1 / threads as f64,
            });
        }
    }

    // Batched inference on the ideal JTC (the serving-tier hot path).
    {
        let scenario = backend_scenario(BackendKind::JtcIdeal);
        let session = Session::with_grain(scenario.clone(), grain)?;
        let images: Vec<Tensor> = (0..infer_batch)
            .map(|i| {
                Tensor::random(
                    vec![
                        scenario.functional.input_channels,
                        scenario.functional.input_size,
                        scenario.functional.input_size,
                    ],
                    0.0,
                    1.0,
                    1000 + i as u64,
                )
            })
            .collect();
        let _ = session.run_batch(&images[..1])?; // warm the prepared cache
        let mut base = 0.0;
        for &threads in &widths {
            let pool = scoped_pool(threads)?;
            let elapsed = pool.install(|| {
                best_of(infer_reps, || {
                    session.run_batch(&images).expect("scaling batch inference");
                })
            });
            let point_grain = pool
                .install(|| session.effective_grain(infer_batch))
                .name()
                .to_string();
            let images_per_s = infer_batch as f64 / elapsed.as_secs_f64().max(1e-12);
            if threads == 1 {
                base = images_per_s;
            }
            let speedup_vs_1 = images_per_s / base.max(1e-12);
            curve.push(ThreadScalingRecord {
                scenario: "resnet18_batch_infer".to_string(),
                backend: BackendKind::JtcIdeal.name().to_string(),
                threads,
                grain: point_grain,
                images_per_s,
                speedup_vs_1,
                efficiency: speedup_vs_1 / threads as f64,
            });
        }
    }

    Ok(ThreadScaling {
        counts: widths,
        grain: grain.name().to_string(),
        curve,
    })
}

/// Renders the report as a GitHub-flavoured markdown summary (the
/// `$GITHUB_STEP_SUMMARY` payload of the CI bench jobs): the throughput
/// table with committed-floor deltas, and the thread-scaling curves when
/// the sweep ran.
pub fn markdown_summary(report: &PerfReport, baseline: Option<&Baseline>) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## pf-bench throughput ({} mode, schema `{}`)\n",
        report.mode, report.schema
    );
    let _ = writeln!(
        out,
        "Host: {} core(s); dispatch pool {} thread(s){}.\n",
        report.host_cores,
        report.host_threads,
        if report.host_threads_configured > 0 {
            format!(" (configured {})", report.host_threads_configured)
        } else {
            String::new()
        }
    );

    let _ = writeln!(
        out,
        "| scenario | backend | batch | images/s | speedup vs seed | committed floor | delta |"
    );
    let _ = writeln!(out, "|---|---|--:|--:|--:|--:|--:|");
    for record in &report.results {
        let floor = baseline.and_then(|b| {
            b.entries
                .iter()
                .find(|e| e.scenario == record.scenario && e.backend == record.backend)
                .map(|e| e.min_speedup_vs_seed)
        });
        let (floor_cell, delta_cell) = match floor {
            Some(floor) => (
                format!("{floor:.2}"),
                format!("{:+.2}", record.speedup_vs_seed - floor),
            ),
            None => ("—".to_string(), "—".to_string()),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1} | {:.2} | {} | {} |",
            record.scenario,
            record.backend,
            record.batch,
            record.images_per_s,
            record.speedup_vs_seed,
            floor_cell,
            delta_cell
        );
    }

    if let Some(threads) = &report.threads {
        let _ = writeln!(
            out,
            "\n### Thread scaling (requested grain: `{}`)\n",
            threads.grain
        );
        let _ = writeln!(
            out,
            "| scenario | backend | threads | grain | images/s | speedup vs 1T | efficiency |"
        );
        let _ = writeln!(out, "|---|---|--:|---|--:|--:|--:|");
        for record in &threads.curve {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.1} | {:.2} | {:.2} |",
                record.scenario,
                record.backend,
                record.threads,
                record.grain,
                record.images_per_s,
                record.speedup_vs_1,
                record.efficiency
            );
        }
        if let Some(baseline) = baseline {
            let (failures, skipped) = check_scaling_against_baseline(report, baseline);
            for note in &skipped {
                let _ = writeln!(out, "\n> skipped: {note}");
            }
            for failure in &failures {
                let _ = writeln!(out, "\n> **FAIL**: {failure}");
            }
        }
    }
    out
}

/// Runs the full scenario matrix for one mode.
///
/// # Errors
///
/// Propagates the first scenario error.
pub fn run_suite(smoke: bool) -> Result<PerfReport, PfError> {
    let mode = if smoke { "smoke" } else { "full" };
    let (conv_batch, conv_reps) = if smoke { (8, 3) } else { (32, 5) };
    let (infer_batch, infer_reps) = if smoke { (4, 2) } else { (16, 3) };
    let multi_kernels = 8;

    let results = vec![
        conv2d_scenario(BackendKind::Digital, conv_batch, conv_reps, 32)?,
        conv2d_scenario(BackendKind::JtcIdeal, conv_batch, conv_reps, 32)?,
        conv2d_scenario(BackendKind::PhotofourierCg, conv_batch, conv_reps, 32)?,
        conv2d_multikernel_scenario(
            BackendKind::JtcIdeal,
            conv_batch,
            conv_reps,
            32,
            multi_kernels,
        )?,
        inference_scenario(BackendKind::JtcIdeal, infer_batch, infer_reps)?,
        inference_scenario(BackendKind::Digital, infer_batch, infer_reps)?,
        inference_scenario(BackendKind::PhotofourierCg, infer_batch, infer_reps)?,
    ];

    Ok(PerfReport {
        schema: SCHEMA.to_string(),
        mode: mode.to_string(),
        // The pool size parallel dispatch really uses — honours a
        // `ThreadPoolBuilder` override instead of assuming one worker per
        // available core.
        host_threads: rayon::current_num_threads(),
        // The bin patches in the `--threads` request (0 = no override) and
        // the `--threads-sweep` curves after the suite runs.
        host_threads_configured: 0,
        host_cores: host_cores(),
        results,
        threads: None,
    })
}

/// The CI telemetry-overhead budget: an enabled handle may cost at most
/// this fraction of wall time over the disabled path on the smoke
/// inference workload (`perf --overhead-check` gates on it).
pub const OVERHEAD_BUDGET: f64 = 0.03;

/// Result of the telemetry-overhead measurement ([`telemetry_overhead`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Best-of wall time of one batched inference, telemetry disabled.
    pub disabled_s: f64,
    /// Best-of wall time of the same batch under an enabled handle
    /// (metrics + stage counters + span ring all live).
    pub enabled_s: f64,
    /// `enabled_s / disabled_s - 1` (negative = within noise).
    pub overhead_frac: f64,
}

/// Measures the wall-time cost of running the batched JTC-ideal inference
/// workload under an *enabled* telemetry handle versus a disabled one —
/// the staged correlation path is where the per-conv stage counters live,
/// so this is the worst-case hot-loop overhead. The two sessions share the
/// process and the measurement interleaves their repetitions (disabled,
/// enabled, disabled, ...), taking best-of on each side, so frequency
/// drift and cache state hit both paths alike.
///
/// # Errors
///
/// Propagates session construction and inference errors.
pub fn telemetry_overhead(smoke: bool) -> Result<OverheadReport, PfError> {
    let (batch, reps) = if smoke { (4, 24) } else { (8, 48) };
    let scenario = backend_scenario(BackendKind::JtcIdeal);
    let plain = Session::from_scenario(scenario.clone())?;
    let traced = Session::builder()
        .scenario(scenario.clone())
        .telemetry(Telemetry::enabled())
        .build()?;
    let images: Vec<Tensor> = (0..batch)
        .map(|i| {
            Tensor::random(
                vec![
                    scenario.functional.input_channels,
                    scenario.functional.input_size,
                    scenario.functional.input_size,
                ],
                0.0,
                1.0,
                2000 + i as u64,
            )
        })
        .collect();
    // Warm both prepared-kernel caches outside the timed region.
    let _ = plain.run_batch(&images[..1])?;
    let _ = traced.run_batch(&images[..1])?;

    let mut disabled_s = f64::INFINITY;
    let mut enabled_s = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        plain.run_batch(&images)?;
        disabled_s = disabled_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        traced.run_batch(&images)?;
        enabled_s = enabled_s.min(start.elapsed().as_secs_f64());
    }
    Ok(OverheadReport {
        disabled_s,
        enabled_s,
        overhead_frac: enabled_s / disabled_s.max(1e-12) - 1.0,
    })
}

/// Runs one batched inference per backend under `tel`, each wrapped in a
/// `bench` root span with a `run_batch` child whose interval is attributed
/// across the four JTC stages from the registry's stage-counter deltas
/// (see [`photofourier::serve::staged_span`]) — the workload behind
/// `perf --trace`.
///
/// # Errors
///
/// Propagates session construction and inference errors.
pub fn traced_run(smoke: bool, tel: &Telemetry) -> Result<(), PfError> {
    let batch = if smoke { 4 } else { 8 };
    for kind in BackendKind::ALL {
        let scenario = backend_scenario(kind);
        let session = Session::builder()
            .scenario(scenario.clone())
            .telemetry(tel.clone())
            .build()?;
        let images: Vec<Tensor> = (0..batch)
            .map(|i| {
                Tensor::random(
                    vec![
                        scenario.functional.input_channels,
                        scenario.functional.input_size,
                        scenario.functional.input_size,
                    ],
                    0.0,
                    1.0,
                    3000 + i as u64,
                )
            })
            .collect();
        let _ = session.run_batch(&images[..1])?; // warm outside the spans
        let root = tel.span(kind.name(), "bench");
        photofourier::serve::staged_span(tel, "run_batch", root.id(), || {
            session.run_batch(&images)
        })?;
    }
    photofourier::mirror_scratch_gauges(tel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_report(host_cores: usize, threads: Option<ThreadScaling>) -> PerfReport {
        PerfReport {
            schema: SCHEMA.to_string(),
            mode: "smoke".to_string(),
            host_threads: host_cores,
            host_threads_configured: 0,
            host_cores,
            results: vec![PerfRecord {
                scenario: "conv2d_batch".to_string(),
                backend: "jtc_ideal".to_string(),
                batch: 8,
                reps: 3,
                images_per_s: 100.0,
                us_per_conv: 10.0,
                convs_per_image: 64,
                seed_images_per_s: 40.0,
                speedup_vs_seed: 2.5,
            }],
            threads,
        }
    }

    fn point(scenario: &str, threads: usize, speedup: f64) -> ThreadScalingRecord {
        ThreadScalingRecord {
            scenario: scenario.to_string(),
            backend: "jtc_ideal".to_string(),
            threads,
            grain: "image".to_string(),
            images_per_s: 100.0 * speedup,
            speedup_vs_1: speedup,
            efficiency: speedup / threads as f64,
        }
    }

    fn floor(scenario: &str, threads: usize, min: f64) -> ScalingBaselineEntry {
        ScalingBaselineEntry {
            scenario: scenario.to_string(),
            backend: "jtc_ideal".to_string(),
            threads,
            min_speedup_vs_1: min,
        }
    }

    #[test]
    fn sweep_widths_are_positive_sorted_deduped_and_contain_one() {
        assert_eq!(sweep_widths(&[4, 2, 2, 0, 1]), vec![1, 2, 4]);
        assert_eq!(sweep_widths(&[]), vec![1]);
        assert_eq!(sweep_widths(&[8]), vec![1, 8]);
    }

    #[test]
    fn scaling_gate_fails_below_floor_and_on_missing_points() {
        let scaling = ThreadScaling {
            counts: vec![1, 2],
            grain: "auto".to_string(),
            curve: vec![
                point("resnet18_batch_infer", 1, 1.0),
                point("resnet18_batch_infer", 2, 1.2),
            ],
        };
        let report = synthetic_report(4, Some(scaling));
        let baseline = Baseline {
            entries: vec![],
            scaling: Some(vec![
                floor("resnet18_batch_infer", 2, 1.6), // measured 1.2: fail
                floor("conv2d_batch", 2, 1.6),         // never measured: fail
            ]),
        };
        let (failures, skipped) = check_scaling_against_baseline(&report, &baseline);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("fell below"));
        assert!(failures[1].contains("no measured curve point"));
        assert!(skipped.is_empty());
    }

    #[test]
    fn scaling_gate_is_core_gated_and_passes_honest_curves() {
        let scaling = ThreadScaling {
            counts: vec![1, 2, 4],
            grain: "auto".to_string(),
            curve: vec![
                point("resnet18_batch_infer", 1, 1.0),
                point("resnet18_batch_infer", 2, 1.8),
                point("resnet18_batch_infer", 4, 3.1),
            ],
        };
        // A 1-core host cannot check any multi-thread floor: all skipped.
        let narrow = synthetic_report(1, Some(scaling.clone()));
        let baseline = Baseline {
            entries: vec![],
            scaling: Some(vec![
                floor("resnet18_batch_infer", 2, 1.6),
                floor("resnet18_batch_infer", 4, 2.5),
            ]),
        };
        let (failures, skipped) = check_scaling_against_baseline(&narrow, &baseline);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(skipped.len(), 2);
        assert!(skipped[0].contains("wider runner"));

        // A 4-core host checks both floors; this curve clears them.
        let wide = synthetic_report(4, Some(scaling));
        let (failures, skipped) = check_scaling_against_baseline(&wide, &baseline);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(skipped.is_empty());

        // No sweep ran: one note, no failures.
        let no_sweep = synthetic_report(4, None);
        let (failures, skipped) = check_scaling_against_baseline(&no_sweep, &baseline);
        assert!(failures.is_empty());
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("--threads-sweep"));

        // A baseline without a scaling section gates nothing.
        let legacy = Baseline {
            entries: vec![],
            scaling: None,
        };
        let (failures, skipped) = check_scaling_against_baseline(&no_sweep, &legacy);
        assert!(failures.is_empty() && skipped.is_empty());
    }

    #[test]
    fn legacy_baseline_files_without_scaling_still_load() {
        let legacy = r#"{"entries":[{"scenario":"conv2d_batch","backend":"jtc_ideal","min_speedup_vs_seed":2.5}]}"#;
        let baseline: Baseline = serde_json::from_str(legacy).unwrap();
        assert!(baseline.scaling.is_none());
        assert_eq!(baseline.entries.len(), 1);
    }

    #[test]
    fn markdown_summary_tabulates_throughput_and_scaling() {
        let scaling = ThreadScaling {
            counts: vec![1, 2],
            grain: "auto".to_string(),
            curve: vec![
                point("resnet18_batch_infer", 1, 1.0),
                point("resnet18_batch_infer", 2, 1.7),
            ],
        };
        let report = synthetic_report(1, Some(scaling));
        let baseline = Baseline {
            entries: vec![BaselineEntry {
                scenario: "conv2d_batch".to_string(),
                backend: "jtc_ideal".to_string(),
                min_speedup_vs_seed: 2.2,
            }],
            scaling: Some(vec![floor("resnet18_batch_infer", 2, 1.6)]),
        };
        let summary = markdown_summary(&report, Some(&baseline));
        // Throughput row with its floor delta (2.5 measured vs 2.2 floor).
        assert!(summary.contains("| conv2d_batch | jtc_ideal | 8 | 100.0 | 2.50 | 2.20 | +0.30 |"));
        // Scaling curve section and the core-gated skip note.
        assert!(summary.contains("### Thread scaling"));
        assert!(summary
            .contains("| resnet18_batch_infer | jtc_ideal | 2 | image | 170.0 | 1.70 | 0.85 |"));
        assert!(summary.contains("skipped:"));
        assert!(!summary.contains("**FAIL**"));
    }

    #[test]
    fn thread_scaling_measures_a_normalised_curve_per_scenario() {
        let scaling = thread_scaling(true, &[2], ParallelGrain::Auto).unwrap();
        assert_eq!(scaling.counts, vec![1, 2]);
        assert_eq!(scaling.grain, "auto");
        // Four curves (3 conv backends + jtc inference), two points each.
        assert_eq!(scaling.curve.len(), 8);
        for record in &scaling.curve {
            assert!(
                record.images_per_s.is_finite() && record.images_per_s > 0.0,
                "{record:?}"
            );
            assert!(
                (record.efficiency - record.speedup_vs_1 / record.threads as f64).abs() < 1e-12,
                "{record:?}"
            );
            if record.threads == 1 {
                assert!((record.speedup_vs_1 - 1.0).abs() < 1e-12, "{record:?}");
            }
            // Stochastic conv2d batches cannot dispatch in parallel.
            if record.backend == "photofourier_cg" && record.scenario == "conv2d_batch" {
                assert_eq!(record.grain, "serial");
            }
        }
    }

    #[test]
    fn host_threads_reports_the_real_pool_size() {
        // With no override installed, the pool size is the core count...
        let auto = rayon::current_num_threads();
        assert!(auto >= 1);
        // ...and an explicit configuration must be what the report records.
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .unwrap();
        assert_eq!(rayon::current_num_threads(), 2);
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert_eq!(rayon::current_num_threads(), auto);
    }
}
