//! The measurements behind `cargo run -p pf-bench --bin perf`: the two
//! host-side numbers the repo benchmark (`BENCHMARK.json`, `benchmark/`)
//! does not take.
//!
//! * [`thread_scaling`] — the **thread-sweep report**: batched conv2d on
//!   every backend and batched inference on the ideal JTC, re-timed under
//!   scoped rayon pools of each requested width. It is a report and gates
//!   nothing (ROADMAP item 3 owns making a second core help).
//! * [`telemetry_overhead`] — the **telemetry-overhead gate**: one batched
//!   inference workload under an enabled handle against a disabled one, the
//!   median of the interleaved pair ratios held to [`OVERHEAD_BUDGET`].
//!
//! [`traced_run`] is the workload behind `perf --trace`. How fast the
//! engines are and where the time goes — `ms_per_image` per workload, the
//! per-crate ladder, `pf-jtc.stage_*_share` — is the repo benchmark's to
//! say (`benchmark/README.md`), not this module's.

use std::time::{Duration, Instant};

use photofourier::prelude::*;
use serde::{Deserialize, Serialize};

use crate::scenario_image;

/// Schema identifier of the thread-sweep report ([`PerfReport`]).
pub const SWEEP_SCHEMA: &str = "pf-bench/thread-sweep-v2";

/// Schema identifier of the telemetry-overhead report ([`OverheadReport`]).
pub const OVERHEAD_SCHEMA: &str = "pf-bench/telemetry-overhead-v2";

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
    /// Measured engine throughput in images per second.
    pub images_per_s: f64,
    /// Throughput relative to the 1-thread point of the same curve.
    pub speedup_vs_1: f64,
    /// `speedup_vs_1 / threads`: 1.0 is perfect linear scaling.
    pub efficiency: f64,
}

/// The `threads` section of the thread-sweep report: scaling curves over a
/// set of scoped pool widths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScaling {
    /// Pool widths swept (always includes 1, the curve's reference point).
    pub counts: Vec<usize>,
    /// One record per (scenario, backend, pool width).
    pub curve: Vec<ThreadScalingRecord>,
}

/// The thread-sweep report `perf --threads-sweep` writes (default
/// `BENCH_scaling.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema identifier ([`SWEEP_SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Worker threads rayon-style dispatch uses outside the scoped pools
    /// (`rayon::current_num_threads`).
    pub host_threads: usize,
    /// Physical cores available to the process
    /// (`std::thread::available_parallelism`). Pool widths beyond this are
    /// concurrency without parallelism; read those points accordingly.
    pub host_cores: usize,
    /// The measured curves.
    pub threads: ThreadScaling,
}

impl PerfReport {
    /// Wraps measured curves with the schema id, the mode and the host's
    /// pool width and core count.
    pub fn new(smoke: bool, threads: ThreadScaling) -> Self {
        Self {
            schema: SWEEP_SCHEMA.to_string(),
            mode: mode_name(smoke),
            host_threads: rayon::current_num_threads(),
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            threads,
        }
    }
}

/// The `mode` field of both reports.
fn mode_name(smoke: bool) -> String {
    if smoke { "smoke" } else { "full" }.to_string()
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

/// `batch` seeded images of the scenario's input shape, seeded
/// `first_seed..`.
fn image_batch(scenario: &Scenario, batch: usize, first_seed: u64) -> Vec<Tensor> {
    (0..batch)
        .map(|i| scenario_image(scenario, first_seed + i as u64))
        .collect()
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

/// One curve of the sweep: `run` (one whole batch of `batch` images on
/// `session`) is timed best-of-`reps` under a scoped pool of each width and
/// normalised to its own 1-thread point.
fn measure_curve(
    scenario: &str,
    session: &Session,
    widths: &[usize],
    batch: usize,
    reps: usize,
    mut run: impl FnMut() + Send,
) -> Result<Vec<ThreadScalingRecord>, PfError> {
    let mut curve = Vec::with_capacity(widths.len());
    let mut base = 0.0;
    for &threads in widths {
        let pool = scoped_pool(threads)?;
        let elapsed = pool.install(|| best_of(reps, &mut run));
        let images_per_s = batch as f64 / elapsed.as_secs_f64().max(1e-12);
        if threads == 1 {
            base = images_per_s;
        }
        let speedup_vs_1 = images_per_s / base.max(1e-12);
        curve.push(ThreadScalingRecord {
            scenario: scenario.to_string(),
            backend: session.scenario().backend.kind.name().to_string(),
            threads,
            images_per_s,
            speedup_vs_1,
            efficiency: speedup_vs_1 / threads as f64,
        });
    }
    Ok(curve)
}

/// Measures the thread-scaling curves: `conv2d_batch` on every backend and
/// `resnet18_batch_infer` on the ideal JTC, each timed under a scoped
/// rayon pool at each requested width and normalised to its own 1-thread
/// point. The width-1 column is also where `Session::conv2d_batch`
/// throughput stays on record (the repo benchmark has no such workload).
///
/// One session per scenario is built up front (its layers lowered once for
/// the whole curve, each `conv2d_batch` call preparing its kernel once per
/// batch), so the only thing that
/// varies between points is the advertised pool width — which is exactly
/// what the session's one parallelism rule keys on: a batch at least as
/// large as the width fans out across images, a smaller one runs image by
/// image with fanned-out tiles (`docs/PERFORMANCE.md`, "Reading the scaling
/// curves"; stochastic conv2d batches are serial at every width). A width
/// is a thread count: the pool never lets a worker open a region of its
/// own.
///
/// On a host with fewer cores than a requested width the point is still
/// measured — the scoped pool advertises the width and dispatch follows it
/// — but the speedup cannot exceed ~1.0; the report's `host_cores` says
/// which points those are.
///
/// # Errors
///
/// Propagates session construction and execution errors.
pub fn thread_scaling(smoke: bool, counts: &[usize]) -> Result<ThreadScaling, PfError> {
    let (conv_batch, conv_reps) = if smoke { (8, 3) } else { (32, 5) };
    let (infer_batch, infer_reps) = if smoke { (4, 2) } else { (16, 3) };
    let widths = sweep_widths(counts);
    let mut curve = Vec::new();
    let session_for = |kind| Session::from_scenario(backend_scenario(kind));

    // conv2d_batch on every backend.
    for kind in [
        BackendKind::Digital,
        BackendKind::JtcIdeal,
        BackendKind::PhotofourierCg,
    ] {
        let session = session_for(kind)?;
        let inputs = conv2d_inputs(conv_batch, 32);
        let kernel = conv2d_kernel();
        curve.extend(measure_curve(
            "conv2d_batch",
            &session,
            &widths,
            conv_batch,
            conv_reps,
            || {
                session
                    .conv2d_batch(&inputs, &kernel)
                    .expect("scaling conv2d batch");
            },
        )?);
    }

    // Batched inference on the ideal JTC (the serving-tier hot path).
    let session = session_for(BackendKind::JtcIdeal)?;
    let images = image_batch(session.scenario(), infer_batch, 1000);
    let _ = session.run_batch(&images[..1])?; // lower the network's layers
    curve.extend(measure_curve(
        "resnet18_batch_infer",
        &session,
        &widths,
        infer_batch,
        infer_reps,
        || {
            session.run_batch(&images).expect("scaling batch inference");
        },
    )?);

    Ok(ThreadScaling {
        counts: widths,
        curve,
    })
}

/// The CI telemetry-overhead budget: an enabled handle may cost at most
/// this fraction of wall time over the disabled path on the smoke
/// inference workload (`perf --overhead-check` gates on it).
pub const OVERHEAD_BUDGET: f64 = 0.03;

/// The telemetry-overhead report `perf --overhead-check` writes (default
/// `BENCH_overhead.json`): what [`telemetry_overhead`] measured, the
/// budget it was held to and the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Schema identifier ([`OVERHEAD_SCHEMA`]).
    pub schema: String,
    /// `smoke` (CI) or `full`.
    pub mode: String,
    /// Interleaved disabled/enabled pairs measured.
    pub pairs: usize,
    /// Median wall time of one batched inference, telemetry disabled.
    pub disabled_s: f64,
    /// Median wall time of the same batch under an enabled handle
    /// (metrics + stage counters + span ring all live).
    pub enabled_s: f64,
    /// Median over the pairs of `enabled / disabled`, minus one (negative =
    /// within noise). Not the ratio of the two medians above: each ratio is
    /// taken inside one pair, whose two halves ran back to back.
    pub overhead_frac: f64,
    /// The budget `overhead_frac` is held to ([`OVERHEAD_BUDGET`]).
    pub budget: f64,
    /// The verdict: `overhead_frac <= budget`.
    pub passed: bool,
}

/// Median of `values` (the mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

impl OverheadReport {
    /// Reduces `(disabled, enabled)` wall-time pairs, each measured back to
    /// back, to the report.
    fn from_pairs(smoke: bool, pairs: &[(f64, f64)]) -> Self {
        let overhead_frac = median(pairs.iter().map(|(d, e)| e / d.max(1e-12)).collect()) - 1.0;
        Self {
            schema: OVERHEAD_SCHEMA.to_string(),
            mode: mode_name(smoke),
            pairs: pairs.len(),
            disabled_s: median(pairs.iter().map(|p| p.0).collect()),
            enabled_s: median(pairs.iter().map(|p| p.1).collect()),
            overhead_frac,
            budget: OVERHEAD_BUDGET,
            passed: overhead_frac <= OVERHEAD_BUDGET,
        }
    }
}

/// Measures the wall-time cost of running the batched JTC-ideal inference
/// workload under an *enabled* telemetry handle versus a disabled one —
/// the staged correlation path is where the per-conv stage counters live,
/// so this is the worst-case hot-loop overhead. The two sessions share the
/// process and the measurement interleaves their repetitions (disabled,
/// enabled, disabled, ...), so frequency drift and cache state hit both
/// paths alike.
///
/// The estimate is the **median of the per-pair ratios**, not a best-of
/// on each side: a shared host has rare fast windows (the same batch reads
/// 0.8 – 1.9 ms across runs), a best-of takes its minimum from whichever
/// side met one, and more repetitions make a one-sided lucky minimum more
/// likely, not less. A window that speeds up one pair moves both of its
/// halves, and the median ignores the pairs it splits.
///
/// # Errors
///
/// Propagates session construction and inference errors.
pub fn telemetry_overhead(smoke: bool) -> Result<OverheadReport, PfError> {
    let (batch, reps) = if smoke { (4, 240) } else { (8, 480) };
    let scenario = backend_scenario(BackendKind::JtcIdeal);
    let plain = Session::from_scenario(scenario.clone())?;
    let traced = Session::builder()
        .scenario(scenario.clone())
        .telemetry(Telemetry::enabled())
        .build()?;
    let images = image_batch(&scenario, batch, 2000);
    // Lower both sessions' layers outside the timed region.
    let _ = plain.run_batch(&images[..1])?;
    let _ = traced.run_batch(&images[..1])?;

    let mut pairs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        plain.run_batch(&images)?;
        let disabled_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        traced.run_batch(&images)?;
        pairs.push((disabled_s, start.elapsed().as_secs_f64()));
    }
    Ok(OverheadReport::from_pairs(smoke, &pairs))
}

/// Runs one batched inference per backend under `tel`, each wrapped in a
/// `bench` root span with a `run_batch` child whose interval is attributed
/// across the four JTC stages from the registry's stage-counter deltas
/// (see [`photofourier::telemetry::staged_span`]) — the workload behind
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
        let images = image_batch(&scenario, batch, 3000);
        let _ = session.run_batch(&images[..1])?; // warm outside the spans
        let root = tel.span(kind.name(), "bench");
        photofourier::telemetry::staged_span(tel, "run_batch", root.id(), || {
            session.run_batch(&images)
        })?;
    }
    photofourier::mirror_scratch_gauges(tel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_widths_are_positive_sorted_deduped_and_contain_one() {
        assert_eq!(sweep_widths(&[4, 2, 2, 0, 1]), vec![1, 2, 4]);
        assert_eq!(sweep_widths(&[]), vec![1]);
        assert_eq!(sweep_widths(&[8]), vec![1, 8]);
    }

    #[test]
    fn thread_scaling_measures_a_normalised_curve_per_scenario() {
        let scaling = thread_scaling(true, &[2]).unwrap();
        assert_eq!(scaling.counts, vec![1, 2]);
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

    #[test]
    fn sweep_report_round_trips_with_its_schema_id() {
        let report = PerfReport::new(
            true,
            ThreadScaling {
                counts: vec![1, 2],
                curve: vec![ThreadScalingRecord {
                    scenario: "resnet18_batch_infer".to_string(),
                    backend: "jtc_ideal".to_string(),
                    threads: 2,
                    images_per_s: 2570.0,
                    speedup_vs_1: 0.88,
                    efficiency: 0.44,
                }],
            },
        );
        assert_eq!(
            (report.schema.as_str(), report.mode.as_str()),
            (SWEEP_SCHEMA, "smoke")
        );
        assert!(report.host_threads >= 1 && report.host_cores >= 1);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"pf-bench/thread-sweep-v2\""), "{json}");
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn overhead_report_carries_budget_and_verdict_and_round_trips() {
        let inside = OverheadReport::from_pairs(true, &[(1.0e-3, 1.02e-3); 5]);
        assert!((inside.overhead_frac - 0.02).abs() < 1e-12);
        assert_eq!(inside.budget, OVERHEAD_BUDGET);
        assert_eq!(inside.pairs, 5);
        assert!(inside.passed);
        let over = OverheadReport::from_pairs(false, &[(1.0e-3, 1.05e-3); 4]);
        assert!(!over.passed);
        assert_eq!(
            (inside.mode.as_str(), over.mode.as_str()),
            ("smoke", "full")
        );
        // Faster with telemetry on is noise, not a failure.
        assert!(OverheadReport::from_pairs(true, &[(1.0e-3, 0.99e-3)]).passed);

        let json = serde_json::to_string_pretty(&over).unwrap();
        for key in [
            "\"pf-bench/telemetry-overhead-v2\"",
            "\"pairs\"",
            "\"disabled_s\"",
            "\"enabled_s\"",
            "\"overhead_frac\"",
            "\"budget\"",
            "\"passed\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let back: OverheadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, over);
    }

    #[test]
    fn overhead_is_the_median_pair_ratio_not_a_ratio_of_extremes() {
        // Five pairs at +2 %; a fast window hits the disabled half of one
        // and a slow one the enabled half of another. Best-of on each side
        // would read 1.02 / 0.5 − 1 = +104 %.
        let mut pairs = [(1.0e-3, 1.02e-3); 5];
        pairs[1] = (0.5e-3, 1.02e-3);
        pairs[3] = (1.0e-3, 1.9e-3);
        let report = OverheadReport::from_pairs(true, &pairs);
        assert!((report.overhead_frac - 0.02).abs() < 1e-12, "{report:?}");
        assert!(report.passed);
        // Both sides are reported as medians too, and a window that speeds
        // a whole pair up moves neither the ratio nor the verdict.
        assert_eq!((report.disabled_s, report.enabled_s), (1.0e-3, 1.02e-3));
        pairs[0] = (0.4e-3, 0.408e-3);
        let report = OverheadReport::from_pairs(true, &pairs);
        assert!((report.overhead_frac - 0.02).abs() < 1e-12, "{report:?}");
        // An even count takes the mean of the middle two ratios.
        let even = OverheadReport::from_pairs(true, &[(1.0, 1.01), (1.0, 1.03)]);
        assert!((even.overhead_frac - 0.02).abs() < 1e-12, "{even:?}");
    }

    #[test]
    fn traced_run_exports_a_valid_bench_run_batch_stage_tree() {
        let tel = Telemetry::enabled();
        traced_run(true, &tel).unwrap();
        let json = tel.chrome_trace_json();
        let stats = photofourier::telemetry::validate_chrome_trace(&json).unwrap();
        // One `bench` root per backend, each with a `run_batch` child.
        assert!(stats.pairs >= 2 * BackendKind::ALL.len(), "{stats:?}");
        let tree = tel.text_tree();
        for name in ["bench", "run_batch", "inverse"] {
            assert!(tree.contains(name), "{name} missing from\n{tree}");
        }
    }
}
