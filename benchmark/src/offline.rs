//! The four offline workloads (`infer_ideal`, `infer_cg`, `infer_digital`,
//! `conv_fresh`): what one operation is, how its inputs are generated, how
//! its outputs are checked, and the untraced run that yields the
//! end-to-end metrics.
//!
//! One operation is one facade call. The same definitions drive the
//! traced ladder (`crate::ladder`), so both runs measure the same program
//! on the same inputs.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pf_dsp::conv::Matrix;
use pf_dsp::util::relative_l2_error;
use pf_nn::Tensor;
use photofourier::{BackendSpec, PfError, Scenario, Session, Telemetry};

use crate::host::{self, Calibration};
use crate::inputs::{self, KernelStream};
use crate::report::Outcome;
use crate::stats::{quantile_sorted, quiet, Summary};

/// Images per `run_batch` call.
pub const BATCH: usize = 8;
/// Distinct seeded images a workload cycles through.
pub const POOL: usize = 64;
/// Never-repeated kernels per `conv_fresh` call.
pub const KERNELS_PER_CALL: usize = 16;
/// Untimed operations after `warmup()` and before the first timed call.
pub const WARM_OPS: usize = 32;
/// Operations whose outputs are compared bit for bit with the offline
/// single-image path.
pub const CHECKED_OPS: usize = 64;
/// A round of the timed phase lasts at least this long …
pub const ROUND_SECS: f64 = 0.125;
/// … and holds at least this many calls. Rounds are as short as the host's
/// shortest contended bursts (a tenth of a second), so that quiet ones
/// exist; every timing metric is the value its per-round statistic takes in
/// a quiet round (`stats::quiet`).
pub const ROUND_CALLS: usize = 8;
/// Cold set-ups per cluster at least. A run takes two clusters — one before
/// the timed phase, one after everything else, twenty seconds apart — so a
/// burst that covers one leaves the other; `setup_s` is the quiet value over
/// both.
pub const SETUPS_MIN: usize = 2;
/// Cold set-ups per cluster at most.
pub const SETUPS_MAX: usize = 4;
/// Cheap set-ups repeat beyond [`SETUPS_MIN`] while the cluster fits in this
/// many seconds, so a 20 ms set-up is not judged on four samples.
pub const SETUP_BUDGET_S: f64 = 1.5;

/// The benchmark's own directory (`benchmark/` in the checkout it was
/// built from).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The scenario file of workload `name`.
pub fn scenario_path(name: &str) -> PathBuf {
    bench_dir().join("workloads").join(format!("{name}.toml"))
}

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Session::run_batch` of [`BATCH`] images.
    Batch,
    /// `Session::run_inference` of one image — what a replica does per
    /// routed request (used by `route_closed`'s ladder).
    Single,
    /// `Session::conv2d_multi` of one plane against
    /// [`KERNELS_PER_CALL`] fresh kernels.
    ConvMulti,
}

impl Op {
    /// Images one operation processes (`conv_fresh`: one call, one image).
    pub fn items(self) -> usize {
        match self {
            Op::Batch => BATCH,
            Op::Single | Op::ConvMulti => 1,
        }
    }
}

/// The generated arguments of one operation.
#[derive(Debug, Clone)]
pub enum Args {
    /// `count` pool images starting at `first`.
    Images {
        /// Index of the first image in the pool.
        first: usize,
        /// Number of images.
        count: usize,
    },
    /// Fresh kernels for one `conv2d_multi` call.
    Kernels(Vec<Matrix>),
}

/// What one operation returned.
#[derive(Debug)]
pub enum Output {
    /// One feature tensor per image.
    Features(Vec<Tensor>),
    /// One output plane per kernel.
    Planes(Vec<Matrix>),
}

impl Output {
    /// The output values, one slice per image or kernel.
    pub fn rows(&self) -> Vec<&[f64]> {
        match self {
            Output::Features(tensors) => tensors.iter().map(Tensor::data).collect(),
            Output::Planes(planes) => planes.iter().map(Matrix::data).collect(),
        }
    }
}

/// Whether two sets of rows are bit-identical.
pub fn same_bits(a: &[&[f64]], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One offline workload: its operation and its seeded inputs.
#[derive(Debug)]
pub struct Offline {
    /// Workload name (also the scenario file stem).
    pub name: &'static str,
    /// What one operation is.
    pub op: Op,
    /// The workload's scenario file.
    pub scenario_path: PathBuf,
    images: Vec<Tensor>,
    plane: Matrix,
    kernels: KernelStream,
}

/// One cold set-up: the session plus where the time went.
#[derive(Debug)]
pub struct Setup {
    /// The warmed session.
    pub session: Session,
    /// `Session::builder()…build()`.
    pub build_s: f64,
    /// `Session::warmup`.
    pub warmup_s: f64,
    /// Whole set-up, [`WARM_OPS`] warm operations included.
    pub total_s: f64,
    /// Warm operations that returned an error.
    pub failed: u64,
}

/// Per-call measurements of one timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// `(start, wall)` of every call, seconds since the phase began.
    pub calls: Vec<(f64, f64)>,
    /// Arguments and outputs of the first [`CHECKED_OPS`] calls.
    pub kept: Vec<(Args, Output)>,
    /// Calls that returned an error.
    pub failed: u64,
}

/// The timing metrics of one timed phase, each the quiet-round value of a
/// per-round statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// p10 of per-call wall time ÷ items per call, ms.
    pub ms_per_image: f64,
    /// Items completed ÷ wall, 1/s.
    pub goodput_rps: f64,
    /// Median per-call wall time, ms.
    pub lat_p50_ms: f64,
}

/// Cuts back-to-back `(start, wall)` samples into consecutive rounds, each
/// closed by the first call that makes it [`ROUND_SECS`] long and
/// [`ROUND_CALLS`] calls big. The unfinished tail is left out.
pub fn rounds_of(calls: &[(f64, f64)]) -> Vec<&[(f64, f64)]> {
    let mut rounds = Vec::new();
    let mut first = 0;
    for (k, &(start, wall)) in calls.iter().enumerate() {
        let long_enough = start + wall - calls[first].0 >= ROUND_SECS;
        if long_enough && k + 1 - first >= ROUND_CALLS {
            rounds.push(&calls[first..=k]);
            first = k + 1;
        }
    }
    rounds
}

/// Timing metrics of a closed single-caller phase: per round, the p10 and
/// p50 of its calls' wall times and `items × calls ÷ (last end − first
/// start)`; then the quiet-round value of each.
///
/// # Panics
///
/// Panics when the phase is shorter than one round.
pub fn timing_of(calls: &[(f64, f64)], items: usize) -> Timing {
    let (mut p10, mut p50, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for round in rounds_of(calls) {
        let mut walls: Vec<f64> = round.iter().map(|&(_, wall)| wall).collect();
        walls.sort_by(f64::total_cmp);
        p10.push(quantile_sorted(&walls, 0.10));
        p50.push(quantile_sorted(&walls, 0.50));
        let (first, last) = (round[0], round[round.len() - 1]);
        rate.push((round.len() * items) as f64 / (last.0 + last.1 - first.0));
    }
    Timing {
        ms_per_image: quiet(&mut p10, true) * 1e3 / items as f64,
        goodput_rps: quiet(&mut rate, false),
        lat_p50_ms: quiet(&mut p50, true) * 1e3,
    }
}

/// One cluster of cold set-ups — at least [`SETUPS_MIN`], at most
/// [`SETUPS_MAX`], stopping in between once another would not fit
/// [`SETUP_BUDGET_S`] — returning the last product, every set-up's seconds
/// and the warm operations that failed. `one` makes a product and
/// reports `(product, seconds, failed)`; `dispose` retires a product before
/// the next is made.
///
/// # Errors
///
/// The first error of `one` or `dispose`.
pub fn cold_setups<T, E>(
    mut one: impl FnMut() -> Result<(T, f64, u64), E>,
    mut dispose: impl FnMut(T) -> Result<(), E>,
) -> Result<(T, Vec<f64>, u64), E> {
    let (mut seconds, mut failed) = (Vec::new(), 0);
    loop {
        let (product, took, warm_failed) = one()?;
        seconds.push(took);
        failed += warm_failed;
        let spent: f64 = seconds.iter().sum();
        if seconds.len() >= SETUPS_MAX
            || (seconds.len() >= SETUPS_MIN && spent + took > SETUP_BUDGET_S)
        {
            return Ok((product, seconds, failed));
        }
        dispose(product)?;
    }
}

impl Offline {
    /// Workload `name` with inputs generated from `seed`.
    pub fn new(name: &'static str, op: Op, seed: u64) -> Self {
        Self {
            name,
            op,
            scenario_path: scenario_path(name),
            images: inputs::images(seed, POOL, 1, 16),
            plane: inputs::plane(seed, 16),
            kernels: KernelStream::new(seed),
        }
    }

    /// The seeded image pool.
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The seeded `conv_fresh` input plane.
    pub fn plane(&self) -> &Matrix {
        &self.plane
    }

    /// Arguments of operation number `k` (generation is never timed).
    pub fn args(&mut self, k: usize) -> Args {
        match self.op {
            Op::Batch => Args::Images {
                first: (k % (POOL / BATCH)) * BATCH,
                count: BATCH,
            },
            Op::Single => Args::Images {
                first: k % POOL,
                count: 1,
            },
            Op::ConvMulti => Args::Kernels(self.kernels.take(KERNELS_PER_CALL)),
        }
    }

    /// One operation through the facade.
    ///
    /// # Errors
    ///
    /// Whatever the facade call returns.
    pub fn call(&self, session: &Session, args: &Args) -> Result<Output, PfError> {
        match (self.op, args) {
            (Op::Batch, &Args::Images { first, count }) => session
                .run_batch(&self.images[first..first + count])
                .map(Output::Features),
            (Op::Single, &Args::Images { first, .. }) => session
                .run_inference_seeded(&self.images[first], 0)
                .map(|t| Output::Features(vec![t])),
            (Op::ConvMulti, Args::Kernels(kernels)) => session
                .conv2d_multi(&self.plane, kernels)
                .map(Output::Planes),
            (op, args) => Err(PfError::invalid_scenario(format!(
                "{op:?} cannot run {args:?}"
            ))),
        }
    }

    /// The same operation through the offline single-item path: one
    /// `run_inference_seeded` per image (seed = position in the batch,
    /// which is what `run_batch` pins on stochastic backends and what
    /// deterministic ones ignore) or one `conv2d` per kernel.
    ///
    /// # Errors
    ///
    /// Whatever the facade call returns.
    pub fn reference(&self, session: &Session, args: &Args) -> Result<Vec<Vec<f64>>, PfError> {
        match args {
            &Args::Images { first, count } => (0..count)
                .map(|slot| {
                    session
                        .run_inference_seeded(&self.images[first + slot], slot as u64)
                        .map(|t| t.data().to_vec())
                })
                .collect(),
            Args::Kernels(kernels) => kernels
                .iter()
                .map(|k| session.conv2d(&self.plane, k).map(|m| m.data().to_vec()))
                .collect(),
        }
    }

    /// One cold set-up: scenario load, session build, `warmup()`, then
    /// [`WARM_OPS`] untimed operations.
    ///
    /// # Errors
    ///
    /// Scenario or session construction errors.
    pub fn cold_setup(&mut self, telemetry: Telemetry) -> Result<Setup, PfError> {
        let t0 = Instant::now();
        let scenario = Scenario::from_path(&self.scenario_path)?;
        let t1 = Instant::now();
        let session = Session::builder()
            .scenario(scenario)
            .telemetry(telemetry)
            .build()?;
        let t2 = Instant::now();
        session.warmup()?;
        let t3 = Instant::now();
        let mut failed = 0;
        for k in 0..WARM_OPS {
            let args = self.args(k);
            match self.call(&session, &args) {
                Ok(out) => drop(black_box(out)),
                Err(_) => failed += 1,
            }
        }
        let t4 = Instant::now();
        Ok(Setup {
            session,
            build_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
            total_s: (t4 - t0).as_secs_f64(),
            failed,
        })
    }

    /// Calls the facade back to back for `seconds`, timing each call alone
    /// (argument generation and dropping the result stay outside the
    /// clock) and keeping the first [`CHECKED_OPS`] results for checking.
    pub fn timed_phase(&mut self, session: &Session, seconds: f64) -> Timed {
        let mut timed = Timed::default();
        let begin = Instant::now();
        let mut k = 0;
        loop {
            let args = self.args(k);
            let t0 = Instant::now();
            let out = self.call(session, &args);
            let t1 = Instant::now();
            timed
                .calls
                .push(((t0 - begin).as_secs_f64(), (t1 - t0).as_secs_f64()));
            match out {
                Ok(out) if timed.kept.len() < CHECKED_OPS => timed.kept.push((args, out)),
                Ok(out) => drop(black_box(out)),
                Err(_) => timed.failed += 1,
            }
            k += 1;
            if (t1 - begin).as_secs_f64() >= seconds {
                return timed;
            }
        }
    }

    /// Checks kept results: how many operations differ in any bit from the
    /// offline single-item path, and the relative L2 error of all kept
    /// outputs against a `digital` session on the same inputs.
    ///
    /// # Errors
    ///
    /// Errors of the reference or digital sessions.
    pub fn check(&self, session: &Session, kept: &[(Args, Output)]) -> Result<(u64, f64), PfError> {
        let digital = digital_twin(session)?;
        let (mut mismatched, mut ours, mut exact) = (0, Vec::new(), Vec::new());
        for (args, out) in kept {
            let rows = out.rows();
            if !same_bits(&rows, &self.reference(session, args)?) {
                mismatched += 1;
            }
            ours.extend(rows.iter().flat_map(|r| r.iter().copied()));
            exact.extend(self.reference(&digital, args)?.into_iter().flatten());
        }
        Ok((mismatched, relative_l2_error(&ours, &exact)))
    }
}

/// A session on the exact `digital` backend, otherwise identical to
/// `session`'s scenario.
///
/// # Errors
///
/// Session construction errors.
pub fn digital_twin(session: &Session) -> Result<Session, PfError> {
    let scenario = session.scenario().clone();
    let capacity = scenario.backend.capacity;
    Session::builder()
        .scenario(scenario)
        .backend(BackendSpec::digital(capacity))
        .build()
}

/// Upper limit on `out_rel_err` per backend kind. Digital against digital
/// is exactly zero. The ideal optics differ from digital only by FFT
/// rounding, but the default pipeline quantises partial sums to 8 bits, so
/// a 1e-15 difference that crosses a code boundary becomes one ADC step
/// (about 1e-2 relative overall). The CG chain adds 8-bit converters and
/// 20 dB sensing noise (about 1e-1 by design). Above these limits the
/// outputs are wrong, not noisy.
pub fn rel_err_limit(session: &Session) -> f64 {
    match session.scenario().backend.kind {
        photofourier::BackendKind::Digital => 0.0,
        photofourier::BackendKind::JtcIdeal => 0.05,
        photofourier::BackendKind::PhotofourierCg => 0.5,
    }
}

/// The three simulated metrics plus what explains them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulated {
    /// Frames per second.
    pub fps: f64,
    /// Frames per second per watt.
    pub fps_per_w: f64,
    /// Energy-delay product, J·s.
    pub edp_js: f64,
    /// Latency of one inference, ms.
    pub latency_ms: f64,
    /// Energy of one inference, mJ.
    pub energy_mj: f64,
    /// Average power, W.
    pub avg_power_w: f64,
}

/// `Session::evaluate_performance`, reduced to the reported numbers.
///
/// # Errors
///
/// Scheduling errors of the architecture simulator.
pub fn simulated(session: &Session) -> Result<Simulated, PfError> {
    let perf = session.evaluate_performance()?;
    Ok(Simulated {
        fps: perf.fps,
        fps_per_w: perf.fps_per_watt,
        edp_js: perf.edp,
        latency_ms: perf.latency_s * 1e3,
        energy_mj: perf.energy_j * 1e3,
        avg_power_w: perf.avg_power_w,
    })
}

/// The rows every untraced run prints besides its gated metrics: the four
/// whole-run metrics that carry no bound (`lat_p99_ms` from `lat_ms`, the
/// run's latency sample), that sample's percentile row, the first — truly
/// cold — set-up, and the calibration readings.
pub fn common_rows(
    outcome: &mut Outcome,
    lat_ms: &mut [f64],
    setup_s: &[f64],
    before: Calibration,
    after: Calibration,
) {
    let summary = Summary::of(lat_ms);
    outcome.row("failed_share", outcome.failed_share(), "ratio");
    outcome.row("mismatch_share", outcome.mismatch_share(), "ratio");
    outcome.row("out_rel_err", outcome.out_rel_err, "ratio");
    outcome.row("lat_p99_ms", quantile_sorted(lat_ms, 0.99), "ms");
    outcome.summary_row("lat_ms", "ms", summary);
    outcome.row("setup_first_s", setup_s[0], "s");
    outcome.row("setups", setup_s.len() as f64, "count");
    for (name, cal) in [("before", before), ("after", after)] {
        outcome.row(&format!("host.calib_fma_ms.{name}"), cal.fma_ms, "ms");
        outcome.row(&format!("host.calib_triad_ms.{name}"), cal.triad_ms, "ms");
    }
    outcome.row("host.calib_drift", host::drift(before, after), "ratio");
}

fn setup_cluster(workload: &mut Offline) -> Result<(Session, Vec<f64>, u64), PfError> {
    cold_setups(
        || {
            let setup = workload.cold_setup(Telemetry::disabled())?;
            Ok((setup.session, setup.total_s, setup.failed))
        },
        |session| {
            drop(session);
            Ok(())
        },
    )
}

/// The untraced run of an offline workload: a cluster of cold set-ups, the
/// timed phase, output checks, the second cluster, and the end-to-end
/// metrics.
///
/// # Errors
///
/// Scenario, session or simulator errors (operation errors are counted,
/// not returned).
pub fn run_untraced(
    name: &'static str,
    op: Op,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, PfError> {
    let before = host::calibrate();
    let mut workload = Offline::new(name, op, seed);

    let (session, mut setup_s, mut failed) = setup_cluster(&mut workload)?;

    let timed = workload.timed_phase(&session, seconds);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let after = host::calibrate();
    failed += timed.failed;

    let (mismatched, out_rel_err) = workload.check(&session, &timed.kept)?;
    let timing = timing_of(&timed.calls, op.items());
    let sim = simulated(&session)?;

    let (_, late_setup_s, late_failed) = setup_cluster(&mut workload)?;
    setup_s.extend(late_setup_s);
    failed += late_failed;
    let attempted = (setup_s.len() * WARM_OPS + timed.calls.len()) as u64;

    let mut outcome = Outcome::new(name);
    outcome.count(attempted, failed);
    outcome.metric("setup_s", quiet(&mut setup_s.clone(), true));
    outcome.metric("ms_per_image", timing.ms_per_image);
    outcome.metric("goodput_rps", timing.goodput_rps);
    outcome.metric("lat_p50_ms", timing.lat_p50_ms);
    outcome.metric("sim_fps", sim.fps);
    outcome.metric("sim_fps_per_w", sim.fps_per_w);
    outcome.metric("sim_edp_js", sim.edp_js);
    outcome.metric("peak_rss_mb", peak_rss_mb);
    outcome.check(mismatched, timed.kept.len() as u64);
    outcome.rel_err(out_rel_err, rel_err_limit(&session));
    let mut walls_ms: Vec<f64> = timed.calls.iter().map(|&(_, w)| w * 1e3).collect();
    common_rows(&mut outcome, &mut walls_ms, &setup_s, before, after);
    Ok(outcome)
}
