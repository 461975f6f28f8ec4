//! The scenario sweep engine: executes an expanded [`SweepPlan`] through
//! per-point [`Session`]s and collects analytical metrics plus functional
//! probes into a serialisable [`SweepReport`].
//!
//! A sweep is declared in the scenario file itself (the `[sweep]` section,
//! see `docs/SCENARIOS.md`) and driven either from code or through
//! `cargo run -p pf-bench --bin sweep`. For every grid point the runner
//! builds one session and records:
//!
//! * **analytical** — the architecture simulator's FPS, average power,
//!   FPS/W and EDP for the point's network on the point's design point;
//! * **functional** — two numerical probes on the point's backend: the
//!   maximum absolute error of a row-tiled 2D convolution against the exact
//!   digital reference, and the mean absolute error of feature-extractor
//!   inference against a digital-backend session with the identical
//!   numeric pipeline.
//!
//! Points fan out across the rayon pool; the pool width is the one way to
//! say "serial" (`ThreadPoolBuilder::num_threads(1)` around the run).
//! Results are **bit-for-bit identical** at every width: every point owns
//! its sessions (fresh noise streams seeded per point, and its own
//! deterministic digital reference), and the report lists points in
//! expansion order, not completion order.
//!
//! ```
//! use photofourier::prelude::*;
//!
//! let mut scenario = Scenario::new("demo", "resnet18", BackendSpec::digital(128));
//! scenario.sweep = Some(SweepSpec {
//!     temporal_depths: Some(vec![1, 16]),
//!     ..SweepSpec::default()
//! });
//! let report = SweepRunner::new(scenario)?.smoke(true).run()?;
//! assert_eq!(report.points.len(), 2);
//! assert!(report.points.iter().all(|p| p.fps_per_watt > 0.0));
//! # Ok::<(), photofourier::PfError>(())
//! ```

use pf_core::{BackendKind, PfError, Scenario, SweepPlan, SweepPoint};
use pf_dsp::conv::{correlate2d, Matrix, PaddingMode};
use pf_dsp::util::max_abs_diff;
use pf_nn::Tensor;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::session::Session;

/// Schema identifier written into every sweep report.
pub const SWEEP_SCHEMA: &str = "photofourier/sweep-v1";

/// Measured results for one grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPointResult {
    /// Deterministic point id (the `axis=value` pairs; the `--filter` key).
    pub id: String,
    /// Full scenario name of the point (`<base>/<id>`).
    pub scenario: String,
    /// Backend registry name the functional probes ran on.
    pub backend: String,
    /// Backend 1D convolution capacity in samples.
    pub capacity: usize,
    /// Network registry name the performance model evaluated.
    pub network: String,
    /// Resolved accelerator design-point name.
    pub design_point: String,
    /// Resolved PFCU count after overrides.
    pub num_pfcus: usize,
    /// Temporal-accumulation depth of the numeric pipeline.
    pub temporal_depth: usize,
    /// Partial-sum ADC resolution (`None` = full-precision psums).
    pub psum_adc_bits: Option<u32>,
    /// Weight/activation quantisation width (`None` = disabled).
    pub quant_bits: Option<u32>,
    /// Analytical inference throughput in frames per second.
    pub fps: f64,
    /// Analytical average power in watts.
    pub avg_power_w: f64,
    /// Analytical power efficiency in FPS/W — the paper's headline metric.
    pub fps_per_watt: f64,
    /// Analytical energy-delay product in joule-seconds.
    pub edp: f64,
    /// Functional probe: max |optical − digital| of a row-tiled 2D
    /// convolution on this backend (0 for the digital backend itself).
    pub conv2d_max_abs_err: f64,
    /// Functional probe: mean |this backend − digital| over the
    /// feature-extractor inference features, identical numeric pipeline on
    /// both sides.
    pub inference_mean_abs_err: f64,
}

/// The full sweep report, serialisable as JSON ([`SweepReport::to_json`])
/// and CSV ([`SweepReport::to_csv`]). Contains no timestamps or wall-clock
/// fields, so serial and parallel runs of the same plan produce
/// byte-identical reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema identifier ([`SWEEP_SCHEMA`]).
    pub schema: String,
    /// Name of the base scenario the sweep was expanded from.
    pub base: String,
    /// Probe depth: `smoke` or `full`.
    pub mode: String,
    /// Per-point results, in deterministic expansion order.
    pub points: Vec<SweepPointResult>,
}

impl SweepReport {
    /// Serialises the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] on serialisation failure.
    pub fn to_json(&self) -> Result<String, PfError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Format`] for malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, PfError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Renders the report as CSV (header plus one row per point). Fields
    /// containing commas or quotes are quoted per RFC 4180; floats use
    /// Rust's shortest round-trip formatting, so the CSV is as deterministic
    /// as the JSON.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "id,scenario,backend,capacity,network,design_point,num_pfcus,temporal_depth,\
             psum_adc_bits,quant_bits,fps,avg_power_w,fps_per_watt,edp,conv2d_max_abs_err,\
             inference_mean_abs_err\n",
        );
        for p in &self.points {
            let opt = |v: Option<u32>| v.map(|b| b.to_string()).unwrap_or_default();
            let row = [
                csv_escape(&p.id),
                csv_escape(&p.scenario),
                p.backend.clone(),
                p.capacity.to_string(),
                p.network.clone(),
                csv_escape(&p.design_point),
                p.num_pfcus.to_string(),
                p.temporal_depth.to_string(),
                opt(p.psum_adc_bits),
                opt(p.quant_bits),
                p.fps.to_string(),
                p.avg_power_w.to_string(),
                p.fps_per_watt.to_string(),
                p.edp.to_string(),
                p.conv2d_max_abs_err.to_string(),
                p.inference_mean_abs_err.to_string(),
            ];
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Executes a [`SweepPlan`] and collects a [`SweepReport`].
///
/// Construction expands (and therefore validates) the whole grid up front;
/// [`SweepRunner::run`] then builds one [`Session`] per point. See the
/// [module docs](crate::sweep) for the determinism contract.
#[derive(Debug)]
pub struct SweepRunner {
    plan: SweepPlan,
    smoke: bool,
}

impl SweepRunner {
    /// Expands the scenario's `[sweep]` section into a plan. A scenario
    /// without one becomes a single-point sweep.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for invalid sweep axes or any
    /// invalid expanded point.
    pub fn new(scenario: Scenario) -> Result<Self, PfError> {
        Ok(Self::from_plan(SweepPlan::expand(&scenario)?))
    }

    /// Wraps an already-expanded plan.
    pub fn from_plan(plan: SweepPlan) -> Self {
        Self { plan, smoke: false }
    }

    /// Switches between smoke probes (16×16 convolution input, one
    /// inference image — the CI configuration) and full probes (32×32, two
    /// images). Analytical metrics are identical in both modes.
    pub fn smoke(mut self, smoke: bool) -> Self {
        self.smoke = smoke;
        self
    }

    /// Keeps only points whose id contains `pattern` (plain substring
    /// match — e.g. `backend=jtc_ideal` or `td=16`).
    pub fn filter(mut self, pattern: &str) -> Self {
        self.plan.retain_matching(pattern);
        self
    }

    /// The expanded (possibly filtered) plan.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Executes every point and assembles the report.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] when the plan has no points
    /// (a filter that matched nothing), or the first per-point error in
    /// expansion order.
    pub fn run(&self) -> Result<SweepReport, PfError> {
        let points = self.plan.points();
        if points.is_empty() {
            return Err(PfError::invalid_scenario(
                "sweep has no points to run (filter matched nothing?)",
            ));
        }
        let results: Vec<Result<SweepPointResult, PfError>> =
            points.par_iter().map(|p| self.evaluate_point(p)).collect();
        let points = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            schema: SWEEP_SCHEMA.to_string(),
            base: self.plan.base().name.clone(),
            mode: if self.smoke { "smoke" } else { "full" }.to_string(),
            points,
        })
    }

    /// Evaluates one grid point: analytical metrics plus functional probes.
    fn evaluate_point(&self, point: &SweepPoint) -> Result<SweepPointResult, PfError> {
        let scenario = &point.scenario;
        let session = Session::from_scenario(scenario.clone())?;
        let perf = session.evaluate_performance()?;
        let resolved = scenario.arch.resolve()?;

        let conv2d_max_abs_err = self.conv2d_probe(&session)?;
        let inference_mean_abs_err = self.inference_probe(&session, scenario)?;

        let quant = &scenario.pipeline.weight_quant;
        Ok(SweepPointResult {
            id: point.id.clone(),
            scenario: scenario.name.clone(),
            backend: scenario.backend.kind.name().to_string(),
            capacity: scenario.backend.capacity,
            network: scenario.network.clone(),
            design_point: resolved.name().to_string(),
            num_pfcus: resolved.tech.num_pfcus,
            temporal_depth: scenario.pipeline.temporal_depth,
            psum_adc_bits: scenario.pipeline.psum_adc_bits,
            quant_bits: quant.enabled.then_some(quant.bits),
            fps: perf.fps,
            avg_power_w: perf.avg_power_w,
            fps_per_watt: perf.fps_per_watt,
            edp: perf.edp,
            conv2d_max_abs_err,
            inference_mean_abs_err,
        })
    }

    /// Row-tiled 2D convolution on the point's backend vs the exact digital
    /// reference, on a fixed deterministic input.
    fn conv2d_probe(&self, session: &Session) -> Result<f64, PfError> {
        let size = if self.smoke { 16 } else { 32 };
        let input = Matrix::new(
            size,
            size,
            (0..size * size)
                .map(|i| (i as f64 * 0.17).sin() + 0.4)
                .collect(),
        )?;
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect())?;
        let optical = session.conv2d(&input, &kernel)?;
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        Ok(max_abs_diff(optical.data(), reference.data()))
    }

    /// Feature-extractor inference on the point's backend vs a
    /// digital-backend session running the identical numeric pipeline.
    fn inference_probe(&self, session: &Session, scenario: &Scenario) -> Result<f64, PfError> {
        let images = self.probe_images(scenario);
        let mut own = Vec::new();
        for image in &images {
            own.extend_from_slice(session.run_inference(image)?.data());
        }
        let reference = self.reference_features(scenario, &images)?;
        debug_assert_eq!(own.len(), reference.len());
        let n = own.len().max(1) as f64;
        Ok(own
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n)
    }

    fn probe_images(&self, scenario: &Scenario) -> Vec<Tensor> {
        let count = if self.smoke { 1 } else { 2 };
        let shape = vec![
            scenario.functional.input_channels,
            scenario.functional.input_size,
            scenario.functional.input_size,
        ];
        (0..count)
            .map(|i| Tensor::random(shape.clone(), 0.0, 1.0, 9000 + i as u64))
            .collect()
    }

    /// Digital-backend features for the probe images: the point's
    /// scenario with its backend switched to the exact digital reference.
    fn reference_features(
        &self,
        scenario: &Scenario,
        images: &[Tensor],
    ) -> Result<Vec<f64>, PfError> {
        let mut reference = scenario.clone();
        reference.backend.kind = BackendKind::Digital;
        let session = Session::from_scenario(reference)?;
        let mut features = Vec::new();
        for image in images {
            features.extend_from_slice(session.run_inference(image)?.data());
        }
        Ok(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::{BackendSpec, SweepSpec};

    fn sweep_scenario() -> Scenario {
        let mut scenario = Scenario::new("t", "resnet_s", BackendSpec::digital(128));
        scenario.sweep = Some(SweepSpec {
            backends: Some(vec!["digital".into(), "jtc_ideal".into()]),
            temporal_depths: Some(vec![1, 4]),
            ..SweepSpec::default()
        });
        scenario
    }

    #[test]
    fn serial_and_parallel_reports_are_bit_identical() {
        let run = || {
            SweepRunner::new(sweep_scenario())
                .unwrap()
                .smoke(true)
                .run()
                .unwrap()
        };
        let one_wide = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let serial = one_wide.install(run);
        let parallel = run();
        assert_eq!(serial, parallel);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.fps_per_watt.to_bits(), b.fps_per_watt.to_bits());
            assert_eq!(
                a.inference_mean_abs_err.to_bits(),
                b.inference_mean_abs_err.to_bits()
            );
        }
        assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn digital_points_probe_to_zero_error() {
        let report = SweepRunner::new(sweep_scenario())
            .unwrap()
            .smoke(true)
            .run()
            .unwrap();
        for p in report.points.iter().filter(|p| p.backend == "digital") {
            assert_eq!(p.conv2d_max_abs_err, 0.0, "{}", p.id);
            assert_eq!(p.inference_mean_abs_err, 0.0, "{}", p.id);
        }
        for p in report.points.iter().filter(|p| p.backend == "jtc_ideal") {
            assert!(p.conv2d_max_abs_err < 1e-8, "{}", p.id);
            assert!(p.inference_mean_abs_err < 1e-8, "{}", p.id);
        }
    }

    #[test]
    fn filter_restricts_and_empty_filter_errors() {
        let runner = SweepRunner::new(sweep_scenario())
            .unwrap()
            .smoke(true)
            .filter("td=4");
        assert_eq!(runner.plan().points().len(), 2);
        let report = runner.run().unwrap();
        assert!(report.points.iter().all(|p| p.id.contains("td=4")));

        let none = SweepRunner::new(sweep_scenario())
            .unwrap()
            .filter("no-such-axis");
        assert!(none.run().is_err());
    }

    #[test]
    fn report_round_trips_through_json_and_renders_csv() {
        let report = SweepRunner::new(sweep_scenario())
            .unwrap()
            .smoke(true)
            .filter("backend=digital")
            .run()
            .unwrap();
        let back = SweepReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(back, report);
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), report.points.len() + 1);
        assert!(lines[0].starts_with("id,scenario,backend"));
        // Ids contain commas, so the id field must be quoted.
        assert!(lines[1].starts_with("\""));
    }
}
