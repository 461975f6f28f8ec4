//! Direct calls into each lower layer's public functions, at the geometry
//! row tiling reports for the workload — the bottom rungs of the per-layer
//! ladder. Each probe runs its call repeatedly inside one span and reports
//! the p10 of the per-call times, the cost when nothing else had the core.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_dsp::complex::Complex;
use pf_dsp::conv::Matrix;
use pf_dsp::plan::RealFftPlan;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_nn::executor::ReferenceExecutor;
use pf_nn::models::small::SmallCnn;
use pf_nn::Tensor;
use pf_photonics::adc::Adc;
use pf_photonics::dac::Dac;
use pf_photonics::detector::SensingNoise;
use pf_router::{ReplicaEngine, Router, RouterConfig, RouterRequest};
use pf_serve::{InferenceEngine, ServeConfig, Server};
use pf_tiling::{DigitalEngine, TiledConvolver};
use photofourier::{PfError, Scenario, Session};

use crate::inputs::SplitMix64;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::quantile;

/// Samples per probe at most.
const MAX_SAMPLES: usize = 2000;
/// Samples per probe at least, whatever the budget.
const MIN_SAMPLES: usize = 20;
/// Samples of a 256-wide converter row.
const ROW: usize = 256;
/// Rows per batched transform probe.
const BATCH_ROWS: usize = 8;

/// Runs probes against one recorder under one time budget per probe.
#[derive(Debug)]
pub struct Prober {
    recorder: Arc<Recorder>,
    budget: Duration,
}

impl Prober {
    /// Probes that each stop after `budget` (or [`MAX_SAMPLES`] calls).
    pub fn new(recorder: Arc<Recorder>, budget: Duration) -> Self {
        Self { recorder, budget }
    }

    /// Per-call times of `f` in microseconds, measured inside one span
    /// called `name`.
    pub fn samples_us(&self, name: &'static str, mut f: impl FnMut()) -> Vec<f64> {
        let _span = self.recorder.enter(name);
        let begin = Instant::now();
        let mut samples = Vec::with_capacity(MAX_SAMPLES);
        while samples.len() < MAX_SAMPLES
            && (samples.len() < MIN_SAMPLES || begin.elapsed() < self.budget)
        {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        samples
    }

    /// p10 of [`Prober::samples_us`].
    pub fn p10_us(&self, name: &'static str, f: impl FnMut()) -> f64 {
        quantile(&mut self.samples_us(name, f), 0.10)
    }
}

/// The 1D geometry row tiling uses for the workload's `size × size` input
/// and `3 × 3` kernels, and the transform grid the optics pick for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Tiled input (signal) length.
    pub signal_len: usize,
    /// Tiled kernel length.
    pub kernel_len: usize,
    /// Simulation grid length of the prepared optics.
    pub grid: usize,
    /// Backend capacity.
    pub capacity: usize,
}

impl Geometry {
    /// The geometry `TiledConvolver::plan` and `JtcEngine::prepare` report
    /// for `scenario`.
    ///
    /// # Errors
    ///
    /// Tiling or optics configuration errors.
    pub fn of(scenario: &Scenario) -> Result<Self, PfError> {
        let capacity = scenario.backend.capacity;
        let size = scenario.functional.input_size;
        let plan = TiledConvolver::new(DigitalEngine, capacity)?
            .plan(&Matrix::zeros(size, size), &Matrix::zeros(3, 3))?;
        let (signal_len, kernel_len) = (plan.tiled_input_len(), plan.tiled_kernel_len());
        let grid = JtcEngine::ideal(capacity)?
            .prepare(&vec![1.0; kernel_len], signal_len)?
            .spectrum()
            .grid_size();
        Ok(Self {
            signal_len,
            kernel_len,
            grid,
            capacity,
        })
    }
}

fn values(rng: &mut SplitMix64, len: usize, low: f64, high: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range(low, high)).collect()
}

/// pf-core, pf-dsp, pf-photonics and pf-jtc probes.
///
/// # Errors
///
/// Configuration errors of the probed layers (none are expected at a
/// geometry the workload itself runs).
pub fn lower_layers(
    out: &mut Outcome,
    prober: &Prober,
    scenario: &Scenario,
    scenario_file: &std::path::Path,
    seed: u64,
) -> Result<(), PfError> {
    let geometry = Geometry::of(scenario)?;
    let mut rng = SplitMix64::new(seed, 0x9B0B);
    let signal = values(&mut rng, geometry.signal_len, 0.0, 1.0);
    let kernel = values(&mut rng, geometry.kernel_len, -1.0, 1.0);

    // pf-core
    out.metric(
        "pf-core.scenario_load_us",
        prober.p10_us("pf-core.scenario_load", || {
            black_box(Scenario::from_path(scenario_file).expect("the workload scenario loads"));
        }),
    );
    let mut noise_seed = 0;
    out.metric(
        "pf-core.backend_instantiate_us",
        prober.p10_us("pf-core.backend_instantiate", || {
            noise_seed += 1;
            black_box(
                scenario
                    .backend
                    .instantiate_seeded(noise_seed)
                    .expect("the workload backend instantiates"),
            );
        }),
    );

    // pf-dsp
    let n = geometry.grid;
    out.metric(
        "pf-dsp.plan_build_us",
        prober.p10_us("pf-dsp.plan_build", || {
            black_box(RealFftPlan::new(n).expect("the grid length is a valid plan length"));
        }),
    );
    let plan = RealFftPlan::shared(n)?;
    let (mut scratch, mut half): (Vec<Complex>, Vec<Complex>) = (Vec::new(), Vec::new());
    out.metric(
        "pf-dsp.rfft_us",
        prober.p10_us("pf-dsp.rfft", || {
            plan.forward_real_into(&signal, &mut scratch, &mut half)
                .expect("the signal fits the grid");
            black_box(&half);
        }),
    );
    let rows = values(&mut rng, BATCH_ROWS * geometry.signal_len, 0.0, 1.0);
    out.metric(
        "pf-dsp.rfft_batch_us_per_row",
        prober.p10_us("pf-dsp.rfft_batch", || {
            plan.forward_real_batch_into(&rows, BATCH_ROWS, &mut scratch, &mut half)
                .expect("equal rows that fit the grid");
            black_box(&half);
        }) / BATCH_ROWS as f64,
    );
    out.metric("pf-dsp.grid_len", n as f64);
    out.metric("pf-dsp.rfft_flops", 2.5 * n as f64 * (n as f64).log2());

    // pf-photonics: the CG chain's converters and noise source, one
    // 256-sample row per call.
    let cg = JtcEngineConfig::photofourier_cg(geometry.capacity);
    let row = values(&mut rng, ROW, 0.0, 1.0);
    let dac = Dac::new(cg.dac_bits.unwrap_or(8), 10.0, 35.71)?;
    out.metric(
        "pf-photonics.dac_us_per_row",
        prober.p10_us("pf-photonics.dac", || {
            black_box(dac.generate_slice(&row));
        }),
    );
    let adc = Adc::new(cg.adc_bits.unwrap_or(8), 0.625, 0.93)?;
    out.metric(
        "pf-photonics.adc_us_per_row",
        prober.p10_us("pf-photonics.adc", || {
            black_box(adc.quantize_slice(&row, 1.0));
        }),
    );
    let mut noise = SensingNoise::from_snr_db(
        cg.sensing_snr_db
            .unwrap_or(pf_photonics::params::TARGET_SNR_DB),
        1.0,
        seed,
    )?;
    out.metric(
        "pf-photonics.noise_us_per_row",
        prober.p10_us("pf-photonics.noise", || {
            black_box(noise.perturb_slice(&row));
        }),
    );

    // pf-jtc
    let ideal = JtcEngine::ideal(geometry.capacity)?;
    out.metric(
        "pf-jtc.prepare_us",
        prober.p10_us("pf-jtc.prepare", || {
            black_box(
                ideal
                    .prepare(&kernel, geometry.signal_len)
                    .expect("the workload geometry prepares"),
            );
        }),
    );
    let prepared = ideal.prepare(&kernel, geometry.signal_len)?;
    out.metric(
        "pf-jtc.correlate_us",
        prober.p10_us("pf-jtc.correlate", || {
            black_box(
                prepared
                    .correlate(&signal)
                    .expect("prepared for this length"),
            );
        }),
    );
    let prepared_cg = JtcEngine::new(cg)?.prepare(&kernel, geometry.signal_len)?;
    out.metric(
        "pf-jtc.correlate_cg_us",
        prober.p10_us("pf-jtc.correlate_cg", || {
            black_box(
                prepared_cg
                    .correlate(&signal)
                    .expect("prepared for this length"),
            );
        }),
    );
    let spectrum = prepared.spectrum();
    out.metric(
        "pf-jtc.signal_spectrum_us",
        prober.p10_us("pf-jtc.signal_spectrum", || {
            black_box(
                spectrum
                    .signal_spectrum(&signal)
                    .expect("prepared for this length"),
            );
        }),
    );
    let shared = spectrum.signal_spectrum(&signal)?;
    out.metric(
        "pf-jtc.correlate_spectrum_us",
        prober.p10_us("pf-jtc.correlate_spectrum", || {
            black_box(spectrum.correlate_spectrum(&shared).expect("same geometry"));
        }),
    );
    Ok(())
}

/// pf-nn's reference executor and pf-arch's network evaluation.
///
/// # Errors
///
/// Network or simulator errors.
pub fn oracle_and_arch(
    out: &mut Outcome,
    prober: &Prober,
    session: &Session,
    image: &Tensor,
) -> Result<(), PfError> {
    let functional = session.scenario().functional;
    let cnn = SmallCnn::new(
        functional.input_channels,
        functional.input_size,
        functional.weight_seed,
    )?;
    out.metric(
        "pf-nn.reference_forward_us",
        prober.p10_us("pf-nn.reference_forward", || {
            black_box(
                cnn.features(image, &ReferenceExecutor)
                    .expect("the image has the scenario's shape"),
            );
        }),
    );
    out.metric(
        "pf-arch.evaluate_network_us",
        prober.p10_us("pf-arch.evaluate_network", || {
            black_box(
                session
                    .evaluate_performance()
                    .expect("the scenario's network schedules"),
            );
        }),
    );
    let sim = crate::offline::simulated(session)?;
    out.metric("pf-arch.sim_latency_ms", sim.latency_ms);
    out.metric("pf-arch.sim_energy_mj", sim.energy_mj);
    out.metric("pf-arch.sim_avg_power_w", sim.avg_power_w);
    Ok(())
}

/// An engine that does nothing: what remains is the tier's own cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopEngine;

impl InferenceEngine for NoopEngine {
    type Request = u64;
    type Response = u64;

    fn infer_batch(&self, inputs: &[u64], _seqs: &[u64]) -> Result<Vec<u64>, PfError> {
        Ok(inputs.to_vec())
    }
}

impl ReplicaEngine for NoopEngine {}

/// Serving-tier floors: submit cost and idle round trip of `pf-serve` and
/// `pf-router` over [`NoopEngine`], one request at a time, with the
/// workload's serving configuration (the scenario's, or the default).
///
/// # Errors
///
/// Tier configuration errors.
pub fn serving_floors(
    out: &mut Outcome,
    prober: &Prober,
    scenario: &Scenario,
) -> Result<(), PfError> {
    let serving = scenario.serving.clone().unwrap_or_default();
    let server = Server::new(NoopEngine, ServeConfig::from_spec(&serving))?;
    let (mut submit, mut k) = (Vec::new(), 0u64);
    let round_trip = prober.samples_us("pf-serve.roundtrip_idle", || {
        k += 1;
        let t0 = Instant::now();
        let ticket = server.submit(k).expect("an idle server admits");
        submit.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(ticket.wait().expect("the no-op engine never fails"));
    });
    server.shutdown()?;
    out.metric("pf-serve.submit_us", quantile(&mut submit, 0.10));
    out.metric(
        "pf-serve.roundtrip_idle_us",
        quantile(&mut round_trip.clone(), 0.10),
    );

    let router = Router::new(RouterConfig::from_spec(&serving)?, |_| Ok(NoopEngine))?;
    let mut submit = Vec::new();
    let round_trip = prober.samples_us("pf-router.roundtrip_idle", || {
        k += 1;
        let t0 = Instant::now();
        let ticket = router
            .submit(RouterRequest::new(k).with_affinity(k % 3))
            .expect("an idle router admits");
        submit.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(ticket.wait().expect("the no-op engine never fails"));
    });
    router.drain()?;
    out.metric("pf-router.submit_us", quantile(&mut submit, 0.10));
    out.metric(
        "pf-router.roundtrip_idle_us",
        quantile(&mut round_trip.clone(), 0.10),
    );
    Ok(())
}
