//! The unified entry point spanning functional optics simulation and
//! analytical performance modeling.
//!
//! A [`Session`] is built from one [`Scenario`] and exposes both sides of
//! the reproduction for the *same* configuration:
//!
//! * **functional** — [`Session::conv2d`] runs a 2D convolution through row
//!   tiling on the scenario's backend, [`Session::run_inference`] /
//!   [`Session::run_batch`] run the runnable feature-extractor CNN through
//!   the full numeric pipeline (quantisation, pseudo-negative weights,
//!   temporal accumulation);
//! * **analytical** — [`Session::evaluate_performance`] runs the
//!   architecture simulator on the scenario's network and design point.
//!
//! The functional side holds **one** [`TiledExecutor`] over **one**
//! backend instance: inference runs on the executor, the `conv2d` paths on
//! the executor's own convolver ([`TiledExecutor::convolver`]), so one
//! engine and one telemetry handle serve every call, and on a stochastic
//! backend `conv2d*` and unseeded [`Session::run_inference`] draw from the
//! one session noise stream in call order. Each seeded request
//! additionally gets its own engine, driven through a view of the same
//! executor ([`TiledExecutor::on`]): the request owns its noise stream and
//! shares everything deterministic, the lowered layers' prepared kernel
//! sets included. Per-call
//! execution tallies are read from [`Session::telemetry`] snapshots
//! (`tiling.*` counters, stage totals).
//!
//! Parallelism is one rule, applied at the one batch loop
//! ([`Session::run_batch`]): **images fan out across the pool when the
//! batch can fill it** (`images >= rayon::current_num_threads()`);
//! otherwise the loop is serial and each image's tiles may fan out instead,
//! under the engine's cost hint. The two never nest, and no caller has to
//! arrange that: the pool gives every worker of a parallel region a width
//! of 1 (`vendor/rayon`), so a session driven from inside somebody else's
//! region — a sweep fanning out over grid points — runs serially on its
//! worker. Every choice is bit-identical (`docs/PERFORMANCE.md`, "Reading
//! the scaling curves").
//!
//! "Functional accuracy + analytical performance for one configuration" is
//! therefore a two-call flow:
//!
//! ```
//! use photofourier::prelude::*;
//!
//! let scenario = Scenario::new("demo", "resnet18", BackendSpec::jtc_ideal(256));
//! let session = Session::builder().scenario(scenario).build()?;
//!
//! let input = Matrix::new(8, 8, (0..64).map(|x| x as f64 * 0.1).collect())?;
//! let kernel = Matrix::new(3, 3, vec![0.5; 9])?;
//! let optical = session.conv2d(&input, &kernel)?;          // functional
//! let perf = session.evaluate_performance()?;              // analytical
//! assert!(perf.fps > 0.0);
//! # assert_eq!(optical.rows(), 6);
//! # Ok::<(), photofourier::PfError>(())
//! ```

use pf_arch::simulator::{NetworkPerformance, Simulator};
use pf_core::{Backend, BackendSpec, PfError, Scenario};
use pf_dsp::conv::Matrix;
use pf_nn::executor::{Conv2dExecutor, TiledExecutor};
use pf_nn::models::small::SmallCnn;
use pf_nn::models::NetworkSpec;
use pf_nn::Tensor;
use pf_telemetry::Telemetry;
use rayon::prelude::*;

/// Builder for [`Session`].
#[derive(Debug, Default)]
pub struct SessionBuilder {
    scenario: Option<Scenario>,
    backend_override: Option<BackendSpec>,
    telemetry: Telemetry,
}

impl SessionBuilder {
    /// Uses the given scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Loads the scenario from a `.toml` or `.json` file.
    ///
    /// # Errors
    ///
    /// Returns the scenario parse/validation error, deferred to
    /// [`SessionBuilder::build`].
    pub fn scenario_path(self, path: impl AsRef<std::path::Path>) -> Result<Self, PfError> {
        let scenario = Scenario::from_path(path)?;
        Ok(self.scenario(scenario))
    }

    /// Overrides the scenario's backend (useful for cross-backend
    /// comparisons of one scenario).
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend_override = Some(spec);
        self
    }

    /// Attaches an observability handle (default
    /// [`Telemetry::disabled`]): every convolution the session drives
    /// records its four JTC stage timings and tiling counters into the
    /// handle's registry, and the serving layers re-use the same handle to
    /// build per-request span trees. Tracing observes and never perturbs —
    /// results are bit-identical with telemetry enabled or disabled.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Validates the configuration and instantiates the session.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] if no scenario was supplied or
    /// the (possibly overridden) scenario is inconsistent, and propagates
    /// backend/simulator construction errors.
    pub fn build(self) -> Result<Session, PfError> {
        let mut scenario = self
            .scenario
            .ok_or_else(|| PfError::invalid_scenario("Session::builder() needs a scenario"))?;
        if let Some(backend) = self.backend_override {
            scenario.backend = backend;
        }
        scenario.validate()?;
        let network = scenario.network_spec()?;
        let backend = scenario.backend.instantiate()?;
        let backend_id = backend.id();
        let executor = TiledExecutor::new(backend, scenario.backend.capacity, scenario.pipeline)?
            .with_telemetry(self.telemetry.clone());
        let cnn = SmallCnn::new(
            scenario.functional.input_channels,
            scenario.functional.input_size,
            scenario.functional.weight_seed,
        )?;
        let simulator = Simulator::new(scenario.arch.resolve()?)?;
        Ok(Session {
            scenario,
            network,
            backend_id,
            executor,
            cnn,
            simulator,
            telemetry: self.telemetry,
        })
    }
}

/// A configured PhotoFourier session: one scenario, one backend instance,
/// one architecture simulator.
#[derive(Debug)]
pub struct Session {
    scenario: Scenario,
    network: NetworkSpec,
    backend_id: String,
    /// The executor behind every functional path: inference runs on it,
    /// the `conv2d` paths on its convolver ([`TiledExecutor::convolver`]).
    executor: TiledExecutor<Box<dyn Backend>>,
    cnn: SmallCnn,
    simulator: Simulator,
    /// Observability handle of the executor (and through it of per-request
    /// seeded engines). Disabled by default.
    telemetry: Telemetry,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Builds a session directly from a scenario: the builder with every
    /// other setting at its default (telemetry disabled).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SessionBuilder::build`].
    pub fn from_scenario(scenario: Scenario) -> Result<Self, PfError> {
        Self::builder().scenario(scenario).build()
    }

    /// The session's observability handle (disabled unless one was
    /// attached at build time).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The scenario this session was built from (including any builder
    /// overrides).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Identity of the instantiated backend, e.g. `jtc_ideal(256)`.
    pub fn backend_id(&self) -> &str {
        &self.backend_id
    }

    /// The one parallelism rule of the batch loop: a batch of `items`
    /// images fans out across the pool exactly when it can fill it. Below
    /// that the loop runs serially and the tiles of each image may fan out
    /// instead (the tiling layer's gate, under the engine's cost hint). On a
    /// 1-wide pool — and on a worker of somebody else's parallel region,
    /// where the pool answers 1 — every batch "fills" it and the fan-out
    /// runs inline.
    fn images_fan_out(items: usize) -> bool {
        items >= rayon::current_num_threads()
    }

    /// Whether the session backend draws random noise samples
    /// (`photofourier_cg`). Stochastic sessions are still reproducible —
    /// batch and serving paths seed one engine per work item — but their
    /// results differ from the digital reference by design.
    pub fn is_stochastic(&self) -> bool {
        self.scenario.backend.kind.is_stochastic()
    }

    /// Lowers every layer of the functional network — its kernel sets
    /// prepared and kept by the session executor — by running one
    /// zero-valued image through the pipeline, so the first real request
    /// doesn't pay the per-kernel spectrum preparation (an inference server
    /// calls this before accepting traffic).
    ///
    /// The image runs through [`Session::run_inference_seeded`]. On a
    /// stochastic backend that is a throwaway seeded engine: kernel
    /// preparation draws no noise, so the layers it lowers serve every
    /// later seeded request and the session engine alike, while the
    /// session engine's own noise stream is not advanced —
    /// [`Session::run_inference`] and the `conv2d` paths return the same
    /// bits with or without a warm-up.
    ///
    /// # Errors
    ///
    /// Propagates the warm-up inference's error, if any.
    pub fn warmup(&self) -> Result<(), PfError> {
        let zero = Tensor::zeros(vec![
            self.scenario.functional.input_channels,
            self.scenario.functional.input_size,
            self.scenario.functional.input_size,
        ]);
        let _ = self.run_inference_seeded(&zero, 0)?;
        Ok(())
    }

    /// The resolved network the performance model evaluates.
    pub fn network(&self) -> &NetworkSpec {
        &self.network
    }

    /// 2D `valid` cross-correlation through row tiling on the session
    /// backend — the functional core of the paper (Section III).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Tiling`] if the kernel does not fit the input or
    /// the backend capacity.
    pub fn conv2d(&self, input: &Matrix, kernel: &Matrix) -> Result<Matrix, PfError> {
        Ok(self.executor.convolver().correlate2d_valid(input, kernel)?)
    }

    /// Correlates one input against **many kernels of one shape** through
    /// row tiling, grouped by input tile: each tile is built once and — on
    /// backends with signal sharing (the JTC optics) — its Fourier
    /// transform is computed once and replayed against every prepared
    /// kernel spectrum. On deterministic backends the k-th result is
    /// bit-identical to `self.conv2d(input, &kernels[k])`; on the
    /// stochastic CG backend the sensing-noise stream is consumed
    /// tile-by-tile across the kernel set, so results are distributed
    /// identically to — but not bitwise equal to — sequential per-kernel
    /// calls. How often a tile's transform was reused shows up in the
    /// `tiling.spectrum_hits` / `tiling.spectrum_misses` counters of the
    /// session's [`Telemetry`] handle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::conv2d`], plus a [`PfError::Tiling`]
    /// error if the kernels differ in shape.
    pub fn conv2d_multi(&self, input: &Matrix, kernels: &[Matrix]) -> Result<Vec<Matrix>, PfError> {
        Ok(self
            .executor
            .convolver()
            .correlate2d_valid_multi(input, kernels)?)
    }

    /// Runs one image through the runnable feature-extractor CNN on the
    /// session backend with the scenario's numeric pipeline, returning the
    /// flattened feature tensor.
    ///
    /// On a stochastic backend the sensing noise comes from the session
    /// engine's own stream — the one the `conv2d` paths also draw from — so
    /// the result depends on every unseeded call the session ran before it
    /// (and replays exactly when a fresh session repeats the same call
    /// sequence). [`Session::run_inference_seeded`] pins the stream per
    /// request instead.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Nn`] if the image does not match the scenario's
    /// functional input shape.
    pub fn run_inference(&self, image: &Tensor) -> Result<Tensor, PfError> {
        self.infer_on(&self.executor, image)
    }

    /// One image through the CNN on the given executor.
    fn infer_on(&self, executor: &dyn Conv2dExecutor, image: &Tensor) -> Result<Tensor, PfError> {
        let features = self.cnn.features(image, executor)?;
        let len = features.len();
        Ok(Tensor::new(vec![len], features)?)
    }

    /// Runs a batch of images, image `i` as
    /// [`Session::run_inference_seeded`]`(image, i)`. A batch that can fill
    /// the pool fans images across it (each image's tiles serial on its
    /// worker); a smaller batch runs images sequentially with each layer's
    /// tiles fanned out. Results are bit-identical either way.
    ///
    /// Deterministic regardless of thread scheduling: stochastic backends
    /// (the CG signal chain's sensing noise) get one independently-seeded
    /// engine per image, keyed by `noise_seed = image index`, instead of
    /// sharing the session engine's single noise stream across threads —
    /// and always fan out across images, whatever the batch size: tile
    /// dispatch is refused for nondeterministic engines, so images are the
    /// only work a stochastic batch can spread. For deterministic backends
    /// the result equals per-image [`Session::run_inference`] exactly.
    ///
    /// On backends with a prepared fast path (the JTC optics), each layer's
    /// kernel spectra are prepared when the layer is first lowered and
    /// reused across **every tile of every image of the batch** through the
    /// shared executor's lowered layers.
    ///
    /// # Errors
    ///
    /// Returns the first per-image error in input order, if any.
    pub fn run_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, PfError> {
        let infer = |i: usize| self.run_inference_seeded(&images[i], i as u64);
        if !self.is_stochastic() && !Self::images_fan_out(images.len()) {
            return (0..images.len()).map(infer).collect();
        }
        let indices: Vec<usize> = (0..images.len()).collect();
        let results: Vec<Result<Tensor, PfError>> = indices.par_iter().map(|&i| infer(i)).collect();
        results.into_iter().collect()
    }

    /// Runs one image on a fresh engine seeded with `noise_seed`.
    ///
    /// For deterministic backends this equals [`Session::run_inference`]
    /// exactly (the seed is ignored). For stochastic backends it pins the
    /// request's noise stream to the seed, which is how both
    /// [`Session::run_batch`] (seed = image index) and the `pf-serve`
    /// server (seed = admission sequence number) stay reproducible no
    /// matter how work is grouped or scheduled.
    ///
    /// The seeded engine **owns** only its sensing-noise stream. Everything
    /// deterministic it **shares** with the session: it runs on a view of
    /// the session executor ([`TiledExecutor::on`]), so the DAC-quantised
    /// kernel spectra come from the kernel sets of that executor's lowered
    /// layers (and a layer it is first to meet is lowered for everyone
    /// after it). The result is bit-identical to running the seeded engine
    /// on a fresh executor with nothing lowered.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run_inference`].
    pub fn run_inference_seeded(&self, image: &Tensor, noise_seed: u64) -> Result<Tensor, PfError> {
        if !self.is_stochastic() {
            return self.run_inference(image);
        }
        let backend = self.scenario.backend.instantiate_seeded(noise_seed)?;
        self.infer_on(&self.executor.on(backend)?, image)
    }

    /// Evaluates the scenario's network on the scenario's accelerator
    /// design point (the paper's performance/power/area model).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Arch`] if a layer cannot be scheduled.
    pub fn evaluate_performance(&self) -> Result<NetworkPerformance, PfError> {
        Ok(self.simulator.evaluate_network(&self.network)?)
    }

    /// Evaluates one specific layer of the scenario's network.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an out-of-range index, or
    /// propagates scheduling errors.
    pub fn evaluate_layer(
        &self,
        index: usize,
    ) -> Result<pf_arch::simulator::LayerPerformance, PfError> {
        let spec = self.network.conv_layers.get(index).ok_or_else(|| {
            PfError::invalid_scenario(format!(
                "layer index {index} out of range for {} ({} layers)",
                self.network.name,
                self.network.conv_layers.len()
            ))
        })?;
        Ok(self.simulator.evaluate_layer(spec)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::BackendKind;
    use pf_dsp::conv::{correlate2d, PaddingMode};
    use pf_dsp::util::max_abs_diff;

    fn scenario(kind: BackendKind) -> Scenario {
        Scenario::new(
            "test",
            "resnet_s",
            BackendSpec {
                kind,
                capacity: 256,
            },
        )
    }

    #[test]
    fn builder_requires_a_scenario() {
        assert!(Session::builder().build().is_err());
    }

    #[test]
    fn builder_overrides_apply() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::Digital))
            .backend(BackendSpec::jtc_ideal(128))
            .build()
            .unwrap();
        assert_eq!(session.backend_id(), "jtc_ideal(128)");
    }

    #[test]
    fn conv2d_matches_reference_on_ideal_backend() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::JtcIdeal))
            .build()
            .unwrap();
        let input =
            Matrix::new(10, 10, (0..100).map(|i| (i as f64 * 0.17).sin()).collect()).unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).unwrap();
        let optical = session.conv2d(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(optical.data(), reference.data()) < 1e-8);
    }

    #[test]
    fn inference_and_batch_agree() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::Digital))
            .build()
            .unwrap();
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 100 + i))
            .collect();
        let batch = session.run_batch(&images).unwrap();
        assert_eq!(batch.len(), images.len());
        for (image, features) in images.iter().zip(&batch) {
            let single = session.run_inference(image).unwrap();
            assert_eq!(&single, features);
            assert_eq!(features.shape(), &[session_feature_len(&session)]);
        }
    }

    #[test]
    fn stochastic_batches_are_reproducible() {
        // The CG chain draws sensing noise; run_batch must still be
        // deterministic across calls (per-image seeded engines), regardless
        // of how threads interleave.
        let session = Session::builder()
            .scenario(scenario(BackendKind::PhotofourierCg))
            .build()
            .unwrap();
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 300 + i))
            .collect();
        let a = session.run_batch(&images).unwrap();
        let b = session.run_batch(&images).unwrap();
        assert_eq!(a, b, "two identical batches must produce identical noise");
        assert_eq!(a.len(), images.len());
    }

    fn session_feature_len(session: &Session) -> usize {
        let size = session.scenario().functional.input_size;
        16 * (size / 4) * (size / 4)
    }

    fn pool(width: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap()
    }

    #[test]
    fn auto_grain_resolves_by_batch_size_vs_pool_width() {
        // Images fan out exactly when the batch can fill the pool...
        for width in [1usize, 2, 4] {
            pool(width).install(|| {
                for batch in [1usize, 3, 5, 8] {
                    assert_eq!(
                        Session::images_fan_out(batch),
                        batch >= width,
                        "batch {batch} on a {width}-wide pool"
                    );
                }
            });
        }
        // ...and on a worker of somebody else's region the pool is 1 wide,
        // so the "fan-out" of even a single image runs inline there.
        let nested: Vec<bool> = pool(4).install(|| {
            [(); 2]
                .par_iter()
                .map(|()| Session::images_fan_out(1) && rayon::current_num_threads() == 1)
                .collect()
        });
        assert_eq!(nested, [true, true]);
    }

    #[test]
    fn all_grains_produce_bit_identical_batches() {
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 700 + i))
            .collect();
        for kind in [BackendKind::Digital, BackendKind::JtcIdeal] {
            let session = Session::builder().scenario(scenario(kind)).build().unwrap();
            let ref_batch = pool(1).install(|| session.run_batch(&images).unwrap());
            // Three images: fanned out across a 2-wide pool, run one by
            // one with fanned-out tiles on a 4-wide one.
            for width in [2usize, 4] {
                pool(width).install(|| {
                    assert_eq!(session.run_batch(&images).unwrap(), ref_batch, "{width}");
                });
            }
        }
    }

    #[test]
    fn conv2d_stats_are_exposed() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::JtcIdeal))
            .telemetry(Telemetry::enabled())
            .build()
            .unwrap();
        let input =
            Matrix::new(32, 32, (0..1024).map(|i| (i as f64 * 0.03).sin()).collect()).unwrap();
        let kernel = Matrix::new(3, 3, vec![0.5; 9]).unwrap();
        let out = session.conv2d(&input, &kernel).unwrap();
        assert_eq!(out.rows(), 30);
        let stats = session.telemetry().snapshot();
        assert!(stats.counter("tiling.convs_1d") > 0);
        assert_eq!(stats.counter("tiling.conv2d_calls"), 1);
    }

    #[test]
    fn warmup_and_seeded_inference() {
        // Deterministic backend: warmup is invisible, seeds are ignored.
        let session = Session::builder()
            .scenario(scenario(BackendKind::JtcIdeal))
            .build()
            .unwrap();
        assert!(!session.is_stochastic());
        session.warmup().unwrap();
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 7);
        let plain = session.run_inference(&image).unwrap();
        let seeded = session.run_inference_seeded(&image, 99).unwrap();
        assert_eq!(plain, seeded);

        // Stochastic backend: warmup lowers the network through a
        // throwaway seeded engine, and seeds pin the result before and
        // after it.
        let session = Session::builder()
            .scenario(scenario(BackendKind::PhotofourierCg))
            .build()
            .unwrap();
        assert!(session.is_stochastic());
        let a = session.run_inference_seeded(&image, 3).unwrap();
        session.warmup().unwrap();
        let b = session.run_inference_seeded(&image, 3).unwrap();
        let c = session.run_inference_seeded(&image, 4).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same features");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn a_stochastic_session_draws_from_one_stream() {
        let build = || {
            Session::builder()
                .scenario(scenario(BackendKind::PhotofourierCg))
                .build()
                .unwrap()
        };
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 11);
        let images = vec![image.clone(), Tensor::random(vec![1, 16, 16], 0.0, 1.0, 12)];
        let input =
            Matrix::new(12, 12, (0..144).map(|i| (i as f64 * 0.13).sin()).collect()).unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).unwrap();

        // `conv2d` advances the stream the unseeded inference then reads:
        // the inference differs from a fresh session's first one, and the
        // same call sequence on another fresh session replays both.
        let first = build().run_inference(&image).unwrap();
        let session = build();
        let conv = session.conv2d(&input, &kernel).unwrap();
        let after_conv = session.run_inference(&image).unwrap();
        assert_ne!(after_conv, first, "conv2d and run_inference share a stream");
        let replay = build();
        assert_eq!(replay.conv2d(&input, &kernel).unwrap(), conv);
        assert_eq!(replay.run_inference(&image).unwrap(), after_conv);

        // Seeded requests own their stream: no interleaving with the
        // session's own draws moves them.
        let quiet = build();
        let seeded = quiet.run_inference_seeded(&image, 5).unwrap();
        let batch = quiet.run_batch(&images).unwrap();
        let busy = build();
        busy.conv2d_multi(&input, std::slice::from_ref(&kernel))
            .unwrap();
        assert_eq!(busy.run_inference_seeded(&image, 5).unwrap(), seeded);
        busy.conv2d(&input, &kernel).unwrap();
        busy.run_inference(&image).unwrap();
        assert_eq!(busy.run_batch(&images).unwrap(), batch);
        assert_eq!(busy.run_inference_seeded(&image, 5).unwrap(), seeded);
    }

    #[test]
    fn performance_is_consistent_with_direct_simulator() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::Digital))
            .build()
            .unwrap();
        let perf = session.evaluate_performance().unwrap();
        let direct = Simulator::new(pf_arch::ArchConfig::photofourier_cg())
            .unwrap()
            .evaluate_network(session.network())
            .unwrap();
        assert_eq!(perf, direct);
        assert!(session.evaluate_layer(0).is_ok());
        assert!(session.evaluate_layer(10_000).is_err());
    }

    #[test]
    fn bad_input_shape_reports_nn_error() {
        let session = Session::builder()
            .scenario(scenario(BackendKind::Digital))
            .build()
            .unwrap();
        let wrong = Tensor::random(vec![3, 16, 16], 0.0, 1.0, 5);
        assert!(matches!(session.run_inference(&wrong), Err(PfError::Nn(_))));
    }
}
