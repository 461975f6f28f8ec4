//! # PhotoFourier
//!
//! A Rust reproduction of **"PhotoFourier: A Photonic Joint Transform
//! Correlator-Based Neural Network Accelerator"** (HPCA 2023).
//!
//! PhotoFourier accelerates CNN inference with on-chip Fourier optics: a
//! Joint Transform Correlator (JTC) computes 1D convolutions "for free"
//! (time of flight through two lenses and a square-law non-linearity), the
//! *row tiling* algorithm maps 2D convolutions onto those 1D convolutions,
//! and *temporal accumulation* at the photodetectors keeps partial sums in
//! the analog domain so 8-bit ADCs running at 1/16th of the photonic clock
//! suffice.
//!
//! # The `Session` API
//!
//! The facade is organised around three types from [`pf_core`]:
//!
//! * [`Scenario`] — a declarative experiment description (network, backend,
//!   accelerator design point, numeric-pipeline options), loadable from
//!   TOML or JSON (see the `scenarios/` directory);
//! * [`Backend`] — the registry of 1D convolution
//!   substrates: the exact digital reference, the ideal simulated JTC
//!   optics, and the full PhotoFourier-CG signal chain;
//! * [`Session`] — built from one scenario, exposing **functional**
//!   execution ([`Session::conv2d`], [`Session::run_inference`],
//!   [`Session::run_batch`]) and **analytical** performance modeling
//!   ([`Session::evaluate_performance`]) for the same configuration.
//!
//! Scenarios with a `[sweep]` section expand into design-space grids; the
//! [`sweep::SweepRunner`] executes every point through per-point sessions
//! and collects a JSON/CSV-serialisable [`sweep::SweepReport`] (see
//! `docs/SCENARIOS.md`).
//!
//! For live traffic, [`serve::serve_scenario`] wraps a session in the
//! `pf-serve` micro-batching inference server: concurrent submissions are
//! formed into micro-batches under load, with explicit overload rejection
//! and p50/p95/p99 latency accounting (see `docs/SERVING.md`). To scale
//! out, [`route::route_scenario`] puts a `pf-router` front tier over N
//! replica shards: per-request deadlines and priority classes, pluggable
//! dispatch policies (`round_robin`, `least_loaded`, `kernel_affinity`),
//! and staged degradation under overload (shrink batch windows, shed the
//! lowest class, reject last).
//!
//! # Quickstart
//!
//! One scenario, two calls — a functional convolution through the simulated
//! optics that matches the digital reference, and the paper's headline
//! performance metrics:
//!
//! ```
//! use photofourier::prelude::*;
//!
//! let scenario = Scenario::new("quickstart", "resnet18", BackendSpec::jtc_ideal(256));
//! let session = Session::builder().scenario(scenario).build()?;
//!
//! // Functional: row-tiled 2D convolution on the simulated JTC optics.
//! let input = Matrix::new(8, 8, (0..64).map(|x| x as f64 * 0.1).collect())?;
//! let kernel = Matrix::new(3, 3, vec![0.5; 9])?;
//! let optical = session.conv2d(&input, &kernel)?;
//! let digital = correlate2d(&input, &kernel, PaddingMode::Valid);
//! assert!(pf_dsp::util::max_abs_diff(optical.data(), digital.data()) < 1e-8);
//!
//! // Analytical: throughput and efficiency of ResNet-18 on PhotoFourier-CG.
//! let perf = session.evaluate_performance()?;
//! assert!(perf.fps > 0.0 && perf.fps_per_watt > 0.0);
//! # Ok::<(), photofourier::PfError>(())
//! ```
//!
//! Scenarios can equally be loaded from files:
//!
//! ```no_run
//! use photofourier::prelude::*;
//!
//! let session = Session::builder()
//!     .scenario_path("scenarios/resnet18_cg.toml")?
//!     .build()?;
//! let perf = session.evaluate_performance()?;
//! println!("{}: {:.0} FPS, {:.1} FPS/W", perf.network, perf.fps, perf.fps_per_watt);
//! # Ok::<(), photofourier::PfError>(())
//! ```
//!
//! # Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | `PfError`, the `Backend` registry, `Scenario` |
//! | [`dsp`] | complex numbers, FFT, reference convolutions |
//! | [`photonics`] | DAC / ADC quantisers, sensing noise, the temporal-accumulation capacitor bank, Table IV & V constants |
//! | [`tiling`] | row tiling, partial row tiling, row partitioning (Section III) |
//! | [`jtc`] | JTC optics simulation, the `JtcEngine` backend, prepared kernel spectra, Figure 7's per-cycle ADC baseline (Sections II & IV) |
//! | [`nn`] | tensors, layers, the CNN model zoo, quantisation, fidelity & accuracy experiments |
//! | [`arch`] | the architecture simulator: dataflow, power, area, design-space exploration (Sections V & VI) |
//! | [`baselines`] | prior-accelerator reference models for the Figure 13 comparison |
//! | [`serve`] | the micro-batching inference server (`pf-serve`) wired to `Session` |
//! | [`route`] | the multi-replica SLO-aware routing tier (`pf-router`) over model-sharded sessions, and its fault-injected twin ([`route::chaos_scenario`]) |
//! | [`telemetry`] | metrics registry + span tracing (`pf-telemetry`): attach a [`Telemetry`] handle via [`SessionBuilder::telemetry`](session::SessionBuilder::telemetry) (a [`serve::serve_session`] over that session inherits it) or [`route::route_scenario_traced`] for per-request span trees and Chrome-trace export (see `docs/OBSERVABILITY.md`) |
//!
//! The per-crate APIs remain available underneath the facade — the
//! `Session` API composes them and deprecates nothing.

#![deny(missing_docs)]

pub mod route;
pub mod serve;
pub mod session;
pub mod sweep;

pub use pf_arch as arch;
pub use pf_baselines as baselines;
pub use pf_core as core;
pub use pf_dsp as dsp;
pub use pf_jtc as jtc;
pub use pf_nn as nn;
pub use pf_photonics as photonics;
pub use pf_telemetry as telemetry;
pub use pf_tiling as tiling;

pub use pf_core::{
    network_by_name, ArchPreset, ArchSpec, Backend, BackendKind, BackendSpec, FaultWindowSpec,
    FaultsSpec, FunctionalSpec, PfError, RouterSpec, Scenario, ServingSpec, SweepPlan, SweepPoint,
    SweepSpec, FAULT_KINDS, NETWORK_REGISTRY, ROUTER_POLICIES,
};
pub use pf_telemetry::{MetricsSnapshot, Stage, StageTotals, Telemetry};
pub use route::{ModelRequest, ModelShardEngine, SessionRouter};
pub use serve::{ServeConfig, Server, ServerStats, SessionServer, Ticket};
pub use session::{Session, SessionBuilder};
pub use sweep::{SweepPointResult, SweepReport, SweepRunner, SWEEP_SCHEMA};
pub use tiling::ParallelGrain;

/// Commonly used items re-exported in one place.
pub mod prelude {
    // The unified facade API.
    pub use crate::route::{ModelRequest, ModelShardEngine, SessionRouter};
    pub use crate::serve::{ServeConfig, Server, ServerStats, SessionServer, Ticket};
    pub use crate::session::{Session, SessionBuilder};
    pub use crate::sweep::{SweepPointResult, SweepReport, SweepRunner};
    pub use pf_core::{
        network_by_name, ArchPreset, ArchSpec, Backend, BackendKind, BackendSpec, FaultWindowSpec,
        FaultsSpec, FunctionalSpec, PfError, RouterSpec, Scenario, ServingSpec, SweepPlan,
        SweepPoint, SweepSpec, FAULT_KINDS, NETWORK_REGISTRY, ROUTER_POLICIES,
    };
    pub use pf_router::{Router, RouterConfig, RouterRequest, RouterStats, RouterTicket};
    pub use pf_telemetry::{MetricsSnapshot, SpanEvent, Stage, StageTotals, Telemetry};

    // The per-crate building blocks the facade composes.
    pub use pf_arch::config::ArchConfig;
    pub use pf_arch::design_space::{sweep_pfcu_counts, TABLE3_PFCU_COUNTS};
    pub use pf_arch::optimizations::OptimizationStep;
    pub use pf_arch::simulator::{NetworkPerformance, Simulator};
    pub use pf_baselines::AcceleratorModel;
    pub use pf_dsp::conv::{conv1d, correlate1d, correlate2d, Matrix, PaddingMode};
    pub use pf_jtc::correlator::JtcSimulator;
    pub use pf_jtc::engine::{JtcEngine, JtcEngineConfig};
    pub use pf_nn::executor::{PipelineConfig, ReferenceExecutor, TiledExecutor};
    pub use pf_nn::models::cifar::{crosslight_cnn, resnet_s};
    pub use pf_nn::models::imagenet::{alexnet, resnet18, resnet34, resnet50, vgg16};
    pub use pf_nn::models::NetworkSpec;
    pub use pf_nn::Tensor;
    pub use pf_photonics::params::{ComponentDims, TechConfig};
    pub use pf_tiling::{
        DigitalEngine, EdgeHandling, ParallelGrain, TiledConvolver, TilingPlan, TilingVariant,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let cfg = ArchConfig::photofourier_cg();
        assert_eq!(cfg.tech.num_pfcus, 8);
        let plan = TilingPlan::new(5, 5, 3, 3, 20).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        let scenario = Scenario::new("t", "resnet_s", BackendSpec::digital(64));
        assert!(Session::builder().scenario(scenario).build().is_ok());
    }
}
