//! One function per table / figure of the paper's evaluation.

use pf_arch::area::{AreaBreakdown, AreaModel};
use pf_arch::config::ArchConfig;
use pf_arch::design_space::{sweep_pfcu_counts, DesignPoint, TABLE3_PFCU_COUNTS};
use pf_arch::optimizations::OptimizationStep;
use pf_arch::parallel::{sweep_input_broadcast, SweepPoint};
use pf_arch::power::EnergyBreakdown;
use pf_arch::simulator::{NetworkPerformance, Simulator};
use pf_arch::ArchError;
use pf_baselines::digital::SystolicArray;
use pf_baselines::published::{prior_photonic_accelerators, CROSSLIGHT_ENERGY_PER_INFERENCE_UJ};
use pf_baselines::AcceleratorModel;
use pf_dsp::conv::Matrix;
use pf_jtc::correlator::JtcSimulator;
use pf_jtc::temporal::accumulate_quantized_per_cycle;
use pf_nn::dataset::{DatasetConfig, SyntheticDataset};
use pf_nn::executor::{PipelineConfig, ReferenceExecutor, TiledExecutor};
use pf_nn::fidelity::{evaluate_network, FidelityConfig, FidelityReport};
use pf_nn::models::cifar::{crosslight_cnn, resnet_s};
use pf_nn::models::imagenet::{alexnet, resnet18, vgg16};
use pf_nn::models::small::SmallCnn;
use pf_nn::models::{comparison_suite, paper_benchmark_suite, NetworkSpec};
use pf_nn::train::{accuracy, train_linear_probe, TrainConfig};
use pf_photonics::adc::Adc;
use pf_photonics::temporal::accumulate_with_depth;
use pf_tiling::{tile_input_rows, tile_kernel, DigitalEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Result of the Figure 2 experiment: the JTC output plane for a row-tiled
/// CIFAR-sized input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Result {
    /// Output-plane intensity, fft-shifted so the optical axis is centred.
    pub intensity: Vec<f64>,
    /// Whether the three output terms are spatially separated.
    pub terms_separated: bool,
    /// Relative L2 error of the extracted correlation term against the
    /// digital reference.
    pub extraction_error: f64,
}

/// Reproduces Figure 2: simulate the JTC output of a 256-element row-tiled
/// input with a tiled 3×3 kernel.
///
/// # Errors
///
/// Propagates JTC simulation errors.
pub fn fig02_jtc_output() -> Result<Fig2Result, pf_jtc::JtcError> {
    let image = Matrix::new(
        32,
        32,
        (0..1024)
            .map(|i| {
                let (r, c) = (i / 32, i % 32);
                (((r as f64) * 0.4).sin() * ((c as f64) * 0.25).cos()).abs()
            })
            .collect(),
    )
    .expect("static image shape is valid");
    let kernel = Matrix::new(3, 3, vec![0.1, 0.3, 0.1, 0.3, 1.0, 0.3, 0.1, 0.3, 0.1])
        .expect("static kernel shape is valid");

    let tiled_input = tile_input_rows(&image, 0, 8, 256);
    let tiled_kernel: Vec<f64> = tile_kernel(&kernel, 32, 256)[..2 * 32 + 3].to_vec();

    let jtc = JtcSimulator::new(256)?;
    let output = jtc.output_plane(&tiled_input, &tiled_kernel)?;
    let extracted = output.valid_correlation();
    let reference = pf_dsp::conv::correlate1d(
        &tiled_input,
        &tiled_kernel,
        pf_dsp::conv::PaddingMode::Valid,
    );
    Ok(Fig2Result {
        intensity: output.intensity_shifted(),
        terms_separated: output.terms_are_separated(1e-6),
        extraction_error: pf_dsp::util::relative_l2_error(&extracted, &reference),
    })
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Result of the Table I experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tab1Result {
    /// Per-network, per-layer fidelity of the row-tiled pipeline.
    pub fidelity: Vec<FidelityReport>,
    /// End-to-end accuracy proxy: (configuration label, accuracy).
    pub accuracy_proxy: Vec<(String, f64)>,
}

/// Reproduces the Table I experiment in two parts: (a) per-layer numerical
/// fidelity of row tiling + 8-bit quantisation on the three comparison
/// networks, and (b) an end-to-end accuracy proxy on the synthetic dataset
/// comparing the reference executor with the PhotoFourier pipeline (see
/// DESIGN.md for the ImageNet substitution).
///
/// # Errors
///
/// Propagates fidelity-evaluation and training errors.
pub fn tab1_row_tiling_accuracy() -> Result<Tab1Result, Box<dyn std::error::Error>> {
    let config = FidelityConfig {
        max_input_size: 32,
        max_in_channels: 8,
        max_out_channels: 2,
        seed: 11,
    };
    let mut fidelity = Vec::new();
    for network in comparison_suite() {
        fidelity.push(evaluate_network(
            &network,
            || DigitalEngine,
            256,
            PipelineConfig::photofourier_default(),
            &config,
        )?);
    }

    // Accuracy proxy: linear probe on reference features, evaluated with
    // features from the reference executor and from the PhotoFourier
    // pipeline (with and without the row-tiling edge approximation).
    let dataset = SyntheticDataset::new(DatasetConfig {
        num_classes: 8,
        image_size: 16,
        noise_sigma: 0.5,
        max_shift: 3,
        seed: 21,
    })?;
    let train_set = dataset.generate(25, 1);
    let test_set = dataset.generate(30, 2);
    let cnn = SmallCnn::new(1, 16, 5)?;
    let train_features = cnn.features_batch(&train_set.images, &ReferenceExecutor)?;
    let probe = train_linear_probe(
        &train_features,
        &train_set.labels,
        train_set.num_classes,
        TrainConfig::default(),
    )?;

    let mut accuracy_proxy = Vec::new();
    let reference_features = cnn.features_batch(&test_set.images, &ReferenceExecutor)?;
    accuracy_proxy.push((
        "reference fp64 (original)".to_string(),
        accuracy(&probe, &reference_features, &test_set.labels)?,
    ));
    let tiled = TiledExecutor::new(DigitalEngine, 256, PipelineConfig::photofourier_default())?;
    let tiled_features = cnn.features_batch(&test_set.images, &tiled)?;
    accuracy_proxy.push((
        "row tiling + 8-bit (ours)".to_string(),
        accuracy(&probe, &tiled_features, &test_set.labels)?,
    ));
    let mut ideal = PipelineConfig::ideal();
    ideal.edge_handling = pf_tiling::EdgeHandling::ZeroPad;
    let exact = TiledExecutor::new(DigitalEngine, 256, ideal)?;
    let exact_features = cnn.features_batch(&test_set.images, &exact)?;
    accuracy_proxy.push((
        "row tiling, zero-padded, fp64".to_string(),
        accuracy(&probe, &exact_features, &test_set.labels)?,
    ));

    Ok(Tab1Result {
        fidelity,
        accuracy_proxy,
    })
}

// ---------------------------------------------------------------------------
// Figure 6 / Figure 12
// ---------------------------------------------------------------------------

/// Power profile of one design point on one or more networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Design-point name.
    pub design_point: String,
    /// Average power over the evaluated networks, in watts.
    pub avg_power_w: f64,
    /// Aggregated energy breakdown.
    pub breakdown: EnergyBreakdown,
}

fn power_profile(config: ArchConfig, networks: &[NetworkSpec]) -> Result<PowerProfile, ArchError> {
    let sim = Simulator::new(config)?;
    let mut breakdown = EnergyBreakdown::default();
    let mut power_sum = 0.0;
    for network in networks {
        let perf = sim.evaluate_network(network)?;
        breakdown += perf.breakdown;
        power_sum += perf.avg_power_w;
    }
    Ok(PowerProfile {
        design_point: sim.config().name().to_string(),
        avg_power_w: power_sum / networks.len() as f64,
        breakdown,
    })
}

/// Reproduces Figure 6: power contribution of each component of the
/// un-optimised 1-PFCU baseline running VGG-16.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig06_baseline_power() -> Result<PowerProfile, ArchError> {
    power_profile(ArchConfig::baseline_single_pfcu(), &[vgg16()])
}

/// Reproduces Figure 12: power breakdown of PhotoFourier-CG and -NG averaged
/// over the five benchmark CNNs.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig12_power_breakdown() -> Result<Vec<PowerProfile>, ArchError> {
    let networks = paper_benchmark_suite();
    Ok(vec![
        power_profile(ArchConfig::photofourier_cg(), &networks)?,
        power_profile(ArchConfig::photofourier_ng(), &networks)?,
    ])
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Point {
    /// Temporal accumulation depth.
    pub depth: usize,
    /// Relative error of the accumulated partial sums against the exact sum
    /// (ResNet-s-like 64-channel accumulation, 8-bit ADC).
    pub psum_relative_error: f64,
    /// End-to-end accuracy of the synthetic classification proxy at this
    /// depth.
    pub accuracy: f64,
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Sweep over accumulation depths.
    pub points: Vec<Fig7Point>,
    /// Accuracy with full-precision partial sums (the `fp psum` reference).
    pub fp_psum_accuracy: f64,
    /// Accuracy of the exact fp64 reference pipeline.
    pub reference_accuracy: f64,
}

/// Reproduces Figure 7: accuracy (and partial-sum error) versus temporal
/// accumulation depth with an 8-bit partial-sum ADC.
///
/// # Errors
///
/// Propagates accumulation, dataset and training errors.
pub fn fig07_temporal_accumulation() -> Result<Fig7Result, Box<dyn std::error::Error>> {
    // (a) Numerical part: accumulate 64 input channels (ResNet-s block 3
    // width) of random partial sums through an 8-bit ADC at each depth.
    let mut rng = StdRng::seed_from_u64(2023);
    let lanes = 128;
    let channels = 64;
    let cycles: Vec<Vec<f64>> = (0..channels)
        .map(|_| (0..lanes).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let exact: Vec<f64> = (0..lanes)
        .map(|l| cycles.iter().map(|c| c[l]).sum())
        .collect();
    let adc = Adc::new(8, 0.625, 0.93).expect("valid ADC");
    let full_scale = Some(pf_photonics::params::TEMPORAL_ACCUMULATION_DEPTH as f64);

    // (b) Accuracy part: the synthetic classification proxy.
    let dataset = SyntheticDataset::new(DatasetConfig {
        num_classes: 8,
        image_size: 16,
        noise_sigma: 0.5,
        max_shift: 3,
        seed: 7,
    })?;
    let train_set = dataset.generate(25, 1);
    let test_set = dataset.generate(30, 2);
    let cnn = SmallCnn::new(1, 16, 42)?;
    let train_features = cnn.features_batch(&train_set.images, &ReferenceExecutor)?;
    let probe = train_linear_probe(
        &train_features,
        &train_set.labels,
        train_set.num_classes,
        TrainConfig::default(),
    )?;
    let reference_features = cnn.features_batch(&test_set.images, &ReferenceExecutor)?;
    let reference_accuracy = accuracy(&probe, &reference_features, &test_set.labels)?;

    let mut points = Vec::new();
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let accumulated = accumulate_with_depth(&cycles, depth, Some(&adc), full_scale)?;
        let psum_relative_error = pf_dsp::util::relative_l2_error(&accumulated, &exact);

        let executor = TiledExecutor::new(
            DigitalEngine,
            256,
            PipelineConfig::with_temporal_depth(depth),
        )?;
        let features = cnn.features_batch(&test_set.images, &executor)?;
        let acc = accuracy(&probe, &features, &test_set.labels)?;
        points.push(Fig7Point {
            depth,
            psum_relative_error,
            accuracy: acc,
        });
    }

    // Per-cycle quantisation sanity anchor (depth 1 equals the per-cycle
    // baseline by construction).
    let per_cycle = accumulate_quantized_per_cycle(&cycles, &adc, full_scale);
    debug_assert!(
        (pf_dsp::util::relative_l2_error(&per_cycle, &exact) - points[0].psum_relative_error).abs()
            < 1e-12
    );

    let mut fp_cfg = PipelineConfig::photofourier_default();
    fp_cfg.psum_adc_bits = None;
    let executor = TiledExecutor::new(DigitalEngine, 256, fp_cfg)?;
    let features = cnn.features_batch(&test_set.images, &executor)?;
    let fp_psum_accuracy = accuracy(&probe, &features, &test_set.labels)?;

    Ok(Fig7Result {
        points,
        fp_psum_accuracy,
        reference_accuracy,
    })
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Reproduces Figure 8: the parallelisation objective for 8/16/32 PFCUs.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn fig08_parallelization() -> Result<Vec<(usize, Vec<SweepPoint>)>, ArchError> {
    [8usize, 16, 32]
        .into_iter()
        .map(|n| Ok((n, sweep_input_broadcast(n, 16)?)))
        .collect()
}

// ---------------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------------

/// Result of the Table III sweep for both design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tab3Result {
    /// PhotoFourier-CG sweep.
    pub cg: Vec<DesignPoint>,
    /// PhotoFourier-NG sweep.
    pub ng: Vec<DesignPoint>,
}

/// Reproduces Table III: maximum waveguides per PFCU and geometric-mean
/// FPS/W for 4–64 PFCUs under a 100 mm² budget, on the five benchmark CNNs.
///
/// # Errors
///
/// Propagates design-space exploration errors.
pub fn tab3_design_space() -> Result<Tab3Result, ArchError> {
    let networks = paper_benchmark_suite();
    Ok(Tab3Result {
        cg: sweep_pfcu_counts(
            &ArchConfig::photofourier_cg(),
            &TABLE3_PFCU_COUNTS,
            100.0,
            &networks,
        )?,
        ng: sweep_pfcu_counts(
            &ArchConfig::photofourier_ng(),
            &TABLE3_PFCU_COUNTS,
            100.0,
            &networks,
        )?,
    })
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// One bar of Figure 10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Point {
    /// Optimisation-step label.
    pub label: String,
    /// Geometric-mean FPS/W over the five benchmark CNNs.
    pub geomean_fps_per_watt: f64,
    /// Value normalised to the baseline.
    pub speedup_over_baseline: f64,
}

/// Reproduces Figure 10: geometric-mean FPS/W as optimisations accumulate.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig10_optimizations() -> Result<Vec<Fig10Point>, ArchError> {
    let networks = paper_benchmark_suite();
    let mut points = Vec::new();
    let mut baseline_value = None;
    for step in OptimizationStep::ALL {
        let sim = Simulator::new(step.config())?;
        let value = sim.geomean_fps_per_watt(&networks)?;
        let base = *baseline_value.get_or_insert(value);
        points.push(Fig10Point {
            label: step.label().to_string(),
            geomean_fps_per_watt: value,
            speedup_over_baseline: value / base,
        });
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// Reproduces Figure 11: area breakdown of PhotoFourier-CG and -NG.
pub fn fig11_area() -> Vec<(String, AreaBreakdown)> {
    let cg = ArchConfig::photofourier_cg();
    let ng = ArchConfig::photofourier_ng();
    vec![
        (
            cg.tech.name.clone(),
            AreaModel::for_tech(&cg.tech).breakdown(&cg.tech),
        ),
        (
            ng.tech.name.clone(),
            AreaModel::for_tech(&ng.tech).breakdown(&ng.tech),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figure 13
// ---------------------------------------------------------------------------

/// One bar group of Figure 13.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Accelerator name.
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Throughput in frames per second.
    pub fps: f64,
    /// Efficiency in FPS/W.
    pub fps_per_watt: f64,
    /// Inverse energy-delay product (1 / (J·s)), larger is better.
    pub inverse_edp: f64,
}

/// Reproduces Figure 13: FPS, FPS/W and 1/EDP of PhotoFourier-CG/NG (with
/// and without memory power), the prior photonic accelerators (anchored to
/// the simulated CG results, see `pf-baselines`), and the UNPU-like digital
/// baseline, on AlexNet / VGG-16 / ResNet-18.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig13_comparison() -> Result<Vec<ComparisonRow>, ArchError> {
    let networks = comparison_suite();
    let cg = Simulator::new(ArchConfig::photofourier_cg())?;
    let ng = Simulator::new(ArchConfig::photofourier_ng())?;

    let cg_results: Vec<NetworkPerformance> = networks
        .iter()
        .map(|n| cg.evaluate_network(n))
        .collect::<Result<_, _>>()?;
    let ng_results: Vec<NetworkPerformance> = networks
        .iter()
        .map(|n| ng.evaluate_network(n))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    for (network, perf) in networks.iter().zip(&cg_results) {
        rows.push(ComparisonRow {
            accelerator: "PhotoFourier-CG".to_string(),
            network: network.name.clone(),
            fps: perf.fps,
            fps_per_watt: perf.fps_per_watt,
            inverse_edp: perf.inverse_edp(),
        });
        rows.push(ComparisonRow {
            accelerator: "PhotoFourier-CG-nm".to_string(),
            network: network.name.clone(),
            fps: perf.fps,
            fps_per_watt: perf.fps_per_watt_no_memory(),
            inverse_edp: perf.fps * perf.fps_per_watt_no_memory(),
        });
    }
    for (network, perf) in networks.iter().zip(&ng_results) {
        rows.push(ComparisonRow {
            accelerator: "PhotoFourier-NG".to_string(),
            network: network.name.clone(),
            fps: perf.fps,
            fps_per_watt: perf.fps_per_watt,
            inverse_edp: perf.inverse_edp(),
        });
        rows.push(ComparisonRow {
            accelerator: "PhotoFourier-NG-nm".to_string(),
            network: network.name.clone(),
            fps: perf.fps,
            fps_per_watt: perf.fps_per_watt_no_memory(),
            inverse_edp: perf.fps * perf.fps_per_watt_no_memory(),
        });
    }

    for reference in prior_photonic_accelerators() {
        let anchored = reference.anchored(&cg_results);
        for network in &networks {
            if let (Some(fps), Some(fpw), Some(edp)) = (
                anchored.fps(network),
                anchored.fps_per_watt(network),
                anchored.edp(network),
            ) {
                rows.push(ComparisonRow {
                    accelerator: reference.name.to_string(),
                    network: network.name.clone(),
                    fps,
                    fps_per_watt: fpw,
                    inverse_edp: 1.0 / edp,
                });
            }
        }
    }

    let unpu = SystolicArray::unpu_like();
    for network in &networks {
        rows.push(ComparisonRow {
            accelerator: unpu.name().to_string(),
            network: network.name.clone(),
            fps: unpu
                .fps(network)
                .expect("systolic model covers all networks"),
            fps_per_watt: unpu
                .fps_per_watt(network)
                .expect("systolic model covers all networks"),
            inverse_edp: 1.0
                / unpu
                    .edp(network)
                    .expect("systolic model covers all networks"),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// CrossLight comparison
// ---------------------------------------------------------------------------

/// Result of the CrossLight energy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrosslightResult {
    /// Energy per inference of PhotoFourier-CG on the 4-layer CIFAR-10 CNN,
    /// in microjoules (paper: 4.76 µJ).
    pub photofourier_cg_uj: f64,
    /// Published CrossLight energy per inference in microjoules (427 µJ).
    pub crosslight_uj: f64,
}

impl CrosslightResult {
    /// Energy advantage of PhotoFourier-CG.
    pub fn advantage(&self) -> f64 {
        self.crosslight_uj / self.photofourier_cg_uj
    }
}

/// Reproduces the Section VI-E CrossLight comparison.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn crosslight_energy() -> Result<CrosslightResult, ArchError> {
    let sim = Simulator::new(ArchConfig::photofourier_cg())?;
    let perf = sim.evaluate_network(&crosslight_cnn())?;
    Ok(CrosslightResult {
        photofourier_cg_uj: perf.energy_uj(),
        crosslight_uj: CROSSLIGHT_ENERGY_PER_INFERENCE_UJ,
    })
}

// ---------------------------------------------------------------------------
// Ablation: utilisation and strided convolutions
// ---------------------------------------------------------------------------

/// Utilisation statistics of one network on PhotoFourier-CG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationRow {
    /// Network name.
    pub network: String,
    /// Average input-waveguide utilisation across layers (cycle-weighted).
    pub avg_waveguide_utilization: f64,
    /// Fraction of computed unit-stride outputs that strided layers discard.
    pub strided_waste: f64,
}

/// Ablation: waveguide utilisation and strided-convolution waste per network
/// (the effects discussed in Sections V-E and VI-E).
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn ablation_utilization() -> Result<Vec<UtilizationRow>, ArchError> {
    let config = ArchConfig::photofourier_cg();
    let sim = Simulator::new(config.clone())?;
    let mut rows = Vec::new();
    for network in [alexnet(), vgg16(), resnet18(), resnet_s()] {
        let perf = sim.evaluate_network(&network)?;
        let total_cycles: u64 = perf.layers.iter().map(|l| l.schedule.total_cycles).sum();
        let weighted_util: f64 = perf
            .layers
            .iter()
            .map(|l| {
                l.schedule
                    .waveguide_utilization(config.tech.input_waveguides)
                    * l.schedule.total_cycles as f64
            })
            .sum::<f64>()
            / total_cycles as f64;
        let computed: u64 = network
            .conv_layers
            .iter()
            .map(|l| (l.input_size * l.input_size) as u64 * l.out_channels as u64)
            .sum();
        let kept: u64 = network
            .conv_layers
            .iter()
            .map(|l| l.output_activations())
            .sum();
        rows.push(UtilizationRow {
            network: network.name.clone(),
            avg_waveguide_utilization: weighted_util,
            strided_waste: 1.0 - kept as f64 / computed as f64,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_terms_are_separated_and_exact() {
        let result = fig02_jtc_output().unwrap();
        assert!(result.terms_separated);
        assert!(result.extraction_error < 1e-9);
        assert!(!result.intensity.is_empty());
    }

    #[test]
    fn fig06_baseline_is_converter_heavy() {
        let profile = fig06_baseline_power().unwrap();
        assert!(profile.breakdown.converter_share() > 0.6);
        assert!(profile.avg_power_w > 10.0);
    }

    #[test]
    fn fig08_matches_paper_values() {
        let sweeps = fig08_parallelization().unwrap();
        assert_eq!(sweeps.len(), 3);
        let (n, points) = &sweeps[0];
        assert_eq!(*n, 8);
        let best = points
            .iter()
            .map(|p| p.objective)
            .fold(f64::INFINITY, f64::min);
        assert!((best - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fig10_is_monotone() {
        let points = fig10_optimizations().unwrap();
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(pair[1].geomean_fps_per_watt > pair[0].geomean_fps_per_watt);
        }
        assert!(points.last().unwrap().speedup_over_baseline > 5.0);
    }

    #[test]
    fn fig11_areas_are_comparable() {
        let areas = fig11_area();
        assert_eq!(areas.len(), 2);
        let ratio = areas[1].1.pic_mm2() / areas[0].1.pic_mm2();
        assert!((0.7..1.4).contains(&ratio));
    }

    #[test]
    fn fig12_ng_uses_less_power_than_cg() {
        let profiles = fig12_power_breakdown().unwrap();
        assert_eq!(profiles.len(), 2);
        assert!(profiles[1].avg_power_w < profiles[0].avg_power_w);
        // CG sits in the tens of watts, NG below it (paper: 26.0 / 8.42 W).
        assert!((5.0..80.0).contains(&profiles[0].avg_power_w));
    }

    #[test]
    fn fig13_photofourier_ng_wins_edp() {
        let rows = fig13_comparison().unwrap();
        for network in ["AlexNet", "VGG-16", "ResNet-18"] {
            let ng = rows
                .iter()
                .find(|r| r.accelerator == "PhotoFourier-NG" && r.network == network)
                .unwrap();
            for row in rows
                .iter()
                .filter(|r| r.network == network && !r.accelerator.starts_with("PhotoFourier"))
            {
                assert!(
                    ng.inverse_edp > row.inverse_edp,
                    "{} beats NG on {network}",
                    row.accelerator
                );
            }
        }
    }

    #[test]
    fn crosslight_advantage_is_large() {
        let result = crosslight_energy().unwrap();
        assert!(result.photofourier_cg_uj < 50.0);
        assert!(result.advantage() > 10.0);
    }

    #[test]
    fn ablation_utilization_flags_alexnet_stride() {
        let rows = ablation_utilization().unwrap();
        let alex = rows.iter().find(|r| r.network == "AlexNet").unwrap();
        let vgg = rows.iter().find(|r| r.network == "VGG-16").unwrap();
        // AlexNet discards most of its first-layer outputs (stride 4).
        assert!(alex.strided_waste > vgg.strided_waste);
        for row in &rows {
            assert!(row.avg_waveguide_utilization > 0.0);
            assert!(row.avg_waveguide_utilization <= 1.0);
        }
    }
}
