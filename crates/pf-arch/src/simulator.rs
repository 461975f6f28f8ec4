//! The top-level performance simulator.
//!
//! [`Simulator`] schedules every convolution layer of a network on the
//! configured accelerator, accumulates energy and latency, and reports the
//! metrics the paper's evaluation uses: frames per second, average power,
//! FPS/W, energy per inference, and energy-delay product.

use pf_nn::layers::ConvLayerSpec;
use pf_nn::models::NetworkSpec;
use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;
use crate::dataflow::LayerSchedule;
use crate::error::ArchError;
use crate::power::{layer_energy, EnergyBreakdown};

/// Performance of a single layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerformance {
    /// Layer name.
    pub layer: String,
    /// Static schedule (cycles, utilisation, traffic).
    pub schedule: LayerSchedule,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Latency in seconds.
    pub latency_s: f64,
}

/// Performance of a full network (batch size 1, as in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPerformance {
    /// Network name.
    pub network: String,
    /// Accelerator design-point name.
    pub design_point: String,
    /// Per-layer results.
    pub layers: Vec<LayerPerformance>,
    /// Total inference latency in seconds.
    pub latency_s: f64,
    /// Total inference energy in joules.
    pub energy_j: f64,
    /// Aggregated energy breakdown.
    pub breakdown: EnergyBreakdown,
    /// Inference throughput in frames per second.
    pub fps: f64,
    /// Average power in watts.
    pub avg_power_w: f64,
    /// Power efficiency in frames per second per watt (= frames per joule).
    pub fps_per_watt: f64,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
}

impl NetworkPerformance {
    /// Reciprocal EDP (larger is better), the quantity Figure 13(c) plots.
    pub fn inverse_edp(&self) -> f64 {
        1.0 / self.edp
    }

    /// FPS/W with memory (SRAM + DRAM) energy excluded — the "-nm" variants
    /// of Figure 13(b).
    pub fn fps_per_watt_no_memory(&self) -> f64 {
        let energy = self.breakdown.without_memory().total_joules();
        if energy <= 0.0 {
            return 0.0;
        }
        1.0 / energy
    }

    /// Energy per inference in microjoules (used for the CrossLight
    /// comparison).
    pub fn energy_uj(&self) -> f64 {
        self.energy_j * 1e6
    }
}

/// The architecture simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    config: ArchConfig,
}

impl Simulator {
    /// Creates a simulator for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: ArchConfig) -> Result<Self, ArchError> {
        Ok(Self {
            config: config.validated()?,
        })
    }

    /// The configuration this simulator evaluates.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Evaluates one convolution layer.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors.
    pub fn evaluate_layer(&self, spec: &ConvLayerSpec) -> Result<LayerPerformance, ArchError> {
        let schedule = LayerSchedule::new(spec, &self.config)?;
        let energy = layer_energy(&schedule, &self.config);
        let latency_s = schedule.latency_seconds(self.config.tech.photonic_clock_ghz);
        Ok(LayerPerformance {
            layer: spec.name.clone(),
            schedule,
            energy,
            latency_s,
        })
    }

    /// Evaluates a full network at batch size 1.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors from any layer.
    pub fn evaluate_network(&self, network: &NetworkSpec) -> Result<NetworkPerformance, ArchError> {
        let mut layers = Vec::with_capacity(network.conv_layers.len());
        let mut breakdown = EnergyBreakdown::default();
        let mut latency_s = 0.0;
        for spec in &network.conv_layers {
            let perf = self.evaluate_layer(spec)?;
            breakdown += perf.energy;
            latency_s += perf.latency_s;
            layers.push(perf);
        }
        let energy_j = breakdown.total_joules();
        let fps = 1.0 / latency_s;
        let avg_power_w = energy_j / latency_s;
        let fps_per_watt = 1.0 / energy_j;
        let edp = energy_j * latency_s;
        Ok(NetworkPerformance {
            network: network.name.clone(),
            design_point: self.config.name().to_string(),
            layers,
            latency_s,
            energy_j,
            breakdown,
            fps,
            avg_power_w,
            fps_per_watt,
            edp,
        })
    }

    /// Geometric mean of FPS/W over a set of networks — the figure of merit
    /// used by Table III and Figure 10.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns an error for an empty network
    /// list.
    pub fn geomean_fps_per_watt(&self, networks: &[NetworkSpec]) -> Result<f64, ArchError> {
        if networks.is_empty() {
            return Err(ArchError::InvalidConfig {
                name: "networks",
                requirement: "must not be empty".to_string(),
            });
        }
        let values: Vec<f64> = networks
            .iter()
            .map(|n| self.evaluate_network(n).map(|p| p.fps_per_watt))
            .collect::<Result<_, _>>()?;
        Ok(pf_dsp::util::geometric_mean(&values).unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_nn::models::cifar::{crosslight_cnn, resnet_s};
    use pf_nn::models::imagenet::{alexnet, resnet18, vgg16};

    fn cg() -> Simulator {
        Simulator::new(ArchConfig::photofourier_cg()).unwrap()
    }

    fn ng() -> Simulator {
        Simulator::new(ArchConfig::photofourier_ng()).unwrap()
    }

    #[test]
    fn metrics_are_consistent() {
        let perf = cg().evaluate_network(&resnet18()).unwrap();
        assert!(perf.latency_s > 0.0);
        assert!(perf.energy_j > 0.0);
        assert!((perf.fps - 1.0 / perf.latency_s).abs() < 1e-9 * perf.fps);
        assert!((perf.avg_power_w - perf.energy_j / perf.latency_s).abs() < 1e-9);
        assert!((perf.fps_per_watt - perf.fps / perf.avg_power_w).abs() < 1e-6 * perf.fps_per_watt);
        assert!((perf.edp - perf.energy_j * perf.latency_s).abs() < 1e-20);
        assert!(perf.inverse_edp() > 0.0);
        assert_eq!(perf.layers.len(), resnet18().num_conv_layers());
    }

    #[test]
    fn throughput_is_in_a_plausible_photonic_range() {
        // The paper reports hundreds to thousands of FPS for ResNet-18-class
        // networks on PhotoFourier; the reproduction should land in the same
        // order of magnitude (not cycle-exact, but not off by 100x either).
        let perf = cg().evaluate_network(&resnet18()).unwrap();
        assert!(
            (100.0..100_000.0).contains(&perf.fps),
            "ResNet-18 FPS {} out of plausible range",
            perf.fps
        );
    }

    #[test]
    fn average_power_is_in_the_reported_range() {
        // Paper: CG averages 26.0 W, NG 8.42 W over the five CNNs. Allow a
        // generous band — the substrate differs — but keep the order of
        // magnitude and the CG > NG relation.
        let nets = [alexnet(), vgg16(), resnet18()];
        let cg_power: f64 = nets
            .iter()
            .map(|n| cg().evaluate_network(n).unwrap().avg_power_w)
            .sum::<f64>()
            / nets.len() as f64;
        let ng_power: f64 = nets
            .iter()
            .map(|n| ng().evaluate_network(n).unwrap().avg_power_w)
            .sum::<f64>()
            / nets.len() as f64;
        assert!(
            (5.0..80.0).contains(&cg_power),
            "CG average power {cg_power} W"
        );
        assert!(
            ng_power < cg_power,
            "NG ({ng_power} W) should be below CG ({cg_power} W)"
        );
    }

    #[test]
    fn ng_beats_cg_on_efficiency_and_edp() {
        for net in [vgg16(), resnet18()] {
            let p_cg = cg().evaluate_network(&net).unwrap();
            let p_ng = ng().evaluate_network(&net).unwrap();
            assert!(p_ng.fps_per_watt > p_cg.fps_per_watt, "{}", net.name);
            assert!(p_ng.edp < p_cg.edp, "{}", net.name);
            assert!(p_ng.fps >= p_cg.fps, "{}", net.name);
        }
    }

    #[test]
    fn baseline_is_much_less_efficient_than_cg() {
        let baseline = Simulator::new(ArchConfig::baseline_single_pfcu()).unwrap();
        let net = vgg16();
        let p_base = baseline.evaluate_network(&net).unwrap();
        let p_cg = cg().evaluate_network(&net).unwrap();
        assert!(
            p_cg.fps_per_watt > 5.0 * p_base.fps_per_watt,
            "CG {} vs baseline {}",
            p_cg.fps_per_watt,
            p_base.fps_per_watt
        );
    }

    #[test]
    fn alexnet_is_relatively_inefficient() {
        // Section VI-E: AlexNet's 11x11 stride-4 first layer makes
        // PhotoFourier less efficient; its energy per MAC should exceed
        // VGG-16's.
        let sim = cg();
        let alex = sim.evaluate_network(&alexnet()).unwrap();
        let vgg = sim.evaluate_network(&vgg16()).unwrap();
        let alex_j_per_mac = alex.energy_j / alexnet().total_macs() as f64;
        let vgg_j_per_mac = vgg.energy_j / vgg16().total_macs() as f64;
        assert!(
            alex_j_per_mac > vgg_j_per_mac,
            "AlexNet {alex_j_per_mac} vs VGG {vgg_j_per_mac} J/MAC"
        );
    }

    #[test]
    fn crosslight_cnn_energy_is_a_few_microjoules() {
        // Section VI-E: 4.76 uJ per inference on the CrossLight CNN for CG.
        let perf = cg().evaluate_network(&crosslight_cnn()).unwrap();
        assert!(
            (0.5..50.0).contains(&perf.energy_uj()),
            "CrossLight CNN energy {} uJ",
            perf.energy_uj()
        );
    }

    #[test]
    fn small_cifar_network_is_fast() {
        let perf = cg().evaluate_network(&resnet_s()).unwrap();
        assert!(perf.fps > 1000.0);
    }

    #[test]
    fn geomean_fps_per_watt() {
        let sim = cg();
        let nets = vec![resnet_s(), crosslight_cnn()];
        let gm = sim.geomean_fps_per_watt(&nets).unwrap();
        let a = sim.evaluate_network(&nets[0]).unwrap().fps_per_watt;
        let b = sim.evaluate_network(&nets[1]).unwrap().fps_per_watt;
        assert!(((a * b).sqrt() - gm).abs() < 1e-6 * gm);
        assert!(sim.geomean_fps_per_watt(&[]).is_err());
    }

    #[test]
    fn no_memory_variant_is_at_least_as_efficient() {
        let perf = cg().evaluate_network(&resnet18()).unwrap();
        assert!(perf.fps_per_watt_no_memory() >= perf.fps_per_watt);
    }
}
