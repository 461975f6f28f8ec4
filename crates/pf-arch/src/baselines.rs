//! Prior-accelerator reference models for the Figure 13 comparison and the
//! CrossLight energy comparison of Section VI-E.
//!
//! The paper compares PhotoFourier against prior photonic accelerators
//! (Albireo-c/a, Holylight-a/m, DEAP-CNN, Lightbulb, CrossLight) and one
//! digital accelerator (UNPU), taking their numbers "directly from the
//! original papers". Those papers are not available in this offline
//! reproduction, so this module provides two kinds of baselines:
//!
//! * [`SystolicArray`] — a first-principles analytical model of digital
//!   accelerators (a generic systolic array and a UNPU-like design point
//!   built from its published headline numbers), genuinely simulated rather
//!   than transcribed;
//! * [`prior_photonic_accelerators`] — reference points for the prior
//!   photonic accelerators reconstructed from the *relative* factors the
//!   PhotoFourier paper itself reports (e.g. "3–5× higher FPS/W than
//!   Albireo-c", "532× better than Holylight-m"), anchored to a simulated
//!   PhotoFourier-CG result ([`RelativeReference::anchored`]). They serve as
//!   the expected bar heights of Figure 13 so the benchmark can verify the
//!   reproduction preserves the orderings and approximate factors of the
//!   comparison. The CrossLight comparison uses the absolute energy number
//!   quoted in the paper ([`CROSSLIGHT_ENERGY_PER_INFERENCE_UJ`]).
//!
//! Both kinds report FPS, FPS/W and EDP, so they can be placed on the
//! Figure 13 axes next to the simulated PhotoFourier results:
//!
//! ```
//! use pf_arch::baselines::SystolicArray;
//! use pf_nn::models::imagenet::resnet18;
//!
//! let unpu = SystolicArray::unpu_like();
//! let net = resnet18();
//! let fps = unpu.fps(&net);
//! let fpw = unpu.fps_per_watt(&net);
//! let edp = unpu.edp(&net);
//! assert!(fps > 0.0 && fpw > 0.0);
//! assert!((edp - 1.0 / (fps * fpw)).abs() < 1e-9 * edp);
//! ```

use std::collections::HashMap;

use pf_nn::models::NetworkSpec;
use serde::{Deserialize, Serialize};

use crate::simulator::NetworkPerformance;

/// Energy-delay product in joule-seconds from the two Figure 13 metrics
/// (`energy = 1 / fps_per_watt`, `delay = 1 / fps`).
fn edp_of(fps: f64, fps_per_watt: f64) -> f64 {
    (1.0 / fps_per_watt) * (1.0 / fps)
}

// ---------------------------------------------------------------------------
// Digital accelerators
// ---------------------------------------------------------------------------

/// First-order model of an output-stationary systolic array (the family
/// UNPU, TPU-like designs and most edge NPUs belong to): throughput is PE
/// count × clock × utilisation, energy is a per-MAC cost plus static power.
/// The [`SystolicArray::unpu_like`] preset reproduces the UNPU headline
/// numbers the paper compares against (low absolute throughput, competitive
/// energy efficiency at 8 bits on a 65 nm node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystolicArray {
    name: String,
    /// Number of processing elements (MAC units).
    pub num_pes: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Average array utilisation over CNN layers.
    pub utilization: f64,
    /// Dynamic energy per MAC in picojoules (including local data movement).
    pub energy_per_mac_pj: f64,
    /// Static / leakage / peripheral power in watts.
    pub static_power_w: f64,
}

impl SystolicArray {
    /// Creates a systolic-array model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or the utilisation is outside
    /// `(0, 1]`.
    pub fn new(
        name: impl Into<String>,
        num_pes: usize,
        clock_ghz: f64,
        utilization: f64,
        energy_per_mac_pj: f64,
        static_power_w: f64,
    ) -> Self {
        assert!(num_pes > 0, "need at least one PE");
        assert!(clock_ghz > 0.0, "clock must be positive");
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilisation must be in (0, 1]"
        );
        assert!(energy_per_mac_pj > 0.0, "energy per MAC must be positive");
        assert!(static_power_w >= 0.0, "static power must be non-negative");
        Self {
            name: name.into(),
            num_pes,
            clock_ghz,
            utilization,
            energy_per_mac_pj,
            static_power_w,
        }
    }

    /// A UNPU-like 65 nm edge accelerator at 8-bit precision: roughly
    /// 0.35 TOPS peak, a few TOPS/W — low throughput but respectable
    /// efficiency, matching its placement in Figure 13.
    pub fn unpu_like() -> Self {
        Self::new("UNPU", 1152, 0.2, 0.75, 0.55, 0.15)
    }

    /// Accelerator name as it appears in the figure.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inference latency in seconds.
    pub fn latency_s(&self, network: &NetworkSpec) -> f64 {
        let macs = network.total_macs() as f64;
        let macs_per_second = self.num_pes as f64 * self.clock_ghz * 1e9 * self.utilization;
        macs / macs_per_second
    }

    /// Inference energy in joules (dynamic + static over the run time).
    pub fn energy_j(&self, network: &NetworkSpec) -> f64 {
        let macs = network.total_macs() as f64;
        macs * self.energy_per_mac_pj * 1e-12 + self.static_power_w * self.latency_s(network)
    }

    /// Inference throughput (frames per second, batch 1).
    pub fn fps(&self, network: &NetworkSpec) -> f64 {
        1.0 / self.latency_s(network)
    }

    /// Power efficiency (frames per second per watt = frames per joule).
    pub fn fps_per_watt(&self, network: &NetworkSpec) -> f64 {
        1.0 / self.energy_j(network)
    }

    /// Energy-delay product in joule-seconds, derived from the two metrics
    /// above.
    pub fn edp(&self, network: &NetworkSpec) -> f64 {
        edp_of(self.fps(network), self.fps_per_watt(network))
    }
}

// ---------------------------------------------------------------------------
// Prior photonic accelerators
// ---------------------------------------------------------------------------

/// Relative factors of one accelerator on one network, versus
/// PhotoFourier-CG.
// `Serialize` only: the `&'static str` fields cannot be deserialized from
// owned data (this is static reference data, never read back).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetworkFactors {
    /// Network name the factors apply to.
    pub network: &'static str,
    /// Throughput relative to PhotoFourier-CG (>1 means faster than CG).
    pub fps_vs_cg: f64,
    /// Efficiency relative to PhotoFourier-CG (>1 means more efficient).
    pub fps_per_watt_vs_cg: f64,
}

/// A prior accelerator described by its factors relative to PhotoFourier-CG.
///
/// The original Albireo / Holylight / DEAP-CNN / Lightbulb papers are not
/// available in this offline reproduction, so their bar heights are
/// reconstructed from the relative factors the PhotoFourier paper states in
/// Section VI-E (for example "PhotoFourier-CG achieves around 3–5× higher
/// FPS/W than Albireo-c", "532× better than Holylight-m and 704× better than
/// DEAP-CNN", "Holylight-a and Lightbulb have higher throughput … but still
/// less than PhotoFourier-NG"), and anchored to a simulated CG result to
/// obtain absolute axes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RelativeReference {
    /// Accelerator name.
    pub name: &'static str,
    /// Quantisation the design targets, as reported by the paper
    /// ("8-bit", "power-of-two", "binary", "7-bit").
    pub precision: &'static str,
    /// Per-network factors.
    pub factors: Vec<NetworkFactors>,
}

impl RelativeReference {
    /// Looks up the factors for a network by name.
    pub fn factors_for(&self, network: &str) -> Option<NetworkFactors> {
        self.factors.iter().copied().find(|f| f.network == network)
    }

    /// Anchors the relative factors to simulated PhotoFourier-CG results
    /// (one `NetworkPerformance` per network), producing absolute points.
    pub fn anchored(&self, cg_results: &[NetworkPerformance]) -> AnchoredReference {
        let mut points = HashMap::new();
        for perf in cg_results {
            if let Some(f) = self.factors_for(&perf.network) {
                points.insert(
                    perf.network.clone(),
                    (
                        perf.fps * f.fps_vs_cg,
                        perf.fps_per_watt * f.fps_per_watt_vs_cg,
                    ),
                );
            }
        }
        AnchoredReference {
            name: self.name.to_string(),
            points,
        }
    }
}

/// An anchored (absolute) reference point set. Each metric is `None` for a
/// network the accelerator does not report.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchoredReference {
    name: String,
    points: HashMap<String, (f64, f64)>,
}

impl AnchoredReference {
    /// Accelerator name as it appears in the figure.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inference throughput (frames per second, batch 1).
    pub fn fps(&self, network: &NetworkSpec) -> Option<f64> {
        self.points.get(&network.name).map(|&(fps, _)| fps)
    }

    /// Power efficiency (frames per second per watt = frames per joule).
    pub fn fps_per_watt(&self, network: &NetworkSpec) -> Option<f64> {
        self.points.get(&network.name).map(|&(_, fpw)| fpw)
    }

    /// Energy-delay product in joule-seconds, derived from the two metrics
    /// above; `None` also when either is not positive.
    pub fn edp(&self, network: &NetworkSpec) -> Option<f64> {
        let &(fps, fpw) = self.points.get(&network.name)?;
        if fps <= 0.0 || fpw <= 0.0 {
            return None;
        }
        Some(edp_of(fps, fpw))
    }
}

/// The prior photonic accelerators of Figure 13 with their relative factors
/// (reconstructed from Section VI-E; see [`RelativeReference`]).
pub fn prior_photonic_accelerators() -> Vec<RelativeReference> {
    vec![
        RelativeReference {
            name: "Albireo-c",
            precision: "8-bit",
            factors: vec![
                // CG is 5-10x faster and 3-5x more efficient than Albireo-c.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 1.0 / 6.0,
                    fps_per_watt_vs_cg: 1.0 / 3.0,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 1.0 / 8.0,
                    fps_per_watt_vs_cg: 1.0 / 5.0,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 1.0 / 7.0,
                    fps_per_watt_vs_cg: 1.0 / 4.0,
                },
            ],
        },
        RelativeReference {
            name: "Albireo-a",
            precision: "8-bit",
            factors: vec![
                // Albireo-a sits close to PhotoFourier-NG (~2-3x CG): slightly
                // ahead of NG on AlexNet, slightly behind on VGG-16.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 0.4,
                    fps_per_watt_vs_cg: 3.0,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 0.3,
                    fps_per_watt_vs_cg: 2.2,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 0.35,
                    fps_per_watt_vs_cg: 2.5,
                },
            ],
        },
        RelativeReference {
            name: "Holylight-m",
            precision: "8-bit",
            factors: vec![
                // 532x less efficient than CG; low throughput.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 0.05,
                    fps_per_watt_vs_cg: 1.0 / 532.0,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 0.05,
                    fps_per_watt_vs_cg: 1.0 / 532.0,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 0.05,
                    fps_per_watt_vs_cg: 1.0 / 532.0,
                },
            ],
        },
        RelativeReference {
            name: "Holylight-a",
            precision: "power-of-two",
            factors: vec![
                // Quantised design: more throughput than CG (on par with NG
                // for AlexNet), but less efficient than both PF versions.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 2.2,
                    fps_per_watt_vs_cg: 0.6,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 1.5,
                    fps_per_watt_vs_cg: 0.55,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 1.6,
                    fps_per_watt_vs_cg: 0.6,
                },
            ],
        },
        RelativeReference {
            name: "DEAP-CNN",
            precision: "7-bit",
            factors: vec![
                // 704x less efficient than CG.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 0.08,
                    fps_per_watt_vs_cg: 1.0 / 704.0,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 0.08,
                    fps_per_watt_vs_cg: 1.0 / 704.0,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 0.08,
                    fps_per_watt_vs_cg: 1.0 / 704.0,
                },
            ],
        },
        RelativeReference {
            name: "Lightbulb",
            precision: "binary",
            factors: vec![
                // Binary design: high throughput, efficiency below both PF
                // versions.
                NetworkFactors {
                    network: "AlexNet",
                    fps_vs_cg: 1.8,
                    fps_per_watt_vs_cg: 0.7,
                },
                NetworkFactors {
                    network: "VGG-16",
                    fps_vs_cg: 1.4,
                    fps_per_watt_vs_cg: 0.6,
                },
                NetworkFactors {
                    network: "ResNet-18",
                    fps_vs_cg: 1.5,
                    fps_per_watt_vs_cg: 0.65,
                },
            ],
        },
    ]
}

/// The absolute energy per inference of CrossLight on its own 4-layer
/// CIFAR-10 CNN, as quoted by the paper (Section VI-E): 427 µJ, against
/// which PhotoFourier-CG reports 4.76 µJ.
pub const CROSSLIGHT_ENERGY_PER_INFERENCE_UJ: f64 = 427.0;

/// The PhotoFourier-CG energy per inference the paper reports for the same
/// network, useful as a calibration target for the reproduction.
pub const PHOTOFOURIER_CG_CROSSLIGHT_ENERGY_UJ: f64 = 4.76;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::simulator::Simulator;
    use pf_nn::models::imagenet::{alexnet, resnet18, vgg16};

    #[test]
    fn edp_is_derived_consistently() {
        let unpu = SystolicArray::unpu_like();
        let net = resnet18();
        let edp = unpu.edp(&net);
        let fps = unpu.fps(&net);
        let fpw = unpu.fps_per_watt(&net);
        assert!((edp - 1.0 / (fps * fpw)).abs() < 1e-12 * edp);
    }

    #[test]
    #[should_panic(expected = "utilisation must be in (0, 1]")]
    fn rejects_bad_utilization() {
        let _ = SystolicArray::new("bad", 16, 1.0, 1.5, 1.0, 0.0);
    }

    #[test]
    fn unpu_headline_numbers() {
        // ~0.35 TOPS peak (1152 PEs x 0.2 GHz x 2 ops), a few TOPS/W.
        let unpu = SystolicArray::unpu_like();
        let peak_tops = unpu.num_pes as f64 * unpu.clock_ghz * 2.0 / 1e3;
        assert!((0.2..0.6).contains(&peak_tops), "peak {peak_tops} TOPS");
        let net = resnet18();
        let fps = unpu.fps(&net);
        // Low double-digit FPS for ResNet-18 class networks.
        assert!((5.0..200.0).contains(&fps), "UNPU ResNet-18 FPS {fps}");
        let fpw = unpu.fps_per_watt(&net);
        assert!(fpw > 100.0, "UNPU efficiency {fpw} FPS/W");
    }

    #[test]
    fn bigger_networks_are_slower() {
        let unpu = SystolicArray::unpu_like();
        let fps_alex = unpu.fps(&alexnet());
        let fps_vgg = unpu.fps(&vgg16());
        assert!(fps_alex > fps_vgg);
        assert!(unpu.energy_j(&vgg16()) > unpu.energy_j(&alexnet()));
    }

    #[test]
    fn latency_energy_relationship() {
        let unpu = SystolicArray::unpu_like();
        let net = resnet18();
        let power = unpu.energy_j(&net) / unpu.latency_s(&net);
        // Edge accelerator: sub-watt to a few watts of average power.
        assert!((0.05..10.0).contains(&power), "UNPU power {power} W");
    }

    #[test]
    fn table_covers_the_three_comparison_networks() {
        for reference in prior_photonic_accelerators() {
            for net in ["AlexNet", "VGG-16", "ResNet-18"] {
                assert!(
                    reference.factors_for(net).is_some(),
                    "{} missing {net}",
                    reference.name
                );
            }
            assert!(reference.factors_for("LeNet").is_none());
        }
    }

    #[test]
    fn paper_stated_factor_ranges() {
        let refs = prior_photonic_accelerators();
        let albireo_c = refs.iter().find(|r| r.name == "Albireo-c").unwrap();
        for f in &albireo_c.factors {
            // CG is 3-5x more efficient and 5-10x faster.
            let eff_gain = 1.0 / f.fps_per_watt_vs_cg;
            let fps_gain = 1.0 / f.fps_vs_cg;
            assert!((3.0..=5.0).contains(&eff_gain));
            assert!((5.0..=10.0).contains(&fps_gain));
        }
        let holy_m = refs.iter().find(|r| r.name == "Holylight-m").unwrap();
        assert!((1.0 / holy_m.factors[0].fps_per_watt_vs_cg - 532.0).abs() < 1.0);
        let deap = refs.iter().find(|r| r.name == "DEAP-CNN").unwrap();
        assert!((1.0 / deap.factors[0].fps_per_watt_vs_cg - 704.0).abs() < 1.0);
    }

    #[test]
    fn anchoring_produces_absolute_models() {
        let sim = Simulator::new(ArchConfig::photofourier_cg()).unwrap();
        let nets = [alexnet(), vgg16(), resnet18()];
        let cg: Vec<_> = nets
            .iter()
            .map(|n| sim.evaluate_network(n).unwrap())
            .collect();

        let refs = prior_photonic_accelerators();
        let albireo_c = refs
            .iter()
            .find(|r| r.name == "Albireo-c")
            .unwrap()
            .anchored(&cg);
        let resnet = resnet18();
        let cg_resnet = cg.iter().find(|p| p.network == "ResNet-18").unwrap();
        let ratio = cg_resnet.fps_per_watt / albireo_c.fps_per_watt(&resnet).unwrap();
        assert!((ratio - 4.0).abs() < 1e-6);
        assert_eq!(albireo_c.name(), "Albireo-c");
        // EDP derives from both metrics and is finite.
        assert!(albireo_c.edp(&resnet).unwrap() > 0.0);
    }

    #[test]
    fn crosslight_constants() {
        let ratio = std::hint::black_box(CROSSLIGHT_ENERGY_PER_INFERENCE_UJ)
            / PHOTOFOURIER_CG_CROSSLIGHT_ENERGY_UJ;
        assert!(ratio > 80.0);
    }
}
