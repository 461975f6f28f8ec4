//! Analytical models of digital CNN accelerators.
//!
//! [`SystolicArray`] is a first-order model of an output-stationary systolic
//! array (the family UNPU, TPU-like designs and most edge NPUs belong to):
//! throughput is PE count × clock × utilisation, energy is a per-MAC cost
//! plus static power. The [`SystolicArray::unpu_like`] preset reproduces the
//! UNPU headline numbers the paper compares against (low absolute
//! throughput, competitive energy efficiency at 8 bits on a 65 nm node).

use pf_nn::models::NetworkSpec;
use serde::{Deserialize, Serialize};

use crate::AcceleratorModel;

/// First-order systolic-array model.
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
}

impl AcceleratorModel for SystolicArray {
    fn name(&self) -> &str {
        &self.name
    }

    fn fps(&self, network: &NetworkSpec) -> Option<f64> {
        Some(1.0 / self.latency_s(network))
    }

    fn fps_per_watt(&self, network: &NetworkSpec) -> Option<f64> {
        Some(1.0 / self.energy_j(network))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_nn::models::imagenet::{alexnet, resnet18, vgg16};

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
        let fps = unpu.fps(&net).unwrap();
        // Low double-digit FPS for ResNet-18 class networks.
        assert!((5.0..200.0).contains(&fps), "UNPU ResNet-18 FPS {fps}");
        let fpw = unpu.fps_per_watt(&net).unwrap();
        assert!(fpw > 100.0, "UNPU efficiency {fpw} FPS/W");
    }

    #[test]
    fn bigger_networks_are_slower() {
        let unpu = SystolicArray::unpu_like();
        let fps_alex = unpu.fps(&alexnet()).unwrap();
        let fps_vgg = unpu.fps(&vgg16()).unwrap();
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
}
