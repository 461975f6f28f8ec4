//! Output-stationary scheduling of one convolution layer onto the PFCU array
//! (Section V-F).
//!
//! The schedule answers, for a given layer shape and accelerator
//! configuration: how many PFCU cycles the layer takes, how many waveguides /
//! DACs are actually active (utilisation), and how many ADC conversions and
//! SRAM bytes the layer moves. The [`crate::power`] model turns those counts
//! into energy.

use pf_nn::layers::ConvLayerSpec;
use pf_tiling::TilingPlan;
use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;
use crate::error::ArchError;

/// The static schedule of one convolution layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// Layer name (copied from the spec).
    pub layer: String,
    /// Row-tiling plan used on each PFCU.
    pub plan: TilingPlan,
    /// Number of filters after pseudo-negative expansion.
    pub effective_filters: usize,
    /// Number of filter groups processed sequentially (each group occupies
    /// all input-broadcast PFCUs).
    pub filter_groups: usize,
    /// Number of input-channel iterations (reduced by channel parallelism).
    pub channel_iterations: usize,
    /// Total PFCU cycles for the layer, including the pipelining factor.
    pub total_cycles: u64,
    /// Input waveguides actually carrying data each cycle (utilisation).
    pub active_input_waveguides: usize,
    /// Weight DACs actually driven per PFCU each cycle.
    pub active_weight_dacs: usize,
    /// ADC conversions needed for the whole layer.
    pub adc_conversions: u64,
    /// Bytes read from the activation SRAM.
    pub input_sram_bytes: u64,
    /// Bytes read from the weight SRAM.
    pub weight_sram_bytes: u64,
    /// Bytes written to the activation SRAM (layer outputs).
    pub output_sram_bytes: u64,
    /// Bytes fetched from DRAM (layer weights).
    pub dram_bytes: u64,
}

impl LayerSchedule {
    /// Builds the schedule of `spec` on the accelerator described by
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Tiling`] if the layer kernel does not fit the
    /// PFCU, or [`ArchError::Unschedulable`] for degenerate layer shapes.
    pub fn new(spec: &ConvLayerSpec, config: &ArchConfig) -> Result<Self, ArchError> {
        let n_conv = config.tech.input_waveguides;
        let plan = TilingPlan::new(
            spec.input_size,
            spec.input_size,
            spec.kernel,
            spec.kernel,
            n_conv,
        )?;

        let ib = config.parallel.input_broadcast.max(1);
        let cp = config.parallel.channel_parallel.max(1);

        // Pseudo-negative doubles the number of filters to execute.
        let filter_multiplier = if config.pseudo_negative { 2 } else { 1 };
        let effective_filters = spec.out_channels * filter_multiplier;
        let filter_groups = effective_filters.div_ceil(ib);

        // Channel parallelism lets CP PFCUs each take a different input
        // channel in the same cycle (their outputs are summed optically at a
        // shared detector).
        let channel_iterations = spec.in_channels.div_ceil(cp);

        let convs_per_plane = plan.convs_per_output_plane as u64;
        let issue_cycles = convs_per_plane * channel_iterations as u64 * filter_groups as u64;
        let total_cycles = if config.pipelined {
            issue_cycles + 1
        } else {
            issue_cycles * 2
        };

        // Utilisation of the input waveguides by the tiled input.
        let active_input_waveguides = plan.tiled_input_len().min(n_conv);
        // Every weight waveguide that has a DAC is driven every cycle: the
        // small-filter optimisation (Section IV-B) saves power by *removing*
        // DACs from inactive waveguides, not by gating them. The baseline
        // therefore pays for a DAC per input waveguide, the optimised PFCU
        // for 25.
        let active_weight_dacs = config.tech.weight_waveguides;

        // Every unit-stride output value is read out; strided layers discard
        // after read-out (Section VI-E). Each value needs one conversion per
        // temporal-accumulation group of input channels.
        let unit_stride_outputs = (spec.input_size * spec.input_size) as u64;
        let groups_per_output =
            spec.in_channels
                .div_ceil(config.tech.temporal_accumulation.max(1)) as u64;
        let adc_conversions = unit_stride_outputs * effective_filters as u64 * groups_per_output;

        // SRAM traffic (8-bit values = 1 byte each).
        // Inputs: one tile per cycle per channel-parallel group; filter
        // groups re-read the same tiles.
        let input_sram_bytes = active_input_waveguides as u64 * cp as u64 * issue_cycles
            / channel_iterations.max(1) as u64
            * channel_iterations as u64; // = active * cp * issue_cycles
                                         // Weights: reused across the convolutions of one output plane
                                         // (weight broadcasting within the PFCU), so only one fetch per
                                         // (filter, channel) pair per group.
        let weight_sram_bytes = active_weight_dacs as u64
            * config.tech.num_pfcus as u64
            * channel_iterations as u64
            * filter_groups as u64;
        // Outputs: written once after the pseudo-negative subtraction.
        let output_sram_bytes = spec.output_activations();
        // Weights come from DRAM once per layer (pseudo-negative pairs are
        // stored explicitly, Section V-A).
        let dram_bytes = spec.weight_count() * filter_multiplier as u64;

        if total_cycles == 0 {
            return Err(ArchError::Unschedulable {
                layer: spec.name.clone(),
                reason: "layer produces zero cycles".to_string(),
            });
        }

        Ok(Self {
            layer: spec.name.clone(),
            plan,
            effective_filters,
            filter_groups,
            channel_iterations,
            total_cycles,
            active_input_waveguides,
            active_weight_dacs,
            adc_conversions,
            input_sram_bytes,
            weight_sram_bytes,
            output_sram_bytes,
            dram_bytes,
        })
    }

    /// Latency of this layer in seconds at the configured photonic clock.
    pub fn latency_seconds(&self, photonic_clock_ghz: f64) -> f64 {
        self.total_cycles as f64 / (photonic_clock_ghz * 1e9)
    }

    /// Input-waveguide utilisation in `[0, 1]`.
    pub fn waveguide_utilization(&self, input_waveguides: usize) -> f64 {
        self.active_input_waveguides as f64 / input_waveguides.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use pf_tiling::TilingVariant;

    fn spec(in_c: usize, out_c: usize, k: usize, stride: usize, size: usize) -> ConvLayerSpec {
        ConvLayerSpec::new("test", in_c, out_c, k, stride, size, true).unwrap()
    }

    #[test]
    fn resnet_style_layer_schedules() {
        let cfg = ArchConfig::photofourier_cg();
        let s = LayerSchedule::new(&spec(64, 64, 3, 1, 56), &cfg).unwrap();
        // 56x56 input on 256 waveguides: row tiling, 4 rows per tile.
        assert_eq!(s.plan.variant, TilingVariant::RowTiling);
        assert_eq!(s.plan.rows_per_tile, 4);
        // Pseudo-negative doubles 64 filters -> 128 -> 16 groups of 8.
        assert_eq!(s.effective_filters, 128);
        assert_eq!(s.filter_groups, 16);
        assert_eq!(s.channel_iterations, 64);
        assert!(s.total_cycles > 0);
        assert_eq!(s.active_weight_dacs, 25);
        assert_eq!(s.active_input_waveguides, 4 * 56);
        // The Fourier-plane sample-and-hold (Section IV-A) overlaps the two
        // halves of the JTC: one extra cycle to fill the pipeline instead of
        // two cycles per issued convolution.
        let issue_cycles = s.plan.convs_per_output_plane as u64
            * s.channel_iterations as u64
            * s.filter_groups as u64;
        assert_eq!(s.total_cycles, issue_cycles + 1);
        let unpipelined = ArchConfig {
            pipelined: false,
            ..cfg
        };
        let u = LayerSchedule::new(&spec(64, 64, 3, 1, 56), &unpipelined).unwrap();
        assert_eq!(u.total_cycles, 2 * issue_cycles);
    }

    #[test]
    fn cycles_scale_with_filters_and_channels() {
        let cfg = ArchConfig::photofourier_cg();
        let base = LayerSchedule::new(&spec(32, 32, 3, 1, 32), &cfg).unwrap();
        let more_filters = LayerSchedule::new(&spec(32, 64, 3, 1, 32), &cfg).unwrap();
        let more_channels = LayerSchedule::new(&spec(64, 32, 3, 1, 32), &cfg).unwrap();
        assert!(more_filters.total_cycles > base.total_cycles);
        assert!(more_channels.total_cycles > base.total_cycles);
        // Doubling filters doubles cycles (filters >> PFCU count).
        let ratio = more_filters.total_cycles as f64 / base.total_cycles as f64;
        assert!((ratio - 2.0).abs() < 0.1, "filter scaling ratio {ratio}");
    }

    #[test]
    fn more_pfcus_means_fewer_cycles() {
        let cg = ArchConfig::photofourier_cg();
        let ng = ArchConfig::photofourier_ng();
        let layer = spec(128, 128, 3, 1, 28);
        let s_cg = LayerSchedule::new(&layer, &cg).unwrap();
        let s_ng = LayerSchedule::new(&layer, &ng).unwrap();
        // 16 PFCUs halve the filter groups compared to 8.
        assert!(s_ng.total_cycles < s_cg.total_cycles);
        let ratio = s_cg.total_cycles as f64 / s_ng.total_cycles as f64;
        assert!((ratio - 2.0).abs() < 0.1, "PFCU scaling ratio {ratio}");
    }

    #[test]
    fn temporal_accumulation_cuts_adc_conversions() {
        let cg = ArchConfig::photofourier_cg(); // depth 16
        let baseline = ArchConfig::baseline_single_pfcu(); // depth 1
        let layer = spec(64, 8, 3, 1, 32);
        let with_ta = LayerSchedule::new(&layer, &cg).unwrap();
        let without = LayerSchedule::new(&layer, &baseline).unwrap();
        // Same outputs, 16x fewer conversions.
        let ratio = without.adc_conversions as f64 / with_ta.adc_conversions as f64;
        assert!((ratio - 16.0).abs() < 1e-9, "ADC conversion ratio {ratio}");
    }

    #[test]
    fn pseudo_negative_doubles_work() {
        let mut cfg = ArchConfig::photofourier_cg();
        let layer = spec(16, 16, 3, 1, 32);
        let with_pn = LayerSchedule::new(&layer, &cfg).unwrap();
        cfg.pseudo_negative = false;
        let without = LayerSchedule::new(&layer, &cfg).unwrap();
        assert_eq!(with_pn.effective_filters, 2 * without.effective_filters);
        assert!(with_pn.total_cycles >= 2 * without.total_cycles - 2);
        assert_eq!(with_pn.dram_bytes, 2 * without.dram_bytes);
    }

    #[test]
    fn small_late_layers_underutilize_waveguides() {
        // ResNet late layers with 7x7 or 14x14 inputs cannot fill 256
        // waveguides well when the kernel constrains tiling.
        let cfg = ArchConfig::photofourier_cg();
        let late = LayerSchedule::new(&spec(512, 512, 3, 1, 7), &cfg).unwrap();
        let util = late.waveguide_utilization(cfg.tech.input_waveguides);
        assert!(util < 0.25, "7x7 layer should under-utilise: {util}");
        let early = LayerSchedule::new(&spec(64, 64, 3, 1, 56), &cfg).unwrap();
        assert!(early.waveguide_utilization(cfg.tech.input_waveguides) > util);
    }

    #[test]
    fn first_layer_of_imagenet_uses_partial_tiling_or_partitioning() {
        let cfg = ArchConfig::photofourier_cg();
        let s = LayerSchedule::new(&spec(3, 64, 7, 2, 224), &cfg).unwrap();
        assert_ne!(s.plan.variant, TilingVariant::RowTiling);
        assert!(s.total_cycles > 0);
    }

    #[test]
    fn latency_and_utilization_helpers() {
        let cfg = ArchConfig::photofourier_cg();
        let s = LayerSchedule::new(&spec(16, 16, 3, 1, 32), &cfg).unwrap();
        let latency = s.latency_seconds(10.0);
        assert!(latency > 0.0);
        assert!((latency - s.total_cycles as f64 / 1e10).abs() < 1e-15);
        let util = s.waveguide_utilization(256);
        assert!(util > 0.0 && util <= 1.0);
    }

    #[test]
    fn weight_reuse_reduces_weight_traffic() {
        let cfg = ArchConfig::photofourier_cg();
        let s = LayerSchedule::new(&spec(64, 64, 3, 1, 56), &cfg).unwrap();
        // Weight bytes are far below "weights re-read every cycle".
        let naive = s.active_weight_dacs as u64 * cfg.tech.num_pfcus as u64 * s.total_cycles;
        assert!(s.weight_sram_bytes * 2 < naive);
    }
}
