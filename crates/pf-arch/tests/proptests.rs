//! Property-based tests for the architecture simulator: scheduling and
//! energy accounting invariants that must hold for any layer shape and any
//! sane configuration.

use pf_arch::config::ArchConfig;
use pf_arch::dataflow::LayerSchedule;
use pf_arch::power::layer_energy;
use pf_arch::simulator::Simulator;
use pf_nn::layers::ConvLayerSpec;
use pf_nn::models::NetworkSpec;
use proptest::prelude::*;

fn layer_strategy() -> impl Strategy<Value = ConvLayerSpec> {
    (
        1usize..256, // in channels
        1usize..256, // out channels
        0usize..3,   // kernel selector -> 1, 3, 5
        1usize..3,   // stride
        prop::sample::select(vec![7usize, 14, 28, 32, 56, 112, 224]),
    )
        .prop_filter_map("kernel must fit", |(in_c, out_c, k_sel, stride, size)| {
            let kernel = [1usize, 3, 5][k_sel];
            ConvLayerSpec::new("prop", in_c, out_c, kernel, stride, size, true).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn schedule_invariants(spec in layer_strategy()) {
        let config = ArchConfig::photofourier_cg();
        let schedule = LayerSchedule::new(&spec, &config).unwrap();
        // Cycle count covers at least one pass per filter group and channel.
        prop_assert!(schedule.total_cycles > 0);
        prop_assert!(schedule.filter_groups >= 1);
        prop_assert!(schedule.channel_iterations >= 1);
        prop_assert!(schedule.effective_filters == 2 * spec.out_channels);
        // Utilisation is a fraction.
        let util = schedule.waveguide_utilization(config.tech.input_waveguides);
        prop_assert!(util > 0.0 && util <= 1.0);
        // ADC conversions scale with outputs and channel groups.
        prop_assert!(schedule.adc_conversions >= spec.output_activations());
        // Traffic is non-zero.
        prop_assert!(schedule.input_sram_bytes > 0);
        prop_assert!(schedule.weight_sram_bytes > 0);
        prop_assert!(schedule.dram_bytes == 2 * spec.weight_count());
    }

    #[test]
    fn energy_is_positive_and_scales_with_work(spec in layer_strategy()) {
        let config = ArchConfig::photofourier_cg();
        let schedule = LayerSchedule::new(&spec, &config).unwrap();
        let energy = layer_energy(&schedule, &config);
        prop_assert!(energy.total_pj() > 0.0);
        for share in energy.shares() {
            prop_assert!((0.0..=1.0).contains(&share));
        }
        // Doubling the output channels (same everything else) cannot reduce
        // total energy.
        if let Ok(bigger_spec) = ConvLayerSpec::new(
            "prop2",
            spec.in_channels,
            spec.out_channels * 2,
            spec.kernel,
            spec.stride,
            spec.input_size,
            spec.padded,
        ) {
            let bigger_schedule = LayerSchedule::new(&bigger_spec, &config).unwrap();
            let bigger_energy = layer_energy(&bigger_schedule, &config);
            prop_assert!(bigger_energy.total_pj() >= energy.total_pj());
        }
    }

    #[test]
    fn ng_never_loses_to_cg(spec in layer_strategy()) {
        let network = NetworkSpec {
            name: "prop-net".to_string(),
            input_size: spec.input_size,
            num_classes: 10,
            conv_layers: vec![spec],
        };
        let cg = Simulator::new(ArchConfig::photofourier_cg()).unwrap();
        let ng = Simulator::new(ArchConfig::photofourier_ng()).unwrap();
        let p_cg = cg.evaluate_network(&network).unwrap();
        let p_ng = ng.evaluate_network(&network).unwrap();
        prop_assert!(p_ng.fps >= p_cg.fps);
        prop_assert!(p_ng.energy_j <= p_cg.energy_j * 1.001);
        prop_assert!(p_ng.edp <= p_cg.edp * 1.001);
    }

    #[test]
    fn network_metrics_are_consistent(spec in layer_strategy()) {
        let network = NetworkSpec {
            name: "prop-net".to_string(),
            input_size: spec.input_size,
            num_classes: 10,
            conv_layers: vec![spec.clone(), spec],
        };
        let sim = Simulator::new(ArchConfig::photofourier_cg()).unwrap();
        let perf = sim.evaluate_network(&network).unwrap();
        prop_assert!((perf.fps * perf.latency_s - 1.0).abs() < 1e-9);
        prop_assert!((perf.avg_power_w * perf.latency_s - perf.energy_j).abs() < 1e-12);
        prop_assert!((perf.edp - perf.energy_j * perf.latency_s).abs() < 1e-24);
        let layer_latency: f64 = perf.layers.iter().map(|l| l.latency_s).sum();
        prop_assert!((layer_latency - perf.latency_s).abs() < 1e-12);
    }
}
