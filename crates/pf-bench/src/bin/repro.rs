//! `cargo run --release -p pf-bench --bin repro` — prints the tables and
//! figures of the paper's evaluation from the experiment functions of
//! [`pf_bench::experiments`].
//!
//! `repro` prints every experiment in paper order; `repro fig13 tab1 ...`
//! prints the named ones, in the order given. Experiment names are the only
//! arguments. Exit codes: **0** every requested experiment printed, **1** an
//! experiment returned an error, **2** an unknown name (the usage line
//! lists the known ones).
//!
//! Nothing is timed here: how long the models behind these tables take is
//! the repo benchmark's to say (`pf-arch.evaluate_network_us`,
//! `pf-nn.forward_us`, `pf-jtc.*` in `BENCHMARK.json`).

use std::error::Error;
use std::process::ExitCode;

use pf_arch::config::ArchConfig;
use pf_arch::parallel::optimal_scheme;
use pf_arch::power::EnergyBreakdown;
use pf_arch::whatif::{data_movement_sweep, DISCUSSION_SCALES};
use pf_bench::report::fmt_sig;
use pf_bench::{exitcode, Table};
use pf_nn::models::imagenet::resnet18;

type Outcome = Result<(), Box<dyn Error>>;

/// One experiment: its name on the command line and the function that
/// prints it.
type Experiment = (&'static str, fn() -> Outcome);

/// Every experiment, in paper order.
const EXPERIMENTS: [Experiment; 12] = [
    ("fig02", fig02),
    ("tab1", tab1),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("tab3", tab3),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("crosslight", crosslight),
    ("ablation", ablation),
];

/// Figure 2 — simulated JTC output for a 256-element row-tiled input: the
/// three-term separation check.
fn fig02() -> Outcome {
    let result = pf_bench::fig02_jtc_output()?;
    let mut table = Table::new(vec!["quantity", "value"]);
    table.row(vec![
        "output plane samples".to_string(),
        result.intensity.len().to_string(),
    ]);
    table.row(vec![
        "three terms spatially separated".to_string(),
        result.terms_separated.to_string(),
    ]);
    table.row(vec![
        "correlation extraction rel. error".to_string(),
        format!("{:.2e}", result.extraction_error),
    ]);
    println!("\n== Figure 2: JTC output plane ==\n{table}");
    Ok(())
}

/// Table I — per-network fidelity of the row-tiled 8-bit pipeline and the
/// synthetic end-to-end accuracy proxy.
fn tab1() -> Outcome {
    let result = pf_bench::tab1_row_tiling_accuracy()?;

    let mut table = Table::new(vec![
        "network",
        "mean rel. error",
        "max rel. error",
        "min SNR (dB)",
    ]);
    for report in &result.fidelity {
        table.row(vec![
            report.network.clone(),
            fmt_sig(report.mean_relative_error()),
            fmt_sig(report.max_relative_error()),
            fmt_sig(report.min_snr_db()),
        ]);
    }
    println!("\n== Table I (part a): per-layer fidelity of the PhotoFourier pipeline ==\n{table}");

    let mut proxy = Table::new(vec![
        "configuration",
        "accuracy (%)",
        "drop vs reference (%)",
    ]);
    let reference = result.accuracy_proxy[0].1;
    for (label, acc) in &result.accuracy_proxy {
        proxy.row(vec![
            label.clone(),
            format!("{:.1}", acc * 100.0),
            format!("{:+.1}", (reference - acc) * 100.0),
        ]);
    }
    println!("== Table I (part b): end-to-end accuracy proxy (synthetic task) ==\n{proxy}");
    Ok(())
}

/// Figure 6 — power contribution of the components of the un-optimised
/// 1-PFCU baseline system on VGG-16.
fn fig06() -> Outcome {
    let profile = pf_bench::fig06_baseline_power()?;
    let mut table = Table::new(vec!["component", "share of total power (%)"]);
    let shares = profile.breakdown.shares();
    for (label, share) in EnergyBreakdown::COMPONENT_LABELS.iter().zip(shares) {
        table.row(vec![label.to_string(), format!("{:.1}", share * 100.0)]);
    }
    println!("\n== Figure 6: 1-PFCU baseline power breakdown (VGG-16) ==\n{table}");
    println!(
        "DAC + ADC share: {:.1}% (paper: > 80%)\naverage power: {:.1} W\n",
        profile.breakdown.converter_share() * 100.0,
        profile.avg_power_w
    );
    Ok(())
}

/// Figure 7 — accuracy (and partial-sum error) versus temporal accumulation
/// depth with an 8-bit partial-sum ADC.
fn fig07() -> Outcome {
    let result = pf_bench::fig07_temporal_accumulation()?;
    let mut table = Table::new(vec![
        "temporal depth",
        "psum rel. error",
        "proxy accuracy (%)",
    ]);
    for point in &result.points {
        table.row(vec![
            point.depth.to_string(),
            format!("{:.4}", point.psum_relative_error),
            format!("{:.1}", point.accuracy * 100.0),
        ]);
    }
    println!("\n== Figure 7: temporal accumulation depth sweep (8-bit ADC) ==\n{table}");
    println!(
        "fp psum accuracy: {:.1}%   reference (fp64) accuracy: {:.1}%\n",
        result.fp_psum_accuracy * 100.0,
        result.reference_accuracy * 100.0
    );
    Ok(())
}

/// Figure 8 — the parallelisation objective IB/N_TA + CP for 8/16/32 PFCUs.
fn fig08() -> Outcome {
    let sweeps = pf_bench::fig08_parallelization()?;
    let mut table = Table::new(vec!["N_PFCU", "IB", "IB/N_TA + CP"]);
    for (n, points) in &sweeps {
        for p in points {
            table.row(vec![
                n.to_string(),
                p.input_broadcast.to_string(),
                format!("{:.4}", p.objective),
            ]);
        }
    }
    println!("\n== Figure 8: parallelisation scheme objective (N_TA = 16) ==\n{table}");
    for (n, _) in &sweeps {
        let best = optimal_scheme(*n, 16)?;
        println!(
            "N_PFCU = {n}: optimal IB = {}, CP = {}",
            best.input_broadcast, best.channel_parallel
        );
    }
    println!();
    Ok(())
}

/// Table III — maximum waveguides per PFCU and geometric-mean FPS/W for
/// 4–64 PFCUs under a 100 mm² area budget (CG and NG, five benchmark CNNs).
fn tab3() -> Outcome {
    let result = pf_bench::tab3_design_space()?;
    let mut table = Table::new(vec![
        "design",
        "# PFCU",
        "# waveguides",
        "geomean FPS/W",
        "normalised",
    ]);
    for (label, points) in [("CG", &result.cg), ("NG", &result.ng)] {
        for p in points {
            table.row(vec![
                label.to_string(),
                p.num_pfcus.to_string(),
                p.waveguides.to_string(),
                format!("{:.1}", p.geomean_fps_per_watt),
                format!("{:.2}", p.normalized_fps_per_watt),
            ]);
        }
    }
    println!("\n== Table III: design-space sweep (100 mm² budget, 5 CNNs) ==\n{table}");
    Ok(())
}

/// Figure 10 — geometric-mean FPS/W as the PhotoFourier optimisations are
/// applied cumulatively.
fn fig10() -> Outcome {
    let points = pf_bench::fig10_optimizations()?;
    let mut table = Table::new(vec!["optimisation", "geomean FPS/W", "vs baseline"]);
    for p in &points {
        table.row(vec![
            p.label.clone(),
            format!("{:.1}", p.geomean_fps_per_watt),
            format!("{:.1}x", p.speedup_over_baseline),
        ]);
    }
    println!("\n== Figure 10: effect of cumulative optimisations (5 CNNs) ==\n{table}");
    println!(
        "total improvement: {:.1}x (paper: ~15x)\n",
        points
            .last()
            .map(|p| p.speedup_over_baseline)
            .unwrap_or(0.0)
    );
    Ok(())
}

/// Figure 11 — area breakdown of PhotoFourier-CG and PhotoFourier-NG.
fn fig11() -> Outcome {
    let areas = pf_bench::fig11_area();
    let mut table = Table::new(vec![
        "design",
        "MRR",
        "photodetector",
        "lens",
        "waveguide routing",
        "laser/splitter",
        "PIC total",
        "SRAM",
        "CMOS tile",
        "total (mm^2)",
    ]);
    for (name, b) in &areas {
        table.row(vec![
            name.clone(),
            format!("{:.2}", b.mrr_mm2),
            format!("{:.2}", b.photodetector_mm2),
            format!("{:.2}", b.lens_mm2),
            format!("{:.2}", b.waveguide_routing_mm2),
            format!("{:.2}", b.laser_splitter_mm2),
            format!("{:.1}", b.pic_mm2()),
            format!("{:.2}", b.sram_mm2),
            format!("{:.2}", b.cmos_mm2),
            format!("{:.1}", b.total_mm2()),
        ]);
    }
    println!("\n== Figure 11: area breakdown ==\n{table}");
    println!("paper reference: CG PIC 92.2 mm², SRAM 5.85, CMOS 10.15; NG PFCU 93.5, SRAM 5.3, CMOS 16.5\n");
    Ok(())
}

/// Figure 12 — power breakdown of PhotoFourier-CG and -NG over the five
/// benchmark CNNs.
fn fig12() -> Outcome {
    let profiles = pf_bench::fig12_power_breakdown()?;
    let mut table = Table::new(vec![
        "design",
        "avg power (W)",
        "laser %",
        "MRR %",
        "DAC %",
        "ADC %",
        "SRAM %",
        "CMOS %",
        "DRAM %",
    ]);
    for p in &profiles {
        let shares = p.breakdown.shares();
        let mut row = vec![p.design_point.clone(), format!("{:.2}", p.avg_power_w)];
        row.extend(shares.iter().map(|s| format!("{:.1}", s * 100.0)));
        table.row(row);
    }
    println!("\n== Figure 12: power breakdown (5 CNNs) ==\n{table}");
    println!("paper reference: CG average 26.0 W, NG average 8.42 W; SRAM becomes the largest NG contributor\n");
    Ok(())
}

/// Figure 13 — throughput (FPS), efficiency (FPS/W) and 1/EDP of
/// PhotoFourier against prior accelerators on AlexNet / VGG-16 / ResNet-18.
fn fig13() -> Outcome {
    let rows = pf_bench::fig13_comparison()?;
    for network in ["AlexNet", "VGG-16", "ResNet-18"] {
        let mut table = Table::new(vec!["accelerator", "FPS", "FPS/W", "1/EDP (1/J·s)"]);
        for row in rows.iter().filter(|r| r.network == network) {
            table.row(vec![
                row.accelerator.clone(),
                fmt_sig(row.fps),
                fmt_sig(row.fps_per_watt),
                fmt_sig(row.inverse_edp),
            ]);
        }
        println!("\n== Figure 13: {network} ==\n{table}");
    }
    println!("prior-accelerator bars are anchored reference points (see pf_arch::baselines)\n");
    Ok(())
}

/// CrossLight comparison (Section VI-E) — energy per inference on the
/// 4-layer CIFAR-10 CNN.
fn crosslight() -> Outcome {
    let result = pf_bench::crosslight_energy()?;
    let mut table = Table::new(vec!["accelerator", "energy per inference (uJ)"]);
    table.row(vec![
        "PhotoFourier-CG (simulated)".to_string(),
        format!("{:.2}", result.photofourier_cg_uj),
    ]);
    table.row(vec![
        "CrossLight (published)".to_string(),
        format!("{:.1}", result.crosslight_uj),
    ]);
    println!("\n== CrossLight comparison (4-layer CIFAR-10 CNN) ==\n{table}");
    println!(
        "advantage: {:.0}x (paper: 4.76 uJ vs 427 uJ, ~90x)\n",
        result.advantage()
    );
    Ok(())
}

/// Ablation — waveguide utilisation and strided-convolution waste per
/// network (the effects behind PhotoFourier's AlexNet inefficiency and the
/// waveguide-count trade-off of Section V-E), and the Section VII what-if.
fn ablation() -> Outcome {
    let rows = pf_bench::ablation_utilization()?;
    let mut table = Table::new(vec![
        "network",
        "avg waveguide utilisation (%)",
        "strided output waste (%)",
    ]);
    for row in &rows {
        table.row(vec![
            row.network.clone(),
            format!("{:.1}", row.avg_waveguide_utilization * 100.0),
            format!("{:.1}", row.strided_waste * 100.0),
        ]);
    }
    println!(
        "\n== Ablation: utilisation and strided-convolution waste (PhotoFourier-CG) ==\n{table}"
    );

    // Section VII what-if: how much cheaper data movement (photonic memory,
    // 3D integration) would still buy for each design point.
    let mut sweep = Table::new(vec![
        "design",
        "memory energy scale",
        "FPS/W (ResNet-18)",
        "memory share (%)",
    ]);
    for (label, base) in [
        ("CG", ArchConfig::photofourier_cg()),
        ("NG", ArchConfig::photofourier_ng()),
    ] {
        for p in data_movement_sweep(&base, &DISCUSSION_SCALES, &[resnet18()])? {
            sweep.row(vec![
                label.to_string(),
                format!("{:.4}", p.memory_energy_scale),
                format!("{:.1}", p.geomean_fps_per_watt),
                format!("{:.1}", p.memory_energy_share * 100.0),
            ]);
        }
    }
    println!("== Section VII what-if: cheaper data movement ==\n{sweep}");
    Ok(())
}

/// Resolves the command line to the experiments to run: all of them for an
/// empty one, else the named ones in the order given. The error is the
/// first unknown name.
fn select(names: &[String]) -> Result<Vec<Experiment>, &str> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(known, _)| known == name)
                .copied()
                .ok_or(name.as_str())
        })
        .collect()
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&names) {
        Ok(selected) => selected,
        Err(unknown) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown experiment {unknown:?}");
            eprintln!("usage: repro [{}]...", known.join(" | "));
            return ExitCode::from(exitcode::USAGE);
        }
    };
    for (name, experiment) in selected {
        if let Err(e) = experiment() {
            eprintln!("{name} failed: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
    }
    ExitCode::from(exitcode::OK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_arguments_selects_every_experiment_and_names_select_in_order() {
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked = select(&["fig13".to_string(), "tab1".to_string()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["fig13", "tab1"]);
        assert_eq!(select(&["fig99".to_string()]).unwrap_err(), "fig99");
    }
}
