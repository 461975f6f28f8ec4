//! Published design parameters of PhotoFourier.
//!
//! [`TechConfig`] reproduces Table IV (component power and high-level design
//! parameters) and [`ComponentDims`] reproduces Table V (component
//! dimensions used for area estimation). The next-generation scaling factor
//! for converters (5.81×, derived from the Walden figure-of-merit envelope)
//! and the CMOS scaling from Stillmaker–Baas are captured as constants so the
//! architecture model can re-derive the NG numbers rather than hard-code
//! them.

use serde::{Deserialize, Serialize};

use crate::units::SquareMicrons;

/// CMOS technology node assumed by a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechNode {
    /// 14 nm FinFET — PhotoFourier-CG (separate CMOS chiplet).
    Nm14,
    /// 7 nm FinFET — PhotoFourier-NG (monolithic integration).
    Nm7,
}

/// Scaling factor applied to ADC/DAC power from CG to NG, obtained in the
/// paper from the Walden FoM envelope at 625 MHz (Section VI-A).
pub const NG_CONVERTER_SCALING: f64 = 5.81;

/// Power penalty of running the read-out ADCs at the full 10 GHz photonic
/// clock instead of the 625 MHz temporal-accumulation rate. The paper states
/// temporal accumulation "can reduce ADC power by more than 30× compared to
/// 10 GHz ADCs" — high-speed converters scale worse than linearly — so the
/// un-optimised baseline pays this factor rather than the linear 16×.
pub const BASELINE_ADC_POWER_FACTOR: f64 = 30.0;

/// Dynamic-power scaling factor from 14 nm to 7 nm CMOS used for the CMOS
/// tiles and SRAM periphery (Stillmaker–Baas scaling equations; the paper
/// applies them to its Genus results, we apply them to the published
/// aggregates).
pub const NG_CMOS_POWER_SCALING: f64 = 2.0;

/// Temporal accumulation depth chosen by the paper (number of input channels
/// accumulated at the photodetector before one ADC read-out).
pub const TEMPORAL_ACCUMULATION_DEPTH: usize = 16;

/// Number of active weight waveguides kept per PFCU after the small-filter
/// optimisation (Section IV-B: 25 = 5×5 backward compatibility).
pub const ACTIVE_WEIGHT_WAVEGUIDES: usize = 25;

/// Default numeric precision of activations, weights and converters.
pub const DEFAULT_PRECISION_BITS: u32 = 8;

/// Target minimum SNR at the photodetectors that sets the laser power
/// (Section VI-A: "larger than 20 dB SNR in most cases").
pub const TARGET_SNR_DB: f64 = 20.0;

/// Table IV — component power and high-level design parameters for one
/// PhotoFourier design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechConfig {
    /// Human-readable name ("PhotoFourier-CG", "PhotoFourier-NG", …).
    pub name: String,
    /// CMOS technology node.
    pub node: TechNode,
    /// Power of one MRR modulator (mW).
    pub mrr_power_mw: f64,
    /// Laser power per waveguide (mW).
    pub laser_power_per_waveguide_mw: f64,
    /// Power of one 8-bit ADC running at `adc_frequency_ghz` (mW).
    pub adc_power_mw: f64,
    /// ADC sampling frequency (GHz). 0.625 GHz after 16× temporal
    /// accumulation of a 10 GHz photonic clock.
    pub adc_frequency_ghz: f64,
    /// Power of one 8-bit DAC running at `dac_frequency_ghz` (mW).
    pub dac_power_mw: f64,
    /// DAC conversion frequency (GHz).
    pub dac_frequency_ghz: f64,
    /// Photonic clock frequency (GHz).
    pub photonic_clock_ghz: f64,
    /// Number of PFCUs in the accelerator.
    pub num_pfcus: usize,
    /// Input waveguides per PFCU.
    pub input_waveguides: usize,
    /// Active weight waveguides (with DACs) per PFCU.
    pub weight_waveguides: usize,
    /// Number of chiplets (2 for 2.5D CG, 1 for monolithic NG).
    pub num_chiplets: usize,
    /// Whether the square-law non-linearity is implemented passively with
    /// non-linear materials (true for NG) instead of photodetector + MRR
    /// pairs (false for CG).
    pub passive_nonlinearity: bool,
    /// Temporal accumulation depth (channels accumulated per ADC read).
    pub temporal_accumulation: usize,
    /// Converter resolution in bits.
    pub precision_bits: u32,
    /// Local weight SRAM per CMOS tile (KiB).
    pub weight_sram_kib: usize,
    /// Shared global activation SRAM (KiB).
    pub activation_sram_kib: usize,
    /// SRAM access energy (pJ per byte). Representative values for wide
    /// 14 nm / 7 nm SRAM macros feeding a 10 GHz datapath; the paper notes
    /// its access energy is "on the higher end" because of the wide buses.
    pub sram_energy_pj_per_byte: f64,
    /// SRAM leakage power for the whole memory system (mW).
    pub sram_leakage_mw: f64,
    /// DRAM access energy (pJ per byte) for off-chip traffic.
    pub dram_energy_pj_per_byte: f64,
    /// Power of the CMOS logic in one tile (input generation + output
    /// processing) at its nominal clocks (mW).
    pub cmos_tile_power_mw: f64,
}

impl TechConfig {
    /// Table IV column "PhotoFourier-CG": 14 nm, 8 PFCUs, two chiplets.
    pub fn photofourier_cg() -> Self {
        Self {
            name: "PhotoFourier-CG".to_string(),
            node: TechNode::Nm14,
            mrr_power_mw: 3.1,
            laser_power_per_waveguide_mw: 0.5,
            adc_power_mw: 0.93,
            adc_frequency_ghz: 0.625,
            dac_power_mw: 35.71,
            dac_frequency_ghz: 10.0,
            photonic_clock_ghz: 10.0,
            num_pfcus: 8,
            input_waveguides: 256,
            weight_waveguides: ACTIVE_WEIGHT_WAVEGUIDES,
            num_chiplets: 2,
            passive_nonlinearity: false,
            temporal_accumulation: TEMPORAL_ACCUMULATION_DEPTH,
            precision_bits: DEFAULT_PRECISION_BITS,
            weight_sram_kib: 512,
            activation_sram_kib: 4096,
            sram_energy_pj_per_byte: 1.8,
            sram_leakage_mw: 120.0,
            dram_energy_pj_per_byte: 10.0,
            cmos_tile_power_mw: 180.0,
        }
    }

    /// Table IV column "PhotoFourier-NG": 7 nm, 16 PFCUs, monolithic,
    /// passive non-linearity.
    pub fn photofourier_ng() -> Self {
        let cg = Self::photofourier_cg();
        Self {
            name: "PhotoFourier-NG".to_string(),
            node: TechNode::Nm7,
            mrr_power_mw: 0.42,
            laser_power_per_waveguide_mw: 0.5,
            adc_power_mw: cg.adc_power_mw / NG_CONVERTER_SCALING,
            adc_frequency_ghz: 0.625,
            dac_power_mw: cg.dac_power_mw / NG_CONVERTER_SCALING,
            dac_frequency_ghz: 10.0,
            photonic_clock_ghz: 10.0,
            num_pfcus: 16,
            input_waveguides: 256,
            weight_waveguides: ACTIVE_WEIGHT_WAVEGUIDES,
            num_chiplets: 1,
            passive_nonlinearity: true,
            temporal_accumulation: TEMPORAL_ACCUMULATION_DEPTH,
            precision_bits: DEFAULT_PRECISION_BITS,
            weight_sram_kib: 512,
            activation_sram_kib: 4096,
            sram_energy_pj_per_byte: 1.35,
            sram_leakage_mw: 80.0,
            dram_energy_pj_per_byte: 10.0,
            cmos_tile_power_mw: cg.cmos_tile_power_mw / NG_CMOS_POWER_SCALING,
        }
    }

    /// The un-optimised 1-PFCU baseline of Section V-B / Figure 6: one PFCU,
    /// 256 input waveguides, no small-filter optimisation (a DAC on every
    /// waveguide), no temporal accumulation (ADCs at the full photonic
    /// clock), CG component powers.
    pub fn baseline_single_pfcu() -> Self {
        let mut cfg = Self::photofourier_cg();
        cfg.name = "Baseline-1PFCU".to_string();
        cfg.num_pfcus = 1;
        cfg.weight_waveguides = cfg.input_waveguides;
        cfg.temporal_accumulation = 1;
        // Without temporal accumulation the ADCs must run at the photonic
        // clock; 10 GHz converters pay a worse-than-linear power penalty
        // (Section V-C cites "more than 30x").
        cfg.adc_frequency_ghz = cfg.photonic_clock_ghz;
        cfg.adc_power_mw *= BASELINE_ADC_POWER_FACTOR;
        cfg
    }

    /// Checked constructor validating physical plausibility of the
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PhotonicsError::InvalidParameter`] if any power,
    /// frequency or count is non-positive.
    pub fn validated(self) -> Result<Self, crate::PhotonicsError> {
        use crate::PhotonicsError::InvalidParameter;
        let positive = [
            ("mrr_power_mw", self.mrr_power_mw),
            (
                "laser_power_per_waveguide_mw",
                self.laser_power_per_waveguide_mw,
            ),
            ("adc_power_mw", self.adc_power_mw),
            ("adc_frequency_ghz", self.adc_frequency_ghz),
            ("dac_power_mw", self.dac_power_mw),
            ("dac_frequency_ghz", self.dac_frequency_ghz),
            ("photonic_clock_ghz", self.photonic_clock_ghz),
        ];
        for (name, value) in positive {
            if value <= 0.0 {
                return Err(InvalidParameter {
                    name,
                    value,
                    requirement: "must be positive",
                });
            }
        }
        if self.num_pfcus == 0 || self.input_waveguides == 0 {
            return Err(InvalidParameter {
                name: "num_pfcus/input_waveguides",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        Ok(self)
    }
}

/// Table V — dimensions of the photonic components used for area estimation.
/// Identical for the CG and NG design points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentDims {
    /// MRR footprint (µm × µm).
    pub mrr_um: (f64, f64),
    /// Optical splitter footprint (µm × µm).
    pub splitter_um: (f64, f64),
    /// Photodetector footprint (µm × µm).
    pub photodetector_um: (f64, f64),
    /// Waveguide pitch (µm).
    pub waveguide_pitch_um: f64,
    /// Laser footprint (µm × µm).
    pub laser_um: (f64, f64),
    /// On-chip metasurface lens footprint (µm × µm).
    pub lens_um: (f64, f64),
}

impl ComponentDims {
    /// The dimensions published in Table V.
    pub fn paper_values() -> Self {
        Self {
            mrr_um: (15.0, 17.0),
            splitter_um: (1.2, 2.2),
            photodetector_um: (16.0, 120.0),
            waveguide_pitch_um: 1.3,
            laser_um: (400.0, 300.0),
            lens_um: (2000.0, 1000.0),
        }
    }

    /// Area of one MRR.
    pub fn mrr_area(&self) -> SquareMicrons {
        SquareMicrons(self.mrr_um.0 * self.mrr_um.1)
    }

    /// Area of one optical splitter.
    pub fn splitter_area(&self) -> SquareMicrons {
        SquareMicrons(self.splitter_um.0 * self.splitter_um.1)
    }

    /// Area of one photodetector.
    pub fn photodetector_area(&self) -> SquareMicrons {
        SquareMicrons(self.photodetector_um.0 * self.photodetector_um.1)
    }

    /// Area of one laser.
    pub fn laser_area(&self) -> SquareMicrons {
        SquareMicrons(self.laser_um.0 * self.laser_um.1)
    }

    /// Area occupied by `n` parallel waveguides of length `len_um`.
    pub fn waveguide_area(&self, n: usize, len_um: f64) -> SquareMicrons {
        SquareMicrons(self.waveguide_pitch_um * n as f64 * len_um)
    }
}

impl Default for ComponentDims {
    fn default() -> Self {
        Self::paper_values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_cg_values() {
        let cg = TechConfig::photofourier_cg();
        assert_eq!(cg.mrr_power_mw, 3.1);
        assert_eq!(cg.laser_power_per_waveguide_mw, 0.5);
        assert_eq!(cg.adc_power_mw, 0.93);
        assert_eq!(cg.dac_power_mw, 35.71);
        assert_eq!(cg.num_pfcus, 8);
        assert_eq!(cg.input_waveguides, 256);
        assert_eq!(cg.num_chiplets, 2);
        assert_eq!(cg.node, TechNode::Nm14);
        assert!(!cg.passive_nonlinearity);
    }

    #[test]
    fn table_iv_ng_values() {
        let ng = TechConfig::photofourier_ng();
        assert_eq!(ng.mrr_power_mw, 0.42);
        assert_eq!(ng.num_pfcus, 16);
        assert_eq!(ng.num_chiplets, 1);
        assert_eq!(ng.node, TechNode::Nm7);
        assert!(ng.passive_nonlinearity);
        // ADC 0.93 / 5.81 ≈ 0.16 mW, DAC 35.71 / 5.81 ≈ 6.15 mW (paper values).
        assert!((ng.adc_power_mw - 0.16).abs() < 0.01);
        assert!((ng.dac_power_mw - 6.15).abs() < 0.01);
    }

    #[test]
    fn baseline_has_full_rate_adcs() {
        let b = TechConfig::baseline_single_pfcu();
        assert_eq!(b.num_pfcus, 1);
        assert_eq!(b.temporal_accumulation, 1);
        assert_eq!(b.adc_frequency_ghz, b.photonic_clock_ghz);
        // 30x the 625 MHz power (worse-than-linear scaling of 10 GHz ADCs).
        assert!((b.adc_power_mw - 0.93 * 30.0).abs() < 1e-9);
        // every waveguide keeps its weight DAC
        assert_eq!(b.weight_waveguides, b.input_waveguides);
    }

    #[test]
    fn readout_clock_is_divided_by_temporal_depth() {
        // The ADCs read once per temporal-accumulation group: 10 GHz / 16 =
        // 0.625 GHz on CG and NG, the full photonic clock on the baseline.
        for tech in [
            TechConfig::photofourier_cg(),
            TechConfig::photofourier_ng(),
            TechConfig::baseline_single_pfcu(),
        ] {
            assert_eq!(
                tech.adc_frequency_ghz,
                tech.photonic_clock_ghz / tech.temporal_accumulation as f64,
                "{}",
                tech.name
            );
        }
    }

    #[test]
    fn validation_rejects_nonpositive() {
        let mut bad = TechConfig::photofourier_cg();
        bad.dac_power_mw = -1.0;
        assert!(bad.validated().is_err());
        let mut bad = TechConfig::photofourier_cg();
        bad.num_pfcus = 0;
        assert!(bad.validated().is_err());
        assert!(TechConfig::photofourier_cg().validated().is_ok());
    }

    #[test]
    fn table_v_dimensions() {
        let d = ComponentDims::paper_values();
        assert_eq!(d.mrr_area().value(), 15.0 * 17.0);
        assert_eq!(d.photodetector_area().value(), 16.0 * 120.0);
        assert_eq!(d.laser_area().value(), 400.0 * 300.0);
        assert_eq!(d.lens_um, (2000.0, 1000.0));
        assert_eq!(d.splitter_area().value(), 1.2 * 2.2);
        assert_eq!(d.waveguide_pitch_um, 1.3);
        assert_eq!(ComponentDims::default(), d);
    }

    #[test]
    fn waveguide_area_scales_linearly() {
        let d = ComponentDims::paper_values();
        let a1 = d.waveguide_area(1, 1000.0);
        let a256 = d.waveguide_area(256, 1000.0);
        assert!((a256.value() / a1.value() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(TEMPORAL_ACCUMULATION_DEPTH, 16);
        assert_eq!(ACTIVE_WEIGHT_WAVEGUIDES, 25);
        assert_eq!(DEFAULT_PRECISION_BITS, 8);
        assert!((NG_CONVERTER_SCALING - 5.81).abs() < 1e-12);
    }
}
