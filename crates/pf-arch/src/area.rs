//! Chip-area model (Table V constants, Figure 11, Table III).
//!
//! Component footprints come straight from Table V. What the paper's Figure
//! 11 calls "waveguide routing" — waveguides plus the redundant area forced
//! by the folded 2.5D layout of PhotoFourier-CG — is modelled as the
//! waveguide runs plus a layout-overhead multiplier that is large for the
//! two-chiplet CG design (folded PFCUs, everything crowded against the CMOS
//! chiplet edge) and small for the monolithic NG design.

use pf_photonics::params::{ComponentDims, TechConfig};
use serde::{Deserialize, Serialize};

use crate::error::ArchError;

/// Area breakdown of one design point, in mm² (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Micro-ring modulators.
    pub mrr_mm2: f64,
    /// Photodetectors.
    pub photodetector_mm2: f64,
    /// On-chip lenses.
    pub lens_mm2: f64,
    /// Waveguide routing including layout-constraint overhead.
    pub waveguide_routing_mm2: f64,
    /// Lasers and splitter trees.
    pub laser_splitter_mm2: f64,
    /// On-chip SRAM (weight + activation).
    pub sram_mm2: f64,
    /// CMOS processing tiles.
    pub cmos_mm2: f64,
}

impl AreaBreakdown {
    /// Photonic IC area (everything except SRAM and CMOS logic).
    pub fn pic_mm2(&self) -> f64 {
        self.mrr_mm2
            + self.photodetector_mm2
            + self.lens_mm2
            + self.waveguide_routing_mm2
            + self.laser_splitter_mm2
    }

    /// Total accelerator area.
    pub fn total_mm2(&self) -> f64 {
        self.pic_mm2() + self.sram_mm2 + self.cmos_mm2
    }
}

/// Area model parameterised by the photonic component dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    dims: ComponentDims,
    /// Length of the waveguide run through one PFCU, in µm (longer for the
    /// folded two-chiplet layout).
    waveguide_run_um: f64,
    /// Fractional overhead added for layout constraints (Section V-A:
    /// the folded CG layout wastes almost half the chip).
    layout_overhead: f64,
    /// Fixed per-PFCU area for couplers, tuning and control, in mm².
    fixed_per_pfcu_mm2: f64,
    /// SRAM macro area in mm² (from the memory compiler / PCACTI runs the
    /// paper reports in Figure 11).
    sram_mm2: f64,
    /// CMOS tile area in mm² (all tiles).
    cmos_mm2: f64,
}

impl AreaModel {
    /// Builds the area model matching a technology configuration.
    pub fn for_tech(tech: &TechConfig) -> Self {
        let folded = tech.num_chiplets >= 2;
        Self {
            dims: ComponentDims::paper_values(),
            waveguide_run_um: if folded { 4000.0 } else { 2500.0 },
            layout_overhead: if folded { 0.5 } else { 0.05 },
            fixed_per_pfcu_mm2: 0.1,
            sram_mm2: if folded { 5.85 } else { 5.3 },
            cmos_mm2: if folded { 10.15 } else { 16.5 },
        }
    }

    /// Full area breakdown of an accelerator with the given PFCU count and
    /// waveguides per PFCU.
    pub fn breakdown(&self, tech: &TechConfig) -> AreaBreakdown {
        self.breakdown_for(tech, tech.num_pfcus, tech.input_waveguides)
    }

    /// Area breakdown for an arbitrary (PFCU count, waveguide count) point —
    /// used by the design-space exploration.
    pub fn breakdown_for(
        &self,
        tech: &TechConfig,
        num_pfcus: usize,
        waveguides: usize,
    ) -> AreaBreakdown {
        let w = waveguides as f64;
        let n = num_pfcus as f64;
        // Input and weight modulators per waveguide; the CG design adds a
        // ring on every Fourier-plane waveguide for the square function.
        let mrr_count = if tech.passive_nonlinearity { 2.0 } else { 3.0 } * w * n;
        // Output detectors, plus the Fourier-plane detectors of CG.
        let pd_count = if tech.passive_nonlinearity { 1.0 } else { 2.0 } * w * n;
        // The lens aperture spans every waveguide: the Table V 2 mm × 1 mm
        // lens serves a 256-waveguide PFCU, about 3.9 µm per waveguide.
        let lens_width_um = w * 3.9;

        let mrr_mm2 = mrr_count * self.dims.mrr_area().to_mm2();
        let photodetector_mm2 = pd_count * self.dims.photodetector_area().to_mm2();
        let lens_mm2 = 2.0 * n * self.dims.lens_um.0 * lens_width_um * 1e-6;
        let raw_routing = n
            * (self
                .dims
                .waveguide_area(waveguides, self.waveguide_run_um)
                .to_mm2()
                + self.fixed_per_pfcu_mm2);
        // Layout overhead (dead space of the folded layout) is attributed to
        // routing, as Figure 11 does.
        let component_total = mrr_mm2 + photodetector_mm2 + lens_mm2 + raw_routing;
        let waveguide_routing_mm2 = raw_routing + component_total * self.layout_overhead;

        // Lasers (one per PFCU plus one shared input bank) and the broadcast
        // splitter tree.
        let laser_splitter_mm2 = (n + 1.0) * self.dims.laser_area().to_mm2()
            + w * (n - 1.0).max(0.0) * self.dims.splitter_area().to_mm2();

        AreaBreakdown {
            mrr_mm2,
            photodetector_mm2,
            lens_mm2,
            waveguide_routing_mm2,
            laser_splitter_mm2,
            sram_mm2: self.sram_mm2,
            cmos_mm2: self.cmos_mm2,
        }
    }

    /// Largest number of input waveguides per PFCU that keeps the photonic
    /// IC within `budget_mm2` for the given PFCU count (Table III, left
    /// columns).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if even a minimal PFCU
    /// (32 waveguides) exceeds the budget.
    pub fn max_waveguides(
        &self,
        tech: &TechConfig,
        num_pfcus: usize,
        budget_mm2: f64,
    ) -> Result<usize, ArchError> {
        let fits = |w: usize| self.breakdown_for(tech, num_pfcus, w).pic_mm2() <= budget_mm2;
        if !fits(32) {
            return Err(ArchError::InvalidConfig {
                name: "budget_mm2",
                requirement: format!(
                    "{num_pfcus} PFCUs with even 32 waveguides exceed {budget_mm2} mm^2"
                ),
            });
        }
        let (mut lo, mut hi) = (32usize, 32usize);
        while fits(hi * 2) {
            hi *= 2;
            if hi > 1 << 20 {
                break;
            }
        }
        hi *= 2;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_photonics::params::TechConfig;

    #[test]
    fn cg_area_matches_published_ballpark() {
        let tech = TechConfig::photofourier_cg();
        let model = AreaModel::for_tech(&tech);
        let breakdown = model.breakdown(&tech);
        // Paper Figure 11(a): PIC chiplet 92.2 mm^2, SRAM 5.85, CMOS 10.15.
        assert!(
            (70.0..120.0).contains(&breakdown.pic_mm2()),
            "CG PIC area {}",
            breakdown.pic_mm2()
        );
        assert_eq!(breakdown.sram_mm2, 5.85);
        assert_eq!(breakdown.cmos_mm2, 10.15);
        assert!(breakdown.total_mm2() > breakdown.pic_mm2());
    }

    #[test]
    fn ng_has_twice_the_pfcus_at_similar_area() {
        let cg = TechConfig::photofourier_cg();
        let ng = TechConfig::photofourier_ng();
        let cg_area = AreaModel::for_tech(&cg).breakdown(&cg).pic_mm2();
        let ng_area = AreaModel::for_tech(&ng).breakdown(&ng).pic_mm2();
        // Paper: 92.2 vs 93.5 mm^2 — "roughly the same area" with 2x PFCUs.
        let ratio = ng_area / cg_area;
        assert!(
            (0.7..1.4).contains(&ratio),
            "NG/CG area ratio {ratio} ({ng_area} vs {cg_area})"
        );
    }

    #[test]
    fn cg_routing_dominates_due_to_layout_constraints() {
        // Figure 11(a): waveguide routing (incl. dead space) is the largest
        // single contributor, close to half the chip.
        let tech = TechConfig::photofourier_cg();
        let b = AreaModel::for_tech(&tech).breakdown(&tech);
        assert!(b.waveguide_routing_mm2 > b.mrr_mm2);
        assert!(b.waveguide_routing_mm2 > b.photodetector_mm2);
        assert!(b.waveguide_routing_mm2 > 0.3 * b.pic_mm2());
    }

    #[test]
    fn mrr_and_pd_are_small_fractions() {
        // Section VI-C: "photodetector and MRR consume a very small portion
        // of the total area in both versions".
        for tech in [TechConfig::photofourier_cg(), TechConfig::photofourier_ng()] {
            let b = AreaModel::for_tech(&tech).breakdown(&tech);
            assert!(b.mrr_mm2 < 0.1 * b.pic_mm2());
            assert!(b.photodetector_mm2 < 0.15 * b.pic_mm2());
        }
    }

    #[test]
    fn max_waveguides_decreases_with_pfcu_count() {
        // Table III trend: more PFCUs -> fewer waveguides per PFCU under the
        // same 100 mm^2 budget.
        let tech = TechConfig::photofourier_cg();
        let model = AreaModel::for_tech(&tech);
        let mut previous = usize::MAX;
        for n in [4usize, 8, 16, 32, 64] {
            let w = model.max_waveguides(&tech, n, 100.0).unwrap();
            assert!(w < previous, "waveguides should decrease: {n} PFCUs -> {w}");
            assert!(w >= 32);
            previous = w;
        }
    }

    #[test]
    fn max_waveguides_respects_budget() {
        let tech = TechConfig::photofourier_cg();
        let model = AreaModel::for_tech(&tech);
        for n in [4usize, 8, 16] {
            let w = model.max_waveguides(&tech, n, 100.0).unwrap();
            assert!(model.breakdown_for(&tech, n, w).pic_mm2() <= 100.0);
            assert!(model.breakdown_for(&tech, n, w + 8).pic_mm2() > 100.0);
        }
    }

    #[test]
    fn impossible_budget_is_rejected() {
        let tech = TechConfig::photofourier_cg();
        let model = AreaModel::for_tech(&tech);
        assert!(model.max_waveguides(&tech, 64, 1.0).is_err());
    }

    #[test]
    fn pfcu_area_monotone_in_waveguides() {
        let tech = TechConfig::photofourier_cg();
        let model = AreaModel::for_tech(&tech);
        let pfcu = |w: usize| model.breakdown_for(&tech, 1, w).pic_mm2();
        let (a128, a256, a512) = (pfcu(128), pfcu(256), pfcu(512));
        assert!(a128 < a256 && a256 < a512);
    }
}
