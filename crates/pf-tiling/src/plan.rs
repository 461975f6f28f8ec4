//! Tiling plan: variant selection and cycle-count formulas of Section III.
//!
//! The plan answers the questions the architecture simulator cares about —
//! how many 1D convolutions ("cycles" of the PFCU) it takes to produce one
//! output channel plane, and what fraction of the produced outputs is valid —
//! without touching any data.

use serde::{Deserialize, Serialize};

use crate::error::TilingError;

/// Which of the three Section III variants applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TilingVariant {
    /// `n_conv >= sk * si`: several complete input rows fit, full output rows
    /// are produced each cycle (Section III-A).
    RowTiling,
    /// `si <= n_conv < sk * si`: an output row needs multiple cycles whose
    /// partial results are accumulated (Section III-B).
    PartialRowTiling,
    /// `n_conv < si`: even a single input row must be split into partitions
    /// (Section III-C); used for the first layer of high-resolution CNNs.
    RowPartitioning,
}

/// A tiling plan for a 2D convolution of an `si x si`-shaped input (rows may
/// differ from columns; `si` refers to the row length, i.e. the number of
/// columns) with an `sk x sk` kernel on hardware with 1D capacity `n_conv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingPlan {
    /// Input rows.
    pub input_rows: usize,
    /// Input columns (`S_i` in the paper's formulas).
    pub input_cols: usize,
    /// Kernel rows.
    pub kernel_rows: usize,
    /// Kernel columns.
    pub kernel_cols: usize,
    /// Maximum 1D convolution size supported by the hardware (`N_conv`).
    pub n_conv: usize,
    /// Selected variant.
    pub variant: TilingVariant,
    /// Input rows tiled per 1D convolution (`N_ir`).
    pub rows_per_tile: usize,
    /// Valid output rows produced per 1D convolution (`N_or`); zero for the
    /// partial/partitioned variants where a single convolution does not
    /// complete an output row.
    pub valid_output_rows_per_conv: usize,
    /// Total number of 1D convolutions to produce one full output plane in
    /// `same` mode (output rows == input rows), the convention the paper
    /// uses for its cycle counts.
    pub convs_per_output_plane: usize,
}

impl TilingPlan {
    /// Builds the plan for the given shapes and hardware capacity.
    ///
    /// # Errors
    ///
    /// * [`TilingError::EmptyOperand`] if any dimension is zero.
    /// * [`TilingError::KernelLargerThanInput`] if the kernel exceeds the
    ///   input in either dimension.
    /// * [`TilingError::CapacityTooSmall`] if `n_conv` cannot hold one kernel
    ///   row (`n_conv < sk`).
    pub fn new(
        input_rows: usize,
        input_cols: usize,
        kernel_rows: usize,
        kernel_cols: usize,
        n_conv: usize,
    ) -> Result<Self, TilingError> {
        if input_rows == 0 || input_cols == 0 {
            return Err(TilingError::EmptyOperand { what: "input" });
        }
        if kernel_rows == 0 || kernel_cols == 0 {
            return Err(TilingError::EmptyOperand { what: "kernel" });
        }
        if kernel_rows > input_rows || kernel_cols > input_cols {
            return Err(TilingError::KernelLargerThanInput {
                kernel: (kernel_rows, kernel_cols),
                input: (input_rows, input_cols),
            });
        }
        if n_conv < kernel_cols {
            return Err(TilingError::CapacityTooSmall {
                n_conv,
                required: kernel_cols,
            });
        }

        let si = input_cols;
        let sk = kernel_rows;

        let (variant, rows_per_tile, valid_rows, convs) = if n_conv >= sk * si {
            // Row tiling: N_ir = floor(Nconv / si), N_or = N_ir - sk + 1,
            // total convs = ceil(S_i / N_or)  (paper, Section III-A).
            let n_ir = (n_conv / si).min(input_rows);
            let n_or = n_ir.saturating_sub(sk).saturating_add(1).max(1);
            let convs = input_rows.div_ceil(n_or);
            (TilingVariant::RowTiling, n_ir, n_or, convs)
        } else if n_conv >= si {
            // Partial row tiling: N_ir = floor(Nconv / si),
            // cycles = S_i * ceil(S_k / N_ir)  (paper, Section III-B).
            let n_ir = n_conv / si;
            let convs = input_rows * sk.div_ceil(n_ir);
            (TilingVariant::PartialRowTiling, n_ir, 0, convs)
        } else {
            // Row partitioning: cycles = S_i * S_k * ceil(S_i / N_conv)
            // (paper, Section III-C).
            let convs = input_rows * sk * si.div_ceil(n_conv);
            (TilingVariant::RowPartitioning, 1, 0, convs)
        };

        Ok(Self {
            input_rows,
            input_cols,
            kernel_rows,
            kernel_cols,
            n_conv,
            variant,
            rows_per_tile,
            valid_output_rows_per_conv: valid_rows,
            convs_per_output_plane: convs,
        })
    }

    /// Length of the tiled kernel vector: kernel rows separated by
    /// `si - sk` zeros so they align with the tiled input rows.
    pub fn tiled_kernel_len(&self) -> usize {
        (self.kernel_rows - 1) * self.input_cols + self.kernel_cols
    }

    /// Length of the tiled input vector before zero-padding to `n_conv`.
    pub fn tiled_input_len(&self) -> usize {
        self.rows_per_tile * self.input_cols
    }

    /// Fraction of produced 1D output samples that are valid 2D results, the
    /// "computation efficiency" discussed at the end of Section III-A.
    ///
    /// Only meaningful for the [`TilingVariant::RowTiling`] variant; the
    /// other variants return the utilisation of the tiled input vector
    /// instead.
    pub fn efficiency(&self) -> f64 {
        match self.variant {
            TilingVariant::RowTiling => {
                let valid = self.valid_output_rows_per_conv * self.input_cols;
                valid as f64 / self.n_conv as f64
            }
            _ => self.tiled_input_len().min(self.n_conv) as f64 / self.n_conv as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(matches!(
            TilingPlan::new(0, 5, 3, 3, 20),
            Err(TilingError::EmptyOperand { .. })
        ));
        assert!(matches!(
            TilingPlan::new(5, 5, 0, 3, 20),
            Err(TilingError::EmptyOperand { .. })
        ));
        assert!(matches!(
            TilingPlan::new(5, 5, 7, 7, 200),
            Err(TilingError::KernelLargerThanInput { .. })
        ));
        assert!(matches!(
            TilingPlan::new(5, 5, 3, 3, 2),
            Err(TilingError::CapacityTooSmall { .. })
        ));
    }

    #[test]
    fn paper_figure3_example() {
        // 5x5 input, 3x3 kernel, Nconv = 20 (Figure 3).
        let plan = TilingPlan::new(5, 5, 3, 3, 20).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        // floor(20/5) = 4 rows tiled.
        assert_eq!(plan.rows_per_tile, 4);
        // Nor = 4 - 3 + 1 = 2 valid output rows per convolution.
        assert_eq!(plan.valid_output_rows_per_conv, 2);
        // ceil(5 / 2) = 3 total 1D convolutions.
        assert_eq!(plan.convs_per_output_plane, 3);
        // Tiled kernel: 3 rows with (5-3) zero separation: 2*5+3 = 13.
        assert_eq!(plan.tiled_kernel_len(), 13);
        assert_eq!(plan.tiled_input_len(), 20);
        // 2 valid rows * 5 cols out of 20 produced = 50% efficiency.
        assert!((plan.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pfcu_256_waveguides_on_cifar_input() {
        // 32x32 input, 3x3 kernel, 256-waveguide PFCU.
        let plan = TilingPlan::new(32, 32, 3, 3, 256).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        assert_eq!(plan.rows_per_tile, 8);
        assert_eq!(plan.valid_output_rows_per_conv, 6);
        assert_eq!(plan.convs_per_output_plane, 32usize.div_ceil(6));
    }

    #[test]
    fn rows_per_tile_clamped_to_input() {
        // Tiny 4x4 input on a 256-capacity PFCU: cannot tile more rows than exist.
        let plan = TilingPlan::new(4, 4, 3, 3, 256).unwrap();
        assert_eq!(plan.rows_per_tile, 4);
        assert_eq!(plan.valid_output_rows_per_conv, 2);
        assert_eq!(plan.convs_per_output_plane, 2);
    }

    #[test]
    fn partial_row_tiling_selection_and_cycles() {
        // si = 100, sk = 3: sk*si = 300 > n_conv = 200 >= si -> partial.
        let plan = TilingPlan::new(100, 100, 3, 3, 200).unwrap();
        assert_eq!(plan.variant, TilingVariant::PartialRowTiling);
        assert_eq!(plan.rows_per_tile, 2);
        // cycles = Si * ceil(Sk / Nir) = 100 * ceil(3/2) = 200.
        assert_eq!(plan.convs_per_output_plane, 200);
    }

    #[test]
    fn row_partitioning_selection_and_cycles() {
        // ImageNet first layer: 224x224 input, 3x3 kernel (for VGG), Nconv = 256 >= 224
        // is partial; force partitioning with Nconv = 128 < 224.
        let plan = TilingPlan::new(224, 224, 3, 3, 128).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowPartitioning);
        // cycles = Si * Sk * ceil(Si / Nconv) = 224 * 3 * 2 = 1344.
        assert_eq!(plan.convs_per_output_plane, 224 * 3 * 2);
    }

    #[test]
    fn exact_fit_boundary_is_row_tiling() {
        // n_conv == sk*si exactly -> row tiling with one output row per conv.
        let plan = TilingPlan::new(8, 8, 3, 3, 24).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        assert_eq!(plan.rows_per_tile, 3);
        assert_eq!(plan.valid_output_rows_per_conv, 1);
        assert_eq!(plan.convs_per_output_plane, 8);
    }

    #[test]
    fn efficiency_improves_with_capacity() {
        let small = TilingPlan::new(14, 14, 3, 3, 3 * 14).unwrap();
        let large = TilingPlan::new(14, 14, 3, 3, 14 * 14).unwrap();
        assert!(large.efficiency() > small.efficiency());
    }

    #[test]
    fn one_by_one_kernel() {
        let plan = TilingPlan::new(16, 16, 1, 1, 256).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        // 16 rows fit, all outputs valid.
        assert_eq!(plan.rows_per_tile, 16);
        assert_eq!(plan.valid_output_rows_per_conv, 16);
        assert_eq!(plan.convs_per_output_plane, 1);
    }
}
