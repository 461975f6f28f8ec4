//! Row tiling, partial row tiling and row partitioning — the algorithm that
//! lets PhotoFourier execute 2D convolutions on hardware that only supports
//! 1D convolution (Section III of the paper).
//!
//! The idea: concatenate ("tile") several rows of the 2D input into one long
//! 1D vector, tile the kernel rows with zero spacing so that, after tiling,
//! kernel rows line up with their corresponding input rows, and run a single
//! 1D convolution. Outputs at positions where the tiled kernel is fully
//! inside the tiled input reproduce the 2D convolution exactly; the rest are
//! discarded.
//!
//! Three variants cover the full range of input sizes relative to the 1D
//! convolution capacity `n_conv` of the hardware:
//!
//! | condition                | variant                | type                        |
//! |--------------------------|------------------------|-----------------------------|
//! | `n_conv >= sk * si`      | row tiling             | [`TilingVariant::RowTiling`] |
//! | `si <= n_conv < sk * si` | partial row tiling     | [`TilingVariant::PartialRowTiling`] |
//! | `n_conv < si`            | row partitioning       | [`TilingVariant::RowPartitioning`] |
//!
//! The module is deliberately generic over the 1D convolution backend
//! ([`Conv1dEngine`]): the digital reference engine is used for validation,
//! and `pf-jtc` plugs in the photonic JTC engine (with quantisation and
//! noise) to evaluate accuracy on the real signal chain.
//!
//! # Examples
//!
//! ```
//! use pf_dsp::conv::{correlate2d, Matrix, PaddingMode};
//! use pf_tiling::{DigitalEngine, TiledConvolver};
//!
//! let input = Matrix::new(5, 5, (0..25).map(|x| x as f64).collect())?;
//! let kernel = Matrix::new(3, 3, vec![1.0; 9])?;
//! let convolver = TiledConvolver::new(DigitalEngine::default(), 20)?;
//! let tiled = convolver.correlate2d_valid(&input, &kernel)?;
//! let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
//! assert_eq!(tiled.data(), reference.data());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod executor;
pub mod plan;
pub mod tiler;

pub use engine::{
    correlate_set_per_kernel, Conv1dEngine, DigitalEngine, PreparedConv1d, PreparedSignal,
};
pub use error::TilingError;
pub use executor::{EdgeHandling, KernelSet, ParallelGrain, TiledConvolver};
pub use plan::{TilingPlan, TilingVariant};
pub use tiler::{fill_tile_rows, tile_input_rows, tile_kernel};
