//! Row tiling asks the engine only for the samples it writes.
//!
//! Each 1D convolution of row tiling completes `N_or` output rows, and a
//! plane takes `ceil(S_o / N_or)` of them, so its last convolution
//! completes only the rows that are left and reads only the head of its
//! correlations. A recording double shows what every set call asks for:
//! `count × corr_len` samples on a full tile, `count × min(corr_len, rows ·
//! si)` on the last one — and that the answers, the sink's samples and the
//! `tiling.samples` counter follow.

use std::any::Any;
use std::sync::{Arc, Mutex};

use pf_dsp::conv::Matrix;
use pf_telemetry::{StageAcc, Telemetry};
use pf_tiling::{
    Conv1dEngine, DigitalEngine, EdgeHandling, PreparedConv1d, PreparedSignal, TiledConvolver,
    TilingPlan,
};

/// `(set size, out.len())` of every set call, in call order.
type Log = Arc<Mutex<Vec<(usize, usize)>>>;

/// The digital engine, its prepared kernels wrapped in [`Recording`].
#[derive(Debug, Default)]
struct Recorder {
    log: Log,
}

impl Conv1dEngine for Recorder {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        DigitalEngine.correlate_valid(signal, kernel)
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        Some(Arc::new(Recording {
            inner: DigitalEngine.prepare_kernel(kernel, signal_len)?,
            log: Arc::clone(&self.log),
        }))
    }
}

/// Logs each set call made on it, then hands the call to the digital
/// kernels it wraps.
#[derive(Debug)]
struct Recording {
    inner: Arc<dyn PreparedConv1d>,
    log: Log,
}

impl PreparedConv1d for Recording {
    fn signal_len(&self) -> usize {
        self.inner.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.inner.correlate_valid(signal)
    }

    fn correlate_set_into(
        &self,
        set: &[&dyn PreparedConv1d],
        shared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        out: &mut [f64],
        acc: Option<&mut StageAcc>,
    ) {
        self.log.lock().unwrap().push((set.len(), out.len()));
        let inner: Vec<&dyn PreparedConv1d> = set
            .iter()
            .map(|member| {
                let member = (*member as &dyn Any).downcast_ref::<Recording>();
                &*member.expect("one engine's set").inner
            })
            .collect();
        inner[0].correlate_set_into(&inner, shared, signal, out, acc);
    }
}

fn matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i * 13 + seed * 29) as f64 * 0.173).sin() + 0.05 * (seed % 4) as f64)
        .collect();
    Matrix::new(rows, cols, data).unwrap()
}

/// What every set call of one row-tiled plane asks for, derived from the
/// plan: `count × min(corr_len, rows · si)` per tile, `rows` the output
/// rows the tile completes.
fn expected_requests(plan: &TilingPlan, out_rows: usize, count: usize) -> Vec<(usize, usize)> {
    let si = plan.input_cols;
    let corr_len = plan.rows_per_tile * si + 1 - plan.tiled_kernel_len();
    let n_or = plan.valid_output_rows_per_conv;
    (0..out_rows)
        .step_by(n_or)
        .map(|r0| (count, count * corr_len.min(n_or.min(out_rows - r0) * si)))
        .collect()
}

/// Runs `count` kernels over a `rows × cols` plane under `edges` on the
/// recorder and on the bare digital engine: every set call must ask for
/// what the plan says, the first tiles whole and the last `last` samples
/// per kernel; the outputs must be the bare engine's bit for bit; and
/// `tiling.samples` must count what was asked.
fn check(
    (rows, cols): (usize, usize),
    count: usize,
    edges: Option<EdgeHandling>,
    capacity: usize,
    [whole, last]: [usize; 2],
) {
    let what = format!("{rows} x {cols}, {count} kernels, {edges:?}, capacity {capacity}");
    let input = matrix(rows, cols, 1);
    let kernels: Vec<Matrix> = (0..count).map(|k| matrix(3, 3, 40 + k)).collect();
    let telemetry = Telemetry::enabled();
    let recorder = TiledConvolver::new(Recorder::default(), capacity)
        .unwrap()
        .with_telemetry(telemetry.clone());
    let bare = TiledConvolver::new(DigitalEngine, capacity).unwrap();
    let (recorded, reference) = match edges {
        None => (
            recorder.correlate2d_valid_multi(&input, &kernels).unwrap(),
            bare.correlate2d_valid_multi(&input, &kernels).unwrap(),
        ),
        Some(edges) => (
            recorder
                .correlate2d_same_multi(&input, &kernels, edges)
                .unwrap(),
            bare.correlate2d_same_multi(&input, &kernels, edges)
                .unwrap(),
        ),
    };
    for (a, b) in recorded.iter().zip(&reference) {
        let same = a
            .data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: outputs");
    }

    let pad = match edges {
        Some(EdgeHandling::ZeroPad) => 2,
        _ => 0,
    };
    let plan = TilingPlan::new(rows, cols + pad, 3, 3, capacity).unwrap();
    let out_rows = recorded[0].rows();
    let log = recorder.engine().log.lock().unwrap().clone();
    assert_eq!(
        log,
        expected_requests(&plan, out_rows, count),
        "{what}: requests"
    );
    let ((_, last_asked), full) = log.split_last().unwrap();
    assert!(
        full.iter().all(|&(_, len)| len == count * whole),
        "{what}: full tiles"
    );
    assert_eq!(*last_asked, count * last, "{what}: the last tile");
    let asked: usize = log.iter().map(|&(_, len)| len).sum();
    let counted = telemetry.snapshot().counter("tiling.samples");
    assert_eq!(counted, asked as u64, "{what}: tiling.samples");
}

#[test]
fn the_last_tile_of_a_plane_asks_for_the_rows_it_completes() {
    // SmallCnn's two layers (`Wraparound` `same`, 3 x 3 kernels, capacity
    // 256): 16 x 16 planes in tiles of 14 output rows, the last completing
    // 2 (222 samples per kernel, then 2 · 16); 8 x 8 planes in tiles of 6,
    // the last completing 2 (46, then 2 · 8).
    check((16, 16), 16, Some(EdgeHandling::Wraparound), 256, [222, 32]);
    check((8, 8), 16, Some(EdgeHandling::Wraparound), 256, [46, 16]);
    // Zero-padded rows are 18 samples: tiles of 12 output rows out of 14
    // plane rows, the last completing 4 (214 samples, then 4 · 18).
    check((16, 16), 5, Some(EdgeHandling::ZeroPad), 256, [214, 72]);
    // `valid` on a plane whose output rows fill every tile: each is whole.
    check((14, 12), 3, None, 72, [46, 46]);
    // One tile, whole: the plane's 14 output rows fit in one convolution.
    check((16, 16), 1, None, 256, [222, 222]);
}
