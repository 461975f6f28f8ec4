//! Steady-state allocations, counted.
//!
//! `pf-dsp`'s scratch arena reports buffer *growth* (`scratch_stats().grows`);
//! this file counts what that cannot see — every call into the global
//! allocator — with a counting `#[global_allocator]`. Three facts are pinned:
//!
//! * after `warmup()`, `Session::run_inference` allocates the same number
//!   of times call over call, on `digital`, `jtc_ideal` and
//!   `photofourier_cg` (a count that drifts is a cache still filling or a
//!   buffer still growing);
//! * the lane path allocates nothing: a warm `correlate_set_into` over `k`
//!   kernels reads every lobe out of the scratch arena straight into the
//!   caller's buffer and conditions it there;
//! * a `conv2d_multi` over 16 never-seen kernels — a filter stack loaded
//!   from scratch, prepared for the call and kept by no cache — allocates
//!   no more often than it was measured to.
//!
//! The counter is per thread (tests share the process), and every measured
//! call runs on a one-wide pool so that its work stays on the measuring
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use photofourier::prelude::*;
use photofourier::tiling::{Conv1dEngine, PreparedConv1d};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a `Cell` in thread-local storage and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn one_wide<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-wide pool builds")
        .install(f)
}

#[test]
fn inference_allocates_the_same_call_over_call_after_warmup() {
    // Allocator calls per `run_inference` of one 1 x 16 x 16 image through
    // the small CNN (34 kernel-set runs, 18 tiles, 544 1D convolutions):
    // 163 / 226 / 525 since every stack writes its 1D results kernel-major
    // into one scratch per chunk, 725 / 788 / 1 087 before (one vector per
    // 1D convolution and one list per tile: 562 more on every backend). A
    // ceiling with 10 % headroom for toolchain drift, not a pin — the
    // equality below is the pin. The count is the glue meter: a warm
    // forward re-derives nothing from the weights (no quantised copy, no
    // filter planes, no pseudo-negative halves, no tiled kernels, no store
    // keys — 2 351 / 2 623 on `jtc_ideal` / `photofourier_cg` while it
    // did) and no 1D convolution allocates, so what is left is per run and
    // per layer: the bound kernel list, the cut signals and their result
    // scratch, the signal transforms on the optical backends, what each
    // layer returns upward. The CG chain adds one re-bound kernel per
    // prepared kernel per run (its own noise stream).
    let recorded = [
        ("digital", BackendSpec::digital(256), 163u64),
        ("jtc_ideal", BackendSpec::jtc_ideal(256), 226),
        ("photofourier_cg", BackendSpec::photofourier_cg(256), 525),
    ];

    for (name, backend, recorded) in recorded {
        let mut scenario = Scenario::new("steady-state", "resnet18", backend);
        scenario.pipeline = PipelineConfig::photofourier_default();
        let session = Session::from_scenario(scenario).unwrap();
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 77);
        let counts: Vec<u64> = one_wide(|| {
            session.warmup().unwrap();
            // One unmeasured call: the first real image may still grow a
            // buffer the all-zero warm-up image left short.
            session.run_inference(&image).unwrap();
            (0..4)
                .map(|_| allocations_of(|| session.run_inference(&image).unwrap()).0)
                .collect()
        });
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{name}: allocations per call drift: {counts:?}"
        );
        assert!(
            counts[0] > 0 && counts[0] <= recorded + recorded / 10,
            "{name}: {} allocations per call, recorded {recorded}",
            counts[0]
        );
    }
}

#[test]
fn a_lane_block_allocates_only_what_it_returns() {
    let engine = JtcEngine::new(JtcEngineConfig::photofourier_cg(256)).unwrap();
    let tile: Vec<f64> = (0..48).map(|i| (i as f64 * 0.29).sin() + 0.3).collect();
    for count in [2usize, 4, 6, 9, 16] {
        let preps: Vec<_> = (0..count)
            .map(|i| {
                let kernel: Vec<f64> = (0..5).map(|j| ((i + j) as f64 * 0.41).cos()).collect();
                engine.prepare_kernel(&kernel, tile.len()).unwrap()
            })
            .collect();
        let set: Vec<&dyn PreparedConv1d> = preps.iter().map(|p| &**p).collect();
        let shared = Some(&*set[0].prepare_signal(&tile).unwrap());
        let mut out = vec![f64::NAN; count * (tile.len() - 5 + 1)];
        // Warm this thread's arena, then count.
        set[0].correlate_set_into(&set, shared, &tile, &mut out, None);
        let (allocations, ()) =
            allocations_of(|| set[0].correlate_set_into(&set, shared, &tile, &mut out, None));
        assert!(
            out.iter().all(|v| v.is_finite()),
            "{count} kernels: every sample written"
        );
        assert_eq!(
            allocations, 0,
            "{count} kernels: a warm set call allocates nothing"
        );
    }
}

#[test]
fn a_fresh_conv2d_multi_allocates_no_more_than_kernel_by_kernel_preparation_did() {
    // Allocator calls per `conv2d_multi` of one 16 x 16 input against 16
    // never-seen 3 x 3 kernels (the benchmark's `conv_fresh` shape) on
    // `jtc_ideal`. The kernels are prepared as one stack for this one call
    // and dropped with its kernel set; no cache is consulted or grown, so
    // every fresh call counts the same: 104, the ceiling (121 while the
    // tile's 16 results came back as vectors in a list). Not to be raised.
    let recorded = 104u64;
    let mut scenario = Scenario::new("fresh-stack", "resnet18", BackendSpec::jtc_ideal(256));
    scenario.pipeline = PipelineConfig::photofourier_default();
    let session = Session::from_scenario(scenario).unwrap();
    let input = Matrix::new(
        16,
        16,
        (0..256).map(|i| (i as f64 * 0.11).sin() + 0.5).collect(),
    )
    .unwrap();
    let mut next = 0u64;
    let mut fresh_stack = || -> Vec<Matrix> {
        (0..16)
            .map(|_| {
                next += 1;
                let data = (0..9).map(|j| ((next * 9 + j) as f64 * 0.618).sin());
                Matrix::new(3, 3, data.collect()).unwrap()
            })
            .collect()
    };
    let stacks: Vec<Vec<Matrix>> = (0..5).map(|_| fresh_stack()).collect();
    let counts: Vec<u64> = one_wide(|| {
        // One unmeasured call grows the arena.
        session.conv2d_multi(&input, &stacks[0]).unwrap();
        stacks[1..]
            .iter()
            .map(|stack| allocations_of(|| session.conv2d_multi(&input, stack).unwrap()).0)
            .collect()
    });
    assert!(
        counts.iter().all(|&c| c > 0 && c <= recorded),
        "{counts:?} allocations per fresh call, recorded {recorded}"
    );
}
