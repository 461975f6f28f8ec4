//! A stack prepared together against the stack prepared kernel by kernel.
//!
//! [`Conv1dEngine::prepare_kernels`] on a [`JtcEngine`] sends the kernels'
//! halves of the joint plane through the first lens four rows to a pass
//! ([`PreparedSpectrum::new_batch`]). The contract it is held to here: each
//! preparation is **interchangeable, bit for bit**, with what
//! `prepare_kernel` returns for that kernel alone — through every chain
//! that reads a kernel spectrum (the full chain, the shared-signal chain,
//! the lane set call, the optics-level `correlate` / `correlate_spectrum`),
//! for every stack size from one kernel to two blocks and a remainder, on
//! the ideal engine and on a seeded CG engine (DAC-quantised kernels, noise
//! drawn in the same order) — and a stack it cannot batch falls back per
//! member: mixed lengths prepare each on its own geometry, a member the
//! engine declines is declined alone.

use std::sync::Arc;

use pf_jtc::engine::{JtcEngine, JtcEngineConfig};
use pf_jtc::{JtcError, PreparedSpectrum};
use pf_tiling::{Conv1dEngine, PreparedConv1d};

const SIGNAL_LEN: usize = 48;
const KERNEL_LEN: usize = 11;

fn configs() -> [(&'static str, JtcEngineConfig); 2] {
    [
        ("ideal", JtcEngineConfig::ideal(64)),
        (
            "cg_seed11",
            JtcEngineConfig {
                noise_seed: 11,
                ..JtcEngineConfig::photofourier_cg(64)
            },
        ),
    ]
}

/// Kernel `i` of a stack: distinct peaks (so each has its own DAC scale),
/// with an all-zero kernel (the negative half of an all-positive filter) at
/// `i = 3` and its repeat at `i = 7`.
fn kernel(i: usize, len: usize) -> Vec<f64> {
    if i % 4 == 3 {
        return vec![0.0; len];
    }
    (0..len)
        .map(|j| ((i * 7 + j * 3) as f64 * 0.41).sin() * (1.0 + i as f64 / 3.0))
        .collect()
}

fn signal(phase: f64) -> Vec<f64> {
    (0..SIGNAL_LEN)
        .map(|i| ((i as f64 + phase) * 0.29).sin() + 0.3)
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: sample {i}");
    }
}

/// Every chain of the engine over `stacked` (on `by_stack`) and `single`
/// (on `by_kernel`), two engines of one configuration in one state: same
/// outputs, same engine state afterwards.
fn check_interchangeable(
    by_stack: &JtcEngine,
    stacked: &[Arc<dyn PreparedConv1d>],
    by_kernel: &JtcEngine,
    single: &[Arc<dyn PreparedConv1d>],
    what: &str,
) {
    assert_eq!(stacked.len(), single.len(), "{what}: one entry per kernel");
    for phase in [0.0, 5.5] {
        let tile = signal(phase);
        // The full chain, kernel by kernel.
        for (k, (a, b)) in stacked.iter().zip(single).enumerate() {
            let what = format!("{what}: full chain, kernel {k}");
            assert_bits(&a.correlate_valid(&tile), &b.correlate_valid(&tile), &what);
        }
        // The shared-signal chain, kernel by kernel, on a transform either
        // side's first kernel takes.
        let (shared_a, shared_b) = (
            stacked[0].prepare_signal(&tile).unwrap(),
            single[0].prepare_signal(&tile).unwrap(),
        );
        for (k, (a, b)) in stacked.iter().zip(single).enumerate() {
            let what = format!("{what}: shared chain, kernel {k}");
            assert_bits(
                &a.correlate_with_signal(&*shared_a, &tile),
                &b.correlate_with_signal(&*shared_b, &tile),
                &what,
            );
        }
        // The lane set call.
        let set_a: Vec<&dyn PreparedConv1d> = stacked.iter().map(|p| &**p).collect();
        let set_b: Vec<&dyn PreparedConv1d> = single.iter().map(|p| &**p).collect();
        let len = tile.len() - KERNEL_LEN + 1;
        let (mut lanes_a, mut lanes_b) =
            (vec![0.0; set_a.len() * len], vec![1.0; set_b.len() * len]);
        set_a[0].correlate_set_into(&set_a, Some(&*shared_a), &tile, &mut lanes_a, None);
        set_b[0].correlate_set_into(&set_b, Some(&*shared_b), &tile, &mut lanes_b, None);
        let kernels = lanes_a.chunks_exact(len).zip(lanes_b.chunks_exact(len));
        for (k, (a, b)) in kernels.enumerate() {
            assert_bits(a, b, &format!("{what}: set call, kernel {k}"));
        }
    }
    // The `Debug` form shows the noise generator: the two streams were
    // consumed identically.
    assert_eq!(
        format!("{by_stack:?}"),
        format!("{by_kernel:?}"),
        "{what}: engine state"
    );
}

fn engines(config: &JtcEngineConfig) -> (JtcEngine, JtcEngine) {
    (
        JtcEngine::new(config.clone()).unwrap(),
        JtcEngine::new(config.clone()).unwrap(),
    )
}

#[test]
fn a_stack_of_one_to_nine_kernels_is_the_stack_prepared_kernel_by_kernel() {
    for (name, config) in configs() {
        for count in 1..=9 {
            let kernels: Vec<Vec<f64>> = (0..count).map(|i| kernel(i, KERNEL_LEN)).collect();
            let rows: Vec<&[f64]> = kernels.iter().map(|k| &**k).collect();
            let (by_stack, by_kernel) = engines(&config);
            let stacked: Vec<_> = by_stack
                .prepare_kernels(&rows, SIGNAL_LEN)
                .into_iter()
                .map(|p| p.expect("the JTC prepares"))
                .collect();
            let single: Vec<_> = rows
                .iter()
                .map(|k| by_kernel.prepare_kernel(k, SIGNAL_LEN).unwrap())
                .collect();
            let what = format!("{name}, {count} kernels");
            check_interchangeable(&by_stack, &stacked, &by_kernel, &single, &what);
        }
    }
}

#[test]
fn a_batch_of_spectra_is_each_spectrum_prepared_alone() {
    for count in 1..=9 {
        let kernels: Vec<Vec<f64>> = (0..count).map(|i| kernel(i, KERNEL_LEN)).collect();
        let rows: Vec<&[f64]> = kernels.iter().map(|k| &**k).collect();
        let batch = PreparedSpectrum::new_batch(&rows, SIGNAL_LEN, 64).unwrap();
        assert_eq!(batch.len(), count);
        let tile = signal(2.5);
        for (k, (stacked, row)) in batch.iter().zip(&rows).enumerate() {
            let alone = PreparedSpectrum::new(row, SIGNAL_LEN, 64).unwrap();
            assert_eq!(stacked.grid_size(), alone.grid_size());
            let what = format!("{count} kernels, kernel {k}");
            assert_bits(
                &stacked.correlate(&tile).unwrap(),
                &alone.correlate(&tile).unwrap(),
                &format!("{what}: correlate"),
            );
            // Either side's first-lens transform of the tile serves both.
            let spectrum = alone.signal_spectrum(&tile).unwrap();
            assert_bits(
                &stacked.correlate_spectrum(&spectrum).unwrap(),
                &alone.correlate_spectrum(&spectrum).unwrap(),
                &format!("{what}: correlate_spectrum"),
            );
        }
    }
    // An empty batch prepares nothing; the entry checks are `new`'s, plus
    // one length per batch.
    assert!(PreparedSpectrum::new_batch(&[], SIGNAL_LEN, 64)
        .unwrap()
        .is_empty());
    let (short, long) = (kernel(0, 5), kernel(1, 9));
    assert!(matches!(
        PreparedSpectrum::new_batch(&[&short, &long], SIGNAL_LEN, 64),
        Err(JtcError::InvalidConfig { .. })
    ));
    assert!(matches!(
        PreparedSpectrum::new_batch(&[&short], 0, 64),
        Err(JtcError::EmptyOperand { .. })
    ));
    assert!(matches!(
        PreparedSpectrum::new_batch(&[&[], &[]], SIGNAL_LEN, 64),
        Err(JtcError::EmptyOperand { .. })
    ));
    assert!(matches!(
        PreparedSpectrum::new_batch(&[&short, &short], 65, 64),
        Err(JtcError::InputTooLarge { .. })
    ));
}

#[test]
fn a_stack_of_mixed_lengths_prepares_each_kernel_on_its_own_geometry() {
    for (name, config) in configs() {
        let kernels = [
            kernel(0, KERNEL_LEN),
            kernel(1, 5),
            kernel(2, KERNEL_LEN),
            kernel(4, 19),
            kernel(5, 5),
        ];
        let rows: Vec<&[f64]> = kernels.iter().map(|k| &**k).collect();
        let (by_stack, by_kernel) = engines(&config);
        let stacked = by_stack.prepare_kernels(&rows, SIGNAL_LEN);
        assert_eq!(stacked.len(), rows.len());
        for (k, (stacked, row)) in stacked.iter().zip(&rows).enumerate() {
            let stacked = stacked.as_ref().expect("the JTC prepares");
            let alone = by_kernel.prepare_kernel(row, SIGNAL_LEN).unwrap();
            let tile = signal(k as f64);
            assert_bits(
                &stacked.correlate_valid(&tile),
                &alone.correlate_valid(&tile),
                &format!("{name}: mixed lengths, kernel {k}"),
            );
        }
        assert_eq!(format!("{by_stack:?}"), format!("{by_kernel:?}"), "{name}");
    }
}

#[test]
fn a_member_the_engine_declines_is_declined_alone() {
    let engine = JtcEngine::ideal(64).unwrap();
    let (fits, oversized) = (kernel(0, KERNEL_LEN), kernel(1, 65));
    // Among kernels that fit, exactly as `prepare_kernel` decides each.
    let stack: [&[f64]; 4] = [&fits, &oversized, &[], &fits];
    let stacked = engine.prepare_kernels(&stack, SIGNAL_LEN);
    let alone: Vec<_> = stack
        .iter()
        .map(|k| engine.prepare_kernel(k, SIGNAL_LEN))
        .collect();
    assert_eq!(
        stacked.iter().map(Option::is_some).collect::<Vec<_>>(),
        [true, false, false, true]
    );
    let tile = signal(1.0);
    for (stacked, alone) in stacked.iter().zip(&alone) {
        assert_eq!(stacked.is_some(), alone.is_some());
        if let (Some(stacked), Some(alone)) = (stacked, alone) {
            assert_bits(
                &stacked.correlate_valid(&tile),
                &alone.correlate_valid(&tile),
                "beside a declined member",
            );
        }
    }
    // A stack of one length that does not fit is declined member by member,
    // so is every kernel against tiles the engine cannot hold, or none.
    let all_oversized: [&[f64]; 3] = [&oversized; 3];
    assert!(engine
        .prepare_kernels(&all_oversized, SIGNAL_LEN)
        .iter()
        .all(Option::is_none));
    for bad_len in [0, 65] {
        let stack: [&[f64]; 2] = [&fits; 2];
        assert!(engine
            .prepare_kernels(&stack, bad_len)
            .iter()
            .all(Option::is_none));
    }
    assert!(engine.prepare_kernels(&[], SIGNAL_LEN).is_empty());
}
