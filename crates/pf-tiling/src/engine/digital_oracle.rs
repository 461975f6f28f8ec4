//! The digital engine's set body against an independent oracle.
//!
//! [`correlate_sparse_set`] keeps a block of sixteen outputs of a kernel
//! in registers across its non-zero taps; the loop it replaced streamed one
//! tap over every output. Both add each output's terms in ascending tap
//! order onto `+0.0`, so the body must equal — bit for bit, in the
//! baseline-ISA instantiation, the AVX2 one (where the CPU has it) and the
//! dispatched trait call alike — the dense [`correlate1d`] of `pf-dsp`,
//! which shares no code with it:
//!
//! * **read with the roles swapped**, `correlate1d(kernel, signal, Full)`
//!   at `signal.len() - 1 - p`: the dense loop skips zero samples of its
//!   first operand and adds the rest in ascending order, which is exactly
//!   the sparse sum over the kernel's non-zero taps — for every sample,
//!   NaN and infinities included;
//! * **read as written**, `correlate1d(signal, kernel, Valid)`, wherever
//!   the signal is finite: a zero tap's `+0.0` product changes no sum that
//!   starts at `+0.0` (such a sum is never `-0.0`). An infinite sample
//!   under a zero tap is a NaN there and skipped here, which is why the
//!   swapped reading is the oracle for non-finite signals.
//!
//! Every output length 0 to 33 (a kernel longer than the signal, every
//! length short of one block, and every overlap of the last block with its
//! predecessor, after one and after two whole blocks) and the benchmark's
//! 46 and 222 run against row-tiled, pseudo-negative, dense and all-zero
//! kernels, over smooth signals and signals of `±0`, subnormals, `1e300`,
//! NaN and `±∞`. The body vectorises only in release builds: CI runs these
//! tests there too.

use super::*;
use pf_dsp::conv::{correlate1d, PaddingMode};

/// Kernels of one length: a dense one; its row-tiled form (a 3 × 3 filter
/// over 8- or 16-sample rows at the benchmark's 19 and 35 taps, every
/// fourth tap zeroed at other lengths); that form's pseudo-negative half
/// (the negative taps zeroed); and an all-zero kernel.
fn kernels(len: usize) -> Vec<Vec<f64>> {
    let dense: Vec<f64> = (0..len)
        .map(|j| ((j * 7 + 3) as f64 * 0.37).sin() * 1.5)
        .collect();
    let tiled: Vec<f64> = (0..len)
        .map(|j| match len {
            // A 3 x 3 filter over 8- and 16-sample rows.
            19 | 35 if j % ((len - 3) / 2) >= 3 => 0.0,
            _ if j % 4 == 3 => 0.0,
            _ => dense[j],
        })
        .collect();
    let positive = tiled.iter().map(|&v| v.max(0.0)).collect();
    vec![dense, tiled, positive, vec![0.0; len]]
}

/// `len` samples: smooth, or interleaving `±0`, subnormals, `1e300`, NaN
/// and `±∞` with smooth ones.
fn signals(len: usize) -> Vec<(&'static str, Vec<f64>)> {
    let smooth: Vec<f64> = (0..len).map(|i| ((i as f64) * 0.29).sin() - 0.2).collect();
    let extreme = |i: usize| match i % 7 {
        0 => -0.0,
        1 => f64::MIN_POSITIVE / 8.0 * (i as f64 + 1.0),
        2 => 1e300 * ((i as f64) * 0.11).cos(),
        3 => 0.0,
        _ => smooth[i],
    };
    let non_finite = |i: usize| match i % 11 {
        4 => f64::NAN,
        7 => f64::INFINITY,
        9 => f64::NEG_INFINITY,
        _ => extreme(i),
    };
    vec![
        ("smooth", smooth.clone()),
        ("extreme", (0..len).map(extreme).collect()),
        ("non-finite", (0..len).map(non_finite).collect()),
    ]
}

/// Bit patterns, a NaN standing for any NaN: Rust leaves the sign and
/// payload of an arithmetic NaN unspecified (the optimiser may swap the
/// operands of an addition, and x86 hands back the first NaN operand).
fn bits(values: &[f64]) -> Vec<u64> {
    let canonical = |v: &f64| if v.is_nan() { f64::NAN } else { *v };
    values.iter().map(|v| canonical(v).to_bits()).collect()
}

/// What every output buffer starts as: a negative subnormal no sum here
/// produces, so a sample the body leaves unwritten shows.
const UNWRITTEN: f64 = -4.9e-322;

/// The oracle's outputs for one kernel, kernel-major like the set body's.
fn oracle(kernel: &[f64], signal: &[f64], out_len: usize) -> Vec<f64> {
    if out_len == 0 {
        return Vec::new();
    }
    let full = correlate1d(kernel, signal, PaddingMode::Full);
    let swapped: Vec<f64> = (0..out_len).map(|p| full[signal.len() - 1 - p]).collect();
    if signal.iter().all(|v| v.is_finite()) {
        let direct = correlate1d(signal, kernel, PaddingMode::Valid);
        assert_eq!(
            bits(&direct),
            bits(&swapped),
            "the two readings of the oracle"
        );
    }
    swapped
}

#[test]
fn the_digital_set_body_is_the_dense_oracle_in_every_instantiation() {
    for kernel_len in [1usize, 2, 3, 5, 19, 35] {
        let kernels = kernels(kernel_len);
        let prepared: Vec<SparseKernel> = kernels.iter().map(|k| SparseKernel::new(k, 0)).collect();
        let set: Vec<&dyn PreparedConv1d> =
            prepared.iter().map(|k| k as &dyn PreparedConv1d).collect();
        for out_len in (0..=33).chain([46, 222]) {
            // Output length 0 is a kernel one sample longer than the
            // signal.
            let signal_len = (kernel_len + out_len).saturating_sub(1);
            for (name, signal) in signals(signal_len) {
                let what = format!("{kernel_len} taps, {out_len} outputs, {name} signal");
                let want: Vec<f64> = kernels
                    .iter()
                    .flat_map(|k| oracle(k, &signal, out_len))
                    .collect();
                let mut baseline = vec![UNWRITTEN; set.len() * out_len];
                correlate_sparse_set(&set, None, &signal, &mut baseline, None);
                assert_eq!(bits(&baseline), bits(&want), "{what}: baseline ISA");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut lanes = vec![UNWRITTEN; set.len() * out_len];
                    // SAFETY: the CPU has AVX2, checked on the line above.
                    unsafe { correlate_sparse_set_avx2(&set, None, &signal, &mut lanes, None) };
                    assert_eq!(bits(&lanes), bits(&want), "{what}: AVX2");
                }
                let mut dispatched = vec![UNWRITTEN; set.len() * out_len];
                set[0].correlate_set_into(&set, None, &signal, &mut dispatched, None);
                assert_eq!(bits(&dispatched), bits(&want), "{what}: dispatched");
                for (k, kernel) in prepared.iter().enumerate() {
                    let one = kernel.correlate_valid(&signal);
                    let want = &want[k * out_len..(k + 1) * out_len];
                    assert_eq!(bits(&one), bits(want), "{what}: kernel {k} alone");
                }
            }
        }
    }
}

/// A handle the digital engine does not know, answering through the
/// trait's default body.
#[derive(Debug)]
struct Foreign(SparseKernel);

impl PreparedConv1d for Foreign {
    fn signal_len(&self) -> usize {
        self.0.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.0.correlate_valid(signal)
    }
}

#[test]
fn a_foreign_member_answers_for_itself_inside_the_digital_set_body() {
    let kernels = kernels(19);
    let signal = &signals(64)[1].1;
    let want: Vec<f64> = kernels.iter().flat_map(|k| oracle(k, signal, 46)).collect();
    let prepared: Vec<Box<dyn PreparedConv1d>> = kernels
        .iter()
        .enumerate()
        .map(|(k, kernel)| match k {
            1 => Box::new(Foreign(SparseKernel::new(kernel, 64))) as Box<dyn PreparedConv1d>,
            _ => Box::new(SparseKernel::new(kernel, 64)),
        })
        .collect();
    let set: Vec<&dyn PreparedConv1d> = prepared.iter().map(|k| &**k).collect();
    let mut out = vec![UNWRITTEN; set.len() * 46];
    set[0].correlate_set_into(&set, None, signal, &mut out, None);
    assert_eq!(bits(&out), bits(&want));
}
