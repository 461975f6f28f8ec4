//! The aliasing wall.
//!
//! The prepared chain's joint plane holds only what is read: the separation
//! and the grid are the smallest on which the **valid window** of the
//! correlation lobe is exact, and everything around the window — the
//! lobe's own invalid ends, the central term, the mirror lobe — is left to
//! alias. One bin too few, or a window read one bin off, puts a foreign
//! term on the first or the last output sample. This sweep holds every
//! read path (the fused chain, the shared-spectrum chain, the lane set
//! call at every block shape) to two independent answers: the direct
//! O(Ls·Lk) sum, and the joint-plane simulator, which keeps all three
//! terms apart on another separation and another grid.
//!
//! The inputs are the ones an off-by-one at the window's edges cannot
//! hide from: all-ones operands (every term is positive on its whole
//! support, so any overlap adds), unit spikes at both ends of both
//! operands (each output sample comes from exactly one lag), and seeded
//! random data.

use std::sync::Arc;

use pf_jtc::{JtcEngine, JtcSimulator, PreparedSpectrum};
use pf_tiling::{Conv1dEngine, PreparedConv1d};

/// The largest set the lane call is given: two full blocks and a block of
/// one, which takes the scalar chain.
const MAX_SET: usize = 9;

/// `(Ls, Lk)` of every 1D convolution the nine shapes of
/// `pf-tiling/tests/bit_pin.rs` put on the engine, over its three padding
/// modes (read off a recording engine).
const BIT_PIN_SHAPES: [(usize, usize); 21] = [
    (56, 31),
    (60, 27),
    (10, 3),
    (20, 13),
    (24, 19),
    (18, 14),
    (25, 25),
    (27, 23),
    (13, 4),
    (20, 4),
    (8, 3),
    (16, 11),
    (12, 3),
    (24, 15),
    (4, 3),
    (7, 3),
    (5, 5),
    (9, 5),
    (3, 3),
    (5, 3),
    (6, 3),
];

/// The two tile geometries of a ResNet-18 image (conv1, conv2): the grids
/// the repo benchmark runs, 1000 and 240 points.
const RESNET_SHAPES: [(usize, usize); 2] = [(256, 35), (64, 19)];

/// Shapes whose plane grew when the grid became a multiple of four (the
/// smallest even 5-smooth length was `≡ 2 mod 4`: 90 → 96, 150 → 160,
/// 270 → 288, 250 → 256, 750 → 768, 810 → 864) — with six of the bit-pin
/// shapes and six of the sweep below, every step the rounding can take.
/// The window must stay exact on the larger plane too: a plane is never
/// too big, but the lobe bins move with it.
const GROWN_SHAPES: [(usize, usize); 6] =
    [(23, 5), (40, 12), (75, 35), (75, 52), (200, 50), (250, 190)];

fn shapes() -> Vec<(usize, usize)> {
    let mut shapes = [&BIT_PIN_SHAPES[..], &RESNET_SHAPES[..], &GROWN_SHAPES[..]].concat();
    for ls in [1usize, 2, 3, 8, 19, 64, 100, 256] {
        for lk in [1, 2, 3, ls / 2, ls.saturating_sub(1), ls] {
            if (1..=ls).contains(&lk) {
                shapes.push((ls, lk));
            }
        }
    }
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

fn lcg(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

fn spike(len: usize, at: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    v[at] = 1.0;
    v
}

/// All-ones, a spike at each end, then seeded random data up to `count`.
fn operands(len: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut out = vec![vec![1.0; len], spike(len, 0), spike(len, len - 1)];
    out.extend((3..count).map(|i| lcg(len, seed + i as u64)));
    out
}

fn direct(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    (0..=signal.len() - kernel.len())
        .map(|p| kernel.iter().zip(&signal[p..]).map(|(k, s)| k * s).sum())
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], case: &str, pair: &str) {
    assert_eq!(got.len(), want.len(), "{case}, {pair}: length");
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * scale,
            "{case}, {pair}: sample {j} of {} reads {g}, expected {w}",
            want.len()
        );
    }
}

#[test]
fn every_read_path_is_exact_at_the_window_edges() {
    for (ls, lk) in shapes() {
        let simulator = JtcSimulator::new(ls).unwrap();
        let engine = JtcEngine::ideal(ls).unwrap();
        let kernels = operands(lk, MAX_SET, 100);
        let spectra: Vec<PreparedSpectrum> = kernels
            .iter()
            .map(|k| PreparedSpectrum::new(k, ls, ls).unwrap())
            .collect();
        // One second lens for every plane: the quarter-length transform
        // needs a multiple of four.
        assert_eq!(spectra[0].grid_size() % 4, 0, "Ls={ls} Lk={lk}");
        let prepared: Vec<Arc<dyn PreparedConv1d>> = kernels
            .iter()
            .map(|k| engine.prepare_kernel(k, ls).expect("the JTC prepares"))
            .collect();

        for (s, signal) in operands(ls, 4, 200).iter().enumerate() {
            // Both oracles, and the two held to each other.
            let want: Vec<Vec<f64>> = kernels.iter().map(|k| direct(signal, k)).collect();
            let simulated: Vec<Vec<f64>> = kernels
                .iter()
                .map(|k| simulator.correlate(signal, k).unwrap())
                .collect();
            // Any kernel of the geometry can take the shared transform.
            let spectrum = spectra[0].signal_spectrum(signal).unwrap();
            for k in 0..MAX_SET {
                let case = format!("Ls={ls} Lk={lk} signal {s} kernel {k}");
                assert_close(&simulated[k], &want[k], &case, "simulator vs direct");
                let fused = spectra[k].correlate(signal).unwrap();
                assert_close(&fused, &want[k], &case, "fused vs direct");
                assert_close(&fused, &simulated[k], &case, "fused vs simulator");
                let shared = spectra[k].correlate_spectrum(&spectrum).unwrap();
                assert_close(&shared, &want[k], &case, "shared vs direct");
                assert_close(&shared, &simulated[k], &case, "shared vs simulator");
            }

            let shared = prepared[0].prepare_signal(signal).unwrap();
            for count in 1..=MAX_SET {
                let set: Vec<&dyn PreparedConv1d> =
                    prepared[..count].iter().map(|p| &**p).collect();
                let len = ls - lk + 1;
                let mut outs = vec![f64::NAN; count * len];
                set[0].correlate_set_into(&set, Some(&*shared), signal, &mut outs, None);
                for (k, out) in outs.chunks_exact(len).enumerate() {
                    let case = format!("Ls={ls} Lk={lk} signal {s} kernel {k} in a set of {count}");
                    assert_close(out, &want[k], &case, "lanes vs direct");
                    assert_close(out, &simulated[k], &case, "lanes vs simulator");
                }
            }
        }
    }
}
