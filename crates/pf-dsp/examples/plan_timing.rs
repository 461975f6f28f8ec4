//! Micro-timing of FFT plan execution across candidate lengths.
//!
//! Used to pick the joint-plane grid policy: tight 5-smooth lengths only
//! beat padded powers of two when the mixed-radix kernel's constant
//! factor stays competitive. Run with:
//!
//! ```sh
//! cargo run --release -p pf-dsp --example plan_timing
//! ```

use std::time::Instant;

use pf_dsp::plan::{FftPlan, RealFftPlan};
use pf_dsp::Complex;

fn time_complex(n: usize, iters: usize) -> f64 {
    let plan = FftPlan::shared(n).unwrap();
    let x: Vec<Complex> = (0..n)
        .map(|k| Complex::new((k as f64 * 0.37).sin(), (k as f64 * 0.21).cos()))
        .collect();
    let mut data = x.clone();
    // Warm up tables and scratch.
    for _ in 0..16 {
        data.copy_from_slice(&x);
        plan.process(&mut data, false).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        data.copy_from_slice(&x);
        plan.process(&mut data, false).unwrap();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn time_real(n: usize, iters: usize) -> f64 {
    let plan = RealFftPlan::shared(n).unwrap();
    let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.7).sin() + 0.25).collect();
    let mut scratch = Vec::new();
    let mut half = Vec::new();
    for _ in 0..16 {
        plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn main() {
    let iters = 20_000;
    println!("complex plans (µs/transform):");
    for n in [
        120usize, 500, 675, 720, 768, 810, 960, 1024, 1350, 1440, 1536, 2048,
    ] {
        println!("  n={n:5}  {:8.3}", time_complex(n, iters));
    }
    println!("real plans (µs/transform):");
    for n in [240usize, 1000, 1350, 1440, 1536, 1620, 1920, 2048, 2700] {
        println!("  n={n:5}  {:8.3}", time_real(n, iters));
    }
}
