//! What this host is and what it can do right now.
//!
//! Two fixed loops — a dependent multiply-add chain (compute) and a
//! STREAM-triad sweep (load/store bandwidth) — run before and after each
//! workload. Their p10 says what the core can do when it is ours; a large
//! gap between the two readings marks the run as contended.
//!
//! The triad arrays are deliberately small (1.5 MiB in all, so they sit in
//! a private L2): the workloads peak at 5–17 MB resident, and arrays sized
//! past the reference host's 260 MiB last-level cache would set
//! `peak_rss_mb` for every workload.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// Multiply-adds per calibration repetition (8 independent chains).
const FMA_OPS: usize = 1 << 21;
/// Elements per triad array (3 arrays × 512 KiB).
const TRIAD_LEN: usize = 1 << 16;
/// Sweeps over the arrays per calibration repetition.
const TRIAD_SWEEPS: usize = 16;
/// Repetitions per reading.
const REPS: usize = 12;

/// One reading of both calibration loops, in milliseconds per repetition
/// (p10 over [`REPS`] repetitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Multiply-add chain.
    pub fma_ms: f64,
    /// STREAM triad.
    pub triad_ms: f64,
}

fn fma_rep(seed: f64) -> f64 {
    let mut acc = [seed, seed + 1.0, seed + 2.0, seed + 3.0, 0.5, 1.5, 2.5, 3.5];
    let (mul, add) = (black_box(0.999_999_9_f64), black_box(1.0e-7_f64));
    for _ in 0..FMA_OPS / acc.len() {
        for a in &mut acc {
            *a = *a * mul + add;
        }
    }
    acc.iter().sum()
}

/// Runs both loops and returns their p10 times.
pub fn calibrate() -> Calibration {
    let mut fma = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let start = Instant::now();
        black_box(fma_rep(black_box(rep as f64)));
        fma.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let b: Vec<f64> = (0..TRIAD_LEN).map(|i| i as f64).collect();
    let c: Vec<f64> = (0..TRIAD_LEN).map(|i| (i % 7) as f64).collect();
    let mut a = vec![0.0f64; TRIAD_LEN];
    let mut triad = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let scale = black_box(1.0 + rep as f64);
        let start = Instant::now();
        for _ in 0..TRIAD_SWEEPS {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = b + scale * c;
            }
            black_box(&mut a);
        }
        triad.push(start.elapsed().as_secs_f64() * 1e3);
    }

    Calibration {
        fma_ms: quantile(&mut fma, 0.10),
        triad_ms: quantile(&mut triad, 0.10),
    }
}

/// Largest relative change of either loop between two readings.
pub fn drift(before: Calibration, after: Calibration) -> f64 {
    let rel = |a: f64, b: f64| (b - a).abs() / a.min(b);
    rel(before.fma_ms, after.fma_ms).max(rel(before.triad_ms, after.triad_ms))
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a command's standard output, `unknown` if it cannot run.
/// Waits for the command to exit.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
