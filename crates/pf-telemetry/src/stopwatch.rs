//! A low-overhead lap stopwatch for hot-path stage attribution.
//!
//! [`Stopwatch::lap`] returns the time since the previous lap (or since
//! [`Stopwatch::start`]) and advances, so N+1 clock observations split an
//! interval into N+1 chained stages with no double reads at the
//! boundaries. On x86-64 the clock is the invariant cycle counter
//! (`rdtsc`, ~5 ns a read versus ~25 ns for `Instant::now`), calibrated
//! against the monotonic wall clock once per process; everywhere else —
//! and on the rare x86 machine whose calibration comes out implausible —
//! it falls back to `Instant` transparently. Stage *attribution* tolerates
//! the cycle counter's imperfections (unsynchronised sockets, frequency
//! quirks) because each lap is short and consumers only ever aggregate;
//! nothing correctness-bearing may be derived from it.

use std::time::{Duration, Instant};

use crate::{Stage, Telemetry};

#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    #[inline]
    pub(super) fn ticks() -> u64 {
        // SAFETY: `rdtsc` has no memory or register preconditions; it is
        // unsafe only because `core::arch` intrinsics are.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Nanoseconds per tick, measured once against the wall clock over a
    /// ~2 ms spin. `None` when the result is implausible (no invariant
    /// counter, emulation) — callers then use the `Instant` fallback.
    pub(super) fn ns_per_tick() -> Option<f64> {
        static SCALE: OnceLock<Option<f64>> = OnceLock::new();
        *SCALE.get_or_init(|| {
            let wall_start = Instant::now();
            let tick_start = ticks();
            let spin = Duration::from_millis(2);
            while wall_start.elapsed() < spin {
                std::hint::spin_loop();
            }
            let dt = ticks().wrapping_sub(tick_start);
            let wall_ns = wall_start.elapsed().as_nanos() as f64;
            if dt == 0 {
                return None;
            }
            let scale = wall_ns / dt as f64;
            // Plausible clock rates span ~1 MHz to ~100 GHz.
            (1e-2..=1e3).contains(&scale).then_some(scale)
        })
    }
}

enum Clock {
    /// Calibrated cycle counter: last tick and nanoseconds per tick.
    #[cfg(target_arch = "x86_64")]
    Cycles { last: u64, ns_per_tick: f64 },
    /// Monotonic wall-clock fallback.
    Wall(Instant),
}

/// A chained lap timer (see the module docs). Construction is cheap after
/// the first use in a process (the one-time ~2 ms calibration).
pub struct Stopwatch(Clock);

impl Stopwatch {
    /// Starts the stopwatch: the first [`Stopwatch::lap`] measures from
    /// here.
    #[inline]
    pub fn start() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(ns_per_tick) = tsc::ns_per_tick() {
            return Self(Clock::Cycles {
                last: tsc::ticks(),
                ns_per_tick,
            });
        }
        Self(Clock::Wall(Instant::now()))
    }

    /// Nanoseconds since the previous lap (or since start), advancing the
    /// lap point to now.
    #[inline]
    pub fn lap_ns(&mut self) -> u64 {
        let raw = self.lap_raw();
        self.raw_ns(raw)
    }

    /// The time since the previous lap in the clock's own unit (cycle
    /// counter ticks, or nanoseconds on the fallback), advancing the lap
    /// point to now: one clock read and a subtraction, so a hot loop can
    /// sum laps and convert the sum once ([`Stopwatch::raw_ns`]).
    #[inline]
    fn lap_raw(&mut self) -> u64 {
        match &mut self.0 {
            #[cfg(target_arch = "x86_64")]
            Clock::Cycles { last, .. } => {
                let now = tsc::ticks();
                let dt = now.wrapping_sub(*last);
                *last = now;
                dt
            }
            Clock::Wall(last) => {
                let now = Instant::now();
                let dt = now.saturating_duration_since(*last);
                *last = now;
                dt.as_nanos().min(u128::from(u64::MAX)) as u64
            }
        }
    }

    /// Nanoseconds in `raw` units of this stopwatch's clock.
    #[inline]
    fn raw_ns(&self, raw: u64) -> u64 {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            Clock::Cycles { ns_per_tick, .. } => (raw as f64 * *ns_per_tick) as u64,
            Clock::Wall(_) => raw,
        }
    }

    /// [`Stopwatch::lap_ns`] as a [`Duration`].
    #[inline]
    pub fn lap(&mut self) -> Duration {
        Duration::from_nanos(self.lap_ns())
    }
}

/// A local stage-time accumulator over one chained [`Stopwatch`] — the
/// hot-loop half of stage attribution. A caller iterating many
/// convolutions holds one accumulator for the whole loop: each stage
/// boundary costs a single clock read ([`StageAcc::mark`]) and the shared
/// registry is touched once, at [`StageAcc::flush`]. One flush bumps each
/// marked stage's call counter once, so stage call counts tally
/// attribution flushes, not individual convolutions.
///
/// Laps are summed in the clock's own unit and converted to nanoseconds
/// when read: a mark is a clock read, a subtraction and an add, and the
/// float conversion is paid once per stage per read instead of once per
/// boundary (a lane block marks three boundaries).
pub struct StageAcc {
    sw: Stopwatch,
    raw: [u64; Stage::COUNT],
}

impl StageAcc {
    /// Starts accumulating; the first [`StageAcc::mark`] measures from
    /// here.
    pub fn start() -> Self {
        Self {
            sw: Stopwatch::start(),
            raw: [0; Stage::COUNT],
        }
    }

    /// Attributes the time since the previous boundary to `stage` and
    /// advances the boundary.
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        self.raw[stage.index()] += self.sw.lap_raw();
    }

    /// Advances the boundary without attributing the elapsed interval to
    /// any stage — for work between convolutions (buffer refills, result
    /// writes) that belongs to no stage and would otherwise pollute the
    /// next mark.
    #[inline]
    pub fn skip(&mut self) {
        let _ = self.sw.lap_raw();
    }

    /// The accumulated nanoseconds, indexed by [`Stage::index`].
    pub fn ns(&self) -> [u64; Stage::COUNT] {
        self.raw.map(|raw| self.sw.raw_ns(raw))
    }

    /// Flushes the accumulated time into `tel`'s stage slots (a single
    /// registry touch; see [`Telemetry::stage_add_ns`]) and resets the
    /// accumulator for reuse.
    pub fn flush(&mut self, tel: &Telemetry) {
        tel.stage_add_ns(self.ns());
        self.raw = [0; Stage::COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_chain_and_roughly_track_wall_time() {
        let wall = Instant::now();
        let mut sw = Stopwatch::start();
        let mut total = Duration::ZERO;
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(2));
            total += sw.lap();
        }
        let elapsed = wall.elapsed();
        // Generous bounds: the point is the right order of magnitude and
        // that laps cover the interval without double counting.
        assert!(total >= Duration::from_millis(4), "laps {total:?}");
        assert!(
            total <= elapsed + Duration::from_millis(20),
            "laps {total:?} vs wall {elapsed:?}"
        );
    }

    #[test]
    fn lap_is_cheap_and_monotone_enough() {
        let mut sw = Stopwatch::start();
        for _ in 0..10_000 {
            let _ = sw.lap_ns();
        }
        // A lap of nothing must be tiny (well under a microsecond even on
        // the Instant fallback).
        let ns = sw.lap_ns();
        assert!(ns < 1_000_000, "empty lap measured {ns} ns");
    }
}
