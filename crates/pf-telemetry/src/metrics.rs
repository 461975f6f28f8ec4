//! Lock-light metric primitives: striped monotonic counters and gauges,
//! plus the name → cell registry.
//!
//! The hot path (a `Counter::add`) is wait-free: one
//! relaxed `fetch_add` on an atomic chosen by a cached per-thread slot.
//! Locks appear only at wiring time (name lookup) and on snapshot.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Stripes per counter cell. Threads hash onto stripes by a stable
/// per-thread slot, so two busy threads rarely contend on one cache line;
/// `value()` sums the stripes.
pub(crate) const STRIPES: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, assigned on first use and
/// stable for the thread's lifetime. Doubles as the span track id (see
/// [`crate::Telemetry::span`]) and the stripe selector.
pub(crate) fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| *slot)
}

pub(crate) fn stripe_index() -> usize {
    thread_slot() % STRIPES
}

/// One cache line per stripe so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// Shared storage behind a [`Counter`] handle.
pub(crate) struct CounterCell {
    stripes: [Stripe; STRIPES],
}

impl CounterCell {
    pub(crate) fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe::default()),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        self.add_at(stripe_index(), n);
    }

    /// `add` with the stripe chosen by the caller — lets a bulk update
    /// (e.g. [`crate::Telemetry::stage_add_ns`]) resolve the thread slot
    /// once for several cells.
    pub(crate) fn add_at(&self, stripe: usize, n: u64) {
        self.stripes[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|stripe| stripe.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A monotonic counter handle. Cheap to clone; a handle from a disabled
/// [`crate::Telemetry`] is a no-op whose `value()` reads 0.
#[derive(Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// A handle that records nothing (what a disabled registry hands out).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.add(n);
        }
    }

    /// Current total across all thread stripes.
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.value())
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// Shared storage behind a [`Gauge`] handle. Gauges are set rarely (they
/// describe a level, not a rate), so one atomic suffices.
pub(crate) struct GaugeCell(AtomicU64);

impl GaugeCell {
    pub(crate) fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    pub(crate) fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (with a high-water `set_max` mode). Cheap to
/// clone; no-op when the registry is disabled.
#[derive(Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Stores `v`, replacing the previous value.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the stored value to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.value())
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// The name → cell registry. Lookups (wiring time) and snapshots lock; the
/// handles they return do not.
pub(crate) struct Registry {
    counters: Mutex<HashMap<String, Arc<CounterCell>>>,
    gauges: Mutex<HashMap<String, Arc<GaugeCell>>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn counter(&self, name: &str) -> Arc<CounterCell> {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(CounterCell::new());
                map.insert(name.to_string(), Arc::clone(&cell));
                cell
            }
        }
    }

    pub(crate) fn gauge(&self, name: &str) -> Arc<GaugeCell> {
        let mut map = self.gauges.lock();
        match map.get(name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(GaugeCell::new());
                map.insert(name.to_string(), Arc::clone(&cell));
                cell
            }
        }
    }

    /// All counters as sorted `(name, value)` pairs.
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.value()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All gauges as sorted `(name, value)` pairs.
    pub(crate) fn gauge_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .gauges
            .lock()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.value()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let registry = Registry::new();
        let cell = registry.counter("t.count");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counter = Counter(Some(Arc::clone(&cell)));
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(Counter(Some(cell)).value(), 4000);
        // The registry hands back the same cell for the same name.
        assert_eq!(registry.counter_values(), vec![("t.count".into(), 4000)]);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let registry = Registry::new();
        let gauge = Gauge(Some(registry.gauge("t.depth")));
        gauge.set_max(3);
        gauge.set_max(9);
        gauge.set_max(5);
        assert_eq!(gauge.value(), 9);
        gauge.set(2);
        assert_eq!(gauge.value(), 2);
    }

    #[test]
    fn noop_handles_record_nothing() {
        let counter = Counter::noop();
        counter.add(5);
        assert_eq!(counter.value(), 0);
        assert!(!counter.is_enabled());
        let gauge = Gauge::noop();
        gauge.set(7);
        assert_eq!(gauge.value(), 0);
    }
}
