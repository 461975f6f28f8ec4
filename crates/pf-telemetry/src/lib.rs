//! Unified observability for the PhotoFourier serving stack: a lock-light
//! metric registry (counters, gauges), a span recorder with Chrome-trace and text-tree exporters, and the
//! request-id plumbing that lets one serving request yield one coherent
//! span tree from router admission down to per-stage convolution work.
//!
//! # The `Telemetry` handle
//!
//! Everything hangs off a cloneable [`Telemetry`] handle.
//! [`Telemetry::disabled`] is the no-op path: handles it returns record
//! nowhere, spans cost one branch, and no registry exists — one build
//! serves both modes, no cargo feature. [`Telemetry::enabled`] allocates a
//! registry plus a bounded drop-oldest span ring.
//!
//! ```
//! use std::time::Duration;
//! use pf_telemetry::{Stage, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! let served = tel.counter("serve.served");
//! served.inc();
//! tel.stage_add(Stage::SignalFft, Duration::from_micros(12));
//! {
//!     let _root = tel.span("request", "serve");
//!     let _child = tel.span("signal_fft", "jtc"); // nests under request
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("serve.served"), 1);
//! assert_eq!(snap.spans_recorded, 2);
//! pf_telemetry::validate_chrome_trace(&tel.chrome_trace_json()).unwrap();
//! ```
//!
//! # Metric naming and span taxonomy
//!
//! Metric names are dot-separated `subsystem.metric` (`serve.served`,
//! `tiling.spectrum_hits`); [`Telemetry::with_prefix`] scopes a handle so
//! router replicas sharing one registry stay distinguishable
//! (`replica0.serve.served`). The span taxonomy and the full naming scheme
//! live in `docs/OBSERVABILITY.md`.

#![deny(missing_docs)]

mod export;
mod metrics;
mod snapshot;
mod spans;
mod stopwatch;

pub use export::{chrome_trace, text_tree, validate_chrome_trace, TraceStats};
pub use metrics::{Counter, Gauge};
pub use snapshot::{MetricsSnapshot, StageTotals};
pub use spans::{request_track, SpanEvent, REQ_TRACK_BASE};
pub use stopwatch::{StageAcc, Stopwatch};

/// The calling thread's span track id — the track guard spans record on.
/// Use it with [`Telemetry::record_span`] to place synthesized spans on
/// the same lane as the guard spans the thread opened around them.
pub fn thread_track() -> u64 {
    metrics::thread_slot() as u64 + 1
}

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use metrics::Registry;
use spans::SpanRecorder;

/// Default span-ring capacity for [`Telemetry::enabled`]: 64Ki spans
/// (~4 MiB), a few thousand requests' worth of full span trees.
pub const DEFAULT_SPAN_CAPACITY: usize = 65536;

/// The four JTC convolution stages, in pipeline order. Fixed registry
/// slots (not name-keyed metrics) so the per-conv hot path records stage
/// time with two striped adds and zero lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Forward FFT of the (quantised) input signal.
    SignalFft,
    /// Applying the prepared kernel spectrum on the joint plane.
    SpectrumApply,
    /// The inverse transform / second lens.
    Inverse,
    /// DAC quantisation, rescale, sensing noise and output ADC.
    DacAdc,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 4;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SignalFft,
        Stage::SpectrumApply,
        Stage::Inverse,
        Stage::DacAdc,
    ];

    /// Dense slot index.
    pub fn index(self) -> usize {
        match self {
            Stage::SignalFft => 0,
            Stage::SpectrumApply => 1,
            Stage::Inverse => 2,
            Stage::DacAdc => 3,
        }
    }

    /// Stable snake_case name, matching the span taxonomy and the
    /// benchmark ladder's `pf-jtc.stage_*_share` rows.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SignalFft => "signal_fft",
            Stage::SpectrumApply => "spectrum_apply",
            Stage::Inverse => "inverse",
            Stage::DacAdc => "dac_adc",
        }
    }
}

struct Inner {
    epoch: Instant,
    registry: Registry,
    recorder: SpanRecorder,
    stage_ns: [metrics::CounterCell; Stage::COUNT],
    stage_calls: [metrics::CounterCell; Stage::COUNT],
    next_req: AtomicU64,
    next_span: AtomicU64,
}

thread_local! {
    // Per-thread stack of open guard spans, for implicit parenting.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The observability handle threaded through the stack. Clone freely: all
/// clones (and prefixed clones) share one registry, span ring and id
/// spaces. See the crate docs for the enabled/disabled contract.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    prefix: Arc<str>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("prefix", &self.prefix)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// The no-op handle: no registry, no recorder, every operation is a
    /// branch on `None`.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            prefix: Arc::from(""),
        }
    }

    /// A fresh registry with the [`DEFAULT_SPAN_CAPACITY`] span ring.
    pub fn enabled() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A fresh registry whose span ring holds `capacity` spans
    /// (drop-oldest beyond that; 0 records metrics only and drops every
    /// span into the drop counter).
    pub fn with_span_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::new(),
                recorder: SpanRecorder::new(capacity),
                stage_ns: std::array::from_fn(|_| metrics::CounterCell::new()),
                stage_calls: std::array::from_fn(|_| metrics::CounterCell::new()),
                next_req: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
            })),
            prefix: Arc::from(""),
        }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This handle if enabled, otherwise a fresh private metrics-only
    /// registry. Stats collectors use this so their counters always count
    /// (the existing `ServerStats`/`RouterStats` surfaces are views over a
    /// registry even when the operator attached no telemetry).
    pub fn or_private(&self) -> Telemetry {
        if self.is_enabled() {
            self.clone()
        } else {
            Self::with_span_capacity(0)
        }
    }

    /// A clone whose metric names gain a `prefix.` scope (prefixes nest).
    /// Spans and stage slots are shared unscoped — one trace, one stage
    /// breakdown — while each router replica's counters stay apart.
    pub fn with_prefix(&self, prefix: &str) -> Telemetry {
        if prefix.is_empty() {
            return self.clone();
        }
        Telemetry {
            inner: self.inner.clone(),
            prefix: Arc::from(format!("{}{prefix}.", self.prefix)),
        }
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// The monotonic counter `name` (scoped by this handle's prefix).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => Counter(Some(inner.registry.counter(&self.scoped(name)))),
            None => Counter::noop(),
        }
    }

    /// The gauge `name` (scoped by this handle's prefix).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => Gauge(Some(inner.registry.gauge(&self.scoped(name)))),
            None => Gauge::noop(),
        }
    }

    /// Accumulates `elapsed` into `stage`'s fixed slot (wait-free, no
    /// lookup — safe on the per-conv hot path).
    pub fn stage_add(&self, stage: Stage, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
            inner.stage_ns[stage.index()].add(ns);
            inner.stage_calls[stage.index()].add(1);
        }
    }

    /// Accumulates a whole per-conv stage split in one call: each nonzero
    /// `ns[i]` adds `ns` and one call to stage `i`'s slots. Resolves the
    /// thread slot once for all stages, so a hot path that timed its
    /// stages locally (see [`Stopwatch`]) pays a single TLS lookup to
    /// flush.
    pub fn stage_add_ns(&self, ns: [u64; Stage::COUNT]) {
        if let Some(inner) = &self.inner {
            let stripe = metrics::stripe_index();
            for (i, &n) in ns.iter().enumerate() {
                if n > 0 {
                    inner.stage_ns[i].add_at(stripe, n);
                    inner.stage_calls[i].add_at(stripe, 1);
                }
            }
        }
    }

    /// Current per-stage totals.
    pub fn stage_totals(&self) -> StageTotals {
        match &self.inner {
            Some(inner) => StageTotals {
                ns: std::array::from_fn(|i| inner.stage_ns[i].value()),
                calls: std::array::from_fn(|i| inner.stage_calls[i].value()),
            },
            None => StageTotals::default(),
        }
    }

    /// Mints the next serving request id (unique per registry, starting at
    /// 1). Returns 0 when disabled — the "no request" id.
    pub fn next_request_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_req.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Allocates a span id without recording anything yet, for spans whose
    /// interval is observed by a different thread than the one that names
    /// them (e.g. the request root minted at router admission and recorded
    /// at fulfilment). Returns 0 when disabled.
    pub fn alloc_span_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_span.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// The recorder's epoch, if enabled (nanosecond timestamps in
    /// [`SpanEvent`] count from it).
    pub fn epoch(&self) -> Option<Instant> {
        self.inner.as_ref().map(|inner| inner.epoch)
    }

    /// Opens a guard span on the calling thread's track, parented under
    /// the thread's innermost open guard span. Closes (and records) on
    /// drop.
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard {
        self.span_impl(name, cat, None, 0)
    }

    /// Like [`Telemetry::span`] with an explicit parent id and request id:
    /// the cross-thread form (a worker continuing a tree another thread
    /// rooted). Nested guards on this thread chain under it as usual.
    pub fn span_with_parent(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: u64,
        req: u64,
    ) -> SpanGuard {
        self.span_impl(name, cat, Some(parent), req)
    }

    fn span_impl(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: Option<u64>,
        req: u64,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                name,
                cat,
                id: 0,
                parent: 0,
                req: 0,
                start: None,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent =
            parent.unwrap_or_else(|| SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)));
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            name,
            cat,
            id,
            parent,
            req,
            start: Some(Instant::now()),
        }
    }

    /// Records a span with explicit bounds under a pre-allocated id (see
    /// [`Telemetry::alloc_span_id`]) — how cross-thread intervals like
    /// queue wait and batch execution are synthesized from the `Instant`s
    /// the server already tracks. No-op when disabled or `id == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        id: u64,
        name: &'static str,
        cat: &'static str,
        track: u64,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        if id == 0 {
            return;
        }
        let start_ns = start
            .saturating_duration_since(inner.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        inner.recorder.push(SpanEvent {
            name,
            cat,
            track,
            start_ns,
            dur_ns,
            id,
            parent,
            req,
        });
    }

    /// A copy of the retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => inner.recorder.events(),
            None => Vec::new(),
        }
    }

    /// Spans lost to the ring's drop-oldest policy.
    pub fn dropped_spans(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.recorder.dropped())
    }

    /// A point-in-time copy of every metric (always unscoped: the full
    /// registry, whatever this handle's prefix).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => MetricsSnapshot {
                counters: inner.registry.counter_values(),
                gauges: inner.registry.gauge_values(),
                stages: self.stage_totals(),
                spans_recorded: inner.recorder.recorded(),
                spans_dropped: inner.recorder.dropped(),
            },
            None => MetricsSnapshot::default(),
        }
    }

    /// The retained spans as Chrome trace-event JSON (see
    /// [`chrome_trace`]).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace(&self.spans())
    }

    /// The retained spans as a flamegraph-style text tree (see
    /// [`text_tree`]).
    pub fn text_tree(&self) -> String {
        text_tree(&self.spans())
    }
}

/// Runs `f` under a synthesized `name` span parented at `parent` (for the
/// serving path: the dispatching worker's batch span), then attributes the
/// interval across the four JTC stages from the registry's stage-counter
/// deltas: each stage that ran gets a child span laid out sequentially in
/// pipeline order with its measured duration (scaled down proportionally
/// if concurrent work inflated the deltas past the wall interval). With a
/// disabled handle it is just `f()`.
///
/// The attribution is synthesized, not measured per-span — the per-conv
/// hot path records only two striped counter adds — so overlapping
/// batches on other workers can bleed into each other's stage shares;
/// totals across the whole trace remain exact.
pub fn staged_span<R>(
    tel: &Telemetry,
    name: &'static str,
    parent: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !tel.is_enabled() {
        return f();
    }
    let before = tel.stage_totals();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let delta = tel.stage_totals().delta_since(&before);
    let span_id = tel.alloc_span_id();
    let track = thread_track();
    tel.record_span(span_id, name, "session", track, start, end, parent, 0);
    let wall_ns = end.saturating_duration_since(start).as_nanos() as u64;
    let total_ns = delta.total_ns();
    if total_ns > 0 && wall_ns > 0 {
        let scale = if total_ns > wall_ns {
            wall_ns as f64 / total_ns as f64
        } else {
            1.0
        };
        let mut cursor = start;
        for stage in Stage::ALL {
            let ns = (delta.stage_ns(stage) as f64 * scale) as u64;
            if ns == 0 {
                continue;
            }
            let stage_end = cursor + Duration::from_nanos(ns);
            tel.record_span(
                tel.alloc_span_id(),
                stage.name(),
                "stage",
                track,
                cursor,
                stage_end,
                span_id,
                0,
            );
            cursor = stage_end;
        }
    }
    out
}

/// An open span: records its interval on drop. Returned by
/// [`Telemetry::span`] / [`Telemetry::span_with_parent`]; a guard from a
/// disabled handle does nothing.
#[must_use = "a span measures until this guard drops"]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    name: &'static str,
    cat: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start: Option<Instant>,
}

impl SpanGuard {
    /// This span's id (0 when disabled) — hand it to children on other
    /// threads via [`Telemetry::span_with_parent`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guard moved across scopes): remove
                // this id wherever it is so the stack cannot leak.
                stack.retain(|&id| id != self.id);
            }
        });
        let start = self.start.unwrap_or_else(Instant::now);
        let start_ns = start
            .saturating_duration_since(inner.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        inner.recorder.push(SpanEvent {
            name: self.name,
            cat: self.cat,
            track: metrics::thread_slot() as u64 + 1,
            start_ns,
            dur_ns,
            id: self.id,
            parent: self.parent,
            req: self.req,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_a_no_op_everywhere() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").inc();
        tel.gauge("y").set(3);
        tel.stage_add(Stage::Inverse, Duration::from_nanos(7));
        assert_eq!(tel.next_request_id(), 0);
        assert_eq!(tel.alloc_span_id(), 0);
        {
            let guard = tel.span("noop", "test");
            assert_eq!(guard.id(), 0);
        }
        assert_eq!(tel.snapshot(), MetricsSnapshot::default());
        assert!(tel.spans().is_empty());
        assert!(tel.epoch().is_none());
    }

    #[test]
    fn guard_spans_nest_on_one_thread() {
        let tel = Telemetry::enabled();
        {
            let root = tel.span("request", "serve");
            let root_id = root.id();
            let child = tel.span("stage", "jtc");
            assert_ne!(child.id(), root_id);
            drop(child);
            let sibling = tel.span("stage2", "jtc");
            drop(sibling);
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(root.parent, 0);
        for name in ["stage", "stage2"] {
            let child = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(child.parent, root.id, "{name} parents under request");
        }
    }

    #[test]
    fn explicit_parents_chain_across_threads() {
        let tel = Telemetry::enabled();
        let root = tel.span("request", "serve");
        let root_id = root.id();
        let worker = {
            let tel = tel.clone();
            std::thread::spawn(move || {
                let exec = tel.span_with_parent("exec", "serve", root_id, 9);
                let exec_id = exec.id();
                // A plain guard on this thread nests under exec, not the
                // other thread's request.
                let stage = tel.span("signal_fft", "jtc");
                let stage_id = stage.id();
                drop(stage);
                drop(exec);
                (exec_id, stage_id)
            })
        };
        let (exec_id, stage_id) = worker.join().unwrap();
        drop(root);
        let spans = tel.spans();
        let exec = spans.iter().find(|s| s.id == exec_id).unwrap();
        assert_eq!(exec.parent, root_id);
        assert_eq!(exec.req, 9);
        let stage = spans.iter().find(|s| s.id == stage_id).unwrap();
        assert_eq!(stage.parent, exec_id);
        // Different threads, different tracks.
        let root_span = spans.iter().find(|s| s.id == root_id).unwrap();
        assert_ne!(exec.track, root_span.track);
        // The whole set exports to a valid trace.
        validate_chrome_trace(&chrome_trace(&spans)).unwrap();
    }

    #[test]
    fn prefixes_scope_counters_but_share_spans_and_stages() {
        let tel = Telemetry::enabled();
        let replica = tel.with_prefix("replica0");
        replica.counter("serve.served").add(2);
        tel.counter("serve.served").add(1);
        replica.stage_add(Stage::DacAdc, Duration::from_nanos(40));
        drop(replica.span("exec", "serve"));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("replica0.serve.served"), 2);
        assert_eq!(snap.counter("serve.served"), 1);
        assert_eq!(snap.stages.stage_ns(Stage::DacAdc), 40, "stages unscoped");
        assert_eq!(snap.spans_recorded, 1, "spans unscoped");
        // Prefixes nest.
        let nested = replica.with_prefix("inner");
        nested.counter("c").inc();
        assert_eq!(tel.snapshot().counter("replica0.inner.c"), 1);
    }

    #[test]
    fn record_span_uses_explicit_bounds() {
        let tel = Telemetry::enabled();
        let id = tel.alloc_span_id();
        let start = Instant::now();
        let end = start + Duration::from_micros(250);
        tel.record_span(
            id,
            "queue_wait",
            "serve",
            request_track(3),
            start,
            end,
            0,
            3,
        );
        let spans = tel.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, 250_000);
        assert_eq!(spans[0].track, request_track(3));
        // id 0 (disabled upstream) records nothing.
        tel.record_span(0, "x", "serve", 1, start, end, 0, 0);
        assert_eq!(tel.spans().len(), 1);
    }

    #[test]
    fn or_private_gives_working_counters() {
        let private = Telemetry::disabled().or_private();
        assert!(private.is_enabled());
        private.counter("c").inc();
        assert_eq!(private.snapshot().counter("c"), 1);
        // An enabled handle is returned as-is.
        let tel = Telemetry::enabled();
        tel.counter("c").inc();
        assert_eq!(tel.or_private().snapshot().counter("c"), 1);
    }
}
