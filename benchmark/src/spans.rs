//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around calls *into* the program, never inside it:
//! name, start, end, the span that caused it, and the workload id. They
//! stay in memory until the traced run ends and are then written out as
//! Chrome trace events.
//!
//! Nesting is tracked with one open-span stack, so spans on the main
//! track must be opened and closed by one thread (every workload drives
//! the program from a single generator thread). Intervals measured on
//! other lanes — a routed request from submit to completion — are added
//! with [`Recorder::record`] and never become parents.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Track id of the generator thread's nested spans.
pub const MAIN_TRACK: u32 = 0;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pf-jtc.correlate`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Display lane: [`MAIN_TRACK`] for nested spans, a request lane
    /// otherwise.
    pub track: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Collects spans for one traced run of one workload.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    workload: u32,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    id: u32,
}

impl Recorder {
    /// An empty recorder for workload number `workload` (the `pid` of the
    /// exported trace).
    pub fn new(workload: u32) -> Self {
        Self {
            epoch: Instant::now(),
            workload,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while recording leaves the vectors valid (push/pop only).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span on the main track, child of the innermost open span.
    /// The clock is read last on entry and first on exit, so the
    /// recorder's own bookkeeping lands in the parent's self time.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut inner = self.lock();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        inner.open.push(id);
        inner.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            track: MAIN_TRACK,
        });
        inner.spans[id as usize].start_ns = self.now_ns();
        SpanGuard { recorder: self, id }
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Adds an interval measured elsewhere (instants, not a guard) on a
    /// lane of its own, child of the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, track: u32) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            track,
        });
    }

    /// A copy of every closed and open span, in start order per track.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The workload id spans are exported under.
    pub fn workload(&self) -> u32 {
        self.workload
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        let mut inner = self.recorder.lock();
        inner.spans[self.id as usize].end_ns = end;
        // Guards drop in reverse order of creation on one thread, so the
        // top of the stack is this span.
        if inner.open.last() == Some(&self.id) {
            inner.open.pop();
        } else {
            inner.open.retain(|&open| open != self.id);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children on the same track cover (overlapping children
/// are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let parent_span = &spans[parent as usize];
            if span.track == parent_span.track {
                let start = span.start_ns.max(parent_span.start_ns);
                let end = span.end_ns.min(parent_span.end_ns);
                if end > start {
                    children[parent as usize].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// For each span, the index of its nearest ancestor called `name`
/// (`None` when it has none).
pub fn ancestor_named(spans: &[Span], name: &str) -> Vec<Option<u32>> {
    // Parents always precede their children, so one forward pass suffices.
    let mut found: Vec<Option<u32>> = Vec::with_capacity(spans.len());
    for span in spans {
        let via_parent = span.parent.and_then(|p| {
            if spans[p as usize].name == name {
                Some(p)
            } else {
                found[p as usize]
            }
        });
        found.push(via_parent);
    }
    found
}

/// Renders the spans as Chrome trace-event JSON (matched `B`/`E` pairs,
/// timestamps non-decreasing, one `pid` per workload, one `tid` per
/// track), the format `pf_telemetry::validate_chrome_trace`
/// accepts and `chrome://tracing` / Perfetto open.
///
/// Main-track pairs are emitted by replaying the parent links (a span
/// closes when the next span to open is not its descendant), so equal
/// timestamps cannot break the nesting; every other lane holds sequential
/// intervals and is emitted in start order.
pub fn chrome_trace(spans: &[Span], workload: u32, workload_name: &str) -> String {
    // (timestamp, is_end, span index), grouped by track.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if span.track != MAIN_TRACK {
            continue;
        }
        while let Some(&top) = open.last() {
            if span.parent == Some(top as u32) {
                break;
            }
            events.push((spans[top].end_ns, true, top));
            open.pop();
        }
        events.push((span.start_ns, false, i));
        open.push(i);
    }
    while let Some(top) = open.pop() {
        events.push((spans[top].end_ns, true, top));
    }
    let mut lanes: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].track != MAIN_TRACK)
        .collect();
    lanes.sort_by_key(|&i| (spans[i].track, spans[i].start_ns));
    for i in lanes {
        events.push((spans[i].start_ns, false, i));
        events.push((spans[i].end_ns, true, i));
    }
    // Stable: keeps each track's own order among equal timestamps.
    events.sort_by_key(|&(ts, _, _)| ts);

    let mut out = String::with_capacity(spans.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{workload},\"tid\":0,\
         \"args\":{{\"name\":\"{workload_name}\"}}}}"
    ));
    for (ts_ns, is_end, i) in events {
        let span = &spans[i];
        let ph = if is_end { "E" } else { "B" };
        let parent = span.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":{workload},\
             \"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            span.name,
            span.name.split('.').next().unwrap_or("bench"),
            ts_ns / 1000,
            ts_ns % 1000,
            span.track + 1,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
