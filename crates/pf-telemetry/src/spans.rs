//! Span events and the bounded ring-buffer recorder.
//!
//! A span is a named interval on a *track* (a worker thread or a virtual
//! per-request lane) with a parent id, so one serving request's spans —
//! admission, queue wait, batch execution, per-stage convolution work —
//! assemble into a single tree. The recorder is a drop-oldest ring: under
//! overload the newest spans survive and the drop counter says exactly how
//! many were lost (surfaced in `dropped_spans()` and snapshots).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Track ids at or above this base are virtual per-request lanes
/// ([`request_track`]); below it they are worker-thread tracks.
pub const REQ_TRACK_BASE: u64 = 1 << 32;

/// The track id of the virtual lane for request `req`.
pub fn request_track(req: u64) -> u64 {
    REQ_TRACK_BASE + req
}

/// One recorded span. `Copy` and fixed-size — names are `&'static str` so
/// recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `"queue_wait"`). See `docs/OBSERVABILITY.md` for the
    /// taxonomy.
    pub name: &'static str,
    /// Category (Chrome trace `cat`): the subsystem that recorded it.
    pub cat: &'static str,
    /// Track the span renders on: a worker-thread track or a
    /// [`request_track`] lane.
    pub track: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Serving request id this span belongs to, 0 when unaffiliated.
    pub req: u64,
}

/// Bounded drop-oldest span storage.
pub(crate) struct SpanRecorder {
    capacity: usize,
    buf: Mutex<VecDeque<SpanEvent>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, event: SpanEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
    }

    /// A copy of the retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<SpanEvent> {
        self.buf.lock().iter().copied().collect()
    }

    /// Spans ever pushed (retained + dropped).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans lost to the drop-oldest policy.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64) -> SpanEvent {
        SpanEvent {
            name: "t",
            cat: "test",
            track: 1,
            start_ns: id * 10,
            dur_ns: 5,
            id,
            parent: 0,
            req: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let recorder = SpanRecorder::new(3);
        for id in 1..=5 {
            recorder.push(event(id));
        }
        let kept: Vec<u64> = recorder.events().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![3, 4, 5], "newest spans survive");
        assert_eq!(recorder.recorded(), 5);
        assert_eq!(recorder.dropped(), 2);
        // recorded == retained + dropped.
        assert_eq!(
            recorder.recorded(),
            recorder.events().len() as u64 + recorder.dropped()
        );
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let recorder = SpanRecorder::new(0);
        recorder.push(event(1));
        assert!(recorder.events().is_empty());
        assert_eq!(recorder.dropped(), 1);
    }
}
