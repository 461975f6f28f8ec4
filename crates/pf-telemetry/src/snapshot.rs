//! Point-in-time snapshots of the registry, serializable for BENCH
//! reports, plus counter deltas between two snapshots.

use serde::{Deserialize, Serialize};

use crate::Stage;

/// Accumulated per-stage convolution time (the fixed-slot stage counters;
/// see [`crate::Telemetry::stage_add`]). Indexed by [`Stage`].
#[derive(Serialize, Deserialize, Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Nanoseconds per stage, indexed by [`Stage::index`].
    pub ns: [u64; Stage::COUNT],
    /// Stage executions, indexed by [`Stage::index`].
    pub calls: [u64; Stage::COUNT],
}

impl StageTotals {
    /// Nanoseconds accumulated in `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Executions of `stage`.
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.calls[stage.index()]
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `self - prev`, element-wise saturating.
    pub fn delta_since(&self, prev: &StageTotals) -> StageTotals {
        let mut out = StageTotals::default();
        for i in 0..Stage::COUNT {
            out.ns[i] = self.ns[i].saturating_sub(prev.ns[i]);
            out.calls[i] = self.calls[i].saturating_sub(prev.calls[i]);
        }
        out
    }
}

/// A point-in-time copy of every metric in one registry. Counters and
/// gauges are name-sorted `(name, value)` pairs so snapshots of the same
/// state compare equal and serialize deterministically.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Fixed-slot per-stage convolution totals.
    pub stages: StageTotals,
    /// Spans ever recorded (retained + dropped).
    pub spans_recorded: u64,
    /// Spans lost to the ring's drop-oldest policy.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// The value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name)
    }

    /// The value of gauge `name`, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }

    /// The counter-delta view `self - prev`: counters, stage totals and
    /// span tallies subtract (saturating, and counters absent from `prev`
    /// keep their full value); gauges keep the current state, since they
    /// describe levels rather than rates.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| (name.clone(), v.saturating_sub(lookup(&prev.counters, name))))
                .collect(),
            gauges: self.gauges.clone(),
            stages: self.stages.delta_since(&prev.stages),
            spans_recorded: self.spans_recorded.saturating_sub(prev.spans_recorded),
            spans_dropped: self.spans_dropped.saturating_sub(prev.spans_dropped),
        }
    }
}

fn lookup(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let prev = MetricsSnapshot {
            counters: vec![("a".into(), 10), ("b".into(), 5)],
            gauges: vec![("g".into(), 3)],
            ..MetricsSnapshot::default()
        };
        let mut now = prev.clone();
        now.counters = vec![("a".into(), 25), ("b".into(), 5), ("c".into(), 7)];
        now.gauges = vec![("g".into(), 9)];
        now.spans_recorded = 4;
        let delta = now.delta_since(&prev);
        assert_eq!(delta.counter("a"), 15);
        assert_eq!(delta.counter("b"), 0);
        assert_eq!(delta.counter("c"), 7, "new counters keep full value");
        assert_eq!(delta.gauge("g"), 9, "gauges are levels, not rates");
        assert_eq!(delta.spans_recorded, 4);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = MetricsSnapshot {
            counters: vec![("serve.submitted".into(), 12)],
            gauges: vec![("serve.queue_high_water".into(), 4)],
            stages: StageTotals {
                ns: [1, 2, 3, 4],
                calls: [1, 1, 1, 1],
            },
            spans_recorded: 5,
            spans_dropped: 1,
        };
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.stages.total_ns(), 10);
    }
}
