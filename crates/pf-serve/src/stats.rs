//! Latency accounting.
//!
//! Every request carries three timestamps — enqueue (admission), dispatch
//! (its micro-batch left the queue) and complete (the engine returned) —
//! collected by the server and aggregated here into the summaries a
//! serving benchmark needs: latency percentiles, the achieved batch-size
//! histogram, and throughput.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pf_telemetry::{Counter, Gauge, Telemetry};
use serde::{Deserialize, Serialize};

/// Aggregate of one per-request duration (milliseconds), read from a
/// [`LatencyRecord`].
///
/// `count` and `max_ms` are exact and `mean_ms` is the exact nanosecond
/// sum over `count`. Each percentile is the nearest-rank sample's
/// log-linear bucket, reported as that bucket's upper edge capped at the
/// maximum: `exact ≤ reported ≤ min(max, exact · (1 + 1/128))`, and
/// exact below 256 ns. Percentiles stay monotone
/// (`p50 <= p95 <= p99 <= max`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples aggregated.
    pub count: u64,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, in milliseconds.
    pub p99_ms: f64,
    /// Mean, in milliseconds.
    pub mean_ms: f64,
    /// Maximum, in milliseconds.
    pub max_ms: f64,
}

#[cfg(test)]
impl LatencySummary {
    /// Exact nearest-rank summary of raw samples (seconds): the oracle a
    /// [`LatencyRecord`] is held to.
    fn from_samples_secs(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let ms = 1e3;
        Self {
            count: sorted.len() as u64,
            p50_ms: percentile(&sorted, 50.0) * ms,
            p95_ms: percentile(&sorted, 95.0) * ms,
            p99_ms: percentile(&sorted, 99.0) * ms,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64 * ms,
            max_ms: sorted[sorted.len() - 1] * ms,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
#[cfg(test)]
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// log₂ of the sub-buckets per power of two: a bucket is at most 1/128 of
/// its lower edge wide.
const SUB_BITS: u32 = 7;
/// Sub-buckets per power of two; the Vec grows this many at a time.
const SUB: usize = 1 << SUB_BITS;

/// Bucket of a value in nanoseconds. Below 2 · 128 every value has its
/// own; above, a value in the octave `[2^e, 2^(e+1))` falls in one of its
/// 128 buckets of width `2^(e − 7)`.
fn bucket(ns: u64) -> usize {
    let shift = (u64::BITS - 1 - (ns | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
}

/// Largest value (nanoseconds) that lands in bucket `index`.
fn upper_edge(index: usize) -> u64 {
    if index < 2 * SUB {
        return index as u64;
    }
    let shift = (index >> SUB_BITS) - 1;
    let mantissa = ((index & (SUB - 1)) | SUB) as u64;
    (mantissa << shift) | ((1 << shift) - 1)
}

/// Milliseconds of `ns`, converted as a `Duration` reports seconds.
fn ms(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e3
}

/// One latency distribution in constant memory: log-linear bucket counts
/// over integer nanoseconds (HdrHistogram's scheme at 7 bits of
/// precision) plus the exact count, sum and maximum.
///
/// The bucket Vec grows one octave (128 buckets) at a time, up to the
/// octave of the largest sample seen: ≈ 1 800 entries (14 KB) for
/// millisecond latencies, never more than 58 × 128 (58 KiB). Read it with
/// [`LatencyRecord::summary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyRecord {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl LatencyRecord {
    /// Adds one sample (saturating at `u64::MAX` nanoseconds).
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let index = bucket(ns);
        self.grow_to((index | (SUB - 1)) + 1);
        self.counts[index] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds every sample of `other`, bucket by bucket.
    pub fn merge(&mut self, other: &Self) {
        self.grow_to(other.counts.len());
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Nearest-rank p50 / p95 / p99 (each its bucket's upper edge, capped
    /// at the maximum), with exact count, mean and maximum.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        let max_ms = ms(self.max_ns);
        LatencySummary {
            count: self.count,
            p50_ms: ms(self.percentile_ns(50.0)),
            p95_ms: ms(self.percentile_ns(95.0)),
            p99_ms: ms(self.percentile_ns(99.0)),
            // The exact mean never exceeds the max; its conversion may
            // round it an ulp above.
            mean_ms: (self.sum_ns as f64 / self.count as f64 / 1e6).min(max_ms),
            max_ms,
        }
    }

    fn percentile_ns(&self, p: f64) -> u64 {
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        let index = self.counts.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        upper_edge(index.expect("the buckets hold every sample")).min(self.max_ns)
    }

    /// Lengthens the bucket Vec to `len` (no-op if already that long),
    /// allocating exactly that.
    fn grow_to(&mut self, len: usize) {
        if len > self.counts.len() {
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
    }
}

/// One bar of the achieved batch-size histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchBucket {
    /// Micro-batch size.
    pub size: usize,
    /// How many micro-batches of exactly this size were dispatched.
    pub count: u64,
}

/// Snapshot of a server's accounting since construction.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests offered to admission control (accepted + rejected).
    pub submitted: u64,
    /// Requests completed successfully.
    pub served: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests accepted but failed by the engine.
    pub failed: u64,
    /// Requests whose deadline passed while still queued: dropped at batch
    /// formation, never dispatched.
    pub expired: u64,
    /// Requests whose caller abandoned the ticket (`Ticket::wait_deadline`
    /// timed out) before dispatch — a client decision, counted distinctly
    /// from engine failures. `served + rejected + failed + expired +
    /// cancelled == submitted` once the server has drained.
    pub cancelled: u64,
    /// End-to-end request latency (enqueue → complete), served requests.
    pub latency: LatencySummary,
    /// Queueing delay (enqueue → dispatch), served requests.
    pub queue_wait: LatencySummary,
    /// Engine time (dispatch → complete), served requests.
    pub service: LatencySummary,
    /// Achieved micro-batch sizes, ascending by size.
    pub batch_histogram: Vec<BatchBucket>,
    /// Served requests divided by the wall time from the first enqueue to
    /// the last completion. `0` until something completes.
    pub throughput_rps: f64,
    /// Deepest the pending queue ever got (measured at admission, request
    /// included) — how close the server came to its admission limit.
    pub queue_high_water: u64,
}

impl ServerStats {
    /// Mean achieved micro-batch size (`0` before the first dispatch).
    pub fn mean_batch_size(&self) -> f64 {
        let batches: u64 = self.batch_histogram.iter().map(|b| b.count).sum();
        if batches == 0 {
            return 0.0;
        }
        let requests: u64 = self
            .batch_histogram
            .iter()
            .map(|b| b.size as u64 * b.count)
            .sum();
        requests as f64 / batches as f64
    }
}

/// Mutable accumulator behind the server's stats mutex.
///
/// The monotone counts (submitted / served / rejected / …) live in the
/// telemetry registry as `serve.*` counters, so one serving run surfaces
/// them both here (as the [`ServerStats`] view) and in metric snapshots.
/// The three latency distributions stay local, one [`LatencyRecord`] each:
/// constant memory however many requests are served, with percentiles
/// within 1/128 above the exact nearest-rank sample.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    submitted: Counter,
    served: Counter,
    rejected: Counter,
    failed: Counter,
    expired: Counter,
    cancelled: Counter,
    queue_high_water: Gauge,
    latency: LatencyRecord,
    queue_wait: LatencyRecord,
    service: LatencyRecord,
    batch_sizes: BTreeMap<usize, u64>,
    first_enqueue: Option<Instant>,
    last_complete: Option<Instant>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::new(&Telemetry::disabled())
    }
}

impl StatsCollector {
    /// Builds a collector whose counters live in `tel`'s registry — or, on
    /// a disabled handle, in a private registry of their own
    /// ([`Telemetry::or_private`]), so the [`ServerStats`] view works
    /// identically either way.
    pub(crate) fn new(tel: &Telemetry) -> Self {
        let tel = tel.or_private();
        Self {
            submitted: tel.counter("serve.submitted"),
            served: tel.counter("serve.served"),
            rejected: tel.counter("serve.rejected"),
            failed: tel.counter("serve.failed"),
            expired: tel.counter("serve.expired"),
            cancelled: tel.counter("serve.cancelled"),
            queue_high_water: tel.gauge("serve.queue_high_water"),
            latency: LatencyRecord::default(),
            queue_wait: LatencyRecord::default(),
            service: LatencyRecord::default(),
            batch_sizes: BTreeMap::new(),
            first_enqueue: None,
            last_complete: None,
        }
    }

    /// Records one admission. `depth` is the pending-queue length with this
    /// request included, feeding the high-water gauge.
    pub(crate) fn record_submitted(&mut self, enqueued: Instant, depth: usize) {
        self.submitted.inc();
        self.queue_high_water.set_max(depth as u64);
        // Min, not first-recorded: concurrent submitters stamp `enqueued`
        // before racing for this lock, so arrival order here can invert
        // timestamp order — and an inflated window start would overstate
        // throughput.
        self.first_enqueue = Some(match self.first_enqueue {
            Some(prev) => prev.min(enqueued),
            None => enqueued,
        });
    }

    pub(crate) fn record_rejected(&mut self) {
        self.submitted.inc();
        self.rejected.inc();
    }

    pub(crate) fn record_expired(&mut self) {
        self.expired.inc();
    }

    pub(crate) fn record_cancelled(&mut self) {
        self.cancelled.inc();
    }

    /// Records one dispatched micro-batch: its size, outcome, and each
    /// request's (enqueue, dispatch, complete) timestamps.
    pub(crate) fn record_batch(
        &mut self,
        enqueues: &[Instant],
        dispatched: Instant,
        completed: Instant,
        succeeded: bool,
    ) {
        *self.batch_sizes.entry(enqueues.len()).or_insert(0) += 1;
        if !succeeded {
            self.failed.add(enqueues.len() as u64);
            return;
        }
        self.served.add(enqueues.len() as u64);
        for &enqueued in enqueues {
            self.latency.record(completed - enqueued);
            self.queue_wait.record(dispatched - enqueued);
            self.service.record(completed - dispatched);
        }
        self.last_complete = Some(match self.last_complete {
            Some(prev) => prev.max(completed),
            None => completed,
        });
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        let wall = match (self.first_enqueue, self.last_complete) {
            (Some(first), Some(last)) => (last - first).as_secs_f64(),
            _ => 0.0,
        };
        let served = self.served.value();
        ServerStats {
            submitted: self.submitted.value(),
            served,
            rejected: self.rejected.value(),
            failed: self.failed.value(),
            expired: self.expired.value(),
            cancelled: self.cancelled.value(),
            latency: self.latency.summary(),
            queue_wait: self.queue_wait.summary(),
            service: self.service.summary(),
            batch_histogram: self
                .batch_sizes
                .iter()
                .map(|(&size, &count)| BatchBucket { size, count })
                .collect(),
            throughput_rps: if wall > 0.0 {
                served as f64 / wall
            } else {
                0.0
            },
            queue_high_water: self.queue_high_water.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Buckets spanning every `u64` nanosecond value: 256 one-nanosecond
    /// buckets below 2⁸, then 128 per power of two up to 2⁶⁴ — the
    /// documented 58 × 128 entries.
    const BUCKETS: usize = (u64::BITS - SUB_BITS + 1) as usize * SUB;
    const HOUR_NS: u64 = 3_600_000_000_000;

    fn record_of(samples_ns: &[u64]) -> LatencyRecord {
        let mut record = LatencyRecord::default();
        for &ns in samples_ns {
            record.record(Duration::from_nanos(ns));
        }
        record
    }

    /// A sample in nanoseconds from one of the ranges where bucketing can
    /// go wrong: zero, the one-nanosecond buckets, both sides of an
    /// octave's edge `2^k` and of a sub-bucket's edge inside it, an hour,
    /// and plain microsecond-grained latencies.
    fn sample_ns() -> impl Strategy<Value = u64> {
        (0u8..7, 0u64..1 << 20, 8u32..42).prop_map(|(kind, x, k)| match kind {
            0 => 0,
            1 => x % 256,
            2 => (1 << k) - 1 - x % 3,
            3 => (1 << k) + x % 3,
            4 => ((128 + x % 128) << (k - SUB_BITS)) - x % 2,
            5 => HOUR_NS,
            _ => x * 1_000,
        })
    }

    /// Deterministic uniform draws in `[lo, hi)` (xorshift64).
    fn uniform_ns(state: &mut u64, lo: u64, hi: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        lo + *state % (hi - lo)
    }

    #[test]
    fn buckets_tile_the_whole_u64_range() {
        assert_eq!(bucket(0), 0);
        for v in 0..2 * SUB as u64 {
            assert_eq!(upper_edge(bucket(v)), v, "one bucket per ns below 256");
        }
        for index in 0..BUCKETS - 1 {
            let top = upper_edge(index);
            assert_eq!(bucket(top), index);
            assert_eq!(bucket(top + 1), index + 1, "bucket {index} ends at {top}");
            let lower = if index == 0 {
                0
            } else {
                upper_edge(index - 1) + 1
            };
            assert!(
                (top - lower) as u128 * 128 <= lower as u128,
                "bucket {index} too wide"
            );
        }
        assert_eq!(upper_edge(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn record_summary_brackets_the_exact_nearest_rank(
            mut samples in prop::collection::vec(sample_ns(), 1..=200),
            duplicates in 0usize..=8,
            split in 0usize..=208,
        ) {
            samples.extend_from_within(..duplicates.min(samples.len()));
            let secs: Vec<f64> = samples
                .iter()
                .map(|&ns| Duration::from_nanos(ns).as_secs_f64())
                .collect();
            let exact = LatencySummary::from_samples_secs(&secs);
            let record = record_of(&samples);
            let got = record.summary();

            prop_assert_eq!(got.count, exact.count);
            prop_assert_eq!(got.max_ms, exact.max_ms);
            prop_assert!(
                (got.mean_ms - exact.mean_ms).abs() <= 1e-12 * exact.mean_ms,
                "mean {} vs exact {}", got.mean_ms, exact.mean_ms
            );
            for (reported, truth) in [
                (got.p50_ms, exact.p50_ms),
                (got.p95_ms, exact.p95_ms),
                (got.p99_ms, exact.p99_ms),
            ] {
                prop_assert!(
                    truth <= reported && reported <= exact.max_ms.min(truth * (1.0 + 1.0 / 128.0)),
                    "reported {} outside [{}, min({}, {} · 129/128)]",
                    reported, truth, exact.max_ms, truth
                );
            }
            prop_assert!(got.p50_ms <= got.p95_ms && got.p95_ms <= got.p99_ms);
            prop_assert!(got.p99_ms <= got.max_ms);

            let (head, tail) = samples.split_at(split.min(samples.len()));
            let mut merged = record_of(head);
            merged.merge(&record_of(tail));
            prop_assert_eq!(merged, record);
        }
    }

    #[test]
    fn record_storage_stops_growing() {
        let (lo, hi) = (1_000, 10_000_000);
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let mut record = LatencyRecord::default();
        let mut early = 0;
        for i in 1..=1_000_000 {
            record.record(Duration::from_nanos(uniform_ns(&mut state, lo, hi)));
            if i == 10_000 {
                early = record.counts.capacity();
            }
        }
        let octave_end = (bucket(hi) | (SUB - 1)) + 1;
        assert_eq!(record.counts.capacity(), early);
        assert!(
            early <= octave_end && octave_end <= BUCKETS,
            "{early} buckets"
        );
        assert_eq!(record.count, 1_000_000);
    }

    #[test]
    fn collector_storage_stops_growing() {
        let mut state = 0x2545_F491_4F6C_DD1D;
        let mut collector = StatsCollector::default();
        let t0 = Instant::now();
        let capacities = |c: &StatsCollector| {
            [&c.latency, &c.queue_wait, &c.service].map(|r| r.counts.capacity())
        };
        let mut early = [0; 3];
        for i in 1..=100_000 {
            let dispatched = t0 + Duration::from_nanos(uniform_ns(&mut state, 1_000, 5_000_000));
            let completed =
                dispatched + Duration::from_nanos(uniform_ns(&mut state, 1_000, 5_000_000));
            collector.record_batch(&[t0, t0, t0][..1 + i % 3], dispatched, completed, true);
            if i == 10_000 {
                early = capacities(&collector);
            }
        }
        let octave_end = (bucket(10_000_000) | (SUB - 1)) + 1;
        assert_eq!(capacities(&collector), early);
        assert!(
            early.iter().all(|&cap| cap <= octave_end),
            "{early:?} buckets"
        );
        assert_eq!(collector.snapshot().latency.count, 200_000);
    }

    #[test]
    fn percentiles_are_monotone_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 / 1000.0).collect();
        let summary = LatencySummary::from_samples_secs(&samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_ms, 50.0);
        assert_eq!(summary.p95_ms, 95.0);
        assert_eq!(summary.p99_ms, 99.0);
        assert_eq!(summary.max_ms, 100.0);
        assert!(summary.p50_ms <= summary.p95_ms && summary.p95_ms <= summary.p99_ms);
    }

    #[test]
    fn single_sample_summary() {
        let summary = LatencySummary::from_samples_secs(&[0.002]);
        assert_eq!(summary.p50_ms, 2.0);
        assert_eq!(summary.p99_ms, 2.0);
        assert_eq!(LatencySummary::from_samples_secs(&[]).count, 0);
    }

    #[test]
    fn collector_accounts_every_request() {
        let mut collector = StatsCollector::default();
        let t0 = Instant::now();
        let enqueues = vec![t0, t0 + Duration::from_millis(1)];
        collector.record_submitted(enqueues[0], 1);
        collector.record_submitted(enqueues[1], 2);
        collector.record_rejected();
        collector.record_submitted(t0 + Duration::from_millis(2), 1);
        collector.record_expired();
        collector.record_submitted(t0 + Duration::from_millis(2), 1);
        collector.record_cancelled();
        collector.record_batch(
            &enqueues,
            t0 + Duration::from_millis(2),
            t0 + Duration::from_millis(5),
            true,
        );
        let stats = collector.snapshot();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(
            stats.served + stats.rejected + stats.failed + stats.expired + stats.cancelled,
            stats.submitted
        );
        assert_eq!(
            stats.batch_histogram,
            vec![BatchBucket { size: 2, count: 1 }]
        );
        assert_eq!(stats.mean_batch_size(), 2.0);
        assert!(stats.throughput_rps > 0.0);
        assert!(stats.latency.p99_ms >= stats.latency.p50_ms);
        assert!(stats.latency.max_ms >= stats.queue_wait.max_ms);
        assert_eq!(stats.queue_high_water, 2);
    }

    #[test]
    fn collector_counters_surface_in_a_shared_registry() {
        let tel = Telemetry::enabled();
        let mut collector = StatsCollector::new(&tel);
        let t0 = Instant::now();
        collector.record_submitted(t0, 3);
        collector.record_rejected();
        collector.record_batch(&[t0], t0, t0 + Duration::from_millis(1), true);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("serve.submitted"), 2);
        assert_eq!(snap.counter("serve.served"), 1);
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.gauge("serve.queue_high_water"), 3);
        // The ServerStats view reads from the same counters.
        let stats = collector.snapshot();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.queue_high_water, 3);
    }

    #[test]
    fn failed_batches_count_as_failed_not_served() {
        let mut collector = StatsCollector::default();
        let t0 = Instant::now();
        collector.record_submitted(t0, 1);
        collector.record_batch(&[t0], t0, t0, false);
        let stats = collector.snapshot();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.served, 0);
        assert_eq!(stats.latency.count, 0);
    }

    #[test]
    fn stats_serialize() {
        let stats = ServerStats {
            batch_histogram: vec![BatchBucket { size: 4, count: 9 }],
            ..ServerStats::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ServerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
