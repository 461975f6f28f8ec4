//! Router accounting: every admission decision and every completion,
//! rolled up per priority class, per replica, and in aggregate.
//!
//! The dispatch policy is judged by *recorded* tail latency and cache
//! locality, not by construction — so the router counts everything it
//! does: admissions (and which replica, and whether the first choice
//! spilled), sheds, rejections, window shrinks, deadline misses, and the
//! per-class latency distributions.

use std::time::Duration;

use pf_serve::{LatencyRecord, LatencySummary, ServerStats};
use pf_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};

use crate::health::{Admission, HealthEvents, ReplicaHealth, ReplicaHealthReport};

/// Model-session cache counters of one replica's engine (see
/// `ReplicaEngine::cache_stats`): how often a request found its model's
/// session — and with it the model's lowered layers and their kernel
/// spectra — already
/// resident on the replica that served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests whose model was already resident.
    pub hits: u64,
    /// Requests that had to evict/build a model session first.
    pub misses: u64,
}

impl CacheStats {
    /// Hits over lookups, `0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// Rollup for one priority class.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name (from the configured `priority_classes`).
    pub class: String,
    /// Requests of this class the router admitted to a replica.
    pub admitted: u64,
    /// Requests completed successfully (and waited on).
    pub served: u64,
    /// Requests failed by a replica's engine.
    pub failed: u64,
    /// Requests whose deadline expired while queued (never dispatched).
    pub expired: u64,
    /// Requests abandoned by their caller (`RouterTicket::wait_deadline`
    /// timed out).
    pub abandoned: u64,
    /// Requests shed by the router's overload policy.
    pub shed: u64,
    /// Requests rejected because every replica's queue was full.
    pub rejected: u64,
    /// Served requests that completed *after* their deadline.
    pub deadline_misses: u64,
    /// Router-observed end-to-end latency (admission → completion) of
    /// served requests.
    pub latency: LatencySummary,
}

/// Rollup for one replica shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaRollup {
    /// Replica index.
    pub replica: usize,
    /// Requests the router dispatched to this replica.
    pub dispatched: u64,
    /// The replica server's own accounting (queueing, batching,
    /// percentiles as the server saw them).
    pub server: ServerStats,
    /// The replica engine's model-session cache counters.
    pub cache: CacheStats,
    /// The replica's health record: breaker state, failure streak,
    /// quarantine history.
    pub health: ReplicaHealthReport,
}

/// Snapshot of a router's accounting, from [`crate::Router::stats`]
/// (mid-flight) or [`crate::Router::drain`] (final: every ticket resolved).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Dispatch policy name the router ran with.
    pub policy: String,
    /// Requests offered to the router (`admitted + shed + rejected`).
    pub submitted: u64,
    /// Requests placed on some replica's queue.
    pub admitted: u64,
    /// Requests intentionally shed (lowest priority class, under
    /// overload) — a policy decision, not a capacity failure.
    pub shed: u64,
    /// Requests rejected because every replica's queue was full — the
    /// last-resort stage of the degradation ladder.
    pub rejected: u64,
    /// Admissions that landed on a fallback replica after the policy's
    /// first choice was full.
    pub spills: u64,
    /// Times the router shrank the batch-formation windows (transitions
    /// into the shrunk state, not per-request).
    pub window_shrinks: u64,
    /// Served requests (all classes) that completed after their deadline.
    pub deadline_misses: u64,
    /// Failed dispatch attempts that were resubmitted to another replica
    /// (`Router::submit_with_retry` traffic only). A retry re-dispatches an
    /// already-admitted request, so retries do **not** count into
    /// `admitted` — the `submitted == admitted + shed + rejected` invariant
    /// is unchanged.
    pub retries: u64,
    /// Circuit-breaker state changes across all replicas (closed → open,
    /// open → half-open, half-open → closed/open).
    pub breaker_transitions: u64,
    /// Transitions into the open state (replica quarantine events).
    pub quarantined: u64,
    /// Served payloads discarded by the NaN/Inf integrity screen.
    pub integrity_rejects: u64,
    /// Router-observed end-to-end latency over all served requests.
    pub latency: LatencySummary,
    /// Per-class rollups, in configured priority order (highest first).
    pub classes: Vec<ClassStats>,
    /// Per-replica rollups, by replica index.
    pub replicas: Vec<ReplicaRollup>,
}

impl RouterStats {
    /// The rollup for the named class, if configured.
    pub fn class(&self, name: &str) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Aggregate model-cache counters over all replicas.
    pub fn cache(&self) -> CacheStats {
        self.replicas
            .iter()
            .fold(CacheStats::default(), |acc, r| acc.merged(&r.cache))
    }

    /// Served requests over all classes.
    pub fn served(&self) -> u64 {
        self.classes.iter().map(|c| c.served).sum()
    }

    /// Deadline misses over served-and-deadlined requests, `0` before the
    /// first served request.
    pub fn deadline_miss_rate(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / served as f64
    }
}

/// How a waited-on router ticket resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Outcome {
    /// Completed successfully; admission-to-completion latency and
    /// whether the completion violated the request's deadline.
    Served { latency: Duration, missed: bool },
    /// The replica engine failed the request.
    Failed,
    /// Deadline expired while queued; never dispatched.
    Expired,
    /// The caller's `wait_deadline` timed out and cancelled the ticket.
    Abandoned,
}

/// One class's running [`ClassStats`] counts (the snapshot fills in its
/// name, and its served count and latency summary from the record) and its
/// latency record.
#[derive(Debug, Default)]
struct ClassAcc {
    counts: ClassStats,
    latency: LatencyRecord,
}

/// Mutable accumulator behind the router's stats mutex. Tickets record
/// their outcome here when waited on; the router records admission
/// decisions directly.
///
/// Like the replica servers' collector, the tier-level monotone counts
/// (admitted / shed / rejected / spills / window shrinks) live in the
/// telemetry registry as `router.*` counters so metric snapshots and the
/// [`RouterStats`] view read the same numbers; the per-class accumulators
/// stay local, each class's latency one constant-memory [`LatencyRecord`]
/// (percentiles within 1/128 above the exact sample) that the aggregate
/// merges.
#[derive(Debug)]
pub(crate) struct RouterCollector {
    classes: Vec<ClassAcc>,
    dispatched: Vec<u64>,
    health: Vec<ReplicaHealth>,
    admitted: Counter,
    shed: Counter,
    rejected: Counter,
    spills: Counter,
    window_shrinks: Counter,
    retries: Counter,
    breaker_transitions: Counter,
    quarantined: Counter,
    integrity_rejects: Counter,
}

impl RouterCollector {
    pub(crate) fn new(classes: usize, replicas: usize, tel: &Telemetry) -> Self {
        let tel = tel.or_private();
        Self {
            classes: (0..classes).map(|_| ClassAcc::default()).collect(),
            dispatched: vec![0; replicas],
            health: (0..replicas).map(|_| ReplicaHealth::new()).collect(),
            admitted: tel.counter("router.admitted"),
            shed: tel.counter("router.shed"),
            rejected: tel.counter("router.rejected"),
            spills: tel.counter("router.spills"),
            window_shrinks: tel.counter("router.window_shrinks"),
            retries: tel.counter("router.retries"),
            breaker_transitions: tel.counter("router.breaker_transitions"),
            quarantined: tel.counter("router.quarantined"),
            integrity_rejects: tel.counter("router.integrity_rejects"),
        }
    }

    fn bump(&self, events: HealthEvents) {
        self.breaker_transitions.add(events.transitions);
        self.quarantined.add(events.quarantines);
    }

    pub(crate) fn record_admitted(&mut self, class: usize, replica: usize, spilled: bool) {
        self.classes[class].counts.admitted += 1;
        self.dispatched[replica] += 1;
        self.health[replica].note_admission();
        self.admitted.inc();
        if spilled {
            self.spills.inc();
        }
    }

    /// A failed attempt of an already-admitted request was resubmitted and
    /// landed on `replica`. Counts into `dispatched` (the replica will do
    /// the work) but not into `admitted`.
    pub(crate) fn record_retry(&mut self, replica: usize) {
        self.dispatched[replica] += 1;
        self.health[replica].note_admission();
        self.retries.inc();
    }

    /// One dispatch attempt on `replica` served successfully.
    pub(crate) fn record_attempt_success(&mut self, replica: usize) {
        let events = self.health[replica].on_success();
        self.bump(events);
    }

    /// One dispatch attempt on `replica` failed (engine error or integrity
    /// reject) — whether or not the request will be retried.
    pub(crate) fn record_attempt_failure(&mut self, replica: usize) {
        let events = self.health[replica].on_failure();
        self.bump(events);
    }

    /// A served payload failed the integrity screen.
    pub(crate) fn record_integrity_reject(&mut self) {
        self.integrity_rejects.inc();
    }

    /// A request admitted to `replica` resolved with no verdict on the
    /// replica itself (expired in queue / abandoned by caller).
    pub(crate) fn release_probe(&mut self, replica: usize) {
        self.health[replica].on_unjudged();
    }

    /// Applies the circuit breaker to one submission's policy order:
    /// half-open probes first (bounded), then closed replicas in policy
    /// order; open replicas are skipped (and their probe countdown
    /// advanced). Falls back to the unfiltered order if quarantine would
    /// leave nothing — a fully-quarantined tier still serves rather than
    /// failing every request outright.
    pub(crate) fn gate_order(&mut self, order: Vec<usize>) -> Vec<usize> {
        let mut probes = Vec::new();
        let mut normal = Vec::new();
        for &replica in &order {
            let (admission, events) = self.health[replica].gate();
            self.bump(events);
            match admission {
                Admission::Normal => normal.push(replica),
                Admission::Probe => probes.push(replica),
                Admission::Quarantined => {}
            }
        }
        if probes.is_empty() && normal.is_empty() {
            return order;
        }
        probes.extend(normal);
        probes
    }

    pub(crate) fn health_report(&self, replica: usize) -> ReplicaHealthReport {
        self.health[replica].report()
    }

    pub(crate) fn record_shed(&mut self, class: usize) {
        self.classes[class].counts.shed += 1;
        self.shed.inc();
    }

    pub(crate) fn record_rejected(&mut self, class: usize) {
        self.classes[class].counts.rejected += 1;
        self.rejected.inc();
    }

    pub(crate) fn record_window_shrink(&mut self) {
        self.window_shrinks.inc();
    }

    pub(crate) fn record_outcome(&mut self, class: usize, outcome: Outcome) {
        let ClassAcc {
            counts,
            latency: record,
        } = &mut self.classes[class];
        match outcome {
            Outcome::Served { latency, missed } => {
                record.record(latency);
                if missed {
                    counts.deadline_misses += 1;
                }
            }
            Outcome::Failed => counts.failed += 1,
            Outcome::Expired => counts.expired += 1,
            Outcome::Abandoned => counts.abandoned += 1,
        }
    }

    pub(crate) fn snapshot(
        &self,
        policy: &str,
        class_names: &[String],
        replicas: Vec<ReplicaRollup>,
    ) -> RouterStats {
        let classes: Vec<ClassStats> = class_names
            .iter()
            .zip(&self.classes)
            .map(|(name, acc)| {
                let latency = acc.latency.summary();
                ClassStats {
                    class: name.clone(),
                    served: latency.count,
                    latency,
                    ..acc.counts.clone()
                }
            })
            .collect();
        let mut all = LatencyRecord::default();
        for acc in &self.classes {
            all.merge(&acc.latency);
        }
        let admitted: u64 = classes.iter().map(|c| c.admitted).sum();
        let (shed, rejected) = (self.shed.value(), self.rejected.value());
        RouterStats {
            policy: policy.to_string(),
            submitted: admitted + shed + rejected,
            admitted,
            shed,
            rejected,
            spills: self.spills.value(),
            window_shrinks: self.window_shrinks.value(),
            deadline_misses: classes.iter().map(|c| c.deadline_misses).sum(),
            retries: self.retries.value(),
            breaker_transitions: self.breaker_transitions.value(),
            quarantined: self.quarantined.value(),
            integrity_rejects: self.integrity_rejects.value(),
            latency: all.summary(),
            classes,
            replicas,
        }
    }

    pub(crate) fn dispatched(&self, replica: usize) -> u64 {
        self.dispatched[replica]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn collector_rolls_up_per_class_and_aggregate() {
        let tel = Telemetry::enabled();
        let mut c = RouterCollector::new(2, 2, &tel);
        c.record_admitted(0, 0, false);
        c.record_admitted(0, 1, true);
        c.record_admitted(1, 0, false);
        c.record_shed(1);
        c.record_rejected(1);
        c.record_window_shrink();
        c.record_outcome(
            0,
            Outcome::Served {
                latency: Duration::from_millis(10),
                missed: false,
            },
        );
        c.record_outcome(
            0,
            Outcome::Served {
                latency: Duration::from_millis(30),
                missed: true,
            },
        );
        c.record_outcome(1, Outcome::Failed);

        let names = vec!["interactive".to_string(), "background".to_string()];
        let stats = c.snapshot("least_loaded", &names, Vec::new());
        assert_eq!(stats.policy, "least_loaded");
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.spills, 1);
        assert_eq!(stats.window_shrinks, 1);
        assert_eq!(stats.served(), 2);
        assert_eq!(stats.deadline_misses, 1);
        assert!((stats.deadline_miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.latency.count, 2);

        let interactive = stats.class("interactive").unwrap();
        assert_eq!(interactive.served, 2);
        assert_eq!(interactive.deadline_misses, 1);
        let background = stats.class("background").unwrap();
        assert_eq!(background.failed, 1);
        assert_eq!(background.shed, 1);
        assert_eq!(background.rejected, 1);
        assert!(stats.class("nope").is_none());
        // The aggregate is the class records merged: exact count and max.
        assert_eq!(
            stats.latency.count,
            stats.classes.iter().map(|c| c.latency.count).sum::<u64>()
        );
        assert_eq!(
            stats.latency.max_ms,
            stats
                .classes
                .iter()
                .map(|c| c.latency.max_ms)
                .fold(0.0, f64::max)
        );
        assert_eq!(stats.latency.max_ms, 30.0);

        assert_eq!(c.dispatched(0), 2);
        assert_eq!(c.dispatched(1), 1);

        // The aggregates are the same counters a metrics snapshot reads.
        let snap = tel.snapshot();
        assert_eq!(snap.counter("router.admitted"), 3);
        assert_eq!(snap.counter("router.shed"), 1);
        assert_eq!(snap.counter("router.rejected"), 1);
        assert_eq!(snap.counter("router.spills"), 1);
        assert_eq!(snap.counter("router.window_shrinks"), 1);
    }

    /// A ticket's latency is `completed.saturating_duration_since(admitted)`
    /// (`RouterTicket::resolve`): instants cloned across threads can
    /// compare in either order, and a completion seen before its admission
    /// records a 0 ns sample, never a negative or panicking one.
    #[test]
    fn served_latency_is_never_negative() {
        let completed = Instant::now();
        let admitted = completed + Duration::from_millis(5);
        let mut c = RouterCollector::new(1, 1, &Telemetry::disabled());
        c.record_outcome(
            0,
            Outcome::Served {
                latency: completed.saturating_duration_since(admitted),
                missed: false,
            },
        );
        let stats = c.snapshot("round_robin", &["only".to_string()], Vec::new());
        assert_eq!(stats.latency.count, 1);
        assert_eq!(stats.latency.max_ms, 0.0);
        assert_eq!(stats.latency.p99_ms, 0.0);
        assert_eq!(stats.served(), 1);
    }

    #[test]
    fn cache_stats_hit_rate_and_merge() {
        let a = CacheStats { hits: 3, misses: 1 };
        let b = CacheStats { hits: 1, misses: 3 };
        assert!((a.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let merged = a.merged(&b);
        assert_eq!(merged, CacheStats { hits: 4, misses: 4 });
        assert!((merged.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn router_stats_serialize() {
        let stats = RouterCollector::new(1, 1, &Telemetry::disabled()).snapshot(
            "round_robin",
            &["only".to_string()],
            vec![ReplicaRollup {
                replica: 0,
                dispatched: 0,
                server: ServerStats::default(),
                cache: CacheStats::default(),
                health: ReplicaHealthReport::default(),
            }],
        );
        let json = serde_json::to_string(&stats).unwrap();
        let back: RouterStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn attempt_accounting_drives_breaker_and_counters() {
        let tel = Telemetry::enabled();
        let mut c = RouterCollector::new(1, 2, &tel);
        // Three failures on replica 0 trip its breaker; replica 1 untouched.
        c.record_attempt_failure(0);
        c.record_attempt_failure(0);
        assert_eq!(c.health_report(0).state, "closed");
        c.record_attempt_failure(0);
        assert_eq!(c.health_report(0).state, "open");
        assert_eq!(c.health_report(1).state, "closed");
        // The gate skips replica 0 for eight passes (probe countdown), then
        // offers it a probe — ahead of the policy order.
        for _ in 0..8 {
            assert_eq!(c.gate_order(vec![0, 1]), vec![1]);
        }
        assert_eq!(c.gate_order(vec![0, 1]), vec![0, 1]);
        assert_eq!(c.health_report(0).state, "half_open");
        // Retry dispatches land the probes; two successes close the breaker.
        c.record_retry(0);
        c.record_attempt_success(0);
        assert_eq!(c.health_report(0).state, "half_open");
        c.record_retry(0);
        c.record_attempt_success(0);
        assert_eq!(c.health_report(0).state, "closed");
        c.record_integrity_reject();

        let names = vec!["only".to_string()];
        let stats = c.snapshot("round_robin", &names, Vec::new());
        assert_eq!(stats.retries, 2);
        // closed->open, open->half_open, half_open->closed.
        assert_eq!(stats.breaker_transitions, 3);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.integrity_rejects, 1);
        assert_eq!(c.dispatched(0), 2, "retry dispatch counts as work");
        // Retries never inflate the admission invariant.
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.shed + stats.rejected
        );

        let snap = tel.snapshot();
        assert_eq!(snap.counter("router.retries"), 2);
        assert_eq!(snap.counter("router.breaker_transitions"), 3);
        assert_eq!(snap.counter("router.quarantined"), 1);
        assert_eq!(snap.counter("router.integrity_rejects"), 1);
    }
}
