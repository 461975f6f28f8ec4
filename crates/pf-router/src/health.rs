//! Per-replica health: a deterministic circuit breaker.
//!
//! Every dispatch attempt's outcome feeds a per-replica health
//! record: a consecutive-failure counter and a closed → open → half-open
//! breaker. The breaker is driven entirely by *counts* (consecutive
//! failures, skipped submissions, probe successes), never by wall-clock
//! time, so a seeded chaos run trips, quarantines and re-admits replicas
//! at exactly the same points every run.
//!
//! State machine:
//!
//! - **Closed** — healthy; requests flow normally. `TRIP_AFTER` (3)
//!   consecutive failures open the breaker.
//! - **Open** — quarantined; the dispatch order skips the replica. After
//!   `PROBE_AFTER` (8) submissions have passed it over, it moves to
//!   half-open.
//! - **HalfOpen** — re-admission probing; up to `PROBES_TO_CLOSE` (2)
//!   concurrent requests are routed to the replica (ahead of the policy
//!   order, so probes actually happen on a lightly-loaded tier). One probe
//!   failure reopens; `PROBES_TO_CLOSE` consecutive successes close.
//!
//! The thresholds are constants:
//! the scenario schema configures fault *injection* (`[faults]`), not
//! healing.

/// Consecutive dispatch failures that trip a closed breaker open.
const TRIP_AFTER: u32 = 3;
/// Submissions that must pass over an open (quarantined) replica before it
/// is offered a half-open re-admission probe.
const PROBE_AFTER: u64 = 8;
/// Consecutive successful probes that close a half-open breaker; also the
/// cap on concurrent half-open probe traffic.
const PROBES_TO_CLOSE: u32 = 2;

/// Circuit-breaker state of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined: skipped by dispatch until a probe is due.
    Open,
    /// Probing for re-admission: bounded probe traffic only.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-snake name, used in serialized reports.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What one health-state update did, so the collector can bump the
/// tier-level counters exactly once per event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HealthEvents {
    /// Breaker state changes made by this update.
    pub(crate) transitions: u64,
    /// Transitions into `Open` (quarantine events) among them.
    pub(crate) quarantines: u64,
}

/// Mutable health record of one replica (lives inside the router's stats
/// mutex alongside the rest of the accounting).
#[derive(Debug)]
pub(crate) struct ReplicaHealth {
    pub(crate) state: BreakerState,
    consecutive_failures: u32,
    skipped_while_open: u64,
    probe_successes: u32,
    probes_outstanding: u32,
    transitions: u64,
    quarantines: u64,
}

impl ReplicaHealth {
    pub(crate) fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            skipped_while_open: 0,
            probe_successes: 0,
            probes_outstanding: 0,
            transitions: 0,
            quarantines: 0,
        }
    }

    /// A dispatch attempt on this replica succeeded.
    pub(crate) fn on_success(&mut self) -> HealthEvents {
        self.consecutive_failures = 0;
        self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
        let mut events = HealthEvents::default();
        if self.state == BreakerState::HalfOpen {
            self.probe_successes += 1;
            if self.probe_successes >= PROBES_TO_CLOSE {
                self.state = BreakerState::Closed;
                self.transitions += 1;
                events.transitions += 1;
            }
        }
        events
    }

    /// A dispatch attempt on this replica failed (engine error or
    /// integrity reject).
    pub(crate) fn on_failure(&mut self) -> HealthEvents {
        self.consecutive_failures += 1;
        self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
        let mut events = HealthEvents::default();
        let trip = match self.state {
            BreakerState::Closed => self.consecutive_failures >= TRIP_AFTER,
            // One failed probe is enough evidence: back to quarantine.
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.skipped_while_open = 0;
            self.probe_successes = 0;
            self.transitions += 1;
            self.quarantines += 1;
            events.transitions += 1;
            events.quarantines += 1;
        }
        events
    }

    /// A request admitted to this replica resolved without the replica ever
    /// serving or failing it (expired in queue, abandoned by the caller):
    /// release any probe slot it held, with no health signal either way.
    pub(crate) fn on_unjudged(&mut self) {
        self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
    }

    /// Gate for one submission: may this replica receive the next request?
    /// Mutates the open-state skip counter and performs the open →
    /// half-open transition when a probe is due. Returns the admission
    /// class for ordering (see [`gate_order`]).
    pub(crate) fn gate(&mut self) -> (Admission, HealthEvents) {
        let mut events = HealthEvents::default();
        let admission = match self.state {
            BreakerState::Closed => Admission::Normal,
            BreakerState::Open => {
                if self.skipped_while_open >= PROBE_AFTER {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    self.probes_outstanding = 0;
                    self.transitions += 1;
                    events.transitions += 1;
                    Admission::Probe
                } else {
                    self.skipped_while_open += 1;
                    Admission::Quarantined
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_outstanding < PROBES_TO_CLOSE {
                    Admission::Probe
                } else {
                    Admission::Quarantined
                }
            }
        };
        (admission, events)
    }

    /// An admission landed on this replica while it was half-open: one
    /// probe slot is now in flight.
    pub(crate) fn note_admission(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_outstanding += 1;
        }
    }

    pub(crate) fn report(&self) -> ReplicaHealthReport {
        ReplicaHealthReport {
            state: self.state.name().to_string(),
            consecutive_failures: self.consecutive_failures,
            transitions: self.transitions,
            quarantines: self.quarantines,
        }
    }
}

/// How the breaker gate classified a replica for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Closed breaker: dispatch in policy order.
    Normal,
    /// Half-open probe slot: dispatch *ahead* of the policy order so
    /// re-admission probes actually receive traffic.
    Probe,
    /// Open breaker (or half-open with all probe slots busy): skip.
    Quarantined,
}

/// Health snapshot of one replica, embedded in
/// [`ReplicaRollup`](crate::ReplicaRollup).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicaHealthReport {
    /// Breaker state name: `"closed"`, `"open"` or `"half_open"`.
    pub state: String,
    /// Current consecutive-failure streak.
    pub consecutive_failures: u32,
    /// Total breaker state changes.
    pub transitions: u64,
    /// Transitions into `open` (quarantine events).
    pub quarantines: u64,
}

impl Default for ReplicaHealthReport {
    fn default() -> Self {
        ReplicaHealth::new().report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut h = ReplicaHealth::new();
        assert_eq!(h.state, BreakerState::Closed);

        // Three consecutive failures trip it open.
        assert_eq!(h.on_failure(), HealthEvents::default());
        assert_eq!(h.on_failure(), HealthEvents::default());
        let events = h.on_failure();
        assert_eq!(events.transitions, 1);
        assert_eq!(events.quarantines, 1);
        assert_eq!(h.state, BreakerState::Open);

        // Quarantined until eight submissions have passed it over.
        for _ in 0..8 {
            let (admission, events) = h.gate();
            assert_eq!(admission, Admission::Quarantined);
            assert_eq!(events, HealthEvents::default());
        }
        let (admission, events) = h.gate();
        assert_eq!(admission, Admission::Probe);
        assert_eq!(events.transitions, 1);
        assert_eq!(h.state, BreakerState::HalfOpen);

        // Probe traffic is capped at two in flight.
        h.note_admission();
        h.note_admission();
        assert_eq!(h.gate().0, Admission::Quarantined);

        // Two probe successes close it.
        assert_eq!(h.on_success(), HealthEvents::default());
        assert_eq!(h.gate().0, Admission::Probe);
        let events = h.on_success();
        assert_eq!(events.transitions, 1);
        assert_eq!(events.quarantines, 0);
        assert_eq!(h.state, BreakerState::Closed);
        assert_eq!(h.report().transitions, 3);
        assert_eq!(h.report().quarantines, 1);
    }

    #[test]
    fn a_failed_probe_reopens() {
        let mut h = ReplicaHealth::new();
        for _ in 0..3 {
            h.on_failure();
        }
        for _ in 0..9 {
            h.gate();
        }
        assert_eq!(h.state, BreakerState::HalfOpen);
        let events = h.on_failure();
        assert_eq!(events.quarantines, 1);
        assert_eq!(h.state, BreakerState::Open);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let mut h = ReplicaHealth::new();
        h.on_failure();
        h.on_failure();
        h.on_success();
        h.on_failure();
        h.on_failure();
        assert_eq!(h.state, BreakerState::Closed, "streak broken by success");
        assert_eq!(h.report().consecutive_failures, 2);
    }
}
