//! Deterministic fault injection for the serving tier.
//!
//! A [`FaultPlan`] compiles the scenario `[faults]` section
//! ([`pf_core::FaultsSpec`]) into a schedule keyed by the wrapped engine's
//! request sequence numbers: the same plan over the same request stream
//! injects the same faults at the same points, every run, so chaos tests
//! replay bit-identically and their event counts can be gated in CI.
//!
//! [`FaultyEngine`] wraps any [`InferenceEngine`] (and forwards the
//! [`ReplicaEngine`] seam, so it drops into a `pf-router` tier unchanged)
//! and injects:
//!
//! - **latency spikes / stalls** — a seeded-jitter sleep before the batch,
//! - **panics** — the engine panics mid-batch (the server's dispatch path
//!   catches it and fails the batch's tickets),
//! - **transient typed errors** — [`PfError::FaultInjected`], safe to retry,
//! - **NaN / Inf corruption and calibration drift** — response payloads are
//!   mutated through a caller-installed [`Corruption`] hook (the payload
//!   type is generic, so the facade decides what "corrupt a tensor" means);
//!   drift gains reuse `pf-photonics`' sensing-noise machinery.
//!
//! Injection counters ([`FaultCounts`]) record exactly what fired, for
//! chaos reports and determinism gates.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pf_core::{FaultsSpec, PfError};
use pf_photonics::detector::SensingNoise;
use pf_router::policy::{splitmix64, unit_from_bits};
use pf_router::{CacheStats, ReplicaEngine};
use pf_serve::InferenceEngine;

/// One injectable fault, compiled from a `[[faults.windows]]` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Sleep for roughly this long (seeded jitter applies) before serving
    /// the batch.
    LatencySpike {
        /// Nominal spike duration in microseconds.
        micros: u64,
    },
    /// A longer sleep: same mechanism as a spike, reported separately so a
    /// wedged replica is distinguishable from a slow one.
    Stall {
        /// Nominal stall duration in microseconds.
        micros: u64,
    },
    /// The engine panics while serving the batch.
    Panic,
    /// The batch fails with a typed, retry-safe [`PfError::FaultInjected`].
    TransientError,
    /// A NaN is written into the faulted request's response payload.
    CorruptNan,
    /// An infinity is written into the faulted request's response payload.
    CorruptInf,
    /// The faulted request's response is scaled by a seeded calibration
    /// gain error drawn from `pf-photonics`' sensing-noise model.
    CalibrationDrift {
        /// Gain-error sigma (standard deviation around a gain of 1.0).
        sigma: f64,
    },
}

impl FaultKind {
    /// The `[faults]` schema name of this kind (one of
    /// [`pf_core::FAULT_KINDS`]).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LatencySpike { .. } => "latency_spike",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Panic => "panic",
            FaultKind::TransientError => "transient_error",
            FaultKind::CorruptNan => "corrupt_nan",
            FaultKind::CorruptInf => "corrupt_inf",
            FaultKind::CalibrationDrift { .. } => "calibration_drift",
        }
    }
}

/// A compiled fault window: one [`FaultKind`] over a half-open seq range.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultWindow {
    kind: FaultKind,
    from_seq: u64,
    until_seq: u64,
    every: u64,
}

/// A seeded, fully deterministic fault schedule.
///
/// The schedule is a pure function of the request sequence number: given
/// the same request stream, the same faults fire at the same points in
/// every run. The seed only feeds per-request *magnitudes* (spike jitter,
/// drift draws), never *whether* a fault fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            windows: Vec::new(),
        }
    }

    /// Compiles a validated `[faults]` spec into a plan.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] if the spec fails
    /// [`FaultsSpec::validate`].
    pub fn from_spec(spec: &FaultsSpec) -> Result<Self, PfError> {
        spec.validate()?;
        let windows = spec
            .windows
            .iter()
            .map(|w| {
                let kind = match w.kind.as_str() {
                    "latency_spike" => FaultKind::LatencySpike {
                        micros: w.magnitude as u64,
                    },
                    "stall" => FaultKind::Stall {
                        micros: w.magnitude as u64,
                    },
                    "panic" => FaultKind::Panic,
                    "transient_error" => FaultKind::TransientError,
                    "corrupt_nan" => FaultKind::CorruptNan,
                    "corrupt_inf" => FaultKind::CorruptInf,
                    "calibration_drift" => FaultKind::CalibrationDrift { sigma: w.magnitude },
                    other => unreachable!("validate() admitted unknown fault kind `{other}`"),
                };
                FaultWindow {
                    kind,
                    from_seq: w.from_seq,
                    until_seq: w.until_seq,
                    every: w.every,
                }
            })
            .collect();
        Ok(Self {
            seed: spec.seed,
            windows,
        })
    }

    /// Whether this plan can ever inject anything.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The fault (if any) scheduled for request sequence number `seq`.
    /// Earlier windows win when windows overlap.
    pub fn fault_for(&self, seq: u64) -> Option<FaultKind> {
        self.windows.iter().find_map(|w| {
            (seq >= w.from_seq && seq < w.until_seq && (seq - w.from_seq).is_multiple_of(w.every))
                .then_some(w.kind)
        })
    }

    /// Deterministic per-seq jitter factor in `[0.5, 1.0)`.
    fn jitter(&self, seq: u64) -> f64 {
        0.5 + 0.5
            * unit_from_bits(splitmix64(
                self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
    }

    /// Deterministic calibration-drift gain for `seq`: a draw around 1.0
    /// with standard deviation `sigma`, via the pf-photonics sensing-noise
    /// model seeded from the plan seed and the sequence number.
    fn drift_gain(&self, seq: u64, sigma: f64) -> f64 {
        let seed = splitmix64(self.seed ^ seq ^ 0xD1F7_5EED);
        match SensingNoise::new(sigma, seed) {
            Ok(mut noise) => noise.perturb(1.0),
            // validate() guarantees sigma >= 0, so this arm is unreachable;
            // degrade to a no-op gain rather than panicking inside a fault.
            Err(_) => 1.0,
        }
    }
}

/// How a corruption fault mutates a response payload. The payload type is
/// generic, so the engine owner installs a hook that knows how to apply
/// these to its concrete response type (see
/// [`FaultyEngine::with_corruptor`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Write a NaN somewhere in the payload.
    Nan,
    /// Write an infinity somewhere in the payload.
    Inf,
    /// Scale the payload by this calibration-drift gain.
    Gain(f64),
}

/// How many faults of each kind a [`FaultyEngine`] has injected. These are
/// pure counts of deterministic events, so two runs of the same plan over
/// the same request stream produce identical values — the property the
/// chaos determinism gate asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Latency spikes slept.
    pub spikes: u64,
    /// Stalls slept.
    pub stalls: u64,
    /// Panics raised.
    pub panics: u64,
    /// Transient typed errors returned.
    pub errors: u64,
    /// NaN/Inf payload corruptions applied.
    pub corruptions: u64,
    /// Calibration-drift gains applied.
    pub drifts: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.spikes + self.stalls + self.panics + self.errors + self.corruptions + self.drifts
    }
}

type Corruptor<R> = Arc<dyn Fn(&mut R, Corruption) + Send + Sync>;

/// An [`InferenceEngine`] wrapper that injects the faults a [`FaultPlan`]
/// schedules, and otherwise forwards to the wrapped engine unchanged. Also
/// forwards the [`ReplicaEngine`] seam (cache stats, integrity screen), so
/// a faulty replica slots into a `pf-router` tier transparently.
pub struct FaultyEngine<E: InferenceEngine> {
    inner: E,
    plan: FaultPlan,
    corruptor: Option<Corruptor<E::Response>>,
    spikes: AtomicU64,
    stalls: AtomicU64,
    panics: AtomicU64,
    errors: AtomicU64,
    corruptions: AtomicU64,
    drifts: AtomicU64,
}

impl<E: InferenceEngine> fmt::Debug for FaultyEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyEngine")
            .field("plan", &self.plan)
            .field("has_corruptor", &self.corruptor.is_some())
            .field("counts", &self.counts())
            .finish_non_exhaustive()
    }
}

impl<E: InferenceEngine> FaultyEngine<E> {
    /// Wraps `inner` with a fault plan. Without a corruptor hook, payload
    /// corruption faults are counted but leave the payload untouched (the
    /// engine does not know the payload's shape).
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            corruptor: None,
            spikes: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            drifts: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with the empty plan: a pure passthrough.
    pub fn passthrough(inner: E) -> Self {
        Self::new(inner, FaultPlan::none())
    }

    /// Installs the hook that applies [`Corruption`]s to the concrete
    /// response type.
    #[must_use]
    pub fn with_corruptor(
        mut self,
        corruptor: impl Fn(&mut E::Response, Corruption) + Send + Sync + 'static,
    ) -> Self {
        self.corruptor = Some(Arc::new(corruptor));
        self
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The compiled plan this engine injects from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of how many faults of each kind have been injected.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            spikes: self.spikes.load(Ordering::SeqCst),
            stalls: self.stalls.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            corruptions: self.corruptions.load(Ordering::SeqCst),
            drifts: self.drifts.load(Ordering::SeqCst),
        }
    }

    fn corrupt(&self, response: &mut E::Response, corruption: Corruption) {
        if let Some(corruptor) = &self.corruptor {
            corruptor(response, corruption);
        }
    }
}

impl<E: InferenceEngine> InferenceEngine for FaultyEngine<E> {
    type Request = E::Request;
    type Response = E::Response;

    fn infer_batch(
        &self,
        inputs: &[Self::Request],
        seqs: &[u64],
    ) -> Result<Vec<Self::Response>, PfError> {
        let faults: Vec<Option<FaultKind>> = seqs.iter().map(|&s| self.plan.fault_for(s)).collect();

        // Whole-batch faults first: a panicking or erroring engine takes its
        // co-batched peers down with it, exactly as a real replica would.
        if faults.iter().any(|f| matches!(f, Some(FaultKind::Panic))) {
            self.panics.fetch_add(1, Ordering::SeqCst);
            panic!("pf-faults: injected engine panic");
        }
        if faults
            .iter()
            .any(|f| matches!(f, Some(FaultKind::TransientError)))
        {
            self.errors.fetch_add(1, Ordering::SeqCst);
            return Err(PfError::FaultInjected {
                kind: "transient_error",
            });
        }

        // Latency faults: sleep the largest jittered delay once per batch.
        let mut delay_us = 0u64;
        for (i, fault) in faults.iter().enumerate() {
            let micros = match fault {
                Some(FaultKind::LatencySpike { micros }) => {
                    self.spikes.fetch_add(1, Ordering::SeqCst);
                    *micros
                }
                Some(FaultKind::Stall { micros }) => {
                    self.stalls.fetch_add(1, Ordering::SeqCst);
                    *micros
                }
                _ => continue,
            };
            let jittered = (micros as f64 * self.plan.jitter(seqs[i])) as u64;
            delay_us = delay_us.max(jittered);
        }
        if delay_us > 0 {
            std::thread::sleep(Duration::from_micros(delay_us));
        }

        let mut outputs = self.inner.infer_batch(inputs, seqs)?;

        // Per-request payload corruption on the way out.
        for (i, fault) in faults.iter().enumerate() {
            match fault {
                Some(FaultKind::CorruptNan) => {
                    self.corruptions.fetch_add(1, Ordering::SeqCst);
                    self.corrupt(&mut outputs[i], Corruption::Nan);
                }
                Some(FaultKind::CorruptInf) => {
                    self.corruptions.fetch_add(1, Ordering::SeqCst);
                    self.corrupt(&mut outputs[i], Corruption::Inf);
                }
                Some(FaultKind::CalibrationDrift { sigma }) => {
                    self.drifts.fetch_add(1, Ordering::SeqCst);
                    let gain = self.plan.drift_gain(seqs[i], *sigma);
                    self.corrupt(&mut outputs[i], Corruption::Gain(gain));
                }
                _ => {}
            }
        }
        Ok(outputs)
    }
}

impl<E: ReplicaEngine> ReplicaEngine for FaultyEngine<E> {
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn screen(&self, response: &Self::Response) -> bool {
        self.inner.screen(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::FaultWindowSpec;

    /// Echo engine: response = (seq, value).
    #[derive(Debug)]
    struct Echo;

    impl InferenceEngine for Echo {
        type Request = f64;
        type Response = (u64, f64);

        fn infer_batch(&self, inputs: &[f64], seqs: &[u64]) -> Result<Vec<(u64, f64)>, PfError> {
            Ok(seqs.iter().copied().zip(inputs.iter().copied()).collect())
        }
    }

    fn spec(windows: Vec<FaultWindowSpec>) -> FaultsSpec {
        FaultsSpec {
            seed: 7,
            replica: 0,
            windows,
        }
    }

    fn window(kind: &str, from: u64, until: u64, every: u64, magnitude: f64) -> FaultWindowSpec {
        FaultWindowSpec {
            kind: kind.to_string(),
            from_seq: from,
            until_seq: until,
            every,
            magnitude,
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seq() {
        let plan = FaultPlan::from_spec(&spec(vec![
            window("transient_error", 4, 8, 2, 0.0),
            window("corrupt_nan", 6, 10, 1, 0.0),
        ]))
        .unwrap();
        for _ in 0..3 {
            assert_eq!(plan.fault_for(3), None);
            assert_eq!(plan.fault_for(4), Some(FaultKind::TransientError));
            assert_eq!(plan.fault_for(5), None);
            // Overlap: the earlier window wins.
            assert_eq!(plan.fault_for(6), Some(FaultKind::TransientError));
            assert_eq!(plan.fault_for(7), Some(FaultKind::CorruptNan));
            assert_eq!(plan.fault_for(8), Some(FaultKind::CorruptNan));
            assert_eq!(plan.fault_for(10), None);
        }
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::none().fault_for(0).is_none());
    }

    #[test]
    fn transient_error_fails_the_batch_and_counts() {
        let plan =
            FaultPlan::from_spec(&spec(vec![window("transient_error", 1, 2, 1, 0.0)])).unwrap();
        let engine = FaultyEngine::new(Echo, plan);
        assert!(engine.infer_batch(&[1.0], &[0]).is_ok());
        let err = engine.infer_batch(&[1.0, 2.0], &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            PfError::FaultInjected {
                kind: "transient_error"
            }
        );
        assert!(engine.infer_batch(&[1.0], &[2]).is_ok());
        assert_eq!(engine.counts().errors, 1);
        assert_eq!(engine.counts().total(), 1);
    }

    #[test]
    fn panic_fault_panics() {
        let plan = FaultPlan::from_spec(&spec(vec![window("panic", 0, 1, 1, 0.0)])).unwrap();
        let engine = FaultyEngine::new(Echo, plan);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.infer_batch(&[1.0], &[0])
        }));
        assert!(result.is_err());
        assert_eq!(engine.counts().panics, 1);
    }

    #[test]
    fn corruption_goes_through_the_hook_and_drift_is_seeded() {
        let plan = FaultPlan::from_spec(&spec(vec![
            window("corrupt_inf", 0, 1, 1, 0.0),
            window("calibration_drift", 1, 2, 1, 0.25),
        ]))
        .unwrap();
        let run = || {
            let engine = FaultyEngine::new(Echo, plan.clone()).with_corruptor(
                |response: &mut (u64, f64), corruption| match corruption {
                    Corruption::Nan => response.1 = f64::NAN,
                    Corruption::Inf => response.1 = f64::INFINITY,
                    Corruption::Gain(g) => response.1 *= g,
                },
            );
            let out = engine.infer_batch(&[3.0, 3.0, 3.0], &[0, 1, 2]).unwrap();
            (out, engine.counts())
        };
        let (out, counts) = run();
        assert!(out[0].1.is_infinite());
        assert!(
            out[1].1.is_finite() && out[1].1 != 3.0,
            "drift must perturb"
        );
        assert_eq!(out[2].1, 3.0);
        assert_eq!(counts.corruptions, 1);
        assert_eq!(counts.drifts, 1);
        // Bit-identical replay: same plan, same stream, same bits out.
        let (again, counts_again) = run();
        assert_eq!(out[1].1.to_bits(), again[1].1.to_bits());
        assert_eq!(counts, counts_again);
    }

    #[test]
    fn without_a_corruptor_payloads_pass_untouched() {
        let plan = FaultPlan::from_spec(&spec(vec![window("corrupt_nan", 0, 4, 1, 0.0)])).unwrap();
        let engine = FaultyEngine::new(Echo, plan);
        let out = engine.infer_batch(&[5.0], &[0]).unwrap();
        assert_eq!(out[0].1, 5.0);
        assert_eq!(engine.counts().corruptions, 1);
    }

    #[test]
    fn spikes_sleep_but_serve() {
        let plan =
            FaultPlan::from_spec(&spec(vec![window("latency_spike", 0, 1, 1, 100.0)])).unwrap();
        let engine = FaultyEngine::new(Echo, plan);
        let out = engine.infer_batch(&[1.0], &[0]).unwrap();
        assert_eq!(out[0], (0, 1.0));
        assert_eq!(engine.counts().spikes, 1);
    }

    #[test]
    fn passthrough_injects_nothing() {
        let engine = FaultyEngine::passthrough(Echo);
        for seq in 0..64 {
            assert!(engine.infer_batch(&[1.0], &[seq]).is_ok());
        }
        assert_eq!(engine.counts(), FaultCounts::default());
        assert!(engine.plan().is_empty());
    }
}
