//! Multi-replica SLO-aware serving tier above `pf-serve`.
//!
//! The multi-socket scale-out lesson applies to the photonic accelerator's
//! serving layer too: placement and per-shard locality dominate behavior.
//! Here a "shard" is one `pf-serve` server with its own session and its
//! model's layers lowered, and routing policy directly determines how often
//! a request's model finds its kernel spectra already resident — so the router
//! measures everything and lets the recorded p99 judge the policy.
//!
//! * [`Router`] — owns N replica [`pf_serve::Server`]s built by an engine
//!   factory; [`Router::submit`] admits a [`RouterRequest`] (payload +
//!   priority class + affinity key + optional deadline) and returns a
//!   [`RouterTicket`];
//! * [`Policy`] — `round_robin`, `least_loaded`, or `kernel_affinity`
//!   (consistent hashing of the model key onto the replica ring);
//! * graceful degradation under overload, in stages: shrink the
//!   batch-formation windows, shed the lowest priority class
//!   ([`pf_core::PfError::Shed`]), spill past full replicas, and reject
//!   ([`pf_core::PfError::Overloaded`]) only when every queue is full;
//! * [`RouterStats`] — per-class and per-replica rollups (p50/p95/p99,
//!   deadline-miss rate, shed/reject/spill counts, model-cache hit rates
//!   via [`ReplicaEngine::cache_stats`]);
//! * [`Router::drain`] resolves every outstanding ticket deterministically
//!   before returning the final stats;
//! * self-healing: a per-replica failure streak driving a closed → open →
//!   half-open circuit breaker with quarantine and re-admission probes
//!   ([`BreakerState`]),
//!   deadline-aware retry with jittered exponential backoff for
//!   idempotent requests ([`Router::submit_with_retry`]), and a NaN/Inf
//!   integrity screen ([`ReplicaEngine::screen`]).
//!
//! The crate is payload-generic (it inherits `pf-serve`'s engine
//! abstraction); the `photofourier` facade supplies the model-shard engine
//! that makes affinity routing measurable and re-exports this crate as
//! `photofourier::route`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod health;
pub mod policy;
pub mod router;
pub mod stats;

pub use health::{BreakerState, ReplicaHealthReport};
pub use policy::Policy;
pub use router::{ReplicaEngine, Router, RouterConfig, RouterRequest, RouterTicket};
pub use stats::{CacheStats, ClassStats, ReplicaRollup, RouterStats};
