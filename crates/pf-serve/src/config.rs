//! Server configuration.

use std::time::Duration;

use pf_core::{PfError, ServingSpec};

/// Configuration of a [`crate::Server`].
///
/// The serde-facing twin of this type is [`pf_core::ServingSpec`] (the
/// `[serving]` section of a scenario file); [`ServeConfig::from_spec`]
/// converts between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Largest micro-batch the batcher dispatches in one engine call.
    pub max_batch: usize,
    /// How long the batcher waits for more requests before dispatching a
    /// partial batch, counted from the admission of the batch's oldest
    /// request; a worker wakes at that deadline (its timer slack is 1 ns).
    /// A request that already waited this long behind a busy worker is
    /// dispatched as soon as a worker picks it up. `Duration::ZERO`
    /// dispatches whatever is queued the moment a worker picks work up —
    /// lowest latency, smallest batches.
    pub batch_timeout: Duration,
    /// Bounded queue depth: a request submitted while this many are already
    /// waiting is rejected with [`PfError::Overloaded`]. This is the
    /// server's only admission control — make it explicit in capacity
    /// planning rather than letting the queue grow without bound.
    pub queue_depth: usize,
    /// Number of batcher/dispatch worker threads. Each worker forms and
    /// dispatches its own micro-batches; more workers overlap engine calls
    /// at the cost of competing for the engine's internal parallelism.
    ///
    /// `0` auto-sizes the pool to compose with rayon's global pool rather
    /// than oversubscribe it — see [`ServeConfig::effective_workers`]. An
    /// explicit value is taken as-is (the operator may deliberately
    /// oversubscribe, e.g. when the engine blocks on I/O).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_spec(&ServingSpec::default())
    }
}

impl ServeConfig {
    /// Builds the config from its declarative scenario form. The
    /// `[serving.router]` section, if any, belongs to the routing tier and
    /// is not part of a single server's config.
    pub fn from_spec(spec: &ServingSpec) -> Self {
        Self {
            max_batch: spec.max_batch,
            batch_timeout: Duration::from_micros(spec.batch_timeout_us),
            queue_depth: spec.queue_depth,
            workers: spec.workers,
        }
    }

    /// The declarative scenario form of this config (inverse of
    /// [`ServeConfig::from_spec`], up to sub-microsecond timeout
    /// truncation), with no router section.
    pub fn to_spec(&self) -> ServingSpec {
        ServingSpec {
            max_batch: self.max_batch,
            batch_timeout_us: self.batch_timeout.as_micros() as u64,
            queue_depth: self.queue_depth,
            workers: self.workers,
            router: None,
        }
    }

    /// The worker-thread count a server actually starts.
    ///
    /// An explicit `workers` value is returned unchanged. `workers == 0`
    /// auto-sizes so that the server composes with rayon's pool instead of
    /// oversubscribing it, assuming each dispatched batch saturates the
    /// pool: `host_threads / rayon_threads` workers (at least one) keeps
    /// `workers x rayon_threads <= host_threads`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (host / rayon::current_num_threads().max(1)).max(1)
    }

    /// Checks the configuration's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PfError> {
        // One source of truth for the constraints: the scenario spec.
        self.to_spec().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_the_spec_defaults() {
        let config = ServeConfig::default();
        config.validate().unwrap();
        assert_eq!(config, ServeConfig::from_spec(&ServingSpec::default()));
        assert_eq!(config.batch_timeout, Duration::from_micros(2_000));
        // to_spec is from_spec's inverse.
        assert_eq!(config.to_spec(), ServingSpec::default());
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for break_it in [
            (|c: &mut ServeConfig| c.max_batch = 0) as fn(&mut ServeConfig),
            |c| c.queue_depth = 0,
        ] {
            let mut config = ServeConfig::default();
            break_it(&mut config);
            assert!(config.validate().is_err());
        }
        // A zero batch timeout is legal: immediate dispatch.
        let config = ServeConfig {
            batch_timeout: Duration::ZERO,
            ..ServeConfig::default()
        };
        config.validate().unwrap();
    }

    #[test]
    fn zero_workers_auto_sizes_against_rayon() {
        let config = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        // Auto-sizing is valid config, resolves to >= 1, and never
        // oversubscribes: workers x rayon threads <= host threads (unless
        // rayon alone already exceeds the host).
        config.validate().unwrap();
        let workers = config.effective_workers();
        assert!(workers >= 1);
        let host = std::thread::available_parallelism().unwrap().get();
        let rayon_threads = rayon::current_num_threads().max(1);
        if rayon_threads <= host {
            assert!(workers * rayon_threads <= host);
        }

        // An explicit count is never second-guessed.
        let explicit = ServeConfig {
            workers: 7,
            ..ServeConfig::default()
        };
        assert_eq!(explicit.effective_workers(), 7);
    }
}
