//! Server configuration.

use std::time::Duration;

use pf_core::{PfError, ServingSpec};

/// A measured parallel-scaling data point for the engine behind a server:
/// how much faster one engine call runs on a `pool_threads`-wide rayon pool
/// than on one thread. Produced by a calibration run (the facade's
/// `serve::measured_scaling_hint`) or copied from a thread-sweep report
/// (`perf --threads-sweep`, the `threads.curve` records); consumed by
/// [`ServeConfig::effective_workers`] to size the worker pool from the
/// engine's *measured* parallel benefit instead of assuming every engine
/// call saturates the whole pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingHint {
    /// Rayon pool width the speedup was measured at.
    pub pool_threads: usize,
    /// Measured speedup of one engine call at that width over one thread
    /// (`>= 1.0`; values below 1 are treated as 1 — parallelism that loses
    /// outright consumes one thread's worth of host).
    pub speedup: f64,
}

impl ScalingHint {
    /// How many host threads one engine call effectively occupies: the
    /// measured speedup, clamped to `[1, pool_threads]` and rounded up. An
    /// engine reaching 3.2x on a 4-wide pool occupies 4 threads' worth of
    /// host; one reaching 1.3x occupies 2 — the remaining cores are better
    /// spent on more concurrent batches.
    pub fn effective_width(&self) -> usize {
        let ceiling = self.pool_threads.max(1) as f64;
        self.speedup.clamp(1.0, ceiling).ceil() as usize
    }
}

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
    /// partial batch. `Duration::ZERO` dispatches whatever is queued the
    /// moment a worker picks work up — lowest latency, smallest batches.
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
    /// Measured parallel-scaling hint for the engine, if a calibration ran.
    /// Only consulted by auto-sizing (`workers == 0`); carries no
    /// declarative form — the `[serving]` scenario section describes
    /// intent, a hint describes a measurement — so [`ServeConfig::to_spec`]
    /// drops it and [`ServeConfig::from_spec`] starts without one.
    pub scaling_hint: Option<ScalingHint>,
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
            scaling_hint: None,
        }
    }

    /// Attaches a measured scaling hint (see [`ScalingHint`]).
    pub fn with_scaling_hint(mut self, hint: ScalingHint) -> Self {
        self.scaling_hint = Some(hint);
        self
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
    /// oversubscribing it. Without a [`ScalingHint`] that means assuming
    /// each dispatched batch saturates the pool: `host_threads /
    /// rayon_threads` workers (at least one) keeps `workers x rayon_threads
    /// <= host_threads`. With a hint the divisor is the engine's *measured*
    /// [`ScalingHint::effective_width`] — an engine whose batches only
    /// reach, say, 1.3x on the pool occupies ~2 threads' worth of host, so
    /// more workers fit before anything actually contends. The hint-based
    /// sizing is what the scaling curves of a thread-sweep report feed
    /// (see `docs/PERFORMANCE.md`, "Reading the scaling curves").
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let per_batch_width = match self.scaling_hint {
            Some(hint) => hint.effective_width(),
            None => rayon::current_num_threads(),
        };
        (host / per_batch_width.max(1)).max(1)
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

    #[test]
    fn scaling_hint_effective_width_clamps_and_rounds_up() {
        // 1.3x on a 4-wide pool: the pool only really uses ~2 threads.
        let weak = ScalingHint {
            pool_threads: 4,
            speedup: 1.3,
        };
        assert_eq!(weak.effective_width(), 2);
        // 3.2x: rounds up to the full pool.
        let strong = ScalingHint {
            pool_threads: 4,
            speedup: 3.2,
        };
        assert_eq!(strong.effective_width(), 4);
        // Sub-1x measurements (parallelism lost) still occupy one thread.
        let losing = ScalingHint {
            pool_threads: 4,
            speedup: 0.7,
        };
        assert_eq!(losing.effective_width(), 1);
        // The speedup can never claim more than the pool width.
        let impossible = ScalingHint {
            pool_threads: 2,
            speedup: 9.0,
        };
        assert_eq!(impossible.effective_width(), 2);
    }

    #[test]
    fn scaling_hint_redirects_auto_sizing() {
        let host = std::thread::available_parallelism().unwrap().get();
        // Auto-sizing only runs for `workers: 0`; the default spec pins one
        // worker, which would bypass the hint on every multi-core host.
        let auto = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        // A perfectly-scaling engine on a host-wide pool: one worker.
        let saturating = auto.with_scaling_hint(ScalingHint {
            pool_threads: host,
            speedup: host as f64,
        });
        assert_eq!(saturating.effective_workers(), 1.max(host / host));
        // An engine that gains nothing from its pool: one worker per host
        // thread — batch-level concurrency is the only parallelism left.
        let flat = auto.with_scaling_hint(ScalingHint {
            pool_threads: host,
            speedup: 1.0,
        });
        assert_eq!(flat.effective_workers(), host);
        // Hints never override an explicit worker count.
        let explicit = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        }
        .with_scaling_hint(ScalingHint {
            pool_threads: 4,
            speedup: 4.0,
        });
        assert_eq!(explicit.effective_workers(), 3);
        // from_spec starts hint-less and to_spec drops the hint (it is a
        // measurement, not declarative intent).
        assert!(ServeConfig::from_spec(&ServingSpec::default())
            .scaling_hint
            .is_none());
        assert_eq!(flat.to_spec(), auto.to_spec());
    }
}
