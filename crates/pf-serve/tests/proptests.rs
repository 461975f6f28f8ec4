//! Property tests of fault containment: an engine that panics or returns
//! errors — at any batch size, worker count or fault cadence — must never
//! leave a ticket unresolved or kill a worker thread. Every submitted
//! request resolves (served or with a typed error), and shutdown still
//! joins every worker cleanly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pf_core::PfError;
use pf_serve::{InferenceEngine, ServeConfig, Server};
use proptest::prelude::*;

/// Doubles inputs, but panics on every `panic_every`-th batch and errors
/// on every `error_every`-th (0 disables a fault). The two cadences are
/// checked against a shared batch counter, so any mix of healthy, erroring
/// and panicking batches can occur in one run.
#[derive(Debug)]
struct HostileEngine {
    batches: AtomicU64,
    panic_every: u64,
    error_every: u64,
}

impl InferenceEngine for HostileEngine {
    type Request = f64;
    type Response = f64;

    fn infer_batch(&self, inputs: &[f64], _seqs: &[u64]) -> Result<Vec<f64>, PfError> {
        let n = self.batches.fetch_add(1, Ordering::Relaxed);
        if self.panic_every > 0 && n.is_multiple_of(self.panic_every) {
            panic!("proptest: hostile engine panicking on batch {n}");
        }
        if self.error_every > 0 && n % self.error_every == 1 {
            return Err(PfError::FaultInjected {
                kind: "transient_error",
            });
        }
        Ok(inputs.iter().map(|x| x * 2.0).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_engines_leave_no_ticket_unresolved(
        max_batch in 1usize..=4,
        workers in 1usize..=2,
        requests in 1usize..=24,
        panic_every in 0u64..=3,
        error_every in 0u64..=3,
    ) {
        let server = Server::new(
            HostileEngine {
                batches: AtomicU64::new(0),
                panic_every,
                error_every,
            },
            ServeConfig {
                max_batch,
                batch_timeout: Duration::ZERO,
                queue_depth: 64,
                workers,
            },
        ).unwrap();

        let tickets: Vec<_> = (0..requests)
            .map(|i| server.submit(i as f64).unwrap())
            .collect();

        // Every ticket resolves: a served double, or a typed error from
        // the failed batch (engine panics are caught per batch and
        // surfaced as errors, never as hangs).
        let mut served = 0u64;
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Ok(v) => {
                    prop_assert_eq!(v, i as f64 * 2.0);
                    served += 1;
                }
                Err(PfError::FaultInjected { .. }) | Err(PfError::InvalidScenario { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error: {}", e),
            }
        }

        // Injected engine faults never take a worker thread down, so
        // shutdown joins everything and the accounting closes.
        let stats = server.shutdown().unwrap();
        prop_assert_eq!(stats.submitted, requests as u64);
        prop_assert_eq!(stats.served, served);
        prop_assert_eq!(stats.served + stats.failed, requests as u64);
    }
}
