//! Property tests of the self-healing tier: whatever failure budget a
//! replica burns, [`Router::submit_with_retry`] must leave no
//! `RouterTicket` unresolved, keep the admission invariant intact, and —
//! as long as one replica stays healthy — serve every request.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use pf_core::PfError;
use pf_router::{Policy, ReplicaEngine, Router, RouterConfig, RouterRequest};
use pf_serve::{InferenceEngine, ServeConfig};
use proptest::prelude::*;

/// Replica 0 fails its first `budget` requests with a typed fault; every
/// other replica (and replica 0 afterwards) echoes the doubled input.
#[derive(Debug)]
struct FlakyShard {
    replica: usize,
    budget: AtomicI64,
}

impl InferenceEngine for FlakyShard {
    type Request = f64;
    type Response = (usize, f64);

    fn infer_batch(&self, inputs: &[f64], _seqs: &[u64]) -> Result<Vec<(usize, f64)>, PfError> {
        if self.replica == 0
            && self
                .budget
                .fetch_sub(inputs.len() as i64, Ordering::Relaxed)
                > 0
        {
            return Err(PfError::FaultInjected {
                kind: "transient_error",
            });
        }
        Ok(inputs.iter().map(|&v| (self.replica, v * 2.0)).collect())
    }
}

impl ReplicaEngine for FlakyShard {}

fn config(replicas: usize) -> RouterConfig {
    RouterConfig {
        serve: ServeConfig {
            max_batch: 1,
            batch_timeout: Duration::ZERO,
            queue_depth: 64,
            workers: 1,
        },
        replicas,
        policy: Policy::RoundRobin,
        priority_classes: vec!["only".to_string()],
        shed_at: 0.95,
        shrink_at: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn retries_resolve_every_ticket_and_keep_the_invariant(
        replicas in 2usize..=3,
        requests in 1usize..=20,
        budget in 0i64..=12,
    ) {
        let router = Router::new(config(replicas), |replica| {
            Ok(FlakyShard {
                replica,
                budget: AtomicI64::new(budget),
            })
        }).unwrap();

        let tickets: Vec<_> = (0..requests)
            .map(|i| {
                router
                    .submit_with_retry(RouterRequest::new(i as f64))
                    .unwrap()
            })
            .collect();

        // One replica always stays healthy, so with retries enabled every
        // ticket must come back served — and doubled.
        for (i, ticket) in tickets.into_iter().enumerate() {
            let (_, doubled) = ticket.wait().unwrap();
            prop_assert_eq!(doubled, i as f64 * 2.0);
        }

        let stats = router.drain().unwrap();
        prop_assert_eq!(stats.submitted, stats.admitted + stats.shed + stats.rejected);
        prop_assert_eq!(stats.admitted, requests as u64);
        prop_assert_eq!(stats.served(), requests as u64);
        // Retries count dispatch work, never admissions.
        let dispatched: u64 = stats.replicas.iter().map(|r| r.dispatched).sum();
        prop_assert_eq!(dispatched, stats.admitted + stats.retries);
        if budget > 0 {
            // Replica 0 failed at least its first dispatch, so at least
            // one retry must have happened for everything to be served.
            prop_assert!(stats.retries >= 1);
        }
    }
}
