//! Facade-level tests of the routing tier: `photofourier::route` over real
//! sessions — model-variant shards, policy placement, deadline accounting,
//! offline bit-identity and self-healing under the committed fault plan
//! through the public API. (The router core's overload/degradation ladder
//! is exercised with gated mock engines in
//! `crates/pf-router/tests/router.rs`.)

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use photofourier::prelude::*;
use photofourier::route::{self, model_scenario, ChaosShard, FaultCounts, ModelRequest};

fn routing_scenario() -> Scenario {
    Scenario::from_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/routing_resnet18.toml"
    ))
    .expect("committed routing scenario loads")
}

fn router_spec(scenario: &Scenario) -> &RouterSpec {
    scenario.serving.as_ref().unwrap().router.as_ref().unwrap()
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 16, 16], 0.0, 1.0, seed)
}

#[test]
fn committed_scenario_builds_a_two_replica_affinity_router() {
    let scenario = routing_scenario();
    let spec = router_spec(&scenario);
    assert_eq!(spec.replicas, 2);
    assert_eq!(spec.policy, "kernel_affinity");
    assert_eq!(
        spec.priority_classes,
        vec!["interactive", "standard", "background"]
    );
    let router = route::route_scenario(scenario).unwrap();
    assert_eq!(router.replica_count(), 2);
    assert_eq!(router.config().policy.name(), "kernel_affinity");
    let stats = router.drain().unwrap();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.replicas.len(), 2);
}

#[test]
fn routed_results_are_bit_identical_to_offline_variant_sessions() {
    let base = routing_scenario();
    // Offline: one fresh session per variant, plain inference (digital
    // backend is deterministic).
    let offline: Vec<Session> = (0..3u64)
        .map(|model| Session::from_scenario(model_scenario(&base, model)).unwrap())
        .collect();

    for policy in ROUTER_POLICIES {
        let mut scenario = base.clone();
        let spec = scenario.serving.as_mut().unwrap().router.as_mut().unwrap();
        spec.policy = policy.to_string();
        let router = route::route_scenario(scenario).unwrap();

        // Three models, several requests each, mixed classes, each with a
        // deadline far beyond any service time.
        let mut expected = Vec::new();
        let mut tickets = Vec::new();
        for k in 0..9u64 {
            let model = k % 3;
            let input = image(100 + k);
            expected.push((model, input.clone()));
            let ticket = router
                .submit(
                    RouterRequest::new(ModelRequest::new(input, model).with_seed(k))
                        .with_class((k % 3) as usize)
                        .with_affinity(model)
                        .with_deadline(Instant::now() + Duration::from_secs(10)),
                )
                .unwrap();
            tickets.push(ticket);
        }
        let served: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        for ((model, input), routed) in expected.iter().zip(&served) {
            assert_eq!(
                &offline[*model as usize].run_inference(input).unwrap(),
                routed,
                "{policy}: model {model} diverged from its offline session"
            );
        }
        // Variants really are different models.
        assert_ne!(served[0], served[1]);

        let stats = router.drain().unwrap();
        assert_eq!(stats.policy, policy);
        assert_eq!(stats.submitted, 9);
        assert_eq!(stats.served(), 9, "{policy}");
        assert_eq!(stats.shed + stats.rejected, 0, "{policy}");
        assert_eq!(stats.deadline_misses, 0, "{policy}");
        let cache = stats.cache();
        assert!(
            cache.hits > 0,
            "{policy}: repeat models must hit the shard cache"
        );
        // Every class saw traffic, and none of it failed, expired or was
        // abandoned.
        for class in &stats.classes {
            assert_eq!(class.served, 3, "{policy}: class {}", class.class);
            assert_eq!(
                (class.failed, class.expired, class.abandoned),
                (0, 0, 0),
                "{policy}: class {}",
                class.class
            );
        }
    }
}

#[test]
fn kernel_affinity_pins_a_model_to_one_replica() {
    let router = route::route_scenario(routing_scenario()).unwrap();
    let mut homes = Vec::new();
    for k in 0..6u64 {
        let model = k % 2;
        let ticket = router
            .submit(RouterRequest::new(ModelRequest::new(image(k), model)).with_affinity(model))
            .unwrap();
        homes.push((model, ticket.replica()));
        ticket.wait().unwrap();
    }
    for model in 0..2u64 {
        let replicas: Vec<usize> = homes
            .iter()
            .filter(|&&(m, _)| m == model)
            .map(|&(_, r)| r)
            .collect();
        assert!(
            replicas.windows(2).all(|w| w[0] == w[1]),
            "model {model} moved between replicas: {replicas:?}"
        );
    }
    router.drain().unwrap();
}

#[test]
fn already_expired_deadlines_are_never_dispatched() {
    let scenario = routing_scenario();
    let router = route::route_scenario(scenario).unwrap();
    let past = Instant::now() - Duration::from_millis(5);
    let ticket = router
        .submit(
            RouterRequest::new(ModelRequest::new(image(1), 0))
                .with_class(2)
                .with_deadline(past),
        )
        .unwrap();
    let err = ticket.wait().unwrap_err();
    assert!(
        matches!(err, PfError::DeadlineExceeded { stage: "queued" }),
        "{err:?}"
    );
    let stats = router.drain().unwrap();
    assert_eq!(stats.class("background").unwrap().expired, 1);
    assert_eq!(stats.served(), 0);
    assert_eq!(stats.deadline_misses, 0);
}

#[test]
fn generous_deadlines_complete_within_them() {
    let router = route::route_scenario(routing_scenario()).unwrap();
    let ticket = router
        .submit(
            RouterRequest::new(ModelRequest::new(image(2), 0))
                .with_deadline(Instant::now() + Duration::from_secs(30)),
        )
        .unwrap();
    ticket.wait_deadline(Duration::from_secs(30)).unwrap();
    let stats = router.drain().unwrap();
    assert_eq!(stats.served(), 1);
    assert_eq!(stats.deadline_misses, 0);
    let interactive = stats.class("interactive").unwrap();
    assert_eq!(interactive.abandoned, 0);
    assert!(interactive.latency.p99_ms > 0.0);
}

#[test]
fn out_of_range_class_is_a_caller_error_not_traffic() {
    let router = route::route_scenario(routing_scenario()).unwrap();
    let err = router
        .submit(RouterRequest::new(ModelRequest::new(image(3), 0)).with_class(7))
        .unwrap_err();
    assert!(matches!(err, PfError::InvalidScenario { .. }), "{err:?}");
    let stats = router.drain().unwrap();
    assert_eq!(stats.submitted, 0, "caller bugs are not traffic");
}

#[test]
fn stochastic_backend_replays_by_request_seed_through_the_tier() {
    let mut scenario = routing_scenario();
    scenario.backend = BackendSpec::photofourier_cg(256);
    scenario.name = "routing_cg".to_string();
    let router = route::route_scenario(scenario.clone()).unwrap();

    let inputs: Vec<Tensor> = (0..2).map(|k| image(200 + k)).collect();
    let tickets: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(k, input)| {
            router
                .submit(
                    RouterRequest::new(ModelRequest::new(input.clone(), 1).with_seed(k as u64))
                        .with_affinity(1),
                )
                .unwrap()
        })
        .collect();
    let served: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    router.drain().unwrap();

    // The routed noise stream is pinned to the request's own seed, so it
    // replays offline on a fresh session of the same variant.
    let offline = Session::from_scenario(model_scenario(&scenario, 1)).unwrap();
    for (k, (input, routed)) in inputs.iter().zip(&served).enumerate() {
        assert_eq!(
            &offline.run_inference_seeded(input, k as u64).unwrap(),
            routed,
            "request {k} did not replay"
        );
    }
}

#[test]
fn retried_requests_replay_bit_identically_through_the_chaos_tier() {
    // A seeded CG backend behind a chaos tier: replica 0 rejects its first
    // four requests with injected transient errors, forcing retries onto
    // the healthy replica. The retried results must still be bit-identical
    // to a fresh offline session, because the replay resubmits the same
    // payload and the noise stream is pinned to the request seed — not to
    // the replica, the attempt count or the wall clock.
    let mut scenario = routing_scenario();
    scenario.backend = BackendSpec::photofourier_cg(256);
    scenario.name = "routing_cg_chaos".to_string();
    scenario.faults = Some(FaultsSpec {
        seed: 11,
        replica: 0,
        windows: vec![FaultWindowSpec {
            kind: "transient_error".to_string(),
            from_seq: 0,
            until_seq: 4,
            every: 1,
            magnitude: 0.0,
        }],
    });
    let (router, shards) = route::chaos_scenario(scenario.clone()).unwrap();

    let inputs: Vec<Tensor> = (0..6u64).map(|k| image(400 + k)).collect();
    let tickets: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(k, input)| {
            router
                .submit_with_retry(
                    RouterRequest::new(ModelRequest::new(input.clone(), 1).with_seed(k as u64))
                        .with_affinity(k as u64 % 2),
                )
                .unwrap()
        })
        .collect();
    let served: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let stats = router.drain().unwrap();

    // Both affinity groups saw traffic, so replica 0 faulted and at least
    // one request was actually re-dispatched before being served.
    assert!(shards[0].counts().errors >= 1, "no fault ever fired");
    assert!(stats.retries >= 1, "faults on replica 0 must force retries");
    assert_eq!(stats.served(), 6);

    let offline = Session::from_scenario(model_scenario(&scenario, 1)).unwrap();
    for (k, (input, routed)) in inputs.iter().zip(&served).enumerate() {
        assert_eq!(
            &offline.run_inference_seeded(input, k as u64).unwrap(),
            routed,
            "request {k} did not replay bit-identically after retry"
        );
    }
}

/// Tickets the chaos driver keeps in flight.
const CHAOS_IN_FLIGHT: usize = 4;

/// The chaos run's latency objective: the highest class's p99 end-to-end
/// latency under faults, in milliseconds (a request takes about 1 ms in a
/// release build).
const CHAOS_SLO_P99_MS: f64 = 250.0;

/// Drives `scenario` through a fresh chaos tier: 96 arrivals in runs of
/// six per model, across the three classes (a quarter interactive, half
/// standard, a quarter background), submitted with retry from one thread
/// through a FIFO window of [`CHAOS_IN_FLIGHT`] tickets. Every arrival must
/// be admitted and served. Returns the router's accounting and each
/// replica's injected-fault counts.
fn chaos_run(scenario: &Scenario) -> (RouterStats, Vec<FaultCounts>) {
    let (router, shards) = route::chaos_scenario(scenario.clone()).unwrap();
    let models = router_spec(scenario).models as u64;
    let mut pending: VecDeque<RouterTicket<'_, ChaosShard>> = VecDeque::new();
    for k in 0..96u64 {
        if pending.len() == CHAOS_IN_FLIGHT {
            let ticket = pending.pop_front().unwrap();
            ticket.wait().expect("retries absorb every injected fault");
        }
        let model = (k / 6) % models;
        let request = RouterRequest::new(ModelRequest::new(image(k), model).with_seed(k))
            .with_class([0, 1, 1, 2][k as usize % 4])
            .with_affinity(model);
        let ticket = router
            .submit_with_retry(request)
            .expect("the chaos tier admits every arrival");
        pending.push_back(ticket);
    }
    for ticket in pending {
        ticket.wait().expect("retries absorb every injected fault");
    }
    let stats = router.drain().unwrap();
    (stats, shards.iter().map(|shard| shard.counts()).collect())
}

#[test]
fn chaos_tier_heals_every_injected_fault_and_replays_its_counts() {
    let scenario = Scenario::from_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/chaos_resnet18.toml"
    ))
    .expect("committed chaos scenario loads");
    let fault_replica = scenario.faults.as_ref().unwrap().replica;

    let (stats, faults) = chaos_run(&scenario);
    assert_eq!(stats.served(), 96);
    assert_eq!((stats.shed, stats.rejected), (0, 0));
    for class in &stats.classes {
        assert_eq!(class.failed, 0, "class {}", class.class);
    }
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.shed + stats.rejected
    );

    // Every window of the committed plan fires, each as often as its
    // sequence range allows: a window that stops firing fails here.
    assert_eq!(
        faults[fault_replica],
        FaultCounts {
            spikes: 3,
            stalls: 0,
            panics: 1,
            errors: 6,
            corruptions: 2,
            drifts: 0,
        },
        "the fault plan's windows did not fire as scheduled"
    );
    assert!(
        stats.integrity_rejects >= 1,
        "injected corruption was served past the integrity screen"
    );
    assert!(
        stats.retries >= 1,
        "no retries under an injected-fault plan"
    );
    assert!(
        stats.quarantined >= 1,
        "the flapping replica was never quarantined"
    );
    assert!(
        stats.breaker_transitions >= 3,
        "closed -> open -> half-open -> closed never completed ({} transitions)",
        stats.breaker_transitions
    );
    assert_eq!(
        stats.replicas[fault_replica].health.state, "closed",
        "the fault replica was never re-admitted"
    );
    // The SLO is a wall-clock reading: held in release builds (CI runs this
    // test there too), where a request takes about 1 ms, not in debug ones,
    // where one VM stall could set the 24-sample p99 on its own.
    if !cfg!(debug_assertions) {
        let highest = &stats.classes[0];
        assert!(
            highest.latency.p99_ms <= CHAOS_SLO_P99_MS,
            "highest-class p99 {:.3} ms exceeds the {CHAOS_SLO_P99_MS} ms SLO under faults",
            highest.latency.p99_ms
        );
    }

    // The fault plan keys on each replica's request sequence numbers and
    // the breaker on counts, never on the clock: a second fresh tier
    // replays every deterministic-event count.
    let counts = |stats: &RouterStats| {
        [
            stats.retries,
            stats.breaker_transitions,
            stats.quarantined,
            stats.integrity_rejects,
        ]
    };
    let (replay, replay_faults) = chaos_run(&scenario);
    assert_eq!(replay_faults, faults, "injected faults diverged on replay");
    assert_eq!(
        counts(&replay),
        counts(&stats),
        "retries / transitions / quarantines / integrity rejects diverged on replay"
    );
}

#[test]
fn drain_resolves_every_outstanding_ticket() {
    let router = route::route_scenario(routing_scenario()).unwrap();
    // Submit from several threads, wait on none of them before draining.
    // Detaching trades the retry/health machinery (which borrows the
    // router) for a raw replica ticket that can outlive the drain.
    let tickets: Vec<_> = std::thread::scope(|scope| {
        let router = &router;
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                scope.spawn(move || {
                    router
                        .submit(
                            RouterRequest::new(ModelRequest::new(image(300 + k), k % 3))
                                .with_affinity(k % 3),
                        )
                        .unwrap()
                        .detach()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Drain stops admissions and resolves everything already admitted.
    let stats = router.drain().unwrap();
    assert_eq!(stats.admitted, 4);
    // Every ticket resolves (already fulfilled by the drain).
    for ticket in tickets {
        ticket.wait().unwrap();
    }
}
