//! Behavioural tests of the routing tier against mock replica engines,
//! mirroring `pf-serve`'s gated-engine style: a gate blocks replicas
//! inside `infer_batch` so the tests control queue pressure exactly when
//! asserting the degradation ladder (shrink → shed → spill → reject).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pf_core::PfError;
use pf_router::{CacheStats, Policy, ReplicaEngine, Router, RouterConfig, RouterRequest};
use pf_serve::{InferenceEngine, ServeConfig};

/// Echo engine that remembers which replica it is and which affinity keys
/// it served; emulates a model-session LRU of size 1 for cache stats.
#[derive(Debug)]
struct ShardEngine {
    replica: usize,
    resident: Mutex<Option<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    served: AtomicU64,
}

impl ShardEngine {
    fn new(replica: usize) -> Self {
        Self {
            replica,
            resident: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }
}

impl InferenceEngine for ShardEngine {
    /// `(model key, value)`.
    type Request = (u64, f64);
    type Response = (usize, f64);

    fn infer_batch(
        &self,
        inputs: &[(u64, f64)],
        _seqs: &[u64],
    ) -> Result<Vec<(usize, f64)>, PfError> {
        let mut out = Vec::with_capacity(inputs.len());
        for &(model, value) in inputs {
            let mut resident = self.resident.lock();
            if *resident == Some(model) {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *resident = Some(model);
            }
            self.served.fetch_add(1, Ordering::Relaxed);
            out.push((self.replica, value * 2.0));
        }
        Ok(out)
    }
}

impl ReplicaEngine for ShardEngine {
    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Gate shared by every replica of a router: each `infer_batch` call
/// announces itself, then blocks until granted.
#[derive(Debug)]
struct Gate {
    entered: Mutex<mpsc::Sender<(usize, usize)>>,
    permits: Mutex<usize>,
    released: Condvar,
}

impl Gate {
    fn new() -> (Arc<Self>, mpsc::Receiver<(usize, usize)>) {
        let (tx, rx) = mpsc::channel();
        (
            Arc::new(Self {
                entered: Mutex::new(tx),
                permits: Mutex::new(0),
                released: Condvar::new(),
            }),
            rx,
        )
    }

    fn grant(&self, permits: usize) {
        *self.permits.lock() += permits;
        self.released.notify_all();
    }

    fn open(&self) {
        *self.permits.lock() += usize::MAX / 2;
        self.released.notify_all();
    }
}

/// Replica engine gated on the shared [`Gate`].
#[derive(Debug)]
struct GatedShard {
    replica: usize,
    gate: Arc<Gate>,
}

impl InferenceEngine for GatedShard {
    type Request = (u64, f64);
    type Response = (usize, f64);

    fn infer_batch(
        &self,
        inputs: &[(u64, f64)],
        _seqs: &[u64],
    ) -> Result<Vec<(usize, f64)>, PfError> {
        self.gate
            .entered
            .lock()
            .send((self.replica, inputs.len()))
            .expect("test alive");
        let mut permits = self.gate.permits.lock();
        while *permits == 0 {
            permits = self.gate.released.wait(permits);
        }
        *permits -= 1;
        drop(permits);
        Ok(inputs.iter().map(|&(_, v)| (self.replica, v)).collect())
    }
}

impl ReplicaEngine for GatedShard {}

fn config(policy: Policy, replicas: usize, queue_depth: usize) -> RouterConfig {
    RouterConfig {
        serve: ServeConfig {
            max_batch: 1,
            batch_timeout: Duration::ZERO,
            queue_depth,
            workers: 1,
        },
        replicas,
        policy,
        priority_classes: vec![
            "interactive".to_string(),
            "standard".to_string(),
            "background".to_string(),
        ],
        shed_at: 0.75,
        shrink_at: 0.5,
    }
}

#[test]
fn round_trip_over_replicas_and_drain_resolves_everything() {
    let router = Router::new(config(Policy::RoundRobin, 3, 64), |i| {
        Ok(ShardEngine::new(i))
    })
    .unwrap();
    let tickets: Vec<_> = (0..30)
        .map(|i| {
            router
                .submit(RouterRequest::new((i % 4, i as f64)).with_affinity(i % 4))
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let (_, doubled) = ticket.wait().unwrap();
        assert_eq!(doubled, i as f64 * 2.0);
    }
    let stats = router.drain().unwrap();
    assert_eq!(stats.admitted, 30);
    assert_eq!(stats.served(), 30);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.deadline_misses, 0);
    // Round-robin touched every replica.
    for rollup in &stats.replicas {
        assert!(rollup.dispatched > 0, "replica {} idle", rollup.replica);
        assert_eq!(rollup.server.served, rollup.dispatched);
    }
    let total: u64 = stats.replicas.iter().map(|r| r.dispatched).sum();
    assert_eq!(total, 30);
}

#[test]
fn kernel_affinity_beats_round_robin_on_cache_hits() {
    // 4 models, 2 replicas, per-replica LRU of ONE resident model: affinity
    // pins each model to its home replica (2 models per replica alternate
    // but requests for one model arrive consecutively per replica), while
    // round-robin interleaves models across replicas and thrashes.
    let run = |policy: Policy| {
        let mut cfg = config(policy, 2, 256);
        cfg.serve.max_batch = 1;
        let router = Router::new(cfg, |i| Ok(ShardEngine::new(i))).unwrap();
        // One model's requests arrive in runs, like a real trace with
        // temporal locality.
        let mut tickets = Vec::new();
        for round in 0..16u64 {
            let model = round % 4;
            for v in 0..8u64 {
                tickets.push(
                    router
                        .submit(RouterRequest::new((model, v as f64)).with_affinity(model))
                        .unwrap(),
                );
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        router.drain().unwrap()
    };

    let affinity = run(Policy::KernelAffinity);
    let round_robin = run(Policy::RoundRobin);
    assert!(
        affinity.cache().hit_rate() > round_robin.cache().hit_rate(),
        "affinity {:?} should beat round-robin {:?}",
        affinity.cache(),
        round_robin.cache()
    );
    // Affinity keeps each model on one replica, so within-run requests hit.
    assert!(affinity.cache().hit_rate() > 0.8, "{:?}", affinity.cache());
}

#[test]
fn least_loaded_prefers_the_empty_replica() {
    let (gate, entered) = Gate::new();
    let router = Router::new(config(Policy::LeastLoaded, 2, 8), |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    // Empty queues tie to replica 0; its worker takes the request off the
    // queue (we see it enter the engine) and blocks.
    let t0 = router.submit(RouterRequest::new((0, 0.0))).unwrap();
    assert_eq!(entered.recv().unwrap().0, 0);
    // Queues are both empty again (the request is in flight, not queued),
    // so the tie again picks replica 0 — this one stays queued behind the
    // blocked worker...
    let q1 = router.submit(RouterRequest::new((0, 1.0))).unwrap();
    // ...which makes replica 1 the less-loaded choice for the next one.
    let q2 = router.submit(RouterRequest::new((0, 2.0))).unwrap();
    assert_eq!(
        entered.recv().unwrap().0,
        1,
        "least loaded avoided the backlog"
    );

    gate.open();
    t0.wait().unwrap();
    q1.wait().unwrap();
    q2.wait().unwrap();
    let stats = router.drain().unwrap();
    assert_eq!(stats.replicas[0].dispatched, 2);
    assert_eq!(stats.replicas[1].dispatched, 1);
}

#[test]
fn affinity_spills_past_a_full_home_replica() {
    let (gate, entered) = Gate::new();
    // Single class: shedding never applies; queue_depth 2 per replica.
    let mut cfg = config(Policy::KernelAffinity, 2, 2);
    cfg.priority_classes = vec!["only".to_string()];
    let router = Router::new(cfg, |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    // Every request carries the same model key, so they all target the
    // key's home replica until it fills.
    let t1 = router
        .submit(RouterRequest::new((7, 1.0)).with_affinity(7))
        .unwrap();
    let (home, _) = entered.recv().unwrap();
    let t2 = router
        .submit(RouterRequest::new((7, 2.0)).with_affinity(7))
        .unwrap();
    let t3 = router
        .submit(RouterRequest::new((7, 3.0)).with_affinity(7))
        .unwrap();
    // Home's queue is now full (2/2): the next admission spills to the
    // ring successor instead of rejecting.
    let t4 = router
        .submit(RouterRequest::new((7, 4.0)).with_affinity(7))
        .unwrap();
    let (spill_target, _) = entered.recv().unwrap();
    assert_ne!(spill_target, home, "spilled off the full home replica");
    assert_eq!(t4.replica(), spill_target);

    gate.open();
    for t in [t1, t2, t3, t4] {
        t.wait().unwrap();
    }
    let stats = router.drain().unwrap();
    assert_eq!(stats.spills, 1);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.replicas[home].dispatched, 3);
    assert_eq!(stats.replicas[spill_target].dispatched, 1);
}

#[test]
fn shed_hits_only_the_lowest_class_and_spill_precedes_reject() {
    let (gate, entered) = Gate::new();
    // 2 replicas x queue_depth 4 = capacity 8; shed_at 0.75 -> 6 queued.
    let router = Router::new(config(Policy::RoundRobin, 2, 4), |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    // Block both workers so every further submission stays queued.
    let blockers: Vec<_> = (0..2)
        .map(|i| {
            router
                .submit(RouterRequest::new((0, i as f64)).with_class(2))
                .unwrap()
        })
        .collect();
    entered.recv().unwrap();
    entered.recv().unwrap();

    // Fill to exactly shed_at pressure (6 of 8 slots): all classes admitted
    // below the threshold.
    let queued: Vec<_> = (0..6)
        .map(|i| {
            router
                .submit(RouterRequest::new((0, 10.0 + i as f64)).with_class(i % 3))
                .unwrap()
        })
        .collect();
    assert!(router.queue_pressure() >= 0.75);
    assert!(router.windows_shrunk(), "stage 1 engaged before stage 2");

    // Stage 2: lowest class is shed; higher classes are still admitted
    // (spilling past any full replica — stage 3).
    match router.submit(RouterRequest::new((0, 90.0)).with_class(2)) {
        Err(PfError::Shed { class }) => assert_eq!(class, "background"),
        other => panic!("expected Shed, got {other:?}"),
    }
    let high1 = router
        .submit(RouterRequest::new((0, 91.0)).with_class(0))
        .unwrap();
    let high2 = router
        .submit(RouterRequest::new((0, 92.0)).with_class(1))
        .unwrap();

    // Stage 4: every queue is now full (8/8); even the highest class is
    // rejected — with Overloaded, not Shed.
    assert_eq!(router.queue_pressure(), 1.0);
    match router.submit(RouterRequest::new((0, 93.0)).with_class(0)) {
        Err(PfError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    gate.open();
    for t in blockers {
        t.wait().unwrap();
    }
    for t in queued {
        t.wait().unwrap();
    }
    high1.wait().unwrap();
    high2.wait().unwrap();

    let stats = router.drain().unwrap();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.window_shrinks, 1);
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.shed + stats.rejected
    );
    let background = stats.class("background").unwrap();
    assert_eq!(background.shed, 1, "only the lowest class was shed");
    assert_eq!(stats.class("interactive").unwrap().shed, 0);
    assert_eq!(stats.class("standard").unwrap().shed, 0);
}

#[test]
fn expired_requests_are_never_dispatched_and_counted_per_class() {
    let (gate, entered) = Gate::new();
    let router = Router::new(config(Policy::RoundRobin, 2, 16), |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    // Block both workers, then queue a request whose deadline has passed.
    let blockers: Vec<_> = (0..2)
        .map(|i| router.submit(RouterRequest::new((0, i as f64))).unwrap())
        .collect();
    entered.recv().unwrap();
    entered.recv().unwrap();
    let doomed = router
        .submit(
            RouterRequest::new((0, 99.0))
                .with_class(1)
                .with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap();

    gate.open();
    match doomed.wait() {
        Err(PfError::DeadlineExceeded { stage }) => assert_eq!(stage, "queued"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    for t in blockers {
        t.wait().unwrap();
    }
    let stats = router.drain().unwrap();
    assert_eq!(stats.class("standard").unwrap().expired, 1);
    assert_eq!(stats.served(), 2);
    assert_eq!(
        stats.deadline_misses, 0,
        "an expired request never completes"
    );
    // The replica servers agree: one expired, none failed.
    let expired: u64 = stats.replicas.iter().map(|r| r.server.expired).sum();
    let failed: u64 = stats.replicas.iter().map(|r| r.server.failed).sum();
    assert_eq!(expired, 1);
    assert_eq!(failed, 0);
}

#[test]
fn abandoned_tickets_and_deadline_misses_are_distinct() {
    let (gate, entered) = Gate::new();
    let router = Router::new(config(Policy::RoundRobin, 1, 16), |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    // Occupy the worker.
    let blocker = router.submit(RouterRequest::new((0, 0.0))).unwrap();
    entered.recv().unwrap();

    // Abandon a queued request from the caller side.
    let abandoned = router.submit(RouterRequest::new((0, 1.0))).unwrap();
    match abandoned.wait_deadline(Duration::from_millis(5)) {
        Err(PfError::DeadlineExceeded { stage }) => assert_eq!(stage, "abandoned"),
        other => panic!("expected abandoned, got {other:?}"),
    }

    // Release the blocker; the worker then resolves the abandoned ticket
    // at its next batch formation and idles.
    gate.grant(1);
    blocker.wait().unwrap();

    // A request whose deadline passes while it is *dispatched* (in the
    // engine) completes late: a deadline miss, not an expiry. The worker
    // picks it up immediately (we see it enter), then we hold the gate
    // past its deadline.
    let late = router
        .submit(
            RouterRequest::new((0, 2.0)).with_deadline(Instant::now() + Duration::from_millis(10)),
        )
        .unwrap();
    entered.recv().unwrap();
    std::thread::sleep(Duration::from_millis(25));
    gate.open();
    late.wait().unwrap();

    let stats = router.drain().unwrap();
    let interactive = stats.class("interactive").unwrap();
    assert_eq!(interactive.abandoned, 1);
    assert_eq!(interactive.served, 2);
    assert_eq!(stats.deadline_misses, 1, "late completion is a miss");
    assert!(stats.deadline_miss_rate() > 0.0);
}

#[test]
fn windows_restore_when_pressure_subsides() {
    let (gate, entered) = Gate::new();
    let router = Router::new(config(Policy::RoundRobin, 1, 8), |i| {
        Ok(GatedShard {
            replica: i,
            gate: Arc::clone(&gate),
        })
    })
    .unwrap();

    let blocker = router.submit(RouterRequest::new((0, 0.0))).unwrap();
    entered.recv().unwrap();
    // Pressure is sampled at submit time, before the request enqueues: the
    // fifth queued submission observes 4/8 = shrink_at and engages stage 1.
    let queued: Vec<_> = (0..5)
        .map(|i| {
            router
                .submit(RouterRequest::new((0, 1.0 + i as f64)))
                .unwrap()
        })
        .collect();
    assert!(router.windows_shrunk());

    gate.open();
    blocker.wait().unwrap();
    for t in queued {
        t.wait().unwrap();
    }
    // Queues are empty now; the next submission restores the windows
    // (hysteresis threshold is pressure < shrink_at / 2).
    let last = router.submit(RouterRequest::new((0, 9.0))).unwrap();
    assert!(!router.windows_shrunk());
    last.wait().unwrap();
    router.drain().unwrap();
}

#[test]
fn invalid_class_is_an_error_not_traffic() {
    let router = Router::new(config(Policy::RoundRobin, 1, 8), |i| {
        Ok(ShardEngine::new(i))
    })
    .unwrap();
    match router.submit(RouterRequest::new((0, 0.0)).with_class(9)) {
        Err(PfError::InvalidScenario { reason }) => assert!(reason.contains("class")),
        other => panic!("expected InvalidScenario, got {other:?}"),
    }
    let stats = router.drain().unwrap();
    assert_eq!(stats.submitted, 0);
}

#[test]
fn config_from_spec_and_validation() {
    use pf_core::{RouterSpec, ServingSpec};

    let spec = ServingSpec {
        router: Some(RouterSpec {
            replicas: 3,
            policy: "least_loaded".to_string(),
            ..RouterSpec::default()
        }),
        ..ServingSpec::default()
    };
    let config = RouterConfig::from_spec(&spec).unwrap();
    assert_eq!(config.replicas, 3);
    assert_eq!(config.policy, Policy::LeastLoaded);
    assert_eq!(config.lowest_class(), 2);
    config.validate().unwrap();

    // No router section: defaults.
    let config = RouterConfig::from_spec(&ServingSpec::default()).unwrap();
    assert_eq!(config.replicas, RouterSpec::default().replicas);
    assert_eq!(config.policy, Policy::KernelAffinity);

    // Invalid nested spec is rejected.
    let bad = RouterConfig {
        shrink_at: 0.9,
        shed_at: 0.2,
        ..RouterConfig::default()
    };
    assert!(bad.validate().is_err());
}
