//! Behavioural tests of the micro-batching server against mock engines.
//!
//! The mocks make the asynchronous parts deterministic: a *gated* engine
//! blocks inside `infer_batch` until the test grants it a permit, so the
//! test controls exactly which requests are queued while a batch is in
//! flight (overload, batch-formation, deadline-expiry and histogram
//! assertions all hinge on that). Payloads are plain `f64`s — the server is
//! generic, and scalar mocks keep the invariants in plain sight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pf_core::PfError;
use pf_serve::{InferenceEngine, ServeConfig, Server};

/// Doubles every input; records the seqs it was handed.
#[derive(Debug, Default)]
struct EchoEngine {
    seen_seqs: Mutex<Vec<u64>>,
    calls: AtomicUsize,
}

impl InferenceEngine for EchoEngine {
    type Request = f64;
    type Response = f64;

    fn infer_batch(&self, inputs: &[f64], seqs: &[u64]) -> Result<Vec<f64>, PfError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.seen_seqs.lock().extend_from_slice(seqs);
        Ok(inputs.iter().map(|x| x * 2.0).collect())
    }
}

/// Blocks inside `infer_batch` until the test grants a permit; signals the
/// test (with the batch size) the moment a batch arrives.
#[derive(Debug)]
struct GatedEngine {
    entered: Mutex<mpsc::Sender<usize>>,
    permits: Mutex<usize>,
    released: Condvar,
    seen_seqs: Mutex<Vec<u64>>,
}

impl GatedEngine {
    fn new() -> (Arc<Self>, mpsc::Receiver<usize>) {
        let (tx, rx) = mpsc::channel();
        (
            Arc::new(Self {
                entered: Mutex::new(tx),
                permits: Mutex::new(0),
                released: Condvar::new(),
                seen_seqs: Mutex::new(Vec::new()),
            }),
            rx,
        )
    }

    fn grant(&self, permits: usize) {
        *self.permits.lock() += permits;
        self.released.notify_all();
    }
}

impl InferenceEngine for GatedEngine {
    type Request = f64;
    type Response = f64;

    fn infer_batch(&self, inputs: &[f64], seqs: &[u64]) -> Result<Vec<f64>, PfError> {
        self.entered.lock().send(inputs.len()).expect("test alive");
        let mut permits = self.permits.lock();
        while *permits == 0 {
            permits = self.released.wait(permits);
        }
        *permits -= 1;
        drop(permits);
        self.seen_seqs.lock().extend_from_slice(seqs);
        Ok(inputs.to_vec())
    }
}

/// Always errors.
#[derive(Debug)]
struct FailingEngine;

impl InferenceEngine for FailingEngine {
    type Request = f64;
    type Response = f64;

    fn infer_batch(&self, _inputs: &[f64], _seqs: &[u64]) -> Result<Vec<f64>, PfError> {
        Err(PfError::invalid_scenario("engine down"))
    }
}

/// Panics on the first batch, then echoes.
#[derive(Debug, Default)]
struct PanicOnceEngine {
    panicked: AtomicUsize,
}

impl InferenceEngine for PanicOnceEngine {
    type Request = f64;
    type Response = f64;

    fn infer_batch(&self, inputs: &[f64], _seqs: &[u64]) -> Result<Vec<f64>, PfError> {
        if self.panicked.fetch_add(1, Ordering::Relaxed) == 0 {
            panic!("engine blew up");
        }
        Ok(inputs.to_vec())
    }
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        batch_timeout: Duration::from_micros(500),
        queue_depth: 64,
        workers: 1,
    }
}

fn five_way(stats: &pf_serve::ServerStats) -> u64 {
    stats.served + stats.rejected + stats.failed + stats.expired + stats.cancelled
}

#[test]
fn submit_then_wait_round_trips() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let out = server.submit(21.0).unwrap().wait().unwrap();
    assert_eq!(out, 42.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn every_ticket_resolves_and_seqs_are_submission_order() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let tickets: Vec<_> = (0..20).map(|i| server.submit(i as f64).unwrap()).collect();
    for (i, ticket) in tickets.iter().enumerate() {
        assert_eq!(ticket.seq(), i as u64);
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().unwrap(), i as f64 * 2.0);
    }
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 20);
    assert_eq!(five_way(&stats), stats.submitted);
}

#[test]
fn engine_sees_every_seq_exactly_once() {
    let engine = Arc::new(EchoEngine::default());
    let server = Server::new(Arc::clone(&engine), quick_config()).unwrap();
    let tickets: Vec<_> = (0..16).map(|i| server.submit(i as f64).unwrap()).collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    server.shutdown().unwrap();
    let mut seqs = engine.seen_seqs.lock().clone();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
}

#[test]
fn overload_is_deterministic_and_explicit() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_depth: 2,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // First request is picked up by the worker and blocks in the engine...
    let t1 = server.submit(1.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    // ...so these two fill the queue exactly to its depth...
    let t2 = server.submit(2.0).unwrap();
    let t3 = server.submit(3.0).unwrap();
    assert_eq!(server.queue_len(), 2);
    // ...and the next admission must be rejected.
    match server.submit(4.0) {
        Err(PfError::Overloaded { queued, limit }) => {
            assert_eq!(queued, 2);
            assert_eq!(limit, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    engine.grant(3);
    assert_eq!(entered.recv().unwrap(), 1);
    assert_eq!(entered.recv().unwrap(), 1);
    assert_eq!(t1.wait().unwrap(), 1.0);
    assert_eq!(t2.wait().unwrap(), 2.0);
    assert_eq!(t3.wait().unwrap(), 3.0);

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.served, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(five_way(&stats), stats.submitted);
}

#[test]
fn batcher_forms_micro_batches_up_to_max_batch() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 4,
        batch_timeout: Duration::from_millis(5),
        queue_depth: 64,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // Lone request: dispatched as a batch of 1 once its formation window
    // lapses; the engine then blocks, so everything submitted next queues up.
    let t0 = server.submit(0.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    let tickets: Vec<_> = (1..=8).map(|i| server.submit(i as f64).unwrap()).collect();

    // Release batch 1, then the two full batches of 4.
    engine.grant(3);
    assert_eq!(entered.recv().unwrap(), 4);
    assert_eq!(entered.recv().unwrap(), 4);
    t0.wait().unwrap();
    for ticket in tickets {
        ticket.wait().unwrap();
    }

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 9);
    let histogram: Vec<(usize, u64)> = stats
        .batch_histogram
        .iter()
        .map(|b| (b.size, b.count))
        .collect();
    assert_eq!(histogram, vec![(1, 1), (4, 2)]);
    assert!(stats.mean_batch_size() > 1.0);
    assert!(stats.latency.p99_ms >= stats.latency.p50_ms);
}

#[test]
fn batch_window_is_counted_from_the_oldest_requests_admission() {
    let (engine, entered) = GatedEngine::new();
    let window = Duration::from_millis(300);
    let config = ServeConfig {
        max_batch: 4,
        batch_timeout: window,
        queue_depth: 64,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // A lone request on an idle server waits its whole window for company;
    // it then holds the worker inside the engine.
    let submitted = Instant::now();
    let t0 = server.submit(0.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    let lone = submitted.elapsed();

    // A request that waits its window out behind the busy worker...
    let t1 = server.submit(1.0).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let granted = Instant::now();
    engine.grant(1);
    assert_eq!(entered.recv().unwrap(), 1);
    let waited = granted.elapsed();
    // (Release the engine before asserting: a failed assertion must not
    // leave the worker blocked in it while the server is dropped.)
    engine.grant(1);
    assert_eq!(t0.wait().unwrap(), 0.0);
    assert_eq!(t1.wait().unwrap(), 1.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 2);

    // ...leaves as soon as the worker is free, not after a fresh window.
    assert!(
        waited < Duration::from_millis(150),
        "the worker opened a fresh window: {waited:?} from grant to dispatch"
    );
    assert!(
        lone >= window,
        "a lone request was dispatched {lone:?} after admission, inside its {window:?} window"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn workers_wake_on_the_deadline() {
    /// Answers each request with its worker thread's timer slack.
    #[derive(Debug)]
    struct SlackEngine;
    impl InferenceEngine for SlackEngine {
        type Request = ();
        type Response = String;

        fn infer_batch(&self, inputs: &[()], _seqs: &[u64]) -> Result<Vec<String>, PfError> {
            // `timerslack_ns` is listed only under `/proc/<id>`, not under
            // `/proc/<pid>/task/<tid>`; `/proc/<tid>` names the calling
            // thread itself, which may read its own slack.
            let own = std::fs::read_link("/proc/thread-self").expect("the thread's proc entry");
            let tid = own.file_name().expect("<pid>/task/<tid>");
            let path = std::path::Path::new("/proc")
                .join(tid)
                .join("timerslack_ns");
            let slack = std::fs::read_to_string(path).expect("read the thread's timer slack");
            Ok(vec![slack; inputs.len()])
        }
    }

    let server = Server::new(SlackEngine, quick_config()).unwrap();
    assert_eq!(server.submit(()).unwrap().wait().unwrap().trim(), "1");
    server.shutdown().unwrap();
}

#[test]
fn shutdown_drains_every_accepted_request() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let tickets: Vec<_> = (0..50).map(|i| server.submit(i as f64).unwrap()).collect();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 50);
    // Every ticket is already resolved — no blocking possible here.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.try_take().expect("resolved by shutdown");
        assert_eq!(result.unwrap(), i as f64 * 2.0);
    }
}

#[test]
fn mid_flight_snapshot_settles_at_shutdown() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let _ = server.submit(1.0).unwrap().wait().unwrap();
    let snapshot = server.stats();
    assert_eq!(snapshot.submitted, 1);
    assert_eq!(snapshot.served, 1);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats, snapshot, "nothing submitted in between");
}

#[test]
fn engine_errors_fail_the_batch_but_keep_accounting() {
    let server = Server::new(FailingEngine, quick_config()).unwrap();
    let t = server.submit(1.0).unwrap();
    assert!(t.wait().is_err());
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.served, 0);
    assert_eq!(five_way(&stats), stats.submitted);
}

#[test]
fn engine_panics_fail_the_batch_without_stranding_anyone() {
    let server = Server::new(PanicOnceEngine::default(), quick_config()).unwrap();
    // First request hits the panicking batch: its ticket must still
    // resolve (to an error), not hang.
    let err = server.submit(1.0).unwrap().wait().unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");
    // The worker survived: the server keeps serving.
    assert_eq!(server.submit(2.0).unwrap().wait().unwrap(), 2.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.served, 1);
    assert_eq!(five_way(&stats), stats.submitted);
}

#[test]
fn multiple_workers_serve_concurrently() {
    let engine = Arc::new(EchoEngine::default());
    let config = ServeConfig {
        workers: 3,
        ..quick_config()
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();
    std::thread::scope(|scope| {
        for w in 0..3 {
            let server = &server;
            scope.spawn(move || {
                for i in 0..10 {
                    let v = (w * 100 + i) as f64;
                    assert_eq!(server.submit(v).unwrap().wait().unwrap(), v * 2.0);
                }
            });
        }
    });
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 30);
    assert_eq!(stats.rejected, 0);
    let mut seqs = engine.seen_seqs.lock().clone();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..30).collect::<Vec<u64>>());
}

#[test]
fn non_tensor_payloads_are_first_class() {
    /// The server is generic: a request can carry routing metadata.
    #[derive(Debug)]
    struct KeyedEngine;
    impl InferenceEngine for KeyedEngine {
        type Request = (u64, String);
        type Response = String;

        fn infer_batch(
            &self,
            inputs: &[(u64, String)],
            _seqs: &[u64],
        ) -> Result<Vec<String>, PfError> {
            Ok(inputs.iter().map(|(k, s)| format!("{k}:{s}")).collect())
        }
    }

    let server = Server::new(KeyedEngine, quick_config()).unwrap();
    let out = server.submit((7, "img".into())).unwrap().wait().unwrap();
    assert_eq!(out, "7:img");
    server.shutdown().unwrap();
}

#[test]
fn expired_requests_are_never_dispatched() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_depth: 16,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // Occupy the worker so the deadlined request stays queued...
    let blocker = server.submit(1.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    // ...with a deadline that is already in the past.
    let doomed = server
        .try_submit(2.0, Some(Instant::now() - Duration::from_millis(1)), None)
        .unwrap();
    let live = server.submit(3.0).unwrap();

    engine.grant(3);
    match doomed.wait() {
        Err(PfError::DeadlineExceeded { stage }) => assert_eq!(stage, "queued"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(blocker.wait().unwrap(), 1.0);
    assert_eq!(live.wait().unwrap(), 3.0);

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.served, 2);
    assert_eq!(stats.failed, 0);
    assert_eq!(five_way(&stats), stats.submitted);
    // The engine saw seqs 0 and 2 only — the expired request (seq 1) was
    // dropped at batch formation, not dispatched.
    let mut seqs = engine.seen_seqs.lock().clone();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 2]);
}

#[test]
fn outstanding_counts_queued_and_taken_requests_until_resolution() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_depth: 8,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();
    assert_eq!(server.outstanding(), 0);

    // The worker takes the first request: out of the queue, still counted.
    let taken = server.submit(1.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    assert_eq!((server.queue_len(), server.outstanding()), (0, 1));
    let queued = server.submit(2.0).unwrap();
    let doomed = server
        .try_submit(3.0, Some(Instant::now() - Duration::from_millis(1)), None)
        .unwrap();
    assert_eq!((server.queue_len(), server.outstanding()), (2, 3));

    // A served request stops counting before its ticket resolves; the
    // next one is taken, the expired one still queued behind it.
    engine.grant(1);
    assert_eq!(taken.wait().unwrap(), 1.0);
    assert_eq!(server.outstanding(), 2);
    assert_eq!(entered.recv().unwrap(), 1);
    engine.grant(1);
    assert_eq!(queued.wait().unwrap(), 2.0);
    // So does a request dropped at batch formation.
    assert!(matches!(
        doomed.wait(),
        Err(PfError::DeadlineExceeded { stage: "queued" })
    ));
    assert_eq!(server.outstanding(), 0);
    server.shutdown().unwrap();

    // Back to back, a waiter never sees its own request still counted.
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    for i in 0..500 {
        server.submit(f64::from(i)).unwrap().wait().unwrap();
        assert_eq!(server.outstanding(), 0, "round trip {i}");
    }
    server.shutdown().unwrap();
}

#[test]
fn a_take_with_nothing_live_resolves_its_drops_at_once() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 4,
        batch_timeout: Duration::from_millis(300),
        queue_depth: 16,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // Occupy the worker, then queue only a request already past its deadline.
    let blocker = server.submit(1.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    let doomed = server
        .try_submit(2.0, Some(Instant::now() - Duration::from_millis(1)), None)
        .unwrap();

    // The worker's next take holds nothing live: it resolves the drop and
    // goes back to its idle wait instead of opening a window empty-handed.
    let granted = Instant::now();
    engine.grant(1);
    let outcome = doomed.wait();
    let waited = granted.elapsed();
    assert!(matches!(
        outcome,
        Err(PfError::DeadlineExceeded { stage: "queued" })
    ));
    assert_eq!(blocker.wait().unwrap(), 1.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.expired, 1);
    assert_eq!(five_way(&stats), stats.submitted);
    assert!(
        waited < Duration::from_millis(150),
        "the dropped ticket resolved {waited:?} after the worker freed up"
    );
}

#[test]
fn wait_deadline_returns_in_time_when_result_is_ready() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let ticket = server.submit(5.0).unwrap();
    let out = ticket.wait_deadline(Duration::from_secs(10)).unwrap();
    assert_eq!(out, 10.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.cancelled, 0);
}

#[test]
fn abandoned_tickets_are_cancelled_not_failed() {
    let (engine, entered) = GatedEngine::new();
    let config = ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_depth: 16,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    // Occupy the worker, then abandon a queued request.
    let blocker = server.submit(1.0).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    let abandoned = server.submit(2.0).unwrap();
    match abandoned.wait_deadline(Duration::from_millis(5)) {
        Err(PfError::DeadlineExceeded { stage }) => assert_eq!(stage, "abandoned"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    engine.grant(2);
    assert_eq!(blocker.wait().unwrap(), 1.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.cancelled, 1, "slot reclaimed, counted as cancelled");
    assert_eq!(stats.failed, 0, "a client timeout is not an engine failure");
    assert_eq!(stats.served, 1);
    assert_eq!(five_way(&stats), stats.submitted);
    // The abandoned request (seq 1) never reached the engine.
    let mut seqs = engine.seen_seqs.lock().clone();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0]);
}

#[test]
fn wait_timed_reports_the_completion_instant() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    let before = Instant::now();
    let ticket = server.submit(1.0).unwrap();
    // Give the request time to complete *before* we wait, then check the
    // stamped instant reflects completion, not observation.
    std::thread::sleep(Duration::from_millis(20));
    let observed = Instant::now();
    let (result, completed) = ticket.wait_timed();
    assert_eq!(result.unwrap(), 2.0);
    assert!(completed >= before);
    assert!(
        completed <= observed,
        "completion was stamped when the engine finished, not when wait_timed ran"
    );
    server.shutdown().unwrap();
}

#[test]
fn batch_window_is_adjustable_and_capped() {
    let server = Server::new(EchoEngine::default(), quick_config()).unwrap();
    assert_eq!(server.batch_window(), quick_config().batch_timeout);
    server.set_batch_window(Duration::ZERO);
    assert_eq!(server.batch_window(), Duration::ZERO);
    // Requests still serve with a zero window (immediate dispatch).
    assert_eq!(server.submit(4.0).unwrap().wait().unwrap(), 8.0);
    // The window can only shrink relative to the configured timeout.
    server.set_batch_window(Duration::from_secs(60));
    assert_eq!(server.batch_window(), quick_config().batch_timeout);
    server.shutdown().unwrap();
}

#[test]
fn auto_sized_workers_still_serve() {
    let config = ServeConfig {
        workers: 0,
        ..quick_config()
    };
    let server = Server::new(EchoEngine::default(), config).unwrap();
    assert_eq!(server.submit(3.0).unwrap().wait().unwrap(), 6.0);
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 1);
}
