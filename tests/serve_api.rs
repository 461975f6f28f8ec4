//! Integration tests of the `photofourier::serve` traffic-serving layer:
//! served results vs. the offline batch path, overload rejection, stats
//! sanity, and deterministic shutdown draining.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use photofourier::prelude::*;
use photofourier::serve::{self, InferenceEngine, ServeConfig, Server};

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 16, 16], 0.0, 1.0, seed)
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The committed serving scenario, with the backend overridden per test.
fn serving_scenario(kind: BackendKind) -> Scenario {
    let mut scenario = Scenario::from_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/serving_resnet18.toml"
    ))
    .expect("committed serving scenario loads");
    scenario.backend.kind = kind;
    scenario
}

#[test]
fn committed_scenario_declares_serving() {
    let scenario = serving_scenario(BackendKind::JtcIdeal);
    let spec = scenario.serving.expect("serving section present");
    assert_eq!(spec.max_batch, 8);
    assert_eq!(spec.queue_depth, 64);
}

#[test]
fn served_results_are_bit_identical_to_offline_run_batch() {
    for kind in [BackendKind::Digital, BackendKind::JtcIdeal] {
        let scenario = serving_scenario(kind);
        let offline = Session::from_scenario(scenario.clone()).unwrap();
        let server = serve::serve_scenario(scenario).unwrap();

        let images: Vec<Tensor> = (0..12).map(|i| image(500 + i)).collect();
        // Concurrent submissions, so the batcher actually forms batches.
        let served: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .iter()
                .map(|img| {
                    let server = &server;
                    scope.spawn(move || server.submit(img.clone()).unwrap().wait().unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let batch = offline.run_batch(&images).unwrap();
        for (i, (s, o)) in served.iter().zip(&batch).enumerate() {
            assert!(
                bits_equal(s, o),
                "{kind:?}: served result {i} diverged from offline run_batch"
            );
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 12);
        assert_eq!(stats.rejected, 0);
    }
}

#[test]
fn stochastic_serving_replays_from_ticket_seqs() {
    let scenario = serving_scenario(BackendKind::PhotofourierCg);
    let offline = Session::from_scenario(scenario.clone()).unwrap();
    let server = serve::serve_scenario(scenario).unwrap();

    let images: Vec<Tensor> = (0..6).map(|i| image(900 + i)).collect();
    let tickets: Vec<_> = images
        .iter()
        .map(|img| server.submit(img.clone()).unwrap())
        .collect();
    for (img, ticket) in images.iter().zip(tickets) {
        let seq = ticket.seq();
        let served = ticket.wait().unwrap();
        let replayed = offline.run_inference_seeded(img, seq).unwrap();
        assert!(
            bits_equal(&served, &replayed),
            "request {seq}: CG result must replay from its admission seq"
        );
    }
    assert_eq!(server.shutdown().unwrap().served, 6);
}

#[test]
fn stats_sanity_under_load() {
    let server = serve::serve_scenario(serving_scenario(BackendKind::Digital)).unwrap();
    std::thread::scope(|scope| {
        for w in 0..4 {
            let server = &server;
            scope.spawn(move || {
                for k in 0..8 {
                    server
                        .submit(image((w * 100 + k) as u64))
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            });
        }
    });
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 32);
    assert_eq!(
        stats.served + stats.rejected + stats.failed,
        stats.submitted
    );
    assert!(stats.latency.p99_ms >= stats.latency.p50_ms);
    assert!(stats.latency.p95_ms >= stats.latency.p50_ms);
    assert!(stats.latency.max_ms >= stats.latency.p99_ms);
    // One sample per served request in each distribution, and a mean never
    // above its maximum.
    for summary in [stats.latency, stats.queue_wait, stats.service] {
        assert_eq!(summary.count, stats.served);
        assert!(summary.mean_ms <= summary.max_ms);
    }
    assert!(stats.throughput_rps > 0.0);
    let requests: u64 = stats
        .batch_histogram
        .iter()
        .map(|b| b.size as u64 * b.count)
        .sum();
    assert_eq!(requests, stats.served);
    assert!(stats
        .batch_histogram
        .iter()
        .all(|b| b.size >= 1 && b.size <= 8));
}

/// Engine that blocks inside `infer_batch` until granted a permit; lets the
/// overload test control exactly how many requests are queued.
#[derive(Debug)]
struct GatedEcho {
    entered: std::sync::Mutex<mpsc::Sender<usize>>,
    permits: std::sync::Mutex<usize>,
    released: std::sync::Condvar,
}

impl GatedEcho {
    fn new() -> (Arc<Self>, mpsc::Receiver<usize>) {
        let (tx, rx) = mpsc::channel();
        (
            Arc::new(Self {
                entered: std::sync::Mutex::new(tx),
                permits: std::sync::Mutex::new(0),
                released: std::sync::Condvar::new(),
            }),
            rx,
        )
    }

    fn grant(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
        self.released.notify_all();
    }
}

impl InferenceEngine for GatedEcho {
    type Request = Tensor;
    type Response = Tensor;

    fn infer_batch(&self, inputs: &[Tensor], _seqs: &[u64]) -> Result<Vec<Tensor>, PfError> {
        self.entered
            .lock()
            .unwrap()
            .send(inputs.len())
            .expect("test alive");
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.released.wait(permits).unwrap();
        }
        *permits -= 1;
        Ok(inputs.to_vec())
    }
}

#[test]
fn overload_rejects_with_the_typed_error() {
    let (engine, entered) = GatedEcho::new();
    let config = ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_depth: 1,
        workers: 1,
    };
    let server = Server::new(Arc::clone(&engine), config).unwrap();

    let t1 = server.submit(image(1)).unwrap();
    assert_eq!(entered.recv().unwrap(), 1); // worker is now blocked in the engine
    let t2 = server.submit(image(2)).unwrap(); // fills the queue
    match server.submit(image(3)) {
        Err(PfError::Overloaded { queued, limit }) => {
            assert_eq!(queued, 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected PfError::Overloaded, got {other:?}"),
    }

    engine.grant(2);
    t1.wait().unwrap();
    t2.wait().unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.served, 2);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn shutdown_resolves_every_ticket() {
    let server = serve::serve_scenario(serving_scenario(BackendKind::Digital)).unwrap();
    let tickets: Vec<_> = (0..10).map(|i| server.submit(image(i)).unwrap()).collect();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 10);
    for ticket in tickets {
        // No blocking possible: shutdown drained everything.
        ticket
            .try_take()
            .expect("ticket resolved by shutdown")
            .unwrap();
    }
}
