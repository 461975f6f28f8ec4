//! `TracedEngine` must be invisible to row tiling: same outputs bit for
//! bit, and every `Conv1dEngine` / `PreparedConv1d` method forwarded —
//! including the ones with default bodies. A wrapper that swallows one
//! (`prepares_kernels`, `signal_key`, `prepare_signal_batch`, …) still
//! produces right answers, but sends the executor down a different path
//! and so measures a program nobody runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pf_benchmark::inputs;
use pf_benchmark::spans::Recorder;
use pf_benchmark::traced_engine::{names, TracedEngine};
use pf_core::{BackendKind, BackendSpec};
use pf_nn::executor::{PipelineConfig, TiledExecutor};
use pf_nn::models::small::SmallCnn;
use pf_telemetry::{StageAcc, Telemetry};
use pf_tiling::{Conv1dEngine, PreparedConv1d, PreparedSignal, TiledConvolver};

#[test]
fn outputs_are_bit_identical_on_all_three_backends() {
    let images = inputs::images(7, 3, 1, 16);
    let cnn = SmallCnn::new(1, 16, 42).unwrap();
    let plane = inputs::plane(7, 16);
    let kernels = inputs::KernelStream::new(7).take(5);
    for kind in BackendKind::ALL {
        let spec = BackendSpec {
            kind,
            capacity: 256,
        };
        let recorder = Arc::new(Recorder::new(0));
        // Fresh engines with the same noise seed on both sides, so the
        // stochastic chain draws the same stream in the same order.
        let bare = TiledExecutor::new(
            spec.instantiate_seeded(3).unwrap(),
            256,
            PipelineConfig::default(),
        )
        .unwrap();
        let wrapped = TiledExecutor::new(
            TracedEngine::new(spec.instantiate_seeded(3).unwrap(), Arc::clone(&recorder)),
            256,
            PipelineConfig::default(),
        )
        .unwrap();
        for image in &images {
            let a = cnn.features(image, &bare).unwrap();
            let b = cnn.features(image, &wrapped).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind} features");
            }
        }

        let bare = TiledConvolver::new(spec.instantiate_seeded(5).unwrap(), 256).unwrap();
        let wrapped = TiledConvolver::new(
            TracedEngine::new(spec.instantiate_seeded(5).unwrap(), Arc::clone(&recorder)),
            256,
        )
        .unwrap();
        let a = bare.correlate2d_valid_multi(&plane, &kernels).unwrap();
        let b = wrapped.correlate2d_valid_multi(&plane, &kernels).unwrap();
        for (p, q) in a.iter().zip(&b) {
            for (x, y) in p.data().iter().zip(q.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind} conv2d_multi");
            }
        }
        assert!(
            !recorder.spans().is_empty(),
            "{kind}: the wrapper recorded nothing"
        );
    }
}

/// Counts calls per method; every answer differs from the trait default.
#[derive(Debug, Default)]
struct Calls {
    prepare_kernel: AtomicUsize,
    prepare_signal: AtomicUsize,
    prepare_signal_batch: AtomicUsize,
}

#[derive(Debug)]
struct Spy(Arc<Calls>);

#[derive(Debug)]
struct SpyPrepared(Arc<Calls>);

#[derive(Debug)]
struct SpySignal;

impl PreparedSignal for SpySignal {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Conv1dEngine for Spy {
    fn correlate_valid(&self, _signal: &[f64], _kernel: &[f64]) -> Vec<f64> {
        vec![10.0]
    }
    fn max_signal_len(&self) -> Option<usize> {
        Some(77)
    }
    fn is_deterministic(&self) -> bool {
        false
    }
    fn prefers_parallel_tiles(&self) -> bool {
        true
    }
    fn prepares_kernels(&self) -> bool {
        true
    }
    fn prepare_kernel(&self, _kernel: &[f64], _len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        self.0.prepare_kernel.fetch_add(1, Ordering::Relaxed);
        Some(Arc::new(SpyPrepared(Arc::clone(&self.0))))
    }
}

impl PreparedConv1d for SpyPrepared {
    fn signal_len(&self) -> usize {
        5
    }
    fn correlate_valid(&self, _signal: &[f64]) -> Vec<f64> {
        vec![1.0]
    }
    fn signal_key(&self) -> Option<u64> {
        Some(9)
    }
    fn prepare_signal(&self, _signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        self.0.prepare_signal.fetch_add(1, Ordering::Relaxed);
        Some(Arc::new(SpySignal))
    }
    fn prepare_signal_batch(
        &self,
        _signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        // The default would loop over `prepare_signal`; this does not.
        self.0.prepare_signal_batch.fetch_add(1, Ordering::Relaxed);
        Some(
            (0..count)
                .map(|_| Arc::new(SpySignal) as Arc<dyn PreparedSignal>)
                .collect(),
        )
    }
    fn correlate_with_signal(&self, _p: &dyn PreparedSignal, _signal: &[f64]) -> Vec<f64> {
        vec![2.0]
    }
    fn correlate_valid_acc(&self, _signal: &[f64], _acc: &mut StageAcc) -> Vec<f64> {
        vec![3.0]
    }
    fn correlate_with_signal_acc(
        &self,
        _p: &dyn PreparedSignal,
        _signal: &[f64],
        _acc: &mut StageAcc,
    ) -> Vec<f64> {
        vec![4.0]
    }
    fn correlate_valid_traced(&self, _signal: &[f64], _tel: &Telemetry) -> Vec<f64> {
        vec![5.0]
    }
    fn correlate_with_signal_traced(
        &self,
        _p: &dyn PreparedSignal,
        _signal: &[f64],
        _tel: &Telemetry,
    ) -> Vec<f64> {
        vec![6.0]
    }
}

#[test]
fn every_method_is_forwarded_not_defaulted() {
    let calls = Arc::new(Calls::default());
    let recorder = Arc::new(Recorder::new(0));
    let engine = TracedEngine::new(Spy(Arc::clone(&calls)), Arc::clone(&recorder));
    let signal = [0.5; 5];

    // Conv1dEngine: the four defaulted answers and the two working calls.
    assert_eq!(engine.max_signal_len(), Some(77));
    assert!(!engine.is_deterministic());
    assert!(engine.prefers_parallel_tiles());
    assert!(engine.prepares_kernels());
    assert_eq!(engine.correlate_valid(&signal, &[1.0]), vec![10.0]);
    let prepared = engine
        .prepare_kernel(&[1.0], 5)
        .expect("Some stays Some through the wrapper");
    assert_eq!(calls.prepare_kernel.load(Ordering::Relaxed), 1);

    // PreparedConv1d: all ten methods.
    assert_eq!(prepared.signal_len(), 5);
    assert_eq!(prepared.signal_key(), Some(9));
    assert_eq!(prepared.correlate_valid(&signal), vec![1.0]);
    let shared = prepared.prepare_signal(&signal).expect("forwarded");
    assert!(
        shared.as_any().downcast_ref::<SpySignal>().is_some(),
        "the engine's own signal type must pass through unwrapped"
    );
    assert_eq!(calls.prepare_signal.load(Ordering::Relaxed), 1);
    let batch = prepared
        .prepare_signal_batch(&[0.5; 15], 3)
        .expect("forwarded");
    assert_eq!(batch.len(), 3);
    assert_eq!(calls.prepare_signal_batch.load(Ordering::Relaxed), 1);
    assert_eq!(
        calls.prepare_signal.load(Ordering::Relaxed),
        1,
        "a defaulted prepare_signal_batch would have looped over prepare_signal"
    );
    assert_eq!(
        prepared.correlate_with_signal(shared.as_ref(), &signal),
        vec![2.0]
    );
    let mut acc = StageAcc::start();
    assert_eq!(prepared.correlate_valid_acc(&signal, &mut acc), vec![3.0]);
    assert_eq!(
        prepared.correlate_with_signal_acc(shared.as_ref(), &signal, &mut acc),
        vec![4.0]
    );
    let tel = Telemetry::disabled();
    assert_eq!(prepared.correlate_valid_traced(&signal, &tel), vec![5.0]);
    assert_eq!(
        prepared.correlate_with_signal_traced(shared.as_ref(), &signal, &tel),
        vec![6.0]
    );

    // One span per working call, none for the pure getters.
    let recorded: Vec<&str> = recorder.spans().iter().map(|s| s.name).collect();
    assert_eq!(
        recorded,
        vec![
            names::CORRELATE_UNPREPARED,
            names::PREPARE_KERNEL,
            names::CORRELATE,
            names::PREPARE_SIGNAL,
            names::PREPARE_SIGNAL_BATCH,
            names::CORRELATE_WITH_SIGNAL,
            names::CORRELATE,
            names::CORRELATE_WITH_SIGNAL,
            names::CORRELATE,
            names::CORRELATE_WITH_SIGNAL,
        ]
    );
    assert!(recorded.iter().all(|name| names::ALL.contains(name)));
}

#[test]
fn a_missing_fast_path_stays_missing() {
    // An engine without a prepared path must not gain one by being wrapped.
    #[derive(Debug)]
    struct Plain;
    impl Conv1dEngine for Plain {
        fn correlate_valid(&self, signal: &[f64], _kernel: &[f64]) -> Vec<f64> {
            signal.to_vec()
        }
    }
    let engine = TracedEngine::new(Plain, Arc::new(Recorder::new(0)));
    assert!(!engine.prepares_kernels());
    assert!(engine.prepare_kernel(&[1.0], 4).is_none());
    assert_eq!(engine.max_signal_len(), None);
    assert!(engine.is_deterministic());
    assert!(!engine.prefers_parallel_tiles());
}
