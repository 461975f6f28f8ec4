//! Integration tests of the observability layer at the facade level:
//! span-ring drop accounting, cross-thread span nesting, bit-identity of results
//! with telemetry enabled, and plain and routed serving runs that must yield
//! one validated Chrome-trace span tree per request.

use std::time::{Duration, Instant};

use photofourier::prelude::*;
use photofourier::route::{self, ModelRequest};
use photofourier::serve;
use photofourier::telemetry::{thread_track, validate_chrome_trace};

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn span_ring_drops_oldest_and_counts_every_loss() {
    let tel = Telemetry::with_span_capacity(8);
    let epoch = Instant::now();
    for i in 1..=20u64 {
        tel.record_span(
            i,
            "work",
            "test",
            1,
            epoch,
            epoch + Duration::from_micros(i),
            0,
            i,
        );
    }
    let spans = tel.spans();
    assert_eq!(spans.len(), 8, "ring retains exactly its capacity");
    assert_eq!(tel.dropped_spans(), 12, "losses are counted, not silent");
    let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(
        ids,
        (13..=20).collect::<Vec<u64>>(),
        "drop-oldest keeps the newest spans in order"
    );
}

#[test]
fn spans_nest_across_threads_and_exports_validate() {
    let tel = Telemetry::enabled();
    let root = tel.span("root", "test");
    let root_id = root.id();
    assert_ne!(root_id, 0);

    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let tel = &tel;
            scope.spawn(move || {
                let _child = tel.span_with_parent("child", "test", root_id, worker + 1);
                // A plain nested span on this thread must chain under the
                // cross-thread child via the thread-local span stack.
                let _leaf = tel.span("leaf", "test");
            });
        }
    });
    drop(root);

    let spans = tel.spans();
    assert_eq!(tel.dropped_spans(), 0);
    let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
    assert_eq!(children.len(), 4);
    for child in &children {
        assert_eq!(child.parent, root_id, "cross-thread parent id survives");
        assert_ne!(child.req, 0);
    }
    let child_ids: Vec<u64> = children.iter().map(|c| c.id).collect();
    for leaf in spans.iter().filter(|s| s.name == "leaf") {
        assert!(
            child_ids.contains(&leaf.parent),
            "leaf chains under its thread's child, got parent {}",
            leaf.parent
        );
    }
    // The main thread's track is distinct from the workers' request lanes.
    assert!(spans.iter().any(|s| s.track == thread_track()));

    let stats = validate_chrome_trace(&tel.chrome_trace_json()).expect("trace validates");
    assert_eq!(stats.pairs, 9, "root + 4 children + 4 leaves");
    let tree = tel.text_tree();
    assert!(tree.contains("root"), "tree:\n{tree}");
    assert!(tree.contains("child"), "tree:\n{tree}");
}

#[test]
fn results_are_bit_identical_with_telemetry_enabled() {
    for kind in [BackendKind::JtcIdeal, BackendKind::PhotofourierCg] {
        let scenario = Scenario::new(
            format!("telemetry_{kind}"),
            "resnet18",
            BackendSpec {
                kind,
                capacity: 256,
            },
        );
        let plain = Session::from_scenario(scenario.clone()).unwrap();
        let traced = Session::builder()
            .scenario(scenario)
            .telemetry(Telemetry::enabled())
            .build()
            .unwrap();

        let images: Vec<pf_nn::Tensor> = (0..3)
            .map(|i| pf_nn::Tensor::random(vec![1, 16, 16], 0.0, 1.0, 900 + i))
            .collect();
        let baseline = plain.run_batch(&images).unwrap();
        let observed = traced.run_batch(&images).unwrap();
        for (i, (a, b)) in baseline.iter().zip(&observed).enumerate() {
            assert!(
                bits_equal(a.data(), b.data()),
                "{kind:?}: image {i} diverged under telemetry"
            );
        }

        // The run must actually have been observed, not silently no-oped.
        let totals = traced.telemetry().stage_totals();
        assert!(totals.total_ns() > 0, "{kind:?}: no stage time attributed");
        assert_eq!(plain.telemetry().stage_totals().total_ns(), 0);
    }
}

#[test]
fn served_requests_yield_one_validated_span_tree_each() {
    let scenario = Scenario::from_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/serving_resnet18.toml"
    ))
    .expect("committed serving scenario loads");
    let config = ServeConfig::from_spec(scenario.serving.as_ref().unwrap());
    let session = Session::builder()
        .scenario(scenario)
        .telemetry(Telemetry::enabled())
        .build()
        .unwrap();
    let tel = session.telemetry().clone();
    let server = serve::serve_session(session, config).unwrap();

    let submitted = 6u64;
    let tickets: Vec<_> = (0..submitted)
        .map(|k| {
            let image = pf_nn::Tensor::random(vec![1, 16, 16], 0.0, 1.0, 800 + k);
            server.submit(image).expect("uncontended submit admits")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("request served");
    }
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, submitted);
    assert_eq!(
        tel.dropped_spans(),
        0,
        "six requests must not overflow the ring"
    );

    let spans = tel.spans();
    let find = |name: &str| -> Vec<_> { spans.iter().filter(|s| s.name == name).collect() };
    let requests = find("request");
    assert_eq!(
        requests.len() as u64,
        submitted,
        "one request root per request"
    );
    for request in &requests {
        assert_eq!(request.parent, 0, "an unrouted request is a root");
        assert_ne!(request.req, 0, "request id minted at admission");
        for phase in ["queue", "exec"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == phase && s.parent == request.id && s.req == request.req),
                "request {} missing its {phase} span",
                request.req
            );
        }
    }
    assert!(!find("batch").is_empty());
    assert!(!find("infer").is_empty());

    let stats = validate_chrome_trace(&tel.chrome_trace_json()).expect("served trace validates");
    assert!(stats.pairs as u64 >= submitted * 3);
}

#[test]
fn routed_serving_yields_one_validated_span_tree_per_request() {
    // Both photonic staged paths, so per-stage child spans appear under
    // the batch's infer span.
    for kind in [BackendKind::JtcIdeal, BackendKind::PhotofourierCg] {
        let mut scenario = Scenario::from_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/scenarios/routing_resnet18.toml"
        ))
        .expect("committed routing scenario loads");
        scenario.backend.kind = kind;

        let tel = Telemetry::enabled();
        let router = route::route_scenario_traced(scenario, tel.clone()).unwrap();
        let submitted = 6u64;
        let tickets: Vec<_> = (0..submitted)
            .map(|k| {
                let image = pf_nn::Tensor::random(vec![1, 16, 16], 0.0, 1.0, 700 + k);
                let payload = ModelRequest::new(image, k % 3).with_seed(k);
                router
                    .submit(
                        RouterRequest::new(payload)
                            .with_class(0)
                            .with_affinity(k % 3),
                    )
                    .expect("uncontended submit admits")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("request served");
        }
        let stats = router.drain().unwrap();
        assert_eq!(stats.admitted, submitted);
        assert_eq!(
            tel.dropped_spans(),
            0,
            "smoke load must not overflow the ring"
        );

        let spans = tel.spans();
        let find = |name: &str| -> Vec<_> { spans.iter().filter(|s| s.name == name).collect() };
        let admits = find("admit");
        assert_eq!(
            admits.len() as u64,
            submitted,
            "one admission span per request"
        );
        for admit in &admits {
            assert_ne!(admit.req, 0, "request id minted at admission");
            let request = spans
                .iter()
                .find(|s| s.name == "request" && s.parent == admit.id)
                .unwrap_or_else(|| panic!("request {} has no root span", admit.req));
            assert_eq!(request.req, admit.req);
            for phase in ["queue", "exec"] {
                assert!(
                    spans
                        .iter()
                        .any(|s| s.name == phase && s.parent == request.id && s.req == admit.req),
                    "request {} missing its {phase} span",
                    admit.req
                );
            }
        }
        // The dispatch side: batches carry infer spans with staged children.
        assert!(!find("batch").is_empty());
        assert!(!find("infer").is_empty());
        assert!(
            Stage::ALL.iter().any(|s| !find(s.name()).is_empty()),
            "{kind:?}: no per-stage child spans were synthesized"
        );

        let trace = tel.chrome_trace_json();
        let stats = validate_chrome_trace(&trace).expect("routed trace validates");
        assert!(stats.pairs as u64 >= submitted * 3);
        assert!(stats.tracks > 1, "request lanes and worker tracks coexist");
    }
}
