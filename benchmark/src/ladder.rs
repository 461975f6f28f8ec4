//! The traced run: the per-layer ladder, measured from outside.
//!
//! Spans wrap (a) the facade call, (b) a *mirror* of what the facade does
//! — `SmallCnn::features` over a `TiledExecutor` (or `TiledConvolver`)
//! whose engine is the benchmark's forwarding [`TracedEngine`], so the
//! time `pf-jtc` spends under `pf-tiling` is measured, not estimated — and
//! (c) direct calls into each lower layer (`crate::probes`). Counts come
//! from the program's existing public outputs: `ThroughputStats` counters
//! and stage totals of a `Telemetry::enabled()` session, `ServerStats`,
//! `RouterStats`. Nothing inside the program is instrumented for this.
//!
//! The mirror's outputs are compared bit for bit with the facade's, so a
//! mirror that drifted from the real path would fail the run instead of
//! quietly describing a different program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_core::Backend;
use pf_dsp::conv::Matrix;
use pf_nn::executor::{split_pseudo_negative, TiledExecutor};
use pf_nn::layers::Conv2d;
use pf_nn::models::small::SmallCnn;
use pf_nn::Tensor;
use pf_router::RouterStats;
use pf_telemetry::Stage;
use pf_tiling::{Conv1dEngine, ParallelGrain, TiledConvolver};
use photofourier::{PfError, Scenario, Session, Telemetry};

use crate::host;
use crate::inputs::KernelStream;
use crate::offline::{
    rel_err_limit, same_bits, Args, Offline, Op, Output, CHECKED_OPS, KERNELS_PER_CALL, POOL,
    WARM_OPS,
};
use crate::probes::{self, Prober};
use crate::report::Outcome;
use crate::route::{self, Phase, Stop, Traffic};
use crate::spans::{self, Recorder, Span};
use crate::spec;
use crate::stats::{median, quantile, Summary};
use crate::traced_engine::{names, TracedEngine};

/// Facade calls per block before switching between the telemetry-disabled
/// and telemetry-enabled sessions (alternating so both see the same host).
const BLOCK: usize = 4;
/// Images (or `conv_fresh` calls) of the traced mirror. Fixed, so span
/// counts repeat exactly and the Chrome trace stays a few megabytes.
const TRACED_ITEMS: usize = 64;
/// Images whose convolutions are replayed directly on a traced convolver.
const REPLAY_IMAGES: usize = 16;
/// Cold set-ups whose build and warm-up times are reported (their median).
const SETUPS: usize = 3;
/// Share of the run given to the facade section.
const FACADE_SHARE: f64 = 0.30;
/// Share of the run given to the untraced mirror.
const MIRROR_SHARE: f64 = 0.08;
/// Share of the run one probe may use.
const PROBE_SHARE: f64 = 0.012;
/// Share of `route_closed`'s traced run spent driving the router.
const ROUTER_SHARE: f64 = 0.30;

fn facade_span(op: Op) -> &'static str {
    match op {
        Op::Batch => "session.run_batch",
        Op::Single => "session.run_inference",
        Op::ConvMulti => "session.conv2d_multi",
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per-call times of the facade section, telemetry off and on.
#[derive(Debug, Default)]
struct Facade {
    plain_s: Vec<f64>,
    observed_s: Vec<f64>,
    kept: Vec<(Args, Output)>,
    failed: u64,
}

/// Alternates blocks of facade calls between `plain` (telemetry disabled,
/// each call inside a facade span) and `observed` (telemetry enabled) for
/// `budget`, keeping the first results of both for checking.
fn facade_section(
    workload: &mut Offline,
    recorder: &Recorder,
    plain: &Session,
    observed: &Session,
    budget: Duration,
) -> Facade {
    let mut facade = Facade::default();
    let begin = Instant::now();
    let mut k = 0;
    while begin.elapsed() < budget {
        for traced_by_program in [false, true] {
            for _ in 0..BLOCK {
                let args = workload.args(k);
                k += 1;
                let (out, wall) = if traced_by_program {
                    let t0 = Instant::now();
                    let out = workload.call(observed, &args);
                    (out, t0.elapsed())
                } else {
                    let _span = recorder.enter(facade_span(workload.op));
                    let t0 = Instant::now();
                    let out = workload.call(plain, &args);
                    (out, t0.elapsed())
                };
                let samples = if traced_by_program {
                    &mut facade.observed_s
                } else {
                    &mut facade.plain_s
                };
                samples.push(wall.as_secs_f64());
                match out {
                    Ok(out) if facade.kept.len() < CHECKED_OPS => facade.kept.push((args, out)),
                    Ok(out) => drop(black_box(out)),
                    Err(_) => facade.failed += 1,
                }
            }
        }
    }
    facade
}

/// Timings and checks of one mirror run.
#[derive(Debug, Default)]
struct Mirror {
    /// Wall time of each operation, seconds.
    op_s: Vec<f64>,
    /// Time inside `SmallCnn::features` per operation, seconds.
    features_s: Vec<f64>,
    mismatched: u64,
    checked: u64,
}

/// The scenario's functional CNN, as `Session` builds it.
fn functional_cnn(scenario: &Scenario) -> Result<SmallCnn, PfError> {
    let f = scenario.functional;
    Ok(SmallCnn::new(
        f.input_channels,
        f.input_size,
        f.weight_seed,
    )?)
}

/// Mirrors `Session::run_batch` / `run_inference`: `images_per_op` images
/// per operation through `SmallCnn::features` on a `TiledExecutor` over
/// the engine `make` builds — one shared, warmed executor on
/// deterministic backends, one fresh seeded engine per image (seed =
/// position in the batch) on stochastic ones. With a recorder, each
/// operation, engine instantiation and `features` call gets a span.
fn mirror_features<E: Conv1dEngine>(
    workload: &Offline,
    session: &Session,
    make: &dyn Fn(u64) -> Result<E, PfError>,
    recorder: Option<&Recorder>,
    images_per_op: usize,
    until: Stop,
) -> Result<Mirror, PfError> {
    let scenario = session.scenario();
    let cnn = functional_cnn(scenario)?;
    let capacity = scenario.backend.capacity;
    let executor = |seed: u64| -> Result<TiledExecutor<E>, PfError> {
        Ok(TiledExecutor::new(
            make(seed)?,
            capacity,
            scenario.pipeline,
        )?)
    };
    let shared = if session.is_stochastic() {
        None
    } else {
        let shared = executor(0)?;
        let zero = Tensor::zeros(workload.images()[0].shape().to_vec());
        let _span = recorder.map(|r| r.enter("mirror.warmup"));
        cnn.features(&zero, &shared)?;
        Some(shared)
    };

    let mut mirror = Mirror::default();
    let begin = Instant::now();
    for op in 0.. {
        if until.reached(begin, op as u64) {
            break;
        }
        let first = (op * images_per_op) % POOL;
        let mut features_s = 0.0;
        let mut outputs = Vec::with_capacity(images_per_op);
        let op_start = Instant::now();
        {
            let _span = recorder.map(|r| r.enter("mirror.op"));
            for slot in 0..images_per_op {
                let fresh;
                let executor = match &shared {
                    Some(shared) => shared,
                    None => {
                        let _span = recorder.map(|r| r.enter("pf-core.backend_instantiate"));
                        fresh = executor(slot as u64)?;
                        &fresh
                    }
                };
                let t0 = Instant::now();
                let features = {
                    let _span = recorder.map(|r| r.enter("pf-nn.features"));
                    cnn.features(&workload.images()[first + slot], executor)?
                };
                features_s += t0.elapsed().as_secs_f64();
                outputs.push(features);
            }
        }
        mirror.op_s.push(op_start.elapsed().as_secs_f64());
        mirror.features_s.push(features_s);
        if (mirror.checked as usize) < CHECKED_OPS {
            let args = Args::Images {
                first,
                count: images_per_op,
            };
            let rows: Vec<&[f64]> = outputs.iter().map(Vec::as_slice).collect();
            mirror.checked += 1;
            if !same_bits(&rows, &workload.reference(session, &args)?) {
                mirror.mismatched += 1;
            }
        }
    }
    Ok(mirror)
}

/// Mirrors `Session::conv2d_multi`: the seeded plane against
/// [`KERNELS_PER_CALL`] fresh kernels per operation on a serial-tile
/// `TiledConvolver` (what the facade picks on a width-1 pool).
fn mirror_conv<E: Conv1dEngine>(
    workload: &Offline,
    session: &Session,
    engine: E,
    recorder: Option<&Recorder>,
    kernels: &mut KernelStream,
    until: Stop,
) -> Result<Mirror, PfError> {
    let convolver = TiledConvolver::new(engine, session.scenario().backend.capacity)?
        .with_grain(ParallelGrain::Image);
    let mut mirror = Mirror::default();
    let begin = Instant::now();
    for op in 0.. {
        if until.reached(begin, op as u64) {
            break;
        }
        let fresh = kernels.take(KERNELS_PER_CALL);
        let t0 = Instant::now();
        let planes = {
            let _op = recorder.map(|r| r.enter("mirror.op"));
            let _span = recorder.map(|r| r.enter("pf-tiling.conv2d"));
            convolver.correlate2d_valid_multi(workload.plane(), &fresh)?
        };
        mirror.op_s.push(t0.elapsed().as_secs_f64());
        if (mirror.checked as usize) < CHECKED_OPS {
            let rows: Vec<&[f64]> = planes.iter().map(Matrix::data).collect();
            mirror.checked += 1;
            if !same_bits(&rows, &workload.reference(session, &Args::Kernels(fresh))?) {
                mirror.mismatched += 1;
            }
        }
    }
    Ok(mirror)
}

/// The kernels `TiledExecutor::forward` hands row tiling for input channel
/// `i` of `layer` (both halves of every filter under pseudo-negative
/// weights).
fn layer_kernels(layer: &Conv2d, i: usize, pseudo_negative: bool) -> Vec<Matrix> {
    let mut kernels = Vec::new();
    for o in 0..layer.out_channels() {
        let plane = layer.weights.filter_plane(o, i);
        if pseudo_negative {
            let (pos, neg) = split_pseudo_negative(&plane);
            kernels.push(pos);
            kernels.push(neg);
        } else {
            kernels.push(plane);
        }
    }
    kernels
}

/// Replays, directly on a traced convolver, the 2D convolutions one image
/// costs: every input channel of both layers against that channel's
/// kernel stack, at the layers' real shapes. Each call gets a
/// `pf-tiling.conv2d` span whose children are the engine's spans, so its
/// self time is row tiling's own glue.
fn replay_convolutions(
    session: &Session,
    recorder: &Arc<Recorder>,
    images: &[Tensor],
) -> Result<(), PfError> {
    let scenario = session.scenario();
    let cnn = functional_cnn(scenario)?;
    let pipeline = scenario.pipeline;
    let convolver =
        |seed: u64| -> Result<TiledConvolver<TracedEngine<Box<dyn Backend>>>, PfError> {
            let engine = TracedEngine::new(
                scenario.backend.instantiate_seeded(seed)?,
                Arc::clone(recorder),
            );
            Ok(TiledConvolver::new(engine, scenario.backend.capacity)?
                .with_grain(ParallelGrain::Image))
        };
    let shared = if session.is_stochastic() {
        None
    } else {
        Some(convolver(0)?)
    };
    // Pass 0 fills the shared convolver's kernel cache outside the
    // measured spans (stochastic engines re-prepare per image by design).
    for pass in 0..=REPLAY_IMAGES {
        let image = &images[pass % images.len()];
        let fresh;
        let convolver = match &shared {
            Some(shared) => shared,
            None => {
                fresh = convolver(pass as u64)?;
                &fresh
            }
        };
        let _warm = (pass == 0).then(|| recorder.enter("mirror.warmup"));
        let mut side = scenario.functional.input_size;
        for layer in [cnn.conv1(), cnn.conv2()] {
            for i in 0..layer.in_channels() {
                let plane = if layer.in_channels() == image.shape()[0] {
                    image.channel(i)
                } else {
                    // A pooled activation plane: same shape as the real
                    // one, values from the image (time does not depend on
                    // them).
                    let data = image.data().iter().cycle().skip(i).take(side * side);
                    Matrix::new(side, side, data.copied().collect())?
                };
                let kernels = layer_kernels(layer, i, pipeline.pseudo_negative);
                let _span = (pass > 0).then(|| recorder.enter("pf-tiling.conv2d"));
                let planes = if layer.padded {
                    convolver.correlate2d_same_multi(&plane, &kernels, pipeline.edge_handling)?
                } else {
                    convolver.correlate2d_valid_multi(&plane, &kernels)?
                };
                black_box(planes);
            }
            side /= 2;
        }
    }
    Ok(())
}

/// Sums over the recorded spans that the per-layer shares are built from.
#[derive(Debug, Default, Clone, Copy)]
struct SpanSums {
    features_ns: u64,
    features: usize,
    engine_in_features_ns: u64,
    conv2d_ns: u64,
    conv2d_self_ns: u64,
    prepares_in_ops: usize,
    ops: usize,
}

fn span_sums(spans: &[Span]) -> SpanSums {
    let self_ns = spans::self_times_ns(spans);
    let in_features = spans::ancestor_named(spans, "pf-nn.features");
    let in_op = spans::ancestor_named(spans, "mirror.op");
    let mut sums = SpanSums::default();
    for (i, span) in spans.iter().enumerate() {
        match span.name {
            "pf-nn.features" => {
                sums.features_ns += span.dur_ns();
                sums.features += 1;
            }
            "pf-tiling.conv2d" => {
                sums.conv2d_ns += span.dur_ns();
                sums.conv2d_self_ns += self_ns[i];
            }
            "mirror.op" => sums.ops += 1,
            name if names::ALL.contains(&name) => {
                if in_features[i].is_some() {
                    sums.engine_in_features_ns += span.dur_ns();
                }
                if name == names::PREPARE_KERNEL && in_op[i].is_some() {
                    sums.prepares_in_ops += 1;
                }
            }
            _ => {}
        }
    }
    sums
}

/// Runs the offline ladder for `workload` and records every per-layer
/// metric except the serving-tier counters, which `route_closed` fills
/// from its router and every other workload reports as 0. Returns the p99
/// of the facade call's wall time in milliseconds.
fn ladder(
    out: &mut Outcome,
    recorder: &Arc<Recorder>,
    workload: &mut Offline,
    seed: u64,
    seconds: f64,
) -> Result<f64, PfError> {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    // Set-up, with its parts.
    let (mut build_us, mut warmup_us) = (Vec::new(), Vec::new());
    let mut plain = None;
    let mut setup_failed = 0;
    for _ in 0..SETUPS {
        drop(plain.take());
        let setup = recorder.within("setup", || workload.cold_setup(Telemetry::disabled()))?;
        build_us.push(setup.build_s * 1e6);
        warmup_us.push(setup.warmup_s * 1e6);
        setup_failed += setup.failed;
        plain = Some(setup.session);
    }
    let plain = plain.expect("SETUPS is at least 1");
    let observed = workload.cold_setup(Telemetry::enabled())?;
    setup_failed += observed.failed;
    let observed = observed.session;
    out.count(((SETUPS + 1) * WARM_OPS) as u64, setup_failed);
    out.metric("session.build_us", median(&mut build_us));
    out.metric("session.warmup_us", median(&mut warmup_us));

    // (a) The facade, telemetry off against on.
    let telemetry = observed.telemetry().clone();
    let counters_before = telemetry.snapshot();
    let stages_before = telemetry.stage_totals();
    let grows_before = pf_dsp::scratch::scratch_stats().grows;
    let mut facade = facade_section(workload, recorder, &plain, &observed, budget(FACADE_SHARE));
    let grows = pf_dsp::scratch::scratch_stats().grows - grows_before;
    let counters = telemetry.snapshot().delta_since(&counters_before);
    let stages = telemetry.stage_totals().delta_since(&stages_before);

    out.count(
        (facade.plain_s.len() + facade.observed_s.len()) as u64,
        facade.failed,
    );
    let (mismatched, out_rel_err) = workload.check(&plain, &facade.kept)?;
    out.check(mismatched, facade.kept.len() as u64);
    out.rel_err(out_rel_err, rel_err_limit(&plain));

    let items = workload.op.items() as f64;
    let observed_images = facade.observed_s.len() as f64 * items;
    let plain_op_s = quantile(&mut facade.plain_s, 0.10);
    let facade_p99_ms = quantile(&mut facade.plain_s, 0.99) * 1e3;
    let observed_op_s = quantile(&mut facade.observed_s, 0.10);
    out.summary_row(
        facade_span(workload.op),
        "s",
        Summary::of(&mut facade.plain_s),
    );
    out.metric(
        "pf-telemetry.overhead_share",
        (observed_op_s - plain_op_s) / plain_op_s,
    );
    out.metric(
        "pf-telemetry.spans_dropped",
        telemetry.dropped_spans() as f64,
    );
    out.metric("pf-dsp.scratch_grows", grows as f64);
    for (name, stage) in [
        ("pf-jtc.stage_signal_fft_share", Stage::SignalFft),
        ("pf-jtc.stage_spectrum_apply_share", Stage::SpectrumApply),
        ("pf-jtc.stage_inverse_share", Stage::Inverse),
        ("pf-jtc.stage_dac_adc_share", Stage::DacAdc),
    ] {
        out.metric(
            name,
            share(stages.stage_ns(stage) as f64, stages.total_ns() as f64),
        );
    }
    out.metric(
        "pf-tiling.convs_1d_per_image",
        share(counters.counter("tiling.convs_1d") as f64, observed_images),
    );
    out.metric(
        "pf-tiling.tiles_per_image",
        share(counters.counter("tiling.tiles") as f64, observed_images),
    );
    let (hits, misses) = (
        counters.counter("tiling.spectrum_hits") as f64,
        counters.counter("tiling.spectrum_misses") as f64,
    );
    out.metric("pf-tiling.spectrum_hit_ratio", share(hits, hits + misses));
    drop(observed);

    // (b) The mirror: traced for the shares, untraced for the residual.
    let scenario = plain.scenario().clone();
    let plain_engine = |seed: u64| scenario.backend.instantiate_seeded(seed);
    let traced_engine = |seed: u64| {
        Ok(TracedEngine::new(
            scenario.backend.instantiate_seeded(seed)?,
            Arc::clone(recorder),
        ))
    };
    let mut mirror_kernels = KernelStream::new(seed ^ 0x6D69_7272_6F72);
    let (traced, untraced) = if workload.op == Op::ConvMulti {
        (
            mirror_conv(
                workload,
                &plain,
                traced_engine(0)?,
                Some(recorder.as_ref()),
                &mut mirror_kernels,
                Stop::After(TRACED_ITEMS),
            )?,
            mirror_conv(
                workload,
                &plain,
                plain_engine(0)?,
                None,
                &mut mirror_kernels,
                Stop::Elapsed(budget(MIRROR_SHARE)),
            )?,
        )
    } else {
        replay_convolutions(&plain, recorder, workload.images())?;
        let per_op = workload.op.items();
        (
            mirror_features(
                workload,
                &plain,
                &traced_engine,
                Some(recorder.as_ref()),
                per_op,
                Stop::After(TRACED_ITEMS / per_op),
            )?,
            mirror_features(
                workload,
                &plain,
                &plain_engine,
                None,
                per_op,
                Stop::Elapsed(budget(MIRROR_SHARE)),
            )?,
        )
    };
    out.check(
        traced.mismatched + untraced.mismatched,
        traced.checked + untraced.checked,
    );

    let sums = span_sums(&recorder.spans());
    out.metric(
        "pf-tiling.self_share",
        share(sums.conv2d_self_ns as f64, sums.conv2d_ns as f64),
    );
    out.metric(
        "pf-tiling.prepares_per_call",
        share(sums.prepares_in_ops as f64, sums.ops as f64),
    );
    // pf-nn's own time per image: the features span minus the engine time
    // inside it minus row tiling's glue, the last taken from the replayed
    // convolutions (the executor calls row tiling where no outside span
    // can reach).
    let replayed = (sums.conv2d_ns > 0 && sums.features > 0).then_some(REPLAY_IMAGES as f64);
    let nn_self_share = replayed.map_or(0.0, |images| {
        let features = sums.features_ns as f64 / sums.features as f64;
        let engine = sums.engine_in_features_ns as f64 / sums.features as f64;
        let tiling = sums.conv2d_self_ns as f64 / images;
        (features - engine - tiling) / features
    });
    out.metric("pf-nn.self_share", nn_self_share);

    let mut untraced_op_s = untraced.op_s.clone();
    let mirror_op_s = quantile(&mut untraced_op_s, 0.10);
    out.metric(
        "session.unattributed_share",
        (plain_op_s - mirror_op_s) / plain_op_s,
    );

    // (c) Direct calls into each layer.
    let prober = Prober::new(Arc::clone(recorder), budget(PROBE_SHARE));
    probes::lower_layers(out, &prober, &scenario, &workload.scenario_path, seed)?;
    probes::oracle_and_arch(out, &prober, &plain, &workload.images()[0])?;
    probes::serving_floors(out, &prober, &scenario)?;

    // pf-nn.forward_us: one image through `features` on the workload's
    // backend (the untraced mirror already timed exactly that unless the
    // workload has no CNN on its path).
    let forward_us = if workload.op == Op::ConvMulti {
        let single = mirror_features(
            workload,
            &plain,
            &plain_engine,
            None,
            1,
            Stop::Elapsed(budget(PROBE_SHARE)),
        )?;
        quantile(&mut single.features_s.clone(), 0.10) * 1e6
    } else {
        quantile(&mut untraced.features_s.clone(), 0.10) * 1e6 / items
    };
    out.metric("pf-nn.forward_us", forward_us);

    // pf-tiling.conv2d_multi_us: the layer-geometry multi-kernel call with
    // kernels that repeat, i.e. row tiling with a warm kernel cache.
    let convolver = TiledConvolver::new(plain_engine(0)?, scenario.backend.capacity)?
        .with_grain(ParallelGrain::Image);
    let warm_kernels = KernelStream::new(seed ^ 0x7761_726D).take(KERNELS_PER_CALL);
    out.metric(
        "pf-tiling.conv2d_multi_us",
        prober.p10_us("pf-tiling.conv2d_multi", || {
            black_box(
                convolver
                    .correlate2d_valid_multi(workload.plane(), &warm_kernels)
                    .expect("a 3 x 3 kernel fits the plane"),
            );
        }),
    );

    // The facade's single-item call, and the batched call against it.
    let mut single_kernels = KernelStream::new(seed ^ 0x7369_6E67);
    let image = &workload.images()[0];
    let single_us = prober.p10_us("session.single", || {
        if workload.op == Op::ConvMulti {
            let kernel = single_kernels.take(1);
            black_box(
                plain
                    .conv2d(workload.plane(), &kernel[0])
                    .expect("kernel fits"),
            );
        } else {
            black_box(plain.run_inference_seeded(image, 0).expect("pool image"));
        }
    });
    let per_item_us = plain_op_s * 1e6
        / if workload.op == Op::ConvMulti {
            KERNELS_PER_CALL as f64
        } else {
            items
        };
    out.metric("session.run_inference_us", single_us);
    out.metric(
        "session.batch_overhead_share",
        (per_item_us - single_us) / single_us,
    );

    // The same facade call on a pool as wide as the host.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(host::nproc())
        .build()
        .expect("the vendored rayon never refuses a width");
    let mut k = 0;
    let wide_us = wide.install(|| {
        prober.p10_us("session.wide_pool", || {
            let args = workload.args(k);
            k += 1;
            black_box(workload.call(&plain, &args).ok());
        })
    });
    out.metric("session.par_speedup", plain_op_s * 1e6 / wide_us);
    Ok(facade_p99_ms)
}

/// The serving-tier counters of an offline workload: not on its path.
fn no_serving_tier(out: &mut Outcome) {
    for name in [
        "pf-serve.queue_wait_p50_ms",
        "pf-serve.service_p50_ms",
        "pf-serve.batch_mean",
        "pf-serve.queue_high_water",
        "pf-router.model_cache_hit_ratio",
        "pf-router.replica_imbalance",
        "pf-router.spills",
        "pf-router.retries",
    ] {
        out.metric(name, 0.0);
    }
}

/// The serving-tier counters of `route_closed`, from `Router::drain`.
fn serving_tier(out: &mut Outcome, stats: &RouterStats) {
    let served: f64 = stats.replicas.iter().map(|r| r.server.served as f64).sum();
    let weighted = |f: &dyn Fn(&pf_serve::ServerStats) -> f64| {
        share(
            stats
                .replicas
                .iter()
                .map(|r| f(&r.server) * r.server.served as f64)
                .sum::<f64>(),
            served,
        )
    };
    out.metric(
        "pf-serve.queue_wait_p50_ms",
        weighted(&|s| s.queue_wait.p50_ms),
    );
    out.metric("pf-serve.service_p50_ms", weighted(&|s| s.service.p50_ms));
    out.metric("pf-serve.batch_mean", weighted(&|s| s.mean_batch_size()));
    out.metric(
        "pf-serve.queue_high_water",
        stats
            .replicas
            .iter()
            .map(|r| r.server.queue_high_water as f64)
            .fold(0.0, f64::max),
    );
    out.metric("pf-router.model_cache_hit_ratio", stats.cache().hit_rate());
    let dispatched: Vec<f64> = stats.replicas.iter().map(|r| r.dispatched as f64).collect();
    let (most, least) = dispatched
        .iter()
        .fold((0.0, f64::INFINITY), |(hi, lo): (f64, f64), &d| {
            (hi.max(d), lo.min(d))
        });
    out.metric(
        "pf-router.replica_imbalance",
        share(most - least, dispatched.iter().sum()),
    );
    out.metric("pf-router.spills", stats.spills as f64);
    out.metric("pf-router.retries", stats.retries as f64);
}

/// The traced run of workload `name`: the per-layer metrics, and the
/// Chrome trace written to `benchmark/out/trace_<name>.json`.
///
/// # Errors
///
/// Scenario, session, tier or trace-file errors.
pub fn run_traced(name: &'static str, op: Op, seed: u64, seconds: f64) -> Result<Outcome, PfError> {
    let index = spec::workload_index(name).expect("a declared workload") as u32;
    let recorder = Arc::new(Recorder::new(index + 1));
    let mut out = Outcome::new(name);
    let before = host::calibrate();

    let mut workload = Offline::new(name, op, seed);
    let lat_p99_ms = if name == route::NAME {
        route::pin_global_pool();
        let mut traffic = Traffic::new(seed)?;
        let (router, _, warm_failed) = recorder.within("setup", || traffic.cold_setup())?;
        let phase = Phase::run(
            &mut traffic,
            &router,
            seconds * ROUTER_SHARE,
            Some(recorder.as_ref()),
        );
        let stats = router.drain()?;
        let (attempted, failed) = phase.counts();
        out.count(attempted + WARM_OPS as u64, failed + warm_failed);
        let (mismatched, _) = traffic.check(&phase.kept)?;
        out.check(mismatched, phase.kept.len() as u64);
        serving_tier(&mut out, &stats);
        ladder(
            &mut out,
            &recorder,
            &mut workload,
            seed,
            seconds * (1.0 - ROUTER_SHARE),
        )?;
        let mut window2: Vec<f64> = phase
            .latency
            .iter()
            .flat_map(|round| round.latencies.iter().copied())
            .collect();
        quantile(&mut window2, 0.99) * 1e3
    } else {
        no_serving_tier(&mut out);
        ladder(&mut out, &recorder, &mut workload, seed, seconds)?
    };

    let after = host::calibrate();
    out.metric("host.calib_fma_ms", before.fma_ms.min(after.fma_ms));
    out.metric("host.calib_triad_ms", before.triad_ms.min(after.triad_ms));
    out.metric("host.calib_drift", host::drift(before, after));
    let (failed_share, mismatch_share, out_rel_err) =
        (out.failed_share(), out.mismatch_share(), out.out_rel_err);
    out.metric("failed_share", failed_share);
    out.metric("mismatch_share", mismatch_share);
    out.metric("out_rel_err", out_rel_err);
    out.metric("lat_p99_ms", lat_p99_ms);

    let spans = recorder.spans();
    let trace = spans::chrome_trace(&spans, recorder.workload(), name);
    match pf_telemetry::validate_chrome_trace(&trace) {
        Ok(stats) => out.rows.push(format!(
            "trace spans={} tracks={}",
            stats.pairs, stats.tracks
        )),
        Err(problem) => out.require(false, format!("invalid Chrome trace: {problem}")),
    }
    let dir = crate::offline::bench_dir().join("out");
    let path = dir.join(format!("trace_{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace))
        .map_err(|e| PfError::invalid_scenario(format!("writing {}: {e}", path.display())))?;
    Ok(out)
}
