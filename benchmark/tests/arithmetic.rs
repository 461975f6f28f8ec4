//! The arithmetic every reported number rests on: nearest-rank quantiles,
//! the quiet-round rule, the round cut of a timed phase, span self time and
//! span parent links.

use std::time::{Duration, Instant};

use pf_benchmark::offline::{
    cold_setups, rounds_of, timing_of, ROUND_CALLS, ROUND_SECS, SETUPS_MAX, SETUPS_MIN,
};
use pf_benchmark::route::{Phase, Round};
use pf_benchmark::spans::{
    ancestor_named, chrome_trace, self_times_ns, Recorder, Span, MAIN_TRACK,
};
use pf_benchmark::stats::{quantile, quantile_sorted, quiet, supported_tail, Summary};

#[test]
fn quantiles_are_nearest_rank_values_of_the_sample() {
    let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile_sorted(&sorted, 0.10), 1.0);
    assert_eq!(quantile_sorted(&sorted, 0.11), 2.0);
    assert_eq!(quantile_sorted(&sorted, 0.50), 5.0);
    assert_eq!(quantile_sorted(&sorted, 0.99), 10.0);
    assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
    assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    assert_eq!(quantile_sorted(&[7.0], 0.5), 7.0);
    assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
}

#[test]
fn the_reported_tail_has_ten_samples_beyond_it() {
    assert_eq!(supported_tail(99), None);
    assert_eq!(supported_tail(100), Some(0.9));
    assert_eq!(supported_tail(999), Some(0.95));
    assert_eq!(supported_tail(1000), Some(0.99));
    assert_eq!(supported_tail(10_000), Some(0.999));
    let mut sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    let summary = Summary::of(&mut sample);
    assert_eq!((summary.n, summary.p10, summary.p50), (1000, 100.0, 500.0));
    assert_eq!(summary.tail, Some((0.99, 990.0)));
}

#[test]
fn quiet_is_the_second_best_round() {
    // One fluke round cannot set the value; neither can any number of
    // contended ones, as long as two rounds were quiet.
    assert_eq!(quiet(&mut [9.0, 1.0, 9.0, 2.0, 9.0], true), 2.0);
    assert_eq!(quiet(&mut [9.0, 1.0, 9.0, 2.0, 9.0], false), 9.0);
    assert_eq!(quiet(&mut [3.0, 8.0, 5.0], false), 5.0);
    assert_eq!(quiet(&mut [4.0], true), 4.0);
}

#[test]
fn a_contended_stretch_does_not_move_the_timing() {
    // 1 ms calls back to back for 4 s; in the second variant all but the
    // first half second runs at half speed. The quiet rounds are untouched.
    let steady: Vec<(f64, f64)> = (0..4000).map(|k| (f64::from(k) * 1e-3, 1e-3)).collect();
    let mut contended = Vec::new();
    let mut t = 0.0;
    while t < 4.0 {
        let wall = if t < 0.5 { 1e-3 } else { 2e-3 };
        contended.push((t, wall));
        t += wall;
    }
    let a = timing_of(&steady, 8);
    let b = timing_of(&contended, 8);
    assert!((a.ms_per_image - 0.125).abs() < 1e-9);
    assert!((a.lat_p50_ms - 1.0).abs() < 1e-9);
    assert!((a.goodput_rps - 8000.0).abs() < 1e-6);
    assert!((b.ms_per_image - a.ms_per_image).abs() < 1e-9);
    assert!((b.lat_p50_ms - a.lat_p50_ms).abs() < 1e-9);
    assert!((b.goodput_rps - a.goodput_rps).abs() < 1e-6);
}

#[test]
fn a_round_is_long_enough_and_big_enough() {
    // Fast calls: the clock closes the round. 1 ms calls, 125 per round.
    let fast: Vec<(f64, f64)> = (0..300).map(|k| (f64::from(k) * 1e-3, 1e-3)).collect();
    let rounds = rounds_of(&fast);
    assert_eq!(
        rounds.len(),
        2,
        "the unfinished tail of 50 calls is left out"
    );
    assert!(rounds.iter().all(|r| r.len() == 125));
    assert_eq!(rounds[1][0], fast[125]);
    // Slow calls: the call count closes the round. 40 ms calls, 8 per round.
    let slow: Vec<(f64, f64)> = (0..20).map(|k| (f64::from(k) * 0.04, 0.04)).collect();
    let rounds = rounds_of(&slow);
    assert_eq!(rounds.len(), 2);
    assert!(rounds.iter().all(|r| r.len() == ROUND_CALLS));
    assert!(rounds_of(&slow[..7]).is_empty());
    assert!(ROUND_CALLS as f64 * 1e-3 < ROUND_SECS);
}

#[test]
fn cheap_setups_repeat_and_dear_ones_do_not() {
    let mut disposed = 0;
    let (_, cheap, failed) = cold_setups(
        || Ok::<_, ()>(((), 0.01, 1)),
        |()| {
            disposed += 1;
            Ok(())
        },
    )
    .unwrap();
    assert_eq!((cheap.len(), failed), (SETUPS_MAX, SETUPS_MAX as u64));
    assert_eq!(disposed, SETUPS_MAX - 1, "the last product is returned");
    let (_, dear, _) = cold_setups(|| Ok::<_, ()>(((), 1.0, 0)), |()| Ok(())).unwrap();
    assert_eq!(dear.len(), SETUPS_MIN);
    assert_eq!(
        cold_setups(|| Err::<((), f64, u64), _>("no"), |()| Ok(())),
        Err("no")
    );
}

#[test]
fn routed_rounds_pool_their_quiet_quarter() {
    let round = |latencies: Vec<f64>, wall_s: f64| Round {
        attempted: latencies.len() as u64,
        latencies,
        wall_s,
        failed: 0,
    };
    let mut phase = Phase::default();
    // Eight latency rounds; the two with the lowest p10 (1 ms) are quiet,
    // whatever their medians, and the others never reach the pool.
    phase.latency.push(round(vec![0.001, 0.004, 0.009], 0.25));
    for _ in 0..6 {
        phase.latency.push(round(vec![0.002, 0.002, 0.002], 0.25));
    }
    phase.latency.push(round(vec![0.001, 0.005, 0.005], 0.25));
    assert_eq!(phase.quiet_latencies_ms(), [1.0, 1.0, 4.0, 5.0, 5.0, 9.0]);
    // Eight throughput rounds; the best two by rate are pooled: 300
    // completions in 0.5 s.
    for completions in [50, 100, 60, 200, 70, 80, 90, 40] {
        phase.throughput.push(round(vec![0.003; completions], 0.25));
    }
    assert_eq!(phase.goodput_rps(), 600.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>, track: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        track,
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = [
        span("root", 0, 100, None, MAIN_TRACK),
        span("a", 10, 40, Some(0), MAIN_TRACK),
        // Overlaps `a` by 10 ns: the overlap is covered once.
        span("b", 30, 60, Some(0), MAIN_TRACK),
        span("a.child", 15, 25, Some(1), MAIN_TRACK),
        // Sticks out of its parent: only the part inside counts.
        span("late", 90, 130, Some(0), MAIN_TRACK),
        // Another lane (a routed request): not time the parent spent.
        span("request", 0, 100, Some(0), 3),
    ];
    assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 40, 100]);
}

#[test]
fn guards_record_the_open_span_as_parent() {
    let recorder = Recorder::new(1);
    {
        let _outer = recorder.enter("outer");
        {
            let _inner = recorder.enter("inner");
            let _leaf = recorder.enter("leaf");
        }
        let now = Instant::now();
        recorder.record("lane", now, now + Duration::from_micros(5), 2);
        let _sibling = recorder.enter("sibling");
    }
    recorder.within("next", || ());
    let spans = recorder.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["outer", "inner", "leaf", "lane", "sibling", "next"]);
    let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(1), Some(0), Some(0), None]);
    assert_eq!(spans[3].track, 2);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

    assert_eq!(
        ancestor_named(&spans, "outer"),
        [None, Some(0), Some(0), Some(0), Some(0), None]
    );
    assert_eq!(
        ancestor_named(&spans, "inner"),
        [None, None, Some(1), None, None, None]
    );

    let trace = chrome_trace(&spans, recorder.workload(), "unit");
    let stats = pf_telemetry::validate_chrome_trace(&trace).expect("a valid Chrome trace");
    assert_eq!(stats.pairs, spans.len());
}
