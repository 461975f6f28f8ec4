//! The `route_closed` workload: one generator thread drives
//! `route_scenario`'s tier in a closed loop with a fixed window of
//! outstanding requests, alternating latency rounds (window 2) and
//! throughput rounds (window 8).
//!
//! Closed, not open: callers of this tier wait for their replies, and on a
//! shared two-core host open-loop numbers are set by whole-VM stalls
//! rather than by the program (see `README.md`).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pf_dsp::util::relative_l2_error;
use pf_nn::Tensor;
use pf_router::RouterRequest;
use pf_serve::Ticket;
use photofourier::route::{self, ModelRequest, SessionRouter};
use photofourier::{PfError, Scenario, Session};

use crate::host;
use crate::inputs;
use crate::offline::{
    cold_setups, common_rows, digital_twin, rel_err_limit, same_bits, scenario_path, simulated,
    CHECKED_OPS, POOL, WARM_OPS,
};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{quantile, quantile_sorted, quiet, Summary};

/// Workload name.
pub const NAME: &str = "route_closed";
/// Outstanding requests in a latency round: exposes the fixed per-request
/// cost (admission, queue hand-off, batch window, wake-ups).
pub const WINDOW_LATENCY: usize = 2;
/// Outstanding requests in a throughput round: exposes batch formation.
pub const WINDOW_THROUGHPUT: usize = 8;
/// Length of one round. Twice the offline rounds' length, because every
/// round starts with an empty tier and ends by letting its window drain
/// (about one service time, 4 ms, that earns no completions).
pub const ROUND_SECS: f64 = 0.25;
/// Length of the seeded model sequence (cycled).
const MODEL_SEQUENCE: usize = 1 << 12;

/// The seeded traffic: an image pool and a model-variant sequence.
#[derive(Debug)]
pub struct Traffic {
    /// Seeded images, cycled by request number.
    pub images: Vec<Tensor>,
    /// Model variant of each request, cycled by request number.
    pub models: Vec<u64>,
    /// The workload's scenario.
    pub scenario: Scenario,
    next: usize,
}

/// One completed request kept for checking.
#[derive(Debug)]
pub struct Kept {
    /// Request number (indexes the image pool and the model sequence).
    pub k: usize,
    /// The served features.
    pub output: Tensor,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Submit → completion instant of every completed request, seconds.
    pub latencies: Vec<f64>,
    /// Round start → last completion, seconds.
    pub wall_s: f64,
    /// Requests submitted (accepted or refused).
    pub attempted: u64,
    /// Requests refused at admission or failed by a replica.
    pub failed: u64,
}

struct InFlight {
    k: usize,
    submitted: Instant,
    lane: u32,
    ticket: Ticket<Tensor>,
}

impl Traffic {
    /// Loads the workload scenario and generates the traffic of `seed`.
    ///
    /// # Errors
    ///
    /// Scenario parse or validation errors.
    pub fn new(seed: u64) -> Result<Self, PfError> {
        let scenario = Scenario::from_path(scenario_path(NAME))?;
        let models = scenario
            .serving
            .as_ref()
            .and_then(|s| s.router.as_ref())
            .map_or(1, |r| r.models) as u64;
        Ok(Self {
            images: inputs::images(seed, POOL, 1, 16),
            models: inputs::model_sequence(seed, MODEL_SEQUENCE, models),
            scenario,
            next: 0,
        })
    }

    fn image(&self, k: usize) -> &Tensor {
        &self.images[k % self.images.len()]
    }

    fn model(&self, k: usize) -> u64 {
        self.models[k % self.models.len()]
    }

    /// Builds the tier and sends [`WARM_OPS`] requests through it so every
    /// model variant is resident where its affinity places it. Returns the
    /// router, the set-up time and how many warm requests failed.
    ///
    /// # Errors
    ///
    /// Scenario or tier construction errors.
    pub fn cold_setup(&mut self) -> Result<(SessionRouter, f64, u64), PfError> {
        let t0 = Instant::now();
        let scenario = Scenario::from_path(scenario_path(NAME))?;
        let router = route::route_scenario(scenario)?;
        let warm = self.round(&router, WINDOW_LATENCY, Stop::After(WARM_OPS), None, None);
        Ok((router, t0.elapsed().as_secs_f64(), warm.failed))
    }

    /// One closed-loop round: keeps `window` requests outstanding until
    /// `stop`, then lets the outstanding ones finish. Latency runs from
    /// just before `Router::submit` to the completion instant the replica
    /// stamped (`RouterTicket::detach().wait_timed()`), so waiting on the
    /// oldest ticket first never inflates a younger request's latency.
    pub fn round(
        &mut self,
        router: &SessionRouter,
        window: usize,
        stop: Stop,
        recorder: Option<&Recorder>,
        mut keep: Option<&mut Vec<Kept>>,
    ) -> Round {
        let mut round = Round::default();
        let begin = Instant::now();
        let mut last_completion = begin;
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let mut free_lanes: Vec<u32> = (1..=window as u32).rev().collect();
        loop {
            while in_flight.len() < window && !stop.reached(begin, round.attempted) {
                let k = self.next;
                self.next += 1;
                round.attempted += 1;
                let request =
                    ModelRequest::new(self.image(k).clone(), self.model(k)).with_seed(k as u64);
                let request = RouterRequest::new(request).with_affinity(self.model(k));
                let submitted = Instant::now();
                let ticket = {
                    let _span = recorder.map(|r| r.enter("pf-router.submit"));
                    router.submit(request).map(|t| t.detach())
                };
                match ticket {
                    Ok(ticket) => in_flight.push_back(InFlight {
                        k,
                        submitted,
                        lane: free_lanes.pop().expect("one lane per window slot"),
                        ticket,
                    }),
                    Err(_) => round.failed += 1,
                }
            }
            let Some(oldest) = in_flight.pop_front() else {
                break;
            };
            let (result, completed) = {
                let _span = recorder.map(|r| r.enter("route.wait"));
                oldest.ticket.wait_timed()
            };
            free_lanes.push(oldest.lane);
            last_completion = last_completion.max(completed);
            if let Some(r) = recorder {
                r.record("route.request", oldest.submitted, completed, oldest.lane);
            }
            match result {
                Ok(output) => {
                    round.latencies.push(
                        completed
                            .saturating_duration_since(oldest.submitted)
                            .as_secs_f64(),
                    );
                    if let Some(kept) = keep.as_deref_mut() {
                        if kept.len() < CHECKED_OPS {
                            kept.push(Kept {
                                k: oldest.k,
                                output,
                            });
                        }
                    }
                }
                Err(_) => round.failed += 1,
            }
        }
        round.wall_s = (last_completion - begin).as_secs_f64();
        round
    }

    /// Compares kept outputs bit for bit with offline
    /// `Session::run_inference` on the request's model variant, and
    /// returns `(mismatched, out_rel_err against digital)`.
    ///
    /// # Errors
    ///
    /// Session construction or inference errors.
    pub fn check(&self, kept: &[Kept]) -> Result<(u64, f64), PfError> {
        let variants = self.models.iter().copied().max().unwrap_or(0) + 1;
        let mut sessions = Vec::new();
        for model in 0..variants {
            let session = Session::from_scenario(route::model_scenario(&self.scenario, model))?;
            let digital = digital_twin(&session)?;
            sessions.push((session, digital));
        }
        let (mut mismatched, mut ours, mut exact) = (0, Vec::new(), Vec::new());
        for kept in kept {
            let (session, digital) = &sessions[self.model(kept.k) as usize];
            let offline = session.run_inference(self.image(kept.k))?;
            if !same_bits(&[offline.data()], &[kept.output.data().to_vec()]) {
                mismatched += 1;
            }
            ours.extend_from_slice(kept.output.data());
            exact.extend_from_slice(digital.run_inference(self.image(kept.k))?.data());
        }
        Ok((mismatched, relative_l2_error(&ours, &exact)))
    }
}

/// When a round (or a mirror run of the ladder) stops starting operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many submissions.
    After(usize),
    /// Once this much time has passed since the round began.
    Elapsed(Duration),
}

impl Stop {
    /// Whether a loop that began at `begin` and has started `attempted`
    /// operations is done.
    pub fn reached(self, begin: Instant, attempted: u64) -> bool {
        match self {
            Stop::After(n) => attempted >= n as u64,
            Stop::Elapsed(d) => begin.elapsed() >= d,
        }
    }
}

/// Pins the process-wide rayon pool to width 1: replica workers are
/// threads of their own, so a scoped pool on the generator thread would
/// not reach them, and the two replica workers should be the only busy
/// threads.
pub fn pin_global_pool() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the vendored rayon never refuses a global width");
}

/// The alternating rounds of one measured phase: a latency round, then a
/// throughput round, each [`ROUND_SECS`] long, for `seconds` in total.
#[derive(Debug, Default)]
pub struct Phase {
    /// Window-2 rounds.
    pub latency: Vec<Round>,
    /// Window-8 rounds.
    pub throughput: Vec<Round>,
    /// First completions, kept for checking.
    pub kept: Vec<Kept>,
}

impl Phase {
    /// Runs the alternating rounds.
    pub fn run(
        traffic: &mut Traffic,
        router: &SessionRouter,
        seconds: f64,
        recorder: Option<&Recorder>,
    ) -> Self {
        let each = Stop::Elapsed(Duration::from_secs_f64(ROUND_SECS));
        let mut phase = Phase::default();
        let begin = Instant::now();
        while begin.elapsed().as_secs_f64() < seconds {
            let _span = recorder.map(|r| r.enter("route.round.window2"));
            let round = traffic.round(
                router,
                WINDOW_LATENCY,
                each,
                recorder,
                Some(&mut phase.kept),
            );
            phase.latency.push(round);
            drop(_span);
            let _span = recorder.map(|r| r.enter("route.round.window8"));
            let round = traffic.round(
                router,
                WINDOW_THROUGHPUT,
                each,
                recorder,
                Some(&mut phase.kept),
            );
            phase.throughput.push(round);
        }
        phase
    }

    /// `(attempted, failed)` over every round.
    pub fn counts(&self) -> (u64, u64) {
        self.latency
            .iter()
            .chain(&self.throughput)
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }

    /// The latencies, in ascending milliseconds, of the quiet quarter of the
    /// latency rounds: the rounds with the lowest p10, which is the service
    /// time of a request that met no queue and so depends on the host, not
    /// on the round's model mix.
    pub fn quiet_latencies_ms(&self) -> Vec<f64> {
        let mut rounds: Vec<(f64, &Round)> = self
            .latency
            .iter()
            .filter(|r| !r.latencies.is_empty())
            .map(|r| (quantile(&mut r.latencies.clone(), 0.10), r))
            .collect();
        rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut pooled: Vec<f64> = rounds[..quiet_count(rounds.len())]
            .iter()
            .flat_map(|(_, r)| r.latencies.iter().map(|l| l * 1e3))
            .collect();
        pooled.sort_by(f64::total_cmp);
        pooled
    }

    /// Completions ÷ wall over the quarter of the throughput rounds with
    /// the highest rate, 1/s.
    pub fn goodput_rps(&self) -> f64 {
        let mut rounds: Vec<&Round> = self.throughput.iter().filter(|r| r.wall_s > 0.0).collect();
        let rate = |r: &Round| r.latencies.len() as f64 / r.wall_s;
        rounds.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        let quiet = &rounds[..quiet_count(rounds.len())];
        let completions: usize = quiet.iter().map(|r| r.latencies.len()).sum();
        completions as f64 / quiet.iter().map(|r| r.wall_s).sum::<f64>()
    }
}

/// Share of a phase's rounds that count as quiet. Unlike an offline
/// workload's calls, a round here is a random sample of a traffic mix (which
/// models, which replica, who queued behind whom): its median and its rate
/// move by a third from round to round on a quiet host, so the best round
/// measures luck. The quiet quarter is pooled instead.
pub const QUIET_SHARE: f64 = 0.25;

fn quiet_count(rounds: usize) -> usize {
    assert!(rounds > 0, "a phase without a single completed round");
    ((rounds as f64 * QUIET_SHARE) as usize).max(1)
}

/// The untraced run of `route_closed`.
///
/// # Errors
///
/// Scenario, tier or reference-session errors.
pub fn run_untraced(seed: u64, seconds: f64) -> Result<Outcome, PfError> {
    pin_global_pool();
    let before = host::calibrate();
    let mut traffic = Traffic::new(seed)?;

    let (router, mut setup_s, mut failed) =
        cold_setups(|| traffic.cold_setup(), |router| router.drain().map(drop))?;

    let phase = Phase::run(&mut traffic, &router, seconds, None);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    router.drain()?;
    let after = host::calibrate();

    let (attempted, phase_failed) = phase.counts();
    failed += phase_failed;
    let (mismatched, out_rel_err) = traffic.check(&phase.kept)?;
    let reference = Session::from_scenario(traffic.scenario.clone())?;
    let sim = simulated(&reference)?;

    // The second cluster of set-ups, twenty seconds after the first.
    let (late_router, late_setup_s, late_failed) =
        cold_setups(|| traffic.cold_setup(), |router| router.drain().map(drop))?;
    late_router.drain()?;
    setup_s.extend(late_setup_s);
    failed += late_failed;

    let mut outcome = Outcome::new(NAME);
    outcome.count(attempted + (setup_s.len() * WARM_OPS) as u64, failed);
    outcome.metric("setup_s", quiet(&mut setup_s.clone(), true));
    let quiet_ms = phase.quiet_latencies_ms();
    outcome.metric("ms_per_image", quantile_sorted(&quiet_ms, 0.10));
    outcome.metric("goodput_rps", phase.goodput_rps());
    outcome.metric("lat_p50_ms", quantile_sorted(&quiet_ms, 0.50));
    outcome.metric("sim_fps", sim.fps);
    outcome.metric("sim_fps_per_w", sim.fps_per_w);
    outcome.metric("sim_edp_js", sim.edp_js);
    outcome.metric("peak_rss_mb", peak_rss_mb);
    outcome.check(mismatched, phase.kept.len() as u64);
    outcome.rel_err(out_rel_err, rel_err_limit(&reference));
    let mut pooled: Vec<f64> = phase
        .latency
        .iter()
        .flat_map(|r| r.latencies.iter().map(|l| l * 1e3))
        .collect();
    common_rows(&mut outcome, &mut pooled, &setup_s, before, after);
    let mut pooled8: Vec<f64> = phase
        .throughput
        .iter()
        .flat_map(|r| r.latencies.iter().map(|l| l * 1e3))
        .collect();
    outcome.summary_row("window8_latency_ms", "ms", Summary::of(&mut pooled8));
    Ok(outcome)
}
