//! Traffic serving: the `pf-serve` micro-batching inference server wired to
//! [`Session`].
//!
//! The server accepts a concurrent stream of single-image requests, forms
//! micro-batches under load and dispatches them through the session's
//! batched inference path, so the lowered layers (and, on multicore
//! hosts, per-image parallelism) is amortised across requests exactly like
//! an offline [`Session::run_batch`]. See `docs/SERVING.md` for the
//! configuration knobs, overload semantics and determinism guarantees.
//!
//! ```no_run
//! use photofourier::prelude::*;
//! use photofourier::serve;
//!
//! let scenario = Scenario::from_path("scenarios/serving_resnet18.toml")?;
//! let server = serve::serve_scenario(scenario)?;
//!
//! let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 1);
//! let features = server.submit(image)?.wait()?;   // submit() -> Ticket
//!
//! let stats = server.shutdown()?;
//! println!("p99 latency: {:.2} ms", stats.latency.p99_ms);
//! # Ok::<(), photofourier::PfError>(())
//! ```

use pf_core::{PfError, Scenario};
use pf_nn::Tensor;

pub use pf_serve::{
    BatchBucket, InferenceEngine, LatencySummary, RequestTrace, ServeConfig, Server, ServerStats,
    Ticket,
};

use crate::session::Session;

/// A [`pf_serve::Server`] whose engine is a facade [`Session`].
pub type SessionServer = Server<Session>;

impl InferenceEngine for Session {
    type Request = Tensor;
    type Response = Tensor;

    /// Runs a micro-batch through the session.
    ///
    /// Deterministic backends go through [`Session::run_batch`], so served
    /// results are bit-identical to the offline batch path no matter how
    /// the batcher grouped the requests. Stochastic backends run each
    /// request through [`Session::run_inference_seeded`] with its admission
    /// sequence number, so a request's noise stream is pinned to *its own*
    /// identity rather than its position inside whichever micro-batch
    /// formed around it.
    fn infer_batch(&self, inputs: &[Tensor], seqs: &[u64]) -> Result<Vec<Tensor>, PfError> {
        if self.is_stochastic() {
            inputs
                .iter()
                .zip(seqs)
                .map(|(image, &seq)| self.run_inference_seeded(image, seq))
                .collect()
        } else {
            self.run_batch(inputs)
        }
    }
}

/// Builds a warmed-up serving session from a scenario: the session is
/// constructed, [`Session::warmup`] lowers the network's layers, and the
/// server starts with the scenario's `[serving]` section
/// (or the [`ServeConfig`] defaults when the section is absent).
///
/// # Errors
///
/// Propagates session construction, warm-up and server configuration
/// errors.
pub fn serve_scenario(scenario: Scenario) -> Result<SessionServer, PfError> {
    let config = scenario
        .serving
        .as_ref()
        .map(ServeConfig::from_spec)
        .unwrap_or_default();
    serve_session(Session::from_scenario(scenario)?, config)
}

/// Like [`serve_scenario`] but over an already-built session and an
/// explicit configuration (the scenario's `[serving]` section is ignored).
/// A session built with an enabled [`Telemetry`](pf_telemetry::Telemetry)
/// handle lends it to the server, which adds `serve.*` counters plus
/// per-request span trees (request → queue / exec, batch → infer →
/// stages).
///
/// # Errors
///
/// Propagates warm-up and server configuration errors.
pub fn serve_session(session: Session, config: ServeConfig) -> Result<SessionServer, PfError> {
    session.warmup()?;
    let telemetry = session.telemetry().clone();
    Server::with_telemetry(session, config, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::{BackendKind, BackendSpec};

    #[test]
    fn session_is_shareable_across_server_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn serve_scenario_round_trips_requests() {
        let scenario = Scenario::new("serve_test", "resnet18", BackendSpec::digital(256));
        let server = serve_scenario(scenario.clone()).unwrap();
        let session = Session::from_scenario(scenario).unwrap();
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 11);
        let served = server.submit(image.clone()).unwrap().wait().unwrap();
        assert_eq!(served, session.run_inference(&image).unwrap());
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn stochastic_requests_are_seeded_by_sequence_number() {
        let scenario = Scenario::new("serve_cg", "resnet18", BackendSpec::photofourier_cg(256));
        let server = serve_scenario(scenario.clone()).unwrap();
        let session = Session::from_scenario(scenario).unwrap();
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, 40 + i))
            .collect();
        // Sequential blocking submits pin seq = submission order.
        for (i, image) in images.iter().enumerate() {
            let served = server.submit(image.clone()).unwrap().wait().unwrap();
            let offline = session.run_inference_seeded(image, i as u64).unwrap();
            assert_eq!(served, offline, "request {i}");
        }
        assert_eq!(server.shutdown().unwrap().served, 3);
        assert_eq!(BackendKind::PhotofourierCg.name(), "photofourier_cg");
    }
}
