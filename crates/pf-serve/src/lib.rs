//! Dynamic micro-batching inference server.
//!
//! The paper's JTC pipeline amortizes per-kernel FFT cost across batched,
//! tiled work — a payoff that only materialises when many concurrent
//! requests are formed into batches *under load*. This crate supplies that
//! serving layer: a thread-based server (workers + `parking_lot` condvar
//! queues, no async runtime) that accepts a stream of requests, forms
//! micro-batches, dispatches them through any [`InferenceEngine`], and
//! accounts for every request's latency. The server is generic over the
//! request/response payload ([`InferenceEngine::Request`] /
//! [`InferenceEngine::Response`]), so a routing tier can serve richer
//! payloads than bare tensors.
//!
//! * [`ServeConfig`] — batch size, batch-formation timeout, bounded queue
//!   depth (admission control), worker count (`0` auto-sizes against
//!   rayon's global pool). The timeout is counted from the admission of a
//!   batch's oldest request, and workers wake at that deadline (their
//!   timer slack is 1 ns, not the kernel's default 50 µs);
//! * [`Server`] — [`Server::submit`] returns a per-request [`Ticket`];
//!   [`Server::try_submit`] attaches an absolute deadline (expired
//!   requests are never dispatched); [`Ticket::wait_deadline`]
//!   lets a caller abandon a request without leaking its queue slot;
//! * [`ServerStats`] — per-request enqueue/dispatch/complete timestamps
//!   aggregated into p50/p95/p99 latency (each distribution one
//!   constant-memory [`LatencyRecord`], percentiles within 1/128 above the
//!   exact sample), the achieved batch-size histogram, throughput, and
//!   rejected / expired / cancelled counts;
//! * overload is explicit: a full queue rejects the request with
//!   [`pf_core::PfError::Overloaded`]; the batch-formation window is
//!   adjustable at runtime ([`Server::set_batch_window`]) so a routing
//!   tier can trade batch size for latency under pressure;
//! * [`Server::shutdown`] drains deterministically — every accepted
//!   request is resolved before it returns.
//!
//! The engine abstraction keeps this crate below the `photofourier` facade:
//! the facade implements [`InferenceEngine`] for its `Session` and
//! re-exports everything here as `photofourier::serve`; `pf-router`
//! builds its replica shards from these servers.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod config;
pub mod server;
pub mod stats;

pub use config::ServeConfig;
pub use server::{InferenceEngine, RequestTrace, Server, Ticket};
pub use stats::{BatchBucket, LatencyRecord, LatencySummary, ServerStats};
