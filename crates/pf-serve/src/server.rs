//! The micro-batching server: admission, batch formation, dispatch,
//! tickets, deadlines and deterministic shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pf_core::PfError;
use pf_telemetry::{request_track, staged_span, Telemetry};

use crate::config::ServeConfig;
use crate::stats::{ServerStats, StatsCollector};

/// Tracing identity of one admitted request, minted where the request
/// enters the serving stack (router admission, or server admission for
/// directly-submitted requests) and carried through the queue so dispatch
/// can stitch one coherent span tree per request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    /// Request id ([`Telemetry::next_request_id`]); names the request's
    /// own track in the exported trace.
    pub req: u64,
    /// Span id the request's root span hangs from (e.g. the router's
    /// admission span), or 0 for a root of its own.
    pub parent: u64,
    /// When the request entered the stack (start of its root span — for a
    /// routed request this predates the replica's own enqueue).
    pub admitted: Instant,
}

impl RequestTrace {
    /// Mints a fresh trace rooted at `admitted` (no parent span). Returns
    /// `None` on a disabled handle, so untraced serving carries no baggage.
    fn mint(tel: &Telemetry, admitted: Instant) -> Option<Self> {
        tel.is_enabled().then(|| Self {
            req: tel.next_request_id(),
            parent: 0,
            admitted,
        })
    }
}

/// The compute side of a [`Server`]: runs one micro-batch of requests.
///
/// The server is generic over the request payload ([`InferenceEngine::Request`])
/// and result ([`InferenceEngine::Response`]) — the facade serves tensors,
/// a routing tier serves richer payloads (image + model key + replay seed).
///
/// `seqs[i]` is request `i`'s stable sequence number, assigned at admission
/// in submission order. Deterministic engines may ignore it; engines with
/// stochastic state (optical sensing noise) must derive each request's
/// noise stream from its sequence number (or from a seed carried in the
/// payload) — **not** from its position in the batch — so a request's
/// result does not depend on how the batcher happened to group it.
pub trait InferenceEngine: Send + Sync {
    /// Per-request input payload.
    type Request: Send + 'static;
    /// Per-request result.
    type Response: Send + 'static;

    /// Runs the micro-batch, returning one output per input, in order.
    ///
    /// # Errors
    ///
    /// An error fails every request of the batch (each ticket resolves to a
    /// clone of the error).
    fn infer_batch(
        &self,
        inputs: &[Self::Request],
        seqs: &[u64],
    ) -> Result<Vec<Self::Response>, PfError>;
}

impl<E: InferenceEngine + ?Sized> InferenceEngine for Arc<E> {
    type Request = E::Request;
    type Response = E::Response;

    fn infer_batch(
        &self,
        inputs: &[Self::Request],
        seqs: &[u64],
    ) -> Result<Vec<Self::Response>, PfError> {
        (**self).infer_batch(inputs, seqs)
    }
}

/// Result slot shared between a [`Ticket`] and the worker that completes it.
struct TicketCell<R> {
    /// The result, stamped with its completion instant (so latency can be
    /// derived later even if the ticket is waited on long after the
    /// request finished).
    result: Mutex<Option<(Result<R, PfError>, Instant)>>,
    ready: Condvar,
    /// Set by [`Ticket::wait_deadline`] on timeout: the batcher drops the
    /// request at formation time instead of dispatching it.
    cancelled: AtomicBool,
}

impl<R> Default for TicketCell<R> {
    fn default() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }
}

impl<R> TicketCell<R> {
    fn fulfill(&self, result: Result<R, PfError>, completed: Instant) {
        *self.result.lock() = Some((result, completed));
        self.ready.notify_all();
    }
}

/// Handle to one in-flight request, returned by [`Server::submit`].
pub struct Ticket<R> {
    seq: u64,
    cell: Arc<TicketCell<R>>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("seq", &self.seq).finish()
    }
}

impl<R> Ticket<R> {
    /// The request's admission sequence number (submission order). This is
    /// the seed stochastic engines derive the request's noise stream from,
    /// so recording it makes served results exactly reproducible offline.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> Result<R, PfError> {
        self.wait_timed().0
    }

    /// Like [`Ticket::wait`], additionally returning the instant the
    /// request actually completed (not the instant this call observed it) —
    /// the timestamp a routing tier derives true end-to-end latency and
    /// deadline misses from.
    pub fn wait_timed(self) -> (Result<R, PfError>, Instant) {
        let mut slot = self.cell.result.lock();
        loop {
            if let Some(resolved) = slot.take() {
                return resolved;
            }
            slot = self.cell.ready.wait(slot);
        }
    }

    /// Waits up to `timeout` for the result. On timeout the request is
    /// **cancelled**: its queue slot is reclaimed at the next batch
    /// formation (counted as `cancelled` in [`ServerStats`], distinct from
    /// failures) and this returns [`PfError::DeadlineExceeded`]. If the
    /// request was already dispatched when the timeout fired, it still
    /// completes server-side (and counts as served) — the caller has merely
    /// stopped waiting for it.
    ///
    /// # Errors
    ///
    /// The request's own error, or [`PfError::DeadlineExceeded`] with stage
    /// `"abandoned"` on timeout.
    pub fn wait_deadline(self, timeout: Duration) -> Result<R, PfError> {
        self.wait_deadline_timed(timeout).0
    }

    /// Like [`Ticket::wait_deadline`], additionally returning the
    /// completion instant when the result arrived in time (`None` on
    /// timeout — there is no completion to stamp for an abandoned
    /// request).
    pub fn wait_deadline_timed(self, timeout: Duration) -> (Result<R, PfError>, Option<Instant>) {
        let deadline = Instant::now() + timeout;
        let mut slot = self.cell.result.lock();
        loop {
            if let Some((result, completed)) = slot.take() {
                return (result, Some(completed));
            }
            let now = Instant::now();
            if now >= deadline {
                self.cell.cancelled.store(true, Ordering::Release);
                return (Err(PfError::DeadlineExceeded { stage: "abandoned" }), None);
            }
            let (guard, wait) = self.cell.ready.wait_for(slot, deadline - now);
            slot = guard;
            if wait.timed_out() {
                if let Some((result, completed)) = slot.take() {
                    return (result, Some(completed));
                }
                self.cell.cancelled.store(true, Ordering::Release);
                return (Err(PfError::DeadlineExceeded { stage: "abandoned" }), None);
            }
        }
    }

    /// Returns the result if the request already completed, without
    /// blocking. At most one call observes `Some` (the result is moved out).
    pub fn try_take(&self) -> Option<Result<R, PfError>> {
        self.cell.result.lock().take().map(|(result, _)| result)
    }
}

/// One admitted request waiting in the queue.
struct Request<Rq, R> {
    seq: u64,
    input: Rq,
    enqueued: Instant,
    /// Absolute deadline: once past, the batcher resolves the ticket with
    /// [`PfError::DeadlineExceeded`] instead of dispatching the request.
    deadline: Option<Instant>,
    /// Tracing identity (None whenever telemetry is disabled).
    trace: Option<RequestTrace>,
    cell: Arc<TicketCell<R>>,
}

struct QueueState<Rq, R> {
    pending: VecDeque<Request<Rq, R>>,
    /// Cleared by shutdown: no further admissions, workers drain and exit.
    accepting: bool,
    next_seq: u64,
}

struct Shared<E: InferenceEngine> {
    engine: E,
    config: ServeConfig,
    telemetry: Telemetry,
    /// The current batch-formation window in microseconds. Initialised from
    /// [`ServeConfig::batch_timeout`]; a router shrinks it under load
    /// pressure ([`Server::set_batch_window`]).
    window_us: AtomicU64,
    queue: Mutex<QueueState<E::Request, E::Response>>,
    /// Requests admitted and not yet resolved: queued, forming a batch or
    /// in service. Raised at admission, lowered for each request before
    /// its ticket is fulfilled ([`Server::outstanding`]). `Relaxed` is
    /// enough: the count publishes no other data, and the ticket cell's
    /// mutex orders the decrement before a waiter's return.
    outstanding: AtomicUsize,
    /// Signalled on every admission and on shutdown.
    work: Condvar,
    stats: Mutex<StatsCollector>,
}

impl<E: InferenceEngine> Shared<E> {
    fn window(&self) -> Duration {
        Duration::from_micros(self.window_us.load(Ordering::Relaxed))
    }
}

/// A thread-based micro-batching inference server.
///
/// Worker threads drain the bounded request queue into micro-batches (up to
/// [`ServeConfig::max_batch`] requests) and dispatch each batch through the
/// [`InferenceEngine`]. A partial batch waits for company until the current
/// batch window — initially [`ServeConfig::batch_timeout`] — has passed
/// since its oldest request's admission: a request that already queued
/// that long behind a busy worker is dispatched as soon as a worker picks
/// it up. Workers set their timer slack to 1 ns, so they wake at that
/// deadline rather than up to the kernel's default 50 µs past it.
/// Admission control is a bounded queue: submissions beyond
/// [`ServeConfig::queue_depth`] are rejected with [`PfError::Overloaded`].
/// Requests may carry a deadline ([`Server::try_submit`]): a
/// request whose deadline passes while it is still queued is **never
/// dispatched** — its ticket resolves to [`PfError::DeadlineExceeded`] and
/// it is counted as `expired`.
///
/// Dropping the server also shuts it down (draining first), but
/// [`Server::shutdown`] is preferred: it returns the final [`ServerStats`].
pub struct Server<E: InferenceEngine + 'static> {
    shared: Arc<Shared<E>>,
    workers: Vec<JoinHandle<()>>,
}

impl<E: InferenceEngine + 'static> std::fmt::Debug for Server<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .field("queue_len", &self.queue_len())
            .finish_non_exhaustive()
    }
}

impl<E: InferenceEngine + 'static> Server<E> {
    /// Validates `config` and starts the worker threads.
    ///
    /// A `workers` value of `0` auto-sizes the pool against rayon's global
    /// pool (see [`ServeConfig::effective_workers`]).
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an inconsistent config.
    pub fn new(engine: E, config: ServeConfig) -> Result<Self, PfError> {
        Self::with_telemetry(engine, config, Telemetry::disabled())
    }

    /// Like [`Server::new`] with an observability handle: request/batch
    /// spans are recorded into `telemetry`'s ring and the `serve.*`
    /// counters land in its registry. With a disabled handle this is
    /// exactly [`Server::new`].
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an inconsistent config.
    pub fn with_telemetry(
        engine: E,
        config: ServeConfig,
        telemetry: Telemetry,
    ) -> Result<Self, PfError> {
        config.validate()?;
        let worker_count = config.effective_workers();
        let stats = StatsCollector::new(&telemetry);
        let shared = Arc::new(Shared {
            engine,
            window_us: AtomicU64::new(config.batch_timeout.as_micros() as u64),
            config,
            telemetry,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                accepting: true,
                next_seq: 0,
            }),
            outstanding: AtomicUsize::new(0),
            work: Condvar::new(),
            stats: Mutex::new(stats),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pf-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pf-serve worker")
            })
            .collect();
        Ok(Self { shared, workers })
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The observability handle (disabled unless the server was built with
    /// [`Server::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// A reference to the engine.
    pub fn engine(&self) -> &E {
        &self.shared.engine
    }

    /// Requests currently waiting in the queue (already-dispatched batches
    /// excluded).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().pending.len()
    }

    /// Requests admitted and not yet resolved: queued, forming a batch or
    /// in service. Unlike [`Server::queue_len`] it sees a batch the worker
    /// has already taken, so an idle server and a busy one with an empty
    /// queue read differently. A request stops counting before its ticket
    /// is fulfilled, so once [`Ticket::wait`] returns, that request is no
    /// longer in the count.
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding.load(Ordering::Relaxed)
    }

    /// The current batch-formation window (initially
    /// [`ServeConfig::batch_timeout`]).
    pub fn batch_window(&self) -> Duration {
        self.shared.window()
    }

    /// Replaces the batch-formation window, taking effect from the next
    /// batch a worker forms. A routing tier shrinks the window towards zero
    /// under queue pressure — trading batch size for latency — and restores
    /// it when pressure subsides. The window is capped at the configured
    /// [`ServeConfig::batch_timeout`] (the window can only shrink relative
    /// to the scenario's setting, never grow beyond it).
    pub fn set_batch_window(&self, window: Duration) {
        let capped = window.min(self.shared.config.batch_timeout);
        self.shared
            .window_us
            .store(capped.as_micros() as u64, Ordering::Relaxed);
    }

    /// Submits one request with no deadline, returning its [`Ticket`]
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`PfError::Overloaded`] when the queue is full (the request
    /// is counted as rejected), or [`PfError::InvalidScenario`] when the
    /// server is shutting down (not counted: shutdown is not load).
    pub fn submit(&self, input: E::Request) -> Result<Ticket<E::Response>, PfError> {
        self.try_submit(input, None, None).map_err(|(_, e)| e)
    }

    /// Submits one request with an optional absolute deadline and trace,
    /// handing the payload back on failure — so a routing tier can spill a
    /// rejected request to another replica without requiring `Clone`
    /// payloads.
    ///
    /// A deadlined request that is still queued when its deadline passes is
    /// never dispatched: the batcher resolves its ticket with
    /// [`PfError::DeadlineExceeded`] (stage `"queued"`) and counts it as
    /// `expired`. A request already dispatched before the deadline runs to
    /// completion regardless (the engine is not interrupted mid-batch);
    /// completions after the deadline are the *caller's* deadline misses to
    /// account, from [`Ticket::wait_timed`].
    ///
    /// The routing tier mints the request's [`RequestTrace`] at *its*
    /// admission and passes it down, so one routed request yields one span
    /// tree across both tiers. With `trace: None` the server mints a trace
    /// of its own (when telemetry is enabled).
    ///
    /// # Errors
    ///
    /// Same admission errors as [`Server::submit`], paired with the
    /// unconsumed payload.
    pub fn try_submit(
        &self,
        input: E::Request,
        deadline: Option<Instant>,
        trace: Option<RequestTrace>,
    ) -> Result<Ticket<E::Response>, (E::Request, PfError)> {
        let enqueued = Instant::now();
        let trace = trace.or_else(|| RequestTrace::mint(&self.shared.telemetry, enqueued));
        let mut queue = self.shared.queue.lock();
        if !queue.accepting {
            return Err((
                input,
                PfError::invalid_scenario("submit on a server that is shutting down"),
            ));
        }
        if queue.pending.len() >= self.shared.config.queue_depth {
            let queued = queue.pending.len();
            drop(queue);
            self.shared.stats.lock().record_rejected();
            return Err((
                input,
                PfError::Overloaded {
                    queued,
                    limit: self.shared.config.queue_depth,
                },
            ));
        }
        let seq = queue.next_seq;
        queue.next_seq += 1;
        self.shared.outstanding.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(TicketCell::default());
        queue.pending.push_back(Request {
            seq,
            input,
            enqueued,
            deadline,
            trace,
            cell: Arc::clone(&cell),
        });
        let depth = queue.pending.len();
        drop(queue);
        self.shared.stats.lock().record_submitted(enqueued, depth);
        self.shared.work.notify_one();
        Ok(Ticket { seq, cell })
    }

    /// A snapshot of the accounting so far (may be mid-flight; totals only
    /// settle after [`Server::shutdown`]).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.lock().snapshot()
    }

    /// Stops admissions, drains every queued request, joins the workers and
    /// returns the final stats. Deterministic: every ticket handed out by
    /// [`Server::submit`] is resolved by the time this returns — served,
    /// failed, expired or cancelled. (Engine panics are caught per batch —
    /// they fail that batch's tickets and show up in [`ServerStats::failed`]
    /// rather than killing a worker.)
    ///
    /// # Errors
    ///
    /// Returns [`PfError::WorkerPanicked`] if a worker thread itself
    /// panicked (a server bug, not an engine failure). All workers are
    /// still joined first, so no thread is leaked; the final stats are
    /// unavailable because a dead worker's accounting may be incomplete.
    pub fn shutdown(mut self) -> Result<ServerStats, PfError> {
        self.begin_shutdown();
        let mut panicked = 0usize;
        for handle in self.workers.drain(..) {
            panicked += usize::from(handle.join().is_err());
        }
        if panicked > 0 {
            return Err(PfError::WorkerPanicked { workers: panicked });
        }
        Ok(self.stats())
    }

    fn begin_shutdown(&self) {
        self.shared.queue.lock().accepting = false;
        self.shared.work.notify_all();
    }
}

impl<E: InferenceEngine + 'static> Drop for Server<E> {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            // Swallow worker panics here: propagating from drop would abort.
            let _ = handle.join();
        }
    }
}

/// A request the batcher removed from the queue without dispatching, and
/// why (`"abandoned"` = ticket cancelled, `"queued"` = deadline expired).
type Dropped<R> = (Arc<TicketCell<R>>, &'static str);

/// Takes requests off the queue into `batch` until it holds `max` requests,
/// skipping cancelled and deadline-expired requests into `dropped` (their
/// tickets are resolved by the caller once the queue lock is released —
/// expired requests are **never dispatched**).
fn take_into<Rq, R>(
    batch: &mut Vec<Request<Rq, R>>,
    dropped: &mut Vec<Dropped<R>>,
    queue: &mut QueueState<Rq, R>,
    max: usize,
) {
    while batch.len() < max {
        let Some(request) = queue.pending.pop_front() else {
            break;
        };
        if request.cell.cancelled.load(Ordering::Acquire) {
            dropped.push((request.cell, "abandoned"));
            continue;
        }
        if let Some(deadline) = request.deadline {
            if Instant::now() >= deadline {
                dropped.push((request.cell, "queued"));
                continue;
            }
        }
        batch.push(request);
    }
}

/// Resolves the tickets of requests dropped at batch formation and records
/// them (cancelled vs expired) in the stats.
fn resolve_dropped<E: InferenceEngine>(shared: &Shared<E>, dropped: Vec<Dropped<E::Response>>) {
    if dropped.is_empty() {
        return;
    }
    let now = Instant::now();
    shared
        .outstanding
        .fetch_sub(dropped.len(), Ordering::Relaxed);
    let mut stats = shared.stats.lock();
    for (cell, stage) in dropped {
        match stage {
            "abandoned" => stats.record_cancelled(),
            _ => stats.record_expired(),
        }
        cell.fulfill(Err(PfError::DeadlineExceeded { stage }), now);
    }
}

/// Asks the kernel to wake the calling thread at its timers' deadlines.
/// A thread's default timer slack (50 µs) lets every timed wait overrun by
/// up to that much; 1 ns is the least that can be set (0 restores the
/// default). Only the calling thread's slack changes.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and touches only
    // the calling thread's slack. A failure leaves the default in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn worker_loop<E: InferenceEngine>(shared: &Shared<E>) {
    tighten_timer_slack();
    let max_batch = shared.config.max_batch;
    loop {
        let mut queue = shared.queue.lock();
        // Sleep until there is work; exit once shut down *and* drained.
        loop {
            if !queue.pending.is_empty() {
                break;
            }
            if !queue.accepting {
                return;
            }
            queue = shared.work.wait(queue);
        }

        let mut batch = Vec::with_capacity(max_batch);
        let mut dropped = Vec::new();
        take_into(&mut batch, &mut dropped, &mut queue, max_batch);
        // Nothing live in hand: resolve what was dropped now rather than
        // after a window, and go back to the idle wait.
        if batch.is_empty() {
            drop(queue);
            resolve_dropped(shared, dropped);
            continue;
        }

        // Batch formation: wait for a partial batch to fill until the
        // window, counted from the oldest request's admission (the queue is
        // FIFO, so that is `batch[0]`), lapses. A request that already
        // waited its window behind a busy worker leaves at once. Skipped
        // during drain — shutdown flushes at full speed — and when the
        // window has been shrunk to zero.
        let window = shared.window();
        if batch.len() < max_batch && queue.accepting && !window.is_zero() {
            let deadline = batch[0].enqueued + window;
            loop {
                take_into(&mut batch, &mut dropped, &mut queue, max_batch);
                if batch.len() >= max_batch || !queue.accepting {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, wait) = shared.work.wait_for(queue, deadline - now);
                queue = guard;
                if wait.timed_out() {
                    take_into(&mut batch, &mut dropped, &mut queue, max_batch);
                    break;
                }
            }
        }
        drop(queue);
        resolve_dropped(shared, dropped);
        dispatch(shared, batch);
    }
}

fn dispatch<E: InferenceEngine>(shared: &Shared<E>, batch: Vec<Request<E::Request, E::Response>>) {
    let dispatched = Instant::now();
    let mut inputs = Vec::with_capacity(batch.len());
    let mut seqs = Vec::with_capacity(batch.len());
    let mut enqueues = Vec::with_capacity(batch.len());
    let mut cells = Vec::with_capacity(batch.len());
    let mut traces = Vec::with_capacity(batch.len());
    for request in batch {
        inputs.push(request.input);
        seqs.push(request.seq);
        enqueues.push(request.enqueued);
        traces.push(request.trace);
        cells.push(request.cell);
    }

    let tel = &shared.telemetry;
    // Root-span ids are allocated up front so the batch span (and the
    // engine's child spans under it) can reference the first request's
    // tree; the root spans themselves are recorded after completion, once
    // their end instant is known.
    let roots: Vec<u64> = traces
        .iter()
        .map(|t| if t.is_some() { tel.alloc_span_id() } else { 0 })
        .collect();

    // A panicking engine must not strand the batch's tickets (clients
    // blocked in `Ticket::wait` would sleep forever) nor kill the worker
    // (later submitters would hang just the same). Catch the unwind and
    // fail the batch; the `failed` counter is the panic's visible trace.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if tel.is_enabled() {
            let first = traces
                .iter()
                .zip(&roots)
                .find_map(|(t, &root)| t.map(|t| (root, t.req)));
            let batch_span = match first {
                Some((root, req)) => tel.span_with_parent("batch", "serve", root, req),
                None => tel.span("batch", "serve"),
            };
            // The engine's call becomes an `infer` span under the batch,
            // with per-stage children synthesized from the stage counters
            // its convolutions advanced.
            staged_span(tel, "infer", batch_span.id(), || {
                shared.engine.infer_batch(&inputs, &seqs)
            })
        } else {
            shared.engine.infer_batch(&inputs, &seqs)
        }
    }));
    let completed = Instant::now();

    if tel.is_enabled() {
        for ((trace, &root), &enqueued) in traces.iter().zip(&roots).zip(&enqueues) {
            let Some(t) = trace else { continue };
            let track = request_track(t.req);
            tel.record_span(
                root, "request", "serve", track, t.admitted, completed, t.parent, t.req,
            );
            let queue_id = tel.alloc_span_id();
            tel.record_span(
                queue_id, "queue", "serve", track, enqueued, dispatched, root, t.req,
            );
            let exec_id = tel.alloc_span_id();
            tel.record_span(
                exec_id, "exec", "serve", track, dispatched, completed, root, t.req,
            );
        }
    }

    let outcome = match result {
        Ok(Ok(outputs)) if outputs.len() == cells.len() => Ok(outputs),
        Ok(Ok(outputs)) => Err(PfError::invalid_scenario(format!(
            "engine returned {} result(s) for a batch of {}",
            outputs.len(),
            cells.len()
        ))),
        Ok(Err(e)) => Err(e),
        Err(_panic) => Err(PfError::invalid_scenario(
            "engine panicked while serving this batch",
        )),
    };
    shared
        .stats
        .lock()
        .record_batch(&enqueues, dispatched, completed, outcome.is_ok());
    shared.outstanding.fetch_sub(cells.len(), Ordering::Relaxed);
    match outcome {
        Ok(outputs) => {
            for (cell, output) in cells.iter().zip(outputs) {
                cell.fulfill(Ok(output), completed);
            }
        }
        Err(e) => {
            for cell in &cells {
                cell.fulfill(Err(e.clone()), completed);
            }
        }
    }
}
