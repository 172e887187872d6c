//! The HTTP front door: a fixed-size handler pool that runs the admitted
//! searches itself, behind a bounded run gate, with admission control at
//! every layer.
//!
//! # Threading model
//!
//! One **accept thread** owns the listener and pushes accepted sockets into
//! a bounded connection queue. A fixed pool of **handler threads** pops
//! connections and speaks HTTP on them (keep-alive: one connection may
//! carry many requests). When one of the `workers` run slots is free, the
//! handler that parsed a `/search` takes it, calls [`Index::run`] on its own
//! thread and writes the answer, so the request costs no thread hand-off.
//! When every slot is busy the search parks in the run gate, and the
//! handler that frees the next slot runs it and swaps connections with the
//! parked handler, which writes the freeing handler's answer and carries on
//! with its connection. The gate alone bounds how many searches run at
//! once, however many connections are open.
//!
//! # Admission control
//!
//! Overload is shed at the cheapest possible point, never queued into
//! collapse:
//!
//! 1. connection queue full → the accept thread answers `503` +
//!    `Retry-After` on the raw socket and closes it;
//! 2. per-client token bucket empty → `429` + `Retry-After` before the body
//!    is even parsed into params;
//! 3. every run slot busy and `queue_capacity` searches already parked →
//!    `503` + `Retry-After`;
//! 4. deadline already spent by the time a slot is free for the search → it
//!    is not run and the client gets `504`.
//!
//! A search that panics is caught where it runs: its client gets `500` and
//! the handler keeps serving.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops accepting, lets every admitted request finish
//! (handlers drain the connection queue, each keep-alive connection closes
//! after its in-flight exchange), then joins the handlers. Searches run on
//! handlers, and a handler that frees a slot runs every parked search
//! before it moves on, so once every handler has returned no admitted
//! request is left; `/healthz` flips to `503 draining` immediately so load
//! balancers stop routing here.

use crate::http::{self, HttpError, Request};
use crate::quota::{Admission, ClientQuotas, QuotaConfig};
use crate::wire;
use gqr_core::attrs::Predicate;
use gqr_core::engine::{ClientId, SearchParams};
use gqr_core::index::Index;
use gqr_core::metrics::{metric_name, MetricsRegistry};
use gqr_core::request::SearchRequest;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything tunable about the server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Connection-handler threads.
    pub handlers: usize,
    /// Searches running at once, each on a connection-handler thread
    /// (`0` → same as `handlers`).
    pub workers: usize,
    /// Admitted searches allowed to wait for a run slot; one more is shed
    /// with `503`.
    pub queue_capacity: usize,
    /// Accepted connections waiting for a handler before the accept thread
    /// starts shedding with `503`.
    pub backlog: usize,
    /// Cap on `POST /search` body size in bytes.
    pub max_body_bytes: usize,
    /// End-to-end budget stamped on requests that carry no `timeout_ms`.
    pub default_timeout: Duration,
    /// Socket read timeout; also bounds how long an idle keep-alive
    /// connection can delay a drain.
    pub read_timeout: Duration,
    /// Per-client token-bucket policy (`None` → no quotas).
    pub quota: Option<QuotaConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            handlers: 4,
            workers: 0,
            queue_capacity: 128,
            backlog: 64,
            max_body_bytes: 1 << 20,
            default_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            quota: None,
        }
    }
}

/// What a finished drain can report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered 200 over the server's lifetime.
    pub served: u64,
    /// Requests shed (429/503) over the server's lifetime.
    pub shed: u64,
    /// Admitted searches still in flight when the drain began — all of them
    /// completed before shutdown returned.
    pub inflight_at_drain: u64,
}

/// Bounded handoff from the accept thread to the handler pool.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Block for a connection; `None` once draining and empty.
    fn pop(&self, draining: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if draining.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// At most `slots` searches run at once; at most `capacity` more are parked
/// waiting for a slot, in arrival order.
///
/// A parked search is not run by the handler that parked it. The handler
/// that next frees a slot runs it instead and swaps connections with the
/// parked handler: it passes over its own connection with the response it
/// just rendered, and takes the parked connection to answer. Searches
/// therefore run back to back on a thread that is already on a CPU, while
/// the woken handler only writes a response; waking each parked handler
/// to run its own search would land it, often enough to show in the tail,
/// on the core already running another search.
struct RunGate {
    state: Mutex<GateState>,
    slots: usize,
    capacity: usize,
}

#[derive(Default)]
struct GateState {
    /// Slots held.
    running: usize,
    /// Searches waiting for a slot, oldest first.
    parked: VecDeque<Parked>,
}

/// One admitted `/search`, owned, so that any slot holder can run it.
struct Search {
    query: Vec<f32>,
    params: SearchParams,
    filter: Option<Predicate>,
    started: Instant,
    deadline: Instant,
}

/// A search waiting for a slot, with the connection its answer goes to.
struct Parked {
    search: Search,
    stream: TcpStream,
    close: bool,
    handoff: SyncSender<Handoff>,
}

/// What a parked handler is woken with.
enum Handoff {
    /// Write `response` on `stream`, then keep serving that connection, or
    /// close it when `close` is set.
    Connection {
        stream: TcpStream,
        response: Vec<u8>,
        close: bool,
    },
    /// Every slot holder is gone (one unwound); answer `503`.
    Shed,
}

/// One held run slot; dropping it (on unwind too) releases the slot.
struct Slot<'a>(&'a RunGate);

impl RunGate {
    fn new(slots: usize, capacity: usize) -> RunGate {
        RunGate {
            state: Mutex::new(GateState::default()),
            slots,
            capacity,
        }
    }

    /// Searches holding or waiting for a slot.
    fn inflight(&self) -> usize {
        let state = self.lock();
        state.running + state.parked.len()
    }

    /// Every update to the state is a single step that leaves it valid, so a
    /// poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Slot<'_> {
    /// The oldest parked search, which the slot passes to; with none parked
    /// the slot is released and `None` returned.
    fn pass(self) -> Option<Parked> {
        let mut state = self.0.lock();
        let next = state.parked.pop_front();
        if next.is_none() {
            state.running -= 1;
        }
        drop(state);
        std::mem::forget(self);
        next
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        // Only an unwind gets here; parked searches left without any slot
        // holder to run them would wait forever.
        let orphans = if state.running == 0 {
            std::mem::take(&mut state.parked)
        } else {
            VecDeque::new()
        };
        drop(state);
        for parked in orphans {
            let _ = parked.handoff.send(Handoff::Shed);
        }
    }
}

struct Shared {
    index: &'static (dyn Index + Sync),
    gate: RunGate,
    quotas: Option<ClientQuotas>,
    metrics: MetricsRegistry,
    conns: ConnQueue,
    draining: AtomicBool,
    config: ServerConfig,
    served: AtomicU64,
    shed: AtomicU64,
}

/// A running query server. Dropping it without [`Server::shutdown`] aborts
/// ungracefully (threads are detached); call `shutdown` to drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and handler pool, and return. The
    /// index must be `'static`: servers outlive scoped borrows, so leak the
    /// index (`Box::leak`) or use a global.
    pub fn start(index: &'static (dyn Index + Sync), config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Share the index's registry so query-path and serving-path metrics
        // export together; if the index was built without one, the server
        // still keeps its own so `/metrics` is never a dead endpoint.
        let mut metrics = index.metrics().clone();
        if !metrics.is_enabled() {
            metrics = MetricsRegistry::enabled();
        }
        let workers = if config.workers == 0 {
            config.handlers.max(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            index,
            gate: RunGate::new(workers, config.queue_capacity),
            quotas: config.quota.map(ClientQuotas::new),
            metrics,
            conns: ConnQueue {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                capacity: config.backlog,
            },
            draining: AtomicBool::new(false),
            config: config.clone(),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("gqr-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        let mut handler_threads = Vec::with_capacity(config.handlers);
        for i in 0..config.handlers.max(1) {
            let handler_shared = Arc::clone(&shared);
            handler_threads.push(
                std::thread::Builder::new()
                    .name(format!("gqr-handler-{i}"))
                    .spawn(move || handler_loop(handler_shared))?,
            );
        }

        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            handler_threads,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered 200 so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Requests shed so far (any 429/503).
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, finish everything admitted, join all
    /// threads.
    pub fn shutdown(self) -> DrainReport {
        let inflight_at_drain = self.shared.gate.inflight() as u64;
        self.shared.draining.store(true, Ordering::Release);
        // Unblock the accept thread with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread {
            let _ = t.join();
        }
        // Handlers drain the connection queue, finishing every search they
        // admitted, then exit.
        self.shared.conns.notify_all();
        for t in self.handler_threads {
            let _ = t.join();
        }
        self.shared.metrics.incr("gqr_http_drains_completed_total");
        DrainReport {
            served: self.shared.served.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            inflight_at_drain,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::Acquire) {
            // The wake-up connection (or any raced client) gets a clean
            // refusal rather than a hang.
            let _ = refuse(stream, 503, "draining", Some(1));
            break;
        }
        shared.metrics.incr("gqr_http_connections_total");
        if let Err(stream) = shared.conns.push(stream) {
            // Backlog full: shed on the raw socket, never queue deeper.
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.incr(&metric_name(
                "gqr_http_shed_total",
                &[("reason", "backlog")],
            ));
            let _ = refuse(stream, 503, "connection backlog full", Some(1));
        }
    }
}

/// Minimal one-shot error response on a connection we will not serve.
fn refuse(
    mut stream: TcpStream,
    status: u16,
    message: &str,
    retry_after_secs: Option<u64>,
) -> io::Result<()> {
    let body = wire::encode_error(status, message);
    let mut extra = Vec::new();
    if let Some(secs) = retry_after_secs {
        extra.push(("retry-after", secs.to_string()));
    }
    http::write_response(
        &mut stream,
        status,
        "application/json",
        &extra,
        body.as_bytes(),
        true,
    )?;
    stream.shutdown(std::net::Shutdown::Both)
}

fn handler_loop(shared: Arc<Shared>) {
    while let Some(stream) = shared.conns.pop(&shared.draining) {
        serve_connection(&shared, stream);
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let req = match http::read_request(&mut stream, shared.config.max_body_bytes) {
            Ok(req) => req,
            Err(HttpError::Closed) => return,
            Err(HttpError::Malformed(why)) => {
                let _ = respond_error(shared, &mut stream, 400, why, None, true);
                return;
            }
            Err(HttpError::HeadTooLarge) => {
                let _ = respond_error(
                    shared,
                    &mut stream,
                    400,
                    "request head too large",
                    None,
                    true,
                );
                return;
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                let msg = format!("body of {declared} bytes exceeds limit of {limit}");
                let _ = respond_error(shared, &mut stream, 413, &msg, None, true);
                return;
            }
            Err(HttpError::Truncated) => {
                // Framing is broken; a response may not be readable, but try.
                let _ = respond_error(shared, &mut stream, 400, "truncated request", None, true);
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        // A search that waited for a run slot comes back holding another
        // handler's connection, and `close` then describes that one.
        let mut close = req.wants_close() || shared.draining.load(Ordering::Acquire);
        let served = handle_request(shared, &mut stream, &req, &mut close);
        if served.is_err() || close {
            return;
        }
    }
}

fn handle_request(
    shared: &Shared,
    stream: &mut TcpStream,
    req: &Request,
    close: &mut bool,
) -> io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/search") => handle_search(shared, stream, req, close),
        ("GET", "/healthz") => {
            if shared.draining.load(Ordering::Acquire) {
                respond(shared, stream, 503, "text/plain", b"draining\n", &[], true)
            } else {
                respond(shared, stream, 200, "text/plain", b"ok\n", &[], *close)
            }
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.snapshot().to_prometheus();
            respond(
                shared,
                stream,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                &[],
                *close,
            )
        }
        ("POST" | "GET", "/search" | "/healthz" | "/metrics") => {
            respond_error(shared, stream, 405, "method not allowed", None, *close)
        }
        _ => respond_error(shared, stream, 404, "no such route", None, *close),
    }
}

fn handle_search(
    shared: &Shared,
    stream: &mut TcpStream,
    req: &Request,
    close: &mut bool,
) -> io::Result<()> {
    let started = Instant::now();
    shared.metrics.incr(&metric_name(
        "gqr_http_requests_total",
        &[("route", "search")],
    ));

    // Identity first: quota decisions must not depend on parsing work.
    let client = match req.header("x-gqr-client") {
        Some(name) => ClientId::from_name(name),
        None => ClientId::new(0),
    };
    if let Some(quotas) = &shared.quotas {
        if let Admission::Throttled(wait) = quotas.check(client, started) {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .incr(&metric_name("gqr_http_shed_total", &[("reason", "quota")]));
            let secs = wait.as_secs_f64().ceil().max(1.0) as u64;
            return respond_error(
                shared,
                stream,
                429,
                "client quota exhausted",
                Some(secs),
                *close,
            );
        }
    }

    let decoded = match wire::decode_search(&req.body) {
        Ok(d) => d,
        Err(e) => return respond_error(shared, stream, 400, &e.message, None, *close),
    };
    let mut params = match decoded.to_params() {
        Ok(p) => p,
        Err(e) => return respond_error(shared, stream, 400, &e.to_string(), None, *close),
    };
    let deadline = started + decoded.timeout.unwrap_or(shared.config.default_timeout);
    params.deadline = Some(deadline);
    params.client_id = Some(client);

    let index = shared.index;
    // A query of the wrong length would trip the engine's dimensionality
    // assert mid-search; it is the client's error, so say so here.
    if decoded.query.len() != index.dim() {
        let msg = format!(
            "\"query\" has {} dimensions; this index serves {}",
            decoded.query.len(),
            index.dim()
        );
        return respond_error(shared, stream, 400, &msg, None, *close);
    }
    // Validate the filter against the served schema before admitting any
    // work: unknown columns, type mismatches, and filters against an index
    // with no attribute store are all client errors, not query failures.
    if let Some(pred) = &decoded.filter {
        let Some(store) = index.attrs() else {
            return respond_error(
                shared,
                stream,
                400,
                "this index has no attribute store; \"filter\" is not supported",
                None,
                *close,
            );
        };
        if let Err(e) = store.validate(pred) {
            let msg = format!("invalid \"filter\": {e}");
            return respond_error(shared, stream, 400, &msg, None, *close);
        }
    }
    let search = Search {
        query: decoded.query,
        params,
        filter: decoded.filter,
        started,
        deadline,
    };
    let gate = &shared.gate;
    let mut state = gate.lock();
    if state.running < gate.slots {
        state.running += 1;
        drop(state);
        return run_searches(shared, stream, search, close);
    }
    if state.parked.len() >= gate.capacity {
        drop(state);
        shared.shed.fetch_add(1, Ordering::Relaxed);
        shared.metrics.incr(&metric_name(
            "gqr_http_shed_total",
            &[("reason", "queue_full")],
        ));
        return respond_error(shared, stream, 503, "search queue full", Some(1), *close);
    }
    let (handoff, woken) = mpsc::sync_channel(1);
    state.parked.push_back(Parked {
        search,
        stream: stream.try_clone()?,
        close: *close,
        handoff,
    });
    drop(state);
    match woken.recv() {
        Ok(Handoff::Connection {
            stream: other,
            response,
            close: other_close,
        }) => {
            *stream = other;
            *close = other_close;
            stream.write_all(&response)
        }
        Ok(Handoff::Shed) | Err(_) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            respond_error(shared, stream, 503, "search was not run", Some(1), *close)
        }
    }
}

/// Run `search`, then every search parked behind it, on one run slot (see
/// [`RunGate`]). Each answer but the last leaves with its connection for
/// the handler whose search runs next; the last is written here, after the
/// slot is released.
fn run_searches(
    shared: &Shared,
    stream: &mut TcpStream,
    mut search: Search,
    close: &mut bool,
) -> io::Result<()> {
    loop {
        let slot = Slot(&shared.gate);
        let response = answer(shared, search, *close);
        let Some(parked) = slot.pass() else {
            return stream.write_all(&response);
        };
        let mine = std::mem::replace(stream, parked.stream);
        let _ = parked.handoff.send(Handoff::Connection {
            stream: mine,
            response,
            close: *close,
        });
        *close = parked.close;
        search = parked.search;
    }
}

/// Run `search` unless its deadline has passed, and render the response.
fn answer(shared: &Shared, search: Search, close: bool) -> Vec<u8> {
    let mut response = Vec::new();
    // Writing into a `Vec` cannot fail.
    let _ = if Instant::now() > search.deadline {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        shared.metrics.incr(&metric_name(
            "gqr_http_shed_total",
            &[("reason", "deadline")],
        ));
        respond_error(
            shared,
            &mut response,
            504,
            "deadline passed before execution",
            None,
            close,
        )
    } else {
        let index = shared.index;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut req = SearchRequest::new(&search.query).params(search.params);
            if let Some(pred) = search.filter {
                req = req.predicate(pred);
            }
            index.run(req)
        }));
        match outcome {
            Ok(res) => {
                let body = wire::encode_response(&res);
                shared.served.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .record_duration("gqr_http_request_ns", search.started.elapsed());
                respond(
                    shared,
                    &mut response,
                    200,
                    "application/json",
                    body.as_bytes(),
                    &[],
                    close,
                )
            }
            Err(_) => respond_error(shared, &mut response, 500, "search panicked", None, close),
        }
    };
    response
}

fn respond(
    shared: &Shared,
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, String)],
    close: bool,
) -> io::Result<()> {
    shared.metrics.incr(&metric_name(
        "gqr_http_responses_total",
        &[("status", status.to_string().as_str())],
    ));
    http::write_response(stream, status, content_type, extra, body, close)
}

fn respond_error(
    shared: &Shared,
    stream: &mut impl Write,
    status: u16,
    message: &str,
    retry_after_secs: Option<u64>,
    close: bool,
) -> io::Result<()> {
    let body = wire::encode_error(status, message);
    let mut extra = Vec::new();
    if let Some(secs) = retry_after_secs {
        extra.push(("retry-after", secs.to_string()));
    }
    respond(
        shared,
        stream,
        status,
        "application/json",
        body.as_bytes(),
        &extra,
        close,
    )
}
