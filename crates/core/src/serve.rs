//! `modsoc serve`: a fault-tolerant ATPG service layer.
//!
//! The paper's modular-testing argument is about serving many cores'
//! test workloads through shared, contended infrastructure; this module
//! is that shape made literal — a long-lived daemon that accepts
//! `analyze`/`experiment` requests over hand-rolled HTTP/1.1 (plain
//! `TcpListener`, no external dependencies, per the workspace policy)
//! and multiplexes them onto a bounded worker pool. It is engineered to
//! degrade instead of falling over (see `DESIGN.md` §13):
//!
//! * **Admission control** — a bounded queue between the accept loop
//!   and the workers. Queue full or connection cap reached ⇒ the
//!   request is *shed* with `503` + `Retry-After`, never parked
//!   unboundedly.
//! * **Request coalescing** — experiment requests are keyed by the
//!   store's canonical content address ([`crate::campaign::unit_key`]);
//!   N concurrent identical requests block on one computation and all
//!   observe the same bytes. Cross-process writers are serialized by
//!   `modsoc_store`'s advisory locks.
//! * **Budget caps** — every request runs under a server-enforced
//!   [`RunBudget`] deadline, so one pathological netlist cannot starve
//!   the pool. A tripped budget is `200` with `"status":"partial"`; a
//!   deadline so tight nothing ran is `504`.
//! * **Panic isolation** — handler computations run inside
//!   [`crate::runctl::guard`]; a panic is a `500` for that request and
//!   the worker survives.
//! * **Slow-client defense** — read/write timeouts on every connection;
//!   a slowloris writer is dropped, not waited on. A keep-alive client
//!   that stalls mid-request gets a clean `408` + close, never a
//!   misparsed next request.
//! * **Keep-alive** — with [`ServeConfig::keep_alive`], connections are
//!   persistent HTTP/1.1: after each response the connection re-enters
//!   the read queue until the idle timeout, the per-connection request
//!   cap, a client `Connection: close`, or shutdown ends it. Pipelined
//!   bytes are carried over between requests instead of being dropped.
//! * **Priority lanes** — parsed requests land in one of two admission
//!   lanes (`/experiment` = heavy, everything else = light) drained by
//!   weighted round-robin with a deficit-token scheme (4:1), so cheap
//!   `/analyze` probes are not starved behind long experiment runs.
//!   Lane depth and wait time are exported through `/metrics`.
//! * **Request batching** — with [`ServeConfig::batch_max`] > 1,
//!   coalesce leaders for *distinct* experiment keys with the same
//!   [`ExperimentOptions::fingerprint`] rendezvous for a short window
//!   ([`ServeConfig::batch_window`]) and run as one [`WorkerPool`]
//!   dispatch. Each batched unit runs serially inside it (a pool map
//!   called from a pool worker does not spawn), which the
//!   jobs-invariance contract makes byte-identical to any other
//!   execution — batch composition can never change response bytes.
//! * **Observability** — `GET /metrics` serves a live JSON snapshot of
//!   the [`modsoc_metrics`] sink (queue/lane depth, coalesce hits,
//!   batch counts, shed count, per-phase timings).
//! * **Graceful drain** — shutdown (SIGTERM/ctrl-c in the CLI, or
//!   `POST /shutdown`) stops accepting, finishes queued work, and
//!   returns; idle keep-alive connections are closed instead of read
//!   further, and nothing is journaled half-written because every store
//!   write stays atomic + locked.
//!
//! # Endpoints
//!
//! | Method | Path        | Body                                   | Success |
//! |--------|-------------|----------------------------------------|---------|
//! | POST   | `/analyze`  | `{"soc": "<.soc text>", …}`            | 200     |
//! | POST   | `/experiment` | campaign-unit JSON (+ `timeout_ms`)  | 200     |
//! | GET    | `/metrics`  | —                                      | 200     |
//! | GET    | `/healthz`  | —                                      | 200     |
//! | POST   | `/shutdown` | —                                      | 200     |
//! | GET    | `/store/get?key=…` | —                               | 200/404 |
//! | POST   | `/store/put` | raw entry envelope                    | 200     |
//! | POST   | `/store/evict` | `{"key"\|"journal":…,"why":…}`      | 200     |
//! | POST   | `/store/claim` | `{"journal","unit","owner","action",…}` | 200 |
//! | GET    | `/store/journal?name=…` | —                          | 200/404 |
//! | POST   | `/store/journal` | `{"name":…,"entry":…}`            | 200     |
//!
//! The `/store/*` rows (requires `--store`; 422 without one) turn the
//! daemon into a **remote store backend**: raw entry/journal documents
//! in and out (validation stays client-side — see
//! `modsoc_store::backend`), plus the claim/lease CAS that lets N
//! `modsoc campaign --store-url` workers partition one spec without
//! recomputing each other's units.
//!
//! Overload taxonomy: `400` malformed request, `404`/`405` wrong
//! route/method, `408` keep-alive request stalled past its deadline,
//! `413` body over the cap, `422` valid request the engine rejects,
//! `500` isolated panic, `503` + `Retry-After` shed at admission, `504`
//! deadline exhausted before anything was analyzable.

use crate::analysis::SocTdvAnalysis;
use crate::campaign::{build_unit_netlist, unit_key, CampaignUnit};
use crate::experiment::{run_soc_experiment_guarded, ExperimentOptions};
use crate::report::render_analyze_report;
use crate::runctl::{guard, guard_result, CoreFailure};
use crate::tdv::TdvOptions;
use crate::RunBudget;
use modsoc_atpg::pool::WorkerPool;
use modsoc_metrics::json::{self, JsonValue};
use modsoc_metrics::{Counter, MetricsSink, MetricsSnapshot, Phase, PhaseTimer, RecordingSink};
use modsoc_soc::format::parse_soc;
use modsoc_store::{ClaimOutcome, IngestError, RawDoc, ResultStore, StoreKey};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Hard cap on request head (request line + headers) bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How long the accept loop sleeps between polls of a quiet listener —
/// also the latency bound on noticing a shutdown request.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One slice of a worker's blocking read on a connection that has no
/// complete request buffered yet. Short enough that an idle keep-alive
/// connection never pins a worker for long; long enough that a
/// ping-pong client's next request almost always lands inside the
/// first slice (the read returns as soon as bytes arrive, not at the
/// slice boundary).
const READ_POLL: Duration = Duration::from_millis(15);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads serving requests (each runs one request at a
    /// time; per-request engine parallelism is `jobs`).
    pub workers: usize,
    /// Bounded admission queue: connections accepted but not yet
    /// claimed by a worker. Beyond this, requests are shed with 503.
    pub queue_capacity: usize,
    /// Cap on connections in flight (queued + in service). Beyond
    /// this, requests are shed with 503.
    pub max_connections: usize,
    /// Request bodies over this many bytes get 413.
    pub max_body_bytes: usize,
    /// Socket read timeout: a client that stalls mid-request
    /// (slowloris) is dropped when it expires.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops draining its response
    /// is dropped when it expires.
    pub write_timeout: Duration,
    /// Server-enforced deadline cap per request, in milliseconds. A
    /// request's own `timeout_ms` may shorten it but never extend it.
    pub max_request_ms: u64,
    /// `Retry-After` seconds advertised on shed (503) responses.
    pub retry_after_secs: u64,
    /// Worker threads per request ([`ExperimentOptions::with_jobs`]):
    /// the per-core pool, then the monolithic run's fault-simulation
    /// sweeps. Also the width of a batch's dispatch, whose units then run
    /// serially inside.
    pub jobs: usize,
    /// Content-addressed result store shared with CLI runs; also the
    /// coalescing key domain.
    pub store: Option<Arc<ResultStore>>,
    /// Whether store lookups are performed (`false` refreshes entries).
    pub store_read: bool,
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive).
    /// Off by default: one request per connection, `Connection: close`,
    /// exactly the pre-keep-alive behavior.
    pub keep_alive: bool,
    /// Requests served on one connection before the server closes it
    /// (bounds how long one client can monopolize worker attention).
    pub keep_alive_max_requests: usize,
    /// How long a keep-alive connection may sit with no request bytes
    /// before the server closes it. Once a request has *started*
    /// arriving, `read_timeout` governs instead.
    pub idle_timeout: Duration,
    /// Cap on experiment units fused into one pool dispatch. `1`
    /// disables batching (every coalesce leader computes alone).
    pub batch_max: usize,
    /// How long a batch leader waits for compatible units to rendezvous
    /// before dispatching whatever has arrived.
    pub batch_window: Duration,
}

/// Weighted round-robin shares for the (light, heavy) admission lanes
/// when both are non-empty: four light dispatches per heavy one under
/// contention. An empty lane never blocks the other (work-conserving).
const LANE_WEIGHTS: (u64, u64) = (4, 1);

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 256,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_ms: 30_000,
            retry_after_secs: 1,
            jobs: 1,
            store: None,
            store_read: true,
            keep_alive: false,
            keep_alive_max_requests: 256,
            idle_timeout: Duration::from_secs(2),
            batch_max: 1,
            batch_window: Duration::from_millis(3),
        }
    }
}

/// An HTTP response to one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Response {
    status: u16,
    content_type: &'static str,
    retry_after: Option<u64>,
    body: String,
}

impl Response {
    fn json(status: u16, body: JsonValue) -> Response {
        Response {
            status,
            content_type: "application/json",
            retry_after: None,
            body: body.to_compact(),
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            JsonValue::Object(vec![
                ("status".to_string(), JsonValue::String("error".to_string())),
                ("error".to_string(), JsonValue::String(message.to_string())),
            ]),
        )
    }
}

/// One in-flight coalesced computation: followers wait on the condvar
/// until the leader publishes the response.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Response>>,
    cv: Condvar,
}

/// Which admission lane a parsed request is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Cheap control-plane traffic: `/analyze`, `/healthz`, `/metrics`,
    /// `/shutdown`, errors.
    Light,
    /// `/experiment` — engine runs that can hold a worker for seconds.
    Heavy,
}

/// One admitted connection between requests: the socket plus any bytes
/// read past the previous request (pipelining carry-over) and the
/// keep-alive bookkeeping.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Requests already served on this connection.
    served: usize,
    /// When a connection with *no* request bytes pending is closed.
    idle_deadline: Instant,
    /// Once the first byte of a request has arrived: when the rest must
    /// be complete (slowloris / stalled-body defense). `None` between
    /// requests.
    read_deadline: Option<Instant>,
}

/// A fully parsed request waiting in an admission lane for a worker.
#[derive(Debug)]
struct ComputeItem {
    conn: Conn,
    req: Request,
    lane: Lane,
    enqueued: Instant,
}

/// The scheduler state all workers share: connections waiting for
/// request bytes plus the two parsed-request lanes and their
/// round-robin tokens. One mutex keeps admission accounting exact.
#[derive(Debug, Default)]
struct Sched {
    /// Connections awaiting (more of) a request: newly admitted and
    /// recycled keep-alive sockets alike.
    read_q: VecDeque<Conn>,
    light: VecDeque<ComputeItem>,
    heavy: VecDeque<ComputeItem>,
    light_tokens: u64,
    heavy_tokens: u64,
}

impl Sched {
    /// Work not yet claimed by any worker — the quantity admission
    /// control bounds with `queue_capacity`.
    fn pending(&self) -> usize {
        self.read_q.len() + self.light.len() + self.heavy.len()
    }
}

/// One experiment enrolled for batch formation: the inputs a leader
/// needs to run it plus the slot its response is published into.
#[derive(Debug)]
struct BatchJob {
    unit: CampaignUnit,
    options: ExperimentOptions,
    timeout_ms: Option<u64>,
    key_hex: String,
    /// Batch-compatibility class ([`ExperimentOptions::fingerprint`]
    /// of the *effective* options, `skip_monolithic` applied).
    fingerprint: String,
    slot: Arc<Mutex<Option<Response>>>,
}

/// Rendezvous point for batch formation. `forming` serializes *leader
/// election* only — a formed batch computes outside the lock, so a new
/// leader can collect the next batch while the previous one runs.
#[derive(Debug, Default)]
struct BatchState {
    pending: Vec<BatchJob>,
    forming: bool,
}

/// State shared between the accept loop, the workers and handles.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    sink: RecordingSink,
    sched: Mutex<Sched>,
    sched_cv: Condvar,
    shutdown: AtomicBool,
    /// Connections admitted and not yet fully served.
    active: AtomicUsize,
    started: Instant,
    inflight: Mutex<HashMap<[u8; 32], Arc<Flight>>>,
    batch: Mutex<BatchState>,
    batch_cv: Condvar,
    /// Heavy-lane requests a worker has claimed and not yet answered.
    /// Batch leaders use it to decide whether a compatible companion
    /// could still enroll — idle keep-alive connections sitting in the
    /// read queue are invisible here, so serial traffic never waits
    /// out the batch window for company that cannot come.
    heavy_busy: AtomicUsize,
}

/// RAII decrement for [`Shared::heavy_busy`] — panic-safe, so a poisoned
/// request can never permanently inflate the batch-prospect count.
struct HeavyBusy<'a>(&'a AtomicUsize);

impl Drop for HeavyBusy<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Lock that survives a poisoned mutex: a panicking holder is already
/// isolated per request, and serving degraded beats deadlocking the
/// daemon.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A handle for triggering (and observing) shutdown from outside
/// [`Server::run`] — a signal-watcher thread, a test, or the
/// `POST /shutdown` endpoint.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin a graceful drain: stop accepting, finish queued work,
    /// make [`Server::run`] return. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.sched_cv.notify_all();
        self.shared.batch_cv.notify_all();
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// The `modsoc serve` daemon: admission queue → coalesce → worker pool
/// → respond. See the module docs for the architecture.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener (port 0 picks an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                sink: RecordingSink::new(),
                sched: Mutex::new(Sched::default()),
                sched_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                started: Instant::now(),
                inflight: Mutex::new(HashMap::new()),
                batch: Mutex::new(BatchState::default()),
                batch_cv: Condvar::new(),
                heavy_busy: AtomicUsize::new(0),
            }),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is requested, then drain the queue and
    /// return the final metrics snapshot. The accept loop runs on the
    /// calling thread; `config.workers` request workers are scoped to
    /// this call.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures. Per-request errors
    /// never surface here — they become HTTP error responses.
    pub fn run(self) -> io::Result<MetricsSnapshot> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        std::thread::scope(|s| {
            for _ in 0..shared.config.workers.max(1) {
                s.spawn(move || worker_loop(shared));
            }
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => admit(shared, stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    // Transient accept failures (EMFILE under load,
                    // aborted handshakes) must not kill the daemon.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            shared.sched_cv.notify_all();
            shared.batch_cv.notify_all();
        });
        Ok(self.shared.sink.snapshot())
    }
}

/// Admission control: shed with 503 when the connection cap or the
/// pending-work bound is hit, otherwise enqueue for a worker. The
/// bound counts everything no worker has claimed yet — connections
/// awaiting bytes *and* parsed requests waiting in a lane — so a
/// backlog parked in the lanes sheds exactly like one parked in the
/// old single queue did.
fn admit(shared: &Shared, stream: TcpStream) {
    let over_cap = shared.active.load(Ordering::SeqCst) >= shared.config.max_connections;
    if !over_cap {
        let mut sched = lock_clean(&shared.sched);
        if sched.pending() < shared.config.queue_capacity {
            shared.active.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
            // Persistent connections live or die by this: with Nagle
            // on, the head/body write pair stalls behind delayed ACKs
            // (~10-40ms per response). One-shot connections never saw
            // it because their closing FIN flushed the last segment.
            let _ = stream.set_nodelay(true);
            sched.read_q.push_back(Conn {
                stream,
                buf: Vec::new(),
                served: 0,
                // A fresh connection gets the read timeout to produce
                // its first request; only *recycled* keep-alive
                // connections run on the idle clock.
                idle_deadline: Instant::now() + shared.config.read_timeout,
                read_deadline: None,
            });
            drop(sched);
            shared.sched_cv.notify_one();
            return;
        }
    }
    shed(shared, stream);
}

/// Refuse one connection with `503` + `Retry-After` (never a hang: the
/// socket gets short timeouts and is closed either way).
///
/// After writing the refusal the unread request is drained briefly:
/// closing with unread bytes in the receive buffer makes the kernel
/// send RST, which can destroy the buffered 503 before the client
/// reads it. The drain runs on the accept thread, so its timeout is
/// deliberately tiny — a well-behaved client half-closes right after
/// sending and hits EOF immediately; a stalling one costs at most
/// ~200 ms of accept latency, not a worker.
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.sink.add(Counter::ServeShed, 1);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let resp = Response {
        retry_after: Some(shared.config.retry_after_secs),
        ..Response::error(503, "server is at capacity, retry shortly")
    };
    let _ = write_response(&mut stream, &resp, false);
    drain_body(&mut stream);
}

/// What a worker pulled off the scheduler.
#[derive(Debug)]
enum Work {
    /// A connection that needs (more of) a request read.
    Read(Conn),
    /// A parsed request ready to compute and answer.
    Compute(ComputeItem),
}

/// What became of the connection a worker was handling.
#[derive(Debug)]
enum Disposition {
    /// The connection went back into a scheduler queue.
    Kept,
    /// The connection is gone; the caller releases its `active` slot.
    Closed,
}

/// One worker: interleave lane dispatch (weighted round-robin) with
/// read polling until shutdown *and* every queue is drained (graceful
/// shutdown finishes admitted work).
fn worker_loop(shared: &Shared) {
    while let Some(work) = next_work(shared) {
        // The outer guard is the worker's last line of defense: even a
        // panic outside the handler's own guard (e.g. in response
        // serialization) costs one connection, not the worker.
        let disposition = match work {
            Work::Read(conn) => guard(|| handle_read(shared, conn)),
            Work::Compute(item) => guard(|| handle_compute(shared, item)),
        };
        match disposition {
            Ok(Disposition::Kept) => {}
            Ok(Disposition::Closed) => {
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => {
                shared.sink.add(Counter::ServePanics, 1);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Claim the next unit of work: lane items first (through the weighted
/// round-robin), then a connection to read. Returns `None` only when
/// shutdown is requested and nothing is left to drain.
fn next_work(shared: &Shared) -> Option<Work> {
    let mut sched = lock_clean(&shared.sched);
    loop {
        if let Some(item) = pick_lane(&mut sched) {
            return Some(Work::Compute(item));
        }
        if let Some(conn) = sched.read_q.pop_front() {
            return Some(Work::Read(conn));
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let (s, _) = shared
            .sched_cv
            .wait_timeout(sched, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sched = s;
    }
}

/// Weighted round-robin with refilling tokens: when both lanes hold
/// work, dispatches split `light:heavy =` [`LANE_WEIGHTS`]; an empty
/// lane cedes its turn (never the whole scheduler) to the other.
fn pick_lane(sched: &mut Sched) -> Option<ComputeItem> {
    if sched.light.is_empty() && sched.heavy.is_empty() {
        return None;
    }
    if sched.light_tokens == 0 && sched.heavy_tokens == 0 {
        (sched.light_tokens, sched.heavy_tokens) = LANE_WEIGHTS;
    }
    if !sched.light.is_empty() && (sched.light_tokens > 0 || sched.heavy.is_empty()) {
        sched.light_tokens = sched.light_tokens.saturating_sub(1);
        return sched.light.pop_front();
    }
    sched.heavy_tokens = sched.heavy_tokens.saturating_sub(1);
    sched.heavy.pop_front()
}

/// Push a connection back into the read queue and wake a worker.
fn requeue(shared: &Shared, conn: Conn) -> Disposition {
    let mut sched = lock_clean(&shared.sched);
    sched.read_q.push_back(conn);
    drop(sched);
    shared.sched_cv.notify_one();
    Disposition::Kept
}

/// Recycle a keep-alive connection after answering one request: bump
/// the served count, rearm the idle clock, and rejoin the read queue.
/// Carried-over pipelined bytes run on the read (not idle) clock.
fn recycle(shared: &Shared, mut conn: Conn) -> Disposition {
    conn.served += 1;
    let now = Instant::now();
    conn.idle_deadline = now + shared.config.idle_timeout;
    conn.read_deadline = if conn.buf.is_empty() {
        None
    } else {
        Some(now + shared.config.read_timeout)
    };
    requeue(shared, conn)
}

/// Whether the connection may serve another request after this one.
fn may_keep_alive(shared: &Shared, conn: &Conn, client_close: bool) -> bool {
    shared.config.keep_alive
        && !client_close
        && !shared.shutdown.load(Ordering::SeqCst)
        && conn.served + 1 < shared.config.keep_alive_max_requests.max(1)
}

/// Answer a request that failed in the read path (400/408/413-unframed)
/// and close: after these the byte stream can no longer be trusted to
/// be request-aligned, so keep-alive never continues past them.
fn fail_and_close(shared: &Shared, conn: &mut Conn, resp: &Response) -> Disposition {
    shared.sink.add(Counter::ServeRequests, 1);
    let _ = write_response(&mut conn.stream, resp, false);
    Disposition::Closed
}

/// Progress one connection toward a parsed request: consume buffered
/// bytes first (pipelining carry-over), then poll the socket in
/// [`READ_POLL`] slices so an idle keep-alive connection never pins a
/// worker. A connection that stalls mid-request past its deadline gets
/// a clean `408` + close — its late bytes can never be misparsed as a
/// fresh request line.
fn handle_read(shared: &Shared, mut conn: Conn) -> Disposition {
    loop {
        match try_parse(&conn.buf, shared.config.max_body_bytes) {
            TryParse::Complete(req, consumed) => {
                conn.buf.drain(..consumed);
                return dispatch(shared, conn, req);
            }
            TryParse::Oversized {
                head_end,
                content_length,
                close,
            } => {
                return handle_oversized(shared, conn, head_end, content_length, close);
            }
            TryParse::Malformed => {
                let resp = Response::error(400, "malformed HTTP request");
                return fail_and_close(shared, &mut conn, &resp);
            }
            TryParse::HeadTooBig => {
                drain_body(&mut conn.stream);
                let resp = Response::error(413, "request head exceeds the size cap");
                return fail_and_close(shared, &mut conn, &resp);
            }
            TryParse::Incomplete => {}
        }
        // Draining for shutdown: a connection *between* requests is not
        // admitted work — close it instead of reading further.
        if shared.shutdown.load(Ordering::SeqCst) && conn.buf.is_empty() {
            return Disposition::Closed;
        }
        let _ = conn.stream.set_read_timeout(Some(READ_POLL));
        let mut tmp = [0u8; 4096];
        match conn.stream.read(&mut tmp) {
            // Clean EOF: the client is done with this connection.
            Ok(0) => return Disposition::Closed,
            Ok(n) => {
                conn.buf.extend_from_slice(&tmp[..n]);
                if conn.read_deadline.is_none() {
                    conn.read_deadline = Some(Instant::now() + shared.config.read_timeout);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let now = Instant::now();
                if conn.buf.is_empty() && conn.read_deadline.is_none() {
                    if now >= conn.idle_deadline {
                        // Idle timeout with nothing buffered: silent
                        // close, exactly what an idle peer expects.
                        return Disposition::Closed;
                    }
                } else if now >= conn.read_deadline.unwrap_or(conn.idle_deadline) {
                    // A request started arriving and then stalled past
                    // its deadline (e.g. a body sent after the idle
                    // timeout fired). Answer 408 and close.
                    shared.sink.add(Counter::ServeRequestTimeouts, 1);
                    let resp = Response::error(408, "request timed out before it was complete");
                    return fail_and_close(shared, &mut conn, &resp);
                }
                // Deadline not reached: yield the worker and requeue.
                return requeue(shared, conn);
            }
            Err(_) => return Disposition::Closed,
        }
    }
}

/// Route a parsed request into its admission lane.
fn dispatch(shared: &Shared, mut conn: Conn, req: Request) -> Disposition {
    let now = Instant::now();
    conn.read_deadline = if conn.buf.is_empty() {
        None
    } else {
        // A pipelined next request is already (partially) buffered:
        // keep it on the read clock.
        Some(now + shared.config.read_timeout)
    };
    let lane = if req.path == "/experiment" {
        Lane::Heavy
    } else {
        Lane::Light
    };
    shared.sink.add(
        match lane {
            Lane::Light => Counter::ServeLaneLight,
            Lane::Heavy => Counter::ServeLaneHeavy,
        },
        1,
    );
    let item = ComputeItem {
        conn,
        req,
        lane,
        enqueued: now,
    };
    let mut sched = lock_clean(&shared.sched);
    match lane {
        Lane::Light => sched.light.push_back(item),
        Lane::Heavy => sched.heavy.push_back(item),
    }
    drop(sched);
    shared.sched_cv.notify_one();
    Disposition::Kept
}

/// Compute and answer one parsed request, then recycle or close the
/// connection per the keep-alive rules.
fn handle_compute(shared: &Shared, item: ComputeItem) -> Disposition {
    let ComputeItem {
        mut conn,
        req,
        lane,
        enqueued,
    } = item;
    let wait = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.sink.time(
        match lane {
            Lane::Light => Phase::ServeWaitLight,
            Lane::Heavy => Phase::ServeWaitHeavy,
        },
        wait,
    );
    shared.sink.add(Counter::ServeRequests, 1);
    if conn.served > 0 {
        shared.sink.add(Counter::ServeKeepAliveReuses, 1);
    }
    let response = {
        let _busy = matches!(lane, Lane::Heavy).then(|| {
            shared.heavy_busy.fetch_add(1, Ordering::SeqCst);
            HeavyBusy(&shared.heavy_busy)
        });
        let _t = PhaseTimer::start(&shared.sink, Phase::ServeRequest);
        route(shared, &req)
    };
    let keep = may_keep_alive(shared, &conn, req.close);
    if write_response(&mut conn.stream, &response, keep).is_err() || !keep {
        return Disposition::Closed;
    }
    recycle(shared, conn)
}

/// Reject an over-cap body while keeping the byte stream framed: the
/// announced body is read and discarded so that (under keep-alive) the
/// next request starts exactly at the next byte. An unframeable drain
/// (no bytes coming, or a body past [`DRAIN_LIMIT`]) closes instead.
fn handle_oversized(
    shared: &Shared,
    mut conn: Conn,
    head_end: usize,
    content_length: usize,
    close: bool,
) -> Disposition {
    shared.sink.add(Counter::ServeRequests, 1);
    let body_start = head_end + 4;
    let have = conn
        .buf
        .len()
        .saturating_sub(body_start)
        .min(content_length);
    conn.buf.drain(..body_start + have);
    let framed = drain_exact(
        &mut conn.stream,
        content_length - have,
        shared.config.read_timeout,
    );
    let keep = framed && may_keep_alive(shared, &conn, close);
    let resp = Response::error(413, "request body exceeds the size cap");
    if write_response(&mut conn.stream, &resp, keep).is_err() || !keep {
        return Disposition::Closed;
    }
    recycle(shared, conn)
}

/// A parsed request: method, path, body, and whether the client asked
/// to close the connection after the response.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    close: bool,
}

/// Outcome of trying to parse one request out of a connection buffer.
#[derive(Debug)]
enum TryParse {
    /// A full request plus how many buffer bytes it consumed.
    Complete(Request, usize),
    /// Valid so far; more bytes needed.
    Incomplete,
    /// Head parsed but the announced body exceeds the cap: the caller
    /// can still drain `content_length` bytes to stay framed.
    Oversized {
        head_end: usize,
        content_length: usize,
        close: bool,
    },
    /// Request line + headers exceed [`MAX_HEAD_BYTES`].
    HeadTooBig,
    /// Not parseable as HTTP/1.1.
    Malformed,
}

/// Parse one HTTP/1.1 request (request line, headers, `Content-Length`
/// body) from the front of `buf` without consuming it.
///
/// Framing is strict, because a request this server frames differently
/// from a proxy in front of it could smuggle a second request inside the
/// first one's body: a `Content-Length` must be plain ASCII digits, two
/// of them must agree, and any `Transfer-Encoding` is refused (bodies
/// are never chunked here).
fn try_parse(buf: &[u8], max_body: usize) -> TryParse {
    let Some(head_end) = find_blank_line(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return TryParse::HeadTooBig;
        }
        return TryParse::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return TryParse::Malformed;
    };
    let mut lines = head.split("\r\n");
    let Some(request_line) = lines.next() else {
        return TryParse::Malformed;
    };
    let mut parts = request_line.split_ascii_whitespace();
    let Some(method) = parts.next() else {
        return TryParse::Malformed;
    };
    let Some(path) = parts.next() else {
        return TryParse::Malformed;
    };
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return TryParse::Malformed,
    }
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return TryParse::Malformed;
                }
                let Ok(v) = value.parse::<usize>() else {
                    return TryParse::Malformed;
                };
                if content_length.is_some_and(|seen| seen != v) {
                    return TryParse::Malformed;
                }
                content_length = Some(v);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return TryParse::Malformed;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return TryParse::Oversized {
            head_end,
            content_length,
            close,
        };
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return TryParse::Incomplete;
    }
    TryParse::Complete(
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: buf[head_end + 4..total].to_vec(),
            close,
        },
        total,
    )
}

/// Cap on how much of a rejected oversized body the server reads and
/// discards before responding 413. Past it the client just sees the
/// connection close.
const DRAIN_LIMIT: usize = 16 * 1024 * 1024;

/// Swallow the remainder of a rejected request body so the refusal can
/// be delivered to a client still mid-send. Stops at EOF (a client that
/// half-closed after sending), the read timeout, or [`DRAIN_LIMIT`].
fn drain_body(stream: &mut TcpStream) {
    let mut tmp = [0u8; 8192];
    let mut total = 0usize;
    while total < DRAIN_LIMIT {
        match stream.read(&mut tmp) {
            Ok(0) | Err(_) => return,
            Ok(n) => total += n,
        }
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Discard exactly `need` more bytes of a rejected request body so the
/// connection stays request-aligned (keep-alive can continue past a
/// 413). Returns `false` — meaning the connection must close — when
/// the peer stops sending, the read timeout expires, or the announced
/// body exceeds [`DRAIN_LIMIT`] (then the unframed best-effort drain
/// runs instead, matching the one-shot behavior).
fn drain_exact(stream: &mut TcpStream, mut need: usize, read_timeout: Duration) -> bool {
    if need > DRAIN_LIMIT {
        drain_body(stream);
        return false;
    }
    let _ = stream.set_read_timeout(Some(read_timeout));
    let deadline = Instant::now() + read_timeout;
    let mut tmp = [0u8; 8192];
    while need > 0 {
        if Instant::now() >= deadline {
            return false;
        }
        let want = tmp.len().min(need);
        match stream.read(&mut tmp[..want]) {
            Ok(0) | Err(_) => return false,
            Ok(n) => need -= n,
        }
    }
    true
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

fn route(shared: &Shared, req: &Request) -> Response {
    // `/store/get?key=…` style requests carry their operand in the
    // query string; everything before `?` selects the handler.
    let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            JsonValue::Object(vec![(
                "status".to_string(),
                JsonValue::String("ok".to_string()),
            )]),
        ),
        ("GET", "/metrics") => metrics_response(shared),
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.sched_cv.notify_all();
            shared.batch_cv.notify_all();
            Response::json(
                200,
                JsonValue::Object(vec![(
                    "status".to_string(),
                    JsonValue::String("draining".to_string()),
                )]),
            )
        }
        ("POST", "/analyze") => handle_analyze(shared, &req.body),
        ("POST", "/experiment") => handle_experiment(shared, &req.body),
        ("GET", "/store/get") => handle_store_get(shared, query),
        ("POST", "/store/put") => handle_store_put(shared, &req.body),
        ("POST", "/store/evict") => handle_store_evict(shared, &req.body),
        ("POST", "/store/claim") => handle_store_claim(shared, &req.body),
        ("GET", "/store/journal") => handle_store_journal_get(shared, query),
        ("POST", "/store/journal") => handle_store_journal_merge(shared, &req.body),
        (
            _,
            "/healthz" | "/metrics" | "/shutdown" | "/analyze" | "/experiment" | "/store/get"
            | "/store/put" | "/store/evict" | "/store/claim" | "/store/journal",
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "unknown path"),
    }
}

/// Extract one `name=value` pair from a query string. Values are used
/// verbatim (keys are hex, journal names are pre-sanitized stems — no
/// percent-decoding is needed or performed).
fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.to_string())
    })
}

/// The store behind the `/store/*` endpoints, or the 422 telling the
/// client this daemon was started without `--store` (a non-retryable
/// configuration error, distinct from the 404 that means "miss").
fn store_handle(shared: &Shared) -> Result<&Arc<ResultStore>, Response> {
    shared
        .config
        .store
        .as_ref()
        .ok_or_else(|| Response::error(422, "this server has no --store"))
}

/// `GET /store/get?key=<hex>`: serve the raw entry document, 404 on a
/// miss. The bytes are *not* validated here — the corruption taxonomy
/// runs exactly once, on the consuming client, so server-side damage is
/// observed (and evicted) client-side.
fn handle_store_get(shared: &Shared, query: &str) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let Some(key_hex) = query_param(query, "key") else {
        return Response::error(400, "missing key=<hex> query parameter");
    };
    if StoreKey::from_hex(&key_hex).is_none() {
        return Response::error(400, "malformed key");
    }
    shared.sink.add(Counter::StoreRemoteGets, 1);
    match store.load_entry_raw(&key_hex) {
        RawDoc::Present(text) => Response {
            status: 200,
            content_type: "application/json",
            retry_after: None,
            body: text,
        },
        RawDoc::Missing => Response::error(404, "miss"),
        RawDoc::Unreadable(why) => {
            // Unreadable on the serving side can never be validated by
            // anyone; evict here rather than shipping garbage.
            let key = StoreKey::from_hex(&key_hex).expect("validated above");
            store.evict(&key, &why, &shared.sink);
            Response::error(404, "miss")
        }
    }
}

/// `POST /store/put`: ingest a full entry envelope (the body is the
/// document). The envelope is validated — schema, key, checksum — and
/// stored byte-verbatim, so an entry written through the daemon is
/// identical to one the client would have written locally.
fn handle_store_put(shared: &Shared, body: &[u8]) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let text = match body_str(body) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let Some(key_hex) = json::parse(text)
        .ok()
        .and_then(|d| d.get("key").and_then(JsonValue::as_str).map(String::from))
    else {
        return Response::error(422, "body is not an entry envelope with a key field");
    };
    shared.sink.add(Counter::StoreRemotePuts, 1);
    match store.ingest(&key_hex, text, &shared.sink) {
        Ok(()) => Response::json(
            200,
            JsonValue::Object(vec![
                (
                    "status".to_string(),
                    JsonValue::String("stored".to_string()),
                ),
                ("key".to_string(), JsonValue::String(key_hex)),
            ]),
        ),
        Err(IngestError::Invalid(why)) => Response::error(422, &why),
        Err(IngestError::Store(e)) => store_error_response(&e),
    }
}

/// `POST /store/evict {"key":<hex>}` or `{"journal":<name>}`: a remote
/// reader failed validation on a document this daemon served and asks
/// for it to be removed — the write half of the client-side corruption
/// taxonomy.
fn handle_store_evict(shared: &Shared, body: &[u8]) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let text = match body_str(body) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "malformed JSON body");
    };
    let why = doc
        .get("why")
        .and_then(JsonValue::as_str)
        .unwrap_or("remote eviction")
        .to_string();
    if let Some(key_hex) = doc.get("key").and_then(JsonValue::as_str) {
        let Some(key) = StoreKey::from_hex(key_hex) else {
            return Response::error(400, "malformed key");
        };
        store.evict(&key, &why, &shared.sink);
    } else if let Some(name) = doc.get("journal").and_then(JsonValue::as_str) {
        store.remove_journal(name, &why, &shared.sink);
    } else {
        return Response::error(400, "body needs a key or journal field");
    }
    Response::json(
        200,
        JsonValue::Object(vec![(
            "status".to_string(),
            JsonValue::String("evicted".to_string()),
        )]),
    )
}

/// `POST /store/claim`: the compare-and-swap distributed campaigns
/// partition work with. Body: `{"journal":…,"unit":…,"owner":…,
/// "action":"acquire"|"renew"|"release","key":…,"lease_ms":…}`.
fn handle_store_claim(shared: &Shared, body: &[u8]) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let text = match body_str(body) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "malformed JSON body");
    };
    let field = |name: &str| doc.get(name).and_then(JsonValue::as_str).map(String::from);
    let (Some(journal), Some(unit), Some(owner)) =
        (field("journal"), field("unit"), field("owner"))
    else {
        return Response::error(400, "body needs journal, unit and owner fields");
    };
    let key = field("key").unwrap_or_default();
    let lease = Duration::from_millis(
        doc.get("lease_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(30_000),
    );
    let action = field("action").unwrap_or_else(|| "acquire".to_string());
    let outcome = match action.as_str() {
        "acquire" => store.claim_unit(&journal, &unit, &key, &owner, lease),
        "renew" => store.renew_claim(&journal, &unit, &owner),
        "release" => store.release_claim(&journal, &unit, &owner),
        _ => return Response::error(400, "action must be acquire, renew or release"),
    };
    match outcome {
        Ok(outcome) => {
            let (tag, broke_stale, holder) = match &outcome {
                ClaimOutcome::Acquired { broke_stale } => {
                    shared.sink.add(Counter::StoreClaimsAcquired, 1);
                    if *broke_stale {
                        shared.sink.add(Counter::StoreClaimsExpired, 1);
                    }
                    ("acquired", *broke_stale, String::new())
                }
                ClaimOutcome::Held { owner } => {
                    shared.sink.add(Counter::StoreClaimsHeld, 1);
                    ("held", false, owner.clone())
                }
                ClaimOutcome::Released => ("released", false, String::new()),
                ClaimOutcome::NotOwner => ("not_owner", false, String::new()),
            };
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("outcome".to_string(), JsonValue::String(tag.to_string())),
                    ("broke_stale".to_string(), JsonValue::Bool(broke_stale)),
                    ("owner".to_string(), JsonValue::String(holder)),
                ]),
            )
        }
        Err(e) => store_error_response(&e),
    }
}

/// `GET /store/journal?name=<stem>`: serve the raw journal document,
/// 404 when absent. Like `/store/get`, the bytes are not validated
/// here.
fn handle_store_journal_get(shared: &Shared, query: &str) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let Some(name) = query_param(query, "name") else {
        return Response::error(400, "missing name=<stem> query parameter");
    };
    shared.sink.add(Counter::StoreRemoteJournalOps, 1);
    match store.load_journal_raw(&name) {
        RawDoc::Present(text) => Response {
            status: 200,
            content_type: "application/json",
            retry_after: None,
            body: text,
        },
        RawDoc::Missing => Response::error(404, "miss"),
        RawDoc::Unreadable(why) => {
            store.remove_journal(&name, &why, &shared.sink);
            Response::error(404, "miss")
        }
    }
}

/// `POST /store/journal {"name":…,"entry":{"unit":…,"key":…,
/// "summary":…}}`: merge one completion into the named journal under
/// its lock and return the merged journal document — the backend-side
/// half of [`modsoc_store::Journal::record`] for remote workers.
fn handle_store_journal_merge(shared: &Shared, body: &[u8]) -> Response {
    let store = match store_handle(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let text = match body_str(body) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "malformed JSON body");
    };
    let (Some(name), Some(entry)) = (
        doc.get("name").and_then(JsonValue::as_str),
        doc.get("entry"),
    ) else {
        return Response::error(400, "body needs name and entry fields");
    };
    shared.sink.add(Counter::StoreRemoteJournalOps, 1);
    match store.merge_journal_raw(name, &entry.to_compact(), &shared.sink) {
        Ok(merged) => Response {
            status: 200,
            content_type: "application/json",
            retry_after: None,
            body: merged,
        },
        Err(IngestError::Invalid(why)) => Response::error(422, &why),
        Err(IngestError::Store(e)) => store_error_response(&e),
    }
}

/// Map a backend [`StoreError`] to a wire status: lock contention is
/// transient (503 + Retry-After, the client's backoff handles it), I/O
/// failure is a 500.
fn store_error_response(e: &modsoc_store::StoreError) -> Response {
    match e {
        modsoc_store::StoreError::Contended { .. } => {
            let mut r = Response::error(503, "store lock contended; retry");
            r.retry_after = Some(1);
            r
        }
        _ => Response::error(500, &e.to_string()),
    }
}

/// The live `/metrics` snapshot: queue/connection gauges plus every
/// counter and phase accumulator from the serve sink.
fn metrics_response(shared: &Shared) -> Response {
    let snap = shared.sink.snapshot();
    let counters = JsonValue::Object(
        Counter::ALL
            .iter()
            .map(|c| {
                (
                    c.name().to_string(),
                    JsonValue::Number(snap.counter(*c) as f64),
                )
            })
            .collect(),
    );
    let phases = JsonValue::Object(
        Phase::ALL
            .iter()
            .filter(|p| snap.phase_calls(**p) > 0)
            .map(|p| {
                (
                    p.name().to_string(),
                    JsonValue::Object(vec![
                        (
                            "calls".to_string(),
                            JsonValue::Number(snap.phase_calls(*p) as f64),
                        ),
                        ("wall_ms".to_string(), JsonValue::Number(snap.phase_ms(*p))),
                    ]),
                )
            })
            .collect(),
    );
    let (read_depth, light_depth, heavy_depth) = {
        let sched = lock_clean(&shared.sched);
        (sched.read_q.len(), sched.light.len(), sched.heavy.len())
    };
    let lane = |depth: usize, weight: u64| {
        JsonValue::Object(vec![
            ("depth".to_string(), JsonValue::Number(depth as f64)),
            ("weight".to_string(), JsonValue::Number(weight as f64)),
        ])
    };
    let mut fields = vec![
        ("schema".to_string(), JsonValue::Number(1.0)),
        (
            "uptime_ms".to_string(),
            JsonValue::Number(shared.started.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "queue_depth".to_string(),
            JsonValue::Number((read_depth + light_depth + heavy_depth) as f64),
        ),
        (
            "read_depth".to_string(),
            JsonValue::Number(read_depth as f64),
        ),
        (
            "lanes".to_string(),
            JsonValue::Object(vec![
                ("light".to_string(), lane(light_depth, LANE_WEIGHTS.0)),
                ("heavy".to_string(), lane(heavy_depth, LANE_WEIGHTS.1)),
            ]),
        ),
        (
            "queue_capacity".to_string(),
            JsonValue::Number(shared.config.queue_capacity as f64),
        ),
        (
            "active_connections".to_string(),
            JsonValue::Number(shared.active.load(Ordering::SeqCst) as f64),
        ),
        (
            "workers".to_string(),
            JsonValue::Number(shared.config.workers as f64),
        ),
        ("counters".to_string(), counters),
        ("phases".to_string(), phases),
    ];
    if let Some(store) = &shared.config.store {
        fields.push((
            "store".to_string(),
            JsonValue::Object(vec![
                ("hits".to_string(), JsonValue::Number(store.hits() as f64)),
                (
                    "misses".to_string(),
                    JsonValue::Number(store.misses() as f64),
                ),
                (
                    "writes".to_string(),
                    JsonValue::Number(store.writes() as f64),
                ),
                (
                    "evictions".to_string(),
                    JsonValue::Number(store.evictions() as f64),
                ),
                (
                    "retries".to_string(),
                    JsonValue::Number(store.retries() as f64),
                ),
            ]),
        ));
    }
    Response::json(200, JsonValue::Object(fields))
}

fn body_str(body: &[u8]) -> Result<&str, Response> {
    std::str::from_utf8(body).map_err(|_| Response::error(400, "request body is not UTF-8"))
}

/// `POST /analyze`: run the TDV analysis on an inline `.soc` document.
///
/// Body fields: `soc` (required, the `.soc` text), `exclude_chip_pins`
/// (bool), `reuse` (0..=1), `measured_tmono` (u64), `format`
/// (`"json"` default, or `"text"` for bytes identical to
/// `modsoc analyze` stdout).
fn handle_analyze(shared: &Shared, body: &[u8]) -> Response {
    let text = match body_str(body) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "request body is not valid JSON");
    };
    let Some(soc_text) = doc.get("soc").and_then(JsonValue::as_str) else {
        return Response::error(400, "missing string field 'soc' (.soc file text)");
    };
    let exclude_chip_pins = matches!(doc.get("exclude_chip_pins"), Some(JsonValue::Bool(true)));
    let reuse = doc.get("reuse").and_then(JsonValue::as_f64);
    let measured_tmono = doc.get("measured_tmono").and_then(JsonValue::as_u64);
    let as_text = doc.get("format").and_then(JsonValue::as_str) == Some("text");
    if let Some(r) = reuse {
        if !(0.0..=1.0).contains(&r) {
            return Response::error(422, "'reuse' must be between 0 and 1");
        }
    }
    let computed = guard_result(|| -> Result<_, String> {
        let soc = parse_soc(soc_text).map_err(|e| e.to_string())?;
        let mut options = if exclude_chip_pins {
            TdvOptions::tables_1_2()
        } else {
            TdvOptions::tables_3_4()
        };
        if let Some(r) = reuse {
            options = options.with_functional_reuse(r);
        }
        let analysis = match measured_tmono {
            Some(t) => SocTdvAnalysis::compute_with_measured_tmono(&soc, &options, t)
                .map_err(|e| e.to_string())?,
            None => SocTdvAnalysis::compute(&soc, &options).map_err(|e| e.to_string())?,
        };
        Ok((soc, analysis))
    });
    match computed {
        Ok((soc, analysis)) => {
            if as_text {
                Response {
                    status: 200,
                    content_type: "text/plain; charset=utf-8",
                    retry_after: None,
                    body: render_analyze_report(&soc, &analysis),
                }
            } else {
                Response::json(
                    200,
                    JsonValue::Object(vec![
                        ("status".to_string(), JsonValue::String("ok".to_string())),
                        ("soc".to_string(), JsonValue::String(soc.name().to_string())),
                        (
                            "tdv_modular".to_string(),
                            JsonValue::Number(analysis.modular().total() as f64),
                        ),
                        (
                            "tdv_monolithic".to_string(),
                            JsonValue::Number(analysis.monolithic().total() as f64),
                        ),
                        (
                            "modular_change_pct".to_string(),
                            JsonValue::Number(analysis.modular_change_pct()),
                        ),
                    ]),
                )
            }
        }
        Err(CoreFailure::Panicked(msg)) => {
            shared.sink.add(Counter::ServePanics, 1);
            Response::error(500, &format!("analysis panicked: {msg}"))
        }
        Err(failure) => Response::error(422, &failure.to_string()),
    }
}

/// `POST /experiment`: run one campaign-unit-shaped experiment
/// (`{"soc": "mini", "seed": 7}` or a generated-cores description),
/// coalesced on the unit's content address.
///
/// Extra field `timeout_ms` tightens (never extends) the server's
/// per-request deadline cap. Note the coalescing key is the *content*
/// address: like `jobs`, the timeout is excluded, so concurrent
/// identical units share one computation under the leader's budget.
fn handle_experiment(shared: &Shared, body: &[u8]) -> Response {
    let text = match body_str(body) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let Ok(doc) = json::parse(text) else {
        return Response::error(400, "request body is not valid JSON");
    };
    let timeout_ms = doc.get("timeout_ms").and_then(JsonValue::as_u64);
    let unit_doc = with_default_name(&doc);
    let unit = match CampaignUnit::from_json(&unit_doc, 0) {
        Ok(u) => u,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let options = experiment_options(shared);
    let key = unit_key(&unit, &options);
    // The *effective* options (skip_monolithic applied) define batch
    // compatibility: units whose fingerprints match produce bytes
    // independent of who they share a dispatch with.
    let mut effective = options;
    if unit.skip_monolithic {
        effective.monolithic = false;
    }
    let fingerprint = effective.fingerprint();
    let key_hex = key.hex();
    coalesce(shared, key.0, || {
        batch_or_compute(
            shared,
            BatchJob {
                unit,
                options: effective,
                timeout_ms,
                key_hex,
                fingerprint,
                slot: Arc::new(Mutex::new(None)),
            },
        )
    })
}

/// Give an anonymous experiment request the default unit name — the
/// name feeds the content key, so all anonymous requests for the same
/// unit coalesce.
fn with_default_name(doc: &JsonValue) -> JsonValue {
    if let JsonValue::Object(fields) = doc {
        if !fields.iter().any(|(k, _)| k == "name") {
            let mut fields = fields.clone();
            fields.push(("name".to_string(), JsonValue::String("request".to_string())));
            return JsonValue::Object(fields);
        }
    }
    doc.clone()
}

fn experiment_options(shared: &Shared) -> ExperimentOptions {
    let mut options = ExperimentOptions::paper_tables_1_2().with_jobs(shared.config.jobs);
    if let Some(store) = &shared.config.store {
        options = options
            .with_store(Arc::clone(store))
            .with_store_read(shared.config.store_read);
    }
    options
}

/// Single-flight coalescing: the first requester for `key` computes,
/// every concurrent duplicate waits on the leader's [`Flight`] and gets
/// the same response bytes.
fn coalesce(shared: &Shared, key: [u8; 32], compute: impl FnOnce() -> Response) -> Response {
    let flight = {
        let mut inflight = lock_clean(&shared.inflight);
        match inflight.get(&key) {
            Some(f) => Some(Arc::clone(f)),
            None => {
                inflight.insert(key, Arc::new(Flight::default()));
                None
            }
        }
    };
    let Some(flight) = flight else {
        // Leader: compute, publish, wake every follower. Publication
        // happens even if compute() returns an error response — the
        // followers asked the same question and get the same answer.
        let response = compute();
        let flight = lock_clean(&shared.inflight)
            .remove(&key)
            .unwrap_or_default();
        *lock_clean(&flight.done) = Some(response.clone());
        flight.cv.notify_all();
        return response;
    };
    // Follower: wait for the leader, bounded by the server's request
    // cap plus slack for queue time. A leader that outlives the bound
    // (wedged I/O) gets this follower a 504 rather than a hang.
    shared.sink.add(Counter::ServeCoalesceHits, 1);
    let deadline =
        Instant::now() + Duration::from_millis(shared.config.max_request_ms.saturating_mul(2));
    let mut done = lock_clean(&flight.done);
    loop {
        if let Some(response) = done.clone() {
            return response;
        }
        if Instant::now() >= deadline {
            shared.sink.add(Counter::ServeDeadlineTrips, 1);
            return Response::error(504, "coalesced computation did not finish in time");
        }
        let (d, _) = flight
            .cv
            .wait_timeout(done, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        done = d;
    }
}

/// Batching entry point for a coalesce leader: with batching disabled
/// (`batch_max <= 1`) compute directly; otherwise enroll the job at
/// the batch rendezvous and either *lead* a batch (collect compatible
/// jobs for up to [`ServeConfig::batch_window`], run them as one pool
/// dispatch) or wait for another leader to fill this job's slot.
///
/// `forming` serializes leader election only — a formed batch computes
/// outside the lock, so collection of the next batch overlaps the
/// previous batch's run.
fn batch_or_compute(shared: &Shared, job: BatchJob) -> Response {
    if shared.config.batch_max <= 1 {
        return compute_experiment(
            shared,
            &job.unit,
            &job.options,
            job.timeout_ms,
            &job.key_hex,
        );
    }
    let slot = Arc::clone(&job.slot);
    {
        let mut batch = lock_clean(&shared.batch);
        batch.pending.push(job);
    }
    shared.batch_cv.notify_all();
    let deadline =
        Instant::now() + Duration::from_millis(shared.config.max_request_ms.saturating_mul(2));
    let mut state = lock_clean(&shared.batch);
    loop {
        if let Some(response) = lock_clean(&slot).clone() {
            return response;
        }
        if !state.forming {
            state.forming = true;
            let formed = collect_batch(shared, state);
            if !formed.is_empty() {
                run_batch(shared, &formed);
                shared.batch_cv.notify_all();
            }
            // This leader's own job may have been claimed by a batch
            // another leader formed earlier; loop to re-check the slot.
            state = lock_clean(&shared.batch);
            continue;
        }
        if Instant::now() >= deadline {
            shared.sink.add(Counter::ServeDeadlineTrips, 1);
            return Response::error(504, "batched computation did not finish in time");
        }
        let (s, _) = shared
            .batch_cv
            .wait_timeout(state, Duration::from_millis(20))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = s;
    }
}

/// Collect one batch: wait (bounded by the batch window) for up to
/// `batch_max` jobs compatible with the oldest pending job, then
/// extract them. Consumes the guard; `forming` is reset before return.
fn collect_batch(shared: &Shared, mut state: MutexGuard<'_, BatchState>) -> Vec<BatchJob> {
    let max = shared.config.batch_max;
    let until = Instant::now() + shared.config.batch_window;
    while let Some(class) = state.pending.first().map(|j| j.fingerprint.clone()) {
        let compatible = state
            .pending
            .iter()
            .filter(|j| j.fingerprint == class)
            .count();
        if compatible >= max || Instant::now() >= until || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // The window is only worth paying when a companion could still
        // arrive: a heavy item queued in its lane, or one claimed by
        // another worker that has not enrolled here yet (coalesce
        // followers overcount this — a bounded wait, never a stall).
        // Serial traffic sees zero prospects and skips the window, so
        // a lone request never trades latency for a batch of one.
        let queued = lock_clean(&shared.sched).heavy.len();
        let unenrolled = shared
            .heavy_busy
            .load(Ordering::SeqCst)
            .saturating_sub(state.pending.len());
        if queued + unenrolled == 0 {
            break;
        }
        let (s, _) = shared
            .batch_cv
            .wait_timeout(state, Duration::from_millis(1))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = s;
    }
    let mut formed = Vec::new();
    if let Some(class) = state.pending.first().map(|j| j.fingerprint.clone()) {
        let mut i = 0;
        while i < state.pending.len() && formed.len() < max {
            if state.pending[i].fingerprint == class {
                formed.push(state.pending.remove(i));
            } else {
                i += 1;
            }
        }
    }
    state.forming = false;
    drop(state);
    shared.batch_cv.notify_all();
    formed
}

/// Run one formed batch and publish each job's response into its slot.
/// A singleton batch runs exactly like the unbatched path (full
/// per-request `jobs`); a real batch fans the units across one
/// [`WorkerPool`] dispatch, inside which each unit runs serially (a map
/// called from a pool worker does not spawn) — the jobs-invariance
/// contract keeps every response byte-identical to its solo execution,
/// whatever the batch composition.
fn run_batch(shared: &Shared, formed: &[BatchJob]) {
    shared.sink.add(Counter::ServeBatches, 1);
    shared
        .sink
        .add(Counter::ServeBatchedUnits, formed.len() as u64);
    let responses: Vec<Response> = if formed.len() == 1 {
        let job = &formed[0];
        vec![compute_experiment(
            shared,
            &job.unit,
            &job.options,
            job.timeout_ms,
            &job.key_hex,
        )]
    } else {
        WorkerPool::new(shared.config.jobs).map(formed, |_, job| {
            compute_experiment(
                shared,
                &job.unit,
                &job.options,
                job.timeout_ms,
                &job.key_hex,
            )
        })
    };
    for (job, response) in formed.iter().zip(responses) {
        *lock_clean(&job.slot) = Some(response);
    }
}

fn compute_experiment(
    shared: &Shared,
    unit: &CampaignUnit,
    options: &ExperimentOptions,
    timeout_ms: Option<u64>,
    key_hex: &str,
) -> Response {
    let cap = shared.config.max_request_ms;
    let ms = timeout_ms.map_or(cap, |t| t.min(cap));
    let budget = RunBudget::unlimited().with_timeout(Duration::from_millis(ms));
    let result = guard_result(|| {
        let netlist = build_unit_netlist(unit)?;
        let mut unit_options = options.clone();
        if unit.skip_monolithic {
            unit_options.monolithic = false;
        }
        run_soc_experiment_guarded(&netlist, &unit_options, &budget)
    });
    match result {
        Ok(completion) => {
            let exp = &completion.result;
            let (status, note) = if let Some(e) = &completion.exhausted {
                shared.sink.add(Counter::ServeDeadlineTrips, 1);
                ("partial", e.to_string())
            } else if completion.failed_cores().is_empty() {
                ("ok", String::new())
            } else {
                let cores: Vec<&str> = completion
                    .failed_cores()
                    .iter()
                    .map(|o| o.core.as_str())
                    .collect();
                ("degraded", format!("failed cores: {}", cores.join(", ")))
            };
            Response::json(
                200,
                JsonValue::Object(vec![
                    ("status".to_string(), JsonValue::String(status.to_string())),
                    ("unit".to_string(), JsonValue::String(unit.name.clone())),
                    ("key".to_string(), JsonValue::String(key_hex.to_string())),
                    ("t_mono".to_string(), JsonValue::Number(exp.t_mono as f64)),
                    (
                        "tdv_modular".to_string(),
                        JsonValue::Number(exp.analysis.modular().total() as f64),
                    ),
                    (
                        "tdv_monolithic".to_string(),
                        JsonValue::Number(exp.analysis.monolithic().total() as f64),
                    ),
                    (
                        "reduction_ratio".to_string(),
                        JsonValue::Number(exp.analysis.reduction_ratio()),
                    ),
                    ("note".to_string(), JsonValue::String(note)),
                ]),
            )
        }
        Err(CoreFailure::Panicked(msg)) => {
            shared.sink.add(Counter::ServePanics, 1);
            Response::error(500, &format!("experiment panicked: {msg}"))
        }
        Err(failure) => {
            // A budget so tight the run errored out before producing
            // anything analyzable is a timeout, not a client error.
            if budget.check().is_some() {
                shared.sink.add(Counter::ServeDeadlineTrips, 1);
                Response::error(504, &format!("request deadline exhausted: {failure}"))
            } else {
                Response::error(422, &failure.to_string())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Minimal HTTP client — shared by `modsoc loadgen`, the CI serve gate
// and the chaos tests, so the test stack exercises the same parser
// family as the server.
// ---------------------------------------------------------------------

/// A response as seen by [`http_request`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issue one HTTP/1.1 request (`Connection: close`) and read its
/// response with the keep-alive client's reader.
///
/// # Errors
///
/// Propagates connect/read/write failures; a malformed or truncated
/// response is reported as [`io::ErrorKind::InvalidData`] or
/// [`io::ErrorKind::UnexpectedEof`].
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let sock_addr: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    // Half-close: tells the server the body is finished (its drain of a
    // rejected oversized body hits EOF instead of its read timeout).
    let _ = stream.shutdown(std::net::Shutdown::Write);
    read_response(&mut stream, &mut Vec::new())
}

/// Parse a response head (status line + headers, no terminator).
fn parse_response_head(head: &str) -> io::Result<(u16, Vec<(String, String)>)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    let headers = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok((status, headers))
}

/// A persistent HTTP/1.1 client: issues many requests over one socket
/// (`Connection: keep-alive`), reconnecting at most once per request
/// when a reused socket turns out dead (the server may have idle-closed
/// it between requests). Tracks reuse statistics for `modsoc loadgen`.
///
/// Responses are framed by `Content-Length` (the server always sends
/// one); a response without it is read to EOF and the connection is
/// retired, as is any response carrying `Connection: close`.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    requests: u64,
    connects: u64,
    reused: u64,
}

impl HttpClient {
    /// Build a client for `addr` (connects lazily on first request).
    ///
    /// # Errors
    ///
    /// Rejects an unparseable address.
    pub fn new(addr: &str, timeout: Duration) -> io::Result<HttpClient> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        Ok(HttpClient {
            addr,
            timeout,
            stream: None,
            carry: Vec::new(),
            requests: 0,
            connects: 0,
            reused: 0,
        })
    }

    /// Requests issued, sockets opened, and requests served on a
    /// reused socket, in that order.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.requests, self.connects, self.reused)
    }

    /// Issue one request over the persistent connection.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures after the single
    /// stale-socket retry; malformed responses are
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        self.requests += 1;
        let mut reusing = self.stream.is_some();
        loop {
            if self.stream.is_none() {
                let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                stream.set_nodelay(true)?;
                self.stream = Some(stream);
                self.carry.clear();
                self.connects += 1;
            }
            let stream = self.stream.as_mut().expect("connected above");
            match client_roundtrip(stream, &mut self.carry, &self.addr, method, path, body) {
                Ok(resp) => {
                    if reusing {
                        self.reused += 1;
                    }
                    if resp.header("connection") == Some("close")
                        || resp.header("content-length").is_none()
                    {
                        self.stream = None;
                        self.carry.clear();
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.stream = None;
                    self.carry.clear();
                    // A dead reused socket is expected (server-side
                    // idle close raced our send): retry once, fresh.
                    if reusing {
                        reusing = false;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// One request/response exchange on an established keep-alive socket.
/// `carry` holds bytes read past the previous response; leftovers past
/// this response stay in it.
fn client_roundtrip(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    read_response(stream, carry)
}

/// Read one response from `stream`, framed by its `Content-Length`
/// (read to EOF when it has none). `carry` holds bytes already read
/// past the previous response; bytes past this one stay in it.
fn read_response(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<HttpResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let eof = || {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )
    };
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_blank_line(carry) {
            break pos;
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
        match stream.read(&mut tmp)? {
            0 => return Err(eof()),
            n => carry.extend_from_slice(&tmp[..n]),
        }
    };
    let head_text =
        std::str::from_utf8(&carry[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let (status, headers) = parse_response_head(head_text)?;
    carry.drain(..head_end + 4);
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = match content_length {
        Some(len) => {
            while carry.len() < len {
                match stream.read(&mut tmp)? {
                    0 => return Err(eof()),
                    n => carry.extend_from_slice(&tmp[..n]),
                }
            }
            carry.drain(..len).collect()
        }
        None => {
            // No framing: read to EOF; the caller retires the socket.
            let mut rest = std::mem::take(carry);
            stream.read_to_end(&mut rest)?;
            rest
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(
        config: ServeConfig,
    ) -> (
        String,
        ServerHandle,
        std::thread::JoinHandle<MetricsSnapshot>,
    ) {
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn mini_body(seed: u64) -> String {
        format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 10000}}")
    }

    #[test]
    fn healthz_metrics_and_unknown_paths() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(5);
        let health = http_request(&addr, "GET", "/healthz", None, t).unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body_text().contains("\"ok\""));
        let metrics = http_request(&addr, "GET", "/metrics", None, t).unwrap();
        assert_eq!(metrics.status, 200);
        let doc = json::parse(&metrics.body_text()).unwrap();
        assert!(doc.get("queue_capacity").is_some());
        assert!(doc
            .get("counters")
            .and_then(|c| c.get("serve_requests"))
            .is_some());
        let missing = http_request(&addr, "GET", "/nope", None, t).unwrap();
        assert_eq!(missing.status, 404);
        let wrong = http_request(&addr, "GET", "/analyze", None, t).unwrap();
        assert_eq!(wrong.status, 405);
        handle.shutdown();
        let snap = join.join().unwrap();
        assert!(snap.counter(Counter::ServeRequests) >= 4);
    }

    #[test]
    fn analyze_text_matches_cli_rendering() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let soc_text = "soc demo\ncore a i=4 o=3 b=0 s=10 t=50\ncore b i=2 o=2 b=0 s=8 t=30\n";
        let body = JsonValue::Object(vec![
            ("soc".to_string(), JsonValue::String(soc_text.to_string())),
            ("format".to_string(), JsonValue::String("text".to_string())),
        ])
        .to_compact();
        let resp = http_request(
            &addr,
            "POST",
            "/analyze",
            Some(&body),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let soc = parse_soc(soc_text).unwrap();
        let analysis = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        assert_eq!(resp.body_text(), render_analyze_report(&soc, &analysis));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn malformed_and_oversized_requests_get_typed_errors() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            max_body_bytes: 256,
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(5);
        let bad = http_request(&addr, "POST", "/analyze", Some("{not json"), t).unwrap();
        assert_eq!(bad.status, 400);
        let huge = "x".repeat(1024);
        let oversized = http_request(&addr, "POST", "/analyze", Some(&huge), t).unwrap();
        assert_eq!(oversized.status, 413);
        let unprocessable =
            http_request(&addr, "POST", "/experiment", Some("{\"soc\": \"nope\"}"), t).unwrap();
        assert_eq!(unprocessable.status, 422);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn analyze_overflow_is_unprocessable() {
        // A poisoned core, and three cores whose rows fit but whose
        // SOC-level sums overflow u64: both are 422, never a clamped 200.
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(5);
        let m = u64::MAX;
        let big = "i=4 o=3 s=3000000000 t=2000000000";
        for (soc_text, what) in [
            (
                format!("soc p\ncore a i=4 o=3 s=20 t=100\ncore p i=1 o=1 s={m} t={m}\n"),
                "core `p` overflows",
            ),
            (
                format!("soc big\ncore a {big}\ncore b {big}\ncore c {big}\n"),
                "SOC-level modular TDV (Eq. 4) overflows",
            ),
        ] {
            let body = JsonValue::Object(vec![("soc".to_string(), JsonValue::String(soc_text))])
                .to_compact();
            let resp = http_request(&addr, "POST", "/analyze", Some(&body), t).unwrap();
            assert_eq!(resp.status, 422, "{}", resp.body_text());
            assert!(resp.body_text().contains(what), "{}", resp.body_text());
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn experiment_runs_and_coalesces_identical_requests() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 4,
            jobs: 1,
            ..ServeConfig::default()
        });
        let body = mini_body(7);
        let mut bodies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let addr = addr.clone();
                    let body = body.clone();
                    s.spawn(move || {
                        http_request(
                            &addr,
                            "POST",
                            "/experiment",
                            Some(&body),
                            Duration::from_secs(30),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let resp = h.join().unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_text());
                    resp.body_text()
                })
                .collect()
        });
        bodies.dedup();
        assert_eq!(
            bodies.len(),
            1,
            "identical requests must serve identical bytes"
        );
        assert!(bodies[0].contains("\"status\":\"ok\""), "{}", bodies[0]);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_endpoint_drains_the_server() {
        let (addr, _handle, join) = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let resp = http_request(&addr, "POST", "/shutdown", None, Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("draining"));
        let snap = join.join().unwrap();
        assert_eq!(snap.counter(Counter::ServePanics), 0);
    }

    /// `try_parse` with a 64-byte body cap.
    fn parse(raw: &[u8]) -> TryParse {
        try_parse(raw, 64)
    }

    #[test]
    fn request_parser_completes_a_framed_request_and_leaves_the_next() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabcGET /b";
        let TryParse::Complete(req, consumed) = parse(raw) else {
            panic!("{:?}", parse(raw));
        };
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/a"));
        assert_eq!(req.body, b"abc");
        assert!(req.close);
        assert_eq!(
            &raw[consumed..],
            b"GET /b",
            "a pipelined request stays buffered"
        );
        // No body and no Content-Length; repeated agreeing lengths.
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(
            matches!(parse(raw), TryParse::Complete(r, n) if r.body.is_empty() && n == raw.len())
        );
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length:  2 \r\n\r\nhi";
        assert!(matches!(parse(raw), TryParse::Complete(r, _) if r.body == b"hi"));
    }

    #[test]
    fn request_parser_waits_for_the_head_and_the_body() {
        assert!(matches!(parse(b""), TryParse::Incomplete));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            TryParse::Incomplete
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc"),
            TryParse::Incomplete
        ));
    }

    #[test]
    fn request_parser_flags_an_oversized_body_with_its_framing() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 65\r\nConnection: close\r\n\r\n";
        let TryParse::Oversized {
            head_end,
            content_length,
            close,
        } = parse(raw)
        else {
            panic!("{:?}", parse(raw));
        };
        assert_eq!((head_end + 4, content_length, close), (raw.len(), 65, true));
    }

    #[test]
    fn request_parser_caps_the_head() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.resize(MAX_HEAD_BYTES + 1, b'a');
        assert!(matches!(parse(&raw), TryParse::HeadTooBig));
    }

    #[test]
    fn request_parser_refuses_ambiguous_framing() {
        for raw in [
            &b"\xff / HTTP/1.1\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: five\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\ntransfer-encoding: identity\r\n\r\nhello",
        ] {
            assert!(
                matches!(parse(raw), TryParse::Malformed),
                "{:?}: {:?}",
                String::from_utf8_lossy(raw),
                parse(raw)
            );
        }
    }

    /// Apply `(offset, op, payload)` edits to `bytes`: each flips bits of
    /// a byte, deletes it, or inserts `payload` before it (or at the end).
    fn mutate(mut bytes: Vec<u8>, edits: Vec<(usize, u8, u8)>) -> Vec<u8> {
        for (offset, op, payload) in edits {
            let at = offset % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] ^= payload | 1,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, payload),
            }
        }
        bytes
    }

    /// A real response: the raw bytes a live daemon writes for
    /// `GET /healthz`, read to EOF.
    fn real_response() -> &'static [u8] {
        static RAW: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        RAW.get_or_init(|| {
            let (addr, handle, join) = start(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            });
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).unwrap();
            handle.shutdown();
            join.join().unwrap();
            assert_eq!(
                read_response(&mut &raw[..], &mut Vec::new())
                    .unwrap()
                    .status,
                200
            );
            raw
        })
    }

    proptest::proptest! {
        /// Byte-level mutations of a valid pipelined request stream: the
        /// parser never panics, and a complete request never claims more
        /// bytes than the buffer holds.
        #[test]
        fn mutated_requests_never_panic_the_parser(
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 0u8..3, proptest::prelude::any::<u8>()),
                0..12,
            ),
            cap in 0usize..80,
        ) {
            let bytes = mutate(b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nConnection: keep-alive\r\n\r\nsoc m core aGET /healthz HTTP/1.1\r\n\r\n".to_vec(), edits);
            if let TryParse::Complete(req, consumed) = try_parse(&bytes, cap) {
                proptest::prop_assert!(consumed <= bytes.len());
                proptest::prop_assert!(req.body.len() <= cap.min(consumed));
            }
        }

        /// Byte-level mutations of a real response: the client's reader
        /// never panics, and an accepted response's body is exactly the
        /// bytes after its first blank line, cut to its `Content-Length`
        /// when it has one.
        #[test]
        fn mutated_responses_never_panic_the_client_parser(
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 0u8..3, proptest::prelude::any::<u8>()),
                0..12,
            ),
        ) {
            let bytes = mutate(real_response().to_vec(), edits);
            let _ = parse_response_head(&String::from_utf8_lossy(&bytes));
            if let Ok(resp) = read_response(&mut &bytes[..], &mut Vec::new()) {
                let end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                let rest = &bytes[end + 4..];
                let framed = resp.header("content-length").and_then(|v| v.parse::<usize>().ok());
                let expected = framed.map_or(rest, |len| &rest[..len]);
                proptest::prop_assert_eq!(resp.body, expected.to_vec());
            }
        }
    }

    #[test]
    fn request_parser_rejects_garbage() {
        let read = |raw: &[u8]| read_response(&mut &raw[..], &mut Vec::new());
        let resp = read(b"HTTP/1.1 200 OK\r\ncontent-type: a\r\n\r\nhi").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some("a"));
        assert_eq!(resp.body_text(), "hi");
        assert!(read(b"garbage").is_err());
    }

    #[test]
    fn keep_alive_reuses_one_socket_across_requests() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 2,
            keep_alive: true,
            ..ServeConfig::default()
        });
        let mut client = HttpClient::new(&addr, Duration::from_secs(5)).unwrap();
        for _ in 0..4 {
            let resp = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("connection"), Some("keep-alive"));
        }
        let (requests, connects, reused) = client.stats();
        assert_eq!((requests, connects, reused), (4, 1, 3));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(snap.counter(Counter::ServeKeepAliveReuses), 3);
    }

    #[test]
    fn keep_alive_request_cap_closes_and_client_reconnects() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            keep_alive: true,
            keep_alive_max_requests: 2,
            ..ServeConfig::default()
        });
        let mut client = HttpClient::new(&addr, Duration::from_secs(5)).unwrap();
        let first = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(first.header("connection"), Some("keep-alive"));
        let second = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(second.header("connection"), Some("close"));
        let third = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(third.status, 200);
        let (requests, connects, reused) = client.stats();
        assert_eq!((requests, connects, reused), (3, 2, 1));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn keep_alive_oversized_body_is_drained_and_connection_survives() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            keep_alive: true,
            max_body_bytes: 256,
            ..ServeConfig::default()
        });
        let mut client = HttpClient::new(&addr, Duration::from_secs(5)).unwrap();
        let huge = "x".repeat(4096);
        let resp = client.request("POST", "/analyze", Some(&huge)).unwrap();
        assert_eq!(resp.status, 413);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        let ok = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(ok.status, 200);
        let (_, connects, reused) = client.stats();
        assert_eq!((connects, reused), (1, 1));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn pick_lane_serves_four_light_per_heavy_and_an_empty_lane_cedes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let item = |lane: Lane, path: String| ComputeItem {
            conn: Conn {
                stream: stream.try_clone().unwrap(),
                buf: Vec::new(),
                served: 0,
                idle_deadline: Instant::now(),
                read_deadline: None,
            },
            req: Request {
                method: "GET".to_string(),
                path,
                body: Vec::new(),
                close: false,
            },
            lane,
            enqueued: Instant::now(),
        };
        // Fill a fresh scheduler and drain it in dispatch order.
        let order = |light: usize, heavy: usize| -> Vec<String> {
            let mut sched = Sched::default();
            for k in 0..light {
                sched.light.push_back(item(Lane::Light, format!("l{k}")));
            }
            for k in 0..heavy {
                sched.heavy.push_back(item(Lane::Heavy, format!("h{k}")));
            }
            std::iter::from_fn(|| pick_lane(&mut sched))
                .map(|item| item.req.path)
                .collect()
        };
        // Both lanes busy: four light, then one heavy. Once the light
        // lane runs dry it cedes its turns to the heavy one.
        assert_eq!(
            order(6, 3),
            ["l0", "l1", "l2", "l3", "h0", "l4", "l5", "h1", "h2"]
        );
        // An empty heavy lane cedes its turns to the light one.
        assert_eq!(order(6, 0), ["l0", "l1", "l2", "l3", "l4", "l5"]);
        assert_eq!(order(0, 2), ["h0", "h1"]);
    }

    #[test]
    fn analyze_lane_outruns_experiment_backlog() {
        // One worker, a heavy /experiment queued first: the light lane
        // must still get scheduled between heavy units rather than
        // waiting for the whole heavy backlog (WDRR, not FIFO).
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            keep_alive: true,
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(30);
        let mut heavy: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    http_request(&addr, "POST", "/experiment", Some(&mini_body(90 + i)), t).unwrap()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let analyze = http_request(&addr, "GET", "/healthz", None, t).unwrap();
        assert_eq!(analyze.status, 200);
        for h in heavy.drain(..) {
            assert_eq!(h.join().unwrap().status, 200);
        }
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(snap.counter(Counter::ServeLaneHeavy), 3);
        assert!(snap.counter(Counter::ServeLaneLight) >= 1);
    }
}
