//! The event-driven TCP server: **one event thread owns every socket**
//! through a readiness loop ([`crate::poll::Poller`] — epoll on Linux),
//! and a small fixed worker pool does only CPU work.
//!
//! Connections are **keep-alive** and cheap while idle: an open
//! connection costs one fd plus its buffers, so thousands of mostly-idle
//! clients can stay connected while `workers` stays in the single digits
//! — `workers` bounds concurrent *CPU* work, not concurrent
//! *connections*. Complete request frames are handed to the worker pool
//! over a bounded queue and replies are written back in completion
//! order — **possibly out of order** within a connection, which is
//! exactly what the envelope correlation id exists for; clients may
//! pipeline up to [`NetConfig::max_pipeline`] requests per connection
//! before the server stops reading from it (natural TCP backpressure,
//! never an error). No worker ever touches a socket and the event
//! thread never runs the service.
//!
//! # The three hand-offs
//!
//! A request crosses three boundaries inside the server, and each is
//! built so that a *burst* costs a constant number of syscalls, not one
//! per request:
//!
//! * **Event thread → workers.** Every frame parsed out of one read is
//!   pushed onto the job queue under **one** lock acquisition. The
//!   number of parked workers lives under that same mutex (a worker
//!   counts itself in immediately before it waits and out immediately
//!   after), so the event thread calls `notify_one` only
//!   `min(pushed, parked)` times — with every worker busy a push is a
//!   plain mutex operation, and busy workers find the job when they
//!   come back to the queue. A worker takes its share of what is
//!   already queued, up to [`MAX_BATCH`] jobs, and hands them to
//!   [`NetService::handle_batch`] together, so a service can do work
//!   for several requests at once (the wire service signs their
//!   licenses in one batch); each reply is pushed as soon as the
//!   service gives it.
//! * **Workers → event thread.** A worker pushes its reply and then
//!   rings the doorbell: it writes the self-wake byte only if
//!   `pending.swap(true)` was `false`. The protocol's one invariant is
//!   **clear-before-take**: the event thread clears `pending` *before*
//!   it takes the reply vector, so a reply pushed after the take always
//!   finds the flag clear and rings, and a reply that found the flag
//!   set is always covered by a take that has not happened yet. The
//!   25 ms poll tick is a safety net, never the mechanism; a reply or
//!   job that had to wait for a timeout is counted in
//!   [`MetricsSnapshot::late_wakeups`], which stays 0.
//! * **Event thread → sockets.** A drained reply batch is first
//!   appended to its connections' write buffers (per-connection order
//!   is queue order), then each touched connection gets **one** pass:
//!   parse parked frames, one write, close check, interest update. The
//!   client in turn receives several replies per read.
//!
//! [`MetricsSnapshot`] reads the batching straight off:
//! `requests_served / reply_writes` is replies per socket write,
//! `event_wakes / requests_served` doorbell bytes per request.
//!
//! # Protections
//!
//! Oversized frames are answered with a well-formed error and the
//! connection drained before close (so the reply is not lost to an
//! RST), a mid-frame stall is swept after [`NetConfig::read_timeout`]
//! (the slow-loris budget — an *idle* connection, with no partial frame
//! buffered, never expires), requests past [`NetConfig::queue_depth`]
//! are shed with a busy envelope echoing their correlation id (the
//! connection stays open), connections past
//! [`NetConfig::max_connections`] are shed at accept, a peer that stops
//! draining its replies is dropped after [`NetConfig::write_timeout`],
//! and graceful shutdown drains dispatched requests and flushes their
//! replies before joining every thread.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::frame::{DEFAULT_MAX_FRAME, LEN_PREFIX};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::poll::{Event, Poller};
use p2drm_core::service::{
    correlation_hint, ApiError, ApiErrorCode, ProviderService, ResponseEnvelope, WireResponse,
};
use p2drm_store::ConcurrentKv;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Anything the server can put behind a socket: one total function from
/// request bytes to response bytes, callable from many worker threads.
pub trait NetService: Send + Sync + 'static {
    /// Answers one request. Must be total — malformed input yields an
    /// error *response*, never a panic (the wire service already is).
    fn handle(&self, request: &[u8]) -> Vec<u8>;

    /// Answers the requests one worker took off the queue together;
    /// `reply(i, bytes)` sends request `i`'s response, once each, as soon
    /// as it is ready. The default answers them one by one with
    /// [`NetService::handle`], so a service that does not override it
    /// sees exactly one `handle` per request.
    fn handle_batch(&self, requests: &[&[u8]], reply: &mut dyn FnMut(usize, Vec<u8>)) {
        for (i, request) in requests.iter().enumerate() {
            reply(i, self.handle(request));
        }
    }
}

impl<B> NetService for ProviderService<B>
where
    B: ConcurrentKv + Send + Sync + 'static,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        ProviderService::handle(self, request)
    }

    /// The purchases and transfers among `requests` share one batch of
    /// public-key operations and license signatures; every other
    /// request is answered first.
    fn handle_batch(&self, requests: &[&[u8]], reply: &mut dyn FnMut(usize, Vec<u8>)) {
        ProviderService::handle_batch(self, requests, reply);
    }
}

/// Adapter turning a closure into a [`NetService`] (test middleware:
/// inject latency, count requests, wrap a real service).
pub struct ServiceFn<F>(pub F);

impl<F> NetService for ServiceFn<F>
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        (self.0)(request)
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads — the concurrent **CPU work** bound (no longer a
    /// connection bound: the event thread holds every connection).
    pub workers: usize,
    /// Open connections the server holds before shedding new ones at
    /// accept with a busy response.
    pub max_connections: usize,
    /// Dispatched-but-unclaimed **requests** the worker hand-off queue
    /// buffers; past it, requests are shed with a busy envelope echoing
    /// their correlation id while the connection stays open.
    pub queue_depth: usize,
    /// Hard cap on request/response frame payloads.
    pub max_frame: u32,
    /// The slow-loris budget: once a frame has started arriving, it
    /// must complete within this duration or the connection is dropped.
    /// Idle connections (no partial frame buffered) never expire.
    pub read_timeout: Duration,
    /// How long a connection's outbound buffer may sit unflushed (the
    /// peer not draining) before the connection is dropped.
    pub write_timeout: Duration,
    /// Requests one connection may have dispatched-but-unanswered
    /// before the server stops reading from it until replies drain
    /// (per-connection pipelining cap → TCP backpressure).
    pub max_pipeline: usize,
    /// Metrics registry the server contributes to when set: the
    /// [`ServerMetrics`] register as a weak source (so one registry
    /// snapshot includes the `net_*` counters), enqueue→worker-pickup
    /// wait lands in the registry's `net_queue_wait_ns` histogram and
    /// dispatch→reply latency (that wait plus service time) in
    /// `net_dispatch_ns`.
    pub registry: Option<Arc<p2drm_obs::Registry>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            max_connections: 64,
            queue_depth: 16,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(1),
            max_pipeline: 32,
            registry: None,
        }
    }
}

impl NetConfig {
    /// Short timeouts for tests: malformed-frame sweeps and shutdown
    /// paths resolve in tens of milliseconds.
    pub fn fast_test() -> Self {
        NetConfig {
            read_timeout: Duration::from_millis(60),
            write_timeout: Duration::from_millis(500),
            ..Self::default()
        }
    }
}

/// One decoded request frame on its way to a worker.
struct Job {
    conn: u64,
    request: Vec<u8>,
    /// When the event thread queued the frame (one reading per parsed
    /// batch); the worker times queue wait and dispatch→reply from it.
    queued_at: Instant,
}

/// The worker hand-off queue. `parked` lives under the same mutex as
/// the queue, so "is anyone asleep" is answered exactly at push time.
struct JobQueue {
    queue: VecDeque<Job>,
    /// Workers inside `jobs_cv.wait_timeout` right now: each counts
    /// itself in just before it waits and out just after it wakes.
    parked: usize,
}

/// One service reply on its way back to the event thread.
struct Reply {
    conn: u64,
    bytes: Vec<u8>,
}

/// The per-request stage histograms a [`NetConfig::registry`] receives.
struct Stages {
    /// Enqueue → worker pickup (`net_queue_wait_ns`).
    queue_wait_ns: Arc<p2drm_obs::AtomicHistogram>,
    /// Enqueue → reply ready (`net_dispatch_ns`): queue wait plus
    /// service time.
    dispatch_ns: Arc<p2drm_obs::AtomicHistogram>,
}

/// The workers' way to wake the event thread out of its poll wait: one
/// byte on a non-blocking socket pair, written only when no earlier
/// ring is still unanswered.
///
/// Invariant (**clear-before-take**): the event thread calls
/// [`Doorbell::clear`] *before* it takes the reply vector. A reply
/// pushed after the take therefore finds `pending` clear and rings; a
/// reply whose ring was skipped (`pending` already set) was pushed
/// before a clear that is still to come, and the take after that clear
/// collects it.
struct Doorbell {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Doorbell {
    /// Rings unless a ring is already pending; `true` when a byte was
    /// written. At most one byte per `clear` is ever in flight, so the
    /// non-blocking write cannot find the socket full.
    fn ring(&self) -> bool {
        if self.pending.swap(true, Ordering::SeqCst) {
            return false;
        }
        let _ = (&self.tx).write(&[1u8]);
        true
    }

    /// Re-arms the bell. Event thread only, before taking the replies.
    fn clear(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// State shared by the event thread, the workers, and the handle.
struct Control {
    config: NetConfig,
    metrics: Arc<ServerMetrics>,
    /// `None` without a [`NetConfig::registry`]: nobody could read the
    /// histograms, so the workers skip the clock readings too.
    stages: Option<Stages>,
    shutdown: AtomicBool,
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    replies: Mutex<Vec<Reply>>,
    doorbell: Doorbell,
}

/// Poisoned locks are recovered, not propagated: both queues hold plain
/// values, so a panicking holder cannot leave them inconsistent.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Control {
    fn wake_event_thread(&self) {
        if self.doorbell.ring() {
            self.metrics.event_wake();
        }
    }
}

/// The TCP front of a wire service.
pub struct DrmServer;

impl DrmServer {
    /// Binds `addr` (use port 0 for an OS-assigned port), spawns the
    /// event thread and `config.workers` workers, and returns the
    /// running server's handle. The service is shared by every worker.
    pub fn bind<S: NetService>(
        addr: impl ToSocketAddrs,
        service: S,
        config: NetConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let metrics = Arc::new(ServerMetrics::new());
        let stages = config.registry.as_ref().map(|registry| {
            let weak = Arc::downgrade(&metrics);
            registry.register_source(
                weak as std::sync::Weak<dyn p2drm_obs::MetricSource + Send + Sync>,
            );
            Stages {
                queue_wait_ns: registry.histogram("net_queue_wait_ns"),
                dispatch_ns: registry.histogram("net_dispatch_ns"),
            }
        });
        let control = Arc::new(Control {
            config: config.clone(),
            metrics,
            stages,
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(JobQueue {
                queue: VecDeque::new(),
                parked: 0,
            }),
            jobs_cv: Condvar::new(),
            replies: Mutex::new(Vec::new()),
            doorbell: Doorbell {
                tx: wake_tx,
                pending: AtomicBool::new(false),
            },
        });
        let service = Arc::new(service);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let control = control.clone();
            let service = service.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("p2drm-net-worker-{i}"))
                    .spawn(move || worker_loop(&control, service.as_ref()))?,
            );
        }
        let event = {
            let control = control.clone();
            let poller = Poller::new()?;
            thread::Builder::new()
                .name("p2drm-net-event".into())
                .spawn(move || EventLoop::new(listener, wake_rx, poller, control).run())?
        };

        Ok(ServerHandle {
            control,
            local_addr,
            event: Some(event),
            workers,
        })
    }
}

/// Handle to a running [`DrmServer`]: address, live metrics, shutdown.
///
/// Dropping the handle also shuts the server down (and joins every
/// thread), so a panicking test cannot leak a listener.
pub struct ServerHandle {
    control: Arc<Control>,
    local_addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.control.metrics.snapshot()
    }

    /// Graceful shutdown: stops accepting, lets every dispatched
    /// request finish and its reply flush to the peer, joins all
    /// threads, and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.control.metrics.snapshot()
    }

    fn stop_and_join(&mut self) {
        // Raised under the jobs lock: a worker is then either before its
        // shutdown check (and sees the flag) or already parked (and gets
        // the notify) — never in between, waiting out its timeout.
        {
            let _jobs = lock(&self.control.jobs);
            self.control.shutdown.store(true, Ordering::SeqCst);
        }
        self.control.jobs_cv.notify_all();
        self.control.wake_event_thread();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A well-formed error response envelope. Correlation id 0 marks a
/// *pre-decode* reply (no request id was available to echo).
fn error_envelope(correlation_id: u64, code: ApiErrorCode, detail: &str) -> Vec<u8> {
    ResponseEnvelope {
        correlation_id,
        body: WireResponse::Error(ApiError::new(code, detail)),
    }
    .to_bytes()
}

/// Base unit of the busy envelope's `retry_after_ms` hint.
const BUSY_RETRY_UNIT_MS: u32 = 5;

/// Backpressure hint for a shed: `unit × (1 + load/capacity)` — one unit
/// when lightly oversubscribed, growing linearly as `load` climbs past
/// `capacity` (a storm of queued work or parked connections tells
/// clients to stay away proportionally longer). Never zero: a busy
/// envelope always carries a hint.
fn busy_retry_after_ms(load: usize, capacity: usize) -> u32 {
    let ratio = (load / capacity.max(1)).min(64) as u32;
    BUSY_RETRY_UNIT_MS * (1 + ratio)
}

/// A busy/shed envelope: [`ApiErrorCode::ServiceUnavailable`] carrying
/// the [`busy_retry_after_ms`] hint, so shedding degrades cooperatively
/// instead of inviting an immediate re-hammer.
fn busy_envelope(correlation_id: u64, detail: &str, load: usize, capacity: usize) -> Vec<u8> {
    ResponseEnvelope {
        correlation_id,
        body: WireResponse::Error(
            ApiError::new(ApiErrorCode::ServiceUnavailable, detail)
                .with_retry_after(busy_retry_after_ms(load, capacity)),
        ),
    }
    .to_bytes()
}

/// How long a parked worker sleeps before re-checking the queue and
/// the shutdown flag on its own — a safety net, never the mechanism: a
/// timeout that finds a job is counted as a late wake-up.
const WORKER_PARK: Duration = Duration::from_millis(50);

/// Most jobs one worker takes off the queue at once. A worker takes
/// only jobs already queued — it never waits for a batch to fill — and
/// at most its share, `⌈queued / workers⌉`, so the other workers find
/// the rest. Eight RSA-1024 license signatures are 24 lanes, three full
/// vertical-kernel calls. Sized on the 2-vCPU benchmark host (2
/// workers, 16 purchases in flight; 10 runs of `purchase_wal` per cap,
/// medians): a cap of 2 read 25.5k ops/s, 4 and 8 26.1k and 26.0k,
/// within each other's quartiles, against 20.1k without batching (5
/// runs);
/// `content_download` and `lifecycle_mix` read the same under every
/// cap. Of the two that tie, 8 is kept: it is the cap that fills whole
/// kernel calls, and with two workers a share above 8 needs more than
/// 16 jobs queued, so it only binds under deeper load.
pub const MAX_BATCH: usize = 8;

/// Blocks until at least one job is queued, then moves this worker's
/// share of the queue into `batch` (see [`MAX_BATCH`]); `false` means
/// shutdown with the queue drained.
fn next_jobs(control: &Control, batch: &mut Vec<Job>) -> bool {
    let mut jobs = lock(&control.jobs);
    loop {
        let queued = jobs.queue.len();
        if queued > 0 {
            let share = queued.div_ceil(control.config.workers.max(1));
            batch.extend(jobs.queue.drain(..share.min(MAX_BATCH)));
            return true;
        }
        if control.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        jobs.parked += 1;
        let (guard, wait) = control
            .jobs_cv
            .wait_timeout(jobs, WORKER_PARK)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        jobs = guard;
        jobs.parked -= 1;
        if wait.timed_out() && !jobs.queue.is_empty() {
            control.metrics.late_wakeup();
        }
    }
}

fn worker_loop<S: NetService>(control: &Control, service: &S) {
    let mut batch = Vec::new();
    while next_jobs(control, &mut batch) {
        if let Some(stages) = &control.stages {
            for job in &batch {
                stages
                    .queue_wait_ns
                    .record_duration(job.queued_at.elapsed());
            }
        }
        let requests: Vec<&[u8]> = batch.iter().map(|job| job.request.as_slice()).collect();
        service.handle_batch(&requests, &mut |i, bytes| {
            let Some(job) = batch.get(i) else {
                return;
            };
            if let Some(stages) = &control.stages {
                stages.dispatch_ns.record_duration(job.queued_at.elapsed());
            }
            control.metrics.request_served();
            lock(&control.replies).push(Reply {
                conn: job.conn,
                bytes,
            });
            // After the push, never before: see `Doorbell`.
            control.wake_event_thread();
        });
        batch.clear();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The event loop's poll tick: bounds the latency of shutdown detection
/// when no socket is ready, and is the period of the deadline sweep
/// whether or not sockets are.
const TICK: Duration = Duration::from_millis(25);

/// Outbound bytes buffered on one connection before the server stops
/// reading more requests from it (on top of the pipelining cap).
const WBUF_HIGHWATER: usize = 256 * 1024;

/// How long an error/shed connection gets to drain its inbound bytes
/// before being closed outright (the RST-avoidance window: closing with
/// unread receive data makes Linux send RST, which can discard the
/// error envelope buffered at the peer).
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// Spare room every read is offered at least; a read that fills its
/// room doubles the buffer, so a connection's buffer settles at the
/// size of its bursts and a quiet one stays at this.
const READ_CHUNK: usize = 4 * 1024;

/// Unparsed bytes one connection may accumulate per wake. Level-
/// triggered polling re-delivers the event, so bounding the take keeps
/// one loud connection from starving the rest.
const RBUF_PER_WAKE: usize = 256 * 1024;

/// A connection's inbound buffer: the socket reads straight into its
/// spare room, frames are parsed out of its front.
#[derive(Default)]
struct ReadBuf {
    /// Initialised storage: `buf[..filled]` is data not yet parsed
    /// into frames, `buf[filled..]` is room for the next read.
    buf: Vec<u8>,
    filled: usize,
}

impl ReadBuf {
    fn len(&self) -> usize {
        self.filled
    }

    fn is_empty(&self) -> bool {
        self.filled == 0
    }

    fn data(&self) -> &[u8] {
        self.buf.get(..self.filled).unwrap_or(&[])
    }

    /// Room for the next read, at least [`READ_CHUNK`] bytes.
    fn spare(&mut self) -> &mut [u8] {
        if self.buf.len() - self.filled < READ_CHUNK {
            let grown = (self.buf.len() * 2).max(self.filled + READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        self.buf.get_mut(self.filled..).unwrap_or(&mut [])
    }

    /// Marks `n` bytes of the spare room as read into.
    fn advance(&mut self, n: usize) {
        self.filled = (self.filled + n).min(self.buf.len());
    }

    /// Drops the first `n` bytes (parsed frames).
    fn consume(&mut self, n: usize) {
        let n = n.min(self.filled);
        if n > 0 {
            self.buf.copy_within(n..self.filled, 0);
            self.filled -= n;
        }
    }

    fn clear(&mut self) {
        self.filled = 0;
    }
}

/// Why a connection stopped being readable.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadState {
    /// Still reading requests.
    Open,
    /// Peer half-closed cleanly (EOF on a frame boundary or not).
    PeerClosed,
    /// The socket errored; nothing more can be written either.
    Dead,
}

/// Per-connection state owned by the event thread.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into frames.
    rbuf: ReadBuf,
    /// Outbound bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Progress into `wbuf`.
    wpos: usize,
    /// Requests dispatched to workers whose replies have not yet been
    /// queued for writing.
    inflight: usize,
    /// Whether this connection participates in the open/idle gauges
    /// (admitted conns do; shed-at-accept drain stubs do not).
    counted: bool,
    read: ReadState,
    /// Set on protocol errors and accept-shed: flush `wbuf`, half-close,
    /// drain briefly, then close — never parse another byte.
    draining: bool,
    /// Half-close performed (drain phase entered).
    sent_fin: bool,
    /// Already on the touched list of the reply batch being flushed.
    in_batch: bool,
    /// Slow-loris budget: armed while `rbuf` holds a partial frame.
    frame_deadline: Option<Instant>,
    /// Peer-not-draining budget: armed while `wbuf` has unflushed bytes.
    write_deadline: Option<Instant>,
    /// Hard close for a draining connection.
    drain_deadline: Option<Instant>,
    /// Interests currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct EventLoop {
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poller: Poller,
    control: Arc<Control>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Frames parsed out of one connection, on their way to the job
    /// queue under one lock acquisition (empty between parses).
    batch: Vec<Job>,
    /// The vector handed to the workers in exchange for the one they
    /// filled, so neither side regrows its buffer batch after batch.
    drained: Vec<Reply>,
    /// Connections the reply batch being flushed has appended to.
    touched: Vec<u64>,
    last_sweep: Instant,
    /// Set once shutdown is observed: no new accepts, no new parses.
    stopping: bool,
    /// Hard deadline for the shutdown drain.
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        poller: Poller,
        control: Arc<Control>,
    ) -> Self {
        EventLoop {
            listener: Some(listener),
            wake_rx,
            poller,
            control,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            batch: Vec::new(),
            drained: Vec::new(),
            touched: Vec::new(),
            last_sweep: Instant::now(),
            stopping: false,
            drain_deadline: None,
        }
    }

    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
                .is_err()
            {
                return;
            }
        }
        if self
            .poller
            .register(self.wake_rx.as_raw_fd(), TOKEN_WAKER, true, false)
            .is_err()
        {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            let fired = std::mem::take(&mut events);
            for ev in &fired {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, ev.readable || ev.hangup),
                }
            }
            // Every pass, whether or not the doorbell was among the
            // events: workers skip the ring while one is pending.
            let had_replies = self.flush_replies();
            if fired.is_empty() && had_replies {
                // The tick expired with nothing ready, yet replies were
                // waiting: their ring never arrived.
                self.control.metrics.late_wakeup();
            }
            events = fired;
            let now = Instant::now();
            if now.duration_since(self.last_sweep) >= TICK {
                self.last_sweep = now;
                self.sweep_deadlines(now);
            }
            if self.shutdown_step() {
                break;
            }
        }
        // Close everything still open (metrics stay consistent).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    // -- accept path ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, aborted handshake)
                // must not kill the loop.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.control.metrics.connection_accepted();
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let over_capacity = self.conns.len() >= self.control.config.max_connections;
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn {
            stream,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            counted: !over_capacity,
            read: ReadState::Open,
            draining: false,
            sent_fin: false,
            in_batch: false,
            frame_deadline: None,
            write_deadline: None,
            drain_deadline: None,
            want_read: false,
            want_write: false,
        };
        if over_capacity {
            // Shed with a decodable busy envelope instead of an opaque
            // reset; the conn lives on briefly as a drain stub. The
            // retry hint scales with how far past the connection limit
            // the accept stream is running.
            self.control.metrics.busy_rejection();
            let frame = busy_envelope(
                0,
                "server busy: connection limit reached",
                self.conns.len(),
                self.control.config.max_connections,
            );
            queue_frame(&mut conn, &frame);
            conn.draining = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
        } else {
            self.control.metrics.connection_opened();
            self.control.metrics.idle_inc();
        }
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, false, false)
            .is_err()
        {
            if conn.counted {
                self.control.metrics.connection_closed();
                self.control.metrics.idle_dec();
            }
            return;
        }
        self.conns.insert(token, conn);
        self.try_write(token);
        self.update_interest(token);
    }

    // -- waker / worker replies -----------------------------------------

    fn drain_waker(&mut self) {
        // The doorbell keeps at most one byte per flush in flight (plus
        // shutdown's), so one read empties the socket — no second read
        // just to see `WouldBlock`; level-triggered polling reports
        // anything that did stay behind.
        let mut sink = [0u8; 16];
        let _ = (&self.wake_rx).read(&mut sink);
    }

    /// Takes everything the workers have queued and sends it: every
    /// reply is first appended to its connection's buffer (queue order
    /// is per-connection reply order), then each touched connection
    /// gets **one** parse / write / close-check / interest pass. `true`
    /// when there was anything to take.
    fn flush_replies(&mut self) -> bool {
        // Clear before take — the doorbell's one invariant.
        self.control.doorbell.clear();
        let mut replies = std::mem::take(&mut self.drained);
        std::mem::swap(&mut *lock(&self.control.replies), &mut replies);
        let had_replies = !replies.is_empty();
        let max_frame = self.control.config.max_frame as usize;
        let mut touched = std::mem::take(&mut self.touched);
        for reply in replies.drain(..) {
            let token = reply.conn;
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection died while its request was in a worker;
                // the reply has nowhere to go.
                continue;
            };
            conn.inflight -= 1;
            if conn.counted && conn.inflight == 0 {
                self.control.metrics.idle_inc();
            }
            if reply.bytes.len() > max_frame {
                // Deliberately no error envelope: the op *was*
                // dispatched, and an error reply would tell the client
                // it was refused (a purchase would take its coin back)
                // when it is only unanswered. Count it, let the replies
                // queued ahead of it go, and close so the client sees a
                // broken connection.
                self.control.metrics.oversized_reply();
                self.try_write(token);
                self.close_conn(token);
                continue;
            }
            queue_frame(conn, &reply.bytes);
            if !conn.in_batch {
                conn.in_batch = true;
                touched.push(token);
            }
        }
        self.drained = replies;
        for token in touched.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.in_batch = false;
            // Replies freed pipeline slots: frames parked in rbuf by the
            // pipelining cap may now dispatch.
            self.parse_frames(token);
            self.try_write(token);
            self.maybe_close(token);
            self.update_interest(token);
        }
        self.touched = touched;
        had_replies
    }

    // -- per-connection readiness ---------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if readable {
            self.try_read(token);
        }
        // One write covers a socket reported writable and whatever the
        // parse just queued (busy and error envelopes).
        self.try_write(token);
        self.maybe_close(token);
        self.update_interest(token);
    }

    fn try_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read != ReadState::Open {
            return;
        }
        loop {
            let spare = conn.rbuf.spare();
            let offered = spare.len();
            match conn.stream.read(spare) {
                Ok(0) => {
                    conn.read = ReadState::PeerClosed;
                    break;
                }
                Ok(n) => {
                    if conn.draining {
                        // Error/shed path: discard inbound bytes so the
                        // eventual close sends FIN, not RST.
                        continue;
                    }
                    conn.rbuf.advance(n);
                    // A short read emptied the socket.
                    if n < offered || conn.rbuf.len() >= RBUF_PER_WAKE {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read = ReadState::Dead;
                    break;
                }
            }
        }
        self.parse_frames(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read != ReadState::Open && !conn.rbuf.is_empty() && !conn.draining {
            // The stream ended mid-frame: a torn frame.
            self.control.metrics.decode_error();
            conn.rbuf.clear();
            conn.frame_deadline = None;
        }
        if conn.read == ReadState::Dead {
            self.close_conn(token);
        }
    }

    /// Parses every complete frame out of `rbuf` and dispatches the lot
    /// under one jobs-lock acquisition, respecting the pipelining cap
    /// and the shutdown freeze. Busy and error envelopes are queued,
    /// not written: the caller's `try_write` follows.
    fn parse_frames(&mut self, token: u64) {
        if self.stopping {
            return;
        }
        let config = &self.control.config;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining {
            return;
        }
        if conn.rbuf.is_empty() {
            conn.frame_deadline = None;
            return;
        }
        let queued_at = Instant::now();
        let mut reject: Option<u32> = None;
        loop {
            let room = config.max_pipeline.saturating_sub(conn.inflight);
            let data = conn.rbuf.data();
            let mut pos = 0usize;
            while self.batch.len() < room {
                let Some(prefix) = data.get(pos..pos + LEN_PREFIX) else {
                    break;
                };
                let mut word = [0u8; LEN_PREFIX];
                word.copy_from_slice(prefix);
                let len = u32::from_le_bytes(word);
                if len > config.max_frame {
                    reject = Some(len);
                    break;
                }
                let body = pos + LEN_PREFIX;
                let Some(request) = data.get(body..body + len as usize) else {
                    break;
                };
                self.batch.push(Job {
                    conn: token,
                    request: request.to_vec(),
                    queued_at,
                });
                pos = body + len as usize;
            }
            conn.rbuf.consume(pos);
            if self.batch.is_empty() {
                break;
            }

            // Dispatch what the queue has room for and wake exactly as
            // many workers as are parked to take it; the rest is shed.
            let (accepted, wake, backlog) = {
                let mut jobs = lock(&self.control.jobs);
                let room = config.queue_depth.saturating_sub(jobs.queue.len());
                let accepted = self.batch.len().min(room);
                jobs.queue.extend(self.batch.drain(..accepted));
                (accepted, accepted.min(jobs.parked), jobs.queue.len())
            };
            for _ in 0..wake {
                self.control.jobs_cv.notify_one();
                self.control.metrics.worker_notify();
            }
            if accepted > 0 {
                if conn.counted && conn.inflight == 0 {
                    self.control.metrics.idle_dec();
                }
                conn.inflight += accepted;
                self.control.metrics.pipeline_depth(conn.inflight as u64);
            }
            let shed = self.batch.len();
            for job in self.batch.drain(..) {
                // The retry hint scales with the backlog the queue is
                // carrying relative to its configured depth.
                self.control.metrics.busy_rejection();
                let frame = busy_envelope(
                    correlation_hint(&job.request),
                    "server busy: request queue full",
                    backlog,
                    config.queue_depth,
                );
                queue_frame(conn, &frame);
            }
            // A shed frame took no pipeline slot, so more may be parsed
            // (and answered) right away; otherwise the buffer is down to
            // a partial frame or the cap is reached.
            if shed == 0 || reject.is_some() {
                break;
            }
        }
        if let Some(len) = reject {
            // Oversized advertised length: resync is impossible in a
            // length-prefixed protocol once the payload is refused.
            // Answer well-formed, then drain and close.
            self.control.metrics.decode_error();
            let frame = error_envelope(
                0,
                ApiErrorCode::MalformedRequest,
                &format!(
                    "frame of {len} bytes exceeds the {}-byte limit",
                    config.max_frame
                ),
            );
            queue_frame(conn, &frame);
            conn.rbuf.clear();
            conn.frame_deadline = None;
            conn.draining = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
            return;
        }
        // The slow-loris budget: armed while a partial frame is
        // buffered, cleared the moment the buffer is empty. A paused
        // (pipeline-capped) connection with only complete frames parked
        // is *not* mid-frame, but we cannot cheaply distinguish "parked
        // complete frame" from "partial frame" without reparsing — and a
        // parked frame is drained by flush_replies long before the
        // budget fires, so arming on any buffered bytes is safe.
        if conn.rbuf.is_empty() {
            conn.frame_deadline = None;
        } else if conn.frame_deadline.is_none() && conn.inflight < config.max_pipeline {
            conn.frame_deadline = Some(queued_at + config.read_timeout);
        }
    }

    // -- writing ---------------------------------------------------------

    fn try_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.pending_write() > 0 {
            #[expect(
                clippy::indexing_slicing,
                reason = "pending_write() > 0 implies wpos <= wbuf.len()"
            )]
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.read = ReadState::Dead;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.write_deadline = Some(Instant::now() + self.control.config.write_timeout);
                    self.control.metrics.reply_write();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read = ReadState::Dead;
                    break;
                }
            }
        }
        if conn.pending_write() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.write_deadline = None;
            if conn.draining && !conn.sent_fin {
                // Everything owed is flushed: half-close and let the
                // drain window run so the peer can read the reply.
                conn.sent_fin = true;
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
        }
        if conn.read == ReadState::Dead {
            self.close_conn(token);
        }
    }

    // -- lifecycle -------------------------------------------------------

    /// Closes the connection when nothing more can happen on it.
    fn maybe_close(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let done = if conn.draining {
            // Drain stubs close when the peer closed too (clean FIN
            // exchange) or the window expires (swept elsewhere).
            conn.read == ReadState::PeerClosed && conn.pending_write() == 0
        } else {
            conn.read == ReadState::PeerClosed && conn.inflight == 0 && conn.pending_write() == 0
        };
        if done {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.counted {
            self.control.metrics.connection_closed();
            if conn.inflight == 0 {
                self.control.metrics.idle_dec();
            }
        }
    }

    /// Recomputes and applies this connection's poller interests.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let stopping = self.stopping;
        let want_read = conn.read == ReadState::Open
            && (conn.draining
                || (!stopping
                    && conn.inflight < self.control.config.max_pipeline
                    && conn.pending_write() < WBUF_HIGHWATER));
        let want_write = conn.pending_write() > 0;
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, want_read, want_write);
        }
    }

    // -- periodic work ---------------------------------------------------

    /// Closes every connection whose budget ran out. Walks the whole
    /// map, so the loop calls it once per [`TICK`], not once per pass.
    fn sweep_deadlines(&mut self, now: Instant) {
        let due = |deadline: Option<Instant>| deadline.is_some_and(|d| now >= d);
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                // Mid-frame stall past the budget: the slow-loris defense.
                let torn = due(conn.frame_deadline);
                // The peer is not draining its replies, or a drain stub
                // has had its window.
                let stalled =
                    due(conn.write_deadline) || (conn.draining && due(conn.drain_deadline));
                (torn || stalled).then_some((token, torn))
            })
            .collect();
        for (token, torn) in expired {
            if torn {
                self.control.metrics.decode_error();
            }
            self.close_conn(token);
        }
    }

    /// Drives the graceful-shutdown state machine; `true` means the
    /// loop should exit.
    fn shutdown_step(&mut self) -> bool {
        if !self.control.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if !self.stopping {
            self.stopping = true;
            // Deadline for the drain: dispatched work gets to finish,
            // but a wedged service cannot hold shutdown hostage.
            self.drain_deadline = Some(Instant::now() + Duration::from_secs(10));
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            // Freeze parsing: recompute every conn's interests.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.update_interest(token);
            }
        }
        let jobs_pending = !lock(&self.control.jobs).queue.is_empty();
        let replies_pending = !lock(&self.control.replies).is_empty();
        let inflight: usize = self.conns.values().map(|c| c.inflight).sum();
        let unflushed = self.conns.values().any(|c| c.pending_write() > 0);
        let drained = !jobs_pending && !replies_pending && inflight == 0 && !unflushed;
        drained || self.drain_deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Appends one length-prefixed frame to the connection's outbound
/// buffer, arming the write deadline if the buffer was empty.
fn queue_frame(conn: &mut Conn, payload: &[u8]) {
    if conn.wbuf.is_empty() {
        conn.write_deadline = None; // re-armed by the first write attempt
    }
    conn.wbuf
        .extend_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.wbuf.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doorbell() -> (Doorbell, UnixStream) {
        let (rx, tx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.set_nonblocking(true).unwrap();
        let bell = Doorbell {
            tx,
            pending: AtomicBool::new(false),
        };
        (bell, rx)
    }

    /// Bytes waiting on the event-thread side of the doorbell.
    fn bytes_waiting(mut rx: &UnixStream) -> usize {
        let mut sink = [0u8; 64];
        let mut total = 0;
        loop {
            match rx.read(&mut sink) {
                Ok(0) => return total,
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return total,
                Err(e) => panic!("doorbell read: {e}"),
            }
        }
    }

    #[test]
    fn rings_without_a_clear_write_exactly_one_byte() {
        let (bell, rx) = doorbell();
        assert!(bell.ring(), "the first ring writes");
        for _ in 0..9 {
            assert!(!bell.ring(), "a ring behind a pending one is free");
        }
        assert_eq!(bytes_waiting(&rx), 1);
        // Draining the byte does not re-arm the bell; only a clear does.
        assert!(!bell.ring());
        assert_eq!(bytes_waiting(&rx), 0);
    }

    #[test]
    fn a_ring_after_a_clear_writes_again() {
        let (bell, rx) = doorbell();
        for round in 0..3 {
            assert!(bell.ring(), "round {round}");
            assert!(!bell.ring(), "round {round}");
            bell.clear();
        }
        assert_eq!(bytes_waiting(&rx), 3);
    }

    #[test]
    fn a_ring_wakes_a_sleeping_poll() {
        let (bell, rx) = doorbell();
        let mut poller = Poller::new().unwrap();
        poller
            .register(rx.as_raw_fd(), TOKEN_WAKER, true, false)
            .unwrap();
        let sleeper = thread::spawn(move || {
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            events
        });
        assert!(bell.ring());
        let events = sleeper.join().unwrap();
        assert!(events.iter().any(|e| e.token == TOKEN_WAKER && e.readable));
    }

    #[test]
    fn shutdown_rings_an_idle_server_awake() {
        let server = DrmServer::bind(
            "127.0.0.1:0",
            ServiceFn(|req: &[u8]| req.to_vec()),
            NetConfig::fast_test(),
        )
        .unwrap();
        // No traffic: the bell is clear, so shutdown's ring is the one
        // byte that ever crosses the doorbell.
        let metrics = server.shutdown();
        assert_eq!(metrics.event_wakes, 1);
        assert_eq!(metrics.requests_served, 0);
        assert_eq!(metrics.late_wakeups, 0);
    }

    #[test]
    fn read_buf_offers_room_grows_when_filled_and_keeps_the_unparsed_tail() {
        let mut rbuf = ReadBuf::default();
        assert!(rbuf.is_empty());
        assert_eq!(rbuf.spare().len(), READ_CHUNK);

        // A read that fills the room doubles the buffer.
        rbuf.spare().fill(7);
        rbuf.advance(READ_CHUNK);
        assert_eq!(rbuf.len(), READ_CHUNK);
        assert_eq!(rbuf.spare().len(), READ_CHUNK);
        assert_eq!(rbuf.buf.len(), 2 * READ_CHUNK);

        // Parsed frames leave the front; the partial frame moves up.
        let spare = rbuf.spare();
        spare[..3].copy_from_slice(&[1, 2, 3]);
        rbuf.advance(3);
        rbuf.consume(READ_CHUNK);
        assert_eq!(rbuf.data(), &[1, 2, 3]);
        rbuf.consume(99);
        assert!(rbuf.is_empty());
        // The storage stays for the next burst.
        assert_eq!(rbuf.spare().len(), 2 * READ_CHUNK);
    }
}
