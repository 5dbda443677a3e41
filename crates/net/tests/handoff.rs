//! The server's three internal hand-offs (event thread → workers,
//! workers → event thread, event thread → sockets) under load: no
//! wake-up is ever lost, bursts really are coalesced, and coalescing
//! loses nothing of the back-pressure and oversized-reply handling.
//!
//! Run it `--release` too: the doorbell's race window (a reply pushed
//! between the event thread's clear and its take) is a few instructions
//! wide, and the debug build mostly hides it.

use p2drm_net::{read_frame, DrmServer, NetConfig, ServerHandle, ServiceFn, DEFAULT_MAX_FRAME};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const MAX: u32 = DEFAULT_MAX_FRAME;

fn echo_server(config: NetConfig) -> ServerHandle {
    DrmServer::bind("127.0.0.1:0", ServiceFn(|req: &[u8]| req.to_vec()), config).expect("bind")
}

/// A 64-byte request whose first 8 bytes are `id`.
fn request(id: u64) -> [u8; 64] {
    let mut payload = [0x5a; 64];
    payload[..8].copy_from_slice(&id.to_le_bytes());
    payload
}

/// `payloads` as length-prefixed frames in one buffer (one `write`).
fn frames<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for payload in payloads {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Self {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::with_capacity(64 * 1024, stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.reader.get_mut().write_all(bytes).expect("write");
    }

    /// The next reply frame; `None` once the server closed the stream.
    fn recv(&mut self) -> Option<Vec<u8>> {
        read_frame(&mut self.reader, MAX).ok().flatten()
    }

    /// Sends ids `first..first + n` in one write and collects the `n`
    /// replies, which may come back in any order: each must be the echo
    /// of exactly one of them.
    fn burst(&mut self, first: u64, n: u64) {
        let payloads: Vec<[u8; 64]> = (first..first + n).map(request).collect();
        self.send(&frames(payloads.iter().map(|p| p.as_slice())));
        let mut outstanding: Vec<u64> = (first..first + n).collect();
        for _ in 0..n {
            let reply = self.recv().expect("a reply per request");
            let id = u64::from_le_bytes(reply[..8].try_into().unwrap());
            assert_eq!(reply, request(id), "the echo of request {id}, intact");
            let at = outstanding
                .iter()
                .position(|&want| want == id)
                .unwrap_or_else(|| panic!("reply {id} was not outstanding (duplicate or stray)"));
            outstanding.swap_remove(at);
        }
    }
}

/// Waits until the server has served `n` requests; the condition, not
/// a sleep, orders the test.
fn wait_until_served(server: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.metrics().requests_served < n {
        assert!(
            Instant::now() < deadline,
            "timed out before {n} were served"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Four connections in lock step: each round they all make one depth-1
/// round trip at the same moment (four replies race one doorbell, and
/// nothing else is going on to paper over a missed ring), and every
/// 25th round a burst of 32 (replies land while the event thread is
/// mid-flush). Every reply arrives, matched by id, and none of them had
/// to wait for a safety-net timeout.
#[test]
fn no_wakeup_is_lost_under_mixed_depth_one_and_burst_traffic() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 1_250; // 4 x 1,250 = 5,000 depth-1 round trips
    const BURST_EVERY: u64 = 25;
    const BURST: u64 = 32;
    let server = echo_server(NetConfig {
        // Room for every client's burst at once: nothing is shed, so
        // every reply is an echo.
        queue_depth: (CLIENTS * BURST) as usize,
        ..NetConfig::default()
    });
    let together = Barrier::new(CLIENTS as usize);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, together) = (&server, &together);
            scope.spawn(move || {
                let mut conn = Client::connect(server);
                let mut next = client << 32;
                for round in 0..ROUNDS {
                    together.wait();
                    conn.burst(next, 1);
                    next += 1;
                    if round % BURST_EVERY == BURST_EVERY - 1 {
                        together.wait();
                        conn.burst(next, BURST);
                        next += BURST;
                    }
                }
            });
        }
    });

    let metrics = server.shutdown();
    assert_eq!(
        metrics.requests_served,
        CLIENTS * (ROUNDS + ROUNDS / BURST_EVERY * BURST)
    );
    assert_eq!(metrics.busy_rejections, 0);
    assert_eq!(
        metrics.late_wakeups, 0,
        "a reply or a job waited for a timeout: {metrics:?}"
    );
}

/// 10,000 requests at depth 32 on one connection are answered with
/// fewer socket writes and fewer doorbell bytes than requests; the same
/// counters at depth 1 read one per request, so the ratio is the
/// batching and not an artefact of how they count.
#[test]
fn bursts_are_coalesced_and_depth_one_is_not() {
    const DEPTH: u64 = 32;
    const REQUESTS: u64 = 10_000;
    let config = NetConfig {
        queue_depth: DEPTH as usize,
        ..NetConfig::default()
    };

    let server = echo_server(config.clone());
    let mut conn = Client::connect(&server);
    let mut next = 1;
    while next <= REQUESTS {
        let n = DEPTH.min(REQUESTS + 1 - next);
        conn.burst(next, n);
        next += n;
    }
    let piped = server.metrics();
    assert_eq!(piped.requests_served, REQUESTS);
    assert!(
        piped.reply_writes < piped.requests_served,
        "replies shared writes: {piped:?}"
    );
    assert!(
        piped.event_wakes <= piped.requests_served,
        "at most one ring per reply: {piped:?}"
    );
    assert!(
        piped.worker_notifies <= piped.requests_served,
        "at most one notify per job: {piped:?}"
    );
    assert_eq!(piped.late_wakeups, 0, "{piped:?}");
    drop(conn);
    server.shutdown();

    let server = echo_server(config);
    let mut conn = Client::connect(&server);
    for id in 1..=1_000 {
        conn.burst(id, 1);
    }
    let serial = server.shutdown();
    assert_eq!(serial.requests_served, 1_000);
    assert_eq!(serial.reply_writes, 1_000, "one write per lone reply");
    // One ring per reply plus shutdown's; a ring that lands after the
    // event thread already took its reply can cover the next one too.
    assert!(
        (900..=1_001).contains(&serial.event_wakes),
        "about one ring per lone reply: {serial:?}"
    );
    assert_eq!(serial.late_wakeups, 0, "{serial:?}");
}

/// With a registry, queue wait (enqueue → worker pickup) is its own
/// histogram beside dispatch→reply, which contains it; the hand-off
/// counters travel in the same snapshot.
#[test]
fn queue_wait_is_a_stage_of_its_own_in_the_registry() {
    let registry = Arc::new(p2drm_obs::Registry::new());
    let server = echo_server(NetConfig {
        queue_depth: 32,
        registry: Some(registry.clone()),
        ..NetConfig::default()
    });
    let mut conn = Client::connect(&server);
    conn.burst(1, 32);
    conn.burst(33, 1);

    let snapshot = registry.snapshot();
    let wait = snapshot.histogram("net_queue_wait_ns").expect("queue wait");
    let dispatch = snapshot.histogram("net_dispatch_ns").expect("dispatch");
    assert_eq!(wait.count, 33);
    assert_eq!(dispatch.count, 33);
    assert!(
        wait.mean_ns <= dispatch.mean_ns,
        "dispatch = queue wait + service: {wait:?} vs {dispatch:?}"
    );
    assert_eq!(snapshot.counter("net_requests_served"), Some(33));
    assert_eq!(snapshot.counter("net_late_wakeups"), Some(0));
    for series in ["net_event_wakes", "net_reply_writes", "net_worker_notifies"] {
        assert!(snapshot.counter(series).is_some_and(|n| n >= 1), "{series}");
    }
}

/// A reply of `len` bytes that is a pure function of `id`.
fn big_reply(id: u64, len: usize) -> Vec<u8> {
    let mut reply = Vec::with_capacity(len);
    reply.extend_from_slice(&id.to_le_bytes());
    reply.extend((8..len).map(|i| (id as usize * 31 + i) as u8));
    reply
}

/// A client that pipelines 512 requests and then reads nothing until
/// all are served: 8 MiB of 16 KiB replies is twice what a default
/// kernel's loopback socket buffers absorb (`tcp_wmem` tops out at
/// 4 MiB), so megabytes pile up in the connection's write buffer —
/// write interest armed, `WBUF_HIGHWATER` crossed — and drain from
/// there once the client reads again: all intact, in completion order.
#[test]
fn backpressure_survives_batching() {
    const REPLIES: u64 = 512;
    const REPLY_BYTES: usize = 16 * 1024;
    let server = DrmServer::bind(
        "127.0.0.1:0",
        ServiceFn(|req: &[u8]| {
            let id = u64::from_le_bytes(req[..8].try_into().unwrap());
            big_reply(id, REPLY_BYTES)
        }),
        NetConfig {
            // One worker: completion order is request order.
            workers: 1,
            // The pipelining cap's worth: nothing is shed.
            queue_depth: 32,
            write_timeout: Duration::from_secs(20),
            ..NetConfig::default()
        },
    )
    .expect("bind");

    let mut conn = Client::connect(&server);
    let payloads: Vec<[u8; 64]> = (1..=REPLIES).map(request).collect();
    conn.send(&frames(payloads.iter().map(|p| p.as_slice())));
    // Not one byte is read until every reply has been produced.
    wait_until_served(&server, REPLIES);
    for id in 1..=REPLIES {
        let reply = conn.recv().expect("every reply survives the stall");
        assert!(
            reply == big_reply(id, REPLY_BYTES),
            "reply {id} intact and in order"
        );
    }
    drop(conn);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests_served, REPLIES);
    assert_eq!(metrics.oversized_replies, 0);
    assert_eq!(metrics.late_wakeups, 0, "{metrics:?}");
}

/// An oversized reply in a batch closes its own connection — after the
/// replies queued ahead of it went out — and no other: a bystander
/// pipelining on a second connection gets every one of its replies.
#[test]
fn an_oversized_reply_closes_only_its_own_connection() {
    const ROUNDS: u64 = 40;
    const MAX_FRAME: u32 = 1024;
    const POISON: u8 = 0xee;
    let server = DrmServer::bind(
        "127.0.0.1:0",
        ServiceFn(|req: &[u8]| {
            if req[8] == POISON {
                vec![0u8; MAX_FRAME as usize + 1]
            } else {
                req.to_vec()
            }
        }),
        NetConfig {
            // One worker: the victim's good reply completes before its
            // oversized one.
            workers: 1,
            queue_depth: 64,
            max_frame: MAX_FRAME,
            ..NetConfig::default()
        },
    )
    .expect("bind");

    let mut bystander = Client::connect(&server);
    for round in 0..ROUNDS {
        let mut victim = Client::connect(&server);
        let good = request(round);
        let mut poison = request(round);
        poison[8] = POISON;
        // Both connections have work in flight at the same time, so
        // their replies share batches.
        victim.send(&frames([good.as_slice(), poison.as_slice()]));
        bystander.burst(1_000 + round * 8, 8);
        assert_eq!(
            victim.recv().as_deref(),
            Some(good.as_slice()),
            "the reply ahead of the oversized one is delivered"
        );
        assert_eq!(victim.recv(), None, "then the connection is closed");
    }
    // The bystander's connection is still good.
    bystander.burst(9_000, 1);
    let metrics = server.shutdown();
    assert_eq!(metrics.oversized_replies, ROUNDS);
    assert_eq!(metrics.requests_served, ROUNDS * (2 + 8) + 1);
}

/// An echo service that answers a worker's jobs as one batch, replying
/// last request first, and records each batch's size. While `gate` is
/// closed a batch waits inside the service, holding its worker.
#[derive(Default)]
struct BatchingEcho {
    sizes: std::sync::Mutex<Vec<usize>>,
    gate: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
}

impl BatchingEcho {
    fn open(&self) {
        *self.gate.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn sizes(&self) -> Vec<usize> {
        self.sizes.lock().unwrap().clone()
    }
}

/// The server's handle on a test's [`BatchingEcho`].
struct Batching(Arc<BatchingEcho>);

impl p2drm_net::NetService for Batching {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        request.to_vec()
    }

    fn handle_batch(&self, requests: &[&[u8]], reply: &mut dyn FnMut(usize, Vec<u8>)) {
        let echo = &self.0;
        echo.sizes.lock().unwrap().push(requests.len());
        let mut open = echo.gate.lock().unwrap();
        while !*open {
            open = echo.opened.wait(open).unwrap();
        }
        drop(open);
        for (i, request) in requests.iter().enumerate().rev() {
            reply(i, request.to_vec());
        }
    }
}

/// The default `handle_batch` hands a plain service one request at a
/// time: a counting `ServiceFn` sees exactly one `handle` per request,
/// however deep the pipeline.
#[test]
fn a_service_fn_sees_one_handle_per_request() {
    let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let counted = calls.clone();
    let server = DrmServer::bind(
        "127.0.0.1:0",
        ServiceFn(move |req: &[u8]| {
            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            req.to_vec()
        }),
        NetConfig {
            queue_depth: 32,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let mut conn = Client::connect(&server);
    for round in 0..20 {
        conn.burst(round * 32, 32);
    }
    drop(conn);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests_served, 640);
    assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 640);
    assert_eq!(metrics.late_wakeups, 0, "{metrics:?}");
}

/// A worker takes only what is already queued, never more than
/// `MAX_BATCH`: with one worker held inside the service by a lone
/// request, twenty more queue up behind it, and once it is let go it
/// takes them eight, eight and four. A depth-1 client never has more
/// than one job queued, so it is answered in batches of one — nothing
/// waits for a batch to fill.
#[test]
fn a_worker_takes_only_queued_jobs_up_to_the_cap() {
    use p2drm_net::server::MAX_BATCH;
    assert_eq!(MAX_BATCH, 8);
    let service = Arc::new(BatchingEcho::default());
    let server = DrmServer::bind(
        "127.0.0.1:0",
        Batching(service.clone()),
        NetConfig {
            workers: 1,
            queue_depth: 32,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let mut conn = Client::connect(&server);
    conn.send(&frames([request(0).as_slice()]));
    let deadline = Instant::now() + Duration::from_secs(20);
    while service.sizes().is_empty() {
        assert!(Instant::now() < deadline, "the first job was never taken");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued: Vec<[u8; 64]> = (1..=20).map(request).collect();
    conn.send(&frames(queued.iter().map(|p| p.as_slice())));
    while server.metrics().pipeline_depth_hwm < 21 {
        assert!(Instant::now() < deadline, "the twenty were never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    service.open();
    let mut outstanding: Vec<u64> = (0..=20).collect();
    for _ in 0..=20 {
        let reply = conn.recv().expect("a reply per request");
        let id = u64::from_le_bytes(reply[..8].try_into().unwrap());
        assert_eq!(reply, request(id));
        outstanding.retain(|&want| want != id);
    }
    assert!(outstanding.is_empty(), "unanswered: {outstanding:?}");
    assert_eq!(service.sizes(), [1, 8, 8, 4]);

    for id in 100..200 {
        conn.burst(id, 1);
    }
    assert!(service.sizes()[4..].iter().all(|&n| n == 1));
    drop(conn);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests_served, 121);
    assert_eq!(metrics.late_wakeups, 0, "{metrics:?}");
}

/// Batches mix connections, and a batching service may answer in any
/// order: every reply still reaches the connection that asked, and no
/// batch is larger than the cap.
#[test]
fn batched_replies_reach_their_own_connections() {
    const CLIENTS: u64 = 4;
    let service = Arc::new(BatchingEcho::default());
    service.open();
    let server = DrmServer::bind(
        "127.0.0.1:0",
        Batching(service.clone()),
        NetConfig {
            workers: 2,
            queue_depth: 128,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let together = Barrier::new(CLIENTS as usize);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, together) = (&server, &together);
            scope.spawn(move || {
                let mut conn = Client::connect(server);
                for round in 0..50 {
                    together.wait();
                    conn.burst((client << 32) + round * 32, 32);
                }
            });
        }
    });
    let metrics = server.shutdown();
    assert_eq!(metrics.requests_served, CLIENTS * 50 * 32);
    assert_eq!(metrics.busy_rejections, 0);
    assert_eq!(metrics.late_wakeups, 0, "{metrics:?}");
    let sizes = service.sizes();
    assert_eq!(sizes.iter().sum::<usize>() as u64, metrics.requests_served);
    assert!(sizes.iter().all(|&n| (1..=8).contains(&n)), "{sizes:?}");
    assert!(sizes.iter().any(|&n| n > 1), "bursts were batched");
}
