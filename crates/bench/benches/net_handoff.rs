//! Kept: one-process A/B sizing (CHANGES PR 15 sized the hand-off batching
//! with it); the ledger's `net.*` rows see the same server only end to end.
//!
//! The TCP server's internal hand-offs, priced on their own: an echo
//! service (no crypto, no store) behind a real [`DrmServer`] on
//! loopback, so what is timed is frame I/O plus the three hand-offs in
//! `p2drm_net::server` — event thread → workers, workers → event
//! thread, event thread → sockets.
//!
//! The number to watch is elem/s (requests per second). The depth-1 row
//! is one wake per hop and cannot batch; the two pipelined rows are
//! where coalesced doorbells and one-write-per-connection-per-batch
//! show, at a reply size where syscalls dominate (64 B) and one where
//! bytes do (16 KiB, the benchmark's download size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p2drm_net::{read_frame, DrmServer, NetConfig, ServiceFn, DEFAULT_MAX_FRAME};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request payload size; bytes 0..4 carry the reply size wanted.
const REQUEST_BYTES: usize = 64;

/// One client connection and its ready-made request frame.
struct Conn {
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr, reply_bytes: usize) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut payload = [0u8; REQUEST_BYTES];
        payload[..4].copy_from_slice(&(reply_bytes as u32).to_le_bytes());
        let mut frame = (REQUEST_BYTES as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        Conn {
            reader: BufReader::with_capacity(256 * 1024, stream),
            frame,
        }
    }

    /// Closed loop: `requests` round trips with `depth` kept in flight.
    fn drive(&mut self, depth: u64, requests: u64) {
        let (mut sent, mut done) = (0u64, 0u64);
        while done < requests {
            while sent < requests && sent - done < depth {
                self.reader
                    .get_mut()
                    .write_all(&self.frame)
                    .expect("request write");
                sent += 1;
            }
            read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
                .expect("reply frame")
                .expect("server keeps the connection open");
            done += 1;
        }
    }
}

fn bench_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_handoff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(1));

    let server = DrmServer::bind(
        "127.0.0.1:0",
        ServiceFn(|req: &[u8]| {
            let mut word = [0u8; 4];
            word.copy_from_slice(&req[..4]);
            let mut reply = req.to_vec();
            reply.resize(u32::from_le_bytes(word) as usize, 0xa5);
            reply
        }),
        NetConfig {
            queue_depth: 64,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // (row, connections, depth, reply bytes)
    let rows: [(&str, usize, u64, usize); 3] = [
        ("rtt_depth1_64b", 1, 1, 64),
        ("2conn_depth8_64b", 2, 8, 64),
        ("2conn_depth8_16k", 2, 8, 16 * 1024),
    ];
    for (row, conns, depth, reply_bytes) in rows {
        let mut pool: Vec<Conn> = (0..conns)
            .map(|_| Conn::connect(addr, reply_bytes))
            .collect();
        group.bench_function(BenchmarkId::new("requests_per_sec", row), |b| {
            b.iter_custom(|iters| {
                let per_conn = iters.div_ceil(conns as u64);
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for conn in pool.iter_mut() {
                        scope.spawn(move || conn.drive(depth, per_conn));
                    }
                });
                // Report time for exactly `iters` requests.
                t0.elapsed()
                    .mul_f64(iters as f64 / (per_conn * conns as u64) as f64)
            })
        });
    }
    group.finish();

    let metrics = server.shutdown();
    println!(
        "net_handoff: {} requests, {:.2} replies/write, {:.2} wakes/request, {} late wake-ups",
        metrics.requests_served,
        metrics.requests_served as f64 / metrics.reply_writes.max(1) as f64,
        metrics.event_wakes as f64 / metrics.requests_served.max(1) as f64,
        metrics.late_wakeups
    );
}

criterion_group!(benches, bench_handoff);
criterion_main!(benches);
