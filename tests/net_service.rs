//! Socket-level acceptance for `p2drm-net`: the paper's exactly-once
//! guarantees hold when the race happens over **real TCP connections**,
//! malformed byte streams can never wedge a worker, keep-alive
//! connections serve long request sequences, and graceful shutdown
//! drains in-flight requests.

use p2drm::core::protocol::messages::{transfer_proof_bytes, CatalogRequest, TransferRequest};
use p2drm::core::service::{
    ApiErrorCode, RequestEnvelope, ResponseEnvelope, Transport, WireClient, WireRequest,
    WireResponse,
};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;
use p2drm::net::{read_frame, ClientConfig, DrmServer, NetConfig, ServiceFn, TcpTransport};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// N client threads, each on its **own TCP connection**, race transfer
/// requests for the same license id. The spent-ID check-and-set behind
/// the sockets must admit exactly one; every loser sees the stable
/// already-redeemed code in a well-formed error envelope.
#[test]
fn concurrent_double_redeem_over_sockets_has_one_winner() {
    const RACERS: usize = 8;
    let mut rng = test_rng(0x07C9_0001);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Hot Item", 100, b"payload", &mut rng);

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    let license = sys.purchase(&mut mallory, cid, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;

    // One fully valid transfer request per racer (distinct recipients);
    // only the spent-ID rule can separate them.
    let mut requests = Vec::with_capacity(RACERS);
    for i in 0..RACERS {
        let mut buyer = sys.register_user(&format!("buyer-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        });
    }

    let server = DrmServer::bind(
        "127.0.0.1:0",
        sys.wire_service(0x7C9),
        NetConfig {
            workers: RACERS,
            ..NetConfig::fast_test()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let outcomes: Vec<WireResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let transport = TcpTransport::connect(addr).expect("connect");
                    // Correlation id 0 is reserved for pre-decode errors.
                    let corr = i as u64 + 1;
                    let envelope = RequestEnvelope {
                        correlation_id: corr,
                        body: WireRequest::Transfer(req.clone()),
                    };
                    let reply = transport
                        .roundtrip(corr, &envelope.to_bytes())
                        .expect("roundtrip over loopback");
                    ResponseEnvelope::from_bytes(&reply)
                        .expect("well-formed reply")
                        .body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let winners = outcomes
        .iter()
        .filter(|r| matches!(r, WireResponse::Transfer(_)))
        .count();
    assert_eq!(winners, 1, "exactly one racing redeem may succeed");
    for outcome in &outcomes {
        if let WireResponse::Error(e) = outcome {
            assert_eq!(
                e.code,
                ApiErrorCode::AlreadyRedeemed,
                "losers must see the stable code 51, got {e}"
            );
        }
    }
    assert_eq!(sys.provider.spent_count(), 1);
    assert_eq!(sys.provider.license_count(), 2);

    let metrics = server.shutdown();
    assert_eq!(metrics.accepted_connections, RACERS as u64);
    assert_eq!(metrics.requests_served, RACERS as u64);
}

/// Hostile byte streams — an oversized advertised length, a half-written
/// length prefix followed by disconnect, and a garbage prefix whose
/// promised payload never arrives — must each be rejected without
/// wedging a worker, and the server must still serve a real purchase
/// afterwards.
#[test]
fn malformed_frames_never_wedge_the_server() {
    let mut rng = test_rng(0x07C9_0002);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"resilient", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 500);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();

    let config = NetConfig::fast_test();
    let max_frame = config.max_frame;
    let server = DrmServer::bind("127.0.0.1:0", sys.wire_service(0x7CA), config).expect("bind");
    let addr = server.local_addr();

    // 1. Oversized advertised length: answered with a well-formed
    //    MalformedRequest error envelope, then the connection closes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&(max_frame + 1).to_le_bytes()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let reply = read_frame(&mut stream, max_frame)
            .expect("server answers before closing")
            .expect("a frame, not EOF");
        let envelope = ResponseEnvelope::from_bytes(&reply).expect("well-formed");
        match envelope.body {
            WireResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::MalformedRequest),
            other => panic!("expected error envelope, got {}", other.label()),
        }
        // And the connection is closed: the next read is EOF.
        assert!(read_frame(&mut stream, max_frame).unwrap().is_none());
    }

    // 2. Torn frame: half a length prefix, then disconnect.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0x02, 0x00]).unwrap();
        drop(stream);
    }

    // 3. Garbage prefix promising bytes that never come (the connection
    //    stays open): the read timeout bounds how long it can hold a
    //    worker.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        // Keep it open past the server's read timeout.
        std::thread::sleep(Duration::from_millis(200));
        drop(stream);
    }

    // The server is still healthy: a full purchase over a fresh
    // connection succeeds.
    let transport = TcpTransport::connect(addr).expect("connect");
    let mut client = WireClient::new(transport);
    client.set_epoch(sys.epoch());
    let license = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .expect("post-fuzz purchase");
    assert!(license.verify(sys.provider.public_key()).is_ok());

    let metrics = server.shutdown();
    assert!(
        metrics.decode_errors >= 3,
        "all three malformed streams counted, got {metrics}"
    );
    assert!(
        metrics.requests_served >= 2,
        "the purchase flow (catalog quote + purchase) was served"
    );
}

/// One keep-alive connection serves at least 100 sequential requests —
/// the transport reuses its stream and the server never re-accepts.
#[test]
fn keepalive_serves_100_sequential_requests_on_one_connection() {
    let mut rng = test_rng(0x07C9_0003);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Evergreen", 100, b"bits", &mut rng);

    let server = DrmServer::bind(
        "127.0.0.1:0",
        sys.wire_service(0x7CB),
        NetConfig::fast_test(),
    )
    .expect("bind");

    let transport = TcpTransport::connect(server.local_addr()).expect("connect");
    let mut client = WireClient::new(transport);
    for _ in 0..100 {
        let meta = client.content_meta(cid).expect("catalog lookup");
        assert_eq!(meta.id, cid);
    }

    let metrics = server.shutdown();
    assert_eq!(
        metrics.accepted_connections, 1,
        "every request rode the same connection"
    );
    assert_eq!(metrics.requests_served, 100);
    assert_eq!(metrics.decode_errors, 0);
}

/// Past `max_connections`, new connections are shed with a decodable
/// busy error envelope (`ServiceUnavailable`), and capacity frees up
/// once the held connection closes.
#[test]
fn connection_limit_sheds_load_with_busy_response() {
    let mut rng = test_rng(0x07C9_0004);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Scarce", 100, b"bits", &mut rng);

    let config = NetConfig {
        workers: 1,
        max_connections: 1,
        queue_depth: 1,
        ..NetConfig::fast_test()
    };
    let max_frame = config.max_frame;
    let server = DrmServer::bind("127.0.0.1:0", sys.wire_service(0x7CC), config).expect("bind");
    let addr = server.local_addr();

    // First connection occupies the whole server (verified live by a
    // served request).
    let transport = TcpTransport::connect(addr).expect("connect");
    let mut holder = WireClient::new(transport);
    holder.content_meta(cid).expect("holder is being served");

    // The next connection must be shed with a well-formed busy frame.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let reply = read_frame(&mut shed, max_frame)
        .expect("busy reply readable")
        .expect("a frame, not silence");
    let envelope = ResponseEnvelope::from_bytes(&reply).expect("well-formed busy envelope");
    match envelope.body {
        WireResponse::Error(e) => {
            assert_eq!(e.code, ApiErrorCode::ServiceUnavailable);
            // The shed envelope carries backpressure advice: a non-zero
            // retry_after_ms derived from the connection-slot pressure,
            // for recovering clients to use as their backoff floor.
            assert!(
                e.retry_after_ms > 0,
                "busy envelope must carry a retry-after hint, got {}",
                e.retry_after_ms
            );
        }
        other => panic!("expected busy error, got {}", other.label()),
    }

    // Through the typed client the shed surfaces as the service's busy
    // error: the correlation-0 pre-decode envelope is recognized as an
    // authoritative error response, not a correlation mismatch.
    let transport = TcpTransport::connect(addr).expect("connect");
    let mut busy_client = WireClient::new(transport);
    let err = busy_client
        .content_meta(cid)
        .expect_err("server is at capacity");
    match err {
        p2drm::core::service::WireError::Api(e) => {
            assert_eq!(e.code, ApiErrorCode::ServiceUnavailable);
            assert!(
                e.retry_after_ms > 0,
                "retry-after hint survives the typed-client decode path"
            );
        }
        other => panic!("expected busy Api error, got {other}"),
    }

    // Close the holder; within a few timeout ticks a new connection is
    // admitted and served again.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let transport = TcpTransport::connect(addr).expect("connect");
        let mut retry = WireClient::new(transport);
        if retry.content_meta(cid).is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "capacity never freed after the holder closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let metrics = server.shutdown();
    assert!(metrics.busy_rejections >= 1, "the shed was counted");
}

/// Graceful shutdown: a request already being handled when `shutdown`
/// is called still gets its reply before the connection closes, and
/// `shutdown` joins every thread.
#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let mut rng = test_rng(0x07C9_0005);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Parting Gift", 100, b"bits", &mut rng);

    // Wrap the real service with a latency shim so the request is
    // provably in flight when shutdown fires.
    let inner = sys.wire_service(0x7CD);
    let entered = Arc::new(AtomicBool::new(false));
    let entered_flag = entered.clone();
    let slow = ServiceFn(move |request: &[u8]| {
        entered_flag.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(250));
        inner.handle(request)
    });
    let server = DrmServer::bind("127.0.0.1:0", slow, NetConfig::fast_test()).expect("bind");
    let addr = server.local_addr();

    let worker = std::thread::spawn(move || {
        let transport = TcpTransport::connect(addr).expect("connect");
        let envelope = RequestEnvelope {
            correlation_id: 77,
            body: WireRequest::Catalog(p2drm::core::protocol::messages::CatalogRequest {
                content_id: Some(cid),
            }),
        };
        let reply = transport
            .roundtrip(77, &envelope.to_bytes())
            .expect("in-flight request must complete");
        ResponseEnvelope::from_bytes(&reply).expect("well-formed reply")
    });

    // Wait until the worker thread's request is inside the handler,
    // then shut down while it sleeps.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !entered.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "request never reached the service"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = server.shutdown();

    let envelope = worker.join().expect("client thread");
    assert_eq!(envelope.correlation_id, 77);
    assert!(
        matches!(envelope.body, WireResponse::Catalog(_)),
        "the drained reply is the real answer, got {}",
        envelope.body.label()
    );
    assert_eq!(metrics.requests_served, 1);
    assert_eq!(metrics.active_connections, 0, "all workers wound down");
}

/// A service reply over the frame cap is never half-sent: nothing hits
/// the wire, the connection closes — an ambiguous outcome the client
/// must treat as unanswered, since the request *was* dispatched — and
/// the server counts it for operators.
#[test]
fn oversized_reply_closes_connection_and_is_counted() {
    let huge = ServiceFn(|_req: &[u8]| vec![0u8; 256]);
    let config = NetConfig {
        max_frame: 64,
        ..NetConfig::fast_test()
    };
    let server = DrmServer::bind("127.0.0.1:0", huge, config).expect("bind");

    let transport = TcpTransport::connect_with(
        server.local_addr(),
        p2drm::net::ClientConfig {
            max_frame: 64,
            ..Default::default()
        },
    )
    .expect("connect");
    let err = transport
        .roundtrip(9, &[1, 2, 3])
        .expect_err("the reply cannot be framed");
    assert!(
        matches!(err, p2drm::core::service::TransportError::Broken(_)),
        "client must see an ambiguous broken connection, got {err}"
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.oversized_replies, 1);
    assert_eq!(metrics.requests_served, 1, "the request was dispatched");
}

/// Pipelined double redeem on **one** connection: two fully valid
/// transfer requests for the same license ride the same socket
/// back-to-back via `call_many`. The spent-ID rule must pick exactly one
/// winner; the loser sees the stable already-redeemed code 51 — and both
/// replies demultiplex onto the right slot by correlation id.
#[test]
fn pipelined_double_redeem_on_one_connection_has_one_winner() {
    let mut rng = test_rng(0x07C9_0006);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Hot Item", 100, b"payload", &mut rng);

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    let license = sys.purchase(&mut mallory, cid, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;

    let mut requests = Vec::new();
    for i in 0..2 {
        let mut buyer = sys.register_user(&format!("buyer-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(WireRequest::Transfer(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        }));
    }

    let server = DrmServer::bind(
        "127.0.0.1:0",
        sys.wire_service(0x7CE),
        NetConfig {
            workers: 2,
            ..NetConfig::fast_test()
        },
    )
    .expect("bind");

    let transport = TcpTransport::connect(server.local_addr()).expect("connect");
    let mut client = WireClient::new(transport);
    let outcomes = client.call_many(requests);

    let winners = outcomes
        .iter()
        .filter(|r| matches!(r, Ok(WireResponse::Transfer(_))))
        .count();
    assert_eq!(winners, 1, "exactly one racing redeem may succeed");
    for outcome in &outcomes {
        if let Ok(WireResponse::Error(e)) = outcome {
            assert_eq!(
                e.code,
                ApiErrorCode::AlreadyRedeemed,
                "the loser must see the stable code 51, got {e}"
            );
            assert_eq!(e.code.code(), 51);
        }
    }
    assert_eq!(sys.provider.spent_count(), 1);

    let metrics = server.shutdown();
    assert_eq!(metrics.accepted_connections, 1, "one pipelined connection");
    assert_eq!(metrics.requests_served, 2);
}

/// A reply bearing a correlation id that was never submitted — or one
/// already consumed by an earlier reply — must poison the channel as a
/// `Broken` transport error, never resolve some other caller's request.
#[test]
fn unknown_and_duplicate_correlation_ids_poison_the_channel() {
    use p2drm::core::service::TransportError;
    use p2drm::net::{write_frame, DEFAULT_MAX_FRAME};
    use std::net::TcpListener;

    // A minimal envelope-shaped request/reply: version, opcode, then the
    // correlation id at bytes 2..10 — all `correlation_hint` reads.
    fn envelope_with_corr(corr: u64) -> Vec<u8> {
        let mut bytes = vec![1u8, 0x01];
        bytes.extend_from_slice(&corr.to_le_bytes());
        bytes
    }

    // Unknown id: the fake server answers the only in-flight request
    // with a correlation id nobody sent.
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _req = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().unwrap();
            write_frame(&mut stream, &envelope_with_corr(999), DEFAULT_MAX_FRAME).unwrap();
            stream
        });
        let transport = TcpTransport::connect(addr).expect("connect");
        transport
            .submit(7, &envelope_with_corr(7))
            .expect("submit on live connection");
        let err = transport
            .complete(None)
            .expect_err("unknown id must poison the channel");
        assert!(
            matches!(err, TransportError::Broken(_)),
            "ambiguous channel failure expected, got {err}"
        );
        // The channel forgot its in-flight set: nothing left to complete.
        assert!(matches!(transport.complete(None), Ok(None)));
        drop(fake.join().unwrap());
    }

    // Duplicate id: two requests in flight, the fake server answers the
    // first one twice. The first delivery resolves; the repeat must not
    // be delivered to the second caller.
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _a = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().unwrap();
            let _b = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().unwrap();
            write_frame(&mut stream, &envelope_with_corr(11), DEFAULT_MAX_FRAME).unwrap();
            write_frame(&mut stream, &envelope_with_corr(11), DEFAULT_MAX_FRAME).unwrap();
            stream
        });
        let transport = TcpTransport::connect(addr).expect("connect");
        transport.submit(11, &envelope_with_corr(11)).unwrap();
        transport.submit(12, &envelope_with_corr(12)).unwrap();
        let (corr, _) = transport
            .complete(None)
            .expect("first delivery is fine")
            .expect("a reply");
        assert_eq!(corr, 11);
        let err = transport
            .complete(None)
            .expect_err("duplicate id must poison the channel");
        assert!(matches!(err, TransportError::Broken(_)), "got {err}");
        drop(fake.join().unwrap());
    }

    // Submitting an id that is already in flight is refused locally,
    // before any byte moves: definitely unsent.
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let transport = TcpTransport::connect(addr).expect("connect");
        transport.submit(5, &envelope_with_corr(5)).unwrap();
        let err = transport
            .submit(5, &envelope_with_corr(5))
            .expect_err("duplicate submit refused");
        assert!(err.definitely_unsent(), "got {err}");
        // Correlation id 0 is reserved for pre-decode server errors.
        let err = transport
            .submit(0, &envelope_with_corr(0))
            .expect_err("id 0 refused");
        assert!(err.definitely_unsent(), "got {err}");
    }
}

/// The event loop's gauges: idle keep-alive connections are visible as
/// `idle_connections`, and pipelining on one connection is recorded in
/// `pipeline_depth_hwm`.
#[test]
fn idle_gauge_and_pipeline_high_water_are_tracked() {
    use p2drm::core::service::correlation_hint;

    // A deliberately slow echo service so all four pipelined requests
    // are dispatched before the first reply lands.
    let slow = ServiceFn(|request: &[u8]| {
        std::thread::sleep(Duration::from_millis(100));
        request.to_vec()
    });
    let server = DrmServer::bind(
        "127.0.0.1:0",
        slow,
        NetConfig {
            workers: 2,
            ..NetConfig::fast_test()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let busy = TcpTransport::connect(addr).expect("connect");
    let watcher = TcpTransport::connect(addr).expect("connect");
    let _ = watcher; // held open, never used: a pure keep-alive fd

    // Both connections admitted and idle.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().idle_connections < 2 {
        assert!(Instant::now() < deadline, "idle gauge never reached 2");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.metrics().active_connections, 2);

    // Pipeline four requests; the workers are asleep, so the connection's
    // in-flight depth must reach 4 before the first reply.
    let mut request = vec![1u8, 0x01];
    request.extend_from_slice(&0u64.to_le_bytes());
    for corr in 1..=4u64 {
        request[2..10].copy_from_slice(&corr.to_le_bytes());
        busy.submit(corr, &request).expect("submit");
    }
    let mut seen = Vec::new();
    while seen.len() < 4 {
        let (corr, reply) = busy
            .complete(None)
            .expect("pipelined replies complete")
            .expect("a reply while in flight");
        assert_eq!(correlation_hint(&reply), corr, "echo keeps the id");
        seen.push(corr);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3, 4]);

    // Fully drained: the busy connection is idle again.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().idle_connections < 2 {
        assert!(Instant::now() < deadline, "idle gauge never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.requests_served, 4);
    assert_eq!(
        metrics.pipeline_depth_hwm, 4,
        "all four requests were in flight at once, got {metrics}"
    );
    assert_eq!(metrics.active_connections, 0);
    assert_eq!(metrics.idle_connections, 0, "gauges drain on shutdown");
}

/// The C10K shape at test size: 200 keep-alive connections held open
/// against **two** workers. The event thread owns every socket, so all
/// 200 are admitted and idle at once, each still answers a request, and
/// none of it needed a safety-net timeout to rescue a lost wake-up.
#[test]
fn two_workers_hold_200_keepalive_connections() {
    const CONNECTIONS: usize = 200;
    let mut rng = test_rng(0xE13);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Open Loop Single", 100, b"bits", &mut rng);

    let server = DrmServer::bind(
        "127.0.0.1:0",
        sys.wire_service(0xE13),
        NetConfig {
            workers: 2,
            max_connections: CONNECTIONS + 8,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Dialling this fast can overflow the listen backlog for a moment.
    let client_config = ClientConfig {
        connect_retries: 8,
        retry_backoff: Duration::from_millis(5),
        ..ClientConfig::default()
    };
    let pool: Vec<TcpTransport> = (0..CONNECTIONS)
        .map(|_| TcpTransport::connect_with(addr, client_config.clone()).expect("dial pool"))
        .collect();

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().idle_connections < CONNECTIONS as u64 {
        assert!(
            Instant::now() < deadline,
            "server never admitted the full pool: {}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for (i, transport) in pool.iter().enumerate() {
        let corr = i as u64 + 1;
        let request = RequestEnvelope {
            correlation_id: corr,
            body: WireRequest::Catalog(CatalogRequest {
                content_id: Some(cid),
            }),
        };
        let reply = transport
            .roundtrip(corr, &request.to_bytes())
            .expect("round trip on a pooled connection");
        let envelope = ResponseEnvelope::from_bytes(&reply).expect("well-formed reply");
        assert_eq!(envelope.correlation_id, corr);
        assert!(matches!(envelope.body, WireResponse::Catalog(_)));
    }

    drop(pool);
    let metrics = server.shutdown();
    assert_eq!(metrics.accepted_connections, CONNECTIONS as u64);
    assert_eq!(metrics.requests_served, CONNECTIONS as u64);
    assert_eq!(metrics.active_connections, 0, "gauges drain on shutdown");
    assert_eq!(metrics.late_wakeups, 0, "lost wake-up: {metrics}");
}
