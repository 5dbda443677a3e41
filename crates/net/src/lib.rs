//! `p2drm-net` — the real network layer: the wire API's bytes over TCP.
//!
//! The paper's DRM architecture is client/server — devices talk to the
//! content provider and registration authority over a network — and
//! everything below this crate already speaks serialized envelopes
//! ([`p2drm_core::service`]). This crate puts those bytes on actual
//! sockets, using only `std::net` (the workspace builds offline; like
//! the `vendor/` shims, the async runtime is replaced by hand-rolled
//! threads):
//!
//! * [`frame`] — length-prefixed framing (`u32` LE length ‖ envelope
//!   bytes) with a hard maximum frame size, shared by both directions:
//!   oversized lengths are rejected before the payload is read, torn
//!   frames are typed errors, a clean close is distinguishable from a
//!   dead stream;
//! * [`poll`] — a tiny readiness facade over raw `epoll(7)` (Linux) or
//!   `poll(2)` (other unix), std-only like the `vendor/` shims;
//! * [`DrmServer`] — an event-driven keep-alive server: **one event
//!   thread owns every socket** through the readiness loop, parses
//!   complete frames out of per-connection buffers, and hands them to a
//!   small CPU-only worker pool; replies are written back in completion
//!   order (possibly out of order within a connection — that is what
//!   the envelope correlation id is for). The hand-offs between the
//!   threads are batched — a flag-guarded doorbell, notifies only for
//!   parked workers, one write per connection per reply batch — see
//!   [`server`]. Thousands of mostly-idle
//!   keep-alive connections cost an fd each while `workers` stays in
//!   the single digits. Connections past [`NetConfig::max_connections`]
//!   are shed with a well-formed busy error response, requests past
//!   [`NetConfig::queue_depth`] are shed per-request with the busy
//!   envelope echoing their correlation id, mid-frame stalls are swept
//!   on the slow-loris budget, and [`ServerHandle::shutdown`] drains
//!   dispatched requests and flushes their replies before joining every
//!   thread;
//! * [`TcpTransport`] — the client half of
//!   [`p2drm_core::service::Transport`]: the pipelining submit/complete
//!   contract over one keep-alive connection (out-of-order replies
//!   matched by correlation id, unknown or already-consumed ids poison
//!   the channel instead of misdelivering), connect retry with backoff,
//!   reconnect when the idle kept-alive connection died, and the error
//!   taxonomy the core client's coin-recovery logic depends on
//!   (`Unreachable` only when the request provably never left this
//!   host);
//! * [`ServerMetrics`] — atomic counters and gauges (connections
//!   accepted/active/idle, requests served, decode errors, busy
//!   rejections, pipeline-depth high-water, and the hand-off counters
//!   `event_wakes` / `reply_writes` / `worker_notifies` /
//!   `late_wakeups`) snapshotted as a plain [`MetricsSnapshot`].
//!
//! # A purchase over real sockets
//!
//! ```
//! use p2drm_core::system::{System, SystemConfig};
//! use p2drm_core::service::WireClient;
//! use p2drm_crypto::rng::test_rng;
//! use p2drm_net::{DrmServer, NetConfig, TcpTransport};
//!
//! let mut rng = test_rng(7);
//! let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
//! let cid = sys.publish_content("Track", 100, b"bits", &mut rng);
//! let mut alice = sys.register_user("alice", &mut rng).unwrap();
//! sys.fund(&alice, 500);
//!
//! // The service owns shared handles, so the server can take it whole
//! // while `sys` keeps inspecting the same provider.
//! let server = DrmServer::bind("127.0.0.1:0", sys.wire_service(0xD0C), NetConfig::fast_test())
//!     .expect("bind loopback");
//!
//! let transport = TcpTransport::connect(server.local_addr()).expect("connect");
//! let mut client = WireClient::new(transport);
//! client.set_epoch(sys.epoch());
//! client
//!     .obtain_pseudonym(&mut alice, sys.ra.blind_public(), sys.ttp.escrow_key(), &mut rng)
//!     .unwrap();
//! let license = client.purchase(&mut alice, &sys.mint, cid, &mut rng).unwrap();
//! assert!(license.verify(sys.provider.public_key()).is_ok());
//!
//! let metrics = server.shutdown();
//! assert!(metrics.requests_served >= 3);
//! ```

pub mod client;
pub mod frame;
pub mod metrics;
pub mod poll;
pub mod server;

pub use client::{ClientConfig, TcpTransport};
pub use frame::{
    read_frame, read_frame_within, write_frame, FrameError, DEFAULT_MAX_FRAME, LEN_PREFIX,
};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use poll::{Event, Poller};
pub use server::{DrmServer, NetConfig, NetService, ServerHandle, ServiceFn};
