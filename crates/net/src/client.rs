//! The client side: a pipelining [`Transport`] over a real socket, with
//! connect retry, keep-alive reuse, and reconnect when a cached
//! connection turns out to be dead.
//!
//! The error mapping is the whole point: the core client's recovery
//! logic ([`p2drm_core::service::WireClient`]) splits on
//! [`TransportError::definitely_unsent`], so this transport must only
//! claim `Unreachable` when **no byte of the request** can have reached
//! the server — local refusals, connect failures, and a first write
//! syscall that failed outright. Everything after that is
//! `Broken`/`Frame`: ambiguous, and the client parks consumed resources
//! for reconciliation instead of unwinding them.
//!
//! Pipelining: [`TcpTransport::submit`] writes the framed request and
//! records its correlation id in the in-flight set;
//! [`TcpTransport::complete`] reads one reply frame and resolves it
//! against that set. Replies may arrive in any order — the server
//! answers in completion order. A reply whose id is *not* in flight
//! (never submitted, or already consumed) is treated as a channel
//! failure, never misdelivered: the transport cannot know which request
//! the stream is out of sync on, so every outstanding request becomes
//! ambiguous at once.

use crate::frame::{read_frame_within, FrameError, LEN_PREFIX};
use p2drm_core::retry::RetryPolicy;
use p2drm_core::service::{correlation_hint, Transport, TransportError};
use std::collections::HashSet;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client socket tuning.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Extra connect attempts after the first (total = retries + 1).
    pub connect_retries: u32,
    /// Base pause before a connect retry; the [`RetryPolicy`] doubles it
    /// per retry (capped) and applies deterministic jitter.
    pub retry_backoff: Duration,
    /// Reply read patience: how long `complete(None)` waits before
    /// declaring the channel broken (also the per-poll granularity when
    /// an explicit deadline is given).
    pub read_timeout: Duration,
    /// Request write timeout.
    pub write_timeout: Duration,
    /// Hard cap on request/response frame payloads (must match the
    /// server's to avoid spurious rejections).
    pub max_frame: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_retries: 2,
            retry_backoff: Duration::from_millis(20),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_frame: crate::frame::DEFAULT_MAX_FRAME,
        }
    }
}

/// Connection state behind the lock: the cached stream plus the
/// correlation ids submitted on it and not yet completed.
struct Inner {
    stream: Option<TcpStream>,
    inflight: HashSet<u64>,
}

/// A keep-alive, pipelining TCP [`Transport`]: one connection carrying
/// many in-flight requests, transparently re-established when it breaks
/// **between** requests (a break with requests outstanding is ambiguous
/// and surfaces as an error from [`Transport::complete`] instead).
///
/// Duplicate-id defense: an id leaves the in-flight set the moment its
/// reply is delivered, so a second reply bearing the same id looks like
/// an unknown id and poisons the connection rather than resolving some
/// other caller's request.
pub struct TcpTransport {
    addr: SocketAddr,
    config: ClientConfig,
    inner: Mutex<Inner>,
}

impl TcpTransport {
    /// Resolves `addr` and connects eagerly with the default config.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Resolves `addr` and connects eagerly with `config`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, TransportError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| TransportError::Unreachable(format!("address resolution failed: {e}")))?
            .next()
            .ok_or_else(|| {
                TransportError::Unreachable("address resolved to nothing".to_string())
            })?;
        let transport = TcpTransport {
            addr,
            config,
            inner: Mutex::new(Inner {
                stream: None,
                inflight: HashSet::new(),
            }),
        };
        let stream = transport.fresh_stream()?;
        transport.lock().stream = Some(stream);
        Ok(transport)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The connect-retry policy derived from [`ClientConfig`]: total
    /// attempts = `connect_retries + 1`, exponential backoff from
    /// `retry_backoff` with deterministic jitter seeded by the target
    /// address (stable per client, de-synchronized across a fleet).
    fn connect_policy(&self) -> RetryPolicy {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{}", self.addr).bytes() {
            seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        RetryPolicy {
            base_backoff: self.config.retry_backoff,
            max_backoff: self.config.retry_backoff.saturating_mul(8),
            max_attempts: self.config.connect_retries + 1,
            op_deadline: None,
            jitter_seed: seed,
        }
    }

    /// Dials under [`TcpTransport::connect_policy`]; `Unreachable` when
    /// every attempt fails (nothing was ever sent).
    fn fresh_stream(&self) -> Result<TcpStream, TransportError> {
        let attempts = self.config.connect_retries + 1;
        self.connect_policy()
            .run(|_attempt| {
                let stream = TcpStream::connect(self.addr)?;
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(self.config.read_timeout));
                let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                Ok(stream)
            })
            .map_err(|e: io::Error| {
                TransportError::Unreachable(format!(
                    "connect to {} failed after {attempts} attempts: {e}",
                    self.addr
                ))
            })
    }

    /// Writes one framed request on the locked stream. Distinguishes
    /// "zero request bytes entered the kernel" (retry-safe) from a
    /// partial write (ambiguous).
    fn write_request(inner: &mut Inner, request: &[u8]) -> Result<(), WriteFailure> {
        // lint: allow(panic, all callers re-establish the stream before writing)
        let stream = inner.stream.as_mut().expect("caller ensured a stream");
        let mut buf = Vec::with_capacity(LEN_PREFIX + request.len());
        buf.extend_from_slice(&(request.len() as u32).to_le_bytes());
        buf.extend_from_slice(request);
        let mut written = 0;
        while written < buf.len() {
            // lint: allow(panic, written < buf.len() by the loop condition)
            match stream.write(&buf[written..]) {
                Ok(0) if written == 0 => {
                    return Err(WriteFailure::NothingSent(
                        "write accepted 0 bytes".to_string(),
                    ))
                }
                Ok(0) => {
                    return Err(WriteFailure::Partial(
                        "connection closed mid-request".to_string(),
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if written == 0 => return Err(WriteFailure::NothingSent(e.to_string())),
                Err(e) => {
                    return Err(WriteFailure::Partial(format!(
                        "request write failed after {written} bytes: {e}"
                    )))
                }
            }
        }
        if let Err(e) = stream.flush() {
            return Err(WriteFailure::Partial(format!("request flush failed: {e}")));
        }
        Ok(())
    }

    /// Tears the connection down after a channel failure: the stream is
    /// dropped and every outstanding id is forgotten (their requests are
    /// ambiguous — the returned error told the caller so).
    fn poison(inner: &mut Inner) {
        inner.stream = None;
        inner.inflight.clear();
    }
}

/// Internal write outcome, split on retry safety.
enum WriteFailure {
    /// Zero request bytes left this host — safe to retry on a fresh
    /// connection (the cached one was stale).
    NothingSent(String),
    /// The request may have been partially delivered.
    Partial(String),
}

impl Transport for TcpTransport {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        // Local refusals first: nothing has moved, the connection (and
        // every other in-flight request) is untouched, so these are all
        // `Unreachable` for *this request only*.
        if corr_id == 0 {
            return Err(TransportError::Unreachable(
                "correlation id 0 is reserved for server pre-decode errors — not sent".to_string(),
            ));
        }
        if request.len() > self.config.max_frame as usize {
            return Err(TransportError::Unreachable(format!(
                "request of {} bytes exceeds the {}-byte frame limit — not sent",
                request.len(),
                self.config.max_frame
            )));
        }
        let mut inner = self.lock();
        if inner.inflight.contains(&corr_id) {
            return Err(TransportError::Unreachable(format!(
                "correlation id {corr_id} is already in flight — not sent"
            )));
        }
        if inner.stream.is_none() {
            if !inner.inflight.is_empty() {
                // The connection died with replies outstanding; those
                // must surface through `complete` before new requests
                // can reuse a fresh connection.
                return Err(TransportError::Unreachable(
                    "connection lost with replies outstanding — drain complete() first".to_string(),
                ));
            }
            inner.stream = Some(self.fresh_stream()?);
        }
        let reused_idle = inner.inflight.is_empty();
        match Self::write_request(&mut inner, request) {
            Ok(()) => {
                inner.inflight.insert(corr_id);
                Ok(())
            }
            Err(WriteFailure::NothingSent(_)) if reused_idle => {
                // The kept-alive idle connection had died (idle close,
                // server restart). Nothing left the host, so a one-shot
                // retry on a fresh connection is exactly-once safe.
                inner.stream = None;
                let stream = self.fresh_stream()?;
                inner.stream = Some(stream);
                match Self::write_request(&mut inner, request) {
                    Ok(()) => {
                        inner.inflight.insert(corr_id);
                        Ok(())
                    }
                    Err(WriteFailure::NothingSent(detail)) => {
                        inner.stream = None;
                        Err(TransportError::Unreachable(format!(
                            "fresh connection refused the request: {detail}"
                        )))
                    }
                    Err(WriteFailure::Partial(detail)) => {
                        inner.stream = None;
                        Err(TransportError::Broken(detail))
                    }
                }
            }
            Err(WriteFailure::NothingSent(detail)) => {
                // Other requests are in flight on this stream: their
                // fate is `complete`'s to report. This one provably
                // never left.
                inner.stream = None;
                Err(TransportError::Unreachable(format!(
                    "connection died before the request was sent: {detail}"
                )))
            }
            Err(WriteFailure::Partial(detail)) => {
                // Bytes of this request may be out: ambiguous for it,
                // and the stream is unusable for the others too — but
                // per the contract, *their* ambiguity is reported by
                // `complete`, which will find the stream gone.
                inner.stream = None;
                Err(TransportError::Broken(detail))
            }
        }
    }

    fn complete(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        let mut inner = self.lock();
        if inner.inflight.is_empty() {
            return Ok(None);
        }
        if inner.stream.is_none() {
            let n = inner.inflight.len();
            Self::poison(&mut inner);
            return Err(TransportError::Broken(format!(
                "connection lost with {n} replies outstanding"
            )));
        }
        loop {
            // Patience for this read: the caller's deadline, capped by
            // the configured read timeout (which alone bounds the wait
            // when no deadline is given).
            let patience = match deadline {
                None => self.config.read_timeout,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Ok(None);
                    }
                    (d - now).min(self.config.read_timeout)
                }
            };
            let max_frame = self.config.max_frame;
            let budget = self.config.read_timeout;
            // lint: allow(panic, the is-connected check above guarantees a stream)
            let stream = inner.stream.as_mut().expect("checked above");
            // The socket timeout governs the *idle* wait (no reply byte
            // yet); the whole-frame budget stays at the configured read
            // timeout so a short deadline cannot tear a frame that is
            // mid-arrival.
            let _ = stream.set_read_timeout(Some(patience.max(Duration::from_millis(5))));
            match read_frame_within(stream, max_frame, budget) {
                Ok(Some(reply)) => {
                    let corr = correlation_hint(&reply);
                    if inner.inflight.remove(&corr) {
                        return Ok(Some((corr, reply)));
                    }
                    if corr == 0 && inner.inflight.len() == 1 {
                        // A pre-decode server error (busy shed, frame
                        // reject) carries id 0. With exactly one request
                        // outstanding the attribution is unambiguous,
                        // and the typed client's corr-0 handling relies
                        // on seeing it.
                        // lint: allow(panic, guarded by inflight.len() == 1)
                        let only = *inner.inflight.iter().next().expect("len == 1");
                        inner.inflight.remove(&only);
                        return Ok(Some((only, reply)));
                    }
                    let n = inner.inflight.len();
                    Self::poison(&mut inner);
                    return Err(TransportError::Broken(if corr == 0 {
                        format!(
                            "unattributable pre-decode server error with {n} replies outstanding"
                        )
                    } else {
                        format!(
                            "reply for unknown or already-consumed correlation id {corr} \
                             with {n} replies outstanding"
                        )
                    }));
                }
                Ok(None) => {
                    let n = inner.inflight.len();
                    Self::poison(&mut inner);
                    return Err(TransportError::Broken(format!(
                        "server closed the connection with {n} replies outstanding"
                    )));
                }
                Err(FrameError::IdleTimeout) => match deadline {
                    // No deadline: the configured patience *is* the
                    // budget, and it just ran out.
                    None => {
                        let n = inner.inflight.len();
                        Self::poison(&mut inner);
                        return Err(TransportError::Broken(format!(
                            "timed out waiting for a reply with {n} outstanding"
                        )));
                    }
                    Some(d) => {
                        if Instant::now() >= d {
                            return Ok(None);
                        }
                        // Spurious early timeout (patience was capped);
                        // keep waiting toward the deadline.
                        continue;
                    }
                },
                Err(e @ (FrameError::Oversized { .. } | FrameError::Torn { .. })) => {
                    Self::poison(&mut inner);
                    return Err(TransportError::Frame(e.to_string()));
                }
                Err(FrameError::Io(e)) => {
                    Self::poison(&mut inner);
                    return Err(TransportError::Broken(format!("reply read failed: {e}")));
                }
            }
        }
    }
}
