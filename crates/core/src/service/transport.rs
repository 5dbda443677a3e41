//! The [`Transport`] contract and the in-process [`Loopback`].

use super::server::ProviderService;
use p2drm_crypto::rng::{ChaChaRng, CryptoRng};
use p2drm_store::ConcurrentKv;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Why a transport failed to complete a round trip.
///
/// Real transports fail, and the variants split on the one question the
/// client's recovery logic needs answered: **did the request possibly
/// reach the service?** [`TransportError::Unreachable`] means definitely
/// not (client state can unwind as if the call was never made); the
/// other variants are ambiguous (the service may have committed), so
/// consumed resources — a purchase's coin — must be parked and
/// reconciled, never silently restored or dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The request was never sent — no connection could be established,
    /// or the transport refused it locally (e.g. over the frame cap).
    Unreachable(String),
    /// The connection failed after the request may have left this host.
    Broken(String),
    /// A frame violated the framing contract (oversized, torn, garbage
    /// length prefix). The request may still have been served.
    Frame(String),
}

impl TransportError {
    /// Whether the request definitely never reached the service, making
    /// it safe to unwind client-side state as if the call had not
    /// happened. Everything else is ambiguous.
    pub fn definitely_unsent(&self) -> bool {
        matches!(self, TransportError::Unreachable(_))
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(d) => write!(f, "service unreachable: {d}"),
            TransportError::Broken(d) => write!(f, "connection broken mid-exchange: {d}"),
            TransportError::Frame(d) => write!(f, "framing violation: {d}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Moves request bytes to a service and returns response bytes, with
/// **multiple requests allowed in flight at once** on one channel.
/// Implementations may be sockets, queues, or the in-proc [`Loopback`].
///
/// The contract is submit/complete, keyed by the envelope's correlation
/// id (which the caller must also stamp into the request bytes — the
/// server echoes it, and the transport matches replies by it):
///
/// * [`Transport::submit`] hands one request to the channel. An error
///   classifies **that request only**: `Unreachable` means it provably
///   never left this host (the caller may unwind state as if the call
///   was never made); `Broken`/`Frame` mean it *may* have left, so the
///   caller must treat the outcome as ambiguous. Either way,
///   previously submitted requests stay in flight — their fate is
///   reported by `complete`.
/// * [`Transport::complete`] blocks for the **next** reply, in whatever
///   order the service answers — `Ok(Some((corr_id, bytes)))` resolves
///   exactly one in-flight submission. `Ok(None)` means the `deadline`
///   passed (or nothing was in flight) with the channel still healthy.
///   `Err(_)` is a **channel failure**: every request in flight becomes
///   ambiguous at once, the transport forgets them, and a later
///   `submit` may re-establish the channel.
/// * A reply whose correlation id is not currently in flight — unknown,
///   or already consumed by an earlier `complete` — must be **rejected
///   as a channel failure**, never delivered twice or misdelivered.
///
/// `deadline: None` means "wait as long as this transport considers
/// reasonable" (a socket transport's read timeout); exceeding *that*
/// patience is `Err(Broken)`, not `Ok(None)`, because a request was in
/// flight and its outcome is now unknown.
pub trait Transport {
    /// Hands one request (stamped with `corr_id`) to the channel.
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError>;

    /// Blocks for the next reply, whichever in-flight request it
    /// resolves. See the trait docs for the `deadline`/`None`/`Err`
    /// semantics.
    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError>;

    /// One-shot round trip — the degenerate pipeline of depth 1:
    /// submit, then complete until `corr_id`'s reply arrives. Replies
    /// to other (abandoned) correlation ids are discarded.
    fn roundtrip(&self, corr_id: u64, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.submit(corr_id, request)?;
        loop {
            match self.complete(None)? {
                Some((id, reply)) if id == corr_id => return Ok(reply),
                Some(_) => continue,
                None => {
                    return Err(TransportError::Broken(
                        "transport reported nothing in flight while a reply was outstanding"
                            .to_string(),
                    ))
                }
            }
        }
    }
}

/// In-process transport: [`Transport::submit`] calls
/// [`ProviderService::handle_with_rng`] synchronously and queues the
/// reply; [`Transport::complete`] pops replies in submission order. The
/// bytes still make the full encode → dispatch → decode journey, so this
/// is the serialization-overhead baseline a real socket would add to.
/// Infallible by construction — there is no wire to lose bytes on.
///
/// The RNG the service answers with belongs to the transport:
/// [`Loopback::new`] keys one from OS entropy, [`Loopback::with_rng`]
/// takes the caller's, which makes every reply — license id, sealed
/// content key, signature over both — a function of the seeds.
pub struct Loopback<'s, B: ConcurrentKv, R = ChaChaRng> {
    service: &'s ProviderService<B>,
    rng: Mutex<R>,
    replies: Mutex<VecDeque<(u64, Vec<u8>)>>,
}

impl<'s, B: ConcurrentKv> Loopback<'s, B> {
    /// In-process transport over `service`, answering with a ChaCha20
    /// stream keyed from fresh OS entropy, exactly as
    /// [`ProviderService::handle`] keys its own.
    pub fn new(service: &'s ProviderService<B>) -> Self {
        Self::with_rng(service, ChaChaRng::from_os_entropy())
    }
}

impl<'s, B: ConcurrentKv, R: CryptoRng> Loopback<'s, B, R> {
    /// In-process transport over `service` that answers every request
    /// with randomness drawn from `rng`.
    pub fn with_rng(service: &'s ProviderService<B>, rng: R) -> Self {
        Loopback {
            service,
            rng: Mutex::new(rng),
            replies: Mutex::new(VecDeque::new()),
        }
    }
}

impl<B: ConcurrentKv, R: CryptoRng> Transport for Loopback<'_, B, R> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        let reply = self.service.handle_with_rng(
            request,
            &mut *self.rng.lock().unwrap_or_else(|p| p.into_inner()),
        );
        self.replies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back((corr_id, reply));
        Ok(())
    }

    fn complete(
        &self,
        _deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        Ok(self
            .replies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front())
    }
}
