//! The typed caller: [`WireClient`] frames envelopes over a
//! [`Transport`] and drives the client sessions.

use super::envelope::{
    EnvelopeError, Exchange, RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse,
};
use super::error::{ApiError, ApiErrorCode};
use super::transport::{Transport, TransportError};
use crate::content::ContentMeta;
use crate::entities::device::CompliantDevice;
use crate::entities::user::UserAgent;
use crate::ids::{ContentId, LicenseId};
use crate::license::License;
use crate::protocol::access;
use crate::protocol::attribute::AttributeIssueSession;
use crate::protocol::messages::{
    CatalogRequest, CrlSyncRequest, LicenseStatus, LicenseStatusRequest, MetricsDumpRequest,
    MetricsDumpResponse, PurchaseRequest,
};
use crate::protocol::pseudonym::PseudonymIssueSession;
use crate::protocol::purchase::PurchaseSession;
use crate::protocol::transfer::TransferSession;
use crate::retry::RetryPolicy;
use crate::CoreError;
use p2drm_crypto::elgamal::ElGamalPublicKey;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_payment::Mint;
use p2drm_pki::cert::KeyId;
use p2drm_store::ConcurrentKv;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Client-side failure of a wire call.
#[derive(Debug)]
pub enum WireError {
    /// The service answered with an error response.
    Api(ApiError),
    /// The transport could not complete the round trip.
    Transport(TransportError),
    /// The response bytes failed to parse.
    Envelope(EnvelopeError),
    /// The response echoed a different correlation id.
    CorrelationMismatch {
        /// Id the client sent.
        sent: u64,
        /// Id the response carried.
        got: u64,
    },
    /// The response body was a different operation than requested.
    UnexpectedResponse {
        /// What the client asked for.
        expected: &'static str,
        /// What came back.
        got: &'static str,
    },
    /// A client-side protocol step failed before/after the wire call.
    Client(CoreError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Api(e) => write!(f, "service error: {e}"),
            WireError::Transport(e) => write!(f, "transport failure: {e}"),
            WireError::Envelope(e) => write!(f, "bad response envelope: {e}"),
            WireError::CorrelationMismatch { sent, got } => {
                write!(f, "correlation mismatch: sent {sent}, got {got}")
            }
            WireError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            WireError::Client(e) => write!(f, "client-side failure: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CoreError> for WireError {
    fn from(e: CoreError) -> Self {
        WireError::Client(e)
    }
}

impl From<ApiError> for WireError {
    fn from(e: ApiError) -> Self {
        WireError::Api(e)
    }
}

impl From<EnvelopeError> for WireError {
    fn from(e: EnvelopeError) -> Self {
        WireError::Envelope(e)
    }
}

impl From<TransportError> for WireError {
    fn from(e: TransportError) -> Self {
        WireError::Transport(e)
    }
}

impl From<p2drm_payment::PaymentError> for WireError {
    fn from(e: p2drm_payment::PaymentError) -> Self {
        WireError::Client(CoreError::Payment(e))
    }
}

/// Typed client over any [`Transport`]: frames envelopes, matches
/// correlation ids, and drives the multi-round protocol flows as session
/// state machines against the client-side state (user agent, smart card,
/// device) while the provider/RA live behind the wire.
pub struct WireClient<T: Transport> {
    transport: T,
    /// Correlation-id source: a per-client CSPRNG, the ChaCha20
    /// keystream under `id_key`, one block per id with the call count
    /// as its nonce. Ids are unpredictable and unrelated to each other,
    /// so a server's span ring cannot tie one client's requests together
    /// by consecutive ids; the count is atomic, so concurrently prepared
    /// pipelined sessions never draw the same block. Id 0 is reserved
    /// (it marks a server's pre-decode error reply) and redrawn. Two
    /// draws collide with probability 2⁻⁶⁴; a collision with a request
    /// still in flight is rejected by every transport as an unknown-id
    /// channel failure rather than misdelivered.
    id_key: [u8; 32],
    drawn: AtomicU64,
    /// Epoch the client stamps into pseudonym/attribute bodies. The
    /// server validates freshness regardless; a stale hint just gets the
    /// issuance rejected.
    epoch: u32,
    /// Server clock learned from signed CRL timestamps (cached).
    now_hint: Option<u64>,
    /// Retry policy for [`WireClient::call`]; `None` sends each request
    /// once.
    retry: Option<RetryPolicy>,
}

impl<T: Transport> WireClient<T> {
    /// Client over `transport`, assuming epoch 0 until told otherwise;
    /// its correlation ids come from a CSPRNG keyed with fresh OS
    /// entropy.
    pub fn new(transport: T) -> Self {
        Self::with_id_key(transport, p2drm_crypto::rng::os_entropy32())
    }

    /// [`WireClient::new`] with the correlation-id CSPRNG keyed by
    /// `id_key`: the same key draws the same ids, so a test can pin
    /// every frame of a session.
    pub fn with_id_key(transport: T, id_key: [u8; 32]) -> Self {
        WireClient {
            transport,
            id_key,
            drawn: AtomicU64::new(0),
            epoch: 0,
            now_hint: None,
            retry: None,
        }
    }

    /// Retries every [`WireClient::call`] under `policy`, honoring
    /// server `retry_after_ms` hints up to its `max_backoff` — purchases
    /// and transfers included, since the provider answers a replay with
    /// the license the first attempt issued.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Sets the epoch used for blind-issuance bodies (out-of-band time
    /// discipline, exactly like the RA engines' `epoch` parameter).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The next fresh correlation id, drawn from the client's CSPRNG
    /// (never 0 — reserved for the server's pre-decode error replies).
    fn next_corr(&self) -> u64 {
        loop {
            let draw = self.drawn.fetch_add(1, Ordering::Relaxed);
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&draw.to_le_bytes());
            let [b0, b1, b2, b3, b4, b5, b6, b7, ..] =
                p2drm_crypto::chacha20::block(&self.id_key, &nonce, 0);
            let id = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
            if id != 0 {
                return id;
            }
        }
    }

    /// Decodes one reply delivered for correlation id `sent` and checks
    /// the envelope agrees. A correlation-0 **error** body is a server's
    /// *pre-decode* reply — a busy shed or a frame-level reject sent
    /// before any request was read. The request was provably not
    /// dispatched, so the error is authoritative (and failure handling
    /// can safely unwind), not a mismatch.
    fn decode_reply(sent: u64, reply: &[u8]) -> Result<WireResponse, WireError> {
        let envelope = ResponseEnvelope::from_bytes(reply)?;
        if envelope.correlation_id != sent {
            if envelope.correlation_id == 0 {
                if let WireResponse::Error(e) = envelope.body {
                    return Ok(WireResponse::Error(e));
                }
            }
            return Err(WireError::CorrelationMismatch {
                sent,
                got: envelope.correlation_id,
            });
        }
        Ok(envelope.body)
    }

    /// One framed exchange: encode, submit, complete until this call's
    /// reply arrives, decode, match correlation. Under a retry policy
    /// ([`WireClient::with_retry`]) a failed exchange is re-sent up to
    /// `max_attempts` submits in all:
    /// * a decoded [`ApiErrorCode::ServiceUnavailable`] — a busy shed (or
    ///   an op this endpoint does not serve) — is retried, pausing at
    ///   least the response's `retry_after_ms` hint, up to `max_backoff`;
    /// * a transport, envelope or correlation failure is retried, whether
    ///   or not the request was dispatched;
    /// * any other decoded error, or a client-side error, is final.
    ///
    /// Every attempt uses a fresh correlation id, so a late reply to an
    /// abandoned attempt can never satisfy its retry.
    pub fn call(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        let Some(policy) = self.retry else {
            return self.call_once(body);
        };
        let mut retry = 0;
        loop {
            let outcome = self.call_once(body.clone());
            let floor = match &outcome {
                Ok(WireResponse::Error(e)) if e.code == ApiErrorCode::ServiceUnavailable => {
                    Duration::from_millis(u64::from(e.retry_after_ms))
                }
                Ok(_) | Err(WireError::Api(_)) | Err(WireError::Client(_)) => return outcome,
                Err(_) => Duration::ZERO,
            };
            retry += 1;
            if retry >= policy.max_attempts {
                return outcome;
            }
            policy.pause(retry, floor);
        }
    }

    /// One framed round trip, exactly one attempt.
    fn call_once(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        let sent = self.next_corr();
        let request = RequestEnvelope {
            correlation_id: sent,
            body,
        };
        let reply = self.transport.roundtrip(sent, &request.to_bytes())?;
        Self::decode_reply(sent, &reply)
    }

    /// One [`WireClient::call`] whose reply body the op table gives:
    /// the reply to `request`'s op, or the error the call was answered
    /// with.
    fn exchange<Q: Exchange>(&mut self, request: Q) -> Result<Q::Reply, WireError> {
        Q::reply(self.call(request.into())?)
    }

    /// Pipelines `bodies` on the transport — submit them all, then
    /// complete replies **in whatever order the service answers** — and
    /// returns one outcome per request, in input order.
    ///
    /// Failure granularity follows the [`Transport`] contract: a submit
    /// error marks only that slot (so an `Unreachable` there is still
    /// definitely-unsent); a complete error is a channel failure, so
    /// every still-unresolved slot gets the same ambiguous transport
    /// error. A reply resolving an id this batch never sent is
    /// discarded (it can only be a stale answer to an abandoned call).
    pub fn call_many(&mut self, bodies: Vec<WireRequest>) -> Vec<Result<WireResponse, WireError>> {
        let mut results: Vec<Option<Result<WireResponse, WireError>>> =
            (0..bodies.len()).map(|_| None).collect();
        let mut pending: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::with_capacity(bodies.len());
        for (slot, body) in bodies.into_iter().enumerate() {
            let sent = self.next_corr();
            let request = RequestEnvelope {
                correlation_id: sent,
                body,
            };
            match self.transport.submit(sent, &request.to_bytes()) {
                Ok(()) => {
                    pending.insert(sent, slot);
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot enumerates bodies and results has one slot per body"
                )]
                Err(e) => results[slot] = Some(Err(WireError::Transport(e))),
            }
        }
        while !pending.is_empty() {
            match self.transport.complete(None) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot comes from pending, which only holds valid slots"
                )]
                Ok(Some((corr, reply))) => {
                    if let Some(slot) = pending.remove(&corr) {
                        results[slot] = Some(Self::decode_reply(corr, &reply));
                    }
                }
                Ok(None) => {
                    let err = TransportError::Broken(
                        "transport reported nothing in flight while replies were outstanding"
                            .to_string(),
                    );
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "slot comes from pending, which only holds valid slots"
                    )]
                    for (_, slot) in pending.drain() {
                        results[slot] = Some(Err(WireError::Transport(err.clone())));
                    }
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot comes from pending, which only holds valid slots"
                )]
                Err(e) => {
                    for (_, slot) in pending.drain() {
                        results[slot] = Some(Err(WireError::Transport(e.clone())));
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the completion loop above resolves every slot"
        )]
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Lists the catalog.
    pub fn catalog(&mut self) -> Result<Vec<ContentMeta>, WireError> {
        let reply = self.exchange(CatalogRequest { content_id: None })?;
        Ok(reply.items.into_vec())
    }

    /// Looks up one catalog item.
    pub fn content_meta(&mut self, id: ContentId) -> Result<ContentMeta, WireError> {
        let reply = self.exchange(CatalogRequest {
            content_id: Some(id),
        })?;
        reply.items.into_vec().into_iter().next().ok_or_else(|| {
            WireError::Api(ApiError::new(
                ApiErrorCode::UnknownContent,
                format!("unknown content {id}"),
            ))
        })
    }

    /// Blind pseudonym issuance over the wire (card-side state machine +
    /// one RA round trip).
    pub fn obtain_pseudonym<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        ttp_key: &ElGamalPublicKey,
        rng: &mut R,
    ) -> Result<KeyId, WireError> {
        let (session, request) =
            PseudonymIssueSession::begin(user, ra_blind_key, ttp_key, self.epoch, rng)?;
        let reply = self.exchange(request)?;
        Ok(session.finish(user, ra_blind_key, &reply)?)
    }

    /// Blind attribute issuance over the wire, bound to the user's
    /// current pseudonym.
    pub fn obtain_attribute<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        attribute: &str,
        attribute_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<KeyId, WireError> {
        let (session, request) =
            AttributeIssueSession::begin(user, attribute, attribute_key, self.epoch, rng)?;
        let reply = self.exchange(request)?;
        Ok(session.finish(user, &reply)?)
    }

    /// Anonymous purchase over the wire: catalog quote, coin withdrawal
    /// (client ↔ mint, off this wire), then the purchase round trip,
    /// re-sent under the retry policy like any other op.
    ///
    /// On failure the coin is never lost and never spent twice: a
    /// refusal the provider makes before the deposit (pseudonym,
    /// catalogue, price, attribute, coin) returns it to the wallet, and
    /// every outcome that leaves the deposit unknown — a reply that never
    /// arrived or failed to decode, a storage failure after the deposit,
    /// retries exhausted — parks the whole request on
    /// [`UserAgent::parked`]. [`WireClient::settle_parked`] re-sends it
    /// later, over any transport.
    pub fn purchase<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        mint: &Mint,
        content_id: ContentId,
        rng: &mut R,
    ) -> Result<License, WireError> {
        let meta = self.content_meta(content_id)?;
        let session = PurchaseSession::begin(user, mint, &meta, rng)?;
        // Used whatever the outcome: the provider may have seen it.
        user.note_pseudonym_use();
        let reply = self.call(session.request().clone().into());
        settle_purchase(session, user, reply)
    }

    /// Re-sends every purchase parked on `user` (see
    /// [`WireClient::purchase`]) and settles each reply the same way: the
    /// provider answers a request it already served with the same
    /// license, and issues it now if it never did. A request whose
    /// outcome is still unknown parks again. Returns one outcome per
    /// parked request, in parking order.
    pub fn settle_parked(&mut self, user: &mut UserAgent) -> Vec<Result<License, WireError>> {
        std::mem::take(&mut user.parked)
            .into_iter()
            .map(|parked| {
                let session = PurchaseSession::resume(parked);
                let reply = self.call(session.request().clone().into());
                settle_purchase(session, user, reply)
            })
            .collect()
    }

    /// Privacy-preserving transfer over the wire (both agents are local
    /// to this client — e.g. a marketplace app handling the hand-over).
    ///
    /// Local state moves only after a decoded success response. A
    /// transfer whose reply was lost needs no separate repair: the
    /// sender still holds the license and the recipient's pseudonym is
    /// unchanged, so calling `transfer` again sends the same request, and
    /// the provider answers it with the successor it already issued. The
    /// successor id is derived from the recipient's certificate, so if the
    /// recipient moves to a new pseudonym in between, the retry is refused
    /// `AlreadyRedeemed`; only the first request, re-sent, gets the license.
    pub fn transfer<R: CryptoRng + ?Sized>(
        &mut self,
        sender: &mut UserAgent,
        recipient: &mut UserAgent,
        license_id: LicenseId,
        _rng: &mut R,
    ) -> Result<License, WireError> {
        let (session, request) = TransferSession::begin(sender, recipient, license_id)?;
        let reply = self.exchange(request)?;
        Ok(session.finish(sender, recipient, reply))
    }

    /// Queries the provider's authoritative status of a license id.
    pub fn license_status(&mut self, license_id: LicenseId) -> Result<LicenseStatus, WireError> {
        Ok(self.exchange(LicenseStatusRequest { license_id })?.status)
    }

    /// Plays a license on a device: the challenge/proof/key-release
    /// rounds and every rights check run locally between device and
    /// card on every play. Only the device's first play of an item sends
    /// the anonymous download; the device keeps the ciphertext, so the
    /// provider sees one download per device and item, and a later play
    /// sends nothing once the client knows the server's clock.
    pub fn play<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
        &mut self,
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        rng: &mut R,
    ) -> Result<Vec<u8>, WireError> {
        let now = self.server_now()?;
        access::play(user, device, license, now, rng, |request| {
            self.exchange(request)
        })
    }

    /// Synchronizes the device's CRLs from the service.
    pub fn sync_crls<SD: ConcurrentKv>(
        &mut self,
        device: &mut CompliantDevice<SD>,
    ) -> Result<(), WireError> {
        let request = CrlSyncRequest {
            license_seq: device.crl_sequence(),
            pseudonym_seq: 0,
        };
        let reply = self.exchange(request)?;
        self.now_hint = Some(reply.license_crl.body.issued_at);
        device.sync_crls(&reply.license_crl, &reply.pseudonym_crl)?;
        Ok(())
    }

    /// Fetches the provider's unified metrics snapshot (requires the
    /// server's `metrics_dump` opt-in; otherwise answers
    /// [`ApiErrorCode::ServiceUnavailable`]). Convert with
    /// [`snapshot_from_dump`](super::snapshot_from_dump) for text/JSON exposition.
    pub fn metrics_dump(&mut self) -> Result<MetricsDumpResponse, WireError> {
        self.exchange(MetricsDumpRequest {})
    }

    /// The server clock, learned from the `issued_at` stamp of a signed
    /// CRL (cached after the first probe; the paper's devices sync CRLs
    /// anyway, so this costs nothing extra in practice).
    fn server_now(&mut self) -> Result<u64, WireError> {
        if let Some(now) = self.now_hint {
            return Ok(now);
        }
        let reply = self.exchange(CrlSyncRequest {
            license_seq: 0,
            pseudonym_seq: 0,
        })?;
        self.now_hint = Some(reply.license_crl.body.issued_at);
        Ok(reply.license_crl.body.issued_at)
    }
}

/// Settles the reply to a purchase request that went out: a license
/// finishes the session, a decoded error aborts it (see
/// [`PurchaseSession::abort`]), and anything else — another op's body,
/// an undecodable or mismatched reply, a channel failure — leaves the
/// deposit unknown, so the request is parked.
fn settle_purchase(
    session: PurchaseSession,
    user: &mut UserAgent,
    reply: Result<WireResponse, WireError>,
) -> Result<License, WireError> {
    match reply.and_then(PurchaseRequest::reply) {
        Ok(reply) => Ok(session.finish(user, reply)),
        Err(WireError::Api(e)) => {
            session.abort(user, &e);
            Err(WireError::Api(e))
        }
        Err(e) => {
            session.park(user);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::messages::CatalogResponse;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::time::Instant;

    /// Transport that answers each submit with the next scripted body
    /// (`None` fails the submit as a connection reset mid-write) and logs
    /// every submitted correlation id.
    #[derive(Default)]
    struct Scripted {
        script: RefCell<VecDeque<Option<WireResponse>>>,
        replies: RefCell<VecDeque<(u64, Vec<u8>)>>,
        sent: RefCell<Vec<u64>>,
    }

    impl Scripted {
        fn new(script: impl IntoIterator<Item = Option<WireResponse>>) -> Self {
            Scripted {
                script: RefCell::new(script.into_iter().collect()),
                ..Scripted::default()
            }
        }
    }

    impl Transport for &Scripted {
        fn submit(&self, corr_id: u64, _request: &[u8]) -> Result<(), TransportError> {
            self.sent.borrow_mut().push(corr_id);
            let step = self.script.borrow_mut().pop_front();
            let body = step
                .expect("script covers every submit")
                .ok_or_else(|| TransportError::Broken("scripted reset".to_string()))?;
            let frame = ResponseEnvelope {
                correlation_id: corr_id,
                body,
            };
            self.replies
                .borrow_mut()
                .push_back((corr_id, frame.to_bytes()));
            Ok(())
        }

        fn complete(
            &self,
            _deadline: Option<Instant>,
        ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
            Ok(self.replies.borrow_mut().pop_front())
        }
    }

    fn policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            max_attempts,
            jitter_seed: 3,
        }
    }

    fn request() -> WireRequest {
        WireRequest::Catalog(CatalogRequest { content_id: None })
    }

    fn error(code: ApiErrorCode, retry_after_ms: u32) -> Option<WireResponse> {
        Some(WireResponse::Error(
            ApiError::new(code, "scripted").with_retry_after(retry_after_ms),
        ))
    }

    fn ok() -> Option<WireResponse> {
        Some(WireResponse::Catalog(CatalogResponse::new(Vec::new())))
    }

    fn code(out: Result<WireResponse, WireError>) -> ApiErrorCode {
        match out {
            Ok(WireResponse::Error(e)) => e.code,
            other => panic!("expected a decoded error, got {other:?}"),
        }
    }

    #[test]
    fn busy_is_resent_until_max_attempts_then_returned() {
        let script = Scripted::new((0..10).map(|_| error(ApiErrorCode::ServiceUnavailable, 0)));
        let mut client = WireClient::new(&script).with_retry(policy(4));
        assert_eq!(
            code(client.call(request())),
            ApiErrorCode::ServiceUnavailable
        );
        assert_eq!(script.sent.borrow().len(), 4);
    }

    #[test]
    fn other_decoded_errors_are_final() {
        let script = Scripted::new([error(ApiErrorCode::DoubleSpend, 0), ok()]);
        let mut client = WireClient::new(&script).with_retry(policy(4));
        assert_eq!(code(client.call(request())), ApiErrorCode::DoubleSpend);
        assert_eq!(script.sent.borrow().len(), 1);
    }

    #[test]
    fn broken_exchange_is_resent_under_a_fresh_correlation_id() {
        let script = Scripted::new([None, ok()]);
        let mut client = WireClient::new(&script).with_retry(policy(4));
        assert!(matches!(
            client.call(request()),
            Ok(WireResponse::Catalog(_))
        ));
        let sent = script.sent.borrow();
        assert_eq!(sent.len(), 2);
        assert_ne!(sent[0], sent[1]);
    }

    #[test]
    fn without_a_policy_a_call_is_one_submit() {
        let script = Scripted::new([error(ApiErrorCode::ServiceUnavailable, 0), ok()]);
        let mut client = WireClient::new(&script);
        assert_eq!(
            code(client.call(request())),
            ApiErrorCode::ServiceUnavailable
        );
        assert_eq!(script.sent.borrow().len(), 1);
    }

    #[test]
    fn a_server_hint_is_capped_at_max_backoff() {
        let script = Scripted::new([error(ApiErrorCode::ServiceUnavailable, 60_000), ok()]);
        let mut client = WireClient::new(&script).with_retry(policy(2));
        let started = Instant::now();
        assert!(matches!(
            client.call(request()),
            Ok(WireResponse::Catalog(_))
        ));
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "a 60 s hint was slept: {:?}",
            started.elapsed()
        );
    }

    /// A client's correlation ids come from its CSPRNG, not a counter:
    /// 1,000 calls give 1,000 distinct nonzero ids, no id follows its
    /// predecessor by one, a second client draws none of them, and the
    /// same key draws the same ids.
    #[test]
    fn correlation_ids_are_drawn_not_counted() {
        let ids = |client: WireClient<&Scripted>, script: &Scripted, calls: usize| {
            let mut client = client;
            for _ in 0..calls {
                assert!(client.call(request()).is_ok());
            }
            script.sent.borrow().clone()
        };
        let script = Scripted::new((0..1000).map(|_| ok()));
        let sent = ids(WireClient::new(&script), &script, 1000);
        assert_eq!(sent.len(), 1000);
        assert!(sent.iter().all(|&id| id != 0));
        let distinct: std::collections::HashSet<u64> = sent.iter().copied().collect();
        assert_eq!(distinct.len(), 1000);
        assert!(sent.windows(2).all(|w| w[1] != w[0].wrapping_add(1)));

        let other = Scripted::new((0..10).map(|_| ok()));
        let theirs = ids(WireClient::new(&other), &other, 10);
        assert!(theirs.iter().all(|id| !distinct.contains(id)));

        let (a, b) = (Scripted::new([ok(), ok()]), Scripted::new([ok(), ok()]));
        let keyed = |s| WireClient::with_id_key(s, [7; 32]);
        assert_eq!(ids(keyed(&a), &a, 2), ids(keyed(&b), &b, 2));
    }
}
