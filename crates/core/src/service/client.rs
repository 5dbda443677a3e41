//! The typed caller: [`WireClient`] frames envelopes over a
//! [`Transport`] and drives the client sessions.

use super::envelope::{
    EnvelopeError, RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse,
};
use super::error::{ApiError, ApiErrorCode};
use super::recovery::Recovery;
use super::transport::{Transport, TransportError};
use crate::content::ContentMeta;
use crate::entities::device::CompliantDevice;
use crate::entities::user::UserAgent;
use crate::ids::{ContentId, LicenseId};
use crate::license::License;
use crate::protocol::access::PlaySession;
use crate::protocol::attribute::AttributeIssueSession;
use crate::protocol::messages::{
    CatalogRequest, CrlSyncRequest, LicenseStatus, LicenseStatusRequest, MetricsDumpRequest,
    MetricsDumpResponse,
};
use crate::protocol::pseudonym::PseudonymIssueSession;
use crate::protocol::purchase::PurchaseSession;
use crate::protocol::transfer::TransferSession;
use crate::CoreError;
use p2drm_crypto::elgamal::ElGamalPublicKey;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_payment::Mint;
use p2drm_pki::cert::KeyId;
use p2drm_store::ConcurrentKv;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Correlation-id source: a monotone atomic counter, so ids are
    /// unique per client/connection even across concurrently prepared
    /// pipelined sessions. Id 0 is reserved (it marks a server's
    /// pre-decode error reply) and skipped; on the astronomically
    /// distant wrap-around of the `u64` the counter passes 0 and keeps
    /// going — ids only collide if a request from 2⁶⁴ calls ago is
    /// somehow still in flight, which every transport rejects as an
    /// unknown-id channel failure rather than misdelivering.
    next_correlation: AtomicU64,
    /// Epoch the client stamps into pseudonym/attribute bodies. The
    /// server validates freshness regardless; a stale hint just gets the
    /// issuance rejected.
    epoch: u32,
    /// Server clock learned from signed CRL timestamps (cached).
    now_hint: Option<u64>,
    /// Operation-level recovery policy; `None` keeps the historical
    /// single-attempt behavior.
    recovery: Option<Recovery>,
}

impl<T: Transport> WireClient<T> {
    /// Client over `transport`, assuming epoch 0 until told otherwise.
    pub fn new(transport: T) -> Self {
        WireClient {
            transport,
            next_correlation: AtomicU64::new(1),
            epoch: 0,
            now_hint: None,
            recovery: None,
        }
    }

    /// Enables operation-level recovery: every [`WireClient::call`]
    /// retries per the policy (bounded by budget, breaker and deadline),
    /// honoring server `retry_after_ms` hints; ambiguous failures are
    /// retried only for retry-safe ops ([`OpCode::idempotency`](super::OpCode::idempotency)).
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// The active recovery policy, if any (breaker/budget inspection).
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// Sets the epoch used for blind-issuance bodies (out-of-band time
    /// discipline, exactly like the RA engines' `epoch` parameter).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The next fresh correlation id (never 0 — reserved for the
    /// server's pre-decode error replies).
    fn next_corr(&self) -> u64 {
        loop {
            let id = self.next_correlation.fetch_add(1, Ordering::Relaxed);
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

    /// One framed exchange under the recovery policy (when installed):
    /// encode, submit, complete until this call's reply arrives, decode,
    /// match correlation — retrying failed exchanges per the policy.
    /// Every attempt uses a fresh correlation id, so a late reply to an
    /// abandoned attempt can never satisfy its retry.
    pub fn call(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        match self.recovery.take() {
            None => self.call_once(body),
            Some(rec) => {
                let out = self.call_recovering(&rec, body);
                self.recovery = Some(rec);
                out
            }
        }
    }

    /// One framed round trip, exactly one attempt.
    pub(super) fn call_once(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        let sent = self.next_corr();
        let request = RequestEnvelope {
            correlation_id: sent,
            body,
        };
        let reply = self.transport.roundtrip(sent, &request.to_bytes())?;
        Self::decode_reply(sent, &reply)
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
                // lint: allow(panic, slot enumerates bodies and results has one slot per body)
                Err(e) => results[slot] = Some(Err(WireError::Transport(e))),
            }
        }
        while !pending.is_empty() {
            match self.transport.complete(None) {
                Ok(Some((corr, reply))) => {
                    if let Some(slot) = pending.remove(&corr) {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Self::decode_reply(corr, &reply));
                    }
                }
                Ok(None) => {
                    let err = TransportError::Broken(
                        "transport reported nothing in flight while replies were outstanding"
                            .to_string(),
                    );
                    for (_, slot) in pending.drain() {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(err.clone())));
                    }
                }
                Err(e) => {
                    for (_, slot) in pending.drain() {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(e.clone())));
                    }
                }
            }
        }
        results
            .into_iter()
            // lint: allow(panic, the completion loop above resolves every slot)
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Lists the catalog.
    pub fn catalog(&mut self) -> Result<Vec<ContentMeta>, WireError> {
        match self.call(WireRequest::Catalog(CatalogRequest { content_id: None }))? {
            WireResponse::Catalog(c) => Ok(c.items.into_vec()),
            other => Err(unexpected("catalog", other)),
        }
    }

    /// Looks up one catalog item.
    pub fn content_meta(&mut self, id: ContentId) -> Result<ContentMeta, WireError> {
        match self.call(WireRequest::Catalog(CatalogRequest {
            content_id: Some(id),
        }))? {
            WireResponse::Catalog(c) => c.items.into_vec().into_iter().next().ok_or_else(|| {
                WireError::Api(ApiError::new(
                    ApiErrorCode::UnknownContent,
                    format!("unknown content {id}"),
                ))
            }),
            other => Err(unexpected("catalog", other)),
        }
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
        match self.call(WireRequest::PseudonymIssue(request))? {
            WireResponse::PseudonymIssue(resp) => Ok(session.finish(user, ra_blind_key, &resp)?),
            other => Err(unexpected("pseudonym-issue", other)),
        }
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
        match self.call(WireRequest::AttributeIssue(request))? {
            WireResponse::AttributeIssue(resp) => Ok(session.finish(user, &resp)?),
            other => Err(unexpected("attribute-issue", other)),
        }
    }

    /// Anonymous purchase over the wire: catalog quote, coin withdrawal
    /// (client ↔ mint, off this wire), purchase round trip, wallet
    /// recovery on failure.
    ///
    /// Coin accounting on the failure paths:
    /// * decoded **error response** — the server did not issue; the coin
    ///   returns to the wallet unless the error is in the payment range
    ///   (the mint consumed or rejected it);
    /// * **definitely-unsent transport failure**
    ///   ([`TransportError::definitely_unsent`], e.g. connect refused) —
    ///   the request never left this host, so the coin simply returns
    ///   to the wallet;
    /// * **ambiguous outcome** (connection broke mid-exchange, reply
    ///   fails to decode, correlation mismatch, unexpected response op)
    ///   — the server may or may not have deposited the coin, so it is
    ///   parked in the wallet's pending pool
    ///   ([`p2drm_payment::Wallet::pending`]) rather than silently
    ///   dropped; once the transport recovers, settle it with
    ///   [`p2drm_payment::Wallet::reconcile_pending`] against the
    ///   mint's authoritative spent-serial record.
    pub fn purchase<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        mint: &Mint,
        content_id: ContentId,
        rng: &mut R,
    ) -> Result<License, WireError> {
        let meta = self.content_meta(content_id)?;
        let (session, request) = PurchaseSession::begin(user, mint, &meta, rng)?;
        match self.call(WireRequest::Purchase(request)) {
            Err(WireError::Transport(t)) if t.definitely_unsent() => {
                session.recover(user);
                Err(WireError::Transport(t))
            }
            reply => settle_purchase(session, user, reply),
        }
    }

    /// Pipelines several anonymous purchases on one connection: all
    /// sessions begin (each withdrawing its own covering coin), all
    /// requests are submitted, and replies settle **as they arrive**,
    /// possibly out of order. Returns one outcome per content id, in
    /// input order.
    ///
    /// Coin accounting is per session and identical to
    /// [`WireClient::purchase`]: a decoded error aborts (coin returns
    /// unless the error is in the payment range), a definitely-unsent
    /// transport failure recovers the coin, and every ambiguous outcome
    /// — including a channel failure that voids several in-flight
    /// sessions at once — parks its coin for reconciliation.
    pub fn purchase_many<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        mint: &Mint,
        content_ids: &[ContentId],
        rng: &mut R,
    ) -> Vec<Result<License, WireError>> {
        // One catalog round trip quotes every item.
        let catalog = match self.catalog() {
            Ok(items) => items,
            Err(e) => {
                // No session began, no coin moved: fail every slot with
                // a fresh lookup attempt's error shape.
                let mut out = Vec::with_capacity(content_ids.len());
                out.push(Err(e));
                for _ in 1..content_ids.len() {
                    out.push(Err(WireError::Api(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "catalog quote failed; purchase not attempted",
                    ))));
                }
                return out;
            }
        };
        let mut results: Vec<Option<Result<License, WireError>>> =
            (0..content_ids.len()).map(|_| None).collect();
        let mut sessions: std::collections::HashMap<u64, (usize, PurchaseSession)> =
            std::collections::HashMap::new();
        for (slot, cid) in content_ids.iter().enumerate() {
            let Some(meta) = catalog.iter().find(|m| m.id == *cid) else {
                // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                results[slot] = Some(Err(WireError::Api(ApiError::new(
                    ApiErrorCode::UnknownContent,
                    format!("unknown content {cid}"),
                ))));
                continue;
            };
            let (session, request) = match PurchaseSession::begin(user, mint, meta, rng) {
                Ok(pair) => pair,
                Err(e) => {
                    // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                    results[slot] = Some(Err(WireError::Client(e)));
                    continue;
                }
            };
            let sent = self.next_corr();
            let envelope = RequestEnvelope {
                correlation_id: sent,
                body: WireRequest::Purchase(request),
            };
            match self.transport.submit(sent, &envelope.to_bytes()) {
                Ok(()) => {
                    sessions.insert(sent, (slot, session));
                }
                Err(t) if t.definitely_unsent() => {
                    session.recover(user);
                    // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                    results[slot] = Some(Err(WireError::Transport(t)));
                }
                Err(t) => {
                    session.park(user);
                    // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                    results[slot] = Some(Err(WireError::Transport(t)));
                }
            }
        }
        while !sessions.is_empty() {
            match self.transport.complete(None) {
                Ok(Some((corr, reply))) => {
                    let Some((slot, session)) = sessions.remove(&corr) else {
                        continue;
                    };
                    let reply = Self::decode_reply(corr, &reply);
                    // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                    results[slot] = Some(settle_purchase(session, user, reply));
                }
                Ok(None) => {
                    let err = TransportError::Broken(
                        "transport reported nothing in flight while replies were outstanding"
                            .to_string(),
                    );
                    for (_, (slot, session)) in sessions.drain() {
                        session.park(user);
                        // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(err.clone())));
                    }
                }
                Err(e) => {
                    // Channel failure: every in-flight purchase is now
                    // ambiguous at once — park them all.
                    for (_, (slot, session)) in sessions.drain() {
                        session.park(user);
                        // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(e.clone())));
                    }
                }
            }
        }
        results
            .into_iter()
            // lint: allow(panic, the completion loop above resolves every slot)
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Privacy-preserving transfer over the wire (both agents are local
    /// to this client — e.g. a marketplace app handling the hand-over).
    ///
    /// Local state moves only after a decoded success response. That is
    /// deliberately conservative, and it leaves a known divergence
    /// window: if the provider **commits** the transfer but the response
    /// is lost or fails to decode, this call errors while the sender
    /// still holds a license the provider has already retired (the
    /// recipient's fresh license bytes were in the lost response and
    /// cannot be recovered here). After any ambiguous outcome — an
    /// [`WireError::Envelope`], [`WireError::CorrelationMismatch`] or
    /// [`WireError::UnexpectedResponse`] — repair the sender's view with
    /// [`WireClient::reconcile_transfer`], which re-queries the
    /// authoritative license status by id.
    pub fn transfer<R: CryptoRng + ?Sized>(
        &mut self,
        sender: &mut UserAgent,
        recipient: &mut UserAgent,
        license_id: LicenseId,
        _rng: &mut R,
    ) -> Result<License, WireError> {
        let (session, request) = TransferSession::begin(sender, recipient, license_id)?;
        match self.call(WireRequest::Transfer(request))? {
            WireResponse::Transfer(resp) => Ok(session.finish(sender, recipient, resp)),
            other => Err(unexpected("transfer", other)),
        }
    }

    /// Queries the provider's authoritative status of a license id.
    pub fn license_status(&mut self, license_id: LicenseId) -> Result<LicenseStatus, WireError> {
        match self.call(WireRequest::LicenseStatus(LicenseStatusRequest {
            license_id,
        }))? {
            WireResponse::LicenseStatus(resp) => Ok(resp.status),
            other => Err(unexpected("license-status", other)),
        }
    }

    /// Repairs the sender's local state after an ambiguous transfer
    /// outcome (see [`WireClient::transfer`]): re-queries the license's
    /// authoritative status and drops it locally when the provider has
    /// already retired it ([`LicenseStatus::Transferred`] — the transfer
    /// committed server-side — or [`LicenseStatus::Revoked`]). Returns
    /// `true` when a stale local license was dropped, `false` when the
    /// license is still active (the transfer never committed; the sender
    /// keeps it and may retry).
    pub fn reconcile_transfer(
        &mut self,
        sender: &mut UserAgent,
        license_id: LicenseId,
    ) -> Result<bool, WireError> {
        if let Some(m) = self.recovery.as_ref().and_then(|r| r.metrics.as_ref()) {
            m.reconciles.inc();
        }
        match self.license_status(license_id)? {
            LicenseStatus::Transferred | LicenseStatus::Revoked => {
                Ok(sender.remove_license(&license_id).is_some())
            }
            LicenseStatus::Active { .. } | LicenseStatus::Unknown => Ok(false),
        }
    }

    /// Plays a license on a device: the challenge/proof/key-release
    /// rounds run locally between device and card, only the anonymous
    /// download crosses the wire.
    pub fn play<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
        &mut self,
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        rng: &mut R,
    ) -> Result<Vec<u8>, WireError> {
        let now = self.server_now()?;
        let (session, request) = PlaySession::begin(user, device, license, now, rng)?;
        match self.call(WireRequest::Download(request))? {
            WireResponse::Download(resp) => Ok(session.finish(device, &resp)?),
            other => Err(unexpected("download", other)),
        }
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
        match self.call(WireRequest::CrlSync(request))? {
            WireResponse::CrlSync(resp) => {
                self.now_hint = Some(resp.license_crl.issued_at);
                device.sync_crls(&resp.license_crl, &resp.pseudonym_crl)?;
                Ok(())
            }
            other => Err(unexpected("crl-sync", other)),
        }
    }

    /// Fetches the provider's unified metrics snapshot (requires the
    /// server's `metrics_dump` opt-in; otherwise answers
    /// [`ApiErrorCode::ServiceUnavailable`]). Convert with
    /// [`snapshot_from_dump`](super::snapshot_from_dump) for text/JSON exposition.
    pub fn metrics_dump(&mut self) -> Result<MetricsDumpResponse, WireError> {
        match self.call(WireRequest::MetricsDump(MetricsDumpRequest {}))? {
            WireResponse::MetricsDump(resp) => Ok(resp),
            other => Err(unexpected("metrics-dump", other)),
        }
    }

    /// The server clock, learned from the `issued_at` stamp of a signed
    /// CRL (cached after the first probe; the paper's devices sync CRLs
    /// anyway, so this costs nothing extra in practice).
    fn server_now(&mut self) -> Result<u64, WireError> {
        if let Some(now) = self.now_hint {
            return Ok(now);
        }
        match self.call(WireRequest::CrlSync(CrlSyncRequest {
            license_seq: 0,
            pseudonym_seq: 0,
        }))? {
            WireResponse::CrlSync(resp) => {
                self.now_hint = Some(resp.license_crl.issued_at);
                Ok(resp.license_crl.issued_at)
            }
            other => Err(unexpected("crl-sync", other)),
        }
    }
}

/// Settles the reply to a purchase request that went out: a license
/// finishes the session, a decoded error aborts it (the coin returns
/// unless the error is in the payment range), and anything else —
/// another op's body, an undecodable or mismatched reply, a channel
/// failure — leaves the outcome ambiguous, so the coin is parked.
fn settle_purchase(
    session: PurchaseSession,
    user: &mut UserAgent,
    reply: Result<WireResponse, WireError>,
) -> Result<License, WireError> {
    match reply {
        Ok(WireResponse::Purchase(resp)) => Ok(session.finish(user, resp)),
        Ok(WireResponse::Error(e)) => {
            session.abort(user, &e);
            Err(WireError::Api(e))
        }
        Ok(other) => {
            session.park(user);
            Err(unexpected("purchase", other))
        }
        Err(e) => {
            session.park(user);
            Err(e)
        }
    }
}

fn unexpected(expected: &'static str, got: WireResponse) -> WireError {
    match got {
        WireResponse::Error(e) => WireError::Api(e),
        other => WireError::UnexpectedResponse {
            expected,
            got: other.label(),
        },
    }
}
