//! Typed protocol messages with canonical encodings.
//!
//! These are the payloads of the wire envelopes ([`crate::service`]):
//! the transcripts behind experiment E1 hold exactly
//! `p2drm_codec::to_bytes(&msg)`, so the message sizes pinned there are
//! the sizes a networked deployment pays. Every message carries a
//! [`Decode`] impl matching its [`Encode`], so the same bytes are
//! *dispatchable*: `p2drm_codec::from_bytes` round-trips each message
//! exactly and rejects trailing garbage.

use crate::content::{CatalogListing, ContentMeta};
use crate::ids::{CardId, ContentId, LicenseId};
use crate::license::License;
use p2drm_bignum::UBig;
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::rsa::RsaSignature;
use p2drm_payment::Coin;
use p2drm_pki::cert::{AttributeCertificate, Certificate, KeyId, PseudonymCertificate};
use std::sync::Arc;

/// Writes a [`UBig`] as a length-prefixed minimal big-endian byte string.
fn put_ubig(w: &mut Writer, v: &UBig) {
    w.put_bytes(&v.to_bytes_be());
}

/// Reads a [`UBig`] written by [`put_ubig`], rejecting non-minimal
/// encodings (a redundant leading zero would let two byte strings decode
/// to the same value, breaking encode/decode bijectivity). Nested
/// integer fields — signatures, public keys, ElGamal components — apply
/// the same rule through [`Reader::get_int_bytes`] in their own
/// decoders, so whole messages are canonical, not just these fields.
fn get_ubig(r: &mut Reader) -> p2drm_codec::Result<UBig> {
    Ok(UBig::from_bytes_be(r.get_int_bytes()?))
}

/// Card → RA: blind pseudonym certification request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudonymIssueRequest {
    /// The requesting card (the RA's issuance-log handle; the card is
    /// *authenticated* by the certificate below, not by this id).
    pub card_id: CardId,
    /// Card master certificate (authenticates the card).
    pub card_cert: Certificate,
    /// Blinded FDH of the pseudonym certificate body.
    pub blinded: UBig,
    /// Master-key signature over [`pseudonym_auth_bytes`] (binds the
    /// claimed card id to the blinded value).
    pub auth_sig: RsaSignature,
}

impl Encode for PseudonymIssueRequest {
    fn encode(&self, w: &mut Writer) {
        self.card_id.encode(w);
        self.card_cert.encode(w);
        put_ubig(w, &self.blinded);
        self.auth_sig.encode(w);
    }
}

impl Decode for PseudonymIssueRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(PseudonymIssueRequest {
            card_id: CardId::decode(r)?,
            card_cert: Certificate::decode(r)?,
            blinded: get_ubig(r)?,
            auth_sig: RsaSignature::decode(r)?,
        })
    }
}

/// RA → Card: the blind signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudonymIssueResponse {
    /// `blinded^d mod n` under the RA blind key.
    pub blind_sig: UBig,
}

impl Encode for PseudonymIssueResponse {
    fn encode(&self, w: &mut Writer) {
        put_ubig(w, &self.blind_sig);
    }
}

impl Decode for PseudonymIssueResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(PseudonymIssueResponse {
            blind_sig: get_ubig(r)?,
        })
    }
}

/// Card → RA: blind attribute certification request ("private
/// credentials", e.g. *adult*). Like pseudonym issuance but naming the
/// attribute so the RA can pick its per-attribute blind key and check the
/// card owner's entitlement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributeIssueRequest {
    /// The requesting card.
    pub card_id: CardId,
    /// Card master certificate (authenticates the card).
    pub card_cert: Certificate,
    /// Which attribute is being certified.
    pub attribute: String,
    /// Blinded FDH of the attribute certificate body.
    pub blinded: UBig,
    /// Master-key signature over [`attribute_auth_bytes`] (binds the
    /// claimed card id and the attribute name to the blinded value).
    pub auth_sig: RsaSignature,
}

impl Encode for AttributeIssueRequest {
    fn encode(&self, w: &mut Writer) {
        self.card_id.encode(w);
        self.card_cert.encode(w);
        w.put_str(&self.attribute);
        put_ubig(w, &self.blinded);
        self.auth_sig.encode(w);
    }
}

impl Decode for AttributeIssueRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(AttributeIssueRequest {
            card_id: CardId::decode(r)?,
            card_cert: Certificate::decode(r)?,
            attribute: r.get_str()?,
            blinded: get_ubig(r)?,
            auth_sig: RsaSignature::decode(r)?,
        })
    }
}

/// RA → Card: the blind signature under the per-attribute key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributeIssueResponse {
    /// `blinded^d mod n` under the RA's key for the requested attribute.
    pub blind_sig: UBig,
}

impl Encode for AttributeIssueResponse {
    fn encode(&self, w: &mut Writer) {
        put_ubig(w, &self.blind_sig);
    }
}

impl Decode for AttributeIssueResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(AttributeIssueResponse {
            blind_sig: get_ubig(r)?,
        })
    }
}

/// User → Provider: anonymous purchase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PurchaseRequest {
    /// Desired content.
    pub content_id: ContentId,
    /// Blind-issued pseudonym certificate (no identity inside).
    pub pseudonym_cert: PseudonymCertificate,
    /// Anonymous payment.
    pub coin: Coin,
    /// Attribute credential, when the content requires one (bound to the
    /// same pseudonym key; still no identity inside).
    pub attribute_cert: Option<AttributeCertificate>,
}

impl Encode for PurchaseRequest {
    fn encode(&self, w: &mut Writer) {
        self.content_id.encode(w);
        self.pseudonym_cert.encode(w);
        self.coin.encode(w);
        w.put_option(&self.attribute_cert);
    }
}

impl Decode for PurchaseRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(PurchaseRequest {
            content_id: ContentId::decode(r)?,
            pseudonym_cert: PseudonymCertificate::decode(r)?,
            coin: Coin::decode(r)?,
            attribute_cert: r.get_option()?,
        })
    }
}

/// Provider → User: the license.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PurchaseResponse {
    /// Issued anonymous license.
    pub license: License,
}

impl Encode for PurchaseResponse {
    fn encode(&self, w: &mut Writer) {
        self.license.encode(w);
    }
}

impl Decode for PurchaseResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(PurchaseResponse {
            license: License::decode(r)?,
        })
    }
}

/// User → Provider: anonymous content download (no auth needed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DownloadRequest {
    /// Which item.
    pub content_id: ContentId,
}

impl Encode for DownloadRequest {
    fn encode(&self, w: &mut Writer) {
        self.content_id.encode(w);
    }
}

impl Decode for DownloadRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(DownloadRequest {
            content_id: ContentId::decode(r)?,
        })
    }
}

/// Provider → User: protected payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DownloadResponse {
    /// Content nonce.
    pub nonce: [u8; 12],
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
}

impl Encode for DownloadResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.nonce);
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for DownloadResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(DownloadResponse {
            nonce: r.get_raw(12)?.try_into().expect("fixed width"),
            ciphertext: r.get_bytes_owned()?,
        })
    }
}

/// Holder → Provider: privacy-preserving transfer request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferRequest {
    /// The license being given up.
    pub license: License,
    /// Recipient's pseudonym certificate.
    pub recipient_cert: PseudonymCertificate,
    /// Holder-key signature over [`transfer_proof_bytes`].
    pub proof: RsaSignature,
}

impl Encode for TransferRequest {
    fn encode(&self, w: &mut Writer) {
        self.license.encode(w);
        self.recipient_cert.encode(w);
        self.proof.encode(w);
    }
}

impl Decode for TransferRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(TransferRequest {
            license: License::decode(r)?,
            recipient_cert: PseudonymCertificate::decode(r)?,
            proof: RsaSignature::decode(r)?,
        })
    }
}

/// The bytes a holder signs to authorize a transfer.
pub fn transfer_proof_bytes(lid: &LicenseId, recipient: &KeyId) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.put_raw(b"p2drm-transfer-proof");
    lid.encode(&mut w);
    recipient.encode(&mut w);
    w.into_bytes()
}

/// The bytes a card signs to authenticate a [`PseudonymIssueRequest`]:
/// a domain tag, the claimed card id and the blinded value. Covering the
/// card id (not just the blinded value) means the RA-verified signature
/// binds the request fields — a request whose `card_id` was swapped for
/// another card's no longer verifies under the authenticated master key.
pub fn pseudonym_auth_bytes(card_id: &CardId, blinded: &UBig) -> Vec<u8> {
    let mut w = Writer::with_capacity(96);
    w.put_raw(b"p2drm-pseudonym-auth");
    card_id.encode(&mut w);
    put_ubig(&mut w, blinded);
    w.into_bytes()
}

/// The bytes a card signs to authenticate an [`AttributeIssueRequest`]:
/// domain tag, claimed card id, the named attribute and the blinded
/// value — so neither the card id nor the attribute can be swapped
/// without breaking the signature.
pub fn attribute_auth_bytes(card_id: &CardId, attribute: &str, blinded: &UBig) -> Vec<u8> {
    let mut w = Writer::with_capacity(96);
    w.put_raw(b"p2drm-attribute-auth");
    card_id.encode(&mut w);
    w.put_str(attribute);
    put_ubig(&mut w, blinded);
    w.into_bytes()
}

/// The bytes a card signs to authenticate a cut-and-choose candidate
/// set: domain tag, claimed card id, then the length-prefixed candidates
/// (count first, so two sets cannot collide by concatenation).
pub fn cut_choose_auth_bytes(card_id: &CardId, blinded_values: &[UBig]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 * (blinded_values.len() + 1));
    w.put_raw(b"p2drm-cut-choose-auth");
    card_id.encode(&mut w);
    w.put_varint(blinded_values.len() as u64);
    for b in blinded_values {
        put_ubig(&mut w, b);
    }
    w.into_bytes()
}

/// Provider → Recipient: the fresh license.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferResponse {
    /// License reissued to the recipient pseudonym.
    pub license: License,
}

impl Encode for TransferResponse {
    fn encode(&self, w: &mut Writer) {
        self.license.encode(w);
    }
}

impl Decode for TransferResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(TransferResponse {
            license: License::decode(r)?,
        })
    }
}

/// Device → Provider: CRL sync request, stating the sequences the device
/// already holds (0 = none). The sequences are advisory: the service
/// always answers with both full signed lists, whatever they say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrlSyncRequest {
    /// License-CRL sequence the device holds.
    pub license_seq: u64,
    /// Pseudonym-CRL sequence the device holds.
    pub pseudonym_seq: u64,
}

impl Encode for CrlSyncRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.license_seq);
        w.put_u64(self.pseudonym_seq);
    }
}

impl Decode for CrlSyncRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(CrlSyncRequest {
            license_seq: r.get_u64()?,
            pseudonym_seq: r.get_u64()?,
        })
    }
}

/// CRL sync message (provider → device).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrlSync {
    /// License CRL.
    pub license_crl: p2drm_pki::crl::SignedCrl,
    /// Pseudonym CRL.
    pub pseudonym_crl: p2drm_pki::crl::SignedCrl,
}

impl Encode for CrlSync {
    fn encode(&self, w: &mut Writer) {
        self.license_crl.encode(w);
        self.pseudonym_crl.encode(w);
    }
}

impl Decode for CrlSync {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(CrlSync {
            license_crl: p2drm_pki::crl::SignedCrl::decode(r)?,
            pseudonym_crl: p2drm_pki::crl::SignedCrl::decode(r)?,
        })
    }
}

/// User → Provider: anonymous catalog lookup — one item by id, or the
/// whole listing when `content_id` is `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogRequest {
    /// Item to look up; `None` lists everything.
    pub content_id: Option<ContentId>,
}

impl Encode for CatalogRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_option(&self.content_id);
    }
}

impl Decode for CatalogRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(CatalogRequest {
            content_id: r.get_option()?,
        })
    }
}

/// The items of a [`CatalogResponse`]: an owned list (a by-id lookup,
/// every decoded reply) or the provider's shared listing snapshot (a
/// full listing on the serving side). Reads as a `[ContentMeta]` either
/// way; two values are equal when their items are.
#[derive(Clone, Debug)]
pub enum CatalogItems {
    /// Items owned by this message.
    Owned(Vec<ContentMeta>),
    /// The catalog's current listing snapshot, shared with every other
    /// reply taken from the same catalog state.
    Listing(Arc<CatalogListing>),
}

impl CatalogItems {
    /// The items as an owned vector (clones them out of a shared
    /// snapshot).
    pub fn into_vec(self) -> Vec<ContentMeta> {
        match self {
            CatalogItems::Owned(items) => items,
            CatalogItems::Listing(listing) => listing.metas().to_vec(),
        }
    }
}

impl std::ops::Deref for CatalogItems {
    type Target = [ContentMeta];

    fn deref(&self) -> &[ContentMeta] {
        match self {
            CatalogItems::Owned(items) => items,
            CatalogItems::Listing(listing) => listing.metas(),
        }
    }
}

impl PartialEq for CatalogItems {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CatalogItems {}

/// Provider → User: public catalog metadata (id-sorted for listings).
///
/// A full listing carries the catalog's [`CatalogListing`] snapshot and
/// encodes by copying the snapshot's pre-encoded bytes — the same bytes
/// [`Writer::put_seq`] would produce from the items, without visiting
/// them. Decoding always yields owned items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogResponse {
    /// The matching items (one for an id lookup, all for a listing).
    pub items: CatalogItems,
}

impl CatalogResponse {
    /// A reply owning its items.
    pub fn new(items: Vec<ContentMeta>) -> Self {
        CatalogResponse {
            items: CatalogItems::Owned(items),
        }
    }

    /// The full-listing reply over a shared snapshot.
    pub fn listing(listing: Arc<CatalogListing>) -> Self {
        CatalogResponse {
            items: CatalogItems::Listing(listing),
        }
    }
}

impl Encode for CatalogResponse {
    fn encode(&self, w: &mut Writer) {
        match &self.items {
            CatalogItems::Owned(items) => w.put_seq(items),
            CatalogItems::Listing(listing) => w.put_raw(listing.encoded()),
        }
    }
}

impl Decode for CatalogResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(CatalogResponse::new(r.get_seq()?))
    }
}

/// User → Provider: authoritative status of a license id (the
/// reconciliation query for ambiguous transfer outcomes — license ids
/// are 16 unguessable random bytes, so only a party to the license can
/// ask about it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LicenseStatusRequest {
    /// The id being queried.
    pub license_id: LicenseId,
}

impl Encode for LicenseStatusRequest {
    fn encode(&self, w: &mut Writer) {
        self.license_id.encode(w);
    }
}

impl Decode for LicenseStatusRequest {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(LicenseStatusRequest {
            license_id: LicenseId::decode(r)?,
        })
    }
}

/// The provider's authoritative view of one license id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LicenseStatus {
    /// Never issued by this provider.
    Unknown,
    /// Issued and still exercisable; `holder` is the pseudonym key id it
    /// is bound to.
    Active {
        /// Current holder pseudonym key id.
        holder: KeyId,
    },
    /// Consumed by a committed transfer (a successor license exists
    /// under the recipient pseudonym).
    Transferred,
    /// Revoked without a transfer (abuse handling, de-anonymization).
    Revoked,
}

impl Encode for LicenseStatus {
    fn encode(&self, w: &mut Writer) {
        match self {
            LicenseStatus::Unknown => w.put_u8(0),
            LicenseStatus::Active { holder } => {
                w.put_u8(1);
                holder.encode(w);
            }
            LicenseStatus::Transferred => w.put_u8(2),
            LicenseStatus::Revoked => w.put_u8(3),
        }
    }
}

impl Decode for LicenseStatus {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(match r.get_u8()? {
            0 => LicenseStatus::Unknown,
            1 => LicenseStatus::Active {
                holder: KeyId::decode(r)?,
            },
            2 => LicenseStatus::Transferred,
            3 => LicenseStatus::Revoked,
            tag => return Err(p2drm_codec::CodecError::BadDiscriminant(tag)),
        })
    }
}

/// Provider → User: the status answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LicenseStatusResponse {
    /// Authoritative status of the queried id.
    pub status: LicenseStatus,
}

impl Encode for LicenseStatusResponse {
    fn encode(&self, w: &mut Writer) {
        self.status.encode(w);
    }
}

impl Decode for LicenseStatusResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(LicenseStatusResponse {
            status: LicenseStatus::decode(r)?,
        })
    }
}

/// Operator → Provider: request the unified metrics snapshot. Empty
/// payload — the op is gated server-side by
/// [`ProviderConfig::metrics_dump`](crate::entities::provider::ProviderConfig::metrics_dump)
/// and answers [`ApiErrorCode::ServiceUnavailable`](crate::service::ApiErrorCode::ServiceUnavailable)
/// when disabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDumpRequest {}

impl Encode for MetricsDumpRequest {
    fn encode(&self, _w: &mut Writer) {}
}

impl Decode for MetricsDumpRequest {
    fn decode(_r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(MetricsDumpRequest {})
    }
}

/// Wire form of a histogram summary. Carried with integer nanoseconds
/// only (the mean is rounded), so encode/decode round-trips exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSummary {
    /// Sample count.
    pub count: u64,
    /// Mean in nanoseconds, rounded to the nearest integer.
    pub mean_ns: u64,
    /// Median (bucket resolution).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Minimum.
    pub min_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl Encode for MetricSummary {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.count);
        w.put_varint(self.mean_ns);
        w.put_varint(self.p50_ns);
        w.put_varint(self.p90_ns);
        w.put_varint(self.p99_ns);
        w.put_varint(self.min_ns);
        w.put_varint(self.max_ns);
    }
}

impl Decode for MetricSummary {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(MetricSummary {
            count: r.get_varint()?,
            mean_ns: r.get_varint()?,
            p50_ns: r.get_varint()?,
            p90_ns: r.get_varint()?,
            p99_ns: r.get_varint()?,
            min_ns: r.get_varint()?,
            max_ns: r.get_varint()?,
        })
    }
}

/// One named metric in a [`MetricsDumpResponse`]. Gauges travel as the
/// two's-complement `u64` of their signed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricEntry {
    /// Monotonic counter.
    Counter {
        /// Metric name.
        name: String,
        /// Count.
        value: u64,
    },
    /// Signed level.
    Gauge {
        /// Metric name.
        name: String,
        /// Signed value (encoded two's-complement).
        value: i64,
    },
    /// Latency distribution.
    Histogram {
        /// Metric name.
        name: String,
        /// Percentile summary.
        summary: MetricSummary,
    },
}

impl MetricEntry {
    /// The metric's name, whatever its kind.
    pub fn name(&self) -> &str {
        match self {
            MetricEntry::Counter { name, .. }
            | MetricEntry::Gauge { name, .. }
            | MetricEntry::Histogram { name, .. } => name,
        }
    }
}

impl Encode for MetricEntry {
    fn encode(&self, w: &mut Writer) {
        match self {
            MetricEntry::Counter { name, value } => {
                w.put_u8(0);
                w.put_str(name);
                w.put_varint(*value);
            }
            MetricEntry::Gauge { name, value } => {
                w.put_u8(1);
                w.put_str(name);
                w.put_u64(*value as u64);
            }
            MetricEntry::Histogram { name, summary } => {
                w.put_u8(2);
                w.put_str(name);
                summary.encode(w);
            }
        }
    }
}

impl Decode for MetricEntry {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(match r.get_u8()? {
            0 => MetricEntry::Counter {
                name: r.get_str()?,
                value: r.get_varint()?,
            },
            1 => MetricEntry::Gauge {
                name: r.get_str()?,
                value: r.get_u64()? as i64,
            },
            2 => MetricEntry::Histogram {
                name: r.get_str()?,
                summary: MetricSummary::decode(r)?,
            },
            tag => return Err(p2drm_codec::CodecError::BadDiscriminant(tag)),
        })
    }
}

/// One stage of a traced request span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStage {
    /// Stage label (a static string server-side).
    pub label: String,
    /// Stage duration in nanoseconds (0 for flag markers).
    pub ns: u64,
}

impl Encode for SpanStage {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.label);
        w.put_varint(self.ns);
    }
}

impl Decode for SpanStage {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(SpanStage {
            label: r.get_str()?,
            ns: r.get_varint()?,
        })
    }
}

/// One traced request span: correlation id, op label and latency —
/// durations and static labels only, never request contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEntry {
    /// The request's wire correlation id (client-chosen routing data).
    pub corr_id: u64,
    /// Op label.
    pub op: String,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Whether the span crossed the slow threshold.
    pub slow: bool,
    /// Stage breakdown (empty unless `slow`).
    pub stages: Vec<SpanStage>,
}

impl Encode for SpanEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.corr_id);
        w.put_str(&self.op);
        w.put_varint(self.total_ns);
        w.put_bool(self.slow);
        w.put_seq(&self.stages);
    }
}

impl Decode for SpanEntry {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(SpanEntry {
            corr_id: r.get_u64()?,
            op: r.get_str()?,
            total_ns: r.get_varint()?,
            slow: r.get_bool()?,
            stages: r.get_seq()?,
        })
    }
}

/// Provider → Operator: the unified observability snapshot — every
/// registered metric (sorted by name) plus the recent traced spans.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDumpResponse {
    /// All metrics, sorted ascending by name.
    pub metrics: Vec<MetricEntry>,
    /// Recent request spans, oldest first (empty unless tracing is on).
    pub spans: Vec<SpanEntry>,
}

impl Encode for MetricsDumpResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.metrics);
        w.put_seq(&self.spans);
    }
}

impl Decode for MetricsDumpResponse {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(MetricsDumpResponse {
            metrics: r.get_seq()?,
            spans: r.get_seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_codec::CodecError;

    #[test]
    fn transfer_proof_bytes_bind_both_parties() {
        let lid_a = LicenseId::from_label("a");
        let lid_b = LicenseId::from_label("b");
        let k1 = p2drm_pki::cert::digest_id(b"k1");
        let k2 = p2drm_pki::cert::digest_id(b"k2");
        assert_eq!(
            transfer_proof_bytes(&lid_a, &k1),
            transfer_proof_bytes(&lid_a, &k1)
        );
        assert_ne!(
            transfer_proof_bytes(&lid_a, &k1),
            transfer_proof_bytes(&lid_b, &k1)
        );
        assert_ne!(
            transfer_proof_bytes(&lid_a, &k1),
            transfer_proof_bytes(&lid_a, &k2)
        );
    }

    #[test]
    fn metrics_dump_roundtrip() {
        let empty = MetricsDumpRequest {};
        let bytes = p2drm_codec::to_bytes(&empty);
        assert!(bytes.is_empty(), "request payload is empty");
        assert_eq!(
            p2drm_codec::from_bytes::<MetricsDumpRequest>(&bytes).unwrap(),
            empty
        );

        let msg = MetricsDumpResponse {
            metrics: vec![
                MetricEntry::Counter {
                    name: "net_accepted".to_string(),
                    value: 17,
                },
                MetricEntry::Gauge {
                    name: "net_active".to_string(),
                    value: -2,
                },
                MetricEntry::Histogram {
                    name: "service_purchase_ns".to_string(),
                    summary: MetricSummary {
                        count: 3,
                        mean_ns: 812,
                        p50_ns: 768,
                        p90_ns: 1536,
                        p99_ns: 1536,
                        min_ns: 700,
                        max_ns: 1600,
                    },
                },
            ],
            spans: vec![SpanEntry {
                corr_id: 42,
                op: "purchase".to_string(),
                total_ns: 1_500_000,
                slow: true,
                stages: vec![
                    SpanStage {
                        label: "mint_deposit".to_string(),
                        ns: 50_000,
                    },
                    SpanStage {
                        label: "vcache_miss".to_string(),
                        ns: 0,
                    },
                ],
            }],
        };
        let bytes = p2drm_codec::to_bytes(&msg);
        let back: MetricsDumpResponse = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn metrics_dump_request_rejects_trailing_bytes() {
        assert!(p2drm_codec::from_bytes::<MetricsDumpRequest>(&[0u8]).is_err());
    }

    #[test]
    fn download_response_roundtrip() {
        let msg = DownloadResponse {
            nonce: [7; 12],
            ciphertext: vec![1, 2, 3],
        };
        let bytes = p2drm_codec::to_bytes(&msg);
        let back: DownloadResponse = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn ubig_field_decode_rejects_leading_zero() {
        // A PseudonymIssueResponse whose blind_sig bytes carry a
        // redundant leading zero must not decode: it would re-encode to
        // different (shorter) bytes.
        let msg = PseudonymIssueResponse {
            blind_sig: UBig::from_u64(0x1234),
        };
        let good = p2drm_codec::to_bytes(&msg);
        assert_eq!(
            p2drm_codec::from_bytes::<PseudonymIssueResponse>(&good).unwrap(),
            msg
        );
        // Rebuild the same value with a padded length prefix + zero byte.
        let mut w = Writer::new();
        w.put_bytes(&[0x00, 0x12, 0x34]);
        assert_eq!(
            p2drm_codec::from_bytes::<PseudonymIssueResponse>(&w.into_bytes()),
            Err(CodecError::NonMinimalInt)
        );
    }

    #[test]
    fn nested_signature_fields_are_not_malleable() {
        // The canonicality rule reaches *nested* integers too: a message
        // whose embedded RsaSignature bytes carry a redundant leading
        // zero must be rejected, or two distinct byte strings would
        // decode to the same request.
        let mut rng = p2drm_crypto::rng::test_rng(0x51C);
        let sys =
            crate::system::System::bootstrap(crate::system::SystemConfig::fast_test(), &mut rng);
        let alice = sys.register_user("alice", &mut rng).unwrap();
        let sig = RsaSignature::from_ubig(UBig::from_u64(0x1234));
        let request = PseudonymIssueRequest {
            card_id: alice.card.card_id(),
            card_cert: alice.card.master_cert().clone(),
            blinded: UBig::from_u64(5),
            auth_sig: sig.clone(),
        };
        let good = p2drm_codec::to_bytes(&request);
        assert_eq!(
            p2drm_codec::from_bytes::<PseudonymIssueRequest>(&good)
                .expect("canonical bytes decode")
                .auth_sig,
            sig
        );
        let mut w = Writer::new();
        request.card_id.encode(&mut w);
        request.card_cert.encode(&mut w);
        put_ubig(&mut w, &request.blinded);
        w.put_bytes(&[0x00, 0x12, 0x34]); // same integer, padded
        assert_eq!(
            p2drm_codec::from_bytes::<PseudonymIssueRequest>(&w.into_bytes()),
            Err(CodecError::NonMinimalInt)
        );
    }
}
