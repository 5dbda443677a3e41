//! The envelope: op-codes, typed request/response bodies and their
//! framing (layout in the [module docs](super)).

use super::error::{ApiError, ApiErrorCode};
use crate::protocol::messages::{
    AttributeIssueRequest, AttributeIssueResponse, CatalogItems, CatalogRequest, CatalogResponse,
    CrlSync, CrlSyncRequest, DownloadRequest, DownloadResponse, LicenseStatusRequest,
    LicenseStatusResponse, MetricsDumpRequest, MetricsDumpResponse, PseudonymIssueRequest,
    PseudonymIssueResponse, PurchaseRequest, PurchaseResponse, TransferRequest, TransferResponse,
};
use p2drm_codec::{CodecError, Decode, Encode, Writer};

/// The wire format version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Envelope header length: version + op-code + correlation id.
pub const ENVELOPE_HEADER_LEN: usize = 10;

// ---------------------------------------------------------------------------
// Op-codes
// ---------------------------------------------------------------------------

/// Operation tag carried in envelope byte 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Error response (responses only; rejected in requests).
    Error = 0,
    /// Anonymous purchase.
    Purchase = 1,
    /// Anonymous content download (the remote half of play).
    Download = 2,
    /// Privacy-preserving transfer.
    Transfer = 3,
    /// Blind pseudonym issuance (RA).
    PseudonymIssue = 4,
    /// Blind attribute issuance (RA).
    AttributeIssue = 5,
    /// CRL synchronization.
    CrlSync = 6,
    /// Catalog lookup / listing.
    Catalog = 7,
    /// License-status query.
    LicenseStatus = 8,
    /// Unified metrics snapshot (operator op; off unless the provider
    /// opts in via `ProviderConfig::metrics_dump`).
    MetricsDump = 9,
}

/// Number of defined op-codes (contiguous from 0).
pub(crate) const OPCODE_COUNT: usize = 10;

impl OpCode {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    pub fn from_byte(b: u8) -> Option<OpCode> {
        Some(match b {
            0 => OpCode::Error,
            1 => OpCode::Purchase,
            2 => OpCode::Download,
            3 => OpCode::Transfer,
            4 => OpCode::PseudonymIssue,
            5 => OpCode::AttributeIssue,
            6 => OpCode::CrlSync,
            7 => OpCode::Catalog,
            8 => OpCode::LicenseStatus,
            9 => OpCode::MetricsDump,
            _ => return None,
        })
    }

    /// Short static label for diagnostics, span names and metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpCode::Error => "error",
            OpCode::Purchase => "purchase",
            OpCode::Download => "download",
            OpCode::Transfer => "transfer",
            OpCode::PseudonymIssue => "pseudonym-issue",
            OpCode::AttributeIssue => "attribute-issue",
            OpCode::CrlSync => "crl-sync",
            OpCode::Catalog => "catalog",
            OpCode::LicenseStatus => "license-status",
            OpCode::MetricsDump => "metrics-dump",
        }
    }
}

// ---------------------------------------------------------------------------
// Request / response bodies and envelopes
// ---------------------------------------------------------------------------

/// Every operation a remote party can request, as a typed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// Anonymous purchase.
    Purchase(PurchaseRequest),
    /// Anonymous download (the remote half of play).
    Download(DownloadRequest),
    /// Privacy-preserving transfer.
    Transfer(TransferRequest),
    /// Blind pseudonym issuance.
    PseudonymIssue(PseudonymIssueRequest),
    /// Blind attribute issuance.
    AttributeIssue(AttributeIssueRequest),
    /// CRL synchronization.
    CrlSync(CrlSyncRequest),
    /// Catalog lookup / listing.
    Catalog(CatalogRequest),
    /// License-status query.
    LicenseStatus(LicenseStatusRequest),
    /// Unified metrics snapshot (operator op, opt-in).
    MetricsDump(MetricsDumpRequest),
}

impl WireRequest {
    /// The envelope op-code for this body.
    pub fn opcode(&self) -> OpCode {
        match self {
            WireRequest::Purchase(_) => OpCode::Purchase,
            WireRequest::Download(_) => OpCode::Download,
            WireRequest::Transfer(_) => OpCode::Transfer,
            WireRequest::PseudonymIssue(_) => OpCode::PseudonymIssue,
            WireRequest::AttributeIssue(_) => OpCode::AttributeIssue,
            WireRequest::CrlSync(_) => OpCode::CrlSync,
            WireRequest::Catalog(_) => OpCode::Catalog,
            WireRequest::LicenseStatus(_) => OpCode::LicenseStatus,
            WireRequest::MetricsDump(_) => OpCode::MetricsDump,
        }
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            WireRequest::Purchase(m) => m.encode(w),
            WireRequest::Download(m) => m.encode(w),
            WireRequest::Transfer(m) => m.encode(w),
            WireRequest::PseudonymIssue(m) => m.encode(w),
            WireRequest::AttributeIssue(m) => m.encode(w),
            WireRequest::CrlSync(m) => m.encode(w),
            WireRequest::Catalog(m) => m.encode(w),
            WireRequest::LicenseStatus(m) => m.encode(w),
            WireRequest::MetricsDump(m) => m.encode(w),
        }
    }

    fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
        let body = match op {
            OpCode::Purchase => WireRequest::Purchase(decode_strict(payload)?),
            OpCode::Download => WireRequest::Download(decode_strict(payload)?),
            OpCode::Transfer => WireRequest::Transfer(decode_strict(payload)?),
            OpCode::PseudonymIssue => WireRequest::PseudonymIssue(decode_strict(payload)?),
            OpCode::AttributeIssue => WireRequest::AttributeIssue(decode_strict(payload)?),
            OpCode::CrlSync => WireRequest::CrlSync(decode_strict(payload)?),
            OpCode::Catalog => WireRequest::Catalog(decode_strict(payload)?),
            OpCode::LicenseStatus => WireRequest::LicenseStatus(decode_strict(payload)?),
            OpCode::MetricsDump => WireRequest::MetricsDump(decode_strict(payload)?),
            OpCode::Error => return Err(EnvelopeError::UnknownOpcode(OpCode::Error.byte())),
        };
        Ok(body)
    }
}

/// Every reply the service can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireResponse {
    /// Purchase succeeded: the license.
    Purchase(PurchaseResponse),
    /// Download payload.
    Download(DownloadResponse),
    /// Transfer succeeded: the reissued license.
    Transfer(TransferResponse),
    /// Blind signature over the pseudonym candidate.
    PseudonymIssue(PseudonymIssueResponse),
    /// Blind signature under the attribute key.
    AttributeIssue(AttributeIssueResponse),
    /// Full signed CRLs.
    CrlSync(CrlSync),
    /// Catalog metadata.
    Catalog(CatalogResponse),
    /// Authoritative license status.
    LicenseStatus(LicenseStatusResponse),
    /// Unified metrics snapshot + recent spans.
    MetricsDump(MetricsDumpResponse),
    /// The request failed; the code is stable, the detail advisory.
    Error(ApiError),
}

impl WireResponse {
    /// The envelope op-code for this body.
    pub fn opcode(&self) -> OpCode {
        match self {
            WireResponse::Purchase(_) => OpCode::Purchase,
            WireResponse::Download(_) => OpCode::Download,
            WireResponse::Transfer(_) => OpCode::Transfer,
            WireResponse::PseudonymIssue(_) => OpCode::PseudonymIssue,
            WireResponse::AttributeIssue(_) => OpCode::AttributeIssue,
            WireResponse::CrlSync(_) => OpCode::CrlSync,
            WireResponse::Catalog(_) => OpCode::Catalog,
            WireResponse::LicenseStatus(_) => OpCode::LicenseStatus,
            WireResponse::MetricsDump(_) => OpCode::MetricsDump,
            WireResponse::Error(_) => OpCode::Error,
        }
    }

    /// Short label for diagnostics.
    pub fn label(&self) -> &'static str {
        self.opcode().label()
    }

    /// Length of the bulk bytes this body carries — a download's
    /// ciphertext, a listing's pre-encoded snapshot — known without
    /// encoding; what [`ResponseEnvelope::to_bytes`] sizes its buffer by.
    fn bulk_len(&self) -> usize {
        match self {
            WireResponse::Download(m) => m.ciphertext.len(),
            WireResponse::Catalog(CatalogResponse {
                items: CatalogItems::Listing(listing),
            }) => listing.encoded().len(),
            _ => 0,
        }
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            WireResponse::Purchase(m) => m.encode(w),
            WireResponse::Download(m) => m.encode(w),
            WireResponse::Transfer(m) => m.encode(w),
            WireResponse::PseudonymIssue(m) => m.encode(w),
            WireResponse::AttributeIssue(m) => m.encode(w),
            WireResponse::CrlSync(m) => m.encode(w),
            WireResponse::Catalog(m) => m.encode(w),
            WireResponse::LicenseStatus(m) => m.encode(w),
            WireResponse::MetricsDump(m) => m.encode(w),
            WireResponse::Error(m) => m.encode(w),
        }
    }

    fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
        let body = match op {
            OpCode::Purchase => WireResponse::Purchase(decode_strict(payload)?),
            OpCode::Download => WireResponse::Download(decode_strict(payload)?),
            OpCode::Transfer => WireResponse::Transfer(decode_strict(payload)?),
            OpCode::PseudonymIssue => WireResponse::PseudonymIssue(decode_strict(payload)?),
            OpCode::AttributeIssue => WireResponse::AttributeIssue(decode_strict(payload)?),
            OpCode::CrlSync => WireResponse::CrlSync(decode_strict(payload)?),
            OpCode::Catalog => WireResponse::Catalog(decode_strict(payload)?),
            OpCode::LicenseStatus => WireResponse::LicenseStatus(decode_strict(payload)?),
            OpCode::MetricsDump => WireResponse::MetricsDump(decode_strict(payload)?),
            OpCode::Error => WireResponse::Error(decode_strict(payload)?),
        };
        Ok(body)
    }
}

fn decode_strict<T: Decode>(payload: &[u8]) -> Result<T, EnvelopeError> {
    p2drm_codec::from_bytes(payload).map_err(EnvelopeError::Malformed)
}

/// Why envelope bytes failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// Op-code byte undefined (or `Error` in a request).
    UnknownOpcode(u8),
    /// Header or payload failed strict decoding.
    Malformed(CodecError),
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            EnvelopeError::UnknownOpcode(b) => write!(f, "unknown op-code {b}"),
            EnvelopeError::Malformed(e) => write!(f, "malformed envelope: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<EnvelopeError> for ApiError {
    fn from(e: EnvelopeError) -> Self {
        let code = match e {
            EnvelopeError::UnsupportedVersion(_) => ApiErrorCode::UnsupportedVersion,
            EnvelopeError::UnknownOpcode(_) => ApiErrorCode::UnknownOpcode,
            EnvelopeError::Malformed(_) => ApiErrorCode::MalformedRequest,
        };
        ApiError::new(code, e.to_string())
    }
}

/// Splits envelope bytes into `(version, opcode byte, correlation,
/// payload)` without interpreting the op.
fn split_envelope(bytes: &[u8]) -> Result<(u8, u8, u64, &[u8]), EnvelopeError> {
    if bytes.len() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Malformed(CodecError::UnexpectedEof));
    }
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    let version = bytes[0];
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    let op = bytes[1];
    let correlation = read_correlation(bytes);
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    Ok((version, op, correlation, &bytes[ENVELOPE_HEADER_LEN..]))
}

/// Reads the correlation id from envelope bytes without panicking slice
/// math: the zip simply stops short on truncated input (callers that
/// care check the length first).
fn read_correlation(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(bytes.iter().skip(2)) {
        *dst = *src;
    }
    u64::from_le_bytes(word)
}

/// Best-effort correlation id extraction from (possibly malformed)
/// request bytes, so even rejected requests get a correlated reply.
pub fn correlation_hint(bytes: &[u8]) -> u64 {
    if bytes.len() >= ENVELOPE_HEADER_LEN {
        read_correlation(bytes)
    } else {
        0
    }
}

/// A framed request: correlation id + typed body. Serializes to the
/// envelope layout in the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Client-chosen id echoed in the response.
    pub correlation_id: u64,
    /// The operation.
    pub body: WireRequest,
}

impl RequestEnvelope {
    /// Serializes the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.body.opcode().byte());
        w.put_u64(self.correlation_id);
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses request bytes (exact payload consumption, version
    /// and op-code checked).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (version, op, correlation_id, payload) = split_envelope(bytes)?;
        if version != WIRE_VERSION {
            return Err(EnvelopeError::UnsupportedVersion(version));
        }
        let op = OpCode::from_byte(op).ok_or(EnvelopeError::UnknownOpcode(op))?;
        Ok(RequestEnvelope {
            correlation_id,
            body: WireRequest::decode_payload(op, payload)?,
        })
    }
}

/// A framed response: correlation id + typed body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// Echo of the request's correlation id.
    pub correlation_id: u64,
    /// The outcome.
    pub body: WireResponse,
}

impl ResponseEnvelope {
    /// Serializes the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.body.bulk_len());
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.body.opcode().byte());
        w.put_u64(self.correlation_id);
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses response bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (version, op, correlation_id, payload) = split_envelope(bytes)?;
        if version != WIRE_VERSION {
            return Err(EnvelopeError::UnsupportedVersion(version));
        }
        let op = OpCode::from_byte(op).ok_or(EnvelopeError::UnknownOpcode(op))?;
        Ok(ResponseEnvelope {
            correlation_id,
            body: WireResponse::decode_payload(op, payload)?,
        })
    }
}
