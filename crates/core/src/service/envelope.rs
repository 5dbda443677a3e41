//! The envelope: op-codes, typed request/response bodies and their
//! framing (layout in the [module docs](super)).

use super::client::WireError;
use super::error::{ApiError, ApiErrorCode};
use crate::audit::Party;
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
// The op table
// ---------------------------------------------------------------------------

/// Writes everything that differs between ops only by name and type from
/// the one table below: [`OpCode`] (`byte`, `from_byte`, `label`, the
/// latency histogram's name, who sends the request to whom),
/// [`OPCODE_COUNT`], [`WireRequest`] and [`WireResponse`] with their
/// payload codecs, and each request body's [`Exchange`] (the reply body
/// it expects).
macro_rules! wire_ops {
    (
        $(#[$edoc:meta])*
        Error = $ebyte:literal, $elabel:literal, $ehist:literal,
            $efrom:ident -> $eto:ident, reply $ebody:ty;
        $(
            $(#[$doc:meta])*
            $op:ident = $byte:literal, $label:literal, $hist:literal,
                $from:ident -> $to:ident, $req:ty => $resp:ty;
        )*
    ) => {
        /// Operation tag carried in envelope byte 1.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum OpCode {
            $(#[$edoc])*
            Error = $ebyte,
            $($(#[$doc])* $op = $byte,)*
        }

        /// Number of defined op-codes (contiguous from 0).
        pub(crate) const OPCODE_COUNT: usize = [$ebyte, $($byte),*].len();

        impl OpCode {
            /// The wire byte.
            pub fn byte(self) -> u8 {
                self as u8
            }

            /// Parses a wire byte.
            pub fn from_byte(b: u8) -> Option<OpCode> {
                match b {
                    $ebyte => Some(OpCode::Error),
                    $($byte => Some(OpCode::$op),)*
                    _ => None,
                }
            }

            /// Short static label for diagnostics, span names and metric
            /// names.
            pub fn label(self) -> &'static str {
                match self {
                    OpCode::Error => $elabel,
                    $(OpCode::$op => $label,)*
                }
            }

            /// Name of the op's request-latency histogram. Names are
            /// static strings by construction — the privacy rule for
            /// every metric in this workspace (no pseudonyms, card ids,
            /// license ids or coin serials in telemetry).
            pub(crate) fn histogram(self) -> &'static str {
                match self {
                    OpCode::Error => $ehist,
                    $(OpCode::$op => $hist,)*
                }
            }

            /// Who sends the op's request to whom; the reply travels the
            /// pair reversed.
            pub(crate) fn parties(self) -> (Party, Party) {
                match self {
                    OpCode::Error => (Party::$efrom, Party::$eto),
                    $(OpCode::$op => (Party::$from, Party::$to),)*
                }
            }
        }

        /// Every operation a remote party can request, as a typed message.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum WireRequest {
            $($(#[$doc])* $op($req),)*
        }

        impl WireRequest {
            /// The envelope op-code for this body.
            pub fn opcode(&self) -> OpCode {
                match self {
                    $(WireRequest::$op(_) => OpCode::$op,)*
                }
            }

            fn encode_payload(&self, w: &mut Writer) {
                match self {
                    $(WireRequest::$op(m) => m.encode(w),)*
                }
            }

            fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
                Ok(match op {
                    OpCode::Error => return Err(EnvelopeError::UnknownOpcode(op.byte())),
                    $(OpCode::$op => WireRequest::$op(decode_strict(payload)?),)*
                })
            }
        }

        /// Every reply the service can produce.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum WireResponse {
            $($(#[$doc])* $op($resp),)*
            $(#[$edoc])*
            Error($ebody),
        }

        impl WireResponse {
            /// The envelope op-code for this body.
            pub fn opcode(&self) -> OpCode {
                match self {
                    $(WireResponse::$op(_) => OpCode::$op,)*
                    WireResponse::Error(_) => OpCode::Error,
                }
            }

            fn encode_payload(&self, w: &mut Writer) {
                match self {
                    $(WireResponse::$op(m) => m.encode(w),)*
                    WireResponse::Error(m) => m.encode(w),
                }
            }

            fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
                Ok(match op {
                    $(OpCode::$op => WireResponse::$op(decode_strict(payload)?),)*
                    OpCode::Error => WireResponse::Error(decode_strict(payload)?),
                })
            }
        }

        $(
            impl From<$req> for WireRequest {
                fn from(m: $req) -> Self {
                    WireRequest::$op(m)
                }
            }

            impl Exchange for $req {
                type Reply = $resp;

                fn reply(response: WireResponse) -> Result<$resp, WireError> {
                    match response {
                        WireResponse::$op(m) => Ok(m),
                        WireResponse::Error(e) => Err(WireError::Api(e)),
                        other => Err(WireError::UnexpectedResponse {
                            expected: $label,
                            got: other.label(),
                        }),
                    }
                }
            }
        )*
    };
}

wire_ops! {
    /// An error response: the request failed; the code is stable, the
    /// detail advisory. Rejected in requests.
    Error = 0, "error", "service_error_ns", User -> Provider, reply ApiError;
    /// Anonymous purchase.
    Purchase = 1, "purchase", "service_purchase_ns",
        User -> Provider, PurchaseRequest => PurchaseResponse;
    /// Anonymous content download (the remote half of play).
    Download = 2, "download", "service_download_ns",
        Device -> Provider, DownloadRequest => DownloadResponse;
    /// Privacy-preserving transfer.
    Transfer = 3, "transfer", "service_transfer_ns",
        User -> Provider, TransferRequest => TransferResponse;
    /// Blind pseudonym issuance (RA).
    PseudonymIssue = 4, "pseudonym-issue", "service_pseudonym_issue_ns",
        Card -> Ra, PseudonymIssueRequest => PseudonymIssueResponse;
    /// Blind attribute issuance (RA).
    AttributeIssue = 5, "attribute-issue", "service_attribute_issue_ns",
        Card -> Ra, AttributeIssueRequest => AttributeIssueResponse;
    /// CRL synchronization: both full signed lists.
    CrlSync = 6, "crl-sync", "service_crl_sync_ns",
        Device -> Provider, CrlSyncRequest => CrlSync;
    /// Catalog lookup / listing.
    Catalog = 7, "catalog", "service_catalog_ns",
        User -> Provider, CatalogRequest => CatalogResponse;
    /// License-status query.
    LicenseStatus = 8, "license-status", "service_license_status_ns",
        User -> Provider, LicenseStatusRequest => LicenseStatusResponse;
    /// Unified metrics snapshot + recent spans (operator op; off unless
    /// the provider opts in via `ProviderConfig::metrics_dump`).
    MetricsDump = 9, "metrics-dump", "service_metrics_dump_ns",
        User -> Provider, MetricsDumpRequest => MetricsDumpResponse;
}

/// A request body, and the reply body its op answers with (the op
/// table's last column): what a typed client call expects back.
pub(crate) trait Exchange: Into<WireRequest> {
    /// The reply body.
    type Reply;

    /// The reply body `response` carries: an error response is the
    /// service's [`WireError::Api`], another op's body
    /// [`WireError::UnexpectedResponse`].
    fn reply(response: WireResponse) -> Result<Self::Reply, WireError>;
}

impl WireResponse {
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

/// A writer holding an envelope's header, with room for 64 payload
/// bytes beyond `bulk_len`.
fn header(op: OpCode, correlation_id: u64, bulk_len: usize) -> Writer {
    let mut w = Writer::with_capacity(64 + bulk_len);
    w.put_u8(WIRE_VERSION);
    w.put_u8(op.byte());
    w.put_u64(correlation_id);
    w
}

/// Splits envelope bytes into `(op, correlation, payload)`, checking
/// the version and the op byte.
fn split_envelope(bytes: &[u8]) -> Result<(OpCode, u64, &[u8]), EnvelopeError> {
    if bytes.len() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Malformed(CodecError::UnexpectedEof));
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "length checked against ENVELOPE_HEADER_LEN above"
    )]
    let version = bytes[0];
    #[expect(
        clippy::indexing_slicing,
        reason = "length checked against ENVELOPE_HEADER_LEN above"
    )]
    let op = bytes[1];
    if version != WIRE_VERSION {
        return Err(EnvelopeError::UnsupportedVersion(version));
    }
    let op = OpCode::from_byte(op).ok_or(EnvelopeError::UnknownOpcode(op))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "length checked against ENVELOPE_HEADER_LEN above"
    )]
    Ok((op, read_correlation(bytes), &bytes[ENVELOPE_HEADER_LEN..]))
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
        let mut w = header(self.body.opcode(), self.correlation_id, 0);
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses request bytes (exact payload consumption, version
    /// and op-code checked).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (op, correlation_id, payload) = split_envelope(bytes)?;
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
        let mut w = header(
            self.body.opcode(),
            self.correlation_id,
            self.body.bulk_len(),
        );
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses response bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (op, correlation_id, payload) = split_envelope(bytes)?;
        Ok(ResponseEnvelope {
            correlation_id,
            body: WireResponse::decode_payload(op, payload)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op table's invariants: every byte parses to nothing or to the
    /// op that writes it, the defined bytes are `0..OPCODE_COUNT` (the
    /// server indexes its histograms by byte), labels are distinct, and
    /// each op's histogram is named after its label, as dashboards read
    /// them (`service_purchase_ns`, `service_catalog_ns`, …).
    #[test]
    fn op_table_invariants() {
        for b in 0..=u8::MAX {
            if let Some(op) = OpCode::from_byte(b) {
                assert_eq!(op.byte(), b);
            }
        }
        let ops: Vec<OpCode> = (0..=u8::MAX).map_while(OpCode::from_byte).collect();
        assert_eq!(ops.len(), OPCODE_COUNT);
        assert!((OPCODE_COUNT..=255).all(|b| OpCode::from_byte(b as u8).is_none()));
        let labels: std::collections::HashSet<_> = ops.iter().map(|op| op.label()).collect();
        assert_eq!(labels.len(), OPCODE_COUNT);
        for op in ops {
            let expected = format!("service_{}_ns", op.label().replace('-', "_"));
            assert_eq!(op.histogram(), expected);
        }
        assert_eq!(OpCode::Purchase.histogram(), "service_purchase_ns");
        assert_eq!(OpCode::Catalog.histogram(), "service_catalog_ns");
    }
}
