//! The stable error taxonomy carried in error responses (ranges in the
//! [module docs](super)).

use crate::CoreError;
use p2drm_codec::{CodecError, Decode, Encode, Reader, Writer};

/// Stable numeric error taxonomy carried in [`ApiError`] responses.
///
/// Codes are part of the wire contract: a variant's number never changes,
/// and new codes extend the table. Unknown codes received from a newer
/// peer decode to [`ApiErrorCode::Unrecognized`], preserving the raw
/// number. 22 and 53 are retired (no handler could raise them) and are
/// never reassigned; they too decode as `Unrecognized`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApiErrorCode {
    /// Request bytes failed to decode (truncated, trailing garbage,
    /// non-canonical encoding).
    MalformedRequest,
    /// Envelope version byte unknown to this endpoint.
    UnsupportedVersion,
    /// Envelope op-code unknown (or `Error` in a request).
    UnknownOpcode,
    /// The op exists but this endpoint does not serve it (e.g. no RA
    /// attached).
    ServiceUnavailable,
    /// Cryptographic failure other than a bad signature.
    Crypto,
    /// A signature failed to verify.
    BadSignature,
    /// Certificate invalid (issuer, structure, key type).
    Certificate,
    /// Certificate outside its validity window.
    CertificateExpired,
    /// Payment failure other than the two named below.
    Payment,
    /// Coin or balance does not cover the price.
    InsufficientFunds,
    /// Coin serial already deposited.
    DoubleSpend,
    /// Server-side storage failure.
    Storage,
    /// License signature or structure invalid.
    BadLicense,
    /// License id already redeemed/transferred (the paper's unique-ID
    /// rule).
    AlreadyRedeemed,
    /// Rights denied the requested action.
    RightsDenied,
    /// Entity revoked (card, pseudonym, license).
    Revoked,
    /// Pseudonym certificate rejected.
    BadPseudonym,
    /// Holder/authentication proof failed.
    BadProof,
    /// Smart card refused (budget, entitlement, unknown card).
    CardRefused,
    /// Evidence failed verification at the TTP.
    BadEvidence,
    /// Unknown content id.
    UnknownContent,
    /// Unknown license id.
    UnknownLicense,
    /// Authorized-domain failure.
    Domain,
    /// Big-number arithmetic failure.
    Arithmetic,
    /// Unclassified server-side failure.
    Internal,
    /// A code minted by a newer peer; the raw number is preserved.
    Unrecognized(u16),
}

impl ApiErrorCode {
    /// The stable numeric code.
    pub fn code(self) -> u16 {
        match self {
            ApiErrorCode::MalformedRequest => 1,
            ApiErrorCode::UnsupportedVersion => 2,
            ApiErrorCode::UnknownOpcode => 3,
            ApiErrorCode::ServiceUnavailable => 4,
            ApiErrorCode::Crypto => 10,
            ApiErrorCode::BadSignature => 11,
            ApiErrorCode::Certificate => 20,
            ApiErrorCode::CertificateExpired => 21,
            ApiErrorCode::Payment => 30,
            ApiErrorCode::InsufficientFunds => 31,
            ApiErrorCode::DoubleSpend => 32,
            ApiErrorCode::Storage => 40,
            ApiErrorCode::BadLicense => 50,
            ApiErrorCode::AlreadyRedeemed => 51,
            ApiErrorCode::RightsDenied => 52,
            ApiErrorCode::Revoked => 60,
            ApiErrorCode::BadPseudonym => 61,
            ApiErrorCode::BadProof => 62,
            ApiErrorCode::CardRefused => 63,
            ApiErrorCode::BadEvidence => 64,
            ApiErrorCode::UnknownContent => 70,
            ApiErrorCode::UnknownLicense => 71,
            ApiErrorCode::Domain => 80,
            ApiErrorCode::Arithmetic => 90,
            ApiErrorCode::Internal => 99,
            ApiErrorCode::Unrecognized(raw) => raw,
        }
    }

    /// Maps a wire number back to its variant (unknown numbers are
    /// preserved as [`ApiErrorCode::Unrecognized`]).
    pub fn from_code(code: u16) -> ApiErrorCode {
        match code {
            1 => ApiErrorCode::MalformedRequest,
            2 => ApiErrorCode::UnsupportedVersion,
            3 => ApiErrorCode::UnknownOpcode,
            4 => ApiErrorCode::ServiceUnavailable,
            10 => ApiErrorCode::Crypto,
            11 => ApiErrorCode::BadSignature,
            20 => ApiErrorCode::Certificate,
            21 => ApiErrorCode::CertificateExpired,
            30 => ApiErrorCode::Payment,
            31 => ApiErrorCode::InsufficientFunds,
            32 => ApiErrorCode::DoubleSpend,
            40 => ApiErrorCode::Storage,
            50 => ApiErrorCode::BadLicense,
            51 => ApiErrorCode::AlreadyRedeemed,
            52 => ApiErrorCode::RightsDenied,
            60 => ApiErrorCode::Revoked,
            61 => ApiErrorCode::BadPseudonym,
            62 => ApiErrorCode::BadProof,
            63 => ApiErrorCode::CardRefused,
            64 => ApiErrorCode::BadEvidence,
            70 => ApiErrorCode::UnknownContent,
            71 => ApiErrorCode::UnknownLicense,
            80 => ApiErrorCode::Domain,
            90 => ApiErrorCode::Arithmetic,
            99 => ApiErrorCode::Internal,
            raw => ApiErrorCode::Unrecognized(raw),
        }
    }

    /// Whether this code belongs to the payment range (a failed purchase
    /// whose coin was consumed or rejected by the mint — clients must not
    /// return such a coin to the wallet).
    pub fn is_payment(self) -> bool {
        (30..40).contains(&self.code())
    }
}

impl std::fmt::Display for ApiErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({})", self, self.code())
    }
}

impl From<&CodecError> for ApiErrorCode {
    fn from(_: &CodecError) -> Self {
        ApiErrorCode::MalformedRequest
    }
}

impl From<&p2drm_crypto::CryptoError> for ApiErrorCode {
    fn from(e: &p2drm_crypto::CryptoError) -> Self {
        match e {
            p2drm_crypto::CryptoError::BadSignature => ApiErrorCode::BadSignature,
            _ => ApiErrorCode::Crypto,
        }
    }
}

impl From<&p2drm_pki::PkiError> for ApiErrorCode {
    fn from(e: &p2drm_pki::PkiError) -> Self {
        match e {
            p2drm_pki::PkiError::Expired { .. } => ApiErrorCode::CertificateExpired,
            _ => ApiErrorCode::Certificate,
        }
    }
}

impl From<&p2drm_payment::PaymentError> for ApiErrorCode {
    fn from(e: &p2drm_payment::PaymentError) -> Self {
        match e {
            p2drm_payment::PaymentError::InsufficientFunds { .. } => {
                ApiErrorCode::InsufficientFunds
            }
            p2drm_payment::PaymentError::DoubleSpend => ApiErrorCode::DoubleSpend,
            _ => ApiErrorCode::Payment,
        }
    }
}

impl From<&p2drm_store::StoreError> for ApiErrorCode {
    fn from(_: &p2drm_store::StoreError) -> Self {
        ApiErrorCode::Storage
    }
}

impl From<&p2drm_bignum::BigError> for ApiErrorCode {
    fn from(_: &p2drm_bignum::BigError) -> Self {
        ApiErrorCode::Arithmetic
    }
}

impl From<&CoreError> for ApiErrorCode {
    fn from(e: &CoreError) -> Self {
        match e {
            CoreError::Pki(e) => e.into(),
            CoreError::Crypto(e) => e.into(),
            CoreError::Payment(e) => e.into(),
            CoreError::Store(e) => e.into(),
            CoreError::BadLicense(_) => ApiErrorCode::BadLicense,
            CoreError::AlreadyRedeemed(_) => ApiErrorCode::AlreadyRedeemed,
            CoreError::Denied(_) => ApiErrorCode::RightsDenied,
            CoreError::Revoked(_) => ApiErrorCode::Revoked,
            CoreError::BadPseudonym(_) => ApiErrorCode::BadPseudonym,
            CoreError::BadProof => ApiErrorCode::BadProof,
            CoreError::UnknownContent(_) => ApiErrorCode::UnknownContent,
            CoreError::UnknownLicense(_) => ApiErrorCode::UnknownLicense,
            CoreError::BadEvidence(_) => ApiErrorCode::BadEvidence,
            CoreError::Card(_) => ApiErrorCode::CardRefused,
        }
    }
}

/// The wire error response: a stable code plus an advisory human-readable
/// detail (the detail is **not** part of the contract; only the code is).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable numeric classification.
    pub code: ApiErrorCode,
    /// Free-text diagnosis (advisory only; may change between builds).
    pub detail: String,
    /// Backpressure hint in milliseconds: how long the sender suggests
    /// the client wait before retrying. `0` means no hint. Busy/shed
    /// responses derive this from current load, turning load shedding
    /// into cooperative degradation; recovery policies take
    /// `max(backoff, retry_after_ms)` as the pause floor.
    pub retry_after_ms: u32,
}

impl ApiError {
    /// Builds an error response (no retry hint).
    pub fn new(code: ApiErrorCode, detail: impl Into<String>) -> Self {
        ApiError {
            code,
            detail: detail.into(),
            retry_after_ms: 0,
        }
    }

    /// Attaches a backpressure hint (see [`ApiError::retry_after_ms`]).
    pub fn with_retry_after(mut self, ms: u32) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> Self {
        ApiError {
            code: (&e).into(),
            detail: e.to_string(),
            retry_after_ms: 0,
        }
    }
}

impl Encode for ApiError {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.code.code() as u32);
        w.put_str(&self.detail);
        w.put_u32(self.retry_after_ms);
    }
}

impl Decode for ApiError {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let raw = r.get_u32()?;
        if raw > u16::MAX as u32 {
            return Err(CodecError::BadLength(raw as u64));
        }
        Ok(ApiError {
            code: ApiErrorCode::from_code(raw as u16),
            detail: r.get_str()?,
            retry_after_ms: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_codes_decode_as_unrecognized_and_keep_their_number() {
        for raw in [22u16, 53] {
            let code = ApiErrorCode::from_code(raw);
            assert_eq!(code, ApiErrorCode::Unrecognized(raw));
            assert_eq!(code.code(), raw);
        }
    }
}
