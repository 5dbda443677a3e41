//! # P2DRM core — the paper's contribution
//!
//! This crate implements the privacy-preserving DRM architecture of
//! Conrado, Petković and Jonker (*Privacy-Preserving Digital Rights
//! Management*, SDM workshop at VLDB 2004): licenses bound to blindly
//! certified **pseudonym keys** held in smart cards, anonymous purchase
//! with e-cash, uniquely identified **anonymous licenses** whose double
//! redemption is prevented by a spent-ID store, privacy-preserving license
//! transfer, compliant-device enforcement, and **conditional anonymity**
//! via TTP identity escrow.
//!
//! ## Layout
//!
//! | Module | Contents |
//! |---|---|
//! | [`ids`] | Typed random identifiers (users, cards, devices, content, licenses) |
//! | [`content`] | Content packaging (ChaCha20) and the provider catalog |
//! | [`license`] | License structure, signing, verification |
//! | [`entities`] | RA, TTP, smart card, user agent, provider, compliant device |
//! | [`protocol`] | Client sessions (purchase, play, transfer, blind issuance), the three RA-facing engines, typed messages |
//! | [`baseline`] | Conventional identity-bound DRM (the comparator) |
//! | [`audit`] | Transcript capture: the recording transport, message counts/sizes, leak scanning |
//! | [`system`] | One-call bootstrap wiring every entity together |
//! | [`service`] | Versioned wire API: envelopes, [`service::ApiErrorCode`], `ProviderService`, `WireClient` |
//!
//! ## Quickstart
//!
//! ```
//! use p2drm_core::system::{System, SystemConfig};
//! use p2drm_crypto::rng::test_rng;
//!
//! let mut rng = test_rng(7);
//! let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);
//! let content_id = system.publish_content("Demo Track", 100, b"music bytes", &mut rng);
//!
//! // Register a user, fund them, buy anonymously, play on a device.
//! let mut alice = system.register_user("alice", &mut rng).unwrap();
//! system.fund(&alice, 1_000);
//! let license = system.purchase(&mut alice, content_id, &mut rng).unwrap();
//! let mut device = system.register_device(&mut rng).unwrap();
//! let audio = system.play(&alice, &mut device, &license, &mut rng).unwrap();
//! assert_eq!(audio, b"music bytes");
//! ```

pub mod audit;
pub mod baseline;
pub mod content;
pub mod entities;
pub mod ids;
pub mod license;
pub mod protocol;
pub mod retry;
pub mod service;
pub mod system;

pub use audit::{Party, Transcript};
pub use ids::{CardId, ContentId, DeviceId, LicenseId, UserId};
pub use license::{License, LicenseBody, LicenseRecord};

/// Errors produced by the protocol engines.
#[derive(Debug)]
pub enum CoreError {
    /// Certificate problem (issuer, expiry, signature).
    Pki(p2drm_pki::PkiError),
    /// Cryptographic failure.
    Crypto(p2drm_crypto::CryptoError),
    /// Payment failure (funds, double spend, bad coin).
    Payment(p2drm_payment::PaymentError),
    /// Storage failure.
    Store(p2drm_store::StoreError),
    /// License signature or structure invalid.
    BadLicense(&'static str),
    /// License id already redeemed/transferred (the paper's unique-ID rule).
    /// The id is for the caller to match on; the message omits it.
    AlreadyRedeemed(LicenseId),
    /// Rights denied the requested action.
    Denied(p2drm_rel::DenyReason),
    /// Entity is revoked.
    Revoked(&'static str),
    /// Pseudonym certificate rejected (stale epoch, bad signature, revoked).
    BadPseudonym(&'static str),
    /// Holder proof (challenge-response) failed.
    BadProof,
    /// Unknown content id.
    UnknownContent(ContentId),
    /// Unknown license id (omitted from the message, as above).
    UnknownLicense(LicenseId),
    /// Evidence presented to the TTP failed verification.
    BadEvidence(&'static str),
    /// Smart card refused (budget, unknown pseudonym, revoked).
    Card(&'static str),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Pki(e) => write!(f, "pki: {e}"),
            CoreError::Crypto(e) => write!(f, "crypto: {e}"),
            CoreError::Payment(e) => write!(f, "payment: {e}"),
            CoreError::Store(e) => write!(f, "store: {e}"),
            CoreError::BadLicense(m) => write!(f, "bad license: {m}"),
            CoreError::AlreadyRedeemed(_) => write!(f, "license already redeemed"),
            CoreError::Denied(r) => write!(f, "denied: {r}"),
            CoreError::Revoked(what) => write!(f, "revoked: {what}"),
            CoreError::BadPseudonym(m) => write!(f, "pseudonym rejected: {m}"),
            CoreError::BadProof => write!(f, "holder proof failed"),
            CoreError::UnknownContent(id) => write!(f, "unknown content {id}"),
            CoreError::UnknownLicense(_) => write!(f, "unknown license"),
            CoreError::BadEvidence(m) => write!(f, "evidence rejected: {m}"),
            CoreError::Card(m) => write!(f, "smart card refused: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<p2drm_pki::PkiError> for CoreError {
    fn from(e: p2drm_pki::PkiError) -> Self {
        CoreError::Pki(e)
    }
}

impl From<p2drm_crypto::CryptoError> for CoreError {
    fn from(e: p2drm_crypto::CryptoError) -> Self {
        CoreError::Crypto(e)
    }
}

impl From<p2drm_payment::PaymentError> for CoreError {
    fn from(e: p2drm_payment::PaymentError) -> Self {
        CoreError::Payment(e)
    }
}

impl From<p2drm_store::StoreError> for CoreError {
    fn from(e: p2drm_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}
