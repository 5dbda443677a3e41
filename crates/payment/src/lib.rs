//! Anonymous payment substrate for P2DRM.
//!
//! The paper's anonymous purchase protocol assumes "an anonymous payment
//! system" exists; this crate builds one from the same blind-signature
//! primitive that powers pseudonym certification (Chaum e-cash):
//!
//! * [`Mint`] — issues coins blindly per denomination (it debits an
//!   *account* at withdrawal but never sees the coin serial), and detects
//!   double spends at deposit through the spent-serial store;
//! * [`Wallet`] — user side: withdraws, holds, and spends coins;
//! * [`Coin`] — `(serial, denomination, FDH blind signature)`;
//! * [`identified`] — the baseline: a conventional account charge that
//!   reveals the payer to the merchant, used by the non-private DRM
//!   comparator in every benchmark.
//!
//! Unlinkability property: the mint sees `(account, blinded-bytes)` at
//! withdrawal and `(serial, signature)` at deposit, and the two are
//! cryptographically unlinkable — `mint`'s tests check that the serial
//! is nowhere in the withdrawal request. The mint keeps no withdrawal
//! transcript at all: only balances, a count and the spent serials.

#![forbid(unsafe_code)]

pub mod coin;
pub mod identified;
pub mod mint;
pub mod wallet;

pub use coin::Coin;
pub use mint::{Mint, MintConfig};
pub use wallet::Wallet;

/// Payment failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaymentError {
    /// Account has insufficient balance at withdrawal.
    InsufficientFunds {
        /// Account balance found.
        balance: u64,
        /// Amount requested.
        requested: u64,
    },
    /// Coin signature invalid or denomination unknown.
    BadCoin,
    /// Serial already deposited.
    DoubleSpend,
    /// Unknown account.
    UnknownAccount,
    /// Unknown denomination requested.
    UnknownDenomination(u64),
    /// Underlying crypto failure.
    Crypto(p2drm_crypto::CryptoError),
    /// Storage failure (spent-serial store).
    Store(String),
}

impl std::fmt::Display for PaymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaymentError::InsufficientFunds { balance, requested } => {
                write!(f, "insufficient funds: have {balance}, need {requested}")
            }
            PaymentError::BadCoin => write!(f, "coin failed verification"),
            PaymentError::DoubleSpend => write!(f, "coin serial already spent"),
            PaymentError::UnknownAccount => write!(f, "unknown account"),
            PaymentError::UnknownDenomination(d) => write!(f, "no key for denomination {d}"),
            PaymentError::Crypto(e) => write!(f, "crypto: {e}"),
            PaymentError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for PaymentError {}

impl From<p2drm_crypto::CryptoError> for PaymentError {
    fn from(e: p2drm_crypto::CryptoError) -> Self {
        PaymentError::Crypto(e)
    }
}

impl From<p2drm_store::StoreError> for PaymentError {
    fn from(e: p2drm_store::StoreError) -> Self {
        PaymentError::Store(e.to_string())
    }
}
