//! Protocol principals.
//!
//! Each entity owns its key material privately; everything another party
//! may learn flows through a method return value, which is what makes the
//! transcript-based privacy audits meaningful.

pub mod device;
pub mod provider;
pub mod ra;
pub mod smartcard;
#[cfg(test)]
mod smartcard_tests;
pub mod ttp;
pub mod user;

pub use device::CompliantDevice;
pub use provider::{ContentProvider, MemBackend, ProviderConfig};
pub use ra::RegistrationAuthority;
pub use smartcard::{CardBudget, SmartCard};
pub use ttp::{DeanonymizationRecord, Ttp};
pub use user::{OwnedLicense, PseudonymPolicy, UserAgent};
