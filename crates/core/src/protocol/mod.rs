//! The paper's protocols: typed messages, client sessions and the
//! RA-facing engines.
//!
//! Everything a client sends the provider is built by a **session** —
//! [`purchase::PurchaseSession`], [`transfer::TransferSession`] — a
//! state machine whose `begin` yields the request and whose `finish`
//! settles the reply on the client's own state — or by [`access::play`],
//! the one device-side call that asks for an item's ciphertext only when
//! the device does not hold it. [`crate::service::WireClient`] carries
//! the bytes between them; nothing else talks to the provider. The RA-facing rounds have
//! sessions too ([`pseudonym::PseudonymIssueSession`],
//! [`attribute::AttributeIssueSession`]), shared by the wire client and
//! by the three engines that call the RA directly and record each
//! message into a [`crate::Transcript`]: [`register`],
//! [`obtain_pseudonym`] and [`obtain_attribute`]. [`revocation`] is the
//! TTP-side abuse pipeline; [`messages`] holds every message with its
//! canonical encoding.

pub mod access;
pub mod attribute;
pub mod messages;
pub mod pseudonym;
pub mod purchase;
pub mod registration;
pub mod revocation;
pub mod transfer;

pub use attribute::obtain_attribute;
pub use pseudonym::obtain_pseudonym;
pub use registration::register;
pub use revocation::{deanonymize_and_punish, AbuseEvidence};
