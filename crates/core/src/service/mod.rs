//! The versioned wire API: a byte-level request/response layer over the
//! provider and registration authority.
//!
//! The paper's protocols are *message exchanges*: a user's device and
//! the provider/RA interoperate only through serialized messages, never
//! shared memory. This module is that boundary, and the only way to the
//! provider — [`crate::system::System`] itself purchases, plays and
//! transfers through a [`WireClient`] over [`Loopback`]. Every operation
//! a remote party can invoke travels as one tagged envelope:
//!
//! | offset | field | encoding |
//! |---|---|---|
//! | 0 | version | `u8`, currently [`WIRE_VERSION`] = 1 |
//! | 1 | op-code | `u8`, see [`OpCode`] |
//! | 2 | correlation id | `u64` little-endian, echoed verbatim in the response |
//! | 10 | payload | the op's canonical message encoding, consuming the rest exactly |
//!
//! Requests decode with strict [`p2drm_codec::from_bytes`] semantics:
//! trailing bytes, non-canonical varints and redundant integer padding are
//! all rejected. A malformed, truncated or unknown-version request yields
//! a well-formed [`WireResponse::Error`] — never a panic.
//!
//! # Error taxonomy
//!
//! The workspace's ten per-crate error enums are unified behind the
//! stable numeric [`ApiErrorCode`] carried in error responses, so
//! internal refactors cannot leak unstably onto the wire:
//!
//! | range | meaning |
//! |---|---|
//! | 1–9 | envelope: malformed, unsupported version, unknown op, unavailable |
//! | 10–19 | cryptography (`CryptoError`) |
//! | 20–29 | certificates (`PkiError`); 22 retired |
//! | 30–39 | payment (`PaymentError`) |
//! | 40–49 | storage (`StoreError`) |
//! | 50–59 | licenses and rights (`BadLicense`, `AlreadyRedeemed`, REL); 53 retired |
//! | 60–69 | identity and proofs (revocation, pseudonyms, cards, evidence) |
//! | 70–79 | lookups (unknown content / license) |
//! | 80–89 | authorized-domain extension (`DomainError`) |
//! | 90–98 | big-number arithmetic (`BigError`) |
//! | 99 | internal |
//!
//! # Serving and calling
//!
//! [`ProviderService`] is the server: one entry point,
//! [`ProviderService::handle`]`(&self, &[u8]) -> Vec<u8>`, shared by N
//! threads — it decodes, dispatches onto the `&self` concurrent
//! [`ContentProvider`]/[`RegistrationAuthority`] paths (generic over the
//! store backend, so it serves `MemBackend` and `WalShardedKv` alike) and
//! encodes the reply. [`WireClient`] is the typed caller: it frames
//! envelopes over a [`Transport`] (the in-proc [`Loopback`] is provided)
//! and runs the multi-round flows as the session state machines of
//! [`crate::protocol`] ([`PurchaseSession`], [`PlaySession`],
//! [`TransferSession`], [`PseudonymIssueSession`],
//! [`AttributeIssueSession`]), re-exported here.
//!
//! [`ContentProvider`]: crate::entities::provider::ContentProvider
//! [`RegistrationAuthority`]: crate::entities::ra::RegistrationAuthority
//!
//! ```
//! use p2drm_core::service::{Loopback, WireClient};
//! use p2drm_core::system::{System, SystemConfig};
//! use p2drm_crypto::rng::test_rng;
//!
//! let mut rng = test_rng(7);
//! let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
//! let cid = sys.publish_content("Track", 100, b"bits", &mut rng);
//! let mut alice = sys.register_user("alice", &mut rng).unwrap();
//! sys.fund(&alice, 500);
//! let mut device = sys.register_device(&mut rng).unwrap();
//!
//! let service = sys.wire_service(0xC0FFEE);
//! let mut client = WireClient::new(Loopback::new(&service));
//! client
//!     .obtain_pseudonym(&mut alice, sys.ra.blind_public(), sys.ttp.escrow_key(), &mut rng)
//!     .unwrap();
//! let license = client.purchase(&mut alice, &sys.mint, cid, &mut rng).unwrap();
//! let audio = client.play(&alice, &mut device, &license, &mut rng).unwrap();
//! assert_eq!(audio, b"bits");
//! ```

mod client;
mod envelope;
mod error;
mod recovery;
mod server;
mod transport;

pub use crate::protocol::access::PlaySession;
pub use crate::protocol::attribute::AttributeIssueSession;
pub use crate::protocol::pseudonym::PseudonymIssueSession;
pub use crate::protocol::purchase::PurchaseSession;
pub use crate::protocol::transfer::TransferSession;
pub use client::{WireClient, WireError};
pub use envelope::{
    correlation_hint, EnvelopeError, OpCode, RequestEnvelope, ResponseEnvelope, WireRequest,
    WireResponse, ENVELOPE_HEADER_LEN, WIRE_VERSION,
};
pub use error::{ApiError, ApiErrorCode};
pub use recovery::{Recovery, RecoveryMetrics};
pub use server::{snapshot_from_dump, ProviderService};
pub use transport::{Loopback, Transport, TransportError};
