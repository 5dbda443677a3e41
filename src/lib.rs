//! # p2drm — Privacy-Preserving Digital Rights Management
//!
//! A from-scratch Rust reproduction of the VLDB-2004 (SDM workshop)
//! protocol paper *Privacy-Preserving Digital Rights Management* (Conrado,
//! Petković, Jonker): DRM in which licenses bind to blindly certified
//! **pseudonym keys** instead of identities, purchases are paid with
//! anonymous e-cash, anonymous licenses carry unique ids that can be
//! redeemed exactly once, and anonymity is conditionally revocable via a
//! TTP identity escrow.
//!
//! The license server is a **shared-state concurrent service**: an
//! immutable `ProviderCore` (keys, certificate, trust anchors) plus a
//! `ProviderState` of individually locked tables over a lock-sharded KV,
//! so purchase, play, transfer and CRL sync are all callable through
//! `&self` from many threads at once — see
//! [`core::entities::provider`] for the locking layout. The same paths
//! are servable at the **byte level** through the versioned wire API in
//! [`core::service`]: a tagged envelope (version, op-code, correlation
//! id, payload), a `ProviderService` whose single entry point is
//! `handle(&self, &[u8]) -> Vec<u8>`, stable numeric error codes, and a
//! typed `WireClient` running the multi-round flows as session state
//! machines.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`bignum`] | `p2drm-bignum` | arbitrary-precision + Montgomery arithmetic |
//! | [`codec`] | `p2drm-codec` | canonical binary encoding, CRC32 |
//! | [`crypto`] | `p2drm-crypto` | SHA-256, ChaCha20, HMAC, RSA, blind signatures, ElGamal |
//! | [`pki`] | `p2drm-pki` | certificates, authorities, CRLs |
//! | [`rel`] | `p2drm-rel` | rights expression language + enforcement |
//! | [`store`] | `p2drm-store` | one `ConcurrentKv` trait over `MemKv` (volatile) and `WalShardedKv` (WAL, group commit, crash recovery) |
//! | [`payment`] | `p2drm-payment` | Chaum e-cash + identified baseline |
//! | [`core`] | `p2drm-core` | **the paper's protocols**, concurrent provider + system bootstrap |
//! | [`core::service`] | `p2drm-core` | **the wire API**: versioned envelopes, `ApiErrorCode`, `ProviderService`, `WireClient` |
//! | [`net`] | `p2drm-net` | **the TCP layer**: framed `DrmServer` + worker pool, `TcpTransport`, server metrics |
//! | [`obs`] | `p2drm-obs` | **observability**: metrics registry, latency histograms, correlation-id tracing |
//! | [`faults`] | `p2drm-faults` | **fault injection**: seeded `FaultPlan`, transport and store wrappers, torn WAL tails |
//!
//! ## Quickstart
//!
//! ```
//! use p2drm::core::system::{System, SystemConfig};
//! use p2drm::crypto::rng::test_rng;
//!
//! let mut rng = test_rng(42);
//! let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);
//! let song = system.publish_content("Song", 100, b"audio bytes", &mut rng);
//!
//! let mut alice = system.register_user("alice", &mut rng).unwrap();
//! system.fund(&alice, 1_000);
//!
//! // Anonymous purchase: the provider sees a pseudonym, a coin, nothing else.
//! let license = system.purchase(&mut alice, song, &mut rng).unwrap();
//!
//! // Compliant-device playback with rights enforcement.
//! let mut player = system.register_device(&mut rng).unwrap();
//! let audio = system.play(&alice, &mut player, &license, &mut rng).unwrap();
//! assert_eq!(audio, b"audio bytes");
//! ```
//!
//! See `examples/` for full scenarios (music store, second-hand transfer
//! market, abuse de-anonymization) and `tests/paper_tables.rs` for the
//! paper's protocol figures and tables as assertions.

pub use p2drm_bignum as bignum;
pub use p2drm_codec as codec;
pub use p2drm_core as core;
pub use p2drm_crypto as crypto;
pub use p2drm_faults as faults;
pub use p2drm_net as net;
pub use p2drm_obs as obs;
pub use p2drm_payment as payment;
pub use p2drm_pki as pki;
pub use p2drm_rel as rel;
pub use p2drm_store as store;

/// Convenience prelude with the types most applications touch.
pub mod prelude {
    pub use p2drm_core::entities::user::{PseudonymPolicy, UserAgent};
    pub use p2drm_core::entities::{CompliantDevice, ContentProvider};
    pub use p2drm_core::service::{ApiErrorCode, WireError};
    pub use p2drm_core::system::{System, SystemConfig};
    pub use p2drm_core::{ContentId, CoreError, License, LicenseId, Transcript, UserId};
    pub use p2drm_crypto::rng::{os_rng, test_rng};
    pub use p2drm_rel::{AccessRequest, Action, Decision, Limit, Rights};
}
