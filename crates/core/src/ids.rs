//! Typed random identifiers.
//!
//! Every identifier is 16 bytes — unguessable, collision-free at
//! simulation scale, and *meaningless*: an id carries no information about
//! who created it, which is a privacy requirement for [`LicenseId`] in
//! particular (the paper's anonymous licenses are identified solely by a
//! unique id). License ids are a hash of the request that issued them
//! (see [`crate::entities::provider`]), so a re-sent request names the
//! same license; the rest are random.
//!
//! # Linkable ids reach no telemetry
//!
//! A [`CardId`] or a [`LicenseId`] seen in two places links them: a card
//! to its purchases, a license to its holder's plays. Neither has
//! `Display` or a hex rendering, and their `Debug` prints only the type's
//! name (`LicenseId(..)`), so no error text, log line or formatted label
//! carries one. Metric names ([`p2drm_obs::SnapshotBuilder`],
//! [`p2drm_obs::Registry`]) and span stages ([`p2drm_obs::stage`]) are
//! `&'static str`, so no id, nor anything computed from one at run time,
//! can become a name. [`ContentId`], [`DeviceId`] and [`UserId`] keep a
//! short `Display` (`content:1a2b3c4d5e6f`): a catalogue item names no
//! buyer, a device id is shown only to its owner, and a user id is the
//! RA's to know.
//!
//! None of these compile. A card id as a metric name:
//!
//! ```compile_fail,E0308
//! use p2drm_core::CardId;
//! use p2drm_obs::SnapshotBuilder;
//!
//! fn record_purchase(card_id: CardId, snapshot: &mut SnapshotBuilder) {
//!     snapshot.counter(card_id, 1);
//! }
//! ```
//!
//! A bucket computed from one:
//!
//! ```compile_fail,E0369
//! use p2drm_core::CardId;
//! use p2drm_obs::SnapshotBuilder;
//!
//! fn record_purchase(card_id: CardId, snapshot: &mut SnapshotBuilder) {
//!     let bucket = card_id % 16;
//!     snapshot.gauge(bucket, 1);
//! }
//! ```
//!
//! A formatted license id as a span stage:
//!
//! ```compile_fail,E0597
//! use p2drm_core::LicenseId;
//!
//! fn record_play(license_id: LicenseId) {
//!     let tag = format!("{license_id:?}");
//!     let _timer = p2drm_obs::stage(&tag);
//! }
//! ```
//!
//! The same instrumentation with static names, counts and durations
//! compiles, and the id still does its business:
//!
//! ```
//! use p2drm_core::CardId;
//! use p2drm_obs::SnapshotBuilder;
//! use std::collections::HashMap;
//!
//! fn record_purchase(card_id: CardId, spent: &mut HashMap<CardId, u64>, snapshot: &mut SnapshotBuilder) {
//!     let _timer = p2drm_obs::stage("mint_deposit");
//!     *spent.entry(card_id).or_default() += 1;
//!     snapshot.counter("service_purchases", 1);
//!     snapshot.gauge("queue_depth", spent.len() as i64);
//! }
//!
//! let (mut spent, mut snapshot) = (HashMap::new(), SnapshotBuilder::new());
//! record_purchase(CardId::from_label("card"), &mut spent, &mut snapshot);
//! let snapshot = snapshot.finish();
//! assert_eq!(snapshot.counter("service_purchases"), Some(1));
//! assert_eq!(snapshot.gauge("queue_depth"), Some(1));
//! ```

use p2drm_crypto::rng::CryptoRng;

/// The id and its codec; `Display` and `Debug` come from the caller:
/// a printable id's or a redacted one's.
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        p2drm_codec::record! {
            $(#[$doc])*
            #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
            pub struct $name(pub [u8; 16]);
        }

        impl $name {
            /// Generates a fresh random id.
            pub fn random<R: CryptoRng + ?Sized>(rng: &mut R) -> Self {
                let mut b = [0u8; 16];
                rng.fill_bytes(&mut b);
                $name(b)
            }

            /// Deterministic id from a label (tests and fixtures).
            pub fn from_label(label: &str) -> Self {
                let digest = p2drm_crypto::sha256::sha256_concat(&[
                    $tag.as_bytes(),
                    label.as_bytes(),
                ]);
                $name(digest[..16].try_into().unwrap())
            }

            /// The raw bytes.
            pub fn as_bytes(&self) -> &[u8; 16] {
                &self.0
            }
        }
    };
}

/// A printable id: `Display` and `Debug` give the tag and the first six
/// bytes in hex.
macro_rules! printable_id {
    ($name:ident, $tag:literal) => {
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}:", $tag)?;
                self.0[..6].iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{self}")
            }
        }
    };
}

/// A linkable id: no `Display` and no hex rendering, and a `Debug` that
/// prints only the type's name, so the id reaches no log, error text or
/// metric name.
macro_rules! redacted_id {
    ($name:ident) => {
        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(concat!(stringify!($name), "(..)"))
            }
        }
    };
}

define_id!(
    /// A real-world user identity (known to the RA, escrowed to the TTP,
    /// and — in the privacy-preserving flow — *never* sent to providers).
    UserId,
    "user"
);
printable_id!(UserId, "user");
define_id!(
    /// A smart card. Linkable: redacted in `Debug`, with no `Display`.
    CardId,
    "card"
);
redacted_id!(CardId);
define_id!(
    /// A compliant device.
    DeviceId,
    "dev"
);
printable_id!(DeviceId, "dev");
define_id!(
    /// A content item in a provider's catalog.
    ContentId,
    "content"
);
printable_id!(ContentId, "content");
define_id!(
    /// A license. Unique per issuance; the spent-ID store keyed by this id
    /// is what makes anonymous licenses single-redeemable. Linkable:
    /// redacted in `Debug`, with no `Display`.
    LicenseId,
    "lic"
);
redacted_id!(LicenseId);

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn random_ids_distinct() {
        let mut rng = test_rng(1);
        let a = LicenseId::random(&mut rng);
        let b = LicenseId::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn labeled_ids_deterministic_and_tag_separated() {
        assert_eq!(UserId::from_label("alice"), UserId::from_label("alice"));
        assert_ne!(UserId::from_label("alice"), UserId::from_label("bob"));
        // Same label, different type => different bytes (tag separation).
        assert_ne!(UserId::from_label("x").0, CardId::from_label("x").0);
    }

    #[test]
    fn display_is_short_and_tagged() {
        let id = ContentId::from_label("song");
        let s = id.to_string();
        assert!(s.starts_with("content:"));
        assert_eq!(s.len(), "content:".len() + 12);
        assert_eq!(format!("{id:?}"), s);
    }

    #[test]
    fn linkable_ids_are_redacted() {
        let license = LicenseId::from_label("song");
        assert_eq!(format!("{license:?}"), "LicenseId(..)");
        assert_eq!(format!("{:?}", CardId::from_label("card")), "CardId(..)");
    }

    #[test]
    fn codec_roundtrip() {
        let id = DeviceId::from_label("tv");
        let bytes = p2drm_codec::to_bytes(&id);
        assert_eq!(bytes.len(), 16);
        assert_eq!(p2drm_codec::from_bytes::<DeviceId>(&bytes).unwrap(), id);
    }
}
