//! Typed random identifiers.
//!
//! Every identifier is 16 bytes — unguessable, collision-free at
//! simulation scale, and *meaningless*: an id carries no information about
//! who created it, which is a privacy requirement for [`LicenseId`] in
//! particular (the paper's anonymous licenses are identified solely by a
//! unique id). License ids are a hash of the request that issued them
//! (see [`crate::entities::provider`]), so a re-sent request names the
//! same license; the rest are random.

use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::rng::CryptoRng;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub [u8; 16]);

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

            /// Full hex rendering.
            pub fn to_hex(&self) -> String {
                self.0.iter().map(|b| format!("{b:02x}")).collect()
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Short form: tag + first 6 bytes.
                write!(f, "{}:{}", $tag, &self.to_hex()[..12])
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{self}")
            }
        }

        impl Encode for $name {
            fn encode(&self, w: &mut Writer) {
                w.put_raw(&self.0);
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
                Ok($name(r.get_raw(16)?.try_into().expect("fixed width")))
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
define_id!(
    /// A smart card.
    CardId,
    "card"
);
define_id!(
    /// A compliant device.
    DeviceId,
    "dev"
);
define_id!(
    /// A content item in a provider's catalog.
    ContentId,
    "content"
);
define_id!(
    /// A license. Unique per issuance; the spent-ID store keyed by this id
    /// is what makes anonymous licenses single-redeemable.
    LicenseId,
    "lic"
);

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
        assert!(s.len() < 24);
        assert_eq!(id.to_hex().len(), 32);
    }

    #[test]
    fn codec_roundtrip() {
        let id = DeviceId::from_label("tv");
        let bytes = p2drm_codec::to_bytes(&id);
        assert_eq!(bytes.len(), 16);
        assert_eq!(p2drm_codec::from_bytes::<DeviceId>(&bytes).unwrap(), id);
    }
}
