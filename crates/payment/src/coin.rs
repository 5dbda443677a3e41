//! The coin: an FDH-blind-signed `(serial, denomination)` pair.

use p2drm_codec::Writer;
use p2drm_crypto::blind;
use p2drm_crypto::rsa::{RsaPublicKey, RsaSignature};

p2drm_codec::record! {
    /// An anonymous bearer coin. Its serial and signature each identify it,
    /// so its `Debug` shows only the denomination.
    #[derive(Clone, PartialEq, Eq)]
    pub struct Coin {
        /// 32-byte random serial, chosen by the withdrawer, unseen by the mint
        /// until deposit.
        pub serial: [u8; 32],
        /// Value in minor units (e.g. cents).
        pub denomination: u64,
        /// Mint blind signature over [`Coin::message_bytes`].
        pub signature: RsaSignature,
    }
}

impl std::fmt::Debug for Coin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coin")
            .field("denomination", &self.denomination)
            .finish_non_exhaustive()
    }
}

impl Coin {
    /// The bytes the mint's denomination key signs (via FDH).
    pub fn message_bytes(serial: &[u8; 32], denomination: u64) -> Vec<u8> {
        let mut w = Writer::with_capacity(48);
        w.put_raw(b"p2drm-coin-v1");
        w.put_raw(serial);
        w.put_u64(denomination);
        w.into_bytes()
    }

    /// Verifies the coin against the mint's denomination key.
    pub fn verify(&self, mint_key: &RsaPublicKey) -> bool {
        blind::verify_fdh(
            mint_key,
            &Self::message_bytes(&self.serial, self.denomination),
            &self.signature,
        )
        .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;
    use p2drm_crypto::rsa::RsaKeyPair;

    #[test]
    fn message_bytes_domain_separated() {
        let a = Coin::message_bytes(&[1; 32], 100);
        let b = Coin::message_bytes(&[1; 32], 200);
        let c = Coin::message_bytes(&[2; 32], 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with(b"p2drm-coin-v1"));
    }

    #[test]
    fn verify_rejects_forgery_and_wrong_key() {
        let mut rng = test_rng(90);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        // Forge by signing with the wrong primitive entirely.
        let serial = [9u8; 32];
        let msg = Coin::message_bytes(&serial, 100);
        let good = Coin {
            serial,
            denomination: 100,
            signature: RsaSignature::from_ubig(
                kp.raw_private(&p2drm_crypto::rsa::fdh(&msg, kp.public().modulus_len())),
            ),
        };
        assert!(good.verify(kp.public()));
        assert!(!good.verify(other.public()));

        let mut wrong_denom = good.clone();
        wrong_denom.denomination = 200;
        assert!(!wrong_denom.verify(kp.public()));
    }

    #[test]
    fn codec_roundtrip() {
        let mut rng = test_rng(91);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let serial = [3u8; 32];
        let msg = Coin::message_bytes(&serial, 500);
        let coin = Coin {
            serial,
            denomination: 500,
            signature: RsaSignature::from_ubig(
                kp.raw_private(&p2drm_crypto::rsa::fdh(&msg, kp.public().modulus_len())),
            ),
        };
        let bytes = p2drm_codec::to_bytes(&coin);
        let back: Coin = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, coin);
        assert!(back.verify(kp.public()));
        assert_eq!(format!("{coin:?}"), "Coin { denomination: 500, .. }");
    }
}
