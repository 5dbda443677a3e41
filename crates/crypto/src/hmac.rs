//! HMAC-SHA-256 (RFC 2104), checked against RFC 4231 test vectors.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer key pad, applied at finalization.
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Initializes with `key` (any length; long keys are hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        // Only the key length is branched on and bounds the copy, never
        // its bytes.
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes, returning the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Verifies `tag` in constant time over the tag bytes.
    pub fn verify(self, tag: &[u8]) -> bool {
        crate::ct_eq(&self.finalize(), tag)
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_repeated_bytes() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // Key longer than the block size must be hashed first.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let data = b"split into several update calls";
        let mut h = HmacSha256::new(key);
        h.update(&data[..5]);
        h.update(&data[5..20]);
        h.update(&data[20..]);
        assert_eq!(h.finalize(), hmac_sha256(key, data));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        let mut h = HmacSha256::new(b"k");
        h.update(b"m");
        assert!(h.verify(&tag));
        let mut h = HmacSha256::new(b"k");
        h.update(b"m2");
        assert!(!h.verify(&tag));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
