//! Revocation lists.
//!
//! The paper's double-redemption and abuse-revocation mechanisms make
//! revocation checks the hottest read path in a provider/device.
//! [`RevocationList`] is a sorted vector with binary search (`O(log n)`,
//! exact); [`SignedCrl`] is the issuer-signed, sequence-numbered envelope
//! a device syncs.

use crate::cert::KeyId;
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::rsa::{RsaPublicKey, RsaSignature};

/// Exact revocation list: sorted ids, binary-searched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevocationList {
    ids: Vec<KeyId>,
}

impl RevocationList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from arbitrary-order ids (sorts and dedups).
    pub fn from_ids(mut ids: Vec<KeyId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        RevocationList { ids }
    }

    /// Adds an id (keeps order; no-op when present).
    pub fn insert(&mut self, id: KeyId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Exact membership test.
    pub fn contains(&self, id: &KeyId) -> bool {
        self.ids.binary_search(id).is_ok()
    }

    /// Number of revoked ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is revoked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates ids in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &KeyId> {
        self.ids.iter()
    }
}

impl Encode for RevocationList {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.ids);
    }
}

impl Decode for RevocationList {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(RevocationList::from_ids(r.get_seq()?))
    }
}

/// A CRL signed by its issuing authority, with a sequence number so relying
/// parties can require freshness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedCrl {
    /// Issuer key id.
    pub issuer: KeyId,
    /// Monotonic sequence number.
    pub sequence: u64,
    /// Issuance time (unix seconds).
    pub issued_at: u64,
    /// The list itself.
    pub list: RevocationList,
    /// Issuer signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl SignedCrl {
    fn payload_bytes(
        issuer: &KeyId,
        sequence: u64,
        issued_at: u64,
        list: &RevocationList,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        issuer.encode(&mut w);
        w.put_u64(sequence);
        w.put_u64(issued_at);
        list.encode(&mut w);
        w.into_bytes()
    }

    /// Creates and signs a CRL with the issuer keypair.
    pub fn create(
        issuer_kp: &p2drm_crypto::rsa::RsaKeyPair,
        sequence: u64,
        issued_at: u64,
        list: RevocationList,
    ) -> Self {
        let issuer = KeyId::of_rsa(issuer_kp.public());
        let payload = Self::payload_bytes(&issuer, sequence, issued_at, &list);
        SignedCrl {
            issuer,
            sequence,
            issued_at,
            signature: issuer_kp.sign(&payload),
            list,
        }
    }

    /// Verifies issuer signature.
    pub fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), crate::PkiError> {
        if KeyId::of_rsa(issuer_key) != self.issuer {
            return Err(crate::PkiError::UnknownIssuer);
        }
        let payload = Self::payload_bytes(&self.issuer, self.sequence, self.issued_at, &self.list);
        issuer_key
            .verify(&payload, &self.signature)
            .map_err(|_| crate::PkiError::BadSignature)
    }
}

impl Encode for SignedCrl {
    fn encode(&self, w: &mut Writer) {
        self.issuer.encode(w);
        w.put_u64(self.sequence);
        w.put_u64(self.issued_at);
        self.list.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for SignedCrl {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(SignedCrl {
            issuer: KeyId::decode(r)?,
            sequence: r.get_u64()?,
            issued_at: r.get_u64()?,
            list: RevocationList::decode(r)?,
            signature: RsaSignature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::digest_id;
    use p2drm_crypto::rng::test_rng;
    use p2drm_crypto::rsa::RsaKeyPair;

    fn id(i: u64) -> KeyId {
        digest_id(&i.to_le_bytes())
    }

    #[test]
    fn insert_contains_dedup() {
        let mut crl = RevocationList::new();
        assert!(crl.insert(id(1)));
        assert!(crl.insert(id(2)));
        assert!(!crl.insert(id(1)), "duplicate insert reports false");
        assert_eq!(crl.len(), 2);
        assert!(crl.contains(&id(1)));
        assert!(!crl.contains(&id(3)));
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let crl = RevocationList::from_ids(vec![id(5), id(1), id(5), id(3)]);
        assert_eq!(crl.len(), 3);
        let ids: Vec<_> = crl.iter().cloned().collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn crl_codec_roundtrip() {
        let crl = RevocationList::from_ids((0..50).map(id).collect());
        let bytes = p2drm_codec::to_bytes(&crl);
        let back: RevocationList = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, crl);
    }

    #[test]
    fn signed_crl_verify_and_tamper() {
        let mut rng = test_rng(70);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(&kp, 3, 1000, RevocationList::from_ids(vec![id(1)]));
        assert!(crl.verify(kp.public()).is_ok());
        assert!(crl.verify(other.public()).is_err());

        let mut tampered = crl.clone();
        tampered.list.insert(id(9));
        assert!(tampered.verify(kp.public()).is_err());

        let mut tampered = crl.clone();
        tampered.sequence += 1;
        assert!(tampered.verify(kp.public()).is_err());
    }

    #[test]
    fn signed_crl_codec_roundtrip() {
        let mut rng = test_rng(71);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(
            &kp,
            1,
            5,
            RevocationList::from_ids((0..10).map(id).collect()),
        );
        let bytes = p2drm_codec::to_bytes(&crl);
        let back: SignedCrl = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, crl);
        assert!(back.verify(kp.public()).is_ok());
    }
}
