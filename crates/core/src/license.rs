//! Licenses: the paper's **anonymous license** — a unique id, the content
//! reference, a rights expression, the *holder pseudonym key* (never an
//! identity), and the content key sealed to that key.

use crate::ids::{ContentId, LicenseId};
use crate::CoreError;
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::envelope::Envelope;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use p2drm_pki::cert::KeyId;
use p2drm_rel::Rights;

/// The signed body of a license.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LicenseBody {
    /// Unique license id (the single-redemption handle).
    pub license_id: LicenseId,
    /// The content this license unlocks.
    pub content_id: ContentId,
    /// Holder public key: a pseudonym key in the private flow, an identity
    /// key in the baseline flow. **No other holder information exists.**
    pub holder: RsaPublicKey,
    /// What the holder may do.
    pub rights: Rights,
    /// Content key sealed to `holder`.
    pub key_envelope: Envelope,
    /// Issuance epoch (coarse bucket, mirrors pseudonym certificates).
    pub issued_epoch: u32,
}

impl LicenseBody {
    /// Canonical bytes the provider signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        p2drm_codec::to_bytes(self)
    }
}

impl Encode for LicenseBody {
    fn encode(&self, w: &mut Writer) {
        self.license_id.encode(w);
        self.content_id.encode(w);
        self.holder.encode(w);
        self.rights.encode(w);
        self.key_envelope.encode(w);
        w.put_u32(self.issued_epoch);
    }
}

impl Decode for LicenseBody {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(LicenseBody {
            license_id: LicenseId::decode(r)?,
            content_id: ContentId::decode(r)?,
            holder: RsaPublicKey::decode(r)?,
            rights: Rights::decode(r)?,
            key_envelope: Envelope::decode(r)?,
            issued_epoch: r.get_u32()?,
        })
    }
}

/// A provider-signed license.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct License {
    /// Signed body.
    pub body: LicenseBody,
    /// Provider signature over [`LicenseBody::signing_bytes`].
    pub signature: RsaSignature,
}

impl License {
    /// Issues (signs) a license body with the provider key.
    pub fn issue(body: LicenseBody, provider_key: &RsaKeyPair) -> License {
        let signature = provider_key.sign(&body.signing_bytes());
        License { body, signature }
    }

    /// Verifies the provider signature.
    pub fn verify(&self, provider_key: &RsaPublicKey) -> Result<(), CoreError> {
        provider_key
            .verify(&self.body.signing_bytes(), &self.signature)
            .map_err(|_| CoreError::BadLicense("provider signature invalid"))
    }

    /// The license id.
    pub fn id(&self) -> LicenseId {
        self.body.license_id
    }

    /// Canonical encoded size in bytes (storage/wire cost, experiment E6).
    pub fn encoded_len(&self) -> usize {
        p2drm_codec::to_bytes(self).len()
    }

    /// What the provider retains of this license once the buyer has it.
    pub fn record(&self) -> LicenseRecord {
        LicenseRecord {
            holder: KeyId::of_rsa(&self.body.holder),
        }
    }
}

impl Encode for License {
    fn encode(&self, w: &mut Writer) {
        self.body.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for License {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(License {
            body: LicenseBody::decode(r)?,
            signature: RsaSignature::decode(r)?,
        })
    }
}

/// The provider's stored row for an issued license, under the license id:
/// enough to answer "was this id issued, and to which pseudonym" and no
/// more. The signed [`License`] leaves with the buyer; the provider never
/// reads it back, and what it does not keep (holder modulus, key envelope,
/// signature) it cannot later join against anything.
///
/// Encodes as the 32 raw bytes of the key id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LicenseRecord {
    /// Key id of the holder pseudonym (or domain-manager) key.
    pub holder: KeyId,
}

impl Encode for LicenseRecord {
    fn encode(&self, w: &mut Writer) {
        self.holder.encode(w);
    }
}

impl Decode for LicenseRecord {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(LicenseRecord {
            holder: KeyId::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::envelope;
    use p2drm_crypto::rng::test_rng;
    use p2drm_rel::Limit;

    fn make_license(seed: u64) -> (License, RsaKeyPair, RsaKeyPair) {
        let mut rng = test_rng(seed);
        let provider = RsaKeyPair::generate(512, &mut rng);
        let holder = RsaKeyPair::generate(512, &mut rng);
        let env = envelope::seal(holder.public(), &[0x11; 32], &mut rng);
        let body = LicenseBody {
            license_id: LicenseId::random(&mut rng),
            content_id: ContentId::random(&mut rng),
            holder: holder.public().clone(),
            rights: Rights::builder().play(Limit::Count(3)).build(),
            key_envelope: env,
            issued_epoch: 5,
        };
        (License::issue(body, &provider), provider, holder)
    }

    #[test]
    fn issue_verify_roundtrip() {
        let (lic, provider, holder) = make_license(130);
        assert!(lic.verify(provider.public()).is_ok());
        // Holder can open the envelope; provider key cannot.
        let key = envelope::open(&holder, &lic.body.key_envelope).unwrap();
        assert_eq!(key, vec![0x11; 32]);
        assert!(envelope::open(&provider, &lic.body.key_envelope).is_err());
    }

    #[test]
    fn tampered_license_rejected() {
        let (lic, provider, _) = make_license(131);
        let mut bad = lic.clone();
        bad.body.rights = Rights::builder().play(Limit::Unlimited).build();
        assert!(bad.verify(provider.public()).is_err());

        let mut bad = lic.clone();
        bad.body.issued_epoch += 1;
        assert!(bad.verify(provider.public()).is_err());
    }

    #[test]
    fn wrong_provider_key_rejected() {
        let (lic, _, _) = make_license(132);
        let other = RsaKeyPair::generate(512, &mut test_rng(133));
        assert!(lic.verify(other.public()).is_err());
    }

    #[test]
    fn codec_roundtrip_and_size() {
        let (lic, provider, _) = make_license(134);
        let bytes = p2drm_codec::to_bytes(&lic);
        assert_eq!(bytes.len(), lic.encoded_len());
        let back: License = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, lic);
        assert!(back.verify(provider.public()).is_ok());
    }

    #[test]
    fn record_is_the_holder_key_id_and_nothing_else() {
        let (lic, _, holder) = make_license(136);
        let bytes = p2drm_codec::to_bytes(&lic.record());
        assert_eq!(bytes, holder.public().fingerprint());
        let back: LicenseRecord = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, lic.record());
        // Neither a truncated record nor a whole license decodes as one.
        assert!(p2drm_codec::from_bytes::<LicenseRecord>(&bytes[..31]).is_err());
        assert!(p2drm_codec::from_bytes::<LicenseRecord>(&p2drm_codec::to_bytes(&lic)).is_err());
    }

    #[test]
    fn license_contains_no_identity_fields() {
        // Structural privacy: the license encodes exactly the fields above;
        // scanning for a user-identity needle must fail by construction.
        let (lic, _, _) = make_license(135);
        let bytes = p2drm_codec::to_bytes(&lic);
        let user_needle = crate::ids::UserId::from_label("victim");
        assert!(!bytes
            .windows(user_needle.0.len())
            .any(|w| w == user_needle.0));
    }
}
