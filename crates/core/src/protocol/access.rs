//! Content access on a compliant device.
//!
//! Device checks (license sig, CRLs, holder proof, rights), card key
//! release sealed to the device key, anonymous download, decryption, and
//! rights-state consumption — the full enforcement loop.

use crate::entities::device::{challenge_message, CompliantDevice};
use crate::entities::user::UserAgent;
use crate::license::License;
use crate::protocol::messages::{DownloadRequest, DownloadResponse};
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_rel::AccessRequest;
use p2drm_store::ConcurrentKv;

/// Client half of play: the device↔card challenge/proof/key-release
/// rounds run locally in `begin`; the provider only ever sees the
/// anonymous [`DownloadRequest`], and `finish` decrypts + consumes.
pub struct PlaySession {
    content_key: [u8; 32],
    license: License,
    access: AccessRequest,
}

impl PlaySession {
    /// Local rounds: holder challenge, card proof, device compliance
    /// check, key release. Returns the single message that crosses the
    /// wire.
    pub fn begin<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        now: u64,
        rng: &mut R,
    ) -> Result<(Self, DownloadRequest), CoreError> {
        let owned = user
            .license(&license.id())
            .ok_or(CoreError::UnknownLicense(license.id()))?;
        let pseudonym_cert = user
            .pseudonym_certs()
            .iter()
            .find(|c| c.pseudonym_id() == owned.pseudonym)
            .ok_or(CoreError::BadPseudonym(
                "certificate for holder key missing",
            ))?;

        let nonce = device.make_challenge(rng);
        let proof_sig = user
            .card
            .sign_with_pseudonym(&owned.pseudonym, &challenge_message(&nonce, &license.id()))?;
        let access = AccessRequest::play(now, device.binding_id());
        device.check_access(license, Some(pseudonym_cert), &nonce, &proof_sig, &access)?;
        let sealed = user.card.unwrap_and_reseal(
            &owned.pseudonym,
            &license.body.key_envelope,
            device.public_key(),
            rng,
        )?;
        let content_key = device.open_sealed_key(&sealed)?;
        Ok((
            PlaySession {
                content_key,
                license: license.clone(),
                access,
            },
            DownloadRequest {
                content_id: license.body.content_id,
            },
        ))
    }

    /// Decrypts the downloaded payload and consumes the play on the
    /// device.
    pub fn finish<SD: ConcurrentKv>(
        self,
        device: &mut CompliantDevice<SD>,
        response: &DownloadResponse,
    ) -> Result<Vec<u8>, CoreError> {
        let payload = crate::content::decrypt_payload(
            &self.content_key,
            &response.nonce,
            &response.ciphertext,
        );
        device.consume(&self.license, &self.access)?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WireError;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    struct Fx {
        sys: System,
        alice: UserAgent,
        device: CompliantDevice,
        license: License,
    }

    fn fixture(seed: u64) -> Fx {
        let mut rng = test_rng(seed);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"SECRET AUDIO", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 1000);
        let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
        let device = sys.register_device(&mut rng).unwrap();
        Fx {
            sys,
            alice,
            device,
            license,
        }
    }

    #[test]
    fn play_decrypts_and_consumes() {
        let mut f = fixture(180);
        let mut rng = test_rng(181);
        let payload = f
            .sys
            .play(&f.alice, &mut f.device, &f.license, &mut rng)
            .unwrap();
        assert_eq!(payload, b"SECRET AUDIO");
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
    }

    #[test]
    fn play_count_exhaustion_enforced() {
        // fast_test rights template grants play count=3.
        let mut f = fixture(182);
        let mut rng = test_rng(183);
        for i in 0..3 {
            f.sys
                .play(&f.alice, &mut f.device, &f.license, &mut rng)
                .unwrap_or_else(|e| panic!("play {i} failed: {e}"));
        }
        let res = f.sys.play(&f.alice, &mut f.device, &f.license, &mut rng);
        assert!(matches!(res, Err(WireError::Client(CoreError::Denied(_)))));
    }

    #[test]
    fn revoked_license_rejected_after_crl_sync() {
        let mut f = fixture(184);
        let mut rng = test_rng(185);
        f.sys.provider.revoke_license(&f.license.id()).unwrap();
        let lic_crl = f.sys.provider.signed_license_crl(50);
        let pseud_crl = f.sys.provider.signed_pseudonym_crl(50);
        f.device.sync_crls(&lic_crl, &pseud_crl).unwrap();

        let res = f.sys.play(&f.alice, &mut f.device, &f.license, &mut rng);
        assert!(matches!(
            res,
            Err(WireError::Client(CoreError::Revoked("license")))
        ));
    }

    #[test]
    fn foreign_license_rejected() {
        // Bob cannot play Alice's license: his card lacks the pseudonym key.
        let mut f = fixture(186);
        let mut rng = test_rng(187);
        let bob = f.sys.register_user("bob", &mut rng).unwrap();
        f.sys.fund(&bob, 1000);
        let res = f.sys.play(&bob, &mut f.device, &f.license, &mut rng);
        assert!(res.is_err());
    }

    #[test]
    fn device_state_is_per_license() {
        let mut f = fixture(188);
        let mut rng = test_rng(189);
        let cid2 = f.sys.publish_content("T2", 100, b"OTHER", &mut rng);
        f.sys.fund(&f.alice, 1000);
        let lic2 = f.sys.purchase(&mut f.alice, cid2, &mut rng).unwrap();
        f.sys
            .play(&f.alice, &mut f.device, &f.license, &mut rng)
            .unwrap();
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
        assert_eq!(f.device.rights_state(&lic2).unwrap().plays_used, 0);
    }
}
