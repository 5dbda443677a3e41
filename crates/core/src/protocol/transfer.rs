//! Privacy-preserving license transfer (the paper's T2 figure).
//!
//! The sender proves ownership of the old anonymous license; the provider
//! revokes its unique id (spent-ID store + license CRL) and issues a fresh
//! anonymous license to the recipient's pseudonym. The provider witnesses
//! two pseudonyms; it cannot link either to an identity, and the old
//! license can never be redeemed again.

use crate::entities::user::UserAgent;
use crate::ids::LicenseId;
use crate::license::License;
use crate::protocol::messages::{transfer_proof_bytes, TransferRequest, TransferResponse};
use crate::CoreError;
use p2drm_pki::cert::KeyId;

/// Client half of a transfer: the sender's card signs the hand-over to
/// the recipient's current pseudonym → request → settle. Both agents'
/// state moves only in [`TransferSession::finish`], after a decoded
/// success.
pub struct TransferSession {
    license_id: LicenseId,
    recipient_pseudonym: KeyId,
}

impl TransferSession {
    /// Sender-side round: the card signs the transfer authorization.
    pub fn begin(
        sender: &UserAgent,
        recipient: &UserAgent,
        license_id: LicenseId,
    ) -> Result<(Self, TransferRequest), CoreError> {
        let owned = sender
            .license(&license_id)
            .ok_or(CoreError::UnknownLicense(license_id))?
            .clone();
        let recipient_cert = recipient
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("recipient has no usable pseudonym"))?
            .clone();
        let proof_bytes = transfer_proof_bytes(&license_id, &recipient_cert.pseudonym_id());
        let proof = sender
            .card
            .sign_with_pseudonym(&owned.pseudonym, &proof_bytes)?;
        let recipient_pseudonym = recipient_cert.pseudonym_id();
        let request = TransferRequest {
            license: owned.license,
            recipient_cert,
            proof,
        };
        Ok((
            TransferSession {
                license_id,
                recipient_pseudonym,
            },
            request,
        ))
    }

    /// Bookkeeping: the sender loses the license, the recipient gains the
    /// reissued one.
    pub fn finish(
        self,
        sender: &mut UserAgent,
        recipient: &mut UserAgent,
        response: TransferResponse,
    ) -> License {
        sender.remove_license(&self.license_id);
        recipient.note_pseudonym_use();
        recipient.add_license(response.license.clone(), self.recipient_pseudonym);
        response.license
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{Party, Recording, Transcript};
    use crate::service::{
        ApiErrorCode, Loopback, WireClient, WireError, WireRequest, WireResponse,
    };
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    struct Fx {
        sys: System,
        alice: UserAgent,
        bob: UserAgent,
        license: License,
    }

    fn fixture(seed: u64) -> Fx {
        let mut rng = test_rng(seed);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"DATA", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        let mut bob = sys.register_user("bob", &mut rng).unwrap();
        sys.fund(&alice, 1000);
        sys.fund(&bob, 1000);
        let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
        sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
        Fx {
            sys,
            alice,
            bob,
            license,
        }
    }

    fn refused_with(res: &Result<License, WireError>, code: ApiErrorCode) -> bool {
        matches!(res, Err(WireError::Api(e)) if e.code == code)
    }

    #[test]
    fn transfer_moves_license_and_rebinds_holder() {
        let mut f = fixture(190);
        let mut rng = test_rng(191);
        let lid = f.license.id();
        let new_license = f
            .sys
            .transfer(&mut f.alice, &mut f.bob, lid, &mut rng)
            .unwrap();

        assert_ne!(new_license.id(), lid, "fresh unique id");
        assert!(f.alice.license(&lid).is_none(), "sender lost it");
        assert!(
            f.bob.license(&new_license.id()).is_some(),
            "recipient has it"
        );
        let bob_cert = f.bob.pseudonym_certs().last().unwrap();
        assert_eq!(
            KeyId::of_rsa(&new_license.body.holder),
            bob_cert.pseudonym_id()
        );
        // Transfer count decremented: fast_test template grants 2.
        assert_eq!(new_license.body.rights.transfer, p2drm_rel::Limit::Count(1));
    }

    #[test]
    fn double_transfer_of_same_license_rejected() {
        // The unique-identifier mechanism from the paper: an anonymous
        // license cannot be copied and redeemed twice.
        let mut f = fixture(192);
        let mut rng = test_rng(193);
        let lid = f.license.id();
        let saved_license = f.license.clone();
        let alice_pseudonym = f.alice.licenses()[0].pseudonym;
        f.sys
            .transfer(&mut f.alice, &mut f.bob, lid, &mut rng)
            .unwrap();

        // Alice "restores from backup" and tries again toward Carol.
        f.alice.add_license(saved_license, alice_pseudonym);
        let mut carol = f.sys.register_user("carol", &mut rng).unwrap();
        f.sys.fund(&carol, 100);
        let res = f.sys.transfer(&mut f.alice, &mut carol, lid, &mut rng);
        assert!(refused_with(&res, ApiErrorCode::AlreadyRedeemed), "{res:?}");
        assert!(carol.licenses().is_empty());
    }

    #[test]
    fn transfer_limit_chain_exhausts() {
        // fast_test grants transfer count=2: A->B->C works, C->D denied.
        let mut f = fixture(194);
        let mut rng = test_rng(195);
        let lid0 = f.license.id();
        let l1 = f
            .sys
            .transfer(&mut f.alice, &mut f.bob, lid0, &mut rng)
            .unwrap();

        let mut carol = f.sys.register_user("carol", &mut rng).unwrap();
        let l2 = f
            .sys
            .transfer(&mut f.bob, &mut carol, l1.id(), &mut rng)
            .unwrap();
        assert_eq!(l2.body.rights.transfer, p2drm_rel::Limit::Count(0));

        let mut dave = f.sys.register_user("dave", &mut rng).unwrap();
        let res = f.sys.transfer(&mut carol, &mut dave, l2.id(), &mut rng);
        assert!(refused_with(&res, ApiErrorCode::RightsDenied), "{res:?}");
    }

    #[test]
    fn forged_proof_rejected() {
        // Bob tries to steal Alice's license by submitting a transfer
        // request signed with his own key.
        let f = fixture(196);
        let bob_cert = f.bob.pseudonym_certs().last().unwrap().clone();
        let bob_pseudonym = bob_cert.pseudonym_id();
        let proof_bytes = transfer_proof_bytes(&f.license.id(), &bob_pseudonym);
        let forged = f
            .bob
            .card
            .sign_with_pseudonym(&bob_pseudonym, &proof_bytes)
            .unwrap();
        let req = TransferRequest {
            license: f.license.clone(),
            recipient_cert: bob_cert,
            proof: forged,
        };
        let service = f.sys.wire_service(196);
        let res = WireClient::new(Loopback::new(&service)).call(WireRequest::Transfer(req));
        assert!(
            matches!(&res, Ok(WireResponse::Error(e)) if e.code == ApiErrorCode::BadProof),
            "{res:?}"
        );
    }

    #[test]
    fn provider_sees_pseudonyms_not_identities() {
        let mut f = fixture(198);
        let mut rng = test_rng(199);
        let lid = f.license.id();
        let mut t = Transcript::new();
        let service = f.sys.wire_service(198);
        WireClient::new(Recording::new(Loopback::new(&service), &mut t))
            .transfer(&mut f.alice, &mut f.bob, lid, &mut rng)
            .unwrap();
        assert!(t.bytes_received_by(Party::Provider) > 0);
        assert!(!t.scan_for(Party::Provider, f.alice.user_id().as_bytes()));
        assert!(!t.scan_for(Party::Provider, f.bob.user_id().as_bytes()));
        assert_eq!(f.sys.provider.transfer_log().len(), 1);
    }
}
