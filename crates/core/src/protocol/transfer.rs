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
    use crate::service::{ApiErrorCode, WireError};
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

    #[test]
    fn replayed_transfer_refusal_names_no_license_id() {
        // A replay toward a different recipient is refused over the wire;
        // the refusal's text must not carry the license id, which would
        // link the replayed request to the license it names.
        let mut f = fixture(197);
        let mut rng = test_rng(198);
        let lid = f.license.id();
        let saved_license = f.license.clone();
        let alice_pseudonym = f.alice.licenses()[0].pseudonym;
        f.sys
            .transfer(&mut f.alice, &mut f.bob, lid, &mut rng)
            .unwrap();
        f.alice.add_license(saved_license, alice_pseudonym);
        let mut carol = f.sys.register_user("carol", &mut rng).unwrap();
        let res = f.sys.transfer(&mut f.alice, &mut carol, lid, &mut rng);
        let Err(WireError::Api(refusal)) = res else {
            panic!("a replay must be refused: {res:?}");
        };
        assert_eq!(refusal.code, ApiErrorCode::AlreadyRedeemed);
        let prefix: String = lid.0[..2].iter().map(|b| format!("{b:02x}")).collect();
        assert!(
            !refusal.detail.contains(&prefix),
            "detail {:?} names the license id",
            refusal.detail
        );
    }
}
