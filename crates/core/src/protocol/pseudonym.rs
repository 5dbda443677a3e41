//! Blind pseudonym issuance — the paper's unlinkability engine.
//!
//! The card builds a pseudonym certificate body (fresh key + TTP escrow),
//! blinds its full-domain hash, and authenticates to the RA with the master
//! key. The RA signs the blinded value. After unblinding, the resulting
//! certificate verifies under the RA blind key but is unlinkable to this
//! session: the RA saw only `(card, uniformly-random ring element)`.

use crate::audit::{Party, Transcript};
use crate::entities::ra::RegistrationAuthority;
use crate::entities::user::UserAgent;
use crate::protocol::messages::{PseudonymIssueRequest, PseudonymIssueResponse};
use crate::CoreError;
use p2drm_crypto::blind::Blinded;
use p2drm_crypto::elgamal::ElGamalPublicKey;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_pki::cert::{KeyId, PseudonymCertBody, PseudonymCertificate};

/// Client half of blind pseudonym issuance.
///
/// `begin` (card builds body + escrow, blinds, authenticates) →
/// *wire round trip* → `finish` (unblind, self-check, store).
pub struct PseudonymIssueSession {
    body: PseudonymCertBody,
    blinded: Blinded,
}

impl PseudonymIssueSession {
    /// Card-side first round: returns the session and the request to
    /// send.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        ttp_key: &ElGamalPublicKey,
        epoch: u32,
        rng: &mut R,
    ) -> Result<(Self, PseudonymIssueRequest), CoreError> {
        let body = user.card.begin_pseudonym(ttp_key, epoch, rng)?;
        let blinded = Blinded::new(ra_blind_key, &body.signing_bytes(), rng)?;
        let auth_sig =
            user.card
                .sign_with_master(&crate::protocol::messages::pseudonym_auth_bytes(
                    &user.card.card_id(),
                    &blinded.blinded,
                ))?;
        let request = PseudonymIssueRequest {
            card_id: user.card.card_id(),
            card_cert: user.card.master_cert().clone(),
            blinded: blinded.blinded.clone(),
            auth_sig,
        };
        Ok((PseudonymIssueSession { body, blinded }, request))
    }

    /// Card-side final round: unblind the RA's signature, verify the
    /// resulting certificate, store its key on the card and it on the
    /// agent.
    pub fn finish(
        self,
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        response: &PseudonymIssueResponse,
    ) -> Result<KeyId, CoreError> {
        let signature = self.blinded.unblind(ra_blind_key, &response.blind_sig)?;
        let cert = PseudonymCertificate {
            body: self.body,
            signature,
        };
        cert.verify(ra_blind_key)
            .map_err(|_| CoreError::BadPseudonym("unblinded signature invalid"))?;
        let id = cert.pseudonym_id();
        user.card.store_pseudonym(&id)?;
        user.add_pseudonym(cert);
        Ok(id)
    }
}

/// Runs the blind issuance protocol; the fresh certificate is stored on the
/// user agent and its pseudonym id returned.
///
/// The card-side rounds are [`PseudonymIssueSession`] — the same state
/// machine the wire client drives — so this engine and the byte-level
/// path cannot drift apart; it only adds the direct RA call and the
/// transcript recording.
pub fn obtain_pseudonym<R: CryptoRng + ?Sized>(
    user: &mut UserAgent,
    ra: &RegistrationAuthority,
    ttp_key: &ElGamalPublicKey,
    epoch: u32,
    now: u64,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<KeyId, CoreError> {
    // Card: fresh pseudonym key + escrow, blind, authenticate.
    let (session, request) =
        PseudonymIssueSession::begin(user, ra.blind_public(), ttp_key, epoch, rng)?;
    transcript.record(
        Party::Card,
        Party::Ra,
        "pseudonym-issue-request",
        p2drm_codec::to_bytes(&request),
    );

    // RA: authenticate card, blind-sign.
    let blind_sig = ra.issue_pseudonym(
        request.card_id,
        &request.card_cert,
        &request.blinded,
        &request.auth_sig,
        now,
    )?;
    let response = PseudonymIssueResponse { blind_sig };
    transcript.record(
        Party::Ra,
        Party::Card,
        "pseudonym-issue-response",
        p2drm_codec::to_bytes(&response),
    );

    // Card: unblind, self-check, store.
    session.finish(user, ra.blind_public(), &response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::smartcard::CardBudget;
    use crate::entities::ttp::Ttp;
    use crate::entities::user::PseudonymPolicy;
    use crate::ids::UserId;
    use crate::protocol::registration::register;
    use p2drm_crypto::elgamal::ElGamalGroup;
    use p2drm_crypto::rng::test_rng;
    use p2drm_pki::authority::CertificateAuthority;
    use p2drm_pki::cert::Validity;

    struct Fixture {
        ra: RegistrationAuthority,
        ttp: Ttp,
        user: UserAgent,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = test_rng(seed);
        let v = Validity::new(0, u64::MAX / 2);
        let mut root = CertificateAuthority::new_root(512, v, &mut rng);
        let ra = RegistrationAuthority::new(&mut root, 512, v, &mut rng);
        let ttp = Ttp::new(ElGamalGroup::test_512(), &mut rng);
        let mut t = Transcript::new();
        let user = register(
            &ra,
            UserId::from_label("carol"),
            "acct",
            PseudonymPolicy::FreshPerPurchase,
            CardBudget::default(),
            &mut rng,
            &mut t,
        )
        .unwrap();
        Fixture { ra, ttp, user }
    }

    #[test]
    fn issued_pseudonym_verifies_and_is_stored() {
        let mut f = fixture(160);
        let mut rng = test_rng(161);
        let mut t = Transcript::new();
        let id = obtain_pseudonym(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            3,
            100,
            &mut rng,
            &mut t,
        )
        .unwrap();
        let cert = f.user.pseudonym_certs().last().unwrap();
        assert_eq!(cert.pseudonym_id(), id);
        assert!(cert.verify(f.ra.blind_public()).is_ok());
        assert_eq!(cert.body.epoch, 3);
        assert_eq!(t.message_count(), 2);
        assert_eq!(f.user.card.pseudonym_count(), 1);
    }

    #[test]
    fn only_certified_keys_count_against_the_card_budget() {
        let Fixture { ra, ttp, .. } = fixture(164);
        let (mut rng, budget) = (test_rng(164), CardBudget { max_pseudonyms: 2 });
        let mut user = |label| {
            let id = UserId::from_label(label);
            let policy = PseudonymPolicy::FreshPerPurchase;
            let mut t = Transcript::new();
            register(&ra, id, "acct", policy, budget, &mut rng, &mut t).unwrap()
        };
        let (mut revoked, mut dropped) = (user("revoked"), user("dropped"));
        let mut rng = test_rng(165);
        let mut obtain = |user: &mut UserAgent| {
            let mut t = Transcript::new();
            obtain_pseudonym(user, &ra, ttp.escrow_key(), 0, 100, &mut rng, &mut t)
        };

        // The RA refuses a revoked card: no refusal uses up a slot.
        ra.revoke_user(&revoked.user_id()).unwrap();
        for _ in 0..3 {
            assert!(obtain(&mut revoked).is_err());
        }
        assert_eq!(revoked.card.pseudonym_count(), 0);

        // A session dropped before `finish` leaves both slots free.
        let mut rng = test_rng(166);
        let blind_key = ra.blind_public();
        let begun =
            PseudonymIssueSession::begin(&mut dropped, blind_key, ttp.escrow_key(), 0, &mut rng);
        drop(begun.unwrap());
        assert!(obtain(&mut dropped).is_ok());
        assert!(obtain(&mut dropped).is_ok());
        assert_eq!(dropped.card.pseudonym_count(), 2);
    }
}
