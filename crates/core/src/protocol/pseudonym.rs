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
    /// resulting certificate, store it on the agent.
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

/// Cut-and-choose variant of blind issuance: the card prepares `k`
/// candidates; the RA audits `k-1` of them before signing the survivor,
/// bounding a cheating card's success probability at `1/k` (experiment E9
/// benches the cost sweep). The opened candidates' keys are discarded from
/// the card (they were revealed).
#[allow(clippy::too_many_arguments)]
pub fn obtain_pseudonym_cut_and_choose<R: CryptoRng + ?Sized>(
    user: &mut UserAgent,
    ra: &RegistrationAuthority,
    ttp_key: &ElGamalPublicKey,
    epoch: u32,
    now: u64,
    k: usize,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<KeyId, CoreError> {
    assert!(k >= 1, "cut-and-choose needs at least one candidate");
    // Card: k fresh candidates.
    let mut bodies = Vec::with_capacity(k);
    for _ in 0..k {
        bodies.push(user.card.begin_pseudonym(ttp_key, epoch, rng)?);
    }
    let messages: Vec<Vec<u8>> = bodies.iter().map(|b| b.signing_bytes()).collect();
    let request = p2drm_crypto::blind::CutChooseRequest::prepare(
        ra.blind_public(),
        k,
        |i| messages[i].clone(),
        rng,
    )?;
    let blinded_values = request.blinded_values();
    let auth_bytes =
        crate::protocol::messages::cut_choose_auth_bytes(&user.card.card_id(), &blinded_values);
    let auth_sig = user.card.sign_with_master(&auth_bytes)?;
    transcript.record(Party::Card, Party::Ra, "cut-choose-candidates", auth_bytes);

    let (keep, blind_sig) = ra.issue_pseudonym_cut_and_choose(
        user.card.card_id(),
        &user.card.master_cert().clone(),
        &blinded_values,
        &auth_sig,
        |keep| request.open_all_but(keep),
        epoch,
        now,
        rng,
    )?;
    transcript.record(
        Party::Ra,
        Party::Card,
        "cut-choose-signature",
        blind_sig.to_bytes_be(),
    );

    // Card: unblind the kept candidate, discard the opened ones.
    let (_, signature) = request.finish(ra.blind_public(), keep, &blind_sig)?;
    let kept_body = bodies.swap_remove(keep);
    let kept_id = KeyId::of_rsa(&kept_body.pseudonym_key);
    for body in bodies {
        user.card
            .forget_pseudonym(&KeyId::of_rsa(&body.pseudonym_key));
    }
    let cert = PseudonymCertificate {
        body: kept_body,
        signature,
    };
    cert.verify(ra.blind_public())
        .map_err(|_| CoreError::BadPseudonym("unblinded signature invalid"))?;
    user.add_pseudonym(cert);
    Ok(kept_id)
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
    fn ra_never_receives_pseudonym_key_or_user_id() {
        // The unlinkability transcript check: nothing the RA received
        // during issuance contains the pseudonym key fingerprint, the
        // certificate body bytes, or the user id.
        let mut f = fixture(162);
        let mut rng = test_rng(163);
        let mut t = Transcript::new();
        obtain_pseudonym(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            0,
            100,
            &mut rng,
            &mut t,
        )
        .unwrap();
        let cert = f.user.pseudonym_certs().last().unwrap();
        let pseudonym_modulus = cert.body.pseudonym_key.modulus().to_bytes_be();
        assert!(!t.scan_for(Party::Ra, &pseudonym_modulus));
        assert!(!t.scan_for(Party::Ra, &cert.body.signing_bytes()));
        // The user id is escrowed (encrypted) — never in the clear.
        assert!(!t.scan_for(Party::Ra, f.user.user_id().as_bytes()));
    }

    #[test]
    fn cut_and_choose_issues_valid_unlinkable_pseudonym() {
        let mut f = fixture(168);
        let mut rng = test_rng(169);
        let mut t = Transcript::new();
        let id = obtain_pseudonym_cut_and_choose(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            2,
            100,
            4,
            &mut rng,
            &mut t,
        )
        .unwrap();
        let cert = f.user.pseudonym_certs().last().unwrap();
        assert_eq!(cert.pseudonym_id(), id);
        assert!(cert.verify(f.ra.blind_public()).is_ok());
        assert_eq!(cert.body.epoch, 2);
        // Only the kept key remains on the card (opened ones discarded).
        assert_eq!(f.user.card.pseudonym_count(), 1);
        // The kept certificate is usable: sign a challenge with it.
        assert!(f.user.card.sign_with_pseudonym(&id, b"challenge").is_ok());
    }

    #[test]
    fn cut_and_choose_audit_rejects_wrong_epoch_candidates() {
        // The card builds candidates for epoch 5 but the RA expects 2:
        // every opened candidate fails the audit, so issuance fails with
        // probability 1 for k >= 2 when ALL candidates are malformed.
        let mut f = fixture(1680);
        let mut rng = test_rng(1690);
        let mut t = Transcript::new();
        let res = obtain_pseudonym_cut_and_choose(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            5, // candidates carry epoch 5...
            100,
            4,
            &mut rng,
            &mut t,
        );
        // ...but issue the protocol against an RA expecting the same epoch
        // succeeds; mismatch is tested through the RA endpoint directly.
        assert!(res.is_ok());

        // Direct endpoint test with a mismatched expected epoch.
        let bodies: Vec<_> = (0..3)
            .map(|_| {
                f.user
                    .card
                    .begin_pseudonym(f.ttp.escrow_key(), 9, &mut rng)
                    .unwrap()
            })
            .collect();
        let messages: Vec<Vec<u8>> = bodies.iter().map(|b| b.signing_bytes()).collect();
        let request = p2drm_crypto::blind::CutChooseRequest::prepare(
            f.ra.blind_public(),
            3,
            |i| messages[i].clone(),
            &mut rng,
        )
        .unwrap();
        let blinded = request.blinded_values();
        let auth = f
            .user
            .card
            .sign_with_master(&crate::protocol::messages::cut_choose_auth_bytes(
                &f.user.card.card_id(),
                &blinded,
            ))
            .unwrap();
        let res = f.ra.issue_pseudonym_cut_and_choose(
            f.user.card.card_id(),
            &f.user.card.master_cert().clone(),
            &blinded,
            &auth,
            |keep| request.open_all_but(keep),
            2, // RA expects epoch 2; candidates say 9
            100,
            &mut rng,
        );
        assert!(matches!(res, Err(CoreError::BadEvidence(_))));
    }

    #[test]
    fn revoked_card_cannot_obtain_pseudonyms() {
        let mut f = fixture(164);
        let mut rng = test_rng(165);
        f.ra.revoke_user(&f.user.user_id()).unwrap();
        let mut t = Transcript::new();
        let res = obtain_pseudonym(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            0,
            100,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::Revoked(_))));
    }

    #[test]
    fn distinct_pseudonyms_unlinkable_by_content() {
        let mut f = fixture(166);
        let mut rng = test_rng(167);
        let mut t = Transcript::new();
        let a = obtain_pseudonym(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            0,
            100,
            &mut rng,
            &mut t,
        )
        .unwrap();
        let b = obtain_pseudonym(
            &mut f.user,
            &f.ra,
            f.ttp.escrow_key(),
            0,
            100,
            &mut rng,
            &mut t,
        )
        .unwrap();
        assert_ne!(a, b);
        // RA's own log holds only blinded values; check they differ from
        // the FDH images of both certificates (structural unlinkability).
        for rec in f.ra.issuance_log() {
            for cert in f.user.pseudonym_certs() {
                let fdh = p2drm_crypto::rsa::fdh(
                    &cert.body.signing_bytes(),
                    f.ra.blind_public().modulus_len(),
                );
                assert_ne!(rec.blinded, fdh);
            }
        }
    }
}
