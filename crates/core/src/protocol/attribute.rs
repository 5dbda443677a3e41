//! Blind attribute certification — "private credentials": prove a
//! property (e.g. *adult*) to a provider without identifying yourself.
//!
//! Works exactly like pseudonym issuance, with two twists: the credential
//! body binds to the user's **current pseudonym key** (so it cannot be
//! lent — exercising it requires that pseudonym's card), and the RA signs
//! with a **per-attribute key** after checking the authenticated card's
//! owner actually holds the attribute. The RA still never sees the
//! resulting certificate, so attribute use is unlinkable to issuance.

use crate::audit::{Party, Transcript};
use crate::entities::ra::RegistrationAuthority;
use crate::entities::user::UserAgent;
use crate::protocol::messages::{AttributeIssueRequest, AttributeIssueResponse};
use crate::CoreError;
use p2drm_crypto::blind::Blinded;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_pki::cert::{AttributeCertBody, KeyId};

/// Client half of blind attribute issuance (binds to the current
/// pseudonym).
pub struct AttributeIssueSession {
    attribute: String,
    attribute_key: RsaPublicKey,
    body: AttributeCertBody,
    blinded: Blinded,
}

impl AttributeIssueSession {
    /// Card-side first round.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        attribute: &str,
        attribute_key: &RsaPublicKey,
        epoch: u32,
        rng: &mut R,
    ) -> Result<(Self, AttributeIssueRequest), CoreError> {
        let pseudonym_cert = user
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("no usable pseudonym to bind to"))?;
        let body = AttributeCertBody {
            pseudonym_key: pseudonym_cert.body.pseudonym_key.clone(),
            epoch,
        };
        let blinded = Blinded::new(attribute_key, &body.signing_bytes(), rng)?;
        let auth_sig =
            user.card
                .sign_with_master(&crate::protocol::messages::attribute_auth_bytes(
                    &user.card.card_id(),
                    attribute,
                    &blinded.blinded,
                ))?;
        let request = AttributeIssueRequest {
            card_id: user.card.card_id(),
            card_cert: user.card.master_cert().clone(),
            attribute: attribute.to_string(),
            blinded: blinded.blinded.clone(),
            auth_sig,
        };
        Ok((
            AttributeIssueSession {
                attribute: attribute.to_string(),
                attribute_key: attribute_key.clone(),
                body,
                blinded,
            },
            request,
        ))
    }

    /// Card-side final round.
    pub fn finish(
        self,
        user: &mut UserAgent,
        response: &AttributeIssueResponse,
    ) -> Result<KeyId, CoreError> {
        let signature = self
            .blinded
            .unblind(&self.attribute_key, &response.blind_sig)?;
        let cert = p2drm_pki::cert::AttributeCertificate {
            attribute: self.attribute,
            body: self.body,
            signature,
        };
        cert.verify(&self.attribute_key)
            .map_err(|_| CoreError::BadPseudonym("unblinded attribute signature invalid"))?;
        let id = cert.pseudonym_id();
        user.add_attribute_cert(cert);
        Ok(id)
    }
}

/// Obtains a blind attribute certificate bound to the user's current
/// pseudonym; stores it on the agent and returns the pseudonym it binds to.
///
/// The card-side rounds are [`AttributeIssueSession`] — the same state
/// machine the wire client drives — so this engine and the byte-level
/// path cannot drift apart; it only adds the direct RA call and the
/// transcript recording.
pub fn obtain_attribute<R: CryptoRng + ?Sized>(
    user: &mut UserAgent,
    ra: &RegistrationAuthority,
    attribute: &str,
    epoch: u32,
    now: u64,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<KeyId, CoreError> {
    let attr_key = ra
        .attribute_public(attribute)
        .ok_or(CoreError::Card("attribute unknown to RA"))?;
    let (session, request) = AttributeIssueSession::begin(user, attribute, &attr_key, epoch, rng)?;
    transcript.record(
        Party::Card,
        Party::Ra,
        "attribute-issue-request",
        p2drm_codec::to_bytes(&request),
    );

    let blind_sig = ra.issue_attribute(
        request.card_id,
        &request.card_cert,
        &request.attribute,
        &request.blinded,
        &request.auth_sig,
        now,
    )?;
    let response = AttributeIssueResponse { blind_sig };
    transcript.record(
        Party::Ra,
        Party::Card,
        "attribute-issue-response",
        p2drm_codec::to_bytes(&response),
    );

    session.finish(user, &response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn unknown_attribute_refused() {
        let mut rng = test_rng(303);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        let mut t = Transcript::new();
        let epoch = sys.epoch();
        let now = sys.now();
        assert!(matches!(
            obtain_attribute(
                &mut alice,
                &sys.ra,
                "nonexistent",
                epoch,
                now,
                &mut rng,
                &mut t
            ),
            Err(CoreError::Card(_))
        ));
    }
}
