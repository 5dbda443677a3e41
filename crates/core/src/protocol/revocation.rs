//! Conditional anonymity: abuse evidence, TTP de-anonymization, and the
//! punishment pipeline (card revocation + pseudonym CRL).
//!
//! The TTP opens an identity escrow only for evidence that *proves* abuse
//! cryptographically — e.g. two valid transfer authorizations for the same
//! unique license id toward different recipients, something an honest
//! holder can never produce.

use crate::audit::{Party, Transcript};
use crate::entities::provider::ContentProvider;
use crate::entities::ra::RegistrationAuthority;
use crate::entities::ttp::Ttp;
use crate::ids::UserId;
use crate::protocol::messages::{transfer_proof_bytes, TransferRequest};
use crate::CoreError;
use p2drm_pki::cert::{KeyId, PseudonymCertificate};
use p2drm_store::ConcurrentKv;

/// Verifiable abuse evidence.
#[derive(Clone, Debug)]
pub enum AbuseEvidence {
    /// Two valid transfer authorizations for the same license id toward
    /// different recipients — proof of attempted double redemption.
    DoubleTransfer {
        /// First observed request.
        first: TransferRequest,
        /// Second request for the same license id.
        second: TransferRequest,
    },
}

impl AbuseEvidence {
    /// Stable label for audit logs.
    pub fn kind(&self) -> &'static str {
        match self {
            AbuseEvidence::DoubleTransfer { .. } => "double-transfer",
        }
    }

    /// Verifies the evidence against the accused pseudonym certificate.
    /// Must not rely on any provider state — the TTP re-checks everything.
    pub fn verify(&self, cert: &PseudonymCertificate) -> Result<(), CoreError> {
        match self {
            AbuseEvidence::DoubleTransfer { first, second } => {
                if first.license.id() != second.license.id() {
                    return Err(CoreError::BadEvidence("license ids differ"));
                }
                let holder = &first.license.body.holder;
                if KeyId::of_rsa(holder) != cert.pseudonym_id()
                    || KeyId::of_rsa(&second.license.body.holder) != cert.pseudonym_id()
                {
                    return Err(CoreError::BadEvidence("holder key does not match accused"));
                }
                let r1 = first.recipient_cert.pseudonym_id();
                let r2 = second.recipient_cert.pseudonym_id();
                if r1 == r2 {
                    return Err(CoreError::BadEvidence(
                        "same recipient twice is a replay, not abuse",
                    ));
                }
                for (req, recipient) in [(first, r1), (second, r2)] {
                    let msg = transfer_proof_bytes(&req.license.id(), &recipient);
                    holder
                        .verify(&msg, &req.proof)
                        .map_err(|_| CoreError::BadEvidence("authorization signature invalid"))?;
                }
                Ok(())
            }
        }
    }
}

/// Full pipeline: TTP verifies evidence and opens the escrow; the RA
/// revokes the card; the provider revokes the pseudonym. Returns the
/// de-anonymized user.
pub fn deanonymize_and_punish<B: ConcurrentKv>(
    ttp: &mut Ttp,
    ra: &RegistrationAuthority,
    provider: &ContentProvider<B>,
    evidence: &AbuseEvidence,
    cert: &PseudonymCertificate,
    transcript: &mut Transcript,
) -> Result<UserId, CoreError> {
    transcript.record(
        Party::Provider,
        Party::Ttp,
        "abuse-evidence",
        p2drm_codec::to_bytes(&cert.clone()),
    );
    let user = ttp.open_escrow(evidence, cert, ra.blind_public())?;
    transcript.record(
        Party::Ttp,
        Party::Ra,
        "deanonymized-user",
        user.as_bytes().to_vec(),
    );
    ra.revoke_user(&user)?;
    provider.revoke_pseudonym(cert.pseudonym_id())?;
    Ok(user)
}
