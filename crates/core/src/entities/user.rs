//! The user agent: client-side software holding the smart card, the coin
//! wallet, pseudonym certificates, owned licenses and parked purchases.

use crate::entities::smartcard::SmartCard;
use crate::ids::{LicenseId, UserId};
use crate::license::License;
use crate::protocol::messages::PurchaseRequest;
use p2drm_payment::Wallet;
use p2drm_pki::cert::{AttributeCertificate, KeyId, PseudonymCertificate};

/// How aggressively the user refreshes pseudonyms — the linkability
/// knob: purchases under one pseudonym are linkable to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PseudonymPolicy {
    /// A fresh pseudonym for every purchase (paper's recommendation).
    FreshPerPurchase,
    /// Reuse each pseudonym for up to `k` purchases.
    ReuseK(u32),
    /// One pseudonym forever (worst case, ~the baseline's linkability).
    Static,
}

/// A license together with the pseudonym it is bound to.
#[derive(Clone, Debug)]
pub struct OwnedLicense {
    /// The provider-issued license.
    pub license: License,
    /// Which of the card's pseudonyms holds it.
    pub pseudonym: KeyId,
}

/// Client-side user state.
pub struct UserAgent {
    user_id: UserId,
    /// Funding account name at mint/processor (identity-adjacent; never
    /// sent to providers in the private flow).
    pub account: String,
    /// The user's smart card.
    pub card: SmartCard,
    /// E-cash wallet.
    pub wallet: Wallet,
    /// Purchases whose outcome is unknown — the reply never arrived, or
    /// the provider failed after it may have deposited the coin. Each
    /// keeps its whole request, coin included;
    /// [`WireClient::settle_parked`](crate::service::WireClient::settle_parked)
    /// re-sends them, and the provider answers each with the license it
    /// issued or issues it now.
    pub parked: Vec<PurchaseRequest>,
    policy: PseudonymPolicy,
    pseudonym_certs: Vec<PseudonymCertificate>,
    attribute_certs: Vec<AttributeCertificate>,
    current_uses: u32,
    licenses: Vec<OwnedLicense>,
}

impl UserAgent {
    /// Builds a user agent around a freshly issued card.
    pub fn new(card: SmartCard, account: impl Into<String>, policy: PseudonymPolicy) -> Self {
        UserAgent {
            user_id: card.user_id(),
            account: account.into(),
            card,
            wallet: Wallet::new(),
            parked: Vec::new(),
            policy,
            pseudonym_certs: Vec::new(),
            attribute_certs: Vec::new(),
            current_uses: 0,
            licenses: Vec::new(),
        }
    }

    /// The (private) real identity.
    pub fn user_id(&self) -> UserId {
        self.user_id
    }

    /// The refresh policy.
    pub fn policy(&self) -> PseudonymPolicy {
        self.policy
    }

    /// Changes the refresh policy.
    pub fn set_policy(&mut self, policy: PseudonymPolicy) {
        self.policy = policy;
    }

    /// Stores a freshly issued pseudonym certificate and makes it current.
    pub fn add_pseudonym(&mut self, cert: PseudonymCertificate) {
        self.pseudonym_certs.push(cert);
        self.current_uses = 0;
    }

    /// The pseudonym certificate to use for the next purchase, or `None`
    /// when the policy demands a fresh one first.
    pub fn current_pseudonym(&self) -> Option<&PseudonymCertificate> {
        let cert = self.pseudonym_certs.last()?;
        match self.policy {
            PseudonymPolicy::FreshPerPurchase if self.current_uses >= 1 => None,
            PseudonymPolicy::ReuseK(k) if self.current_uses >= k => None,
            _ => Some(cert),
        }
    }

    /// Records that the current pseudonym was used once.
    pub fn note_pseudonym_use(&mut self) {
        self.current_uses += 1;
    }

    /// All pseudonym certificates ever issued to this user.
    pub fn pseudonym_certs(&self) -> &[PseudonymCertificate] {
        &self.pseudonym_certs
    }

    /// Stores a blind-issued attribute certificate.
    pub fn add_attribute_cert(&mut self, cert: AttributeCertificate) {
        self.attribute_certs.push(cert);
    }

    /// Finds an attribute credential bound to `pseudonym`, if held.
    pub fn attribute_cert_for(
        &self,
        pseudonym: &KeyId,
        attribute: &str,
    ) -> Option<&AttributeCertificate> {
        self.attribute_certs
            .iter()
            .find(|c| c.attribute == attribute && c.pseudonym_id() == *pseudonym)
    }

    /// Records an acquired license.
    pub fn add_license(&mut self, license: License, pseudonym: KeyId) {
        self.licenses.push(OwnedLicense { license, pseudonym });
    }

    /// Looks up an owned license by id.
    pub fn license(&self, id: &LicenseId) -> Option<&OwnedLicense> {
        self.licenses.iter().find(|l| l.license.id() == *id)
    }

    /// Removes a license (after transferring it away).
    pub fn remove_license(&mut self, id: &LicenseId) -> Option<OwnedLicense> {
        let pos = self.licenses.iter().position(|l| l.license.id() == *id)?;
        Some(self.licenses.remove(pos))
    }

    /// All owned licenses.
    pub fn licenses(&self) -> &[OwnedLicense] {
        &self.licenses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // UserAgent construction needs a SmartCard, which needs an RA; the
    // policy state machine is testable in isolation through a tiny stub.
    fn agent() -> UserAgent {
        use p2drm_crypto::rng::test_rng;
        use p2drm_pki::authority::CertificateAuthority;
        use p2drm_pki::cert::Validity;
        let mut rng = test_rng(140);
        let mut root =
            CertificateAuthority::new_root(512, Validity::new(0, u64::MAX / 2), &mut rng);
        let ra = crate::entities::ra::RegistrationAuthority::new(
            &mut root,
            512,
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        );
        let card = ra
            .register_user(
                UserId::from_label("tester"),
                crate::entities::smartcard::CardBudget::default(),
                &mut rng,
            )
            .unwrap();
        UserAgent::new(card, "acct-tester", PseudonymPolicy::FreshPerPurchase)
    }

    fn dummy_cert(agent: &mut UserAgent, seed: u64) -> PseudonymCertificate {
        use p2drm_crypto::rng::test_rng;
        // A structurally valid (unsigned-garbage) certificate is enough for
        // the policy bookkeeping tests.
        let mut rng = test_rng(seed);
        let group = p2drm_crypto::elgamal::ElGamalGroup::test_512();
        let ttp = p2drm_crypto::elgamal::ElGamalKeyPair::generate(group, &mut rng);
        let body = agent
            .card
            .begin_pseudonym(ttp.public(), 0, &mut rng)
            .unwrap();
        PseudonymCertificate {
            body,
            signature: p2drm_crypto::rsa::RsaSignature::from_ubig(p2drm_bignum::UBig::from_u64(1)),
        }
    }

    #[test]
    fn fresh_policy_requires_new_pseudonym_each_use() {
        let mut a = agent();
        assert!(a.current_pseudonym().is_none(), "no pseudonym yet");
        let c = dummy_cert(&mut a, 141);
        a.add_pseudonym(c);
        assert!(a.current_pseudonym().is_some());
        a.note_pseudonym_use();
        assert!(a.current_pseudonym().is_none(), "fresh policy exhausted");
    }

    #[test]
    fn reuse_k_policy() {
        let mut a = agent();
        a.set_policy(PseudonymPolicy::ReuseK(3));
        let c = dummy_cert(&mut a, 142);
        a.add_pseudonym(c);
        for _ in 0..3 {
            assert!(a.current_pseudonym().is_some());
            a.note_pseudonym_use();
        }
        assert!(a.current_pseudonym().is_none());
    }

    #[test]
    fn static_policy_never_expires() {
        let mut a = agent();
        a.set_policy(PseudonymPolicy::Static);
        let c = dummy_cert(&mut a, 143);
        a.add_pseudonym(c);
        for _ in 0..100 {
            assert!(a.current_pseudonym().is_some());
            a.note_pseudonym_use();
        }
    }

    #[test]
    fn license_bookkeeping() {
        let mut a = agent();
        assert!(a.licenses().is_empty());
        assert!(a.license(&LicenseId::from_label("none")).is_none());
        assert!(a.remove_license(&LicenseId::from_label("none")).is_none());
    }
}
