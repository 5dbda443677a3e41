//! Anonymous purchase — the paper's headline protocol (T1).
//!
//! The user withdraws an anonymous coin, presents a pseudonym certificate
//! and the coin over a pseudonymous channel, and receives an anonymous
//! license bound to the pseudonym key. The provider learns *what* was
//! bought and that the buyer is legitimate — never *who*.

use crate::content::ContentMeta;
use crate::entities::user::UserAgent;
use crate::license::License;
use crate::protocol::messages::{PurchaseRequest, PurchaseResponse};
use crate::service::ApiError;
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_payment::Mint;
use p2drm_pki::cert::KeyId;

/// Client half of an anonymous purchase: quote → pay (coin withdrawal
/// with the mint) → request → settle, with coin recovery on non-payment
/// failures.
pub struct PurchaseSession {
    /// The withdrawn coin, kept so [`PurchaseSession::abort`] can return
    /// it to the wallet (the rest of the request needs no unwinding).
    coin: p2drm_payment::Coin,
    pseudonym: KeyId,
}

impl PurchaseSession {
    /// Builds the purchase request from a catalog quote: attaches the
    /// current pseudonym, a covering coin, and the attribute credential
    /// when the item demands one.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        mint: &Mint,
        meta: &ContentMeta,
        rng: &mut R,
    ) -> Result<(Self, PurchaseRequest), CoreError> {
        let pseudonym_cert = user
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("no usable pseudonym (policy)"))?
            .clone();
        let attribute_cert = match &meta.required_attribute {
            None => None,
            Some(attr) => Some(
                user.attribute_cert_for(&pseudonym_cert.pseudonym_id(), attr)
                    .ok_or(CoreError::BadPseudonym(
                        "attribute credential required but not held for this pseudonym",
                    ))?
                    .clone(),
            ),
        };
        let account = user.account.clone();
        let coin = user
            .wallet
            .coin_for_amount(mint, &account, meta.price, rng)?;
        let request = PurchaseRequest {
            content_id: meta.id,
            pseudonym_cert,
            coin,
            attribute_cert,
        };
        Ok((
            PurchaseSession {
                coin: request.coin.clone(),
                pseudonym: request.pseudonym_cert.pseudonym_id(),
            },
            request,
        ))
    }

    /// Settles a successful purchase: bookkeeping on the agent, returns
    /// the license.
    pub fn finish(self, user: &mut UserAgent, response: PurchaseResponse) -> License {
        user.note_pseudonym_use();
        user.add_license(response.license.clone(), self.pseudonym);
        response.license
    }

    /// Unwinds a failed purchase: the withdrawn coin goes back to the
    /// wallet unless the failure was a payment error (the mint consumed
    /// or rejected the coin — re-spending it would double-spend).
    pub fn abort(self, user: &mut UserAgent, error: &ApiError) {
        if !error.code.is_payment() {
            user.wallet.put_back(self.coin);
        }
    }

    /// Parks the coin after an **ambiguous** outcome — the request went
    /// out but no decodable answer came back, so the provider may or may
    /// not have deposited the coin. It moves to the wallet's pending
    /// pool: not spendable (that could double-spend), not lost (the
    /// wallet reconciles it later).
    pub fn park(self, user: &mut UserAgent) {
        user.wallet.park(self.coin);
    }

    /// Returns the coin to the spendable wallet after a failure that
    /// **provably never reached the service**
    /// ([`TransportError::definitely_unsent`](crate::service::TransportError::definitely_unsent)): nothing was deposited,
    /// so re-spending cannot double-spend.
    pub fn recover(self, user: &mut UserAgent) {
        user.wallet.put_back(self.coin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{Party, Transcript};
    use crate::ids::ContentId;
    use crate::service::{ApiErrorCode, WireError};
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn purchase_yields_valid_license_bound_to_pseudonym() {
        let mut rng = test_rng(170);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);

        let mut t = Transcript::new();
        let license = sys
            .purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
            .unwrap();

        assert!(license.verify(sys.provider.public_key()).is_ok());
        let cert = alice.pseudonym_certs().last().unwrap();
        assert_eq!(
            p2drm_pki::cert::KeyId::of_rsa(&license.body.holder),
            cert.pseudonym_id()
        );
        assert_eq!(alice.licenses().len(), 1);
        // Catalogue quote and purchase, a request and a reply each.
        assert_eq!(t.message_count(), 4);
    }

    #[test]
    fn provider_receives_no_identity_bytes() {
        // The paper's core privacy claim, checked against actual wire bytes.
        let mut rng = test_rng(171);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);

        let mut t = Transcript::new();
        sys.purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
            .unwrap();

        assert!(t.bytes_received_by(Party::Provider) > 0);
        assert!(!t.scan_for(Party::Provider, alice.user_id().as_bytes()));
        assert!(!t.scan_for(Party::Provider, alice.account.as_bytes()));
        let master_modulus = alice.card.master_public().modulus().to_bytes_be();
        assert!(!t.scan_for(Party::Provider, &master_modulus));
    }

    #[test]
    fn purchase_without_pseudonym_fails() {
        // `System::purchase` tops the pseudonym up first; the session
        // itself refuses to build a request without one.
        let mut rng = test_rng(172);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);
        let meta = sys.provider.content_meta(&cid).unwrap();
        let res = PurchaseSession::begin(&mut alice, &sys.mint, &meta, &mut rng);
        assert!(matches!(res, Err(CoreError::BadPseudonym(_))));
        assert!(alice.wallet.is_empty(), "no coin withdrawn");
    }

    #[test]
    fn unknown_content_and_no_funds_fail_cleanly() {
        let mut rng = test_rng(173);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();

        let res = sys.purchase(&mut alice, ContentId::from_label("ghost"), &mut rng);
        assert!(
            matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::UnknownContent),
            "{res:?}"
        );

        // No funding: withdrawal fails before anything is sent.
        let res = sys.purchase(&mut alice, cid, &mut rng);
        assert!(matches!(res, Err(WireError::Client(CoreError::Payment(_)))));
        assert!(alice.licenses().is_empty());
    }

    #[test]
    fn stale_pseudonym_epoch_rejected() {
        let mut rng = test_rng(174);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        // Advance past the epoch window.
        for _ in 0..10 {
            sys.advance_epoch();
        }
        let res = sys.purchase(&mut alice, cid, &mut rng);
        assert!(
            matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::BadPseudonym),
            "{res:?}"
        );
    }
}
