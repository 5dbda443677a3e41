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
use crate::service::{ApiError, ApiErrorCode};
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_payment::Mint;

/// Client half of an anonymous purchase: quote → pay (coin withdrawal
/// with the mint) → request → settle. A failure either returns the coin
/// (the provider refused before the deposit) or parks the request on the
/// agent (the deposit may have happened).
pub struct PurchaseSession {
    /// The request to send — kept whole, because re-sending it is how a
    /// parked purchase settles.
    request: PurchaseRequest,
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
    ) -> Result<Self, CoreError> {
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
        Ok(Self::resume(PurchaseRequest {
            content_id: meta.id,
            pseudonym_cert,
            coin,
            attribute_cert,
        }))
    }

    /// Picks up a parked request to send it again.
    pub(crate) fn resume(request: PurchaseRequest) -> Self {
        PurchaseSession { request }
    }

    /// The request to send; the session keeps it until the reply settles.
    pub fn request(&self) -> &PurchaseRequest {
        &self.request
    }

    /// Settles a successful purchase: bookkeeping on the agent, returns
    /// the license.
    pub fn finish(self, user: &mut UserAgent, response: PurchaseResponse) -> License {
        let pseudonym = self.request.pseudonym_cert.pseudonym_id();
        user.add_license(response.license.clone(), pseudonym);
        response.license
    }

    /// Settles a refused purchase. The provider runs every check before
    /// the deposit, and answers a replay of a request it already charged
    /// before any of them, so a refusal by pseudonym, catalogue, price,
    /// attribute or coin signature — on a first send or a re-send —
    /// leaves the coin unspent and it goes back to the wallet.
    /// `DoubleSpend` means another request spent it.
    /// Anything else — a storage or internal failure after the deposit,
    /// a busy shed that followed an unanswered attempt — may have
    /// charged the coin, so the request is parked.
    pub fn abort(self, user: &mut UserAgent, error: &ApiError) {
        match error.code {
            ApiErrorCode::BadPseudonym
            | ApiErrorCode::UnknownContent
            | ApiErrorCode::InsufficientFunds
            | ApiErrorCode::Payment => user.wallet.put_back(self.request.coin),
            ApiErrorCode::DoubleSpend => {}
            _ => self.park(user),
        }
    }

    /// Parks the request after an outcome that leaves the deposit
    /// unknown, for
    /// [`WireClient::settle_parked`](crate::service::WireClient::settle_parked).
    pub fn park(self, user: &mut UserAgent) {
        user.parked.push(self.request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WireError;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

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
    fn no_funds_fails_before_anything_is_sent() {
        let mut rng = test_rng(173);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        let res = sys.purchase(&mut alice, cid, &mut rng);
        assert!(matches!(res, Err(WireError::Client(CoreError::Payment(_)))));
        assert!(alice.licenses().is_empty());
    }
}
