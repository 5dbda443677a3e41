//! The user's coin wallet: withdrawal (blinding dance with the mint) and
//! spend bookkeeping.

use crate::{Coin, Mint, PaymentError};
use p2drm_crypto::blind::Blinded;
use p2drm_crypto::rng::CryptoRng;

/// Holds withdrawn, not-yet-spent coins.
#[derive(Default)]
pub struct Wallet {
    coins: Vec<Coin>,
}

impl Wallet {
    /// Empty wallet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coins currently held.
    pub fn len(&self) -> usize {
        self.coins.len()
    }

    /// True when no coins are held.
    pub fn is_empty(&self) -> bool {
        self.coins.is_empty()
    }

    /// Total face value held.
    pub fn balance(&self) -> u64 {
        self.coins.iter().map(|c| c.denomination).sum()
    }

    /// Withdraws one coin of `denomination` from `mint`, paying from
    /// `account`. Returns the unblinded coin (also kept in the wallet).
    pub fn withdraw<R: CryptoRng + ?Sized>(
        &mut self,
        mint: &Mint,
        account: &str,
        denomination: u64,
        rng: &mut R,
    ) -> Result<Coin, PaymentError> {
        let pk = mint.public_key(denomination)?;
        let mut serial = [0u8; 32];
        rng.fill_bytes(&mut serial);
        let message = Coin::message_bytes(&serial, denomination);
        let blinded = Blinded::new(pk, &message, rng)?;
        let blind_sig = mint.withdraw(account, denomination, &blinded.blinded)?;
        let signature = blinded.unblind(pk, &blind_sig)?;
        let coin = Coin {
            serial,
            denomination,
            signature,
        };
        self.coins.push(coin.clone());
        Ok(coin)
    }

    /// Takes a coin of exactly `denomination` out of the wallet for
    /// spending, if one is held.
    pub fn take(&mut self, denomination: u64) -> Option<Coin> {
        let idx = self
            .coins
            .iter()
            .position(|c| c.denomination == denomination)?;
        Some(self.coins.swap_remove(idx))
    }

    /// Produces a coin worth at least `amount`: reuses the smallest held
    /// coin that covers it, otherwise withdraws the smallest covering
    /// denomination the mint offers. Fixed-denomination e-cash cannot make
    /// change, so paying 250 with a 500-coin overpays — the paper-era
    /// tradeoff (callers can price at denominations to avoid it).
    pub fn coin_for_amount<R: CryptoRng + ?Sized>(
        &mut self,
        mint: &Mint,
        account: &str,
        amount: u64,
        rng: &mut R,
    ) -> Result<Coin, PaymentError> {
        // Smallest held coin covering the amount.
        if let Some(idx) = self
            .coins
            .iter()
            .enumerate()
            .filter(|(_, c)| c.denomination >= amount)
            .min_by_key(|(_, c)| c.denomination)
            .map(|(i, _)| i)
        {
            return Ok(self.coins.swap_remove(idx));
        }
        // Smallest covering denomination at the mint.
        let denom = mint
            .denominations()
            .into_iter()
            .filter(|&d| d >= amount)
            .min()
            .ok_or(PaymentError::UnknownDenomination(amount))?;
        let coin = self.withdraw(mint, account, denom, rng)?;
        self.take(coin.denomination)
            .ok_or(PaymentError::UnknownDenomination(amount))
    }

    /// Puts an unspent coin back (e.g. after a failed purchase).
    pub fn put_back(&mut self, coin: Coin) {
        self.coins.push(coin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MintConfig;
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn wallet_bookkeeping() {
        let mint = Mint::new(MintConfig::default(), &mut test_rng(110));
        mint.fund_account("u", 2000);
        let mut rng = test_rng(111);
        let mut w = Wallet::new();
        assert!(w.is_empty());
        w.withdraw(&mint, "u", 100, &mut rng).unwrap();
        w.withdraw(&mint, "u", 500, &mut rng).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.balance(), 600);

        assert!(w.take(1000).is_none());
        let c = w.take(500).unwrap();
        assert_eq!(w.balance(), 100);
        w.put_back(c);
        assert_eq!(w.balance(), 600);
    }

    #[test]
    fn withdrawn_coins_have_unique_serials() {
        let mint = Mint::new(MintConfig::default(), &mut test_rng(112));
        mint.fund_account("u", 10_000);
        let mut rng = test_rng(113);
        let mut w = Wallet::new();
        let mut serials = std::collections::HashSet::new();
        for _ in 0..20 {
            let c = w.withdraw(&mint, "u", 100, &mut rng).unwrap();
            assert!(serials.insert(c.serial), "serial collision");
        }
    }

    #[test]
    fn failed_withdraw_leaves_wallet_unchanged() {
        let mint = Mint::new(MintConfig::default(), &mut test_rng(114));
        mint.fund_account("u", 50);
        let mut rng = test_rng(115);
        let mut w = Wallet::new();
        assert!(w.withdraw(&mint, "u", 100, &mut rng).is_err());
        assert!(w.is_empty());
        assert_eq!(mint.balance("u"), 50, "no debit on failure");
    }
}
