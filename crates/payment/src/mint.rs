//! The mint: blind coin issuance against an account ledger, deposit with
//! double-spend detection, and an auditable withdrawal transcript used by
//! the unlinkability tests.

use crate::{Coin, PaymentError};
use p2drm_bignum::UBig;
use p2drm_crypto::blind;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use p2drm_store::{ConcurrentKv, MemKv};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Mint construction parameters.
#[derive(Clone, Debug)]
pub struct MintConfig {
    /// RSA modulus bits for denomination keys.
    pub key_bits: usize,
    /// Supported denominations (minor units).
    pub denominations: Vec<u64>,
}

impl Default for MintConfig {
    fn default() -> Self {
        MintConfig {
            key_bits: 512,
            denominations: vec![100, 500, 1000],
        }
    }
}

/// One entry of the mint's withdrawal transcript: everything the mint ever
/// learns at withdrawal time.
#[derive(Clone, Debug)]
pub struct WithdrawalRecord {
    /// The paying account.
    pub account: String,
    /// The denomination.
    pub denomination: u64,
    /// The blinded value the mint signed (uniformly random to the mint).
    pub blinded: UBig,
}

struct MintInner {
    keys: HashMap<u64, RsaKeyPair>,
    ledger: Mutex<HashMap<String, u64>>,
    spent: Box<dyn ConcurrentKv + Send + Sync>,
    transcript: Mutex<Vec<WithdrawalRecord>>,
    deposited_total: Mutex<u64>,
}

/// Shareable mint handle.
#[derive(Clone)]
pub struct Mint {
    inner: Arc<MintInner>,
}

impl Mint {
    /// Creates a mint with a volatile spent-serial store.
    pub fn new<R: CryptoRng + ?Sized>(config: MintConfig, rng: &mut R) -> Self {
        Self::with_store(config, MemKv::new(), rng)
    }

    /// Creates a mint over a caller-provided spent-serial store (use a
    /// [`p2drm_store::WalShardedKv`] for durability across restarts).
    pub fn with_store<R: CryptoRng + ?Sized>(
        config: MintConfig,
        store: impl ConcurrentKv + Send + Sync + 'static,
        rng: &mut R,
    ) -> Self {
        let mut keys = HashMap::new();
        for &d in &config.denominations {
            keys.insert(d, RsaKeyPair::generate(config.key_bits, rng));
        }
        Mint {
            inner: Arc::new(MintInner {
                keys,
                ledger: Mutex::new(HashMap::new()),
                spent: Box::new(store),
                transcript: Mutex::new(Vec::new()),
                deposited_total: Mutex::new(0),
            }),
        }
    }

    /// Public verification key for a denomination.
    pub fn public_key(&self, denomination: u64) -> Result<&RsaPublicKey, PaymentError> {
        self.inner
            .keys
            .get(&denomination)
            .map(|kp| kp.public())
            .ok_or(PaymentError::UnknownDenomination(denomination))
    }

    /// The denominations this mint issues, ascending.
    pub fn denominations(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.inner.keys.keys().copied().collect();
        d.sort_unstable();
        d
    }

    /// Credits an account (out-of-band funding).
    pub fn fund_account(&self, account: &str, amount: u64) {
        *self
            .inner
            .ledger
            .lock()
            .entry(account.to_string())
            .or_insert(0) += amount;
    }

    /// Account balance.
    pub fn balance(&self, account: &str) -> u64 {
        self.inner.ledger.lock().get(account).copied().unwrap_or(0)
    }

    /// Withdrawal: debits `account` by `denomination` and blind-signs the
    /// submitted value. The mint never sees the serial inside `blinded`.
    pub fn withdraw(
        &self,
        account: &str,
        denomination: u64,
        blinded: &UBig,
    ) -> Result<UBig, PaymentError> {
        let kp = self
            .inner
            .keys
            .get(&denomination)
            .ok_or(PaymentError::UnknownDenomination(denomination))?;
        {
            let mut ledger = self.inner.ledger.lock();
            let balance = ledger
                .get_mut(account)
                .ok_or(PaymentError::UnknownAccount)?;
            if *balance < denomination {
                return Err(PaymentError::InsufficientFunds {
                    balance: *balance,
                    requested: denomination,
                });
            }
            *balance -= denomination;
        }
        self.inner.transcript.lock().push(WithdrawalRecord {
            account: account.to_string(),
            denomination,
            blinded: blinded.clone(),
        });
        Ok(blind::blind_sign(kp, blinded)?)
    }

    /// Deposit: verifies the coin and marks its serial spent.
    ///
    /// Exactly one deposit per serial ever succeeds — enforced by the
    /// atomic [`ConcurrentKv::insert_if_absent`] of the spent-serial store.
    pub fn deposit(&self, coin: &Coin) -> Result<(), PaymentError> {
        self.check_coin(coin)?;
        self.deposit_prechecked(coin)
    }

    /// Signature-only half of [`Self::deposit`]: checks the coin under
    /// its denomination key without touching the spent store. Pure and
    /// side-effect free, so a caller can finish every check of a request
    /// before its first side effect (the provider's purchase path) and
    /// commit with [`Self::deposit_prechecked`] afterwards.
    pub fn check_coin(&self, coin: &Coin) -> Result<(), PaymentError> {
        let key = self.public_key(coin.denomination)?;
        if !coin.verify(key) {
            return Err(PaymentError::BadCoin);
        }
        Ok(())
    }

    /// Spent-marking half of [`Self::deposit`]. The coin's signature
    /// MUST have been validated with [`Self::check_coin`] first; this
    /// method only enforces the exactly-once serial rule.
    pub fn deposit_prechecked(&self, coin: &Coin) -> Result<(), PaymentError> {
        let mut spent_key = Vec::with_capacity(38);
        spent_key.extend_from_slice(b"spent/");
        spent_key.extend_from_slice(&coin.serial);
        let fresh = self.inner.spent.insert_if_absent(&spent_key, &[])?;
        if !fresh {
            return Err(PaymentError::DoubleSpend);
        }
        *self.inner.deposited_total.lock() += coin.denomination;
        Ok(())
    }

    /// Whether a coin serial has been deposited — the reconciliation
    /// query for ambiguously-spent coins: a wallet holding a coin whose
    /// purchase reply was lost asks here before deciding between
    /// re-spending (serial unknown → the deposit never happened) and
    /// discarding (serial spent → re-spending would double-spend). The
    /// serial is 32 unguessable random bytes only its withdrawer knows,
    /// so the query leaks nothing to third parties.
    pub fn is_spent(&self, serial: &[u8; 32]) -> bool {
        let mut spent_key = Vec::with_capacity(38);
        spent_key.extend_from_slice(b"spent/");
        spent_key.extend_from_slice(serial);
        self.inner.spent.contains(&spent_key)
    }

    /// Total value deposited so far.
    pub fn deposited_total(&self) -> u64 {
        *self.inner.deposited_total.lock()
    }

    /// Number of spent serials recorded.
    pub fn spent_count(&self) -> usize {
        self.inner.spent.len()
    }

    /// Snapshot of the withdrawal transcript (what an adversarial mint
    /// would data-mine when trying to link deposits to accounts).
    pub fn withdrawal_transcript(&self) -> Vec<WithdrawalRecord> {
        self.inner.transcript.lock().clone()
    }

    /// Coins withdrawn so far: the transcript's length, without copying it.
    pub fn withdrawal_count(&self) -> usize {
        self.inner.transcript.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wallet;
    use p2drm_crypto::rng::test_rng;

    fn mint() -> Mint {
        Mint::new(MintConfig::default(), &mut test_rng(100))
    }

    #[test]
    fn fund_withdraw_deposit_cycle() {
        let m = mint();
        m.fund_account("alice", 1000);
        let mut rng = test_rng(101);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        assert_eq!(m.balance("alice"), 900);
        assert!(coin.verify(m.public_key(100).unwrap()));
        m.deposit(&coin).unwrap();
        assert_eq!(m.deposited_total(), 100);
        assert_eq!(m.spent_count(), 1);
    }

    #[test]
    fn insufficient_funds_and_unknown_account() {
        let m = mint();
        m.fund_account("bob", 50);
        let mut rng = test_rng(102);
        let mut wallet = Wallet::new();
        assert!(matches!(
            wallet.withdraw(&m, "bob", 100, &mut rng),
            Err(PaymentError::InsufficientFunds {
                balance: 50,
                requested: 100
            })
        ));
        assert!(matches!(
            wallet.withdraw(&m, "carol", 100, &mut rng),
            Err(PaymentError::UnknownAccount)
        ));
        assert!(matches!(
            wallet.withdraw(&m, "bob", 77, &mut rng),
            Err(PaymentError::UnknownDenomination(77))
        ));
    }

    #[test]
    fn double_spend_rejected() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(103);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        m.deposit(&coin).unwrap();
        assert_eq!(m.deposit(&coin), Err(PaymentError::DoubleSpend));
        assert_eq!(m.deposited_total(), 100, "second deposit adds nothing");
    }

    #[test]
    fn concurrent_double_spend_single_winner() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(104);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();

        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                let coin = coin.clone();
                std::thread::spawn(move || m.deposit(&coin).is_ok())
            })
            .collect();
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn spent_serials_survive_a_mint_restart_over_a_durable_store() {
        use p2drm_store::{WalShardedConfig, WalShardedKv};
        let dir = std::env::temp_dir().join(format!("p2drm-mint-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let (store, _) = WalShardedKv::open(&dir, WalShardedConfig::default()).unwrap();
            // Same seed, same denomination keys: the restarted mint.
            Mint::with_store(MintConfig::default(), store, &mut test_rng(106))
        };
        let m = open();
        m.fund_account("alice", 100);
        let coin = Wallet::new()
            .withdraw(&m, "alice", 100, &mut test_rng(107))
            .unwrap();
        m.deposit(&coin).unwrap();
        drop(m);

        let m = open();
        assert_eq!(m.spent_count(), 1);
        assert_eq!(m.deposit(&coin), Err(PaymentError::DoubleSpend));
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_coin_rejected() {
        let m = mint();
        let forged = Coin {
            serial: [7; 32],
            denomination: 100,
            signature: p2drm_crypto::rsa::RsaSignature::from_ubig(UBig::from_u64(12345)),
        };
        assert_eq!(m.deposit(&forged), Err(PaymentError::BadCoin));
    }

    #[test]
    fn transcript_never_contains_serial() {
        // Unlinkability witness: the serial the merchant sees at deposit
        // appears nowhere in what the mint recorded at withdrawal.
        let m = mint();
        m.fund_account("alice", 500);
        let mut rng = test_rng(105);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 500, &mut rng).unwrap();
        assert_eq!(m.withdrawal_count(), 1);
        assert_eq!(m.withdrawal_transcript().len(), 1);
        for rec in m.withdrawal_transcript() {
            let blinded_bytes = rec.blinded.to_bytes_be();
            assert!(
                !p2drm_pki_free_contains(&blinded_bytes, &coin.serial),
                "serial leaked into withdrawal transcript"
            );
        }
    }

    /// Local subslice check (avoids a dependency just for the test).
    fn p2drm_pki_free_contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }
}
