//! The mint: blind coin issuance against an account ledger and deposit
//! with double-spend detection. Per coin it keeps only the
//! `spent/<serial>` row a deposit writes; a withdrawal moves the balance
//! and a counter, and nothing of the blinded value is kept.

use crate::{Coin, PaymentError};
use p2drm_bignum::UBig;
use p2drm_crypto::blind;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, SignatureCheck};
use p2drm_store::{ConcurrentKv, MemKv};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

struct MintInner {
    keys: HashMap<u64, RsaKeyPair>,
    ledger: Mutex<HashMap<String, u64>>,
    spent: Box<dyn ConcurrentKv + Send + Sync>,
    withdrawals: AtomicU64,
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
                withdrawals: AtomicU64::new(0),
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

    /// Withdrawal: blind-signs the submitted value and debits `account`
    /// by `denomination`. The mint never sees the serial inside
    /// `blinded`, and keeps nothing of it.
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
        // Signed before the ledger moves: a value the key refuses (one
        // not below the modulus) costs the account nothing.
        let signature = blind::blind_sign(kp, blinded)?;
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
        self.inner.withdrawals.fetch_add(1, Ordering::Relaxed);
        Ok(signature)
    }

    /// Signature half of a deposit: checks the coin under its
    /// denomination key without touching the spent store. Pure and
    /// side-effect free, so a caller can finish every check of a request
    /// before its first side effect and commit with [`Self::deposit_for`]
    /// or [`Self::deposit_prechecked`] afterwards.
    pub fn check_coin(&self, coin: &Coin) -> Result<(), PaymentError> {
        let check = self.coin_check(coin)?;
        let (key, signature) = check.lane();
        check.finish(&key.raw_public(signature))
    }

    /// A coin's check split around its public-key operation, for a
    /// caller that runs that operation in a batch of its own: an
    /// unknown denomination, or a signature not below the key's
    /// modulus, is refused at once.
    pub fn coin_check<'a>(&'a self, coin: &'a Coin) -> Result<CoinCheck<'a>, PaymentError> {
        let key = self.public_key(coin.denomination)?;
        let message = Coin::message_bytes(&coin.serial, coin.denomination);
        SignatureCheck::fdh(key, &message, &coin.signature)
            .map(CoinCheck)
            .map_err(|_| PaymentError::BadCoin)
    }

    /// Spent-marking half of a deposit. The coin's signature MUST have
    /// been validated with [`Self::check_coin`] first; this method only
    /// enforces the exactly-once serial rule: one deposit per serial ever
    /// succeeds, by the atomic [`ConcurrentKv::insert_if_absent`] of the
    /// spent-serial store.
    pub fn deposit_prechecked(&self, coin: &Coin) -> Result<(), PaymentError> {
        if self.claim(coin, &[])? {
            Ok(())
        } else {
            Err(PaymentError::DoubleSpend)
        }
    }

    /// [`Self::deposit_prechecked`] that records `memo` (the provider
    /// passes the license id the coin pays for) in the serial's spent
    /// row. `Ok(true)` is a fresh deposit; `Ok(false)` means the serial
    /// was already deposited under this same memo — a replay of one
    /// payment, counted once. Any other occupant is a double spend.
    pub fn deposit_for(&self, coin: &Coin, memo: &[u8; 16]) -> Result<bool, PaymentError> {
        if self.claim(coin, memo)? {
            Ok(true)
        } else if self.spent_memo(&coin.serial).as_deref() == Some(memo) {
            Ok(false)
        } else {
            Err(PaymentError::DoubleSpend)
        }
    }

    /// The memo `serial`'s spent row holds, or `None` while the coin is
    /// unspent: one read of the row [`Self::deposit_for`] claims.
    pub fn spent_memo(&self, serial: &[u8; 32]) -> Option<Vec<u8>> {
        self.inner.spent.get(&spent_key(serial))
    }

    /// Inserts the serial's spent row holding `memo`, counting the
    /// deposit; `false` when the serial was already spent.
    fn claim(&self, coin: &Coin, memo: &[u8]) -> Result<bool, PaymentError> {
        let fresh = self
            .inner
            .spent
            .insert_if_absent(&spent_key(&coin.serial), memo)?;
        if fresh {
            *self.inner.deposited_total.lock() += coin.denomination;
        }
        Ok(fresh)
    }

    /// Total value deposited so far.
    pub fn deposited_total(&self) -> u64 {
        *self.inner.deposited_total.lock()
    }

    /// Number of spent serials recorded.
    pub fn spent_count(&self) -> usize {
        self.inner.spent.len()
    }

    /// Coins withdrawn so far.
    pub fn withdrawal_count(&self) -> usize {
        self.inner.withdrawals.load(Ordering::Relaxed) as usize
    }
}

/// A coin's signature check waiting for its public-key operation
/// ([`Mint::coin_check`]).
pub struct CoinCheck<'a>(SignatureCheck<'a>);

impl<'a> CoinCheck<'a> {
    /// The public-key operation to run: the coin's signature under its
    /// denomination key.
    pub fn lane(&self) -> (&'a RsaPublicKey, &'a UBig) {
        self.0.lane()
    }

    /// The verdict, given the operation's result: `BadCoin` unless the
    /// signature is the mint's.
    pub fn finish(&self, power: &UBig) -> Result<(), PaymentError> {
        self.0.finish(power).map_err(|_| PaymentError::BadCoin)
    }
}

fn spent_key(serial: &[u8; 32]) -> Vec<u8> {
    [b"spent/".as_slice(), serial].concat()
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
        m.check_coin(&coin).unwrap();
        m.deposit_prechecked(&coin).unwrap();
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
        m.deposit_prechecked(&coin).unwrap();
        assert_eq!(m.deposit_prechecked(&coin), Err(PaymentError::DoubleSpend));
        assert_eq!(m.deposited_total(), 100, "second deposit adds nothing");
    }

    #[test]
    fn a_memo_makes_a_replay_of_one_payment_count_once() {
        let m = mint();
        m.fund_account("alice", 100);
        let coin = Wallet::new()
            .withdraw(&m, "alice", 100, &mut test_rng(108))
            .unwrap();
        assert_eq!(m.spent_memo(&coin.serial), None);
        assert_eq!(m.deposit_for(&coin, &[1; 16]), Ok(true));
        assert_eq!(m.spent_memo(&coin.serial), Some(vec![1; 16]));
        assert_eq!(m.deposit_for(&coin, &[1; 16]), Ok(false), "replay");
        assert_eq!(m.deposited_total(), 100, "counted once");
        assert_eq!(
            m.deposit_for(&coin, &[2; 16]),
            Err(PaymentError::DoubleSpend)
        );
        assert_eq!(m.deposit_prechecked(&coin), Err(PaymentError::DoubleSpend));
    }

    #[test]
    fn concurrent_double_spend_single_winner() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(104);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();

        // Each racer pays for a different license: one payment wins.
        let handles: Vec<_> = (0..8u8)
            .map(|i| {
                let m = m.clone();
                let coin = coin.clone();
                std::thread::spawn(move || m.deposit_for(&coin, &[i; 16]).is_ok())
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
        assert_eq!(m.deposit_for(&coin, &[1; 16]), Ok(true));
        drop(m);

        let m = open();
        assert_eq!(m.spent_count(), 1);
        assert_eq!(m.spent_memo(&coin.serial), Some(vec![1; 16]));
        assert_eq!(
            m.deposit_for(&coin, &[2; 16]),
            Err(PaymentError::DoubleSpend)
        );
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
        assert_eq!(m.check_coin(&forged), Err(PaymentError::BadCoin));
    }

    #[test]
    fn a_withdrawal_request_never_contains_the_serial() {
        // Unlinkability witness: the serial the merchant sees at deposit
        // appears nowhere in what the mint receives at withdrawal.
        let m = mint();
        m.fund_account("alice", 500);
        let mut rng = test_rng(105);
        let pk = m.public_key(500).unwrap();
        let mut serial = [0u8; 32];
        rng.fill_bytes(&mut serial);
        let blinded =
            blind::Blinded::new(pk, &Coin::message_bytes(&serial, 500), &mut rng).unwrap();
        let blind_sig = m.withdraw("alice", 500, &blinded.blinded).unwrap();
        let coin = Coin {
            serial,
            denomination: 500,
            signature: blinded.unblind(pk, &blind_sig).unwrap(),
        };
        assert!(coin.verify(pk));
        assert_eq!(m.withdrawal_count(), 1);
        assert!(
            !p2drm_pki_free_contains(&blinded.blinded.to_bytes_be(), &coin.serial),
            "serial leaked into the withdrawal request"
        );
    }

    #[test]
    fn a_refused_blinded_value_costs_the_account_nothing() {
        let m = mint();
        m.fund_account("alice", 500);
        let modulus = m.public_key(100).unwrap().modulus().clone();
        for blinded in [modulus.clone(), &modulus + &UBig::one()] {
            assert_eq!(
                m.withdraw("alice", 100, &blinded),
                Err(PaymentError::Crypto(
                    p2drm_crypto::CryptoError::BadCiphertext
                ))
            );
        }
        assert_eq!(m.balance("alice"), 500);
        assert_eq!(m.withdrawal_count(), 0);
    }

    /// Local subslice check (avoids a dependency just for the test).
    fn p2drm_pki_free_contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }
}
