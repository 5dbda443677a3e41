//! Identified payment baseline: a plain account charge that reveals the
//! payer to the merchant — what conventional DRM uses, and the comparator
//! in every cost-of-privacy benchmark.

use crate::PaymentError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

p2drm_codec::record! {
    /// A charge receipt the merchant keeps. Note it names the payer — this is
    /// exactly the linkable record the paper's scheme eliminates.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChargeReceipt {
        /// Payer account (identifying!).
        pub payer: String,
        /// Amount charged.
        pub amount: u64,
        /// Processor-assigned transaction id.
        pub txn_id: u64,
    }
}

/// A toy card-network processor: accounts, balances, charges.
#[derive(Clone, Default)]
pub struct PaymentProcessor {
    inner: Arc<Mutex<ProcessorInner>>,
}

#[derive(Default)]
struct ProcessorInner {
    balances: HashMap<String, u64>,
    next_txn: u64,
    receipts: Vec<ChargeReceipt>,
}

impl PaymentProcessor {
    /// Fresh processor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits an account.
    pub fn fund_account(&self, account: &str, amount: u64) {
        *self
            .inner
            .lock()
            .balances
            .entry(account.to_string())
            .or_insert(0) += amount;
    }

    /// Account balance.
    pub fn balance(&self, account: &str) -> u64 {
        self.inner
            .lock()
            .balances
            .get(account)
            .copied()
            .unwrap_or(0)
    }

    /// Charges `account` by `amount`, returning the identifying receipt.
    pub fn charge(&self, account: &str, amount: u64) -> Result<ChargeReceipt, PaymentError> {
        let mut inner = self.inner.lock();
        let balance = inner
            .balances
            .get_mut(account)
            .ok_or(PaymentError::UnknownAccount)?;
        if *balance < amount {
            return Err(PaymentError::InsufficientFunds {
                balance: *balance,
                requested: amount,
            });
        }
        *balance -= amount;
        inner.next_txn += 1;
        let receipt = ChargeReceipt {
            payer: account.to_string(),
            amount,
            txn_id: inner.next_txn,
        };
        inner.receipts.push(receipt.clone());
        Ok(receipt)
    }

    /// Every receipt ever issued — the processor's (fully linkable) ledger.
    pub fn receipts(&self) -> Vec<ChargeReceipt> {
        self.inner.lock().receipts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_flow() {
        let p = PaymentProcessor::new();
        p.fund_account("alice", 300);
        let r1 = p.charge("alice", 100).unwrap();
        let r2 = p.charge("alice", 100).unwrap();
        assert_eq!(p.balance("alice"), 100);
        assert_eq!(r1.payer, "alice");
        assert_ne!(r1.txn_id, r2.txn_id);
        assert!(matches!(
            p.charge("alice", 500),
            Err(PaymentError::InsufficientFunds { .. })
        ));
        assert!(matches!(
            p.charge("nobody", 1),
            Err(PaymentError::UnknownAccount)
        ));
    }

    #[test]
    fn receipts_link_payer_to_every_purchase() {
        // The baseline's privacy failure, demonstrated: all receipts carry
        // the payer name.
        let p = PaymentProcessor::new();
        p.fund_account("bob", 1000);
        for _ in 0..5 {
            p.charge("bob", 100).unwrap();
        }
        let receipts = p.receipts();
        assert_eq!(receipts.len(), 5);
        assert!(receipts.iter().all(|r| r.payer == "bob"));
    }

    #[test]
    fn receipt_codec_roundtrip() {
        let r = ChargeReceipt {
            payer: "x".into(),
            amount: 5,
            txn_id: 9,
        };
        let bytes = p2drm_codec::to_bytes(&r);
        assert_eq!(p2drm_codec::from_bytes::<ChargeReceipt>(&bytes).unwrap(), r);
    }
}
