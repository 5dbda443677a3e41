//! Batch RSA signature verification.
//!
//! A single `e = 65537` verification costs ~19 Montgomery products (16
//! squarings, one multiplication, two form conversions). [`screen_batch`]
//! combines the `k` checks `sᵢ^e ≟ EMᵢ` into one combined check
//!
//! ```text
//! (Π sᵢ)^e  ≟  Π EMᵢ   (mod n)
//! ```
//!
//! — `2(k − 1)` Montgomery products plus a single `e`-th power, so the
//! per-signature cost falls toward a couple of multiplications.
//!
//! This is the Bellare–Garay–Rabin *screening* test: if the batch accepts,
//! then under the RSA assumption every message in it was signed by the key
//! holder at some point. It does **not** bind each signature string to its
//! own message (an adversary holding valid signatures on two distinct
//! messages can swap mauled copies between them), which is exactly the
//! guarantee an authorization check needs: the verifier asks "did the
//! issuer sign this statement?", not "is this particular encoding intact".
//! Screening is only sound for *distinct* messages, so duplicates are
//! automatically routed to individual verification.
//!
//! On a failed combined check the verifier binary-splits the batch,
//! re-checking each half until the offending indices are isolated; size-1
//! groups are verified individually, so the reported indices are exact and
//! every valid signature in the batch is still accepted. The
//! [`BatchReport`] carries the rejected indices and the number of split
//! re-checks.

use crate::rsa::{emsa_pkcs1_v15, RsaPublicKey, RsaSignature};
use p2drm_bignum::{MontForm, UBig};

/// Outcome of a batch verification. The batch as a whole "succeeds" when
/// [`rejected`](Self::rejected) is empty; otherwise every listed index
/// failed its individual check and every other item was still accepted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Indices (into the input slice) whose signatures are invalid.
    pub rejected: Vec<usize>,
    /// Number of combined checks spent isolating failures (0 when the
    /// first screening pass accepted everything).
    pub splits: usize,
    /// Items that skipped the combined check and were verified
    /// individually (duplicate messages, structurally invalid signatures,
    /// too-small batches).
    pub individual: usize,
}

impl BatchReport {
    /// True when every signature in the batch verified.
    pub fn all_valid(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Screens PKCS#1 v1.5 SHA-256 signatures under one public key, folding
/// the outcome into the global batch counters.
///
/// Equivalent in outcome to calling [`RsaPublicKey::verify`] on every
/// `(message, signature)` pair (see the module docs for the exact
/// soundness statement), but `k` items cost roughly `2k` multiplications
/// plus a single `e`-th power instead of `k` of them.
pub fn screen_batch(pk: &RsaPublicKey, items: &[(&[u8], &RsaSignature)]) -> BatchReport {
    let report = screen(pk, items);
    let m = batch_metrics();
    m.batches.inc();
    m.items.add(items.len() as u64);
    m.rejected.add(report.rejected.len() as u64);
    m.splits.add(report.splits as u64);
    m.individual.add(report.individual as u64);
    report
}

/// Process-wide batch-verification counters in the global
/// [`p2drm_obs`] registry. Batch call sites (certificate chains, CRL
/// sync) don't thread a registry handle, so the fold is global: every
/// [`BatchReport`] also lands here. Names are static and values are
/// counts — nothing about *whose* signatures were checked is recorded.
struct BatchMetrics {
    batches: std::sync::Arc<p2drm_obs::Counter>,
    items: std::sync::Arc<p2drm_obs::Counter>,
    rejected: std::sync::Arc<p2drm_obs::Counter>,
    splits: std::sync::Arc<p2drm_obs::Counter>,
    individual: std::sync::Arc<p2drm_obs::Counter>,
}

fn batch_metrics() -> &'static BatchMetrics {
    static METRICS: std::sync::OnceLock<BatchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = p2drm_obs::global();
        BatchMetrics {
            batches: r.counter("crypto_batch_verifies"),
            items: r.counter("crypto_batch_items"),
            rejected: r.counter("crypto_batch_rejected"),
            splits: r.counter("crypto_batch_splits"),
            individual: r.counter("crypto_batch_individual"),
        }
    })
}

struct BatchSource;

impl p2drm_obs::MetricSource for BatchSource {
    fn collect(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let m = batch_metrics();
        out.counter("crypto_batch_verifies", m.batches.get());
        out.counter("crypto_batch_items", m.items.get());
        out.counter("crypto_batch_rejected", m.rejected.get());
        out.counter("crypto_batch_splits", m.splits.get());
        out.counter("crypto_batch_individual", m.individual.get());
    }
}

/// The process-wide batch counters as a registerable
/// [`p2drm_obs::MetricSource`], so a *private* registry (a test, an
/// experiment run) can fold the batch crypto layer into its unified
/// snapshot. The returned `Arc` is a static singleton — weak
/// registrations against it stay live for the process lifetime. The
/// global registry already carries these counters natively; do not
/// register the source there.
pub fn batch_metric_source() -> &'static std::sync::Arc<dyn p2drm_obs::MetricSource + Send + Sync> {
    static SRC: std::sync::OnceLock<std::sync::Arc<dyn p2drm_obs::MetricSource + Send + Sync>> =
        std::sync::OnceLock::new();
    SRC.get_or_init(|| std::sync::Arc::new(BatchSource))
}

fn screen(pk: &RsaPublicKey, items: &[(&[u8], &RsaSignature)]) -> BatchReport {
    let n = pk.modulus();
    let mont = pk.mont();
    let mut report = BatchReport::default();

    // Structural pre-screen: out-of-range signatures and unencodable
    // messages fail individually no matter what, so they never enter the
    // combined check. Screening also needs distinct messages: a duplicate
    // is verified individually (its first occurrence stays in the batch).
    // Batched items get one Montgomery conversion per side, reused across
    // every split round.
    let mut seen = std::collections::HashSet::new();
    let mut batchable: Vec<usize> = Vec::with_capacity(items.len());
    let mut sig_forms: Vec<MontForm> = Vec::with_capacity(items.len());
    let mut em_forms: Vec<MontForm> = Vec::with_capacity(items.len());
    for (i, (msg, sig)) in items.iter().enumerate() {
        let sig = sig.as_ubig();
        let Ok(em_bytes) = emsa_pkcs1_v15(msg, pk.modulus_len()) else {
            report.rejected.push(i);
            continue;
        };
        let em = UBig::from_bytes_be(&em_bytes);
        if sig >= n || &em >= n {
            report.rejected.push(i);
        } else if seen.insert(em_bytes) {
            batchable.push(i);
            sig_forms.push(mont.to_form(sig));
            em_forms.push(mont.to_form(&em));
        } else {
            report.individual += 1;
            if pk.raw_public(sig) != em {
                report.rejected.push(i);
            }
        }
    }

    if !batchable.is_empty() {
        let slots: Vec<usize> = (0..batchable.len()).collect();
        split_verify(
            pk,
            &batchable,
            &sig_forms,
            &em_forms,
            &slots,
            &mut report,
            true,
        );
    }
    report.rejected.sort_unstable();
    report
}

/// Recursive combined check over `slots` (positions into the form arrays);
/// on failure splits in half until individual items are isolated.
fn split_verify(
    pk: &RsaPublicKey,
    batchable: &[usize],
    sig_forms: &[MontForm],
    em_forms: &[MontForm],
    slots: &[usize],
    report: &mut BatchReport,
    first_pass: bool,
) {
    if slots.len() == 1 {
        let s = slots[0];
        report.individual += 1;
        let mont = pk.mont();
        let lhs = pk.raw_public(&mont.from_form(&sig_forms[s]));
        if lhs != mont.from_form(&em_forms[s]) {
            report.rejected.push(batchable[s]);
        }
        return;
    }
    if !first_pass {
        report.splits += 1;
    }
    if combined_check(pk, sig_forms, em_forms, slots) {
        return;
    }
    if first_pass {
        report.splits += 1; // the failed screening pass itself
    }
    let (lo, hi) = slots.split_at(slots.len() / 2);
    split_verify(pk, batchable, sig_forms, em_forms, lo, report, false);
    split_verify(pk, batchable, sig_forms, em_forms, hi, report, false);
}

/// Evaluates `(Π sᵢ)^e == Π EMᵢ` over the selected (two or more) slots.
fn combined_check(
    pk: &RsaPublicKey,
    sig_forms: &[MontForm],
    em_forms: &[MontForm],
    slots: &[usize],
) -> bool {
    let mont = pk.mont();
    let product = |forms: &[MontForm]| {
        slots[1..].iter().fold(forms[slots[0]].clone(), |acc, &s| {
            mont.form_mul(&acc, &forms[s])
        })
    };
    pk.raw_public(&mont.from_form(&product(sig_forms))) == mont.from_form(&product(em_forms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;
    use crate::rsa::RsaKeyPair;

    fn fixture(k: usize) -> (RsaKeyPair, Vec<Vec<u8>>, Vec<RsaSignature>) {
        let mut rng = test_rng(42);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let msgs: Vec<Vec<u8>> = (0..k)
            .map(|i| format!("message {i}").into_bytes())
            .collect();
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| kp.sign(m)).collect();
        (kp, msgs, sigs)
    }

    fn items<'a>(
        msgs: &'a [Vec<u8>],
        sigs: &'a [RsaSignature],
    ) -> Vec<(&'a [u8], &'a RsaSignature)> {
        msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect()
    }

    /// Batch sizes: the smallest, odd ones whose halves split unevenly, a
    /// power of two with both neighbours, and a large one.
    const SIZES: [usize; 7] = [2, 3, 8, 15, 16, 17, 64];

    #[test]
    fn all_valid_batches_accept() {
        let (kp, msgs, sigs) = fixture(64);
        for k in SIZES {
            let r = screen_batch(kp.public(), &items(&msgs[..k], &sigs[..k]));
            assert!(r.all_valid(), "k={k}: {r:?}");
            assert_eq!(r.splits, 0, "k={k}");
            assert_eq!(r.individual, 0, "k={k}");
        }
    }

    #[test]
    fn corrupted_signature_is_pinpointed_rest_accepted() {
        let (kp, msgs, sigs) = fixture(64);
        for k in SIZES {
            for bad in [0, k / 2, k - 1] {
                // Corrupt one index by signing the wrong message.
                let mut sigs = sigs[..k].to_vec();
                sigs[bad] = kp.sign(format!("not message {bad}").as_bytes());
                let r = screen_batch(kp.public(), &items(&msgs[..k], &sigs));
                assert_eq!(r.rejected, vec![bad], "k={k}: {r:?}");
                assert!(r.splits > 0, "failure must have gone through the splitter");
            }
        }
    }

    #[test]
    fn multiple_corruptions_all_identified() {
        let (kp, msgs, mut sigs) = fixture(16);
        for bad in [0usize, 7, 15] {
            sigs[bad] = RsaSignature::from_ubig(sigs[bad].as_ubig() + &UBig::one());
        }
        let r = screen_batch(kp.public(), &items(&msgs, &sigs));
        assert_eq!(r.rejected, vec![0, 7, 15], "{r:?}");
    }

    #[test]
    fn duplicate_messages_fall_back_to_individual() {
        let (kp, msgs, sigs) = fixture(17);
        for k in [4, 17] {
            let (mut msgs, mut sigs) = (msgs[..k].to_vec(), sigs[..k].to_vec());
            msgs[2] = msgs[0].clone();
            sigs[2] = kp.sign(&msgs[2]);
            let r = screen_batch(kp.public(), &items(&msgs, &sigs));
            assert!(r.all_valid(), "k={k}: {r:?}");
            assert_eq!(r.individual, 1, "duplicate must be verified individually");
            // A forged duplicate is caught on the individual path, without
            // a split of the batch it was kept out of.
            sigs[2] = kp.sign(b"something else");
            let r = screen_batch(kp.public(), &items(&msgs, &sigs));
            assert_eq!((r.rejected, r.splits), (vec![2], 0), "k={k}");
        }
    }

    #[test]
    fn out_of_range_signature_rejected_without_poisoning_batch() {
        let (kp, msgs, mut sigs) = fixture(4);
        sigs[1] = RsaSignature::from_ubig(kp.public().modulus() + &UBig::one());
        let r = screen_batch(kp.public(), &items(&msgs, &sigs));
        assert_eq!(r.rejected, vec![1]);
        assert_eq!(r.splits, 0, "structural reject must not trigger splitting");
    }

    #[test]
    fn tiny_batches_verify_individually() {
        let (kp, msgs, sigs) = fixture(1);
        let r = screen_batch(kp.public(), &items(&msgs, &sigs));
        assert!(r.all_valid());
        assert_eq!(r.individual, 1);
        let r = screen_batch(kp.public(), &[]);
        assert!(r.all_valid());
    }
}
