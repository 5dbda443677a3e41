//! Adversarial tooling: the honest-but-curious provider profiling users
//! from the purchase requests it receives (E7), and byte-level
//! [`corruption`] helpers for fuzzing the wire service.
//!
//! The provider keeps no purchase log, so its view is what arrives: each
//! `purchase` payload a recording transport logged on its way to the
//! provider, decoded as a [`PurchaseRequest`] (pseudonym key id, content
//! id), plus the epoch it arrived in. Its best profiling move is to group
//! those requests by pseudonym — pseudonym reuse is what creates linkable
//! profiles. This module runs a population under a given refresh policy
//! and scores how much of each user's history the provider can
//! reconstruct.

use p2drm_core::audit::Party;
use p2drm_core::entities::user::PseudonymPolicy;
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::service::OpCode;
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::{Transcript, UserId};
use p2drm_pki::cert::KeyId;
use rand::Rng;
use std::collections::HashMap;

/// The purchase requests `transcript` shows reaching the provider, in
/// arrival order.
pub fn purchases_received(transcript: &Transcript) -> impl Iterator<Item = PurchaseRequest> + '_ {
    transcript
        .entries()
        .iter()
        .filter(|e| e.to == Party::Provider && e.label == OpCode::Purchase.label())
        .map(|e| p2drm_codec::from_bytes(&e.bytes).expect("a recorded purchase payload decodes"))
}

/// Linkability scores for one policy run.
#[derive(Clone, Debug)]
pub struct LinkabilityReport {
    /// Policy label ("fresh", "reuse4", "static", ...).
    pub policy: String,
    /// Users simulated.
    pub users: usize,
    /// Purchases made in total.
    pub purchases: usize,
    /// Distinct pseudonyms the provider observed.
    pub pseudonyms_seen: usize,
    /// Mean fraction of a user's purchases inside their largest linkable
    /// cluster (1.0 = full profile reconstructable, 1/k = only k-sized
    /// fragments).
    pub mean_max_cluster_fraction: f64,
    /// Mean linkable-profile length (purchases per pseudonym).
    pub mean_profile_len: f64,
    /// Mean anonymity-set size per purchase: users active in the same
    /// epoch the purchase happened (indistinguishable under fresh
    /// pseudonyms).
    pub mean_anonymity_set: f64,
}

/// Runs `purchases_per_user` purchases for `users` users under `policy`
/// and scores the provider's linking power.
pub fn linkability_experiment<R: Rng>(
    policy: PseudonymPolicy,
    users: usize,
    purchases_per_user: usize,
    rng: &mut R,
) -> LinkabilityReport {
    let mut sys = System::bootstrap(SystemConfig::fast_test(), rng);
    let catalog: Vec<_> = (0..8)
        .map(|i| sys.publish_content(&format!("c{i}"), 100, b"x", rng))
        .collect();

    // The provider's view: (pseudonym, epoch) per purchase it received.
    let mut received: Vec<(KeyId, u32)> = Vec::new();
    // Ground truth: pseudonym -> user.
    let mut truth: HashMap<KeyId, UserId> = HashMap::new();
    let mut epoch_users: HashMap<u32, Vec<UserId>> = HashMap::new();

    let mut agents = Vec::with_capacity(users);
    for i in 0..users {
        let mut agent = sys.register_user(&format!("user-{i}"), rng).unwrap();
        agent.set_policy(policy);
        sys.fund(&agent, 100 * purchases_per_user as u64);
        agents.push(agent);
    }

    for round in 0..purchases_per_user {
        for agent in agents.iter_mut() {
            let cid = catalog[rng.gen_range(0..catalog.len())];
            let mut t = Transcript::new();
            sys.purchase_with_transcript(agent, cid, rng, &mut t)
                .expect("funded purchase");
            received.extend(
                purchases_received(&t).map(|req| (req.pseudonym_cert.pseudonym_id(), sys.epoch())),
            );
            // Record ground truth for the pseudonym actually used.
            let used = agent.licenses().last().unwrap().pseudonym;
            truth.insert(used, agent.user_id());
            epoch_users
                .entry(sys.epoch())
                .or_default()
                .push(agent.user_id());
        }
        // Epoch advances between rounds (coarse time).
        if round % 2 == 1 {
            sys.advance_epoch();
        }
    }

    score(
        &policy_label(policy),
        &received,
        &truth,
        &epoch_users,
        users,
    )
}

fn policy_label(policy: PseudonymPolicy) -> String {
    match policy {
        PseudonymPolicy::FreshPerPurchase => "fresh".to_string(),
        PseudonymPolicy::ReuseK(k) => format!("reuse{k}"),
        PseudonymPolicy::Static => "static".to_string(),
    }
}

fn score(
    label: &str,
    received: &[(KeyId, u32)],
    truth: &HashMap<KeyId, UserId>,
    epoch_users: &HashMap<u32, Vec<UserId>>,
    users: usize,
) -> LinkabilityReport {
    // Cluster requests by pseudonym (the provider's only link handle).
    let mut clusters: HashMap<KeyId, usize> = HashMap::new();
    for (pseudonym, _) in received {
        *clusters.entry(*pseudonym).or_insert(0) += 1;
    }

    // Per-user: total purchases and the largest cluster belonging to them.
    let mut per_user_total: HashMap<UserId, usize> = HashMap::new();
    let mut per_user_max_cluster: HashMap<UserId, usize> = HashMap::new();
    for (pseudonym, size) in &clusters {
        if let Some(user) = truth.get(pseudonym) {
            *per_user_total.entry(*user).or_insert(0) += size;
            let max = per_user_max_cluster.entry(*user).or_insert(0);
            if *size > *max {
                *max = *size;
            }
        }
    }
    let mean_max_cluster_fraction = if per_user_total.is_empty() {
        0.0
    } else {
        per_user_total
            .iter()
            .map(|(u, total)| per_user_max_cluster[u] as f64 / *total as f64)
            .sum::<f64>()
            / per_user_total.len() as f64
    };

    let mean_profile_len = if clusters.is_empty() {
        0.0
    } else {
        received.len() as f64 / clusters.len() as f64
    };

    // Anonymity set: distinct users active in the purchase's epoch.
    let mean_anonymity_set = if received.is_empty() {
        0.0
    } else {
        received
            .iter()
            .map(|(_, epoch)| {
                epoch_users
                    .get(epoch)
                    .map(|v| {
                        let mut u = v.clone();
                        u.sort_unstable();
                        u.dedup();
                        u.len()
                    })
                    .unwrap_or(1) as f64
            })
            .sum::<f64>()
            / received.len() as f64
    };

    LinkabilityReport {
        policy: label.to_string(),
        users,
        purchases: received.len(),
        pseudonyms_seen: clusters.len(),
        mean_max_cluster_fraction,
        mean_profile_len,
        mean_anonymity_set,
    }
}

/// Byte-level corruptions an adversarial (or faulty) peer might put on
/// the wire. The robustness suite feeds these to
/// `ProviderService::handle`, which must answer every one with a
/// well-formed error response — no panics, no wedged shards.
pub mod corruption {
    /// Every strict prefix of `bytes` (all truncation points, including
    /// the empty message).
    pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..bytes.len()).map(move |n| bytes[..n].to_vec())
    }

    /// `bytes` with one bit flipped (empty input comes back unchanged —
    /// there is no bit to flip).
    pub fn flip_bit(bytes: &[u8], index: usize, bit: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if !out.is_empty() {
            let i = index % out.len();
            out[i] ^= 1 << (bit % 8);
        }
        out
    }

    /// Deterministic single-bit-flip sweep: every bit of every byte for
    /// short messages, a stride-sampled subset (still touching the
    /// header and the tail) for long ones. At most ~`cap` variants.
    pub fn bit_flips(bytes: &[u8], cap: usize) -> Vec<Vec<u8>> {
        let total_bits = bytes.len() * 8;
        let stride = (total_bits / cap.max(1)).max(1);
        (0..total_bits)
            .step_by(stride)
            .map(|b| flip_bit(bytes, b / 8, (b % 8) as u8))
            .collect()
    }

    /// `bytes` with the envelope version byte replaced.
    pub fn with_version(bytes: &[u8], version: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if let Some(v) = out.first_mut() {
            *v = version;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn corruption_helpers_cover_the_message() {
        let msg = [0xAAu8; 16];
        assert_eq!(corruption::truncations(&msg).count(), 16);
        let flips = corruption::bit_flips(&msg, 1000);
        assert_eq!(flips.len(), 128, "short messages get every bit");
        for f in &flips {
            assert_eq!(f.len(), msg.len());
            assert_ne!(f.as_slice(), msg.as_slice());
        }
        let capped = corruption::bit_flips(&msg, 32);
        assert!(capped.len() <= 43, "stride sampling bounds the sweep");
        assert_eq!(corruption::with_version(&msg, 9)[0], 9);
    }

    #[test]
    fn fresh_policy_fragments_profiles() {
        let mut rng = test_rng(260);
        let r = linkability_experiment(PseudonymPolicy::FreshPerPurchase, 4, 3, &mut rng);
        assert_eq!(r.purchases, 12);
        assert_eq!(r.pseudonyms_seen, 12, "one pseudonym per purchase");
        assert!((r.mean_profile_len - 1.0).abs() < 1e-9);
        assert!(r.mean_max_cluster_fraction <= 0.34, "profiles fragmented");
    }

    #[test]
    fn static_policy_exposes_full_profiles() {
        let mut rng = test_rng(261);
        let r = linkability_experiment(PseudonymPolicy::Static, 4, 3, &mut rng);
        assert_eq!(r.purchases, 12);
        assert_eq!(r.pseudonyms_seen, 4, "one pseudonym per user");
        assert!((r.mean_max_cluster_fraction - 1.0).abs() < 1e-9);
        assert!((r.mean_profile_len - 3.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_k_sits_between() {
        let mut rng = test_rng(262);
        let fresh = linkability_experiment(PseudonymPolicy::FreshPerPurchase, 3, 4, &mut rng);
        let reuse2 = linkability_experiment(PseudonymPolicy::ReuseK(2), 3, 4, &mut rng);
        let stat = linkability_experiment(PseudonymPolicy::Static, 3, 4, &mut rng);
        assert!(fresh.mean_max_cluster_fraction <= reuse2.mean_max_cluster_fraction);
        assert!(reuse2.mean_max_cluster_fraction <= stat.mean_max_cluster_fraction);
    }
}
