//! Bounded, sharded signature-verification cache.
//!
//! Every protocol entry point that accepts a certificate pays an RSA
//! exponentiation to check its signature — and under load the *same*
//! certificate arrives over and over (a pseudonym buying several items, a
//! provider cert checked by every device, CRL envelopes re-verified per
//! sync). [`VerifyCache`] remembers **successful** verifications so N
//! requests presenting the same bytes pay for one exponentiation.
//!
//! # Coherence
//!
//! Only the *signature* result is cached, never the surrounding policy
//! decisions: callers must keep running their cheap structural checks
//! (revocation lists, validity windows, epoch freshness) on every request.
//! On top of that, the cache key is the SHA-256 of
//! `certificate bytes ‖ verifying-key fingerprint ‖ epoch bucket`, so a
//! cached success from one epoch bucket can never answer for another —
//! entries age out of reach as time advances even if eviction never
//! touches them. Failures are not cached (an attacker could otherwise
//! poison a key with garbage insertions, and failed verifications are not
//! a hot path).
//!
//! # Shape
//!
//! Fixed shard count (keyed by the first key byte), each shard an
//! independently locked map with **LRU-ish sampled eviction**: when a full
//! shard takes an insert, a small sample of entries is probed and the
//! least-recently-used of the sample is evicted — O(sample) instead of a
//! full scan, approximating LRU the way Redis does. Hand-rolled on `std`
//! only (offline environment, no external dependencies).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shards in every cache (keyed by the first key byte).
const SHARDS: usize = 8;

/// Entries probed per eviction; the oldest of the sample is evicted.
const EVICTION_SAMPLE: usize = 16;

/// Monotonic hit/miss/insert/evict counters, cheap to snapshot — the sim
/// and experiments report these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache (RSA verify skipped).
    pub hits: u64,
    /// Lookups that fell through to a real verification.
    pub misses: u64,
    /// Successful verifications recorded.
    pub insertions: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
}

struct Shard {
    /// key -> last-use stamp (shard-local logical clock).
    entries: HashMap<[u8; 32], u64>,
    clock: u64,
}

/// The cache. All methods take `&self`; shards lock independently.
pub struct VerifyCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for VerifyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyCache")
            .field("capacity", &(self.per_shard * SHARDS))
            .field("counters", &self.counters())
            .finish()
    }
}

impl Default for VerifyCache {
    /// A moderately sized cache (2048 entries ≈ 64 KiB of keys).
    fn default() -> Self {
        VerifyCache::new(2048)
    }
}

impl VerifyCache {
    /// Cache bounded to roughly `capacity` entries across all shards.
    /// `capacity == 0` disables caching entirely (every lookup misses,
    /// inserts are dropped) — the ablation/comparison configuration.
    pub fn new(capacity: usize) -> Self {
        VerifyCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            per_shard: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// True when the cache can hold entries at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// Builds a cache key: SHA-256 over the length-prefixed `parts`
    /// (length prefixes prevent ambiguity between part boundaries).
    /// Conventionally `parts` is `[certificate bytes, verifying-key
    /// fingerprint, epoch-bucket bytes]`.
    pub fn key(parts: &[&[u8]]) -> [u8; 32] {
        let mut h = p2drm_crypto::sha256::Sha256::new();
        for part in parts {
            h.update(&(part.len() as u64).to_le_bytes());
            h.update(part);
        }
        h.finalize()
    }

    fn shard(&self, key: &[u8; 32]) -> &Mutex<Shard> {
        &self.shards[key[0] as usize % SHARDS]
    }

    /// Looks up a previous *successful* verification under `key`,
    /// refreshing its recency on a hit.
    pub fn check(&self, key: &[u8; 32]) -> bool {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut shard = self.shard(key).lock().expect("vcache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.entries.get_mut(key) {
            Some(s) => {
                *s = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records a successful verification under `key`, evicting the
    /// least-recently-used of a small sample when the shard is full.
    pub fn insert(&self, key: [u8; 32]) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard(&key).lock().expect("vcache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        if shard.entries.len() >= self.per_shard && !shard.entries.contains_key(&key) {
            // LRU-ish: probe a bounded sample, evict its oldest entry.
            if let Some(victim) = shard
                .entries
                .iter()
                .take(EVICTION_SAMPLE)
                .min_by_key(|(_, &s)| s)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, stamp);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience wrapper: consult the cache, run `verify` on a miss,
    /// record a success. `verify`'s error passes through untouched.
    pub fn verify_with<E>(
        &self,
        key: [u8; 32],
        verify: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), E> {
        if self.check(&key) {
            return Ok(());
        }
        verify()?;
        self.insert(key);
        Ok(())
    }

    /// Snapshot of the monotonic counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Current number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("vcache shard poisoned").entries.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(b: u8) -> [u8; 32] {
        VerifyCache::key(&[&[b]])
    }

    #[test]
    fn miss_then_hit() {
        let c = VerifyCache::new(64);
        let k = key_of(1);
        assert!(!c.check(&k));
        c.insert(k);
        assert!(c.check(&k));
        let counters = c.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.insertions, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = VerifyCache::new(0);
        let k = key_of(2);
        assert!(!c.is_enabled());
        c.insert(k);
        assert!(!c.check(&k));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_bounded_with_eviction() {
        let c = VerifyCache::new(16); // 2 per shard
        for b in 0..=255u8 {
            c.insert(key_of(b));
        }
        assert!(c.len() <= 16, "len {} exceeds capacity", c.len());
        assert!(c.counters().evictions > 0);
    }

    #[test]
    fn recently_used_survive_eviction_pressure() {
        let c = VerifyCache::new(2 * SHARDS); // 2 entries per shard
        let hot = key_of(0);
        c.insert(hot);
        // Keep `hot` fresh while hammering its shard with cold keys: the
        // sampled eviction must always pick the stale cold entry.
        let mut same_shard = Vec::new();
        for b in 1..=255u8 {
            let k = key_of(b);
            if k[0] % SHARDS as u8 == hot[0] % SHARDS as u8 {
                same_shard.push(k);
            }
        }
        for k in same_shard.iter().take(6) {
            assert!(c.check(&hot), "hot entry evicted under LRU-ish policy");
            c.insert(*k);
        }
        assert!(c.check(&hot), "hot entry evicted despite constant use");
        assert!(c.len() <= 2 * SHARDS);
    }

    #[test]
    fn verify_with_skips_on_hit_and_propagates_errors() {
        let c = VerifyCache::new(64);
        let k = key_of(9);
        let mut calls = 0;
        assert!(c
            .verify_with::<()>(k, || {
                calls += 1;
                Ok(())
            })
            .is_ok());
        assert!(c
            .verify_with::<()>(k, || {
                calls += 1;
                Ok(())
            })
            .is_ok());
        assert_eq!(calls, 1, "second verification must come from the cache");
        let bad = key_of(10);
        assert_eq!(c.verify_with(bad, || Err("boom")), Err("boom"));
        assert!(!c.check(&bad), "failures must not be cached");
    }

    #[test]
    fn key_parts_are_unambiguous() {
        assert_ne!(
            VerifyCache::key(&[b"ab", b"c"]),
            VerifyCache::key(&[b"a", b"bc"])
        );
        assert_ne!(VerifyCache::key(&[b"ab"]), VerifyCache::key(&[b"ab", b""]));
    }
}
