//! Volatile lock-sharded store for tests, simulation and in-memory serving.
//!
//! [`MemKv`] spreads keys across N independently locked shards by key
//! hash, so concurrent writers touching different keys almost never
//! contend, while `insert_if_absent` stays atomic because the whole
//! check-and-set runs under one shard's write lock. Each shard is an
//! [`Index`]: one heap allocation per stored pair (`[key length][key]
//! [value]`) in a key-ordered set, a 16-byte tree slot plus the row's
//! 4 + key + value bytes. For the same layout made durable — N per-shard
//! WALs with group commit — use the sibling [`crate::WalShardedKv`],
//! which routes keys identically.

use crate::index::{Index, Value};
use crate::{fnv1a, ConcurrentKv, StoreError};
use parking_lot::RwLock;

/// In-memory ordered KV store, partitioned into independently locked
/// shards.
pub struct MemKv {
    shards: Vec<RwLock<Index>>,
}

impl Default for MemKv {
    fn default() -> Self {
        Self::new()
    }
}

impl MemKv {
    /// Empty single-shard store.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Empty store with `shards` independently locked shards.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "MemKv needs at least one shard");
        MemKv {
            shards: (0..shards).map(|_| RwLock::new(Index::default())).collect(),
        }
    }

    fn route(&self, key: &[u8]) -> &RwLock<Index> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Live keys per shard, in shard order.
    #[cfg(test)]
    pub(crate) fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }
}

impl ConcurrentKv for MemKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.route(key)
            .read()
            .get(key)
            .and_then(Value::inline)
            .map(<[u8]>::to_vec)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.route(key).write().put(key, Value::Inline(value));
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        Ok(self.route(key).write().remove(key))
    }

    /// The check and the insert run under one hold of the shard's write
    /// lock, never a racy contains-then-put, so exactly one of N racing
    /// callers wins.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        Ok(self
            .route(key)
            .write()
            .insert_if_absent(key, Value::Inline(value)))
    }

    /// Globally key-ordered: per-shard scans are merged and sorted.
    /// Shards are scanned one at a time (no consistent global snapshot —
    /// fine for the metrics/restore paths that use it).
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .read()
                    .scan_prefix(prefix)
                    .filter_map(|(k, v)| Some((k.to_vec(), v.inline()?.to_vec()))),
            );
        }
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.route(key).read().contains(key)
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crud() {
        let kv = MemKv::new();
        assert!(kv.is_empty());
        kv.put(b"k1", b"v1").unwrap();
        kv.put(b"k1", b"v2").unwrap(); // overwrite
        assert_eq!(kv.get(b"k1"), Some(b"v2".to_vec()));
        assert_eq!(kv.len(), 1);
        assert!(kv.delete(b"k1").unwrap());
        assert!(!kv.delete(b"k1").unwrap());
        assert_eq!(kv.get(b"k1"), None);
    }

    #[test]
    fn prefix_scan_ordered_and_bounded() {
        let kv = MemKv::new();
        for k in ["a/1", "a/2", "a/30", "b/1", ""] {
            kv.put(k.as_bytes(), b"x").unwrap();
        }
        let hits = kv.scan_prefix(b"a/");
        let keys: Vec<_> = hits
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(keys, vec!["a/1", "a/2", "a/30"]);
        // Empty prefix scans everything in order.
        assert_eq!(kv.scan_prefix(b"").len(), 5);
        // Prefix past everything is empty.
        assert!(kv.scan_prefix(b"zzz").is_empty());
    }

    #[test]
    fn insert_if_absent_semantics() {
        let kv = MemKv::new();
        assert!(kv.insert_if_absent(b"spent/42", b"a").unwrap());
        assert!(!kv.insert_if_absent(b"spent/42", b"b").unwrap());
        // Original value preserved on refusal.
        assert_eq!(kv.get(b"spent/42"), Some(b"a".to_vec()));
    }

    #[test]
    fn concurrent_insert_if_absent_single_winner() {
        // Exactly one of N racing redeemers may win — the paper's
        // double-redemption guarantee under concurrency.
        let kv = std::sync::Arc::new(MemKv::new());
        let handles: Vec<_> = (0..8u8)
            .map(|i| {
                let kv = kv.clone();
                std::thread::spawn(move || kv.insert_if_absent(b"unique-license-id", &[i]).unwrap())
            })
            .collect();
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn routes_are_stable_and_cover_shards() {
        let kv = MemKv::with_shards(8);
        for i in 0..256u32 {
            kv.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                .unwrap();
        }
        assert_eq!(kv.len(), 256);
        // Keys spread across more than one shard.
        let populated = kv.shard_lens().into_iter().filter(|&n| n > 0).count();
        assert!(populated > 1, "only {populated} shard(s) populated");
        for i in 0..256u32 {
            assert_eq!(
                kv.get(format!("k/{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec())
            );
        }
    }

    #[test]
    fn scan_prefix_is_globally_ordered() {
        let kv = MemKv::with_shards(4);
        for k in ["t/c", "t/a", "t/b", "u/x"] {
            kv.put(k.as_bytes(), b"v").unwrap();
        }
        let keys: Vec<_> = kv
            .scan_prefix(b"t/")
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["t/a", "t/b", "t/c"]);
    }

    #[test]
    fn concurrent_insert_if_absent_single_winner_per_key() {
        let kv = std::sync::Arc::new(MemKv::with_shards(8));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for k in 0..32u32 {
                    if kv
                        .insert_if_absent(format!("spent/{k}").as_bytes(), &[t])
                        .unwrap()
                    {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 32, "each key won exactly once across all threads");
        assert_eq!(kv.len(), 32);
    }

    #[test]
    fn delete_and_contains_route_consistently() {
        let kv = MemKv::with_shards(3);
        kv.put(b"k", b"v").unwrap();
        assert!(kv.contains(b"k"));
        assert!(kv.delete(b"k").unwrap());
        assert!(!kv.delete(b"k").unwrap());
        assert!(kv.is_empty());
    }
}
