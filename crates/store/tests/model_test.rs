//! Model-based testing: arbitrary operation sequences applied to both
//! backends — [`MemKv`], and the durable [`WalShardedKv`] at one shard
//! (the device store) and at eight (the license service), across a
//! reopen (restart) and a compaction at arbitrary points — must behave
//! identically to a plain `BTreeMap<Vec<u8>, Vec<u8>>` through the one
//! store trait.
//!
//! The oracle shares no code with the backends (both sit on the same
//! in-memory index). Keys are 0–3 letters from `abc`, so the empty key
//! occurs and keys are often prefixes of one another — the cases where a
//! row layout that stores key and value together could misorder a scan.
//! A third of the values are one page long or a few bytes more, the size
//! from which `WalShardedKv` keeps a value in its log and only its
//! position in the index, so a key's value crosses that line both ways
//! and positioned rows go through every operation, reopen and compaction
//! included. Their bytes vary along the value, so a position off by one
//! reads back different bytes.

use p2drm_store::{ConcurrentKv, MemKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    InsertIfAbsent(Vec<u8>, Vec<u8>),
    ScanPrefix(Vec<u8>),
    Reopen,
    Compact,
}

fn key() -> impl Strategy<Value = Vec<u8>> {
    "[abc]{0,3}".prop_map(String::into_bytes)
}

/// The value size from which `WalShardedKv` keeps a value in its log.
const PAGE: usize = 4096;

fn value() -> impl Strategy<Value = Vec<u8>> {
    let small = || proptest::collection::vec(any::<u8>(), 0..16);
    let page = (PAGE..PAGE + 3, any::<u8>())
        .prop_map(|(len, seed)| (0..len).map(|i| seed.wrapping_add(i as u8)).collect());
    prop_oneof![small(), small(), page]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key(), value()).prop_map(|(k, v)| Op::Put(k, v)),
        key().prop_map(Op::Delete),
        (key(), value()).prop_map(|(k, v)| Op::InsertIfAbsent(k, v)),
        key().prop_map(Op::ScanPrefix),
        Just(Op::Reopen),
        Just(Op::Compact),
    ]
}

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

fn oracle_scan(oracle: &BTreeMap<Vec<u8>, Vec<u8>>, prefix: &[u8]) -> Pairs {
    oracle
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("p2drm-model-{}-{}", std::process::id(), n));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_backends_equal_a_btreemap_oracle(ops in proptest::collection::vec(op(), 0..60)) {
        for shards in [1, 8] {
            let tmp = TempDir::new();
            let config = WalShardedConfig {
                shards,
                policy: SyncPolicy::Buffered,
            };
            let mut oracle = BTreeMap::<Vec<u8>, Vec<u8>>::new();
            let mem = MemKv::with_shards(shards);
            let (mut wal, _) = WalShardedKv::open(&tmp.0, config).unwrap();

            for o in &ops {
                match o {
                    Op::Put(k, v) => {
                        oracle.insert(k.clone(), v.clone());
                        mem.put(k, v).unwrap();
                        wal.put(k, v).unwrap();
                    }
                    Op::Delete(k) => {
                        let expected = oracle.remove(k).is_some();
                        prop_assert_eq!(mem.delete(k).unwrap(), expected);
                        prop_assert_eq!(wal.delete(k).unwrap(), expected);
                    }
                    Op::InsertIfAbsent(k, v) => {
                        let expected = !oracle.contains_key(k);
                        if expected {
                            oracle.insert(k.clone(), v.clone());
                        }
                        prop_assert_eq!(mem.insert_if_absent(k, v).unwrap(), expected);
                        prop_assert_eq!(wal.insert_if_absent(k, v).unwrap(), expected);
                    }
                    Op::ScanPrefix(p) => {
                        let expected = oracle_scan(&oracle, p);
                        prop_assert_eq!(mem.scan_prefix(p), expected);
                        prop_assert_eq!(wal.scan_prefix(p), expected);
                    }
                    Op::Reopen => {
                        wal.flush().unwrap();
                        drop(wal);
                        let (reopened, report) = WalShardedKv::open(&tmp.0, config).unwrap();
                        prop_assert!(!report.truncated_tail);
                        prop_assert_eq!(report.live_keys, oracle.len());
                        wal = reopened;
                    }
                    Op::Compact => {
                        wal.compact_all().unwrap();
                    }
                }
                prop_assert_eq!(mem.len(), oracle.len());
                prop_assert_eq!(wal.len(), oracle.len());
            }

            // Full-state comparison at the end, point reads included.
            let expected = oracle_scan(&oracle, b"");
            prop_assert_eq!(mem.scan_prefix(b""), expected);
            prop_assert_eq!(wal.scan_prefix(b""), expected);
            for (k, v) in &oracle {
                prop_assert_eq!(mem.get(k), Some(v.clone()));
                prop_assert_eq!(wal.get(k), Some(v.clone()));
            }
            // And after one final reopen.
            wal.flush().unwrap();
            drop(wal);
            let (wal, _) = WalShardedKv::open(&tmp.0, config).unwrap();
            prop_assert_eq!(wal.scan_prefix(b""), expected);
        }
    }
}
