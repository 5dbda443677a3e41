//! The key-ordered in-memory index under both store backends.
//!
//! [`Index`] holds each live pair as **one** heap allocation, a row
//! `[key length: u32 LE][key][value]`, kept in a `BTreeSet` ordered by key.
//! Against a `BTreeMap<Vec<u8>, Vec<u8>>` that saves an allocation per
//! pair and shrinks the tree's slot from a 48-byte `(Vec, Vec)` to a
//! 16-byte boxed slice. On the two rows every sale keeps for good, the
//! provider's `lic/<id>` and the mint's `spent/<serial>`, that is a third
//! of what a sale leaves on the heap (253 → 168 B).
//!
//! Lookups borrow a row as its key slice (`Borrow<[u8]>`), which is sound
//! only because of the one condition this module rests on: **a row's
//! `Ord` equals the `Ord` of its key slice**. Comparing whole rows would
//! be wrong both ways — the length prefix would put `b` before `ab`, and
//! the value bytes would put `a`→`z` after `ab`→`` — so `Ord`, `PartialOrd`
//! and `PartialEq` all compare [`Row::key`] and nothing else.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

const LEN: usize = std::mem::size_of::<u32>();

/// One stored pair in a single allocation: `[key length][key][value]`.
struct Row(Box<[u8]>);

impl Row {
    fn new(key: &[u8], value: &[u8]) -> Row {
        let key_len = u32::try_from(key.len()).expect("store key longer than 4 GiB");
        let mut row = Vec::with_capacity(LEN + key.len() + value.len());
        row.extend_from_slice(&key_len.to_le_bytes());
        row.extend_from_slice(key);
        row.extend_from_slice(value);
        Row(row.into_boxed_slice())
    }

    /// The row as `(key, value)`.
    fn pair(&self) -> (&[u8], &[u8]) {
        let (len, rest) = self.0.split_at(LEN);
        let mut key_len = [0u8; LEN];
        key_len.copy_from_slice(len);
        rest.split_at(u32::from_le_bytes(key_len) as usize)
    }

    fn key(&self) -> &[u8] {
        self.pair().0
    }
}

impl Borrow<[u8]> for Row {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(other.key())
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Row {}

/// Key-ordered set of rows: the map from key to value that
/// [`crate::MemKv`]'s shards and each [`crate::WalShardedKv`] shard hold.
#[derive(Default)]
pub(crate) struct Index {
    rows: BTreeSet<Row>,
}

impl Index {
    /// The value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.rows.get(key).map(|row| row.pair().1)
    }

    /// Inserts or overwrites.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.rows.replace(Row::new(key, value));
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        self.rows.remove(key)
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.rows.contains(key)
    }

    /// Inserts only when `key` is absent; returns whether it did. A
    /// refused claim allocates nothing.
    pub fn insert_if_absent(&mut self, key: &[u8], value: &[u8]) -> bool {
        !self.contains(key) && self.rows.insert(Row::new(key, value))
    }

    /// The pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        self.rows
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .map(Row::pair)
            .take_while(move |(key, _)| key.starts_with(prefix))
    }

    /// Every pair, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.rows.iter().map(Row::pair)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(index: &Index, prefix: &[u8]) -> Vec<Vec<u8>> {
        index.scan_prefix(prefix).map(|(k, _)| k.to_vec()).collect()
    }

    #[test]
    fn rows_sort_by_key_alone() {
        let mut index = Index::default();
        // As concatenated bytes `az` > `ab`, and with the length prefix
        // `[1]b` < `[2]ab`: both orders are wrong for a key-ordered scan.
        index.put(b"ab", b"");
        index.put(b"a", b"z");
        index.put(b"b", b"");
        assert_eq!(keys(&index, b""), [&b"a"[..], b"ab", b"b"]);
        assert_eq!(keys(&index, b"a"), [&b"a"[..], b"ab"]);
        assert_eq!(index.get(b"a"), Some(&b"z"[..]));
        assert_eq!(index.get(b"ab"), Some(&b""[..]));
    }

    #[test]
    fn empty_key_and_empty_value() {
        let mut index = Index::default();
        assert_eq!(index.get(b""), None);
        index.put(b"", b"root");
        index.put(b"k", b"");
        assert_eq!(index.get(b""), Some(&b"root"[..]));
        assert_eq!(index.get(b"k"), Some(&b""[..]));
        assert!(index.contains(b""));
        assert_eq!(keys(&index, b""), [&b""[..], b"k"]);
        assert!(index.remove(b""));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn overwrite_grows_then_shrinks_the_value() {
        let mut index = Index::default();
        index.put(b"k", b"v");
        index.put(b"k", b"a longer value");
        assert_eq!(index.get(b"k"), Some(&b"a longer value"[..]));
        index.put(b"k", b"s");
        assert_eq!(index.get(b"k"), Some(&b"s"[..]));
        assert_eq!(index.len(), 1);
        assert_eq!(index.iter().collect::<Vec<_>>(), [(&b"k"[..], &b"s"[..])]);
    }

    #[test]
    fn remove_then_insert_again() {
        let mut index = Index::default();
        assert!(index.insert_if_absent(b"spent/1", b"first"));
        assert!(!index.insert_if_absent(b"spent/1", b"second"));
        assert_eq!(index.get(b"spent/1"), Some(&b"first"[..]));
        assert!(index.remove(b"spent/1"));
        assert!(!index.remove(b"spent/1"));
        assert!(!index.contains(b"spent/1"));
        assert!(index.insert_if_absent(b"spent/1", b"third"));
        assert_eq!(index.get(b"spent/1"), Some(&b"third"[..]));
        assert_eq!(index.len(), 1);
    }
}
