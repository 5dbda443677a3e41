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
//! A row need not hold its value. When the top bit of the length word is
//! set, the row is `[key length | IN_LOG][key][offset: u64 LE][length:
//! u32 LE]`: the value is `length` bytes at `offset` in the shard's log
//! file ([`Value::InLog`]). Only a [`crate::WalShardedKv`] shard writes
//! such rows, for values of at least [`crate::walkv::IN_LOG_BYTES`], and
//! it reads them back from the log; [`crate::MemKv`] stores every value
//! inline. The index trusts the position it is given: the shard pushes
//! the value's frame to the OS before it puts the row (flush before
//! index), and reads it back without re-checking its CRC (see
//! [`crate::walkv`]). Keys are therefore under 2 GiB, one bit short of
//! the length word.
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

/// Set in a row's length word when its value lives in the log.
const IN_LOG: u32 = 1 << 31;

/// A position in the log: the row's tail when [`IN_LOG`] is set.
const POSITION: usize = std::mem::size_of::<u64>() + std::mem::size_of::<u32>();

/// Where a stored value is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Value<'a> {
    /// In the row.
    Inline(&'a [u8]),
    /// `len` bytes at file offset `at` in the shard's log.
    InLog { at: u64, len: u32 },
}

impl<'a> Value<'a> {
    /// The value when the row holds it. [`crate::MemKv`] writes no other
    /// kind, so this is all of its values.
    pub fn inline(self) -> Option<&'a [u8]> {
        match self {
            Value::Inline(bytes) => Some(bytes),
            Value::InLog { .. } => None,
        }
    }
}

/// One stored pair in a single allocation: `[key length][key][value]`, or
/// `[key length | IN_LOG][key][offset][length]`.
struct Row(Box<[u8]>);

impl Row {
    fn new(key: &[u8], value: Value<'_>) -> Row {
        let key_len = u32::try_from(key.len())
            .ok()
            .filter(|len| len & IN_LOG == 0)
            .expect("store key longer than 2 GiB");
        let (flag, tail) = match value {
            Value::Inline(bytes) => (0, bytes.len()),
            Value::InLog { .. } => (IN_LOG, POSITION),
        };
        let mut row = Vec::with_capacity(LEN + key.len() + tail);
        row.extend_from_slice(&(key_len | flag).to_le_bytes());
        row.extend_from_slice(key);
        match value {
            Value::Inline(bytes) => row.extend_from_slice(bytes),
            Value::InLog { at, len } => {
                row.extend_from_slice(&at.to_le_bytes());
                row.extend_from_slice(&len.to_le_bytes());
            }
        }
        Row(row.into_boxed_slice())
    }

    /// The row as `(key, value)`.
    fn pair(&self) -> (&[u8], Value<'_>) {
        let (word, rest) = self.0.split_at(LEN);
        let mut bytes = [0u8; LEN];
        bytes.copy_from_slice(word);
        let word = u32::from_le_bytes(bytes);
        let (key, tail) = rest.split_at((word & !IN_LOG) as usize);
        if word & IN_LOG == 0 {
            return (key, Value::Inline(tail));
        }
        let (at, len) = tail.split_at(std::mem::size_of::<u64>());
        let mut at_bytes = [0u8; 8];
        at_bytes.copy_from_slice(at);
        let mut len_bytes = [0u8; LEN];
        len_bytes.copy_from_slice(len);
        let value = Value::InLog {
            at: u64::from_le_bytes(at_bytes),
            len: u32::from_le_bytes(len_bytes),
        };
        (key, value)
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
    pub fn get(&self, key: &[u8]) -> Option<Value<'_>> {
        self.rows.get(key).map(|row| row.pair().1)
    }

    /// Inserts or overwrites.
    pub fn put(&mut self, key: &[u8], value: Value<'_>) {
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
    pub fn insert_if_absent(&mut self, key: &[u8], value: Value<'_>) -> bool {
        !self.contains(key) && self.rows.insert(Row::new(key, value))
    }

    /// The pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], Value<'a>)> {
        self.rows
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .map(Row::pair)
            .take_while(move |(key, _)| key.starts_with(prefix))
    }

    /// Every pair, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Value<'_>)> {
        self.rows.iter().map(Row::pair)
    }

    /// Gives the in-log rows, in key order, the offsets `moved` yields
    /// (a compacted log holds the same values at new offsets). Rows move
    /// into the rebuilt set; none is copied.
    ///
    /// # Panics
    /// Panics when `moved` yields fewer offsets than there are in-log rows.
    pub fn relocate(&mut self, moved: impl IntoIterator<Item = u64>) {
        let mut moved = moved.into_iter();
        let rows = std::mem::take(&mut self.rows);
        self.rows = rows
            .into_iter()
            .map(|mut row| {
                if let (key, Value::InLog { .. }) = row.pair() {
                    let from = LEN + key.len();
                    let at = moved.next().expect("an offset for every in-log row");
                    row.0[from..from + 8].copy_from_slice(&at.to_le_bytes());
                }
                row
            })
            .collect();
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
        index.put(b"ab", Value::Inline(b""));
        index.put(b"a", Value::Inline(b"z"));
        index.put(b"b", Value::Inline(b""));
        assert_eq!(keys(&index, b""), [&b"a"[..], b"ab", b"b"]);
        assert_eq!(keys(&index, b"a"), [&b"a"[..], b"ab"]);
        assert_eq!(index.get(b"a"), Some(Value::Inline(b"z")));
        assert_eq!(index.get(b"ab"), Some(Value::Inline(b"")));
    }

    #[test]
    fn empty_key_and_empty_value() {
        let mut index = Index::default();
        assert_eq!(index.get(b""), None);
        index.put(b"", Value::Inline(b"root"));
        index.put(b"k", Value::Inline(b""));
        assert_eq!(index.get(b""), Some(Value::Inline(b"root")));
        assert_eq!(index.get(b"k"), Some(Value::Inline(b"")));
        assert!(index.contains(b""));
        assert_eq!(keys(&index, b""), [&b""[..], b"k"]);
        assert!(index.remove(b""));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn overwrite_grows_then_shrinks_the_value() {
        let mut index = Index::default();
        index.put(b"k", Value::Inline(b"v"));
        index.put(b"k", Value::Inline(b"a longer value"));
        assert_eq!(index.get(b"k"), Some(Value::Inline(b"a longer value")));
        index.put(b"k", Value::Inline(b"s"));
        assert_eq!(index.get(b"k"), Some(Value::Inline(b"s")));
        assert_eq!(index.len(), 1);
        assert_eq!(
            index.iter().collect::<Vec<_>>(),
            [(&b"k"[..], Value::Inline(b"s"))]
        );
    }

    #[test]
    fn remove_then_insert_again() {
        let mut index = Index::default();
        assert!(index.insert_if_absent(b"spent/1", Value::Inline(b"first")));
        assert!(!index.insert_if_absent(b"spent/1", Value::Inline(b"second")));
        assert_eq!(index.get(b"spent/1"), Some(Value::Inline(b"first")));
        assert!(index.remove(b"spent/1"));
        assert!(!index.remove(b"spent/1"));
        assert!(!index.contains(b"spent/1"));
        assert!(index.insert_if_absent(b"spent/1", Value::Inline(b"third")));
        assert_eq!(index.get(b"spent/1"), Some(Value::Inline(b"third")));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn in_log_rows_hold_a_position_and_sort_by_key_alone() {
        let mut index = Index::default();
        let far = Value::InLog {
            at: u64::MAX - 1,
            len: u32::MAX,
        };
        index.put(b"b", Value::Inline(b"inline"));
        index.put(b"ab", far);
        index.put(b"a", Value::InLog { at: 8, len: 4096 });
        assert_eq!(keys(&index, b""), [&b"a"[..], b"ab", b"b"]);
        assert_eq!(index.get(b"ab"), Some(far));
        assert_eq!(index.get(b"ab").and_then(Value::inline), None);
        // In log and back: an overwrite changes where the value is.
        index.put(b"b", Value::InLog { at: 0, len: 9 });
        assert_eq!(index.get(b"b"), Some(Value::InLog { at: 0, len: 9 }));
        index.put(b"b", Value::Inline(b""));
        assert_eq!(index.get(b"b"), Some(Value::Inline(b"")));
        assert!(!index.insert_if_absent(b"a", Value::Inline(b"x")));
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn relocate_moves_in_log_rows_in_key_order() {
        let mut index = Index::default();
        index.put(b"c", Value::InLog { at: 300, len: 5 });
        index.put(b"b", Value::Inline(b"stays"));
        index.put(b"a", Value::InLog { at: 100, len: 7 });
        index.relocate([1, 3]);
        assert_eq!(index.get(b"a"), Some(Value::InLog { at: 1, len: 7 }));
        assert_eq!(index.get(b"b"), Some(Value::Inline(b"stays")));
        assert_eq!(index.get(b"c"), Some(Value::InLog { at: 3, len: 5 }));
        assert_eq!(keys(&index, b""), [&b"a"[..], b"b", b"c"]);
    }
}
