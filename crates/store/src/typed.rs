//! Typed views over a [`ConcurrentKv`]: values encode/decode through the
//! canonical codec under a fixed key prefix, giving each logical table its
//! own namespace inside one store. Every method takes the store by `&`, so
//! many threads can use one table.

use crate::{ConcurrentKv, StoreError};
use p2drm_codec::{from_bytes, to_bytes, Decode, Encode};
use std::marker::PhantomData;

/// A typed, prefix-namespaced table inside a [`ConcurrentKv`].
pub struct Table<V> {
    prefix: Vec<u8>,
    _marker: PhantomData<fn() -> V>,
}

impl<V: Encode + Decode> Table<V> {
    /// Creates a table under `prefix` (convention: `"name/"`).
    pub fn new(prefix: impl Into<Vec<u8>>) -> Self {
        Table {
            prefix: prefix.into(),
            _marker: PhantomData,
        }
    }

    fn full_key(&self, key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(self.prefix.len() + key.len());
        k.extend_from_slice(&self.prefix);
        k.extend_from_slice(key);
        k
    }

    /// Reads and decodes.
    pub fn get<C: ConcurrentKv + ?Sized>(
        &self,
        store: &C,
        key: &[u8],
    ) -> Result<Option<V>, StoreError> {
        match store.get(&self.full_key(key)) {
            None => Ok(None),
            Some(bytes) => Ok(Some(from_bytes(&bytes)?)),
        }
    }

    /// Encodes and writes.
    pub fn put<C: ConcurrentKv + ?Sized>(
        &self,
        store: &C,
        key: &[u8],
        value: &V,
    ) -> Result<(), StoreError> {
        store.put(&self.full_key(key), &to_bytes(value))
    }

    /// Deletes; returns whether the key existed.
    pub fn delete<C: ConcurrentKv + ?Sized>(
        &self,
        store: &C,
        key: &[u8],
    ) -> Result<bool, StoreError> {
        store.delete(&self.full_key(key))
    }

    /// Membership test.
    pub fn contains<C: ConcurrentKv + ?Sized>(&self, store: &C, key: &[u8]) -> bool {
        store.contains(&self.full_key(key))
    }

    /// Atomic insert-if-absent (see [`ConcurrentKv::insert_if_absent`]) —
    /// the double-redemption primitive on the provider's hot path.
    pub fn insert_if_absent<C: ConcurrentKv + ?Sized>(
        &self,
        store: &C,
        key: &[u8],
        value: &V,
    ) -> Result<bool, StoreError> {
        store.insert_if_absent(&self.full_key(key), &to_bytes(value))
    }

    /// All `(suffix, value)` pairs in this table, key-ordered.
    pub fn scan<C: ConcurrentKv + ?Sized>(
        &self,
        store: &C,
    ) -> Result<Vec<(Vec<u8>, V)>, StoreError> {
        store
            .scan_prefix(&self.prefix)
            .into_iter()
            .map(|(k, v)| Ok((k[self.prefix.len()..].to_vec(), from_bytes(&v)?)))
            .collect()
    }

    /// Number of rows in this table (scan-based; fine at simulation scale).
    pub fn len<C: ConcurrentKv + ?Sized>(&self, store: &C) -> usize {
        store.scan_prefix(&self.prefix).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemKv;

    #[test]
    fn typed_roundtrip_and_namespacing() {
        let kv = MemKv::new();
        let counts: Table<u64> = Table::new("counts/");
        let names: Table<String> = Table::new("names/");

        counts.put(&kv, b"a", &7).unwrap();
        names.put(&kv, b"a", &"alpha".to_string()).unwrap();

        assert_eq!(counts.get(&kv, b"a").unwrap(), Some(7));
        assert_eq!(names.get(&kv, b"a").unwrap(), Some("alpha".to_string()));
        assert_eq!(counts.get(&kv, b"b").unwrap(), None);
        assert_eq!(counts.len(&kv), 1);
        assert_eq!(names.len(&kv), 1);

        assert!(counts.delete(&kv, b"a").unwrap());
        assert!(!counts.contains(&kv, b"a"));
        assert!(names.contains(&kv, b"a"), "other table untouched");
    }

    #[test]
    fn typed_insert_if_absent() {
        let kv = MemKv::new();
        let spent: Table<u64> = Table::new("spent/");
        assert!(spent.insert_if_absent(&kv, b"lid", &1).unwrap());
        assert!(!spent.insert_if_absent(&kv, b"lid", &2).unwrap());
        assert_eq!(spent.get(&kv, b"lid").unwrap(), Some(1));
    }

    #[test]
    fn typed_scan_strips_prefix() {
        let kv = MemKv::new();
        let t: Table<u32> = Table::new("t/");
        for (k, v) in [(b"x".as_slice(), 1u32), (b"y", 2), (b"z", 3)] {
            t.put(&kv, k, &v).unwrap();
        }
        let rows = t.scan(&kv).unwrap();
        assert_eq!(
            rows,
            vec![(b"x".to_vec(), 1), (b"y".to_vec(), 2), (b"z".to_vec(), 3)]
        );
    }

    #[test]
    fn decode_error_surfaces() {
        let kv = MemKv::new();
        kv.put(b"t/bad", b"\x01").unwrap(); // not a valid u64 encoding
        let t: Table<u64> = Table::new("t/");
        assert!(matches!(t.get(&kv, b"bad"), Err(StoreError::Decode(_))));
    }
}
