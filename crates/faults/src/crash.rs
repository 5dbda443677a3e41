//! Crash-shaped damage to durable state, applied while the store is
//! *down* — the moral equivalent of power loss mid-append.
//!
//! [`p2drm_store::WalShardedKv`] names its shard logs `shard-{i:03}.wal`
//! inside its directory; these helpers reach into that layout the way a
//! real crash would, so restart tests can assert the recovery contract:
//! other shards replay fully, the damaged shard keeps its last durable
//! prefix and drops the torn tail.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

/// File name of shard `index`'s log inside a [`p2drm_store::WalShardedKv`]
/// directory.
pub fn shard_wal_name(index: usize) -> String {
    format!("shard-{index:03}.wal")
}

/// Appends garbage to shard `index`'s WAL in `dir`, simulating a crash
/// mid-append: a frame that started writing but never completed. On
/// restart, replay must keep every record before the tear and discard
/// the tail. Call only while no [`p2drm_store::WalShardedKv`] holds the
/// directory open.
pub fn tear_shard_tail(dir: &Path, index: usize) -> io::Result<()> {
    let path = dir.join(shard_wal_name(index));
    let mut f = OpenOptions::new().append(true).open(&path)?;
    // A plausible partial frame: a length prefix promising more bytes
    // than follow, then a truncated body.
    f.write_all(&[0xFF, 0xFF, 0x00, 0x00, 0xDE, 0xAD, 0xBE])?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_names_match_walsharded_layout() {
        assert_eq!(shard_wal_name(0), "shard-000.wal");
        assert_eq!(shard_wal_name(42), "shard-042.wal");
    }
}
