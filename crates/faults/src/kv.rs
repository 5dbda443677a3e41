//! Store-layer fault wrapper.

use crate::plan::FaultPlan;
use p2drm_store::{ConcurrentKv, StoreError};
use std::sync::Arc;
use std::time::Duration;

/// Injection sites [`FaultKv`] consults.
pub mod sites {
    /// `put` fails with an injected I/O error (write not applied).
    pub const FAIL_PUT: &str = "kv.fail_put";
    /// `insert_if_absent` fails with an injected I/O error.
    pub const FAIL_INSERT: &str = "kv.fail_insert";
    /// `flush` fails with an injected I/O error.
    pub const FAIL_FLUSH: &str = "kv.fail_flush";
    /// Writes stall briefly before committing — a slow disk, not a
    /// broken one.
    pub const SLOW_COMMIT: &str = "kv.slow_commit";
}

/// How long a [`sites::SLOW_COMMIT`] stall lasts.
const SLOW_COMMIT_STALL: Duration = Duration::from_millis(1);

/// Fault-injecting wrapper around any [`ConcurrentKv`]. Failed writes
/// are rejected *before* reaching the inner store, so an injected error
/// means the mutation was definitely not applied (fail-stop, matching
/// [`p2drm_store::WalShardedKv`]'s discipline). With every site at
/// [`crate::Schedule::Never`] it is pass-through.
pub struct FaultKv<S: ConcurrentKv> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: ConcurrentKv> FaultKv<S> {
    /// Wraps `inner`, consulting `plan` at the [`sites`].
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        FaultKv { inner, plan }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn stall_if_slow(&self) {
        if self.plan.decide(sites::SLOW_COMMIT) {
            std::thread::sleep(SLOW_COMMIT_STALL);
        }
    }
}

fn injected(what: &str) -> StoreError {
    std::io::Error::other(format!("injected: {what}")).into()
}

impl<S: ConcurrentKv> ConcurrentKv for FaultKv<S> {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.plan.decide(sites::FAIL_PUT) {
            return Err(injected("put failure"));
        }
        self.stall_if_slow();
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.stall_if_slow();
        self.inner.delete(key)
    }

    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        if self.plan.decide(sites::FAIL_INSERT) {
            return Err(injected("insert failure"));
        }
        self.stall_if_slow();
        self.inner.insert_if_absent(key, value)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.inner.contains(key)
    }

    fn flush(&self) -> Result<(), StoreError> {
        if self.plan.decide(sites::FAIL_FLUSH) {
            return Err(injected("flush failure"));
        }
        self.inner.flush()
    }

    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        self.inner.collect_metrics(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;
    use p2drm_store::MemKv;

    #[test]
    fn passthrough_when_unconfigured() {
        let kv = FaultKv::new(MemKv::new(), Arc::new(FaultPlan::new(1)));
        kv.put(b"a", b"1").unwrap();
        assert!(kv.insert_if_absent(b"b", b"2").unwrap());
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(kv.len(), 2);
        kv.flush().unwrap();
        assert!(kv.delete(b"a").unwrap());
    }

    #[test]
    fn injected_put_failure_is_fail_stop() {
        let plan = Arc::new(FaultPlan::new(1).with(sites::FAIL_PUT, Schedule::OneShot(2)));
        let kv = FaultKv::new(MemKv::new(), plan);
        kv.put(b"a", b"1").unwrap();
        assert!(kv.put(b"a", b"2").is_err(), "second put injected to fail");
        assert_eq!(
            kv.get(b"a"),
            Some(b"1".to_vec()),
            "failed write not applied"
        );
        kv.put(b"a", b"3").unwrap();
        assert_eq!(kv.get(b"a"), Some(b"3".to_vec()));
    }

    #[test]
    fn injected_insert_and_flush_failures() {
        let plan = Arc::new(
            FaultPlan::new(1)
                .with(sites::FAIL_INSERT, Schedule::OneShot(1))
                .with(sites::FAIL_FLUSH, Schedule::OneShot(1)),
        );
        let kv = FaultKv::new(MemKv::new(), plan);
        assert!(kv.insert_if_absent(b"k", b"v").is_err());
        assert!(!kv.contains(b"k"), "failed insert not applied");
        assert!(kv.flush().is_err());
        assert!(kv.insert_if_absent(b"k", b"v").unwrap());
        kv.flush().unwrap();
    }
}
