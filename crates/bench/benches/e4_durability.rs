//! E4: the price of durability — purchases/sec against **one shared
//! WAL-backed provider** (`WalShardedKv`: per-shard write-ahead logs,
//! group commit), swept over `SyncPolicy` × client thread count.
//!
//! Read this next to `e3_throughput` (the volatile `MemKv` upper
//! bound): the gap between the two curves is what crash-safety costs at
//! each durability level. `Buffered` should track e3 closely (append is
//! userspace), `FlushEach` adds a write syscall per commit batch, and
//! `SyncEach` is fsync-bound — which is exactly where group commit earns
//! its keep: at higher thread counts, concurrent writers on one shard
//! share a single fsync, so throughput should *improve* with threads
//! rather than serialize behind the disk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p2drm_bench::{make_purchase_request, world};
use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_crypto::rng::test_rng;
use p2drm_store::{SyncPolicy, WalShardedConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Self-cleaning unique temp dir for each bench configuration.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TempDir(
            std::env::temp_dir().join(format!("p2drm-bench-e4-{}-{tag}-{n}", std::process::id())),
        )
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn policy_label(policy: SyncPolicy) -> &'static str {
    match policy {
        SyncPolicy::Buffered => "buffered",
        SyncPolicy::FlushEach => "flush_each",
        SyncPolicy::SyncEach => "sync_each",
    }
}

fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_durability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(1));

    for policy in [
        SyncPolicy::Buffered,
        SyncPolicy::FlushEach,
        SyncPolicy::SyncEach,
    ] {
        for &threads in &[1usize, 2, 4, 8] {
            let mut w = world(512, 0xE4_000 + threads as u64);
            let tmp = TempDir::new(policy_label(policy));
            let mut rng = test_rng(0xE4_100 + threads as u64);
            let (provider, _report) = ContentProvider::open_durable(
                &mut w.sys.root,
                w.sys.mint.clone(),
                w.sys.ra.blind_public().clone(),
                &tmp.0,
                WalShardedConfig { shards: 8, policy },
                ProviderConfig::fast_test(),
                &mut rng,
            )
            .expect("open durable provider");
            let template = w.sys.config().rights_template.clone();
            let cid = provider.publish("wal-item", 100, &vec![0u8; 1024], template, &mut rng);

            group.bench_function(
                BenchmarkId::new(format!("wal_{}", policy_label(policy)), threads),
                |b| {
                    b.iter_custom(|iters| {
                        let per_thread = (iters as usize).div_ceil(threads);
                        let total = per_thread * threads;

                        // Untimed setup: ready-to-submit requests against
                        // the WAL-backed provider's catalog item.
                        let mut bundles: Vec<Vec<PurchaseRequest>> = Vec::with_capacity(threads);
                        for _ in 0..threads {
                            bundles.push(
                                (0..per_thread)
                                    .map(|_| {
                                        let mut req = make_purchase_request(&mut w);
                                        req.content_id = cid;
                                        req
                                    })
                                    .collect(),
                            );
                        }

                        let provider = &provider;
                        let epoch = w.sys.epoch();
                        let t0 = Instant::now();
                        std::thread::scope(|scope| {
                            for (i, bundle) in bundles.iter().enumerate() {
                                scope.spawn(move || {
                                    let mut rng = test_rng(0xE4_F00 + i as u64);
                                    for req in bundle {
                                        provider
                                            .handle_purchase(req, epoch, &mut rng)
                                            .expect("prepared purchase succeeds");
                                    }
                                });
                            }
                        });
                        t0.elapsed().mul_f64(iters as f64 / total as f64)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
