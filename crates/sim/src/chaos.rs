//! Seeded chaos drills: a wire client with operation-level
//! recovery purchasing against a **durable** provider through a
//! [`FaultTransport`], optionally with a provider kill/restart (torn
//! shard tail included) in the middle of the run.
//!
//! Every drill is driven by one seed: the fault schedule is a pure
//! function of `(seed, site, call#)` (see [`p2drm_faults::FaultPlan`]),
//! the client's jitter stream is seeded, and the workload is fixed — so
//! a failing drill replays exactly. After the workload the runner
//! settles every parked coin against the mint and checks the global
//! invariants the recovery machinery promises to preserve no matter
//! which faults fired:
//!
//! 1. **deposit/issue agreement** — coins the mint marked spent ==
//!    licenses the provider issued (a lost *reply* loses the client its
//!    license bytes, never the books' balance);
//! 2. **coin conservation** — every withdrawn coin is exactly one of
//!    {spendable in the wallet, deposited at the mint}; the pending
//!    pool drains to empty once reconciled;
//! 3. **no duplicate licenses** — every license the client actually
//!    holds has a distinct id, and the provider issued at least that
//!    many.

use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::retry::{CircuitBreaker, RetryBudget, RetryPolicy};
use p2drm_core::service::{Loopback, ProviderService, Recovery, RecoveryMetrics, WireClient};
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_faults::{crash, transport_sites, FaultPlan, FaultTransport, Schedule};
use p2drm_obs::Registry;
use p2drm_store::{SyncPolicy, WalShardedConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Shape of one chaos drill.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault schedule, workload RNG, and client jitter.
    pub seed: u64,
    /// Purchase attempts across the whole drill.
    pub ops: usize,
    /// Per-site fault probability, in percent (the paper-facing "1–10%
    /// fault rate" knob; each transport site flips its own coin).
    pub fault_rate_pct: u32,
    /// Kill the provider mid-run (unclean drop + a torn shard tail) and
    /// resume it from its WAL directory before the second half.
    pub kill_restart: bool,
}

impl ChaosConfig {
    /// Default drill: 48 ops at 5% with a mid-run kill/restart.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ops: 48,
            fault_rate_pct: 5,
            kill_restart: true,
        }
    }
}

/// Everything one drill observed, invariants included.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The drill's seed.
    pub seed: u64,
    /// Per-site fault probability (percent).
    pub fault_rate_pct: u32,
    /// Whether the drill killed and resumed the provider mid-run.
    pub kill_restart: bool,
    /// Purchase attempts made.
    pub ops_attempted: u64,
    /// Purchases that returned a license to the client.
    pub ops_succeeded: u64,
    /// `ops_succeeded / ops_attempted`.
    pub recovery_rate: f64,
    /// Fault decisions that fired, across all sites.
    pub faults_fired: u64,
    /// Retries the client actually sent (`client_retries`).
    pub retries: u64,
    /// Operations abandoned with attempts/budget exhausted.
    pub giveups: u64,
    /// Parked coins restored to the wallet by reconciliation (the
    /// ambiguous spend never happened).
    pub coins_restored: u64,
    /// Parked coins discarded by reconciliation (the mint had already
    /// deposited them — their purchase committed server-side).
    pub coins_discarded: u64,
    /// FNV-1a fingerprint of the fault plan's decision trace; equal
    /// seeds must produce equal fingerprints (byte-identical schedules).
    pub trace_fingerprint: u64,
    /// Whether the restart replay reported a truncated (torn) tail.
    pub restart_truncated_tail: bool,
    /// Invariant violations (empty == the drill passed).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// True when every global invariant held.
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Self-cleaning unique temp directory for the drill's WAL shards.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(seed: u64) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("p2drm-chaos-{}-{seed}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recovery tuned for drills: fast backoffs (the drill sleeps real
/// time), no wall-clock deadline and an effectively-disabled breaker so
/// the decision trace stays a pure function of the seed, and budget
/// ample enough that give-ups measure the schedule, not the wallet.
fn drill_recovery(seed: u64, ops: usize, registry: &Registry) -> Recovery {
    Recovery {
        policy: RetryPolicy {
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            max_attempts: 4,
            op_deadline: None,
            jitter_seed: seed,
        },
        budget: RetryBudget::new(4 * ops as u32 + 64, 1_000),
        breaker: CircuitBreaker::new(u32::MAX, Duration::from_millis(1)),
        metrics: Some(RecoveryMetrics::register(registry)),
    }
}

/// Arms every transport site with an independent per-call coin at
/// `rate_pct` percent.
fn armed_plan(seed: u64, rate_pct: u32) -> Arc<FaultPlan> {
    let p = f64::from(rate_pct) / 100.0;
    Arc::new(
        FaultPlan::new(seed)
            .with(transport_sites::RESET_MID_WRITE, Schedule::Probability(p))
            .with(transport_sites::DROP_REQUEST, Schedule::Probability(p))
            .with(transport_sites::BUSY_STORM, Schedule::Probability(p))
            .with(transport_sites::DELAY, Schedule::Probability(p))
            .with(transport_sites::DROP_REPLY, Schedule::Probability(p))
            .with(transport_sites::TORN_FRAME, Schedule::Probability(p))
            .with(transport_sites::DUPLICATE_REPLY, Schedule::Probability(p)),
    )
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs one seeded chaos drill end to end.
pub fn run_drill(config: &ChaosConfig) -> ChaosOutcome {
    let mut rng = test_rng(config.seed);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let tmp = TempDir::new(config.seed);
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::FlushEach,
    };

    // The drill's own durable provider (the one that gets killed),
    // sharing the system's mint/root/RA so wire purchases settle against
    // the same books the invariants audit.
    let (provider, _) = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        durable,
        ProviderConfig::fast_test(),
        &mut rng,
    )
    .expect("fresh WAL directory opens");
    let cids: Vec<_> = (0..3)
        .map(|i| {
            provider.publish(
                format!("chaos-item-{i}"),
                100,
                &vec![0xC4u8; 256],
                p2drm_rel::Rights::builder()
                    .play(p2drm_rel::Limit::Unlimited)
                    .transfer(p2drm_rel::Limit::Count(3))
                    .build(),
                &mut rng,
            )
        })
        .collect();
    let vault = provider.export_keys();
    let cert = provider.certificate().clone();
    let mut provider = Arc::new(provider);

    let mut user = sys
        .register_user("chaos-user", &mut rng)
        .expect("fresh user");
    sys.fund(&user, 100 * config.ops as u64 + 1_000);
    let mint = sys.mint.clone();
    let withdrawn_before = mint.withdrawal_count();
    let spent_before = mint.spent_count();

    let plan = armed_plan(config.seed, config.fault_rate_pct);
    let registry = Registry::new();
    let mut licenses: Vec<p2drm_core::LicenseId> = Vec::new();
    let (mut succeeded, mut restored, mut discarded) = (0u64, 0u64, 0u64);
    let mut restart_truncated_tail = false;

    let phases: &[usize] = if config.kill_restart {
        &[config.ops / 2, config.ops - config.ops / 2]
    } else {
        &[config.ops]
    };
    for (phase, &phase_ops) in phases.iter().enumerate() {
        {
            let service = ProviderService::new(provider.clone(), config.seed ^ phase as u64)
                .with_ra(sys.ra.clone());
            service.set_time(sys.epoch(), sys.now());
            let transport = FaultTransport::new(Loopback::new(&service), plan.clone());
            let mut client = WireClient::new(transport).with_recovery(drill_recovery(
                config.seed,
                config.ops,
                &registry,
            ));
            client.set_epoch(sys.epoch());

            for op in 0..phase_ops {
                sys.ensure_pseudonym(&mut user, &mut rng)
                    .expect("RA is not behind the faulty wire");
                let cid = cids[op % cids.len()];
                if let Ok(license) = client.purchase(&mut user, &mint, cid, &mut rng) {
                    licenses.push(license.id());
                    succeeded += 1;
                }
                // Periodic reconciliation, as a recovering client would.
                if op % 8 == 7 {
                    let (r, d) = user.wallet.reconcile_pending(&mint);
                    restored += r as u64;
                    discarded += d as u64;
                }
            }
        }
        // Kill: unclean drop of the provider (no checkpoint), crash
        // damage on one shard's log, then resume over the directory.
        if config.kill_restart && phase == 0 {
            let inner = Arc::try_unwrap(provider)
                .ok()
                .expect("client and service dropped; ours is the last handle");
            drop(inner);
            crash::tear_shard_tail(&tmp.0, 1).expect("shard log exists");
            let keys: p2drm_crypto::rsa::RsaKeyPair =
                p2drm_codec::from_bytes(&vault).expect("key vault decodes");
            let (resumed, report) = ContentProvider::resume_durable(
                keys,
                cert.clone(),
                sys.root.public_key().clone(),
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                &tmp.0,
                durable,
                ProviderConfig::fast_test(),
            )
            .expect("provider resumes over damaged directory");
            restart_truncated_tail = report.truncated_tail;
            provider = Arc::new(resumed);
        }
    }

    // Settle every remaining parked coin against the mint's
    // authoritative spent-serial record.
    let (r, d) = user.wallet.reconcile_pending(&mint);
    restored += r as u64;
    discarded += d as u64;

    // Global invariants.
    let mut violations = Vec::new();
    let spent_delta = mint.spent_count() - spent_before;
    if spent_delta != provider.license_count() {
        violations.push(format!(
            "deposit/issue split-brain: mint recorded {spent_delta} deposits, provider issued {} licenses",
            provider.license_count()
        ));
    }
    let withdrawn = mint.withdrawal_count() - withdrawn_before;
    if !user.wallet.pending().is_empty() {
        violations.push(format!(
            "{} coins still parked after reconciliation",
            user.wallet.pending().len()
        ));
    }
    if withdrawn != user.wallet.len() + spent_delta {
        violations.push(format!(
            "coin conservation: {withdrawn} withdrawn != {} spendable + {spent_delta} deposited",
            user.wallet.len()
        ));
    }
    let distinct: BTreeSet<_> = licenses.iter().copied().collect();
    if distinct.len() != licenses.len() {
        violations.push(format!(
            "duplicate license ids: {} held, {} distinct",
            licenses.len(),
            distinct.len()
        ));
    }
    if user.licenses().len() as u64 != succeeded {
        violations.push(format!(
            "license ledger drift: {succeeded} successful purchases, {} licenses held",
            user.licenses().len()
        ));
    }
    if succeeded as usize > provider.license_count() {
        violations.push(format!(
            "client holds {succeeded} licenses but provider issued only {}",
            provider.license_count()
        ));
    }

    let snap = registry.snapshot();
    ChaosOutcome {
        seed: config.seed,
        fault_rate_pct: config.fault_rate_pct,
        kill_restart: config.kill_restart,
        ops_attempted: config.ops as u64,
        ops_succeeded: succeeded,
        recovery_rate: succeeded as f64 / config.ops.max(1) as f64,
        faults_fired: plan.total_fired(),
        retries: snap.counter("client_retries").unwrap_or(0),
        giveups: snap.counter("client_retry_giveups").unwrap_or(0),
        coins_restored: restored,
        coins_discarded: discarded,
        trace_fingerprint: fnv64(&plan.trace_bytes()),
        restart_truncated_tail,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_drill_succeeds_everywhere() {
        let outcome = run_drill(&ChaosConfig {
            seed: 0xC1EA4,
            ops: 6,
            fault_rate_pct: 0,
            kill_restart: false,
        });
        assert!(outcome.invariants_ok(), "{:?}", outcome.violations);
        assert_eq!(outcome.ops_succeeded, 6, "no faults, no failures");
        assert_eq!(outcome.faults_fired, 0);
    }

    #[test]
    fn faulty_drill_holds_invariants_and_replays() {
        let config = ChaosConfig {
            seed: 0xFA17,
            ops: 16,
            fault_rate_pct: 10,
            kill_restart: false,
        };
        let a = run_drill(&config);
        assert!(a.invariants_ok(), "{:?}", a.violations);
        let b = run_drill(&config);
        assert_eq!(
            a.trace_fingerprint, b.trace_fingerprint,
            "same seed, byte-identical fault schedule"
        );
        assert_eq!(a.ops_succeeded, b.ops_succeeded);
    }
}
