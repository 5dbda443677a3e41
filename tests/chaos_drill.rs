//! Tier-1 chaos drills: a small seeded fault-schedule set through the
//! full recovery stack — wire client with retries, parked purchases
//! settled afterwards, durable provider, `FaultTransport` — including
//! one provider kill/restart over a torn WAL shard. The wide sweep (21
//! schedules across 1–10% fault rates) is the `#[ignore]`d test at the
//! bottom; run optimised with `-- --ignored --nocapture` it prints
//! per-rate recovery and asserts ROADMAP item 1's floors.

use p2drm::sim::chaos::{run_drill, ChaosConfig, ChaosOutcome};

#[test]
fn seeded_drills_hold_invariants() {
    for (seed, rate) in [(0xD1u64, 2), (0xD2, 10)] {
        let outcome = run_drill(&ChaosConfig {
            seed,
            ops: 6,
            fault_rate_pct: rate,
            kill_restart: false,
        });
        assert!(
            outcome.invariants_ok(),
            "seed {seed:x} at {rate}%: {:?}",
            outcome.violations
        );
    }
}

#[test]
fn kill_restart_drill_recovers_over_torn_wal() {
    let outcome = run_drill(&ChaosConfig {
        seed: 0xD3,
        ops: 6,
        fault_rate_pct: 10,
        kill_restart: true,
    });
    assert!(outcome.invariants_ok(), "{:?}", outcome.violations);
    assert!(
        outcome.restart_truncated_tail,
        "resume must detect the torn shard tail"
    );
}

#[test]
fn same_seed_replays_a_byte_identical_schedule() {
    let config = ChaosConfig {
        seed: 0xD4,
        ops: 5,
        fault_rate_pct: 10,
        kill_restart: false,
    };
    let a = run_drill(&config);
    let b = run_drill(&config);
    assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    assert_eq!(a.ops_succeeded, b.ops_succeeded);
    assert_eq!(a.faults_fired, b.faults_fired);
}

/// Rates 1/5/10% × 7 seeds × 24 ops; the first seed of each rate also
/// kills and resumes the provider. Every schedule must keep every
/// invariant — no customer pays and holds nothing — each rate's mean
/// recovery (purchases that returned a license before settlement) must
/// reach its floor, and the 10% kill/restart schedule must replay
/// exactly.
#[test]
#[ignore = "release-mode sweep: cargo test --release --test chaos_drill -- --ignored --nocapture"]
fn wide_sweep_holds_invariants_and_replays() {
    const RATES: [u32; 3] = [1, 5, 10];
    const FLOORS_PCT: [f64; 3] = [99.0, 96.0, 88.0];
    let drill = |ri: usize, s: u64| {
        run_drill(&ChaosConfig {
            seed: 0xFA01_0000 + ri as u64 * 0x100 + s,
            ops: 24,
            fault_rate_pct: RATES[ri],
            kill_restart: s == 0,
        })
    };

    let mut kill_drill = None;
    for (ri, rate) in RATES.into_iter().enumerate() {
        let drills: Vec<ChaosOutcome> = (0..7).map(|s| drill(ri, s)).collect();
        for o in &drills {
            assert!(o.invariants_ok(), "seed {:x}: {:?}", o.seed, o.violations);
            assert_eq!(o.paid_empty_handed, 0, "seed {:x}", o.seed);
        }
        let sum = |f: fn(&ChaosOutcome) -> u64| drills.iter().map(f).sum::<u64>();
        let recovery =
            100.0 * drills.iter().map(|o| o.recovery_rate).sum::<f64>() / drills.len() as f64;
        println!(
            "{rate}%: {} drills, mean recovery {recovery:.1}%, {} exchanges, {} parked, {} unquoted, {} paid empty-handed",
            drills.len(),
            sum(|o| o.exchanges),
            sum(|o| o.parked),
            sum(|o| o.unquoted),
            sum(|o| o.paid_empty_handed),
        );
        assert!(
            recovery >= FLOORS_PCT[ri],
            "{rate}%: mean recovery {recovery:.1}% below the {}% floor",
            FLOORS_PCT[ri]
        );
        kill_drill = drills.into_iter().next();
    }

    let prior = kill_drill.expect("the 10% kill/restart drill ran");
    let replay = drill(RATES.len() - 1, 0);
    assert_eq!(
        replay.trace_fingerprint, prior.trace_fingerprint,
        "same seed must replay a byte-identical fault schedule"
    );
    assert_eq!(replay.ops_succeeded, prior.ops_succeeded);
}
