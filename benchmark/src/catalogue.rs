//! The names this benchmark is known by: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is [`benchmark_json`] written to a file; a unit
//! test keeps the two identical.

/// Seconds one run measures for; `--seconds` scales ops per segment
/// relative to this.
pub const RUN_SECONDS: u64 = 10;

/// Segments per end-to-end run: one warm-up plus nine measured.
pub const SEGMENTS: u64 = 10;

/// Slices a segment is cut into. A slice is the unit that is timed: it is
/// closed at both ends (every reply in) and has a yardstick sample on
/// either side, so it must be short enough for those two samples to say
/// how fast the machine was while it ran.
pub const SLICES: u64 = 4;

/// The command `BENCHMARK.json` advertises.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// One workload: a fixed, seeded corpus of operations.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, ≤ 200 characters).
    pub why: &'static str,
    /// Operations per segment at [`RUN_SECONDS`], sized so the nine
    /// measured segments take about that long on 2 vCPUs.
    pub ops_per_segment: u64,
    /// Share of the workload's time that is throughput-bound, i.e. that
    /// slows down with the yardstick (see `yardstick.rs`): fitted once
    /// over three sets of twelve runs, so that run-to-run spread of the
    /// timing metrics is smallest.
    pub speed_exponent: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "purchase_wal",
        why: "Anonymous purchases, one fresh coin each: sign, verifies, seal, deposit and WAL commit dominate, so bignum/crypto/payment/store-write changes must move it.",
        ops_per_segment: 5_000,
        speed_exponent: 0.8,
    },
    Workload {
        name: "content_download",
        why: "Unauthenticated 16 KiB downloads: no modexp, no store access; net, frame I/O and codec do everything, so crypto/store changes must leave it unmoved.",
        ops_per_segment: 70_000,
        speed_exponent: 0.5,
    },
    Workload {
        name: "lifecycle_mix",
        why: "Catalog/download/status/purchase/transfer 30/30/20/15/5 on a preloaded store: reads beside writes on one event thread, so a purchase gain that costs reads shows.",
        ops_per_segment: 15_000,
        speed_exponent: 0.7,
    },
    Workload {
        name: "client_session",
        why: "One consumer's whole journeys (fresh pseudonym, purchase, 3 plays, transfer) over TCP: keygen, blinding and client codec dominate; the verify-cache-miss case.",
        ops_per_segment: 60,
        speed_exponent: 0.8,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `candidate` is worse than `reference` by more than
    /// `bound` (a share of `reference`).
    pub fn worse_by_more_than(self, reference: f64, candidate: f64, bound: f64) -> bool {
        match self {
            Better::Lower => candidate > reference * (1.0 + bound),
            Better::Higher => candidate < reference * (1.0 - bound),
        }
    }
}

/// A metric a user of the system sees; gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "io_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer; reported by the traced run, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 76] = [
    // client: the generator / WireClient side.
    lower("client.rtt_p50_us", "us"),
    lower("client.rtt_p99_us", "us"),
    lower("client.paced_latency_p50_us", "us"),
    lower("client.paced_latency_p99_us", "us"),
    lower("client.gen_lag_p99_us", "us"),
    lower("client.gen_cpu_us_per_op", "us"),
    higher("client.traced_throughput_ratio", "ratio"),
    lower("client.step_obtain_pseudonym_us", "us"),
    lower("client.step_purchase_us", "us"),
    lower("client.step_play_us", "us"),
    lower("client.step_transfer_us", "us"),
    // net
    lower("net.transit_p50_us", "us"),
    lower("net.wire_bytes_per_op", "bytes"),
    lower("net.frame_rtt_64b_us", "us"),
    lower("net.frame_rtt_16k_us", "us"),
    lower("net.shed_requests", "count"),
    lower("net.busy_rejections", "count"),
    higher("net.pipeline_depth_hwm", "count"),
    // codec
    lower("codec.decode_purchase_ns", "ns"),
    lower("codec.encode_purchase_ns", "ns"),
    lower("codec.decode_download_ns", "ns"),
    lower("codec.encode_download_ns", "ns"),
    lower("codec.decode_transfer_ns", "ns"),
    lower("codec.encode_transfer_ns", "ns"),
    higher("codec.crc32_mb_s", "MB/s"),
    // core
    lower("core.handle_p50_us", "us"),
    lower("core.dispatch_purchase_us", "us"),
    lower("core.dispatch_transfer_us", "us"),
    lower("core.dispatch_download_us", "us"),
    lower("core.dispatch_license_status_us", "us"),
    lower("core.dispatch_catalog_us", "us"),
    lower("core.dispatch_pseudonym_issue_us", "us"),
    lower("core.dispatch_self_us", "us"),
    lower("core.purchase_inproc_us", "us"),
    higher("core.purchase_attributed_share", "ratio"),
    lower("core.error_replies", "count"),
    // store
    lower("store.writes_per_op", "count"),
    lower("store.reads_per_op", "count"),
    lower("store.write_p50_us", "us"),
    lower("store.read_p50_us", "us"),
    lower("store.wal_bytes_per_op", "bytes"),
    lower("store.wal_bytes_per_write", "bytes"),
    higher("store.commits_per_flush", "ratio"),
    lower("store.commit_flush_us", "us"),
    lower("store.commit_sync_us", "us"),
    lower("store.replay_us_per_record", "us"),
    // payment
    lower("payment.coin_check_us", "us"),
    lower("payment.deposit_us", "us"),
    lower("payment.withdraw_us", "us"),
    // pki
    lower("pki.pseudonym_verify_us", "us"),
    lower("pki.license_verify_us", "us"),
    higher("pki.vcache_hit_ratio", "ratio"),
    // crypto
    lower("crypto.rsa_sign_us", "us"),
    lower("crypto.rsa_verify_us", "us"),
    lower("crypto.blind_us", "us"),
    lower("crypto.unblind_us", "us"),
    lower("crypto.blind_sign_us", "us"),
    lower("crypto.envelope_seal_us", "us"),
    lower("crypto.envelope_open_us", "us"),
    lower("crypto.elgamal_encrypt_us", "us"),
    lower("crypto.rsa_keygen_ms", "ms"),
    higher("crypto.sha256_mb_s", "MB/s"),
    higher("crypto.chacha20_mb_s", "MB/s"),
    // bignum
    lower("bignum.modexp_1024_us", "us"),
    lower("bignum.modexp_512_us", "us"),
    lower("bignum.modexp_e65537_us", "us"),
    lower("bignum.mont_mul_16limb_ns", "ns"),
    lower("bignum.prime_gen_512_ms", "ms"),
    // rel
    lower("rel.eval_ns", "ns"),
    // Sample counts behind the percentile metrics above.
    higher("client.rtt_samples", "count"),
    higher("client.rtt_tail_percentile", "ratio"),
    higher("client.paced_samples", "count"),
    higher("client.paced_tail_percentile", "ratio"),
    higher("net.transit_samples", "count"),
    higher("core.handle_samples", "count"),
    higher("store.write_samples", "count"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'));
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.ops_per_segment > 0);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: p2drm-benchmark list --benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn regression_rule_respects_direction() {
        assert!(Better::Lower.worse_by_more_than(100.0, 111.0, 0.10));
        assert!(!Better::Lower.worse_by_more_than(100.0, 109.0, 0.10));
        assert!(Better::Higher.worse_by_more_than(100.0, 89.0, 0.10));
        assert!(!Better::Higher.worse_by_more_than(100.0, 95.0, 0.10));
        assert!(!Better::Higher.worse_by_more_than(100.0, 150.0, 0.10));
    }
}
