//! One benchmark run: set-up, warm-up, the measured (or traced)
//! segments, the correctness checks, and the result line.

use crate::catalogue::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SEGMENTS, SLICES};
use crate::corpus::{
    mix_transfers, write_coverage, CorpusBuilder, CorpusReader, CorpusWriter, Shape,
    COVERAGE_PRELOAD,
};
use crate::generator::{Checker, Mux, PacedSamples, SegmentStats, CONNECTIONS, PIPELINE_DEPTH};
use crate::json::Json;
use crate::probes;
use crate::session::SessionRig;
use crate::spans::{assemble, Recorder, RequestTree, Span, SpanKind};
use crate::stack::{op_label, Preloaded, RunDir, SpanService, Stack};
use crate::stats::{median, p50, tail};
use crate::sysinfo;
use crate::yardstick;
use p2drm_core::service::OpCode;
use p2drm_core::LicenseId;
use p2drm_net::{DrmServer, NetConfig};
use p2drm_store::{ConcurrentKv, WalShardedConfig, WalShardedKv};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Reference segments and traced segments of a traced run (after one
/// warm-up segment); their slices alternate.
const TRACED_SEGMENTS: u64 = 3;
/// Share of the run's own throughput the paced segment is driven at.
const PACED_LOAD: f64 = 0.25;
/// Journeys the traced run of a pipelined workload adds for the
/// `client.step_*` metrics.
const PROBE_JOURNEYS: u64 = 8;
/// Set-up licenses `lifecycle_mix` starts from at [`RUN_SECONDS`].
const MIX_PRELOAD: u64 = 20_000;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where the traced run writes its raw spans, if anywhere.
    pub spans_out: Option<PathBuf>,
    /// Process start.
    pub started: Instant,
}

/// What a run prints: the result line's parts plus the detail object.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub details: Json,
}

impl Report {
    /// The result line, or why the metrics do not match the catalogue.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, _) in &self.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut fields = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let mut values = self.metrics.iter().filter(|(n, _)| *n == name);
            let value = match (values.next(), values.next()) {
                (Some((_, v)), None) if v.is_finite() => *v,
                (Some((_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was measured twice")),
            };
            fields.push((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(fields)),
        ])
        .to_string())
    }
}

/// Either driver of a workload, behind one segment interface.
enum Driver<'a> {
    Mux(Mux<'a>),
    Session,
}

struct Harness<'a> {
    driver: Driver<'a>,
    rig: Option<SessionRig>,
    reader: CorpusReader,
    stack: &'a Stack,
}

impl Harness<'_> {
    fn closed(&mut self, ops: u64, checker: &mut Checker) -> Result<SegmentStats, String> {
        match &mut self.driver {
            Driver::Mux(mux) => mux.run_closed(&mut self.reader, ops, checker),
            Driver::Session => self.rig.as_mut().expect("session rig").run_closed(
                &mut self.reader,
                ops,
                &self.stack.catalog,
                checker,
            ),
        }
    }

    fn paced(
        &mut self,
        ops: u64,
        rate: f64,
        checker: &mut Checker,
    ) -> Result<(SegmentStats, PacedSamples), String> {
        match &mut self.driver {
            Driver::Mux(mux) => mux.run_paced(&mut self.reader, ops, rate, checker),
            Driver::Session => self.rig.as_mut().expect("session rig").run_paced(
                &mut self.reader,
                ops,
                rate,
                &self.stack.catalog,
                checker,
            ),
        }
    }
}

/// One measured slice: what it cost, the WAL bytes it appended, and the
/// yardstick speed around it.
struct Measured {
    stats: SegmentStats,
    wal_bytes: u64,
    store_reads: u64,
    store_writes: u64,
    /// Mean of the yardstick samples taken just before and just after.
    speed: f64,
}

impl Measured {
    /// Throughput at the reference machine speed, over the time the VM
    /// had its CPUs: wall time less the stolen time per vCPU. (A
    /// hypervisor burst that takes 7% of both vCPUs for a whole run —
    /// seen here — would otherwise read as a 7% slower program; CPU time
    /// per operation never includes it.)
    fn throughput(&self, exponent: f64) -> f64 {
        let stolen_ns = self.stats.steal_ns / sysinfo::nproc() as u64;
        let available_s = self.stats.wall_ns.saturating_sub(stolen_ns).max(1) as f64 / 1e9;
        self.stats.ops as f64 / available_s * yardstick::slowdown(self.speed, exponent)
    }

    /// CPU per operation at the reference machine speed.
    fn cpu_us_per_op(&self, exponent: f64) -> f64 {
        self.stats.cpu_us_per_op() / yardstick::slowdown(self.speed, exponent)
    }
}

/// Runs `slices` closed-loop slices of `ops` operations with a yardstick
/// sample before each and after the last.
fn measure(
    harness: &mut Harness,
    slices: u64,
    ops: u64,
    checker: &mut Checker,
) -> Result<Vec<Measured>, String> {
    let mut measured = Vec::with_capacity(slices as usize);
    let mut before = yardstick::sample();
    for _ in 0..slices {
        let store = harness.stack.store();
        let wal_before = store.inner().log_bytes();
        let (reads_before, writes_before) = store.counts();
        let stats = harness.closed(ops, checker)?;
        let store = harness.stack.store();
        let (reads, writes) = store.counts();
        let after = yardstick::sample();
        measured.push(Measured {
            stats,
            wal_bytes: store.inner().log_bytes() - wal_before,
            store_reads: reads - reads_before,
            store_writes: writes - writes_before,
            speed: (before + after) / 2.0,
        });
        before = after;
    }
    Ok(measured)
}

fn slice_json(m: &Measured) -> Json {
    Json::obj([
        ("ops", m.stats.ops.into()),
        ("wall_s", (m.stats.wall_ns as f64 / 1e9).into()),
        ("raw_throughput_ops_s", m.stats.throughput().into()),
        ("raw_cpu_us_per_op", m.stats.cpu_us_per_op().into()),
        ("yardstick_miter_s", m.speed.into()),
        ("steal_ms", (m.stats.steal_ns as f64 / 1e6).into()),
        ("wire_bytes", m.stats.wire_bytes.into()),
        ("wal_bytes", m.wal_bytes.into()),
    ])
}

/// `<name>_median`, `<name>_min` and `<name>_max` of `values`.
fn median_min_max(name: &str, values: Vec<f64>) -> [(String, Json); 3] {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    [
        (
            format!("{name}_median"),
            median(&values).expect("measured slices").into(),
        ),
        (format!("{name}_min"), lo.into()),
        (format!("{name}_max"), hi.into()),
    ]
}

/// Throughput and CPU per operation of `measured` at the reference
/// machine speed. Pipelined workloads: the median over slices, which a
/// burst cannot move. `client_session` (one sequential consumer, whose
/// journeys differ by the luck of the prime search): totals over every
/// measured journey — the reciprocal of the mean journey latency.
fn at_reference_speed(shape: Shape, exponent: f64, measured: &[Measured]) -> (f64, f64) {
    match shape {
        Shape::Journey => {
            let ops: f64 = measured.iter().map(|m| m.stats.ops as f64).sum();
            let wall_s: f64 = measured
                .iter()
                .map(|m| m.stats.ops as f64 / m.throughput(exponent))
                .sum();
            let cpu_us: f64 = measured
                .iter()
                .map(|m| m.cpu_us_per_op(exponent) * m.stats.ops as f64)
                .sum();
            (ops / wall_s, cpu_us / ops)
        }
        _ => {
            let throughputs: Vec<f64> = measured.iter().map(|m| m.throughput(exponent)).collect();
            let cpus: Vec<f64> = measured.iter().map(|m| m.cpu_us_per_op(exponent)).collect();
            (
                median(&throughputs).expect("measured slices"),
                median(&cpus).expect("measured slices"),
            )
        }
    }
}

/// The five end-to-end metrics from the measured slices.
fn end_to_end(
    shape: Shape,
    exponent: f64,
    measured: &[Measured],
    setup_s: f64,
    peak_rss_mib: f64,
) -> (Vec<(&'static str, f64)>, Json) {
    let (throughput, cpu_us_per_op) = at_reference_speed(shape, exponent, measured);
    let ops: u64 = measured.iter().map(|m| m.stats.ops).sum();
    let io_bytes: u64 = measured
        .iter()
        .map(|m| m.stats.wire_bytes + m.wal_bytes)
        .sum();
    let metrics = vec![
        ("throughput_ops_s", throughput),
        ("cpu_us_per_op", cpu_us_per_op),
        ("io_bytes_per_op", io_bytes as f64 / ops as f64),
        ("peak_rss_mb", peak_rss_mib),
        ("setup_s", setup_s),
    ];
    let of = |f: fn(&Measured) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    let mut fields = vec![
        ("speed_exponent".to_string(), exponent.into()),
        (
            "reference_yardstick_miter_s".to_string(),
            yardstick::REFERENCE_MITER_S.into(),
        ),
    ];
    fields.extend(median_min_max(
        "raw_throughput",
        of(|m| m.stats.throughput()),
    ));
    fields.extend(median_min_max(
        "raw_cpu_us_per_op",
        of(|m| m.stats.cpu_us_per_op()),
    ));
    fields.extend(median_min_max("yardstick", of(|m| m.speed)));
    fields.push((
        "slices".to_string(),
        Json::Arr(measured.iter().map(slice_json).collect()),
    ));
    let spread = Json::obj(fields);
    (metrics, spread)
}

/// `(commits, total nanoseconds waited for them)` so far, from the
/// store's own `store_commit_ns` histogram.
fn commit_totals(stack: &Stack) -> (u64, f64) {
    let mut builder = p2drm_obs::SnapshotBuilder::new();
    stack.store().collect_metrics(&mut builder);
    builder
        .finish()
        .histogram("store_commit_ns")
        .map_or((0, 0.0), |c| (c.count, c.mean_ns * c.count as f64))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Per-layer metrics that come out of the span trees.
fn span_metrics(
    spans: &[Span],
    workload_windows: &[(u64, u64)],
    out: &mut Vec<(&'static str, f64)>,
) -> Vec<RequestTree> {
    let trees = assemble(spans);
    let in_window = |t: &&RequestTree| {
        workload_windows
            .iter()
            .any(|w| (w.0..w.1).contains(&t.start_ns))
    };
    let workload: Vec<&RequestTree> = trees.iter().filter(in_window).collect();
    let mut rtts: Vec<u64> = workload.iter().map(|t| t.request_ns).collect();
    rtts.sort_unstable();
    out.push(("client.rtt_p50_us", us(p50(&mut rtts))));
    let rtt_tail = tail(&rtts, 0.99);
    out.push(("client.rtt_p99_us", us(rtt_tail.value as f64)));
    out.push(("client.rtt_samples", rtts.len() as f64));
    out.push(("client.rtt_tail_percentile", rtt_tail.percentile));
    let served: Vec<&&RequestTree> = workload.iter().filter(|t| t.handle_ns > 0).collect();
    let mut transit: Vec<u64> = served.iter().map(|t| t.transit_ns()).collect();
    out.push(("net.transit_p50_us", us(p50(&mut transit))));
    out.push(("net.transit_samples", transit.len() as f64));
    let mut handle: Vec<u64> = served.iter().map(|t| t.handle_ns).collect();
    out.push(("core.handle_p50_us", us(p50(&mut handle))));
    out.push(("core.handle_samples", handle.len() as f64));
    let mut dispatch_self: Vec<u64> = served.iter().map(|t| t.dispatch_self_ns()).collect();
    out.push(("core.dispatch_self_us", us(p50(&mut dispatch_self))));
    // Per-op dispatch times draw on every traced request (workload and
    // coverage segment alike), so every op has samples on every workload.
    for (name, op) in [
        ("core.dispatch_purchase_us", OpCode::Purchase),
        ("core.dispatch_transfer_us", OpCode::Transfer),
        ("core.dispatch_download_us", OpCode::Download),
        ("core.dispatch_license_status_us", OpCode::LicenseStatus),
        ("core.dispatch_catalog_us", OpCode::Catalog),
        ("core.dispatch_pseudonym_issue_us", OpCode::PseudonymIssue),
    ] {
        let mut samples: Vec<u64> = trees
            .iter()
            .filter(|t| t.op == op.byte() && t.handle_ns > 0)
            .map(|t| t.dispatch_ns)
            .collect();
        out.push((name, us(p50(&mut samples))));
    }
    for (name, samples_name, kind) in [
        (
            "store.write_p50_us",
            Some("store.write_samples"),
            SpanKind::StoreWrite,
        ),
        ("store.read_p50_us", None, SpanKind::StoreRead),
    ] {
        let mut samples: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration_ns)
            .collect();
        out.push((name, us(p50(&mut samples))));
        if let Some(samples_name) = samples_name {
            out.push((samples_name, samples.len() as f64));
        }
    }
    trees
}

fn paced_metrics(samples: &mut PacedSamples, out: &mut Vec<(&'static str, f64)>) {
    samples.latency_ns.sort_unstable();
    samples.lag_ns.sort_unstable();
    let latency_tail = tail(&samples.latency_ns, 0.99);
    out.push((
        "client.paced_latency_p50_us",
        us(p50(&mut samples.latency_ns)),
    ));
    out.push(("client.paced_latency_p99_us", us(latency_tail.value as f64)));
    out.push((
        "client.gen_lag_p99_us",
        us(tail(&samples.lag_ns, 0.99).value as f64),
    ));
    out.push(("client.paced_samples", samples.latency_ns.len() as f64));
    out.push(("client.paced_tail_percentile", latency_tail.percentile));
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "id\tname\tparent\top\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            file,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.kind.name(),
            s.kind.parent().map_or("-", SpanKind::name),
            op_label(s.op),
            s.start_ns,
            s.end_ns
        )?;
    }
    file.flush()
}

fn environment(opts: &Options, shape: Shape, dir: &RunDir, net: &NetConfig, ops: u64) -> Json {
    let wal = WalShardedConfig::default();
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj([
        ("workload", Json::str(opts.workload.name)),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("traced", Json::Bool(opts.traced)),
        ("ops_per_segment", ops.into()),
        ("nproc", sysinfo::nproc().into()),
        ("kernel", Json::str(sysinfo::kernel())),
        ("commit", Json::str(sysinfo::commit(&repo_root))),
        ("fs_type", Json::str(sysinfo::fs_type(dir.path()))),
        ("transport", Json::str("TCP over loopback (127.0.0.1), not a link")),
        ("key_sizes", Json::str("RSA-1024, ElGamal MODP-1024")),
        (
            "net_config",
            Json::str(format!(
                "workers={} queue_depth={} max_pipeline={} max_connections={}",
                net.workers, net.queue_depth, net.max_pipeline, net.max_connections
            )),
        ),
        (
            "wal_config",
            Json::str(format!(
                "shards={} policy={:?} (flush to the OS per commit, no fsync)",
                wal.shards, wal.policy
            )),
        ),
        (
            "generator",
            Json::str(match shape {
                Shape::Journey => {
                    "one WireClient over TcpTransport, closed loop, depth 1".to_string()
                }
                _ => format!(
                    "one thread, {CONNECTIONS} connections x pipeline depth {PIPELINE_DEPTH}, closed loop"
                ),
            }),
        ),
    ])
}

/// Runs one workload and reports. `Err` is a failure of the harness
/// itself (I/O, a stalled server); failed operations and violated
/// invariants come back as `correct: false`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let shape = Shape::of(opts.workload.name).expect("catalogue workloads all have a shape");
    let exponent = opts.workload.speed_exponent;
    let ops = (opts.workload.ops_per_segment * opts.seconds / RUN_SECONDS / SLICES).max(5);
    // Slices the workload's own driver runs closed-loop: the warm-up
    // segment, then the measured ones (reference and traced alternating,
    // in a traced run).
    let closed_slices = SLICES
        * if opts.traced {
            1 + 2 * TRACED_SEGMENTS
        } else {
            SEGMENTS
        };
    let rec = Arc::new(Recorder::new());
    let dir = RunDir::create(&format!("{}-{}", opts.workload.name, opts.seed))
        .map_err(|e| format!("run directory: {e}"))?;
    let mut stack = Stack::build(opts.seed, dir.path(), rec.clone())?;

    // Set-up: pool, set-up licenses, corpus.
    let pool = (shape.needs_pool() || opts.traced).then(|| stack.build_pool());
    let builder_slices = closed_slices + u64::from(opts.traced);
    let preloaded: Vec<Preloaded> = match (shape, &pool) {
        (Shape::Mix, Some(pool)) => {
            let targets = builder_slices * mix_transfers(ops);
            let count = (MIX_PRELOAD * opts.seconds / RUN_SECONDS).max(2 * targets);
            stack.preload(pool, 0..count)
        }
        _ => Vec::new(),
    };
    let coverage_licenses: Vec<Preloaded> = match (&pool, opts.traced) {
        (Some(pool), true) => stack.preload(pool, (1 << 40)..(1 << 40) + COVERAGE_PRELOAD),
        _ => Vec::new(),
    };
    let setup_licenses = (preloaded.len() + coverage_licenses.len()) as u64;
    let corpus_path = dir.path().join("corpus.bin");
    let mut writer = CorpusWriter::create(&corpus_path).map_err(|e| format!("corpus: {e}"))?;
    let builder = CorpusBuilder {
        stack: &stack,
        pool: pool.as_ref(),
        preloaded: &preloaded,
        shape,
        ops_per_slice: ops,
        slices: builder_slices,
    };
    let io = |e: std::io::Error| format!("corpus write: {e}");
    for slice in 0..closed_slices {
        builder.write_slice(slice, ops, &mut writer).map_err(io)?;
    }
    let mut coverage_ops = 0;
    if let (true, Some(pool)) = (opts.traced, &pool) {
        coverage_ops = write_coverage(&stack, pool, &coverage_licenses, &mut writer).map_err(io)?;
        // The paced slice.
        builder
            .write_slice(closed_slices, ops, &mut writer)
            .map_err(io)?;
        if shape != Shape::Journey {
            CorpusBuilder {
                shape: Shape::Journey,
                ..builder
            }
            .write_slice(0, PROBE_JOURNEYS.min(ops), &mut writer)
            .map_err(io)?;
        }
    }
    let (corpus_records, corpus_sha256) = writer.finish().map_err(io)?;
    let probe_license = coverage_licenses.into_iter().next();
    drop(preloaded);

    // The server, exactly as a deployment would bind it.
    let net = NetConfig {
        workers: sysinfo::nproc().min(4),
        queue_depth: 64,
        ..NetConfig::default()
    };
    let service = stack.sys.wire_service(opts.seed);
    let server = if opts.traced {
        DrmServer::bind(
            "127.0.0.1:0",
            SpanService::new(service, rec.clone()),
            net.clone(),
        )
    } else {
        DrmServer::bind("127.0.0.1:0", service, net.clone())
    }
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let rig = match (shape, opts.traced) {
        (Shape::Journey, _) => Some(((closed_slices + 1) * ops) as usize),
        (_, true) => Some(PROBE_JOURNEYS as usize),
        _ => None,
    }
    .map(|journeys| SessionRig::new(&mut stack, opts.seed, journeys, addr, rec.clone()))
    .transpose()?;
    let stack = stack;
    let mut checker = Checker::new(&stack.catalog, stack.sys.provider.public_key());
    let mut harness = Harness {
        driver: match shape {
            Shape::Journey => Driver::Session,
            _ => Driver::Mux(Mux::connect(addr, &rec)?),
        },
        rig,
        reader: CorpusReader::open(&corpus_path).map_err(|e| format!("corpus: {e}"))?,
        stack: &stack,
    };

    // Warm-up belongs to set-up; the clock for everything a user would
    // call "the run" starts after it.
    for _ in 0..SLICES {
        harness.closed(ops, &mut checker)?;
    }
    let setup_s = opts.started.elapsed().as_secs_f64();

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut details = vec![
        ("environment", environment(opts, shape, &dir, &net, ops)),
        ("corpus_sha256", Json::str(corpus_sha256)),
        ("corpus_records", corpus_records.into()),
        ("setup_s", setup_s.into()),
    ];
    let peak_rss_mib;
    if !opts.traced {
        let measured = measure(&mut harness, (SEGMENTS - 1) * SLICES, ops, &mut checker)?;
        peak_rss_mib = sysinfo::peak_rss_mib().ok_or("VmHWM unreadable")?;
        let (values, spread) = end_to_end(shape, exponent, &measured, setup_s, peak_rss_mib);
        metrics = values;
        details.push(("measured", spread));
    } else {
        // Slices alternate between recorder off (reference) and on
        // (traced), so both see the same machine; their throughput ratio
        // is what tracing costs.
        let (mut reference, mut traced) = (Vec::new(), Vec::new());
        let (commits_before, commit_ns_before) = commit_totals(&stack);
        for _ in 0..TRACED_SEGMENTS * SLICES {
            reference.extend(measure(&mut harness, 1, ops, &mut checker)?);
            rec.set_enabled(true);
            traced.extend(measure(&mut harness, 1, ops, &mut checker)?);
            rec.set_enabled(false);
        }
        let (reference_tp, _) = at_reference_speed(shape, exponent, &reference);
        let (traced_tp, _) = at_reference_speed(shape, exponent, &traced);
        let windows: Vec<(u64, u64)> = traced.iter().map(|m| m.stats.window).collect();
        let traced_ops: u64 = traced.iter().map(|m| m.stats.ops).sum();
        let sum = |f: fn(&Measured) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        metrics.push(("client.traced_throughput_ratio", traced_tp / reference_tp));
        metrics.push((
            "client.gen_cpu_us_per_op",
            us(sum(|m| m.stats.gen_cpu_ns)) / traced_ops as f64,
        ));
        metrics.push((
            "net.wire_bytes_per_op",
            sum(|m| m.stats.wire_bytes) / traced_ops as f64,
        ));
        let (writes, wal) = (sum(|m| m.store_writes), sum(|m| m.wal_bytes));
        metrics.push(("store.writes_per_op", writes / traced_ops as f64));
        metrics.push((
            "store.reads_per_op",
            sum(|m| m.store_reads) / traced_ops as f64,
        ));
        metrics.push(("store.wal_bytes_per_op", wal / traced_ops as f64));
        metrics.push(("store.wal_bytes_per_write", ratio(wal, writes)));

        // Coverage (closed loop on the generator's connections), then the
        // paced slice on the workload's own driver, both traced.
        rec.set_enabled(true);
        let mut coverage_mux;
        let mux = match &mut harness.driver {
            Driver::Mux(mux) => mux,
            Driver::Session => {
                coverage_mux = Mux::connect(addr, &rec)?;
                &mut coverage_mux
            }
        };
        mux.run_closed(&mut harness.reader, coverage_ops, &mut checker)?;
        let (commits_after, commit_ns_after) = commit_totals(&stack);
        metrics.push((
            "store.commit_flush_us",
            us(ratio(
                commit_ns_after - commit_ns_before,
                (commits_after - commits_before) as f64,
            )),
        ));
        let raw_reference_tp = median(
            &reference
                .iter()
                .map(|m| m.stats.throughput())
                .collect::<Vec<_>>(),
        )
        .expect("reference slices");
        let paced_rate = PACED_LOAD * raw_reference_tp;
        let (_, mut paced) = harness.paced(ops, paced_rate, &mut checker)?;
        rec.set_enabled(false);
        paced_metrics(&mut paced, &mut metrics);

        // Journey steps: the workload's own journeys, or a short probe.
        if shape != Shape::Journey {
            harness.driver = Driver::Session;
            harness.closed(PROBE_JOURNEYS.min(ops), &mut checker)?;
        }
        let steps = &harness.rig.as_ref().expect("traced runs have a rig").steps;
        let mean_us = |f: fn(&crate::session::StepTimes) -> u64| {
            us(steps.iter().map(f).sum::<u64>() as f64) / steps.len().max(1) as f64
        };
        metrics.push((
            "client.step_obtain_pseudonym_us",
            mean_us(|s| s.obtain_pseudonym_ns),
        ));
        metrics.push(("client.step_purchase_us", mean_us(|s| s.purchase_ns)));
        metrics.push((
            "client.step_play_us",
            mean_us(|s| s.play_ns) / crate::session::PLAYS as f64,
        ));
        metrics.push(("client.step_transfer_us", mean_us(|s| s.transfer_ns)));

        let spans = rec.drain();
        let trees = span_metrics(&spans, &windows, &mut metrics);
        if let Some(path) = &opts.spans_out {
            write_spans(path, &spans).map_err(|e| format!("write spans: {e}"))?;
        }
        peak_rss_mib = sysinfo::peak_rss_mib().ok_or("VmHWM unreadable")?;
        details.push((
            "traced",
            Json::obj([
                ("reference_throughput_ops_s", reference_tp.into()),
                ("traced_throughput_ops_s", traced_tp.into()),
                ("raw_reference_throughput_ops_s", raw_reference_tp.into()),
                ("spans", spans.len().into()),
                ("requests", trees.len().into()),
                ("coverage_ops", coverage_ops.into()),
                ("paced_ops", ops.into()),
                ("paced_rate_ops_s", paced_rate.into()),
                ("peak_rss_mib", peak_rss_mib.into()),
            ]),
        ));
    }

    // Invariants on the live system: every license handed over is in the
    // store, and every purchase cost exactly one coin.
    let mut violations: Vec<String> = Vec::new();
    let licenses = stack.sys.provider.license_count() as u64;
    let expected_licenses = setup_licenses + checker.acknowledged.len() as u64;
    if licenses != expected_licenses {
        violations.push(format!(
            "provider holds {licenses} licenses, set-up + acknowledged is {expected_licenses}"
        ));
    }
    let spent = stack.sys.mint.spent_count() as u64;
    let expected_spent = setup_licenses + checker.purchased;
    if spent != expected_spent {
        violations.push(format!(
            "mint recorded {spent} spent coins, set-up + purchases is {expected_spent}"
        ));
    }

    // Probes on the live system (they spend coins of their own, hence
    // after the count check).
    if opts.traced {
        let pool = pool.as_ref().expect("traced runs build the pool");
        let owned = probe_license
            .as_ref()
            .expect("traced runs preload coverage licenses");
        probes::micro(&stack, pool, owned, &mut metrics);
        metrics.push((
            "core.purchase_inproc_us",
            probes::purchase_inproc_us(&stack, pool),
        ));
        probes::frame_rtt_us(&net, &mut metrics)?;
        probes::sync_commit(dir.path(), &mut metrics)?;
        let snapshot = p2drm_obs::global().snapshot();
        let hits = snapshot.counter("vcache_hits").unwrap_or(0) as f64;
        let misses = snapshot.counter("vcache_misses").unwrap_or(0) as f64;
        let hit_ratio = ratio(hits, hits + misses);
        metrics.push(("pki.vcache_hit_ratio", hit_ratio));
        let net_metrics = server.metrics();
        metrics.push(("net.shed_requests", checker.shed as f64));
        metrics.push(("net.busy_rejections", net_metrics.busy_rejections as f64));
        metrics.push((
            "net.pipeline_depth_hwm",
            net_metrics.pipeline_depth_hwm as f64,
        ));
        metrics.push(("core.error_replies", checker.error_replies as f64));
        // How much of a purchase's dispatch the outside timings explain:
        // one coin check, one deposit, one seal, one signature, the store
        // write it makes, and a pseudonym verify on every cache miss.
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let attributed = get("payment.coin_check_us")
            + get("payment.deposit_us")
            + get("crypto.envelope_seal_us")
            + get("crypto.rsa_sign_us")
            + get("store.write_p50_us")
            + (1.0 - hit_ratio) * get("pki.pseudonym_verify_us");
        metrics.push((
            "core.purchase_attributed_share",
            ratio(attributed, get("core.dispatch_purchase_us")),
        ));
    }

    // Shut everything down, then reopen the WAL directory cold: every
    // license a reply handed over must have survived.
    let (attempted, failed) = (checker.attempted, checker.failed);
    let first_failure = checker.first_failure.take();
    let acknowledged: Vec<LicenseId> = std::mem::take(&mut checker.acknowledged);
    let wal_dir = stack.store().inner().dir().to_path_buf();
    drop(harness);
    server.shutdown();
    drop(pool);
    drop(stack);
    let reopen = Instant::now();
    let (reopened, recovery) = WalShardedKv::open(&wal_dir, WalShardedConfig::default())
        .map_err(|e| format!("reopen store: {e}"))?;
    let replay_us_per_record = reopen.elapsed().as_secs_f64() * 1e6 / recovery.replayed_ops as f64;
    let missing = acknowledged
        .iter()
        .filter(|id| !reopened.contains(&[b"lic/", &id.as_bytes()[..]].concat()))
        .count();
    if missing > 0 {
        violations.push(format!(
            "{missing} acknowledged licenses missing after reopen"
        ));
    }
    if recovery.truncated_tail {
        violations.push("WAL had a torn tail after a clean shutdown".into());
    }
    if opts.traced {
        metrics.push(("store.replay_us_per_record", replay_us_per_record));
    }
    details.push((
        "checks",
        Json::obj([
            ("licenses_in_store", licenses.into()),
            ("coins_spent", spent.into()),
            ("acknowledged_licenses", acknowledged.len().into()),
            ("replayed_records", recovery.replayed_ops.into()),
            ("replay_us_per_record", replay_us_per_record.into()),
            (
                "violations",
                Json::Arr(violations.iter().map(Json::str).collect()),
            ),
            (
                "first_failure",
                first_failure.map_or(Json::Bool(false), Json::str),
            ),
        ]),
    ));
    Ok(Report {
        correct: failed == 0 && violations.is_empty(),
        attempted,
        failed,
        metrics,
        details: Json::obj(details),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<(&'static str, f64)>) -> Report {
        Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            details: Json::obj::<&str>([]),
        }
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = report(all.clone()).result_line(false).unwrap();
        for m in &END_TO_END {
            assert_eq!(crate::json::metric_value(&line, m.name), Some(1.5));
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));

        let traced: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 2.0)).collect();
        let line = report(traced).result_line(true).unwrap();
        for m in &PER_LAYER {
            assert_eq!(
                crate::json::metric_value(&line, m.name),
                Some(2.0),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn result_line_refuses_missing_unknown_duplicate_and_non_finite_metrics() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        let mut missing = all.clone();
        missing.pop();
        assert!(report(missing)
            .result_line(false)
            .unwrap_err()
            .contains("not measured"));
        let mut unknown = all.clone();
        unknown.push(("latency_ms", 1.0));
        assert!(report(unknown)
            .result_line(false)
            .unwrap_err()
            .contains("not in the catalogue"));
        let mut twice = all.clone();
        twice.push(all[0]);
        assert!(report(twice)
            .result_line(false)
            .unwrap_err()
            .contains("twice"));
        let mut nan = all;
        nan[0].1 = f64::NAN;
        assert!(report(nan).result_line(false).is_err());
        // A per-layer name is not an end-to-end metric.
        let layer: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 1.0)).collect();
        assert!(report(layer).result_line(false).is_err());
    }
}
