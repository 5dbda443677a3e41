//! `p2drm-benchmark`: fixed-work end-to-end and per-layer benchmark of
//! the p2drm stack (see `benchmark/README.md`).
//!
//! ```text
//! p2drm-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--spans-out <file>]
//! p2drm-benchmark all [--seed <u64>] [--seconds <n>]
//! p2drm-benchmark selfcheck [--seed <u64>] [--seconds <n>]
//! p2drm-benchmark list [--benchmark-json]
//! ```

mod catalogue;
mod corpus;
mod generator;
mod json;
mod probes;
mod run;
mod session;
mod spans;
mod stack;
mod stats;
mod sysinfo;
mod yardstick;

use catalogue::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: p2drm-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--spans-out <file>]
       p2drm-benchmark all [--seed <u64>] [--seconds <n>]
       p2drm-benchmark selfcheck [--seed <u64>] [--seconds <n>]
       p2drm-benchmark list [--benchmark-json]";

/// `--name value` options after the subcommand; bare `--traced` and
/// `--benchmark-json` are flags.
struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match name {
                "traced" | "benchmark-json" => None,
                "workload" | "seed" | "seconds" | "trace" | "spans-out" => Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                ),
                _ => return Err(format!("unknown option --{name}")),
            };
            out.push((name.to_string(), value));
        }
        Ok(Args(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}"))
        })
    }
}

fn run_command(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let name = args.value("workload").ok_or("run needs --workload")?;
    let workload = catalogue::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seconds = args.number("seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let traced = args.has("traced")
        || match args.value("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
    let opts = run::Options {
        workload,
        seed: args.number("seed", 1)?,
        seconds,
        traced,
        spans_out: args.value("spans-out").map(Into::into),
        started,
    };
    let report = run::run(&opts)?;
    let line = report.result_line(traced)?;
    println!("{}", json::Json::obj([("details", report.details)]));
    println!("{line}");
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process (so peak memory and set-up time
/// are that run's own) and returns `(detail line, result line)`.
fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(result), Some(details)) if output.status.success() => {
            Ok((details.to_string(), result.to_string()))
        }
        _ => Err(format!(
            "run {workload} --seed {seed} failed ({}): {}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn all_command(args: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (
        args.number("seed", 1)?,
        args.number("seconds", RUN_SECONDS)?,
    );
    for w in &WORKLOADS {
        let (_, result) = child_run(w.name, seed, seconds)?;
        println!("{} {result}", w.name);
    }
    Ok(ExitCode::SUCCESS)
}

/// Same seed twice and the next seed once, per workload: every pair of
/// runs must agree within each end-to-end metric's own bound, equal seeds
/// must give equal corpora, different seeds different ones. `setup_s` is
/// shown but, as in the acceptance rule this mirrors, its run-to-run
/// spread is not held against it (only medians of many runs are compared;
/// single set-ups of 2 s differ by a quarter on a busy host).
fn selfcheck_command(args: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (
        args.number("seed", 1)?,
        args.number("seconds", RUN_SECONDS)?,
    );
    let mut ok = true;
    for w in &WORKLOADS {
        let runs = [
            child_run(w.name, seed, seconds)?,
            child_run(w.name, seed, seconds)?,
            child_run(w.name, seed + 1, seconds)?,
        ];
        let digests: Vec<&str> = runs
            .iter()
            .map(|(details, _)| json::string_field(details, "corpus_sha256").unwrap_or("?"))
            .collect();
        let corpus_ok = digests[0] == digests[1] && digests[0] != digests[2] && digests[0] != "?";
        let attempted: Vec<f64> = runs
            .iter()
            .map(|(_, r)| json::number_field(r, "attempted").unwrap_or(f64::NAN))
            .collect();
        let failed: f64 = runs
            .iter()
            .map(|(_, r)| json::number_field(r, "failed").unwrap_or(f64::NAN))
            .sum();
        println!(
            "{}: corpus {} / {} / {} -> {}; attempted {:?}; failed {failed}",
            w.name,
            &digests[0][..12.min(digests[0].len())],
            &digests[1][..12.min(digests[1].len())],
            &digests[2][..12.min(digests[2].len())],
            if corpus_ok { "ok" } else { "MISMATCH" },
            attempted,
        );
        ok &= corpus_ok && failed == 0.0 && attempted[0] == attempted[1];
        for m in &END_TO_END {
            let v: Vec<f64> = runs
                .iter()
                .map(|(_, r)| json::metric_value(r, m.name).unwrap_or(f64::NAN))
                .collect();
            let median = stats::median(&v).unwrap_or(f64::NAN);
            let spread = (v.iter().cloned().fold(f64::MIN, f64::max)
                - v.iter().cloned().fold(f64::MAX, f64::min))
                / median;
            let within = (0..3)
                .all(|a| (0..3).all(|b| !m.better.worse_by_more_than(v[a], v[b], m.bound)))
                && v.iter().all(|x| x.is_finite());
            let gated = m.name != "setup_s";
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:<5} spread {:>6.2}% bound {:>4.1}% {}",
                m.name,
                v[0],
                v[1],
                v[2],
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                match (within, gated) {
                    (true, _) => "ok",
                    (false, true) => "OUT OF BOUND",
                    (false, false) => "out of bound (not gated)",
                }
            );
            ok &= within || !gated;
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list_command(args: &Args) -> ExitCode {
    if args.has("benchmark-json") {
        print!("{}", catalogue::benchmark_json());
    } else {
        for w in &WORKLOADS {
            println!("{:<18} {}", w.name, w.why);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.split_first() {
        None => Err(USAGE.to_string()),
        Some((command, rest)) => Args::parse(rest).and_then(|args| match command.as_str() {
            "run" => run_command(&args, started),
            "all" => all_command(&args),
            "selfcheck" => selfcheck_command(&args),
            "list" => Ok(list_command(&args)),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        }),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("p2drm-benchmark: {why}");
        ExitCode::from(2)
    })
}
