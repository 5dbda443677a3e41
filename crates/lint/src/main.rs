//! `p2drm-lint` CLI.
//!
//! ```text
//! p2drm-lint [--root DIR] [--deny] [--update-baseline]
//! ```
//!
//! Runs the taint pass over the workspace and diffs its findings
//! against `lint-baseline.toml`. With `--deny`, any finding not in the
//! baseline exits 1 (this is what CI runs). `--update-baseline` rewrites
//! the baseline to the current findings, preserving `note` fields. A
//! `paths` / `sink_paths` entry of `lint.toml` that matches no analysed
//! file exits 1 under every flag.

use p2drm_lint::baseline::{fingerprints, Baseline};
use p2drm_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut update = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--deny" => deny = true,
            "--update-baseline" => update = true,
            "--help" | "-h" => {
                println!("usage: p2drm-lint [--root DIR] [--deny] [--update-baseline]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let cfg = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => match Config::parse(&text) {
            Ok(cfg) => cfg,
            Err(e) => return fail(&format!("bad lint.toml: {e}")),
        },
        Err(e) => return fail(&format!("cannot read lint.toml under {:?}: {e}", root)),
    };

    let report = match p2drm_lint::run_all(&root, &cfg) {
        Ok(r) => r,
        Err(e) => return fail(&format!("analysis failed: {e}")),
    };

    // A scoped pass that sweeps nothing is a configuration error, not a
    // clean run: fail whatever the flags.
    if !report.dead_paths.is_empty() {
        for entry in &report.dead_paths {
            eprintln!("p2drm-lint: lint.toml {entry} matches no analysed file");
        }
        return fail("a listed module was moved or deleted; point lint.toml at where it went");
    }

    let keys = fingerprints(&report.findings);
    let baseline_path = root.join("lint-baseline.toml");
    let prev = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => return fail(&format!("bad lint-baseline.toml: {e}")),
        },
        Err(_) => Baseline::default(),
    };

    if update {
        let text = Baseline::render(&report.findings, &keys, &prev);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            return fail(&format!("cannot write lint-baseline.toml: {e}"));
        }
        println!(
            "p2drm-lint: baseline updated with {} finding(s)",
            report.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let mut new = 0usize;
    for (f, key) in report.findings.iter().zip(&keys) {
        let known = prev.entries.contains_key(key);
        if known {
            continue;
        }
        new += 1;
        eprintln!(
            "{}:{}: [{}] {}\n    {}\n    fingerprint: {}",
            f.file,
            f.line,
            f.pass,
            f.message,
            f.text.trim(),
            key
        );
    }
    // Stale baseline entries: warn, never fail — a fixed finding should
    // not break CI, just prompt a baseline refresh.
    let stale: Vec<&str> = prev
        .entries
        .keys()
        .filter(|k| !keys.iter().any(|x| x == *k))
        .map(|s| s.as_str())
        .collect();
    for k in &stale {
        eprintln!("p2drm-lint: warning: stale baseline entry {k} (run --update-baseline)");
    }

    println!(
        "p2drm-lint: {} finding(s), {} baselined, {} new, {} stale baseline entr{}",
        report.findings.len(),
        report.findings.len() - new,
        new,
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" },
    );

    if new > 0 && deny {
        eprintln!(
            "p2drm-lint: {} new finding(s); fix them, justify with a `// lint:` annotation, \
             or accept with --update-baseline",
            new
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("p2drm-lint: {msg}\nusage: p2drm-lint [--root DIR] [--deny] [--update-baseline]");
    ExitCode::FAILURE
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("p2drm-lint: {msg}");
    ExitCode::FAILURE
}
