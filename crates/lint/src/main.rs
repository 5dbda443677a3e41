//! `p2drm-lint` CLI.
//!
//! ```text
//! p2drm-lint [--root DIR]
//! ```
//!
//! Runs the taint pass over the workspace, prints every finding and
//! exits 1 if there is any (this is what CI runs). A `paths` /
//! `sink_paths` entry of `lint.toml` that matches no analysed file exits
//! 1 as well.

use p2drm_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("usage: p2drm-lint [--root DIR]");
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
    // clean run.
    if !report.dead_paths.is_empty() {
        for entry in &report.dead_paths {
            eprintln!("p2drm-lint: lint.toml {entry} matches no analysed file");
        }
        return fail("a listed module was moved or deleted; point lint.toml at where it went");
    }

    for f in &report.findings {
        eprintln!(
            "{}:{}: [{}] {}\n    {}",
            f.file,
            f.line,
            f.pass,
            f.message,
            f.text.trim()
        );
    }
    println!("p2drm-lint: {} finding(s)", report.findings.len());
    if !report.findings.is_empty() {
        eprintln!(
            "p2drm-lint: fix each finding, or justify it with a `// lint: public(…)` annotation"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("p2drm-lint: {msg}\nusage: p2drm-lint [--root DIR]");
    ExitCode::FAILURE
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("p2drm-lint: {msg}");
    ExitCode::FAILURE
}
