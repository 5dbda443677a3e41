//! # p2drm-lint — workspace secret-taint analyzer
//!
//! A std-only static analyzer for this workspace (the build environment
//! is offline, so it hand-rolls its own Rust lexer and a lightweight
//! block/scope parser instead of depending on `syn`). It runs the one
//! check the compiler and clippy cannot, the **taint** pass:
//!
//! - secret-taint / constant-time discipline over modules declared
//!   timing-sensitive in `lint.toml`. Values seeded by `// lint: secret`
//!   propagate through assignments; branching (`if`/`match`/`while`/
//!   `&&`/`||`) or slice-indexing on a tainted value is flagged unless
//!   justified with `// lint: public(<why>)`;
//! - the observability privacy rule over `[taint] sink_paths`: a tainted
//!   identifier passed to a telemetry sink call (`counter`, `gauge`,
//!   `histogram`, `stage`, `flag`, `begin`, …, per `[taint] sinks`) is a
//!   finding — metric names and span fields must stay static strings,
//!   durations and counts.
//!
//! SAFETY comments, panic paths and retry discipline are clippy lints
//! and lock order is `parking_lot`'s runtime lockdep (README "Static
//! analysis"). Any finding fails the run; there is no list of accepted
//! ones.

pub mod config;
pub mod lexer;
pub mod source;
pub mod taint;

use config::Config;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass name (`taint`).
    pub pass: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The raw text of the offending line, printed with the finding.
    pub text: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(pass: &str, sf: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            pass: pass.to_string(),
            file: sf.path.clone(),
            line,
            text: sf.line_text(line).to_string(),
            message,
        }
    }
}

/// Everything one run produces.
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    /// Scope entries of `lint.toml` that matched no analysed file (see
    /// [`dead_scope_paths`]); the CLI fails on any.
    pub dead_paths: Vec<String>,
}

/// Recursively collects workspace `.rs` files under `root`, skipping
/// `target/`, hidden directories and configured skips.
pub fn workspace_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                if cfg.skipped(&rel) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") && !cfg.skipped(&rel) {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative, `/`-separated path.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// `lint.toml` scope entries, rendered `[section] key: prefix`, under
/// which none of `files` (workspace-relative) falls: a module that was
/// moved or renamed out from under its pass, which would otherwise stop
/// being swept without anyone noticing.
pub fn dead_scope_paths(cfg: &Config, files: &[String]) -> Vec<String> {
    let scopes = [
        ("taint", "paths", &cfg.taint_paths),
        ("taint", "sink_paths", &cfg.taint_sink_paths),
    ];
    let mut dead = Vec::new();
    for (section, key, prefixes) in scopes {
        for prefix in prefixes {
            let scope = std::slice::from_ref(prefix);
            if !files.iter().any(|f| Config::matches(f, scope)) {
                dead.push(format!("[{section}] {key}: {prefix}"));
            }
        }
    }
    dead
}

/// Runs the taint pass over the workspace rooted at `root`.
pub fn run_all(root: &Path, cfg: &Config) -> std::io::Result<WorkspaceReport> {
    let files = workspace_files(root, cfg)?;
    let mut findings = Vec::new();
    let mut analysed = Vec::with_capacity(files.len());
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = rel_path(root, path);
        let sf = SourceFile::parse(&rel, &src);
        if Config::matches(&rel, &cfg.taint_paths) {
            findings.extend(taint::run(&sf));
        }
        if Config::matches(&rel, &cfg.taint_sink_paths) {
            findings.extend(taint::run_sinks(&sf, &cfg.taint_sinks));
        }
        analysed.push(rel);
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.pass).cmp(&(&b.file, b.line, &b.pass)));
    Ok(WorkspaceReport {
        findings,
        dead_paths: dead_scope_paths(cfg, &analysed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_entry_matching_no_file_is_reported() {
        let cfg = Config::parse(
            "[taint]\npaths = [\"crates/crypto/src/rsa.rs\", \"crates/bignum/src\"]\n\
             sink_paths = [\"crates/obs/src\"]\n\
             [skip]\npaths = [\"gone\"]\n",
        )
        .unwrap();
        let files = [
            "crates/crypto/src/rsa/mod.rs".to_string(),
            "crates/bignum/src/mont.rs".to_string(),
            "crates/obs/src/lib.rs".to_string(),
        ];
        // The file that became a directory is dead; the directory prefixes
        // and the `[skip]` entry (never expected to match) are not.
        assert_eq!(
            dead_scope_paths(&cfg, &files),
            ["[taint] paths: crates/crypto/src/rsa.rs"]
        );
        assert_eq!(dead_scope_paths(&cfg, &[]).len(), 3);
    }
}
