//! `lint.toml` loader. The offline environment forbids a real TOML
//! dependency, so this is a tiny hand parser covering exactly the
//! subset the config uses: `[section]` headers and `key = [ "…", … ]`
//! string arrays (single- or multi-line), plus `#` comments.

use std::collections::BTreeMap;

/// Parsed `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Path prefixes of modules the taint pass treats as timing-sensitive.
    pub taint_paths: Vec<String>,
    /// Function names treated as telemetry sinks: a secret-tainted
    /// identifier passed as an argument to a call of one of these names
    /// is a finding (privacy rule — secrets must never reach metrics or
    /// spans).
    pub taint_sinks: Vec<String>,
    /// Path prefixes the telemetry-sink rule runs over.
    pub taint_sink_paths: Vec<String>,
    /// Path prefixes never analysed (corpus fixtures, target/).
    pub skip_paths: Vec<String>,
}

impl Config {
    /// Parses the config text. Unknown sections and keys are ignored so
    /// the format can grow without breaking older binaries.
    pub fn parse(text: &str) -> Result<Config, String> {
        let tables = parse_tables(text)?;
        let get = |sec: &str, key: &str| -> Vec<String> {
            tables
                .get(sec)
                .and_then(|t| t.get(key))
                .cloned()
                .unwrap_or_default()
        };
        Ok(Config {
            taint_paths: get("taint", "paths"),
            taint_sinks: get("taint", "sinks"),
            taint_sink_paths: get("taint", "sink_paths"),
            skip_paths: get("skip", "paths"),
        })
    }

    /// Does `path` (workspace-relative, `/`-separated) fall under any of
    /// the given prefixes?
    pub fn matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            let p = p.trim_end_matches('/');
            path == p || path.starts_with(p) && path[p.len()..].starts_with('/')
        })
    }

    /// Is this file left out of the sweep?
    pub fn skipped(&self, path: &str) -> bool {
        Self::matches(path, &self.skip_paths)
    }
}

type Tables = BTreeMap<String, BTreeMap<String, Vec<String>>>;

fn parse_tables(text: &str) -> Result<Tables, String> {
    let mut tables: Tables = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            tables.entry(section.clone()).or_default();
            continue;
        }
        let Some((key, mut val)) = line.split_once('=') else {
            return Err(format!("lint.toml:{}: expected `key = [...]`", ln + 1));
        };
        let key = key.trim().to_string();
        let mut buf = val.trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance.
        while !buf.contains(']') {
            let Some((_, next)) = lines.next() else {
                return Err(format!("lint.toml:{}: unterminated array", ln + 1));
            };
            buf.push(' ');
            buf.push_str(strip_comment(next).trim());
        }
        val = "";
        let _ = val;
        let items = parse_string_array(&buf).map_err(|e| format!("lint.toml:{}: {}", ln + 1, e))?;
        tables
            .entry(section.clone())
            .or_default()
            .insert(key, items);
    }
    Ok(tables)
}

fn strip_comment(line: &str) -> &str {
    // `#` only starts a comment outside quotes; the config never puts
    // `#` inside a path, so a simple quote scan suffices.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_array(s: &str) -> Result<Vec<String>, String> {
    let s = s.trim();
    let body = s
        .strip_prefix('[')
        .and_then(|s| s.rfind(']').map(|i| &s[..i]))
        .ok_or("expected a [\"…\"] array")?;
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let Some(open) = rest.find('"') else { break };
        let after = &rest[open + 1..];
        let close = after.find('"').ok_or("unterminated string")?;
        out.push(after[..close].to_string());
        rest = after[close + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(
            "# comment\n[taint]\npaths = [\"a/b.rs\", \"c\"]\nsinks = [\"counter\", \"stage\"]\nsink_paths = [\n  \"d/e.rs\", # trailing\n  \"f\",\n]\n\n[skip]\npaths = []\n",
        )
        .unwrap();
        assert_eq!(cfg.taint_paths, ["a/b.rs", "c"]);
        assert_eq!(cfg.taint_sinks, ["counter", "stage"]);
        assert_eq!(cfg.taint_sink_paths, ["d/e.rs", "f"]);
        assert!(cfg.skip_paths.is_empty());
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let p = vec!["crates/net".to_string()];
        assert!(Config::matches("crates/net/src/server.rs", &p));
        assert!(Config::matches("crates/net", &p));
        assert!(!Config::matches("crates/netx/src/lib.rs", &p));
    }
}
