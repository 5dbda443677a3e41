//! The committed findings baseline (`lint-baseline.toml`).
//!
//! Each accepted finding is fingerprinted by pass, file and the
//! *normalized text* of its line (whitespace collapsed) rather than its
//! line number, so unrelated edits above a finding do not invalidate the
//! baseline. Identical lines in one file are disambiguated with an
//! occurrence index. `--deny` fails only on findings whose fingerprint
//! is absent from the baseline; stale baseline entries warn.

use crate::Finding;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One baseline entry as stored on disk.
#[derive(Debug, Clone, Default)]
pub struct Entry {
    pub pass: String,
    pub file: String,
    pub line: u32,
    pub key: String,
    pub text: String,
    pub note: String,
}

/// The parsed baseline: fingerprint key → entry.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: BTreeMap<String, Entry>,
}

/// FNV-1a 64-bit; tiny, stable, good enough for fingerprinting lines.
fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Computes fingerprint keys for a batch of findings. Findings that
/// hash identically (same pass/file/line-text) get `-0`, `-1`, …
/// occurrence suffixes in file order.
pub fn fingerprints(findings: &[Finding]) -> Vec<String> {
    let mut seen: HashMap<u64, u32> = HashMap::new();
    findings
        .iter()
        .map(|f| {
            let h = fnv1a64(&format!("{}|{}|{}", f.pass, f.file, normalize(&f.text)));
            let n = seen.entry(h).or_insert(0);
            let key = format!("{:016x}-{}", h, n);
            *n += 1;
            key
        })
        .collect()
}

impl Baseline {
    /// Parses `lint-baseline.toml`. Accepts only the `[[finding]]`
    /// shape this tool writes; anything else is an error so drift is
    /// caught immediately.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        let mut cur: Option<Entry> = None;
        let flush = |cur: &mut Option<Entry>, entries: &mut BTreeMap<String, Entry>| {
            if let Some(e) = cur.take() {
                entries.insert(e.key.clone(), e);
            }
        };
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[finding]]" {
                flush(&mut cur, &mut entries);
                cur = Some(Entry::default());
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!("baseline:{}: expected `key = \"…\"`", ln + 1));
            };
            let e = cur
                .as_mut()
                .ok_or_else(|| format!("baseline:{}: key before [[finding]]", ln + 1))?;
            let v = unquote(v.trim()).ok_or_else(|| {
                format!("baseline:{}: expected a quoted string or number", ln + 1)
            })?;
            match k.trim() {
                "pass" => e.pass = v,
                "file" => e.file = v,
                "line" => e.line = v.parse().unwrap_or(0),
                "key" => e.key = v,
                "text" => e.text = v,
                "note" => e.note = v,
                other => return Err(format!("baseline:{}: unknown key `{}`", ln + 1, other)),
            }
        }
        flush(&mut cur, &mut entries);
        Ok(Baseline { entries })
    }

    /// Serializes findings (with their fingerprints) back to baseline
    /// text, carrying over notes from `prev` where fingerprints match.
    pub fn render(findings: &[Finding], keys: &[String], prev: &Baseline) -> String {
        let mut out = String::from(
            "# p2drm-lint baseline: accepted findings, keyed by a fingerprint of\n\
             # (pass, file, normalized line text). Regenerate with --update-baseline;\n\
             # `note` fields are preserved across regeneration.\n",
        );
        for (f, key) in findings.iter().zip(keys) {
            let note = prev
                .entries
                .get(key)
                .map(|e| e.note.clone())
                .unwrap_or_default();
            let _ = write!(
                out,
                "\n[[finding]]\npass = \"{}\"\nfile = \"{}\"\nline = \"{}\"\nkey = \"{}\"\ntext = \"{}\"\n",
                escape(&f.pass),
                escape(&f.file),
                f.line,
                key,
                escape(&normalize(&f.text)),
            );
            if !note.is_empty() {
                let _ = writeln!(out, "note = \"{}\"", escape(&note));
            }
        }
        out
    }
}

fn unquote(v: &str) -> Option<String> {
    if let Some(inner) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        let mut out = String::new();
        let mut esc = false;
        for c in inner.chars() {
            if esc {
                out.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else {
                out.push(c);
            }
        }
        Some(out)
    } else if v.chars().all(|c| c.is_ascii_digit()) && !v.is_empty() {
        Some(v.to_string())
    } else {
        None
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            other => vec![other],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn f(pass: &str, file: &str, line: u32, text: &str) -> Finding {
        Finding {
            pass: pass.into(),
            file: file.into(),
            line,
            text: text.into(),
            message: String::new(),
        }
    }

    #[test]
    fn roundtrip_preserves_notes() {
        let findings = vec![
            f("taint", "a.rs", 3, "if  secret  {"),
            f("taint", "a.rs", 9, "if secret {"),
            f("taint", "b.rs", 1, "table[k]"),
        ];
        let keys = fingerprints(&findings);
        // Identical normalized lines share a hash but differ by suffix.
        assert_eq!(keys[0].split('-').next(), keys[1].split('-').next());
        assert_ne!(keys[0], keys[1]);

        let mut prev = Baseline::default();
        prev.entries.insert(
            keys[2].clone(),
            Entry {
                note: "known debt".into(),
                key: keys[2].clone(),
                ..Entry::default()
            },
        );
        let text = Baseline::render(&findings, &keys, &prev);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 3);
        assert_eq!(parsed.entries[&keys[2]].note, "known debt");
        assert_eq!(parsed.entries[&keys[0]].pass, "taint");
        // Line-number drift does not change the fingerprint.
        let moved = vec![f("taint", "b.rs", 40, "table[k]")];
        assert_eq!(fingerprints(&moved)[0], keys[2]);
    }
}
