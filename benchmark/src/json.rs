//! The little JSON this benchmark writes (result and detail lines) and
//! reads back (its own result lines, in `selfcheck`).

use std::fmt;

/// A JSON value; objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN/inf; a metric that is not a number is a bug
            // the result check reports, so render it visibly.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The text right after `"key": ` in a line this module rendered.
fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    line.find(&needle).map(|at| &line[at + needle.len()..])
}

/// Reads back `"key": <number>`.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads back `"name": {"value": <number>` from a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_field(after_key(line, name)?, "value")
}

/// Reads back `"key": "<text>"` (text without escapes).
pub fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(line, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reads_back_a_result_line() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", 63_000u64.into()),
            ("failed", 0u64.into()),
            (
                "metrics",
                Json::obj([
                    (
                        "throughput_ops_s",
                        Json::obj([("value", 7512.25.into()), ("unit", Json::str("1/s"))]),
                    ),
                    (
                        "setup_s",
                        Json::obj([("value", 6.5.into()), ("unit", Json::str("s"))]),
                    ),
                ]),
            ),
        ])
        .to_string();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 63000, \"failed\": 0, "));
        assert_eq!(number_field(&line, "attempted"), Some(63_000.0));
        assert_eq!(metric_value(&line, "throughput_ops_s"), Some(7512.25));
        assert_eq!(metric_value(&line, "setup_s"), Some(6.5));
        assert_eq!(metric_value(&line, "missing"), None);
    }

    #[test]
    fn strings_are_escaped_and_non_numbers_visible() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd")),
            ("n", f64::NAN.into()),
            ("xs", Json::Arr(vec![1.0.into(), 2.5.into()])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\": \"a\\\"b\\\\c\\nd\", \"n\": null, \"xs\": [1, 2.5]}"
        );
        assert_eq!(string_field("{\"sha\": \"abc\"}", "sha"), Some("abc"));
    }
}
