//! Robustness properties for the analyzer front end: lexing and
//! source-model construction must never panic, whatever bytes they are
//! fed — the tool runs over every file in the workspace, including
//! ones mid-edit, and a front-end crash would take CI down with it.

use p2drm_lint::lexer;
use p2drm_lint::source::SourceFile;
use proptest::prelude::*;

/// Arbitrary (lossy-UTF-8) strings: exercises truncated string/char
/// literals, stray quotes, unbalanced delimiters and raw control bytes.
fn raw_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Rust-flavored token soup: the same fragments the pass keys on
/// (annotations, quotes, delimiters, operators) in random order, which
/// reaches much deeper into the parser than uniform bytes do.
fn token_soup() -> impl Strategy<Value = String> {
    const FRAGMENTS: &[&str] = &[
        "fn",
        "let",
        "mut",
        "if",
        "while",
        "match",
        "unsafe",
        "impl",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "<",
        ">",
        "<<",
        ">>",
        ";",
        ",",
        "=",
        "==",
        "&&",
        "||",
        "&",
        "counter(",
        ".unwrap()",
        "'a",
        "'x'",
        "b'\\n'",
        "\"str",
        "\"lit\"",
        "b\"bytes\"",
        "r#\"raw\"#",
        "// lint: secret",
        "// lint: public(len)",
        "/* block",
        "*/",
        "#[test]",
        "x",
        "0x1f",
        "1_000",
        "::",
    ];
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64).prop_map(|picks| {
        let mut s = String::new();
        for (n, i) in picks.into_iter().enumerate() {
            s.push_str(FRAGMENTS[i]);
            s.push(if n % 7 == 0 { '\n' } else { ' ' });
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexing_arbitrary_bytes_never_panics(src in raw_text()) {
        let toks = lexer::lex(&src);
        // Reconstruction sanity: every token's text came from the input.
        prop_assert!(toks.iter().all(|t| !t.text.is_empty()));
    }

    #[test]
    fn parsing_arbitrary_bytes_never_panics(src in raw_text()) {
        let sf = SourceFile::parse("fuzz.rs", &src);
        let _ = sf.fns();
        let _ = sf.condition_ranges();
    }

    #[test]
    fn full_pipeline_survives_token_soup(src in token_soup()) {
        let sf = SourceFile::parse("soup.rs", &src);
        let _ = p2drm_lint::taint::run(&sf);
        let _ = p2drm_lint::taint::run_sinks(&sf, &["counter".to_string()]);
    }
}

/// Every checked-in source file in the workspace must lex and parse
/// without panicking — the cheap end-to-end guarantee backing the CI
/// sweep.
#[test]
fn workspace_sources_lex_and_parse() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let mut stack = vec![root];
    let mut seen = 0usize;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                let sf = SourceFile::parse(&path.to_string_lossy(), &src);
                let _ = sf.fns();
                seen += 1;
            }
        }
    }
    assert!(seen > 50, "workspace walk found only {seen} .rs files");
}
