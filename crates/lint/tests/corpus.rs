//! Corpus tests: each `tests/corpus/*_bad.rs` snippet must trip the
//! taint pass, and the matching `*_good.rs` rewrite must be quiet. The
//! corpus files are data, not compiled code (the workspace sweep skips
//! them via `lint.toml`'s `[skip]` section), so they double as living
//! documentation of what the pass accepts and rejects.

use p2drm_lint::source::SourceFile;
use p2drm_lint::taint;

fn parse(name: &str, src: &str) -> SourceFile {
    SourceFile::parse(name, src)
}

#[test]
fn taint_bad_is_fully_flagged() {
    let sf = parse("taint_bad.rs", include_str!("corpus/taint_bad.rs"));
    let f = taint::run(&sf);
    assert!(
        f.iter()
            .any(|x| x.message.contains("branch on secret-tainted")),
        "missing branch finding: {f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.message.contains("index by secret-tainted")),
        "missing index finding: {f:?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("short-circuit")),
        "missing short-circuit finding: {f:?}"
    );
    // The `while` in taint_flows_through_let proves propagation through
    // two `let` bindings, not just direct use of the seed.
    assert!(
        f.iter().any(|x| x.message.contains("`derived`")),
        "taint did not flow through let bindings: {f:?}"
    );
    // The three patterns of a leaky windowed exponentiation: the top
    // window read at an exponent-derived index, the skip on a zero digit
    // and the read of `table[d]`.
    let mut windowed: Vec<_> = f.iter().filter(|x| x.line > 30).collect();
    windowed.sort_by_key(|x| x.line);
    let windowed: Vec<&str> = windowed.iter().map(|x| x.text.trim()).collect();
    assert_eq!(
        windowed,
        [
            "let mut acc = table[exp.bits_at((nwin - 1) * w, w) as usize].clone();",
            "if d != 0 {",
            "acc = mont.mont_mul(&acc, &table[d]);",
        ],
        "windowed_pow: {f:?}"
    );
    assert_eq!(f.len(), 7, "unexpected extra findings: {f:?}");
}

#[test]
fn taint_good_is_quiet() {
    let sf = parse("taint_good.rs", include_str!("corpus/taint_good.rs"));
    let f = taint::run(&sf);
    assert!(f.is_empty(), "constant-time rewrite still flagged: {f:?}");
}

fn sink_names() -> Vec<String> {
    ["counter", "gauge", "histogram", "stage", "flag", "begin"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn taint_sink_bad_is_fully_flagged() {
    let sf = parse(
        "taint_sink_bad.rs",
        include_str!("corpus/taint_sink_bad.rs"),
    );
    let f = taint::run_sinks(&sf, &sink_names());
    let hit = |needle: &str| f.iter().any(|x| x.message.contains(needle));
    assert!(hit("`card_id` passed to telemetry sink `counter`"), "{f:?}");
    assert!(hit("`bucket` passed to telemetry sink `gauge`"), "{f:?}");
    assert!(hit("`tag` passed to telemetry sink `stage`"), "{f:?}");
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
}

#[test]
fn taint_sink_good_is_quiet() {
    let sf = parse(
        "taint_sink_good.rs",
        include_str!("corpus/taint_sink_good.rs"),
    );
    let f = taint::run_sinks(&sf, &sink_names());
    assert!(f.is_empty(), "static-label rewrite still flagged: {f:?}");
}
