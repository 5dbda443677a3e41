//! Lightweight block/scope model over the token stream: matched
//! delimiters, function items, `#[cfg(test)]`/`#[test]` spans, per-line
//! annotation lookup, and condition-range extraction. This is the
//! substrate the taint pass walks; it is resolutely an *approximation*
//! (no type information, no name resolution) tuned to be conservative on
//! real workspace code.

use crate::lexer::{lex, Tok, TokKind};

/// A lexed file plus the structural indexes the passes need.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Every token, comments included.
    pub toks: Vec<Tok>,
    /// Raw source lines (1-based access via [`SourceFile::line_text`]).
    pub lines: Vec<String>,
    /// Indices into `toks` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// For each token index: the matching close/open delimiter token
    /// index, for `{}`, `()` and `[]`.
    pub matching: Vec<Option<usize>>,
    /// Token-index ranges (inclusive start, exclusive end) of items
    /// under `#[cfg(test)]` / `#[test]` attributes.
    pub test_spans: Vec<(usize, usize)>,
}

/// One `fn` item: signature and body token ranges.
pub struct FnItem {
    /// Name of the function.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Parameter-list range: indices of `(` and `)` tokens, if found.
    pub params: Option<(usize, usize)>,
    /// Body range: indices of `{` and `}` tokens. `None` for bodyless
    /// declarations (trait methods, externs).
    pub body: Option<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and indexes `src`.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let matching = match_delims(&toks);
        let mut sf = SourceFile {
            path: path.to_string(),
            toks,
            lines,
            code,
            matching,
            test_spans: Vec::new(),
        };
        sf.test_spans = find_test_spans(&sf);
        sf
    }

    /// The raw text of a 1-based line ("" when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get((line as usize).saturating_sub(1))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// Is token index `i` inside a `#[cfg(test)]`/`#[test]` item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// All comments that can annotate `line`: trailing comments on the
    /// line itself and *full-line* comments directly above it (a
    /// trailing comment annotates its own line only).
    pub fn comments_for(&self, line: u32) -> impl Iterator<Item = &str> {
        self.toks
            .iter()
            .filter(move |t| {
                t.kind == TokKind::Comment
                    && (t.line == line
                        || (t.line + 1 == line && {
                            let lt = self.line_text(t.line).trim_start();
                            lt.starts_with("//") || lt.starts_with("/*")
                        }))
            })
            .map(|t| t.text.as_str())
    }

    /// Does `line` carry a `// lint: <marker>…` annotation (on the line
    /// or the line directly above)?
    pub fn has_annotation(&self, line: u32, marker: &str) -> bool {
        self.comments_for(line).any(|c| c.contains(marker))
    }

    /// Previous non-comment token before token index `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        self.toks[..i]
            .iter()
            .rposition(|t| t.kind != TokKind::Comment)
    }

    /// Next non-comment token after token index `i`.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        self.toks[i + 1..]
            .iter()
            .position(|t| t.kind != TokKind::Comment)
            .map(|off| i + 1 + off)
    }

    /// Every `fn` item in the file (including nested ones and methods).
    pub fn fns(&self) -> Vec<FnItem> {
        let mut out = Vec::new();
        for (ci, &i) in self.code.iter().enumerate() {
            if !self.toks[i].is_ident("fn") {
                continue;
            }
            let Some(&name_i) = self.code.get(ci + 1) else {
                continue;
            };
            if self.toks[name_i].kind != TokKind::Ident {
                continue; // `fn` in a type position (`fn(&u8)`)
            }
            let name = self.toks[name_i].text.clone();
            // Walk the signature: find the param `(` at angle-depth 0,
            // then the body `{` (or `;` for a bodyless declaration).
            let mut angle = 0i32;
            let mut params = None;
            let mut body = None;
            let mut k = ci + 2;
            while let Some(&ti) = self.code.get(k) {
                let t = &self.toks[ti];
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    "(" if angle <= 0 && params.is_none() => {
                        if let Some(close) = self.matching[ti] {
                            params = Some((ti, close));
                            // Jump past the parameter list.
                            while let Some(&nj) = self.code.get(k) {
                                if nj >= close {
                                    break;
                                }
                                k += 1;
                            }
                        }
                    }
                    // An array type (`-> [u64; 4]`): its `;` ends
                    // nothing.
                    "[" => {
                        if let Some(close) = self.matching[ti] {
                            while self.code.get(k + 1).is_some_and(|&nj| nj <= close) {
                                k += 1;
                            }
                        }
                    }
                    "{" => {
                        if let Some(close) = self.matching[ti] {
                            body = Some((ti, close));
                        }
                        break;
                    }
                    ";" => break,
                    _ => {}
                }
                k += 1;
            }
            out.push(FnItem {
                name,
                kw: i,
                params,
                body,
            });
        }
        out
    }

    /// Token ranges of `if`/`while`/`match` heads: from the keyword to
    /// the body `{` (exclusive). Paren/bracket groups inside the head
    /// are skipped wholesale, so a closure block inside parens does not
    /// cut the range short.
    pub fn condition_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ci, &i) in self.code.iter().enumerate() {
            let t = &self.toks[i];
            if !(t.is_ident("if") || t.is_ident("while") || t.is_ident("match")) {
                continue;
            }
            let mut k = ci + 1;
            while let Some(&ti) = self.code.get(k) {
                match self.toks[ti].text.as_str() {
                    "(" | "[" => {
                        // Skip the whole group.
                        if let Some(close) = self.matching[ti] {
                            while let Some(&nj) = self.code.get(k) {
                                if nj >= close {
                                    break;
                                }
                                k += 1;
                            }
                        }
                    }
                    "{" => {
                        out.push((i, ti));
                        break;
                    }
                    ";" => break, // malformed; bail
                    _ => {}
                }
                k += 1;
            }
        }
        out
    }
}

/// Matches `{}`, `()` and `[]` over non-comment tokens; tolerant of
/// imbalance (unmatched delimiters stay `None`).
fn match_delims(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut matching = vec![None; toks.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" | "(" | "[" => stack.push((t.text.chars().next().unwrap_or('{'), i)),
            "}" | ")" | "]" => {
                let want = match t.text.as_str() {
                    "}" => '{',
                    ")" => '(',
                    _ => '[',
                };
                // Pop to the nearest matching opener; discard mismatches.
                while let Some(&(c, j)) = stack.last() {
                    stack.pop();
                    if c == want {
                        matching[j] = Some(i);
                        matching[i] = Some(j);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    matching
}

/// Spans of items attributed `#[cfg(test)]` or `#[test]` (plus
/// `#[bench]`-style test attributes): test code handles no secrets, so
/// the taint pass skips these ranges.
fn find_test_spans(sf: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut ci = 0usize;
    while ci < sf.code.len() {
        let i = sf.code[ci];
        if !sf.toks[i].is_punct("#") {
            ci += 1;
            continue;
        }
        let Some(&open) = sf.code.get(ci + 1) else {
            break;
        };
        if !sf.toks[open].is_punct("[") {
            ci += 1;
            continue;
        }
        let Some(close) = sf.matching[open] else {
            ci += 1;
            continue;
        };
        // Reconstruct the attribute text.
        let attr: String = sf.toks[open + 1..close]
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join("");
        let is_test = attr == "test"
            || attr.starts_with("cfg(test")
            || attr.starts_with("cfg(all(test")
            || attr.starts_with("cfg_attr(test")
            || attr == "bench";
        // Advance ci past the attribute.
        while ci < sf.code.len() && sf.code[ci] <= close {
            ci += 1;
        }
        if !is_test {
            continue;
        }
        // The attributed item: scan forward (skipping further
        // attributes) to its body `{…}` or a terminating `;`.
        let mut k = ci;
        let mut end = None;
        while let Some(&ti) = sf.code.get(k) {
            let t = &sf.toks[ti];
            if t.is_punct("#") {
                // Another attribute: skip its group.
                if let Some(&open2) = sf.code.get(k + 1) {
                    if sf.toks[open2].is_punct("[") {
                        if let Some(close2) = sf.matching[open2] {
                            while k < sf.code.len() && sf.code[k] <= close2 {
                                k += 1;
                            }
                            continue;
                        }
                    }
                }
                k += 1;
                continue;
            }
            if t.is_punct("{") {
                end = sf.matching[ti];
                break;
            }
            if t.is_punct(";") {
                end = Some(ti);
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                // Skip argument groups in the signature.
                if let Some(close2) = sf.matching[ti] {
                    while k < sf.code.len() && sf.code[k] <= close2 {
                        k += 1;
                    }
                    continue;
                }
            }
            k += 1;
        }
        if let Some(e) = end {
            spans.push((i, e + 1));
            // Continue scanning after the item.
            while ci < sf.code.len() && sf.code[ci] <= e {
                ci += 1;
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_and_bodies() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn a(x: u8) -> u8 { x }\ntrait T { fn b(&self); }\nfn generic<F: Fn(&u8)>(f: F) { f(&1) }",
        );
        let fns = sf.fns();
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "generic"]);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_none());
        // The param list of `generic` must be `(f: F)`, not the one
        // inside the generic bound.
        let (p0, _) = fns[2].params.unwrap();
        assert_eq!(sf.toks[sf.next_code(p0).unwrap()].text, "f");
    }

    #[test]
    fn array_types_in_signatures_keep_the_body() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn a<const K: usize>(x: [u8; K]) -> [u64; K] { x }\nfn b() -> Option<[u8; 2]> { None }\nfn c() -> [u8; 2];",
        );
        let fns = sf.fns();
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn prod() { val.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}",
        );
        let unwraps: Vec<usize> = sf
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!sf.in_test(unwraps[0]));
        assert!(sf.in_test(unwraps[1]));
    }

    #[test]
    fn condition_ranges_stop_at_body() {
        let sf = SourceFile::parse("x.rs", "fn f(a: bool) { if a && g(|| { 1 }) { h(); } }");
        let ranges = sf.condition_ranges();
        assert_eq!(ranges.len(), 1);
        let (kw, body) = ranges[0];
        assert!(sf.toks[kw].is_ident("if"));
        // The body `{` is the one before `h`, not the closure's.
        assert_eq!(sf.toks[sf.next_code(body).unwrap()].text, "h");
    }

    #[test]
    fn annotations_on_line_and_above() {
        let sf = SourceFile::parse(
            "x.rs",
            "// lint: public(length is public)\nif n == 0 {}\nif m == 0 {} // lint: public(bounded)\nif k == 0 {}",
        );
        assert!(sf.has_annotation(2, "lint: public("));
        assert!(sf.has_annotation(3, "lint: public("));
        assert!(!sf.has_annotation(4, "lint: public("));
    }
}
