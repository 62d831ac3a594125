//! Lexical source model for the TVDP invariant linter.
//!
//! The linter is deliberately dependency-free (no `syn`), so rules run
//! over a *masked* copy of each file: comment and string/char-literal
//! bytes are blanked out (newlines preserved) so that token scans never
//! match inside prose, and `#[cfg(test)]`-gated items are resolved to
//! line ranges so that test-only code is exempt. The model also extracts
//! `// tvdp-lint: allow(<rule>, reason = "...")` escape-hatch comments
//! and maps each one to the line of code it suppresses.

use std::collections::BTreeMap;

/// A parsed `tvdp-lint: allow(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name as written, e.g. `float_reduction`.
    pub rule: String,
    /// The mandatory human-readable justification.
    pub reason: String,
    /// 1-based line the comment itself sits on.
    pub comment_line: usize,
}

/// A malformed allow comment (missing reason, unknown syntax).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    /// 1-based line of the offending comment.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// Masked view of one source file plus the side tables rules need.
#[derive(Debug)]
pub struct SourceModel {
    /// Original text (for snippet extraction in reports).
    pub raw: String,
    /// Same byte length as `raw`; comments and literal contents are
    /// spaces, newlines are preserved.
    pub masked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// `true` for each line inside a `#[cfg(test)]`-gated item.
    pub test_lines: Vec<bool>,
    /// Code line (1-based) -> rules suppressed on that line.
    pub allows: BTreeMap<usize, Vec<Allow>>,
    /// Malformed escape-hatch comments (reported as findings).
    pub bad_allows: Vec<BadAllow>,
}

/// Whether `b` can be part of an identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of `needle` in `hay` occurring as a whole word
/// (not embedded in a larger identifier).
pub(crate) fn word_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(rel) = hay[at..].find(needle) {
        let s = at + rel;
        let before_ok = s == 0 || !is_ident_byte(bytes[s - 1]);
        let after = s + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(s);
        }
        at = s + needle.len().max(1);
    }
    out
}

/// Length in bytes of the UTF-8 character starting at `bytes[i]`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl SourceModel {
    /// Builds the model for one file's contents.
    pub fn parse(raw: &str) -> SourceModel {
        let (masked, comments) = mask(raw);
        let line_starts = line_starts(raw);
        let (allows, bad_allows) = collect_allows(raw, &masked, &line_starts, &comments);
        let test_lines = test_lines(&masked, &line_starts);
        SourceModel {
            raw: raw.to_string(),
            masked,
            line_starts,
            test_lines,
            allows,
            bad_allows,
        }
    }

    /// 1-based (line, column) for a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// Whether the 1-based line is inside `#[cfg(test)]`-gated code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Whether `rule` is suppressed on the 1-based line.
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|v| v.iter().any(|a| a.rule == rule))
    }
}

/// One comment span in the original text (byte range, excludes markers'
/// surroundings — the range covers the whole comment including `//`).
#[derive(Debug)]
struct CommentSpan {
    start: usize,
    end: usize,
}

/// Blanks comments and string/char literals; returns the masked text and
/// the comment spans (needed to find allow annotations afterwards).
fn mask(src: &str) -> (String, Vec<CommentSpan>) {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut comments = Vec::new();
    let mut i = 0;

    // Blanks out[range], preserving newlines so line numbers survive.
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push(CommentSpan { start, end: i });
                blank(&mut out, start, i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(CommentSpan { start, end: i });
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let start = i;
                // Skip the `r` / `b` / `br` prefix.
                while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                let raw = src[start..].starts_with('r') || src[start + 1..].starts_with('r');
                loop {
                    match bytes.get(i) {
                        None => break,
                        Some(b'\\') if !raw => i += 2,
                        Some(b'"') => {
                            let mut closing = 0;
                            while closing < hashes && bytes.get(i + 1 + closing) == Some(&b'#') {
                                closing += 1;
                            }
                            if closing == hashes {
                                i += 1 + hashes;
                                break;
                            }
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is `'\..'` or `'<one
                // char>'`; anything else (e.g. `'static`) is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let start = i;
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(bytes.len());
                    blank(&mut out, start, i);
                } else if let Some(&c) = bytes.get(i + 1) {
                    let clen = utf8_len(c);
                    if bytes.get(i + 1 + clen) == Some(&b'\'') {
                        let start = i;
                        i += 2 + clen;
                        blank(&mut out, start, i);
                    } else {
                        i += 1; // lifetime tick
                    }
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // The masking only writes ASCII spaces over whole spans, so the
    // buffer stays valid UTF-8 unless a span ended mid-character; fall
    // back to lossy conversion to stay total.
    let masked = String::from_utf8(out)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    (masked, comments)
}

/// Is `bytes[i..]` the start of a raw/byte string literal (`r"`, `r#"`,
/// `b"`, `br#"` ...), as opposed to a plain identifier like `radius`?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // Must not be the middle of an identifier: `for` / `attr` end in
    // `r` but are preceded by ident bytes.
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Extracts `tvdp-lint: allow(rule, reason = "...")` annotations from
/// comment spans and resolves each to the code line it suppresses: the
/// same line for a trailing comment, otherwise the next line that holds
/// code.
fn collect_allows(
    raw: &str,
    masked: &str,
    line_starts: &[usize],
    comments: &[CommentSpan],
) -> (BTreeMap<usize, Vec<Allow>>, Vec<BadAllow>) {
    const MARKER: &str = "tvdp-lint:";
    let mut allows: BTreeMap<usize, Vec<Allow>> = BTreeMap::new();
    let mut bad = Vec::new();
    let masked_lines: Vec<&str> = masked.split('\n').collect();

    for span in comments {
        let text = &raw[span.start..span.end];
        // Doc comments only *describe* the escape hatch (rustdoc prose);
        // a real directive is always a plain `//` or `/* */` comment.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| text.starts_with(d))
        {
            continue;
        }
        let Some(marker_pos) = text.find(MARKER) else {
            continue;
        };
        let comment_line = match line_starts.binary_search(&span.start) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let directive = text[marker_pos + MARKER.len()..].trim_start();
        match parse_allow(directive) {
            Ok((rule, reason)) => {
                // Trailing comment -> same line; standalone -> next code line.
                let line_start = line_starts[comment_line - 1];
                let before = &masked[line_start..span.start.max(line_start)];
                let target = if before.trim().is_empty() {
                    // Standalone: walk forward to the first non-blank
                    // masked line after the comment.
                    let mut t = comment_line + 1;
                    while t <= masked_lines.len() && masked_lines[t - 1].trim().is_empty() {
                        t += 1;
                    }
                    t
                } else {
                    comment_line
                };
                allows.entry(target).or_default().push(Allow {
                    rule,
                    reason,
                    comment_line,
                });
            }
            Err(problem) => bad.push(BadAllow {
                line: comment_line,
                problem,
            }),
        }
    }
    (allows, bad)
}

/// Parses `allow(rule, reason = "...")`; the reason is mandatory.
fn parse_allow(directive: &str) -> Result<(String, String), String> {
    let rest = directive
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>, reason = \"...\")`".to_string())?;
    let close = rest
        .rfind(')')
        .ok_or_else(|| "unclosed `allow(` directive".to_string())?;
    let body = &rest[..close];
    let (rule, tail) = match body.split_once(',') {
        Some((r, t)) => (r.trim(), t.trim()),
        None => (body.trim(), ""),
    };
    if rule.is_empty() || !rule.bytes().all(is_ident_byte) {
        return Err(format!("bad rule name `{rule}`"));
    }
    let reason = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or("");
    if reason.trim().is_empty() {
        return Err(format!(
            "allow({rule}) needs a justification: allow({rule}, reason = \"...\")"
        ));
    }
    Ok((rule.to_string(), reason.trim().to_string()))
}

/// Marks every line covered by a `#[cfg(test)]`-gated item (or a
/// `#[cfg(any(.., test, ..))]` variant) as test code.
fn test_lines(masked: &str, line_starts: &[usize]) -> Vec<bool> {
    let bytes = masked.as_bytes();
    let mut flags = vec![false; line_starts.len()];
    let mut i = 0;
    while let Some(rel) = masked[i..].find("#[") {
        let attr_start = i + rel;
        let Some(attr_end) = matching_bracket(bytes, attr_start + 1, b'[', b']') else {
            break;
        };
        let attr_body = &masked[attr_start + 2..attr_end];
        if attr_is_test_cfg(attr_body) {
            let item_end = item_end_after(bytes, attr_end + 1);
            mark_lines(&mut flags, line_starts, attr_start, item_end);
            i = item_end;
        } else {
            i = attr_end + 1;
        }
    }
    flags
}

/// Does the attribute body (text between `#[` and `]`) gate on `test`?
fn attr_is_test_cfg(body: &str) -> bool {
    let body = body.trim();
    let Some(args) = body.strip_prefix("cfg") else {
        return false;
    };
    let args = args.trim_start();
    if !args.starts_with('(') {
        return false;
    }
    // `test` must appear as a standalone word inside the cfg predicate.
    let inner = &args[1..args.rfind(')').unwrap_or(args.len())];
    !word_occurrences(inner, "test").is_empty()
}

/// Byte offset one past the end of the item that starts after offset
/// `from` (skipping further attributes): either the matching `}` of its
/// first block, or the first top-level `;`.
fn item_end_after(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'#' if bytes.get(i + 1) == Some(&b'[') => {
                match matching_bracket(bytes, i + 1, b'[', b']') {
                    Some(e) => i = e + 1,
                    None => return bytes.len(),
                }
            }
            b'{' => {
                return matching_bracket(bytes, i, b'{', b'}').map_or(bytes.len(), |e| e + 1);
            }
            b';' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Offset of the bracket matching `open` at `bytes[start]`.
pub(crate) fn matching_bracket(bytes: &[u8], start: usize, open: u8, close: u8) -> Option<usize> {
    debug_assert_eq!(bytes.get(start), Some(&open));
    let mut depth = 0usize;
    for (off, &b) in bytes.iter().enumerate().skip(start) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(off);
            }
        }
    }
    None
}

fn mark_lines(flags: &mut [bool], line_starts: &[usize], start: usize, end: usize) {
    let first = match line_starts.binary_search(&start) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    let last = match line_starts.binary_search(&end) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    for f in flags.iter_mut().take(last + 1).skip(first) {
        *f = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // .unwrap() here\nlet y = 1; /* panic! */\n";
        let m = SourceModel::parse(src);
        assert!(!m.masked.contains("unwrap"));
        assert!(!m.masked.contains("panic"));
        assert_eq!(m.masked.len(), src.len());
        assert_eq!(m.masked.matches('\n').count(), 2);
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"x.unwrap()\"#; let c = '\\n'; let l: &'static str = \"p!\";";
        let m = SourceModel::parse(src);
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("'static"), "lifetime must survive");
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let m = SourceModel::parse(src);
        assert!(m.masked.contains("'a>"));
        assert!(!m.masked.contains("'x'"));
    }

    #[test]
    fn cfg_test_module_lines_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let m = SourceModel::parse(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(2));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(m.is_test_line(5));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn cfg_any_test_marked_but_cfg_feature_not() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod a {}\n#[cfg(feature = \"testing_tools\")]\nmod b {}\n";
        let m = SourceModel::parse(src);
        assert!(m.is_test_line(2));
        // `testing_tools` is a feature string (masked), not a test gate.
        assert!(!m.is_test_line(4));
    }

    #[test]
    fn trailing_allow_targets_same_line() {
        let src =
            "let x = y.sum(); // tvdp-lint: allow(float_reduction, reason = \"fixed order\")\n";
        let m = SourceModel::parse(src);
        assert!(m.is_allowed(1, "float_reduction"));
        assert!(!m.is_allowed(1, "determinism"));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// tvdp-lint: allow(determinism, reason = \"order-insensitive fold\")\n\nfor v in map.values() {}\n";
        let m = SourceModel::parse(src);
        assert!(m.is_allowed(3, "determinism"));
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "let x = y.sum(); // tvdp-lint: allow(float_reduction)\n";
        let m = SourceModel::parse(src);
        assert!(!m.is_allowed(1, "float_reduction"));
        assert_eq!(m.bad_allows.len(), 1);
        assert!(m.bad_allows[0].problem.contains("justification"));
    }
}
