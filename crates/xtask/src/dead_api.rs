//! L8 `dead_api`: a public item that no shipped code names.
//!
//! The one cross-file rule. It reads a set of parsed files and reports
//! every free or inherent `pub fn` and every `pub struct|enum|trait|
//! const|static|type` defined in the non-test code of `crates/*/src`
//! (tool crates `xtask` and `check` excepted) whose name occurs as a
//! word in no masked, non-test line of the set, not counting:
//!
//! * the item's own definition, body included;
//! * `use` and `mod` declarations, so a re-export is not a use;
//! * for a type, the headers and bodies of its own crate's `impl`
//!   blocks for it (`impl T { fn new() -> T }` does not keep `T`).
//!
//! Name matching over-approximates use (any `len` keeps every `pub fn
//! len` alive), so the rule can miss dead code but never flags live
//! code. A kept item carries `allow(dead_api, reason = "...")`; the L0
//! unused-allow audit reports that allow once the item gains a caller,
//! so the allows are the checked-in inventory and nothing else counts.
//!
//! # The blind spot, measured
//!
//! Spelling is not name resolution. At commit 9cce8d3 the checked
//! crates held 559 `pub fn`s; 85 were called by no non-test target of
//! the workspace or of the benchmark package `examples/e2e`, 11 of them
//! carried an allow, and this rule reported none of the other 74. The
//! compiler finds them. The probe runs in a scratch copy, never in the
//! tree:
//!
//! 1. put `#[deprecated(note = "l8-probe:<n>")]`, numbered per item, on
//!    the same line as every `pub fn` in the non-test code of
//!    `crates/*/src` (`xtask` and `check` skipped, as here), so line
//!    numbers hold and the number maps each warning to its item;
//! 2. `cargo check --offline --workspace --lib --bins --examples`;
//! 3. `cargo check --offline --manifest-path examples/e2e/Cargo.toml --bins`;
//! 4. an item with no `use of deprecated` warning outside a `use` line
//!    is reached by no shipped code (imports warn, derives do not).
//!
//! Run it again over `pub struct|enum|trait|type|const|static`, ignoring
//! uses inside the type's own `impl` blocks. After the cleanup it
//! prompted, the probe lists only items kept on purpose: the allowed
//! ones (and, until it was deleted, `LshIndex`'s methods under the
//! type's allow), an
//! `is_empty` that clippy's `len_without_is_empty` pairs with a live
//! `pub fn len`, and test support other crates' or integration tests
//! drive shipped code through (fault injection, the chaos-plan
//! constructors, the invariant walkers, `Pool::scope`), plus
//! `tvdp_kernel::quant`'s accessors, which go with that module.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::rules::{Finding, Rule};
use crate::source::{is_ident_byte, word_occurrences, SourceModel};

/// Crates whose items are not checked: tools whose callers are their
/// own tests.
const TOOL_CRATES: [&str; 2] = ["xtask", "check"];

/// The checked item kinds: keywords whose next identifier is a
/// definition, not a use.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Item kinds that name a type (and so own `impl` blocks).
const TYPE_KINDS: [&str; 4] = ["struct", "enum", "trait", "type"];

/// One public item definition.
struct Item {
    file: usize,
    kind: &'static str,
    name: String,
    /// Byte offset of `pub`.
    at: usize,
    /// The whole definition, body included.
    span: Range<usize>,
}

/// One file prepared for the scan.
struct Prepared<'a> {
    /// `<name>` when the file is under `crates/<name>/src/`.
    krate: Option<&'a str>,
    /// Whether the file is shipped code, whose lines can be uses: a
    /// crate's `src/`, the umbrella `src/`, or an example (the
    /// benchmark's stand-in crates under `examples/e2e/stubs` are not).
    ships: bool,
    /// Masked text with test code and `use`/`mod` declarations blanked.
    text: String,
    /// `impl` blocks: (self type name, header-to-`}` span).
    impls: Vec<(String, Range<usize>)>,
}

/// L8 over `files` (workspace-relative path, parsed source). Returns
/// one finding list per file, in input order.
pub fn dead_api(files: &[(String, SourceModel)]) -> Vec<Vec<Finding>> {
    let prepared: Vec<Prepared> = files.iter().map(|(p, m)| prepare(p, m)).collect();
    let mut items = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        if p.krate.is_some_and(|k| !TOOL_CRATES.contains(&k)) {
            items.extend(public_items(i, &p.text));
        }
    }
    // Every identifier of every shipped file, with where it occurs,
    // except the names items are defined under: two dead `pub fn len`s
    // do not keep each other alive.
    let mut words: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (f, p) in prepared.iter().enumerate().filter(|(_, p)| p.ships) {
        let mut defines = false;
        for (at, w) in identifiers(&p.text) {
            if !defines {
                words.entry(w).or_default().push((f, at));
            }
            // `&'static T` names `T`; only the keyword `static` defines.
            defines = ITEM_KINDS.contains(&w) && !p.text[..at].ends_with('\'');
        }
    }
    let mut out = vec![Vec::new(); files.len()];
    for item in &items {
        let own_impl = |f: usize, at: usize| {
            TYPE_KINDS.contains(&item.kind)
                && prepared[f].krate == prepared[item.file].krate
                && prepared[f]
                    .impls
                    .iter()
                    .any(|(ty, span)| *ty == item.name && span.contains(&at))
        };
        let not_a_use =
            |f: usize, at: usize| f == item.file && item.span.contains(&at) || own_impl(f, at);
        let used = words
            .get(item.name.as_str())
            .is_some_and(|occ| occ.iter().any(|&(f, at)| !not_a_use(f, at)));
        if !used {
            let (line, col) = files[item.file].1.line_col(item.at);
            out[item.file].push(Finding {
                rule: Rule::DeadApi,
                line,
                col,
                message: format!(
                    "`pub {} {}` is named by no shipped code (tests, docs and re-exports \
                     do not count): delete it, or keep it with \
                     `allow(dead_api, reason = \"...\")`",
                    item.kind, item.name
                ),
            });
        }
    }
    out
}

fn prepare<'a>(path: &'a str, model: &SourceModel) -> Prepared<'a> {
    let mut text = model.masked.clone().into_bytes();
    for (i, &start) in model.line_starts.iter().enumerate() {
        if model.is_test_line(i + 1) {
            let end = model.line_starts.get(i + 1).map_or(text.len(), |&e| e - 1);
            blank(&mut text, start..end);
        }
    }
    // `use ...;` and `mod name` (a re-export or a module path is not a
    // use of the item it names).
    let masked = model.masked.as_bytes();
    for (kw, stop) in [("use", b';'), ("mod", b'\n')] {
        for at in word_occurrences(&model.masked, kw) {
            let end = masked[at..]
                .iter()
                .position(|&b| b == stop || b == b'{' && kw == "mod")
                .map_or(masked.len(), |p| at + p);
            blank(&mut text, at..end);
        }
    }
    let text = String::from_utf8(text).unwrap_or_default();
    let impls = impl_blocks(&text);
    let krate = path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once("/src/"))
        .map(|(k, _)| k)
        .filter(|k| !k.contains('/'));
    let example = path.starts_with("examples/") && !path.starts_with("examples/e2e/stubs/");
    Prepared {
        krate,
        ships: krate.is_some() || path.starts_with("src/") || example,
        text,
        impls,
    }
}

/// Blanks `range` of `text`, keeping newlines so offsets and lines hold.
fn blank(text: &mut [u8], range: Range<usize>) {
    for b in &mut text[range] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Every identifier-like word in `text` with its byte offset.
fn identifiers(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push((start, &text[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// The identifier starting at the first non-space byte at or after `i`,
/// with the offset just past it.
fn next_ident(text: &str, i: usize) -> Option<(&str, usize)> {
    let bytes = text.as_bytes();
    let start = i + bytes
        .get(i..)?
        .iter()
        .position(|b| !b.is_ascii_whitespace())?;
    let len = bytes[start..]
        .iter()
        .take_while(|&&b| is_ident_byte(b))
        .count();
    (len > 0).then(|| (&text[start..start + len], start + len))
}

/// Every `pub` item of a checked kind in `text` (already test-blanked).
/// `pub(crate)` and other restricted visibilities are skipped: rustc's
/// own `dead_code` lint sees those.
fn public_items(file: usize, text: &str) -> Vec<Item> {
    let mut out = Vec::new();
    for at in word_occurrences(text, "pub") {
        let Some((mut word, mut next)) = next_ident(text, at + 3) else {
            continue;
        };
        // `pub const fn`: the item is the `fn`.
        if let ("const", Some(("fn", n))) = (word, next_ident(text, next)) {
            (word, next) = ("fn", n);
        }
        let Some(&kind) = ITEM_KINDS.iter().find(|k| **k == word) else {
            continue;
        };
        let Some((name, _)) = next_ident(text, next) else {
            continue;
        };
        out.push(Item {
            file,
            kind,
            name: name.to_string(),
            at,
            span: at..item_end(text.as_bytes(), next),
        });
    }
    out
}

/// One past the end of the item whose header starts at `from`: the `}`
/// closing its first top-level block, or its first top-level `;`.
fn item_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return i + 1,
            b'{' if depth == 0 => return block_end(bytes, i),
            _ => {}
        }
    }
    bytes.len()
}

/// One past the `}` matching the `{` at `open`.
fn block_end(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

/// Every `impl` item block in `text`: the name of its self type (the
/// last path segment after `for`, else after the generics) and its span
/// from `impl` to the closing `}`. An `impl` in type position (`->
/// impl Fn`, `x: impl Trait`) follows an operator, not an item boundary,
/// and is skipped.
fn impl_blocks(text: &str) -> Vec<(String, Range<usize>)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for at in word_occurrences(text, "impl") {
        let before = text[..at].trim_end();
        let item_start = before.is_empty()
            || before.ends_with(['}', ';', '{', ']'])
            || before.ends_with("unsafe");
        let Some(open) = text[at..].find('{').map(|p| at + p) else {
            continue;
        };
        if !item_start {
            continue;
        }
        let mut header = skip_generics(&text[at + 4..open]);
        if let Some(w) = word_occurrences(header, "where").first() {
            header = &header[..*w];
        }
        if let Some(f) = word_occurrences(header, "for").first() {
            header = &header[f + 3..];
        }
        // The self type's name is the last path segment before any
        // generic arguments: `a::b::Name<T>` -> `Name`.
        let head = header.split('<').next().unwrap_or(header);
        let Some((_, ty)) = identifiers(head).into_iter().next_back() else {
            continue;
        };
        out.push((ty.to_string(), at..block_end(bytes, open)));
    }
    out
}

/// `header` without a leading `<...>` generic parameter list.
fn skip_generics(header: &str) -> &str {
    let trimmed = header.trim_start();
    if !trimmed.starts_with('<') {
        return trimmed;
    }
    let bytes = trimmed.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => depth += 1,
            // `->` inside a bound (`F: Fn() -> T`) closes nothing.
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return &trimmed[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{check, Policy};

    fn files(set: &[(&str, &str)]) -> Vec<(String, SourceModel)> {
        set.iter()
            .map(|(path, src)| (path.to_string(), SourceModel::parse(src)))
            .collect()
    }

    /// `(path, line, item name)` of every L8 finding over `set`.
    fn dead(set: &[(&str, &str)]) -> Vec<(String, usize, String)> {
        let files = files(set);
        let mut out = Vec::new();
        for ((path, _), found) in files.iter().zip(dead_api(&files)) {
            for f in found {
                let name = f.message.split('`').nth(1).unwrap_or("").to_string();
                out.push((path.clone(), f.line, name));
            }
        }
        out
    }

    const LIB: &str = "crates/a/src/lib.rs";

    #[test]
    fn a_pub_fn_nothing_calls_is_flagged() {
        let src = "pub fn used() {}\npub fn unused() {}\npub fn caller() { used(); }\n";
        let found = dead(&[(LIB, src), ("src/main.rs", "fn main() { a::caller(); }\n")]);
        assert_eq!(found, vec![(LIB.into(), 2, "pub fn unused".into())]);
    }

    #[test]
    fn test_code_is_not_a_use() {
        let lib = "pub fn helper() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::helper(); }\n}\n";
        let test_file = ("crates/a/tests/t.rs", "#[test]\nfn t() { a::helper(); }\n");
        let found = dead(&[(LIB, lib), test_file]);
        assert_eq!(found, vec![(LIB.into(), 1, "pub fn helper".into())]);
    }

    #[test]
    fn a_re_export_is_not_a_use() {
        let found = dead(&[
            (LIB, "pub mod inner;\npub use inner::{lonely, Other};\n"),
            ("crates/a/src/inner.rs", "pub fn lonely() {}\n"),
        ]);
        assert_eq!(
            found,
            vec![("crates/a/src/inner.rs".into(), 1, "pub fn lonely".into())]
        );
    }

    #[test]
    fn a_type_named_only_in_its_own_impl_is_flagged() {
        let src = "pub struct Batcher { n: usize }\n\
                   impl Batcher {\n    pub fn new() -> Batcher { Batcher { n: 0 } }\n}\n\
                   impl Default for Batcher {\n    fn default() -> Self { Batcher::new() }\n}\n\
                   pub struct Kept;\npub fn make() -> Kept { Kept }\n";
        let found = dead(&[(LIB, src), ("src/main.rs", "fn main() { a::make(); }\n")]);
        assert_eq!(found, vec![(LIB.into(), 1, "pub struct Batcher".into())]);
    }

    #[test]
    fn an_example_keeps_an_item_alive_but_a_stub_crate_does_not() {
        let lib = "pub fn shown() {}\npub fn stubbed() {}\n";
        let found = dead(&[
            (LIB, lib),
            ("examples/demo.rs", "fn main() { a::shown(); }\n"),
            (
                "examples/e2e/stubs/x/src/lib.rs",
                "pub fn f() { a::stubbed(); }\n",
            ),
        ]);
        assert_eq!(found, vec![(LIB.into(), 2, "pub fn stubbed".into())]);
    }

    #[test]
    fn restricted_visibility_trait_methods_and_tool_crates_are_not_checked() {
        let src = "pub(crate) fn internal() {}\npub trait T { fn m(&self); }\n\
                   pub struct S;\nimpl T for S { fn m(&self) {} }\n";
        let found = dead(&[
            (LIB, src),
            ("src/main.rs", "fn main() { a::S.m(); }\n"),
            ("crates/xtask/src/lib.rs", "pub fn tool_only() {}\n"),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    /// Every finding of `check` over `set`'s first file, L8 included.
    fn lint_first(set: &[(&str, &str)]) -> Vec<Finding> {
        let files = files(set);
        let dead = dead_api(&files).swap_remove(0);
        check(&files[0].1, Policy::strict(), Some(dead))
    }

    #[test]
    fn an_allow_keeps_an_item_and_goes_stale_once_it_has_a_caller() {
        let lib = "/// Kept for the bake-off.\n\
                   // tvdp-lint: allow(dead_api, reason = \"(c) awaiting a route\")\n\
                   pub fn capability() {}\n";
        assert!(lint_first(&[(LIB, lib)]).is_empty());
        let with_caller = ("src/main.rs", "fn main() { a::capability(); }\n");
        let found = lint_first(&[(LIB, lib), with_caller]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), (Rule::BadAllow, 2));
        assert!(found[0].message.contains("unused allow(dead_api)"));
    }

    #[test]
    fn file_mode_leaves_dead_api_allows_unaudited() {
        let lib = "// tvdp-lint: allow(dead_api, reason = \"(c) awaiting a route\")\n\
                   pub fn capability() {}\n";
        assert!(check(&SourceModel::parse(lib), Policy::strict(), None).is_empty());
    }
}
