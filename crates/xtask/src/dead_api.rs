//! L8 `dead_api`: a public item that no shipped code reaches.
//!
//! The one cross-file rule. Its items are every free or inherent `pub
//! fn` and every `pub struct|enum|trait|const|static|type` in the
//! non-test code of `crates/*/src` (tool crates `xtask` and `check`
//! aside). Whether one is reached is rustc's answer, not a spelling:
//!
//! 1. the workspace (manifests, lock file, `src/` trees and the root
//!    package's `examples/*.rs`) is mirrored under `target/l8-probe/`
//!    with `#[deprecated(note = "l8-probe:<n>")]` before each item, on
//!    the item's own line, so lines hold and `<n>` names the item. A
//!    file is rewritten only when its marked text changed, and removed
//!    when the tree no longer has it;
//! 2. one `cargo check --offline --locked --workspace --lib --bins
//!    --examples --message-format=short` runs over the mirror, in its
//!    own target directory and with its own `RUSTFLAGS`, so a warm run
//!    replays cargo's cached warnings;
//! 3. an item is reached when a warning names its number outside a
//!    `use` declaration (a re-export is not a use) and, for a type,
//!    outside its own crate's `impl` blocks for it (`impl T { fn new()
//!    -> T }` does not keep `T`).
//!
//! Tests, `#[cfg(test)]` code and docs are not compiled, so they reach
//! nothing; nor does the benchmark package `examples/e2e`, which the
//! probe does not build. A kept item carries `allow(dead_api, reason =
//! "...")`, and L0's unused-allow audit reports the allow once the item
//! gains a caller, so the allows are the checked-in inventory. A mirror
//! that does not compile, or a line of cargo's output the probe cannot
//! read, fails the lint with cargo's own output: the probe never
//! reports every item dead, nor every item live.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::process::Command;

use crate::rules::{Finding, Rule};
use crate::source::{is_ident_byte, matching_bracket, word_occurrences, SourceModel};
use crate::walk::workspace_manifests;

/// Crates whose items are not checked: tools whose callers are their
/// own tests.
const TOOL_CRATES: [&str; 2] = ["xtask", "check"];

/// The checked item kinds: keywords whose next identifier is a
/// definition, not a use.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Item kinds that name a type (and so own `impl` blocks).
const TYPE_KINDS: [&str; 4] = ["struct", "enum", "trait", "type"];

/// The mirror, relative to the linted root.
const MIRROR: &str = "target/l8-probe";

/// The deprecation note that numbers a marked item.
const NOTE: &str = "l8-probe:";

/// One public item definition.
struct Item {
    file: usize,
    kind: &'static str,
    name: String,
    /// Byte offset of `pub`.
    at: usize,
}

/// L8 over `files` (workspace-relative path, parsed source), the
/// sources of the workspace at `root`. Returns one finding list per
/// file, in input order.
pub fn dead_api(root: &Path, files: &[(String, SourceModel)]) -> io::Result<Vec<Vec<Finding>>> {
    let items = public_items(files);
    let mut mirror = BTreeMap::new();
    for (f, (rel, model)) in files.iter().enumerate() {
        let mut text = model.raw.clone();
        // Back to front, so earlier offsets hold.
        for (n, item) in items.iter().enumerate().rev().filter(|(_, i)| i.file == f) {
            text.insert_str(item.at, &format!("#[deprecated(note = \"{NOTE}{n}\")] "));
        }
        mirror.insert(rel.clone(), text);
    }
    let copied = workspace_manifests(root)?
        .into_iter()
        .chain(root_examples(root)?);
    for rel in copied.chain(["Cargo.lock".to_string()]) {
        let text = fs::read_to_string(root.join(&rel))?;
        mirror.insert(rel, text);
    }
    let dir = root.join(MIRROR);
    sync(&dir, &mirror)?;

    let mut spans: BTreeMap<&str, Spans> = BTreeMap::new();
    let mut reached = vec![false; items.len()];
    for line in probe(&dir)?.lines().filter(|l| !l.trim().is_empty()) {
        let (path, row, col, message) = parse_warning(line).ok_or_else(|| unreadable(line))?;
        let Some((_, n)) = message.rsplit_once(NOTE) else {
            continue; // a warning of the code itself, not of the probe
        };
        let n = n.parse().ok().filter(|&n: &usize| n < items.len());
        let (Some(n), Some((path, text))) = (n, mirror.get_key_value(path)) else {
            return Err(unreadable(line));
        };
        let item = &items[n];
        let file = spans.entry(path).or_insert_with(|| Spans::of(text));
        let at = file.offset(row, col).ok_or_else(|| unreadable(line))?;
        let own_impl = TYPE_KINDS.contains(&item.kind)
            && crate_of(path) == crate_of(&files[item.file].0)
            && file
                .impls
                .iter()
                .any(|(ty, span)| *ty == item.name && span.contains(&at));
        if !own_impl && !file.uses.iter().any(|u| u.contains(&at)) {
            reached[n] = true;
        }
    }

    let mut out = vec![Vec::new(); files.len()];
    for (item, _) in items.iter().zip(&reached).filter(|(_, r)| !**r) {
        let (line, col) = files[item.file].1.line_col(item.at);
        out[item.file].push(Finding {
            rule: Rule::DeadApi,
            line,
            col,
            message: format!(
                "`pub {} {}` is reached by no shipped code (rustc's probe; tests, re-exports \
                 and examples/e2e do not count): delete it, or keep it with \
                 `allow(dead_api, reason = \"...\")`",
                item.kind, item.name
            ),
        });
    }
    Ok(out)
}

/// `examples/*.rs`: the root package's examples, which `--examples`
/// builds (the benchmark `examples/e2e` is a package of its own).
fn root_examples(root: &Path) -> io::Result<Vec<String>> {
    let Ok(dir) = fs::read_dir(root.join("examples")) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for entry in dir {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".rs") {
            out.push(format!("examples/{name}"));
        }
    }
    Ok(out)
}

/// Makes `dir` hold exactly `files` beside the mirror's own `target/`:
/// a file is written only when its text changed, so cargo's
/// fingerprints hold.
fn sync(dir: &Path, files: &BTreeMap<String, String>) -> io::Result<()> {
    for (rel, text) in files {
        let path = dir.join(rel);
        if fs::read(&path).ok().as_deref() != Some(text.as_bytes()) {
            fs::create_dir_all(path.parent().unwrap_or(dir))?;
            fs::write(&path, text)?;
        }
    }
    prune(dir, "", files).map(drop)
}

/// Removes what under `dir/rel` the tree no longer has, emptied
/// directories too (`members = ["crates/*"]` would read an empty one as
/// a crate). Returns whether `dir/rel` is left empty.
fn prune(dir: &Path, rel: &str, files: &BTreeMap<String, String>) -> io::Result<bool> {
    let mut empty = true;
    for entry in fs::read_dir(dir.join(rel))? {
        let child = format!("{rel}{}", entry?.file_name().to_string_lossy());
        let path = dir.join(&child);
        let gone = if child == "target" {
            false
        } else if path.is_dir() {
            prune(dir, &format!("{child}/"), files)? && fs::remove_dir(&path).map(|()| true)?
        } else {
            !files.contains_key(&child) && fs::remove_file(&path).map(|()| true)?
        };
        empty &= gone;
    }
    Ok(empty)
}

/// Runs the check over the mirror at `dir`; its warnings.
fn probe(dir: &Path) -> io::Result<String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["check", "--quiet", "--offline", "--locked", "--workspace"])
        .args([
            "--lib",
            "--bins",
            "--examples",
            "--message-format=short",
            "--color=never",
        ])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        // Every lint is at most a warning, so no `deny` fails the
        // mirror, and the flags are the same on every run, so its cache
        // holds whatever flags the caller builds with.
        .env("RUSTFLAGS", "--cap-lints=warn")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env_remove("RUSTC_WRAPPER")
        .env_remove("RUSTC_WORKSPACE_WRAPPER")
        .output()?;
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "L8's probe failed: `cargo check` in {} exited with {}:\n{stderr}",
            dir.display(),
            out.status
        )));
    }
    Ok(stderr)
}

/// `(path, line, column, message)` of one `path:line:col: warning:
/// message` line of cargo's short format.
fn parse_warning(line: &str) -> Option<(&str, usize, usize, &str)> {
    let (at, message) = line.split_once(": warning: ")?;
    let mut parts = at.rsplitn(3, ':');
    let col = parts.next()?.parse().ok()?;
    let row = parts.next()?.parse().ok()?;
    Some((parts.next()?, row, col, message))
}

fn unreadable(line: &str) -> io::Error {
    io::Error::other(format!(
        "L8's probe cannot read this line of cargo's output:\n{line}"
    ))
}

/// `<name>` for `crates/<name>/src/..`, `""` for the root package.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map_or("", |(k, _)| k)
}

/// The `use` declarations and `impl` blocks of one mirrored file.
struct Spans {
    model: SourceModel,
    uses: Vec<Range<usize>>,
    impls: Vec<(String, Range<usize>)>,
}

impl Spans {
    fn of(text: &str) -> Spans {
        let model = SourceModel::parse(text);
        let masked = &model.masked;
        let uses = word_occurrences(masked, "use")
            .into_iter()
            .map(|at| at..masked[at..].find(';').map_or(masked.len(), |p| at + p))
            .collect();
        Spans {
            impls: impl_blocks(masked),
            uses,
            model,
        }
    }

    /// Byte offset of rustc's 1-based line and (character) column.
    fn offset(&self, row: usize, col: usize) -> Option<usize> {
        let start = *self.model.line_starts.get(row.checked_sub(1)?)?;
        let line = self.model.raw[start..].lines().next()?;
        let mut chars = line.char_indices().map(|(i, _)| i).chain([line.len()]);
        chars.nth(col.checked_sub(1)?).map(|i| start + i)
    }
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

/// Every `pub` item of a checked kind in the non-test code of the
/// checked crates. `pub(crate)` and other restricted visibilities are
/// skipped: rustc's own `dead_code` lint sees those.
fn public_items(files: &[(String, SourceModel)]) -> Vec<Item> {
    let mut out = Vec::new();
    for (file, (path, model)) in files.iter().enumerate() {
        let krate = path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"));
        if krate.is_none_or(|(k, _)| k.contains('/') || TOOL_CRATES.contains(&k)) {
            continue;
        }
        let text = &model.masked;
        for at in word_occurrences(text, "pub") {
            let Some((mut word, mut next)) = next_ident(text, at + 3) else {
                continue;
            };
            // `pub const fn`: the item is the `fn`.
            if let ("const", Some(("fn", n))) = (word, next_ident(text, next)) {
                (word, next) = ("fn", n);
            }
            let kind = ITEM_KINDS.iter().find(|k| **k == word);
            if let (Some(&kind), Some((name, _))) = (kind, next_ident(text, next)) {
                if !model.is_test_line(model.line_col(at).0) {
                    let name = name.to_string();
                    out.push(Item {
                        file,
                        kind,
                        name,
                        at,
                    });
                }
            }
        }
    }
    out
}

/// Every `impl` item block in masked `text`: the name of its self type
/// (the last path segment before any generic arguments) and its span
/// from `impl` to the closing `}`. An `impl` in type position (`-> impl
/// Fn`, `x: impl Trait`) follows no item boundary and is skipped.
fn impl_blocks(text: &str) -> Vec<(String, Range<usize>)> {
    let mut out = Vec::new();
    for at in word_occurrences(text, "impl") {
        let before = text[..at].trim_end();
        let item_start = before.is_empty()
            || before.ends_with(['}', ';', '{', ']'])
            || before.ends_with("unsafe");
        if !item_start {
            continue;
        }
        let Some(open) = text[at..].find('{').map(|p| at + p) else {
            continue;
        };
        let Some(close) = matching_bracket(text.as_bytes(), open, b'{', b'}') else {
            continue;
        };
        // `->` in a bound (`F: Fn() -> T`) closes no generics.
        let header = text[at + 4..open].replace("->", "  ");
        let mut ty = header.trim_start();
        if ty.starts_with('<') {
            ty = matching_bracket(ty.as_bytes(), 0, b'<', b'>').map_or("", |e| &ty[e + 1..]);
        }
        if let Some(w) = word_occurrences(ty, "where").first() {
            ty = &ty[..*w];
        }
        if let Some(f) = word_occurrences(ty, "for").first() {
            ty = &ty[f + 3..];
        }
        let head = ty.split('<').next().unwrap_or(ty);
        let name = head
            .rsplit(|c: char| !c.is_ascii() || !is_ident_byte(c as u8))
            .find(|w| !w.is_empty());
        if let Some(name) = name {
            out.push((name.to_string(), at..close + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{check, Policy};

    #[test]
    fn restricted_visibility_trait_methods_and_tool_crates_are_not_checked() {
        let src = "pub(crate) fn internal() {}\npub trait T { fn m(&self); }\n\
                   pub struct S;\nimpl T for S { fn m(&self) {} }\npub const fn k() {}\n\
                   #[cfg(test)]\nmod tests {\n    pub fn support() {}\n}\n";
        let set: Vec<(String, SourceModel)> = [
            ("crates/a/src/lib.rs", src),
            ("src/main.rs", "pub fn umbrella() {}\n"),
            ("crates/xtask/src/lib.rs", "pub fn tool_only() {}\n"),
        ]
        .iter()
        .map(|(path, src)| (path.to_string(), SourceModel::parse(src)))
        .collect();
        let items: Vec<String> = public_items(&set)
            .into_iter()
            .map(|i| format!("{} {}", i.kind, i.name))
            .collect();
        assert_eq!(items, ["trait T", "struct S", "fn k"]);
    }

    #[test]
    fn impl_blocks_name_their_self_type() {
        let src = "impl<F: Fn() -> u8> Wrap<F> where F: Copy {}\n\
                   impl fmt::Display for a::Name<'_> { fn f() -> impl Fn() { || () } }\n";
        let names: Vec<String> = impl_blocks(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["Wrap", "Name"]);
    }

    #[test]
    fn a_line_that_is_not_a_located_warning_is_unreadable() {
        let ok = "crates/a/src/lib.rs:3:9: warning: use of deprecated function `a::f`: l8-probe:0";
        assert_eq!(
            parse_warning(ok),
            Some((
                "crates/a/src/lib.rs",
                3,
                9,
                "use of deprecated function `a::f`: l8-probe:0"
            ))
        );
        assert_eq!(
            parse_warning("warning: `a` (lib) generated 1 warning"),
            None
        );
        assert_eq!(parse_warning("crates/a/src/lib.rs:x:9: warning: m"), None);
    }

    #[test]
    fn file_mode_leaves_dead_api_allows_unaudited() {
        let lib = "// tvdp-lint: allow(dead_api, reason = \"(c) awaiting a route\")\n\
                   pub fn capability() {}\n";
        assert!(check(&SourceModel::parse(lib), Policy::strict(), None).is_empty());
    }
}
