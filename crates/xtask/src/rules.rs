//! The TVDP invariant rules that clippy has no lint for, plus the
//! manifest check.
//!
//! | id  | rule                  | what it forbids (outside `#[cfg(test)]`)        |
//! |-----|-----------------------|--------------------------------------------------|
//! | L5  | `lock_discipline`     | lock guards held across a pool dispatch, and nested lock acquisition while a guard is live |
//! | L6  | `atomic_ordering`     | any explicit `Ordering::{Relaxed,..,SeqCst}` without a reviewed allow annotation |
//! | L7  | `float_reduction`     | ad-hoc `f32`/`f64` `sum`/`fold`/`+=` reductions outside the kernel's canonical reduce paths |
//! | L8  | `dead_api`            | (workspace mode, [`crate::dead_api`]) a `pub` item in `crates/*/src` that rustc finds no shipped code reaching |
//! | L0  | `registry_dependency` | (manifests) any dependency that is not a `tvdp-*`/`xtask` path crate |
//!
//! L1 (`no_panic`), L2 (`determinism`), L3 (`pool_only_threading`), L4
//! (`no_wall_clock`) and L9 (`durable_calls_one_owner`) are clippy's: the
//! `cargo no-panic` alias and the root `clippy.toml` (DESIGN.md §8).
//! Clippy resolves paths, so an alias, a re-export or a fully qualified
//! path cannot get past it as it got past matching spellings here.
//!
//! Every rule is suppressible per line with
//! `// tvdp-lint: allow(<rule>, reason = "...")`. The escape hatch is
//! itself policed: a malformed comment, or an allow whose rule never
//! fires on the annotated line, is an L0 `bad_allow` finding — stale
//! suppressions must be deleted, not accumulated.

use crate::source::{is_ident_byte, matching_bracket, word_occurrences, SourceModel};

/// A rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L5: lock guards held across pool dispatch or nested acquisition.
    LockDiscipline,
    /// L6: explicit atomic memory orderings without a reviewed allow.
    AtomicOrdering,
    /// L7: ad-hoc floating-point reductions (order-sensitive rounding).
    FloatReduction,
    /// L8: a public item that no shipped code reaches.
    DeadApi,
    /// Malformed or unused `tvdp-lint:` escape-hatch comment.
    BadAllow,
    /// A manifest names a dependency that is not a workspace path crate.
    RegistryDependency,
}

impl Rule {
    /// Short id shown in reports (`L0`..`L8`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::LockDiscipline => "L5",
            Rule::AtomicOrdering => "L6",
            Rule::FloatReduction => "L7",
            Rule::DeadApi => "L8",
            Rule::BadAllow | Rule::RegistryDependency => "L0",
        }
    }

    /// Name used in `allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockDiscipline => "lock_discipline",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::FloatReduction => "float_reduction",
            Rule::DeadApi => "dead_api",
            Rule::BadAllow => "bad_allow",
            Rule::RegistryDependency => "registry_dependency",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

/// Which rules apply to a given file (derived from its crate/path).
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Enforce L5 (`false` inside `tvdp-kernel`, which implements the
    /// dispatch primitives).
    pub check_lock_discipline: bool,
    /// Enforce L7 (`false` inside `tvdp-kernel`, home of the canonical
    /// deterministic reductions, and `tvdp-bench` reporting code).
    pub check_float_reduction: bool,
}

impl Policy {
    /// All rules on — the default for library code.
    pub fn strict() -> Self {
        Policy {
            check_lock_discipline: true,
            check_float_reduction: true,
        }
    }
}

fn next_non_ws(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
        i += 1;
    }
    None
}

fn prev_non_ws(bytes: &[u8], i: usize) -> Option<u8> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !bytes[j].is_ascii_whitespace() {
            return Some(bytes[j]);
        }
    }
    None
}

/// Runs every applicable rule over one parsed file, returning findings
/// that are not in test code and not suppressed by an allow comment.
///
/// `dead_api` carries the file's L8 findings when the caller ran the
/// workspace-wide pass, and is `None` when it did not (file mode).
///
/// Allow comments are audited in the same pass: an allow that no raw
/// finding consumed is dead weight that would silently mask a future
/// regression at that line, so it is reported as an L0 finding. L8
/// allows are audited only when L8 ran.
pub fn check(model: &SourceModel, policy: Policy, dead_api: Option<Vec<Finding>>) -> Vec<Finding> {
    let audit_dead_api = dead_api.is_some();
    let mut raw = dead_api.unwrap_or_default();
    if policy.check_lock_discipline {
        lock_discipline(model, &mut raw);
    }
    atomic_ordering(model, &mut raw);
    if policy.check_float_reduction {
        float_reduction(model, &mut raw);
    }
    let mut used_allows: Vec<(usize, &str)> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw.into_iter().filter(|f| !model.is_test_line(f.line)) {
        if model.is_allowed(f.line, f.rule.name()) {
            used_allows.push((f.line, f.rule.name()));
        } else {
            findings.push(f);
        }
    }
    // Malformed escape hatches are findings themselves: a broken allow
    // must never silently pass. So are stale ones: an allow whose rule
    // no longer fires on its line suppresses nothing today and a real
    // regression tomorrow.
    for bad in &model.bad_allows {
        findings.push(Finding {
            rule: Rule::BadAllow,
            line: bad.line,
            col: 1,
            message: format!("malformed tvdp-lint comment: {}", bad.problem),
        });
    }
    for (line, allows) in &model.allows {
        if model.is_test_line(*line) {
            continue;
        }
        for a in allows {
            if a.rule == Rule::DeadApi.name() && !audit_dead_api {
                continue;
            }
            let consumed = used_allows
                .iter()
                .any(|(l, rule)| l == line && *rule == a.rule);
            if !consumed {
                findings.push(Finding {
                    rule: Rule::BadAllow,
                    line: a.comment_line,
                    col: 1,
                    message: format!(
                        "unused allow({}): no {} finding on the annotated line; \
                         delete the stale suppression",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// L0 over a `Cargo.toml`: every entry of every dependency table must be
/// a workspace path crate (`tvdp`, `tvdp-*`, `xtask`), either inherited
/// (`name.workspace = true`) or given by `path`. The workspace builds
/// offline from a bare checkout, so one registry crate anywhere breaks
/// tier-1 for everyone.
pub fn check_manifest(text: &str) -> Vec<Finding> {
    let ours = |name: &str| name == "tvdp" || name == "xtask" || name.starts_with("tvdp-");
    let mut out = Vec::new();
    let mut in_dependency_table = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut flag = |name: &str, why: &str| {
            out.push(Finding {
                rule: Rule::RegistryDependency,
                line: i + 1,
                col: 1,
                message: format!(
                    "dependency `{name}` {why}: the workspace resolves offline from \
                     path crates only; write the code in-tree (`tvdp-kernel`, `tvdp-json`)"
                ),
            });
        };
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_matches(|c| c == '[' || c == ']');
            // `[dependencies]`, `[workspace.dependencies]`,
            // `[target.'cfg(..)'.dev-dependencies]`, and the one-crate
            // table form `[dependencies.name]`.
            let (table, name) = match header.rsplit_once('.') {
                Some((table, name)) if table.ends_with("dependencies") => (table, Some(name)),
                _ => (header, None),
            };
            in_dependency_table = name.is_none() && table.ends_with("dependencies");
            if let Some(name) = name.filter(|n| !ours(n)) {
                flag(name, "is not a workspace crate");
            }
        } else if in_dependency_table {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let name = key.split('.').next().unwrap_or(key).trim_matches('"');
            if !ours(name) {
                flag(name, "is not a workspace crate");
            } else if !key.ends_with(".workspace") && !value.contains("path") {
                flag(name, "is not given by `path`");
            }
        }
    }
    out
}

/// End byte (exclusive) of the block enclosing byte `from`: the `}`
/// that drops brace depth below zero, or end of file.
fn enclosing_block_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// A `let`-bound lock guard: `let [mut] name = <expr>.lock();` (or
/// `.read()`/`.write()`), optionally followed by the std-poison
/// recovery suffix. Returns `(name, live_from)` where `live_from` is
/// the byte just past the binding statement's `;`.
fn guard_binding_at(hay: &str, call_start: usize, method_len: usize) -> Option<(String, usize)> {
    let bytes = hay.as_bytes();
    // Statement start: just past the previous `;`, `{` or `}`.
    let stmt_start = hay[..call_start]
        .rfind([';', '{', '}'])
        .map_or(0, |p| p + 1);
    let stmt_head = &hay[stmt_start..call_start];
    if word_occurrences(stmt_head, "let").is_empty() || !stmt_head.contains('=') {
        return None;
    }
    // Binding name: the identifier between `let [mut]` and `=`.
    let eq = stmt_head.find('=')?;
    let name = stmt_head[..eq]
        .trim_start()
        .strip_prefix("let")?
        .trim_start()
        .trim_start_matches("mut ")
        .trim()
        .trim_end_matches(':')
        .split(':')
        .next()?
        .trim()
        .to_string();
    if name.is_empty() || name == "_" || !name.bytes().all(is_ident_byte) {
        return None;
    }
    // The guard must reach the `;` unconsumed: only whitespace or the
    // poison-recovery `.unwrap_or_else(..)` may follow the call.
    let open = call_start + hay[call_start + method_len..].find('(')? + method_len;
    let mut end = matching_bracket(bytes, open, b'(', b')')? + 1;
    loop {
        match next_non_ws(bytes, end) {
            Some(b';') => break,
            Some(b'.') if hay[end..].trim_start().starts_with(".unwrap_or_else") => {
                let dot = end + hay[end..].find('.')?;
                let open2 = dot + hay[dot..].find('(')?;
                end = matching_bracket(bytes, open2, b'(', b')')? + 1;
            }
            _ => return None, // `.lock().foo()` — result consumed, no live guard
        }
    }
    let semi = end + hay[end..].find(';')?;
    Some((name, semi + 1))
}

/// L5: lock discipline. A `let`-bound guard must not stay live across
/// a `Pool` dispatch (`map`/`map_index` park worker threads for
/// arbitrarily long, so a held lock serializes or deadlocks the pool),
/// and no second lock may be acquired while one is live (nested
/// acquisition is the ABBA deadlock shape the sharded engine forbids).
fn lock_discipline(model: &SourceModel, out: &mut Vec<Finding>) {
    let hay = &model.masked;
    let bytes = hay.as_bytes();
    const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];
    const DISPATCH: [&str; 2] = [".map(", ".map_index("];
    // `.map(` is also `Option`/`Iterator` vocabulary; it only counts as
    // a dispatch when the receiver is a pool (`pool.map(`, `self.pool
    // .map(`, `Pool::global().map(`).
    fn is_pool_receiver(hay: &str, dot: usize) -> bool {
        let recv = hay[..dot].trim_end();
        let tail_start = recv.len().saturating_sub(40);
        let tail = &recv[tail_start..];
        tail.ends_with("pool") || tail.ends_with("Pool") || {
            let last_line = tail.rsplit('\n').next().unwrap_or(tail);
            last_line.contains("Pool::")
        }
    }
    for method in LOCK_METHODS {
        for s in word_occurrences(hay, method) {
            if prev_non_ws(bytes, s) != Some(b'.') {
                continue;
            }
            if next_non_ws(bytes, s + method.len()) != Some(b'(') {
                continue;
            }
            let Some((name, live_from)) = guard_binding_at(hay, s, method.len()) else {
                continue;
            };
            // The guard lives to the end of its block, or an explicit
            // `drop(name)` — whichever comes first.
            let mut live_to = enclosing_block_end(bytes, live_from);
            for d in word_occurrences(&hay[live_from..live_to], "drop") {
                let at = live_from + d;
                let after = hay[at + 4..].trim_start();
                if let Some(arg) = after.strip_prefix('(') {
                    let arg = arg.trim_start();
                    let dropped: String = arg
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if dropped == name {
                        live_to = at;
                        break;
                    }
                }
            }
            let span = &hay[live_from..live_to];
            for needle in DISPATCH {
                let mut at = 0;
                while let Some(rel) = span[at..].find(needle) {
                    let pos = at + rel;
                    at = pos + needle.len();
                    if needle == ".map(" && !is_pool_receiver(hay, live_from + pos) {
                        continue;
                    }
                    let (line, col) = model.line_col(live_from + pos);
                    out.push(Finding {
                        rule: Rule::LockDiscipline,
                        line,
                        col,
                        message: format!(
                            "pool dispatch `{needle}..)` while lock guard `{name}` is live: \
                             drop the guard before fanning out, or move the locked work out \
                             of the dispatch"
                        ),
                    });
                }
            }
            for inner in LOCK_METHODS {
                for rel in word_occurrences(span, inner) {
                    let at = live_from + rel;
                    if prev_non_ws(bytes, at) != Some(b'.') {
                        continue;
                    }
                    if next_non_ws(bytes, at + inner.len()) != Some(b'(') {
                        continue;
                    }
                    let (line, col) = model.line_col(at);
                    out.push(Finding {
                        rule: Rule::LockDiscipline,
                        line,
                        col,
                        message: format!(
                            "`.{inner}()` while lock guard `{name}` is live: nested lock \
                             acquisition risks ABBA deadlock; drop `{name}` first"
                        ),
                    });
                }
            }
        }
    }
}

/// L6: explicit atomic memory orderings. Every ordering choice is a
/// proof obligation — the site must carry
/// `// tvdp-lint: allow(atomic_ordering, reason = "...")` stating why
/// the chosen ordering is sufficient (the allow machinery then marks
/// the site reviewed; an unannotated site surfaces here).
fn atomic_ordering(model: &SourceModel, out: &mut Vec<Finding>) {
    let hay = &model.masked;
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    for variant in VARIANTS {
        for s in word_occurrences(hay, variant) {
            // Only `Ordering::<variant>` counts (never `cmp::Ordering`,
            // whose variants are Less/Equal/Greater).
            if !hay[..s].ends_with("Ordering::") {
                continue;
            }
            let (line, col) = model.line_col(s);
            out.push(Finding {
                rule: Rule::AtomicOrdering,
                line,
                col,
                message: format!(
                    "`Ordering::{variant}` needs a reviewed justification: annotate with \
                     `tvdp-lint: allow(atomic_ordering, reason = \"...\")` stating why this \
                     ordering is sufficient"
                ),
            });
        }
    }
}

/// Whether one statement's text mentions floating point: an `f32`/`f64`
/// token or a float literal like `0.0`.
fn has_float_evidence(stmt: &str) -> bool {
    if !word_occurrences(stmt, "f32").is_empty() || !word_occurrences(stmt, "f64").is_empty() {
        return true;
    }
    let b = stmt.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

/// The single statement around byte `s`, bounded by `;`/`{`/`}` on
/// both sides (with a 400-byte cap on the right, so runaway text never
/// swallows a neighboring item's types).
fn statement_around(hay: &str, s: usize) -> &str {
    let start = hay[..s].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let cap = (s + 400).min(hay.len());
    let end = hay[s..cap].find([';', '{', '}']).map_or(cap, |p| s + p);
    &hay[start..end]
}

/// The header of the function enclosing byte `s` (from the nearest
/// preceding `fn` to its `{`), for typing tail expressions whose
/// statement text alone names no type.
fn enclosing_fn_header(hay: &str, s: usize) -> &str {
    let Some(fn_at) = word_occurrences(&hay[..s], "fn").last().copied() else {
        return "";
    };
    let cap = (fn_at + 300).min(hay.len());
    let end = hay[fn_at..cap].find('{').map_or(cap, |p| fn_at + p);
    &hay[fn_at..end]
}

/// L7: ad-hoc floating-point reductions. Float addition is not
/// associative, so `sum`/`fold`/`+=` chains give different bits under
/// different traversal or chunking orders; reductions belong in the
/// kernel's canonical fixed-order reduce paths (`Pool::map_index` +
/// in-order combine), or must be annotated as order-fixed.
fn float_reduction(model: &SourceModel, out: &mut Vec<Finding>) {
    let hay = &model.masked;
    let bytes = hay.as_bytes();
    // `.sum()` / `.product()` / `.fold(` over floats.
    for method in ["sum", "product", "fold"] {
        for s in word_occurrences(hay, method) {
            if prev_non_ws(bytes, s) != Some(b'.') {
                continue;
            }
            let after = hay[s + method.len()..].trim_start();
            if !(after.starts_with('(') || after.starts_with("::<")) {
                continue;
            }
            let stmt = statement_around(hay, s);
            // Turbofish names the accumulator type outright — and an
            // explicit integer accumulator is proof of innocence even
            // when the result is cast to float afterwards.
            let turbofish_float = after.starts_with("::<")
                && after[..after.find('(').unwrap_or(after.len())]
                    .split(['<', '>'])
                    .any(|t| t.trim() == "f32" || t.trim() == "f64");
            if after.starts_with("::<") && !turbofish_float {
                continue;
            }
            // A tail/return expression carries no type of its own; its
            // accumulator type lives in the enclosing fn signature.
            let typed_by_fn =
                !stmt.contains('=') && has_float_evidence(enclosing_fn_header(hay, s));
            if !turbofish_float && !has_float_evidence(stmt) && !typed_by_fn {
                continue;
            }
            // min/max folds are order-insensitive; skip them.
            if method == "fold"
                && ["::min", "::max", ".min(", ".max("]
                    .iter()
                    .any(|m| stmt.contains(m))
            {
                continue;
            }
            let (line, col) = model.line_col(s);
            out.push(Finding {
                rule: Rule::FloatReduction,
                line,
                col,
                message: format!(
                    "float `.{method}(..)` reduction: float addition is order-sensitive; \
                     use the kernel's canonical reduce path or annotate the fixed \
                     traversal order"
                ),
            });
        }
    }
    // `acc += x` loops over a `let mut acc = 0.0;`-style accumulator.
    let mut accumulators: Vec<String> = Vec::new();
    for s in word_occurrences(hay, "let") {
        let after = hay[s + 3..].trim_start();
        let Some(rest) = after.strip_prefix("mut ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let stmt = statement_around(hay, s);
        // Scalar float init only — collections accumulate by push.
        if has_float_evidence(stmt)
            && !stmt.contains("Vec")
            && !stmt.contains("vec!")
            && !stmt.contains('[')
            && !accumulators.contains(&name)
        {
            accumulators.push(name);
        }
    }
    for name in &accumulators {
        for s in word_occurrences(hay, name) {
            let after = hay[s + name.len()..].trim_start();
            if !after.starts_with("+=") {
                continue;
            }
            let (line, col) = model.line_col(s);
            out.push(Finding {
                rule: Rule::FloatReduction,
                line,
                col,
                message: format!(
                    "`{name} +=` float accumulation: float addition is order-sensitive; \
                     use the kernel's canonical reduce path or annotate the fixed \
                     traversal order"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceModel;

    fn findings(src: &str) -> Vec<Finding> {
        check(&SourceModel::parse(src), Policy::strict(), None)
    }

    #[test]
    fn skips_test_code_and_strings() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(xs: &[f64]) -> f64 { xs.iter().sum() }\n}\n";
        assert!(findings(src).is_empty());
        assert!(findings("const S: &str = \"let t: f64 = xs.iter().sum();\";\n").is_empty());
    }

    #[test]
    fn l0_manifest_accepts_path_crates_only() {
        let clean = "[package]\nname = \"tvdp-x\"\nversion = \"1\"\n\n[dependencies]\n\
                     tvdp-kernel.workspace = true\ntvdp-geo = { path = \"../geo\" }\n\n\
                     [workspace.dependencies]\ntvdp-json = { path = \"crates/json\" }\n";
        assert!(check_manifest(clean).is_empty());
        for (bad, line) in [
            ("[dependencies]\nrand = \"0.8\"\n", 2),
            ("[dev-dependencies]\nproptest.workspace = true\n", 2),
            ("[workspace.dependencies]\nserde = { version = \"1\" }\n", 2),
            ("[dependencies.parking_lot]\nversion = \"0.12\"\n", 1),
            ("[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n", 2),
            ("[dependencies]\ntvdp-geo = \"0.1\"\n", 2),
        ] {
            let f = check_manifest(bad);
            assert_eq!(f.len(), 1, "{bad:?}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), (Rule::RegistryDependency, line));
        }
        // Keys outside dependency tables are not dependencies.
        assert!(check_manifest("[package]\nrand = \"x\"\n[features]\nserde = []\n").is_empty());
    }

    #[test]
    fn l5_allows_gencell_publication_and_kernel_sync() {
        // The blessed pattern: GenCell generation publication plus a
        // kernel-sync writer mutex. `std::sync::Arc` alone is fine.
        let src = "use std::sync::Arc;\nuse tvdp_kernel::sync::Mutex;\nuse tvdp_kernel::GenCell;\n\
                   fn publish(cell: &GenCell<u8>, w: &Mutex<u8>) {\n\
                    let v = *w.lock();\n cell.store(Arc::new(v));\n let _ = cell.load();\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_with_reason() {
        let src = "fn f(xs: &[f64]) -> f64 {\n // tvdp-lint: allow(float_reduction, reason = \"fixed order\")\n xs.iter().sum()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_without_reason_becomes_finding() {
        let src =
            "fn f(xs: &[f64]) -> f64 {\n xs.iter().sum() // tvdp-lint: allow(float_reduction)\n}\n";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow), "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::FloatReduction), "{f:?}");
    }

    #[test]
    fn unused_allow_becomes_finding() {
        // Well-formed allow, but nothing on the target line reduces.
        let src = "fn f(x: f64) -> f64 {\n \
                   // tvdp-lint: allow(float_reduction, reason = \"stale\")\n \
                   x + 1.0\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::BadAllow);
        assert_eq!(f[0].line, 2, "reported at the comment line");
        assert!(
            f[0].message.contains("unused allow(float_reduction)"),
            "{f:?}"
        );
    }

    #[test]
    fn used_allow_is_not_flagged_as_unused() {
        let src = "fn f(xs: &[f64]) -> f64 {\n \
                   // tvdp-lint: allow(float_reduction, reason = \"fixed order\")\n \
                   xs.iter().sum()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn unused_allow_in_test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n \
                   // tvdp-lint: allow(float_reduction, reason = \"test only\")\n \
                   fn t(x: u8) -> u8 { x }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn l5_flags_guard_held_across_pool_dispatch() {
        let src = "fn f(m: &tvdp_kernel::sync::Mutex<u8>, pool: &Pool) {\n \
                   let g = m.lock();\n \
                   pool.map_index(1, |_| {});\n \
                   let _ = *g;\n}\n";
        let f = findings(src);
        assert!(
            f.iter()
                .any(|f| f.rule == Rule::LockDiscipline && f.message.contains("pool dispatch")),
            "{f:?}"
        );
    }

    #[test]
    fn l5_flags_nested_lock_acquisition() {
        let src = "fn f(a: &tvdp_kernel::sync::Mutex<u8>, b: &tvdp_kernel::sync::Mutex<u8>) {\n \
                   let ga = a.lock();\n \
                   let gb = b.lock();\n \
                   let _ = (*ga, *gb);\n}\n";
        let f = findings(src);
        assert!(
            f.iter()
                .any(|f| f.rule == Rule::LockDiscipline && f.message.contains("nested lock")),
            "{f:?}"
        );
    }

    #[test]
    fn l5_respects_explicit_drop_before_dispatch() {
        let src = "fn f(m: &tvdp_kernel::sync::Mutex<u8>, pool: &Pool) {\n \
                   let g = m.lock();\n \
                   let v = *g;\n \
                   drop(g);\n \
                   pool.map_index(1, |_| v);\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn l5_option_map_under_guard_is_not_a_dispatch() {
        let src = "fn f(m: &tvdp_kernel::sync::Mutex<Option<u8>>) -> Option<u8> {\n \
                   let g = m.lock();\n \
                   g.map(|v| v + 1)\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn l5_pool_map_under_guard_is_a_dispatch() {
        let src = "fn f(m: &tvdp_kernel::sync::Mutex<u8>, pool: &Pool) -> Vec<u8> {\n \
                   let g = m.lock();\n \
                   pool.map(&[1u8, 2], |_, &x| x + *g)\n}\n";
        let f = findings(src);
        assert!(
            f.iter()
                .any(|f| f.rule == Rule::LockDiscipline && f.message.contains("pool dispatch")),
            "{f:?}"
        );
    }

    #[test]
    fn l5_ignores_temporary_guards_and_consumed_results() {
        // `*m.lock() = 1` drops its guard at the semicolon; `.lock().clone()`
        // consumes the guard in the same expression. Neither stays live.
        let src = "fn f(m: &tvdp_kernel::sync::Mutex<u8>, p: &tvdp_kernel::sync::Mutex<u8>) {\n \
                   *m.lock() = 1;\n \
                   let v = p.lock().clone();\n \
                   let _ = v;\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn l6_flags_bare_atomic_orderings_only() {
        let f = findings("fn f(x: &AtomicUsize) -> usize { x.load(Ordering::SeqCst) }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AtomicOrdering);
        // cmp::Ordering and an ordering-free line never fire.
        assert!(findings("fn f(a: u8, b: u8) -> std::cmp::Ordering { a.cmp(&b) }\n").is_empty());
        // The mandatory annotation both suppresses and is counted used.
        let src = "fn f(x: &AtomicUsize) -> usize {\n \
                   // tvdp-lint: allow(atomic_ordering, reason = \"SeqCst: publication fence\")\n \
                   x.load(Ordering::SeqCst)\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn l7_flags_float_sum_and_fold() {
        let f = findings("fn f(xs: &[f64]) -> f64 { xs.iter().sum() }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::FloatReduction);
        let f = findings("fn f(xs: &[u32]) -> f32 { xs.iter().map(|x| *x as f32).sum::<f32>() }\n");
        assert!(f.iter().any(|f| f.rule == Rule::FloatReduction), "{f:?}");
        let f = findings("fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\n");
        assert!(f.iter().any(|f| f.rule == Rule::FloatReduction), "{f:?}");
    }

    #[test]
    fn l7_skips_integer_sums_and_minmax_folds() {
        assert!(findings("fn f(xs: &[u64]) -> u64 { xs.iter().sum() }\n").is_empty());
        assert!(findings(
            "fn f(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) }\n"
        )
        .is_empty());
    }

    #[test]
    fn l7_flags_plus_eq_float_accumulators() {
        let src = "fn f(xs: &[f64]) -> f64 {\n let mut acc = 0.0;\n \
                   for x in xs {\n acc += x;\n }\n acc\n}\n";
        let f = findings(src);
        assert!(f.iter().any(|f| f.rule == Rule::FloatReduction), "{f:?}");
        // Integer accumulators are fine.
        let src = "fn f(xs: &[u64]) -> u64 {\n let mut n = 0u64;\n \
                   for x in xs {\n n += x;\n }\n n\n}\n";
        assert!(findings(src).is_empty());
    }
}
