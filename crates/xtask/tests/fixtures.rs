//! End-to-end tests: the `cargo xtask lint` binary must reject each
//! committed violation fixture of its rules (nonzero exit) and pass the
//! clean ones, and the workspace lint must report exactly the cases of
//! the L8 fixture workspace. The L1, L2, L3, L4 and L9 fixtures are
//! clippy's, checked in CI.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint_on(fixture: &str) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg(format!("crates/xtask/fixtures/{fixture}"))
        .env("CARGO_MANIFEST_DIR", workspace_root().join("crates/xtask"))
        .current_dir(workspace_root())
        .output();
    match out {
        Ok(o) => o,
        Err(e) => panic!("failed to run xtask binary: {e}"),
    }
}

fn assert_fires(fixture: &str, rule_tag: &str) {
    let out = run_lint_on(fixture);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "lint must exit nonzero on {fixture}; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains(rule_tag),
        "expected a {rule_tag} finding in {fixture}; got:\n{stdout}"
    );
}

#[test]
fn l0_registry_dependency_fixture_rejected() {
    assert_fires("l0_registry_dependency.toml", "[L0/registry_dependency]");
    let out = run_lint_on("l0_registry_dependency.toml");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // rand, serde, proptest and the `[dependencies.parking_lot]` table;
    // the two path crates pass.
    assert_eq!(
        stdout.matches("[L0/registry_dependency]").count(),
        4,
        "wrong violation count:\n{stdout}"
    );
}

#[test]
fn l5_fixture_rejected() {
    assert_fires("l5_lock_across_dispatch.rs", "[L5/lock_discipline]");
}

#[test]
fn l5_fixture_flags_dispatch_and_nested_acquisition() {
    let out = run_lint_on("l5_lock_across_dispatch.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pool dispatch"), "{stdout}");
    assert!(stdout.contains("nested lock"), "{stdout}");
}

#[test]
fn l6_fixture_rejected() {
    assert_fires("l6_bare_atomic_ordering.rs", "[L6/atomic_ordering]");
}

#[test]
fn l6_fixture_flags_only_the_unreviewed_sites() {
    let out = run_lint_on("l6_bare_atomic_ordering.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // SeqCst load + Relaxed store fire; the annotated fetch_add does not.
    assert_eq!(
        stdout.matches("[L6/atomic_ordering]").count(),
        2,
        "wrong violation count:\n{stdout}"
    );
}

#[test]
fn l7_fixture_rejected() {
    assert_fires("l7_float_reduction.rs", "[L7/float_reduction]");
}

#[test]
fn l7_fixture_flags_each_float_reduction_once() {
    let out = run_lint_on("l7_float_reduction.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Bare sum + float fold + `acc +=`; the integer-turbofish sum and
    // the min/max fold stay legal.
    assert_eq!(
        stdout.matches("[L7/float_reduction]").count(),
        3,
        "wrong violation count:\n{stdout}"
    );
}

#[test]
fn l0_unused_allow_fixture_rejected() {
    assert_fires("l0_unused_allow.rs", "[L0/bad_allow]");
    let out = run_lint_on("l0_unused_allow.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unused allow(float_reduction)"), "{stdout}");
}

#[test]
fn json_format_reports_findings_machine_readably() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--format")
        .arg("json")
        .arg("crates/xtask/fixtures/l6_bare_atomic_ordering.rs")
        .env("CARGO_MANIFEST_DIR", workspace_root().join("crates/xtask"))
        .current_dir(workspace_root())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => panic!("failed to run xtask binary: {e}"),
    };
    assert!(!out.status.success(), "violations must still exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.ends_with(",\"count\":2}"), "{line}");
    assert!(
        line.contains("\"file\":\"crates/xtask/fixtures/l6_bare_atomic_ordering.rs\""),
        "{line}"
    );
    assert!(line.contains("\"rule\":\"L6\""), "{line}");
    assert!(line.contains("\"name\":\"atomic_ordering\""), "{line}");
    assert!(line.contains("\"line\":"), "{line}");
    assert!(line.contains("\"snippet\":"), "{line}");
}

#[test]
fn json_format_clean_file_reports_empty_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--format=json")
        .arg("crates/xtask/fixtures/clean_with_allows.rs")
        .env("CARGO_MANIFEST_DIR", workspace_root().join("crates/xtask"))
        .current_dir(workspace_root())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => panic!("failed to run xtask binary: {e}"),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout.trim(), "{\"findings\":[],\"count\":0}");
}

#[test]
fn clean_virtual_transport_fixture_passes() {
    let out = run_lint_on("clean_virtual_transport.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "virtual-clock transport fixture must pass; stdout:\n{stdout}"
    );
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint_on("clean_with_allows.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "clean fixture must pass; stdout:\n{stdout}"
    );
    assert!(stdout.contains("clean"), "{stdout}");
}

/// Copies the fixture workspace `fixtures/<name>` to `to`, so the
/// probe's mirror lands under cargo's target directory.
fn copy_fixture(name: &str, to: &Path) {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        fs::create_dir_all(to)?;
        for entry in fs::read_dir(from)? {
            let path = entry?.path();
            let dest = to.join(path.file_name().unwrap_or_default());
            if path.is_dir() {
                copy(&path, &dest)?;
            } else {
                fs::copy(&path, &dest)?;
            }
        }
        Ok(())
    }
    let from = workspace_root().join("crates/xtask/fixtures").join(name);
    copy(&from, to).unwrap_or_else(|e| panic!("copying {name}: {e}"));
}

/// `path:line snippet` of every finding of the workspace lint over the
/// L8 fixture workspace, probed once per test run.
fn l8_fixture() -> &'static [String] {
    static FOUND: OnceLock<Vec<String>> = OnceLock::new();
    FOUND.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("l8_workspace");
        copy_fixture("l8_workspace", &root);
        let findings = xtask::lint_workspace(&root).unwrap_or_else(|e| panic!("{e}"));
        findings
            .iter()
            .map(|f| format!("{}:{} {}", f.path, f.finding.line, f.snippet))
            .collect()
    })
}

const ALPHA: &str = "crates/alpha/src/lib.rs";

/// Whether the L8 fixture reports the `nth` line of `path` that holds
/// `needle`.
fn l8_fires(path: &str, needle: &str, nth: usize) -> bool {
    let file = workspace_root()
        .join("crates/xtask/fixtures/l8_workspace")
        .join(path);
    let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{e}"));
    let line = (1..)
        .zip(text.lines())
        .filter(|(_, l)| l.contains(needle))
        .nth(nth)
        .map(|(n, _)| n);
    let at = format!("{path}:{} ", line.unwrap_or_else(|| panic!("no {needle}")));
    l8_fixture().iter().any(|f| f.starts_with(&at))
}

#[test]
fn l8_a_pub_fn_nothing_calls_is_flagged() {
    // `Counter::reset` is called; `Gauge::reset`, its namesake, is not.
    assert!(!l8_fires(ALPHA, "pub fn reset", 0), "{:?}", l8_fixture());
    assert!(l8_fires(ALPHA, "pub fn reset", 1), "{:?}", l8_fixture());
}

#[test]
fn l8_test_code_is_not_a_use() {
    // `#[cfg(test)]` code and `tvdp-beta`'s integration test call it.
    assert!(l8_fires(ALPHA, "pub fn helper", 0), "{:?}", l8_fixture());
}

#[test]
fn l8_a_re_export_is_not_a_use() {
    let inner = "crates/alpha/src/inner.rs";
    assert!(l8_fires(inner, "pub fn lonely", 0), "{:?}", l8_fixture());
}

#[test]
fn l8_a_type_named_only_in_its_own_impl_is_flagged() {
    assert!(
        l8_fires(ALPHA, "pub struct Batcher", 0),
        "{:?}",
        l8_fixture()
    );
    // Its constructor is called by the type's own `Default`, and the
    // types another crate names are reached.
    for kept in [
        "pub fn new() -> Batcher",
        "pub struct Counter",
        "pub struct Gauge",
    ] {
        assert!(!l8_fires(ALPHA, kept, 0), "{kept}: {:?}", l8_fixture());
    }
}

#[test]
fn l8_an_example_keeps_an_item_alive_but_the_benchmark_does_not() {
    assert!(!l8_fires(ALPHA, "pub fn shown", 0), "{:?}", l8_fixture());
    assert!(
        l8_fires(ALPHA, "pub fn bench_only", 0),
        "{:?}",
        l8_fixture()
    );
}

#[test]
fn l8_an_allow_keeps_an_item_and_goes_stale_once_it_has_a_caller() {
    // `kept` is uncalled under its allow: nothing fires.
    assert!(!l8_fires(ALPHA, "pub fn kept", 0), "{:?}", l8_fixture());
    assert!(!l8_fires(ALPHA, "allow(dead_api", 1), "{:?}", l8_fixture());
    // `capability` gained a caller: its allow is stale.
    assert!(
        !l8_fires(ALPHA, "pub fn capability", 0),
        "{:?}",
        l8_fixture()
    );
    assert!(l8_fires(ALPHA, "allow(dead_api", 0), "{:?}", l8_fixture());
}

#[test]
fn l8_fixture_workspace_reports_exactly_its_cases() {
    assert_eq!(
        l8_fixture(),
        [
            "crates/alpha/src/inner.rs:4 pub fn lonely() -> u32 {",
            "crates/alpha/src/lib.rs:48 pub fn reset(&mut self) {",
            "crates/alpha/src/lib.rs:54 pub struct Batcher {",
            "crates/alpha/src/lib.rs:72 pub fn helper() -> usize {",
            "crates/alpha/src/lib.rs:78 // tvdp-lint: allow(dead_api, reason = \"(c) paper capability with no route yet\")",
            "crates/alpha/src/lib.rs:96 pub fn bench_only() -> u32 {",
        ]
    );
}

#[test]
fn l8_a_mirror_that_does_not_compile_fails_the_lint_with_cargos_message() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("l8_broken");
    copy_fixture("l8_workspace", &root);
    let lib = root.join(ALPHA);
    let text = fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{e}"));
    let broken = format!("{text}\npub fn broken() -> u32 {{\n    \"text\"\n}}\n");
    fs::write(&lib, broken).unwrap_or_else(|e| panic!("{e}"));
    let err = match xtask::lint_workspace(&root) {
        Ok(found) => panic!("a broken mirror must fail the lint, got {found:?}"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("L8's probe failed"), "{err}");
    assert!(err.contains("mismatched types"), "{err}");
}

#[test]
fn whole_workspace_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .env("CARGO_MANIFEST_DIR", workspace_root().join("crates/xtask"))
        .current_dir(workspace_root())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => panic!("failed to run xtask binary: {e}"),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must be lint-clean:\n{stdout}"
    );
}
