//! End-to-end tests: the `cargo xtask lint` binary must reject each
//! committed violation fixture of its rules (nonzero exit) and pass the
//! clean ones. The L1, L3 and L4 fixtures are clippy's, checked in CI.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
fn l2_fixture_rejected() {
    assert_fires("l2_hash_iteration.rs", "[L2/determinism]");
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
