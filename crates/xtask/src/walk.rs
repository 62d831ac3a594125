//! Workspace traversal and per-file lint policy.
//!
//! Workspace mode walks `crates/*/src/**/*.rs` plus the umbrella crate's
//! `src/`, then the root and `crates/*` manifests (L0: path crates
//! only), in sorted order (the linter obeys its own determinism rule).
//! L8 reads `examples/**` too, as callers only.
//! Policy for sources is derived from the path:
//!
//! * `crates/kernel` — the home of the canonical fixed-order reductions
//!   (L7 off), and implements the dispatch primitives L5 polices (L5
//!   off);
//! * `crates/bench` — exists to report float means, so L7 is off.
//!
//! The owners of threads and clocks (L3, L4) opt out of clippy's
//! `disallowed_*` lints in their own source instead, one `#![expect]`
//! each.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::dead_api::dead_api;
use crate::rules::{check, check_manifest, Finding, Policy};
use crate::source::SourceModel;

/// Crates exempt from lock-discipline L5: the kernel implements the
/// dispatch primitives.
const LOCK_DISCIPLINE_EXEMPT: [&str; 1] = ["kernel"];

/// Crates exempt from float-reduction L7: the kernel owns the canonical
/// fixed-order reduce paths, and bench reports are diagnostics.
const FLOAT_REDUCTION_EXEMPT: [&str; 2] = ["kernel", "bench"];

/// The lint policy for one file, derived from its workspace-relative
/// path (separators normalized to `/`).
pub fn policy_for(rel_path: &str) -> Policy {
    let rel = rel_path.replace('\\', "/");
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    Policy {
        check_lock_discipline: !LOCK_DISCIPLINE_EXEMPT.contains(&crate_name),
        check_float_reduction: !FLOAT_REDUCTION_EXEMPT.contains(&crate_name),
    }
}

/// A finding bound to the file it came from.
#[derive(Debug, Clone)]
pub struct FileFinding {
    /// Workspace-relative path.
    pub path: String,
    /// The finding itself.
    pub finding: Finding,
    /// Trimmed source line, for the report.
    pub snippet: String,
}

/// Lints one file: a `.toml` manifest under the L0 dependency check,
/// anything else as Rust source under an explicit policy. L8 needs the
/// whole workspace and does not run here.
pub fn lint_file(root: &Path, rel_path: &str, policy: Policy) -> io::Result<Vec<FileFinding>> {
    let text = fs::read_to_string(root.join(rel_path))?;
    let findings = if rel_path.ends_with(".toml") {
        check_manifest(&text)
    } else {
        check(&SourceModel::parse(&text), policy, None)
    };
    Ok(bind(rel_path, &text, findings))
}

/// Attaches the path and the offending line's text to each finding.
fn bind(rel_path: &str, text: &str, findings: Vec<Finding>) -> Vec<FileFinding> {
    findings
        .into_iter()
        .map(|finding| FileFinding {
            path: rel_path.to_string(),
            snippet: text
                .lines()
                .nth(finding.line - 1)
                .unwrap_or("")
                .trim()
                .to_string(),
            finding,
        })
        .collect()
}

/// The root manifest and every `crates/*/Cargo.toml`, sorted.
pub fn workspace_manifests(root: &Path) -> io::Result<Vec<String>> {
    let mut rel: Vec<String> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path().join("Cargo.toml")))
        .filter(|p| p.is_file())
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.push("Cargo.toml".to_string());
    rel.sort();
    Ok(rel)
}

/// All library source files in the workspace, sorted.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &[], &mut files)?;
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, &[], &mut files)?;
    }
    Ok(relative(root, files))
}

/// The sources under `examples/`, sorted, build output aside: read by
/// L8 for callers, never linted themselves.
pub fn example_sources(root: &Path) -> io::Result<Vec<String>> {
    let examples = root.join("examples");
    let mut files = Vec::new();
    if examples.is_dir() {
        collect_rs(&examples, &[examples.join("e2e/target")], &mut files)?;
    }
    Ok(relative(root, files))
}

/// Workspace-relative, `/`-separated, sorted.
fn relative(root: &Path, files: Vec<PathBuf>) -> Vec<String> {
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    rel
}

fn collect_rs(dir: &Path, skip: &[PathBuf], out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !skip.contains(&path) {
                collect_rs(&path, skip, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: every rule over every
/// library source (L8 across them and the examples), then the manifests.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<FileFinding>> {
    let sources = workspace_sources(root)?;
    let mut files = Vec::new();
    for rel in sources.iter().chain(&example_sources(root)?) {
        let text = fs::read_to_string(root.join(rel))?;
        files.push((rel.clone(), SourceModel::parse(&text)));
    }
    let dead = dead_api(&files);
    let mut findings = Vec::new();
    for ((rel, model), dead) in files.iter().zip(dead).take(sources.len()) {
        let found = check(model, policy_for(rel), Some(dead));
        findings.extend(bind(rel, &model.raw, found));
    }
    for rel in workspace_manifests(root)? {
        findings.extend(lint_file(root, &rel, policy_for(&rel))?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checker_gets_every_rule() {
        let p = policy_for("crates/check/src/exec.rs");
        assert!(p.check_lock_discipline);
        assert!(p.check_float_reduction, "no float math in the checker");
    }

    #[test]
    fn kernel_owns_canonical_reductions_and_dispatch() {
        let p = policy_for("crates/kernel/src/pool.rs");
        assert!(!p.check_lock_discipline);
        assert!(!p.check_float_reduction);
        let q = policy_for("crates/query/src/sharded.rs");
        assert!(q.check_lock_discipline);
        assert!(q.check_float_reduction);
    }

    #[test]
    fn bench_reports_may_sum_floats() {
        assert!(!policy_for("crates/bench/src/lib.rs").check_float_reduction);
        assert!(policy_for("crates/ml/src/eval.rs").check_float_reduction);
    }
}
