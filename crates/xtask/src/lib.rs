//! `cargo xtask` — workspace automation for TVDP.
//!
//! The only subcommand today is `lint`, a registry-free static
//! analysis pass enforcing the platform's reproducibility invariants
//! that clippy has no lint for (see [`rules`]): city-scale query
//! serving needs answers that are bit-reproducible across runs and
//! thread counts (L5, L7), with every explicit atomic ordering carrying
//! a reviewed justification (L6) — and buildable offline from a bare
//! checkout: every manifest may depend on workspace path crates only
//! (L0). Crash-freedom (L1), no hash collections (L2), pool-only
//! threading (L3), no ambient time (L4) and one owner of durable calls
//! (L9) are clippy's, through the `cargo no-panic` alias and the root
//! `clippy.toml`. In workspace mode a public item that no shipped code
//! reaches is a finding too (L8, [`dead_api`]), which rustc decides;
//! the `allow(dead_api, ..)` comments are the inventory of those kept
//! on purpose.
//!
//! Run as `cargo xtask lint` (whole workspace) or
//! `cargo xtask lint <file>...` (specific files, strict policy). Add
//! `--format json` for machine-readable output (CI annotations).

pub mod dead_api;
pub mod rules;
pub mod source;
pub mod walk;

use std::io;
use std::path::Path;

use tvdp_json::{obj, Value};

pub use rules::{Finding, Policy, Rule};
pub use source::SourceModel;
pub use walk::{
    lint_file, lint_workspace, policy_for, workspace_manifests, workspace_sources, FileFinding,
};

/// Report format for [`run_lint_with_format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable `path:line:col: [Lx/rule] message` lines.
    #[default]
    Text,
    /// One JSON object with a `findings` array (CI annotations).
    Json,
}

/// Runs the lint over the workspace (no file args) or the given files
/// (strict policy), printing findings to `out` as text. Returns the
/// number of findings.
pub fn run_lint<W: io::Write>(root: &Path, files: &[String], out: &mut W) -> io::Result<usize> {
    run_lint_with_format(root, files, OutputFormat::Text, out)
}

/// [`run_lint`] with an explicit report format.
pub fn run_lint_with_format<W: io::Write>(
    root: &Path,
    files: &[String],
    format: OutputFormat,
    out: &mut W,
) -> io::Result<usize> {
    let findings = if files.is_empty() {
        lint_workspace(root)?
    } else {
        let mut all = Vec::new();
        for rel in files {
            all.extend(lint_file(root, rel, policy_for(rel))?);
        }
        all
    };
    match format {
        OutputFormat::Text => {
            for f in &findings {
                writeln!(
                    out,
                    "{}:{}:{}: [{}/{}] {}\n    {}",
                    f.path,
                    f.finding.line,
                    f.finding.col,
                    f.finding.rule.id(),
                    f.finding.rule.name(),
                    f.finding.message,
                    f.snippet,
                )?;
            }
            if findings.is_empty() {
                writeln!(out, "tvdp-lint: clean")?;
            } else {
                writeln!(
                    out,
                    "tvdp-lint: {} violation(s); suppress a true positive with \
                     `// tvdp-lint: allow(<rule>, reason = \"...\")`",
                    findings.len()
                )?;
            }
        }
        OutputFormat::Json => {
            writeln!(out, "{}", findings_to_json(&findings))?;
        }
    }
    Ok(findings.len())
}

/// Serializes findings as one JSON document:
/// `{"findings":[{"file":..,"line":..,"col":..,"rule":..,"name":..,
/// "message":..,"snippet":..},..],"count":N}`.
pub fn findings_to_json(findings: &[FileFinding]) -> String {
    let rows = findings.iter().map(|f| {
        obj(vec![
            ("file", Value::str(&f.path)),
            ("line", Value::num(f.finding.line)),
            ("col", Value::num(f.finding.col)),
            ("rule", Value::str(f.finding.rule.id())),
            ("name", Value::str(f.finding.rule.name())),
            ("message", Value::str(&f.finding.message)),
            ("snippet", Value::str(&f.snippet)),
        ])
    });
    obj(vec![
        ("findings", Value::Arr(rows.collect())),
        ("count", Value::num(findings.len())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::{Finding, Rule};

    #[test]
    fn json_report_shape_is_stable() {
        let findings = vec![FileFinding {
            path: "crates/x/src/lib.rs".into(),
            snippet: "let t = xs.iter().sum();".into(),
            finding: Finding {
                rule: Rule::FloatReduction,
                line: 3,
                col: 19,
                message: "float `.sum(..)` reduction".into(),
            },
        }];
        let json = findings_to_json(&findings);
        assert_eq!(
            json,
            "{\"findings\":[{\"file\":\"crates/x/src/lib.rs\",\"line\":3,\"col\":19,\
             \"rule\":\"L7\",\"name\":\"float_reduction\",\"message\":\"float `.sum(..)` reduction\",\
             \"snippet\":\"let t = xs.iter().sum();\"}],\"count\":1}"
        );
    }

    #[test]
    fn empty_json_report() {
        assert_eq!(findings_to_json(&[]), "{\"findings\":[],\"count\":0}");
    }
}
