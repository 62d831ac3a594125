//! The one harness of the bench binaries that print a JSON report
//! (`load_harness`, `ingest_throughput`, `query_planner`,
//! `edge_goodput`): exit-on-failure, the percentile rule, the header
//! every `BENCH_*.json` opens with, and the acceptance block.
//!
//! A report is a JSON object whose entries are printed in order, one
//! per line or block:
//!
//! ```text
//! {
//!   "description": "...",
//!   "methodology": "...",
//!   "regenerate": "cargo run --release -p tvdp-bench --bin ... > BENCH_x.json",
//!   "kind": "measured" | "modelled",
//!   "host": { "cores": 2, "commit": "abc1234", <probes> } | { "commit": "abc1234" },
//!   <the binary's own entries>,
//!   "acceptance": { "name": "met: ..." | "NOT met: ..." | "...", ... }
//! }
//! ```
//!
//! A measured file's numbers come from this host's clock, so its `host`
//! names the cores and any probe the binary took; a modelled file runs
//! on a virtual clock and names the commit alone, which keeps it
//! byte-identical across hosts.

use std::fmt::{Debug, Display, Write as _};

use tvdp_storage::codec;

/// Unwraps `r`, or prints `what` and the error to stderr and exits 1.
pub fn ok<T, E: Debug>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| fail(format_args!("{what}: {e:?}")))
}

/// Prints `what` to stderr and exits 1 unless `cond` holds. `what` is
/// only rendered on failure, so `format_args!` costs nothing here.
pub fn ensure(cond: bool, what: impl Display) {
    if !cond {
        fail(what);
    }
}

fn fail(what: impl Display) -> ! {
    eprintln!("error: {what}");
    std::process::exit(1)
}

/// The `pct`-th percentile of an ascending slice by the integer rule
/// `sorted[(len - 1) * pct / 100]`: an exact sample, never an
/// interpolation. `T::default()` for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: usize) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * pct / 100],
    }
}

/// Where a report's numbers come from.
pub enum Kind {
    /// Wall-clock on this host.
    Measured {
        /// (name, rendered value) pairs that join cores and commit in
        /// `host`, e.g. `("fdatasync_us", "72")`.
        probes: Vec<(&'static str, String)>,
    },
    /// A virtual clock: the same bytes on every host at one commit.
    Modelled,
}

/// The entries every report opens with.
pub struct Header<'a> {
    /// What the report compares, on what workload.
    pub description: &'a str,
    /// How each number is produced and what it includes.
    pub methodology: &'a str,
    /// The command that regenerates the checked-in file.
    pub regenerate: &'a str,
    /// Measured or modelled; decides what `host` holds.
    pub kind: Kind,
}

/// A JSON report under construction: the header, then the binary's
/// entries in the order it adds them.
pub struct Report {
    entries: Vec<(&'static str, String)>,
}

impl Report {
    /// A report holding the header entries, `host` filled in from this
    /// checkout (and this host, for a measured report).
    pub fn new(header: Header) -> Report {
        let commit = quote(&git_commit());
        let (kind, host) = match header.kind {
            Kind::Measured { probes } => {
                let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
                let mut host = format!("{{ \"cores\": {cores}, \"commit\": {commit}");
                for (name, value) in probes {
                    let _ = write!(host, ", \"{name}\": {value}");
                }
                ("measured", host + " }")
            }
            Kind::Modelled => ("modelled", format!("{{ \"commit\": {commit} }}")),
        };
        let mut report = Report {
            entries: Vec::new(),
        };
        report
            .text("description", header.description)
            .text("methodology", header.methodology)
            .text("regenerate", header.regenerate)
            .text("kind", kind)
            .field("host", host);
        report
    }

    /// Adds `"name": value`, `value` being rendered JSON (a number, an
    /// object, an array).
    pub fn field(&mut self, name: &'static str, value: impl Display) -> &mut Report {
        self.entries.push((name, value.to_string()));
        self
    }

    /// Adds `"name": "text"`.
    pub fn text(&mut self, name: &'static str, text: &str) -> &mut Report {
        self.field(name, quote(text))
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        println!("{self}");
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{{")?;
        write_entries(f, &self.entries, "  ")?;
        write!(f, "}}")
    }
}

/// The `acceptance` block: one line per criterion, a gate reading
/// `"met: …"` or `"NOT met: …"`, or a note that states how a property
/// is held without gating it here.
#[derive(Default)]
pub struct Acceptance {
    lines: Vec<(&'static str, String)>,
}

impl Acceptance {
    /// A criterion this run checks.
    pub fn gate(&mut self, name: &'static str, met: bool, evidence: impl Display) {
        let verdict = if met { "met" } else { "NOT met" };
        self.note(name, format_args!("{verdict}: {evidence}"));
    }

    /// A line with no verdict.
    pub fn note(&mut self, name: &'static str, text: impl Display) {
        self.lines.push((name, quote(&text.to_string())));
    }
}

impl Display for Acceptance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{{")?;
        write_entries(f, &self.lines, "    ")?;
        write!(f, "  }}")
    }
}

fn write_entries(
    f: &mut std::fmt::Formatter<'_>,
    entries: &[(&'static str, String)],
    indent: &str,
) -> std::fmt::Result {
    for (i, (name, value)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        writeln!(f, "{indent}\"{name}\": {value}{sep}")?;
    }
    Ok(())
}

/// `text` as a JSON string literal.
fn quote(text: &str) -> String {
    codec::Value::str(text).render()
}

/// The checkout this binary was run from: `git rev-parse --short HEAD`,
/// with `-dirty` when [`dirty`] finds an uncommitted change.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim_end().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain"]) {
            Some(changes) if dirty(&changes) => format!("{head}-dirty"),
            _ => head,
        },
        None => "unknown".into(),
    }
}

/// Whether `git status --porcelain` output shows a change other than a
/// `BENCH_*.json` file. A report is regenerated by redirecting stdout
/// onto its file, which the shell truncates before the binary starts,
/// so the file being written must not count against the commit.
fn dirty(porcelain: &str) -> bool {
    let is_report = |path: &str| {
        let name = path.rsplit('/').next().unwrap_or(path);
        name.starts_with("BENCH_") && name.ends_with(".json")
    };
    porcelain
        .lines()
        .filter_map(|line| line.get(3..))
        .any(|paths| paths.split(" -> ").any(|p| !is_report(p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_single_and_duplicate_input() {
        assert_eq!(percentile::<i64>(&[], 50), 0);
        assert_eq!(percentile::<f64>(&[], 99), 0.0);
        for pct in [0, 50, 99, 100] {
            assert_eq!(percentile(&[7i64], pct), 7);
        }
        let dup = [3i64, 3, 3, 3, 9];
        assert_eq!(percentile(&dup, 50), 3);
        assert_eq!(percentile(&dup, 99), 3, "index (5-1)*99/100 = 3");
        assert_eq!(percentile(&dup, 100), 9);
    }

    /// `ingest_throughput` indexed by `((len - 1) as f64 * p) as usize`
    /// before it shared this rule; the two pick the same sample at p50
    /// and p99 for every length a report uses.
    #[test]
    fn the_integer_rule_agrees_with_the_float_rule() {
        let values: Vec<usize> = (0..20_000).collect();
        for len in 1..=values.len() {
            let sorted = &values[..len];
            for (pct, p) in [(50, 0.50), (99, 0.99)] {
                let float = ((len - 1) as f64 * p) as usize;
                assert_eq!(percentile(sorted, pct), float, "len {len}, p{pct}");
            }
        }
    }

    #[test]
    fn acceptance_renders_met_not_met_and_notes() {
        let mut a = Acceptance::default();
        a.gate("fast", true, format_args!("{}x", 5));
        a.gate("small", false, "42 \"bytes\"");
        a.note("held_elsewhere", "by a test");
        assert_eq!(
            a.to_string(),
            "{\n    \"fast\": \"met: 5x\",\n    \"small\": \"NOT met: 42 \\\"bytes\\\"\",\n    \"held_elsewhere\": \"by a test\"\n  }"
        );
    }

    #[test]
    fn a_modelled_header_names_the_commit_alone() {
        let mut report = Report::new(Header {
            description: "d",
            methodology: "m",
            regenerate: "r",
            kind: Kind::Modelled,
        });
        report.field("n", 1);
        let text = report.to_string();
        assert!(text.starts_with(
            "{\n  \"description\": \"d\",\n  \"methodology\": \"m\",\n  \"regenerate\": \"r\",\n  \"kind\": \"modelled\",\n  \"host\": { \"commit\": \""
        ));
        assert!(text.ends_with(" },\n  \"n\": 1\n}"), "{text}");
        assert!(!text.contains("cores"));
    }

    #[test]
    fn a_measured_header_names_cores_commit_and_probes() {
        let report = Report::new(Header {
            description: "d",
            methodology: "m",
            regenerate: "r",
            kind: Kind::Measured {
                probes: vec![("fdatasync_us", "72".into())],
            },
        });
        let text = report.to_string();
        assert!(text.contains("\"kind\": \"measured\""), "{text}");
        assert!(text.contains("\"host\": { \"cores\": "), "{text}");
        assert!(text.ends_with(", \"fdatasync_us\": 72 }\n}"), "{text}");
    }

    #[test]
    fn only_a_change_outside_the_reports_is_dirty() {
        assert!(!dirty(""));
        assert!(!dirty(" M BENCH_query.json\n?? BENCH_load_w1.json\n"));
        assert!(!dirty("?? sub/BENCH_x.json"));
        assert!(dirty(" M crates/bench/src/report.rs"));
        assert!(dirty(" M BENCH_query.json\n?? notes.txt"));
        assert!(dirty("?? BENCH_x.json.bak"));
        assert!(dirty("R  src/a.rs -> BENCH_a.json"));
    }
}
