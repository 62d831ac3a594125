//! CLI entry point: `cargo xtask lint [--format text|json] [FILE...]`.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::OutputFormat;

fn usage() -> ExitCode {
    let _ = writeln!(
        io::stderr(),
        "usage: cargo xtask lint [--format text|json] [FILE...]\n\
         \n\
         Enforces the TVDP invariants over crates/*/src and every\n\
         manifest (no args) or the given files: L1 no-panic, L2\n\
         determinism, L3 pool-only threading, L4 no ambient\n\
         time/randomness, L5 lock discipline, L6 reviewed atomic\n\
         orderings, L7 canonical float reductions, (no args) L8 no\n\
         public item that shipped code never names, and (Cargo.toml)\n\
         L0 path-crate dependencies only."
    );
    ExitCode::from(2)
}

/// Workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// else the current directory.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .and_then(|m| m.parent().and_then(|p| p.parent()).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "lint" => {
            let mut format = OutputFormat::Text;
            let mut files: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--format" {
                    match it.next().map(String::as_str) {
                        Some("text") => format = OutputFormat::Text,
                        Some("json") => format = OutputFormat::Json,
                        _ => return usage(),
                    }
                } else if let Some(v) = arg.strip_prefix("--format=") {
                    match v {
                        "text" => format = OutputFormat::Text,
                        "json" => format = OutputFormat::Json,
                        _ => return usage(),
                    }
                } else if arg.starts_with('-') {
                    return usage();
                } else {
                    files.push(arg.clone());
                }
            }
            let root = workspace_root();
            let mut stdout = io::stdout().lock();
            match xtask::run_lint_with_format(&root, &files, format, &mut stdout) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    let _ = writeln!(io::stderr(), "tvdp-lint: error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
