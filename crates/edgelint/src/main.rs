//! `edgelint` CLI — lint the workspace's simulation crates for ambient
//! nondeterminism. Exit code 1 when any unannotated violation remains, so
//! CI can gate on it (`cargo run -p edgelint --release`). The same pass is
//! reachable as `edgesim lint`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  edgelint [--root <workspace-dir>]   lint the determinism crates
  edgelint --list                     print the lint taxonomy";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(dir) = args.get(i + 1) else {
                    eprintln!("edgelint: --root needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                root = PathBuf::from(dir);
                i += 2;
            }
            "--list" => {
                print_taxonomy();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("edgelint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    run(&root)
}

fn print_taxonomy() {
    for lint in edgelint::Lint::ALL {
        println!("{}\n    {}\n", lint.name(), lint.rationale());
    }
}

/// Shared driver, also called by `edgesim lint`.
pub(crate) fn run(root: &Path) -> ExitCode {
    let violations = match edgelint::check_workspace(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("edgelint: {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "edgelint: clean ({} crates checked)",
            edgelint::DETERMINISM_CRATES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "edgelint: {} violation(s); annotate provably-safe sites with \
             `// edgelint: allow(<lint>) — <reason>`",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
