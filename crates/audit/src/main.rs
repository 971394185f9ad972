//! `dlht_audit` — run the unsafe/atomics audit over the workspace.
//!
//! ```text
//! dlht_audit [ROOT]
//! ```
//!
//! * `ROOT` defaults to the current directory and must contain `Cargo.toml`.
//! * Prints one `file:line: [rule] message` line per finding on stdout and a
//!   one-line summary on stderr.
//! * Exit status: 0 when clean, 1 on any finding, 2 on a usage or IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dlht_audit [ROOT]

Audits every .rs file under ROOT (default: .) for the unsafe/atomics rules
described in docs/CORRECTNESS.md. Any finding fails the run.";

fn parse_args(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(PathBuf::from(".")),
        [flag] if flag == "-h" || flag == "--help" => Err(String::new()),
        [flag, ..] if flag.starts_with('-') => Err(format!("unknown flag {flag:?}")),
        [root] => Ok(PathBuf::from(root)),
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_args(&args) {
        Ok(root) => root,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dlht_audit: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "dlht_audit: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let findings = match dlht_audit::audit_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dlht_audit: IO error: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("dlht_audit: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("dlht_audit: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
