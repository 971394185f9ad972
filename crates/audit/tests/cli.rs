//! The `dlht_audit` exit-code contract that CI relies on: 0 when clean, 1 on
//! any finding, 2 on a usage or IO error. Each test runs the real binary
//! against a throwaway workspace under the system temp directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\n\npub fn answer() -> u32 {\n    42\n}\n";

/// A uniquely named scratch directory, removed on drop (also on panic).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "dlht-audit-cli-{}-{name}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        std::fs::create_dir_all(dir.join("src")).expect("create scratch workspace");
        Scratch(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        std::fs::write(self.0.join(rel), contents).expect("write scratch file");
    }

    /// A one-crate workspace whose only source is a clean `src/lib.rs`.
    fn clean_crate(name: &str) -> Scratch {
        let s = Scratch::new(name);
        s.write(
            "Cargo.toml",
            "[package]\nname = \"scratch\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
        );
        s.write("src/lib.rs", CLEAN_LIB);
        s
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `dlht_audit ROOT ARGS...`.
fn run(args: &[&str], root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlht_audit"))
        .arg(root)
        .args(args)
        .output()
        .expect("run dlht_audit")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let ws = Scratch::clean_crate("clean");
    let out = run(&[], &ws.0);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", text(&out.stdout));
    assert!(out.stdout.is_empty(), "stdout: {}", text(&out.stdout));
    assert!(
        text(&out.stderr).contains("dlht_audit: clean"),
        "stderr: {}",
        text(&out.stderr)
    );
}

#[test]
fn planted_violation_exits_one() {
    let ws = Scratch::clean_crate("planted");
    ws.write(
        "src/planted.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let out = run(&[], &ws.0);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("src/planted.rs:1: [unsafe-needs-safety] ")),
        "stdout: {stdout}"
    );
}

#[test]
fn root_without_cargo_toml_exits_two() {
    let ws = Scratch::new("no-manifest");
    ws.write("src/lib.rs", CLEAN_LIB);
    let out = run(&[], &ws.0);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", text(&out.stderr));
}

#[test]
fn removed_flags_exit_two() {
    let ws = Scratch::clean_crate("flags");
    for args in [
        &["--format", "json"][..],
        &["--update-baseline"],
        &["--no-baseline"],
        &["--baseline", "audit.baseline.json"],
    ] {
        let out = run(args, &ws.0);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} stderr: {}",
            text(&out.stderr)
        );
    }
}
