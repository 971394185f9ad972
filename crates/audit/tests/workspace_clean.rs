//! The self-gate: re-audit the whole workspace on every `cargo test` run.
//!
//! This is what turns `dlht_audit` from a CI convenience into an invariant:
//! a PR cannot land an unjustified `unsafe` block, an implicit atomic
//! ordering, a one-sided release/acquire pair, a guard-escaping raw-pointer
//! API, or a panicking hot path without this test going red.
//!
//! The `planted_*` tests are per-rule acceptance fixtures: each plants a
//! deliberate violation and asserts the rule fires (so a regression in the
//! analyzer itself also goes red, not quietly green).

use dlht_audit::{AnalyzedFile, FileKind, Finding, Rule};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/audit -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit has a workspace root two levels up")
        .to_path_buf()
}

/// Run the cross-file rules over in-memory sources.
fn crossfile(files: &[(&str, FileKind, &str)]) -> Vec<Finding> {
    let analyzed: Vec<AnalyzedFile> = files
        .iter()
        .map(|(path, kind, src)| AnalyzedFile {
            path: path.to_string(),
            kind: *kind,
            parsed: dlht_audit::parse::parse_source(src, *kind == FileKind::Test),
        })
        .collect();
    let inv = dlht_audit::inventory::build(&analyzed);
    dlht_audit::crossfile::check_crossfile(&analyzed, &inv)
}

#[test]
fn workspace_has_zero_findings() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let findings = dlht_audit::audit_workspace(&root).expect("audit IO");
    if !findings.is_empty() {
        let mut msg = format!("{} audit finding(s):\n", findings.len());
        for f in &findings {
            msg.push_str(&format!("  {f}\n"));
        }
        panic!("{msg}");
    }
}

#[test]
fn planted_unsafe_violation_is_caught() {
    // The original acceptance fixture: a deliberately bad file must produce
    // findings (i.e. the binary would exit non-zero on a workspace
    // containing it).
    let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let findings = dlht_audit::check_source("crates/x/src/planted.rs", bad, FileKind::Normal);
    assert!(
        findings.iter().any(|f| f.rule == Rule::UnsafeNeedsSafety),
        "planted violation was not caught: {findings:?}"
    );
}

#[test]
fn planted_acquire_release_pairing_violation_is_caught() {
    // A Release store whose field is never loaded with Acquire anywhere.
    let bad = "struct S { ready: AtomicBool }\n\
               impl S { fn publish(&self) { self.ready.store(true, Ordering::Release); } }\n\
               fn check(s: &S) -> bool { s.ready.load(Ordering::Relaxed) }\n";
    let findings = crossfile(&[("crates/x/src/planted.rs", FileKind::Normal, bad)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::AcquireReleasePairing
                && f.message.contains("no Acquire-side load")),
        "planted one-sided release was not caught: {findings:?}"
    );
}

#[test]
fn planted_guard_escape_violation_is_caught() {
    // A plain-pub raw-pointer return in crates/core with neither a &Guard
    // parameter nor an ESCAPE: justification.
    let bad = "impl T { pub fn leak(&self) -> *mut u8 { self.p } }\n";
    let findings = crossfile(&[("crates/core/src/planted.rs", FileKind::Normal, bad)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::GuardEscape && f.message.contains("`leak`")),
        "planted guard escape was not caught: {findings:?}"
    );
}

#[test]
fn planted_no_panic_hot_path_violation_is_caught() {
    // A HOT-tagged function that unwraps and does bare indexing.
    let bad = "// HOT: planted.\n\
               fn decode(buf: &[u8]) -> u8 {\n\
                   let first = buf.first().unwrap();\n\
                   buf[1].wrapping_add(*first)\n\
               }\n";
    let findings = crossfile(&[("crates/x/src/planted.rs", FileKind::Normal, bad)]);
    let hot: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::NoPanicHotPath)
        .collect();
    assert!(
        hot.iter().any(|f| f.message.contains("`.unwrap()`"))
            && hot
                .iter()
                .any(|f| f.message.contains("bare slice indexing")),
        "planted hot-path panics were not caught: {findings:?}"
    );
}
