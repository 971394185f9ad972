//! # dlht-audit
//!
//! A source-level static analyzer that machine-checks the repository's
//! `unsafe`/atomics discipline (see `docs/CORRECTNESS.md`). It has no
//! dependencies.
//!
//! **Per-file rules** (pass over each file independently):
//!
//! * every `unsafe` site carries a `// SAFETY:` justification,
//! * every atomic operation names its `Ordering` at the call site,
//! * `SeqCst` only appears with an `// ORDERING:` rationale,
//! * `transmute` / `static mut` / `#[allow]` only with an `// AUDIT:` tag,
//! * every crate root carries the agreed lint header.
//!
//! **Cross-file rules** (two-pass: [`inventory`] then [`crossfile`]):
//!
//! * every atomic field with a `Release`-side store has an `Acquire`-side
//!   load somewhere in the workspace (and the converse),
//! * a plain-`pub` fn in `core`/`epoch` returning `*const`/`*mut` takes a
//!   `&Guard`-typed parameter or carries `// ESCAPE:`,
//! * functions tagged `// HOT:` contain no panics, `unwrap`/`expect`, or
//!   bare slice indexing.
//!
//! The pipeline is [`lexer`] (sanitized lines) → [`tokens`] (token stream
//! with delimiter pairing) → [`parse`] (items, signatures, `#[cfg(test)]`
//! scoping) → rules. No `syn`: the repository builds fully offline.
//!
//! There is one gate: any finding fails. Run it with
//! `cargo run -p dlht-audit -- .` from the workspace root; `main.rs` prints
//! one `file:line: [rule] message` line per finding and exits 1 if there is
//! any.

#![forbid(unsafe_code)]

pub mod crossfile;
pub mod inventory;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod tokens;

pub use inventory::AnalyzedFile;
pub use rules::{check_source, FileKind, Finding, Rule};

use std::path::{Path, PathBuf};

/// Directories never descended into while walking a workspace.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "benchmarks"];

/// Classify `path` (relative to the workspace root) for rule strictness.
pub fn classify(path: &Path) -> FileKind {
    let s = path.to_string_lossy().replace('\\', "/");
    if s.ends_with("src/lib.rs") {
        FileKind::CrateRoot
    } else if s
        .split('/')
        .any(|c| c == "tests" || c == "examples" || c == "benches")
    {
        FileKind::Test
    } else {
        FileKind::Normal
    }
}

/// Recursively collect every `.rs` file under `root`, skipping `SKIP_DIRS`.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Pass 1: lex, tokenize, and parse every `.rs` file under `root`. Paths are
/// reported relative to `root`, `/`-separated.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<AnalyzedFile>> {
    let mut files = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = std::fs::read_to_string(&path)?;
        let kind = classify(&rel);
        files.push(AnalyzedFile {
            path: rel.to_string_lossy().replace('\\', "/"),
            kind,
            parsed: parse::parse_source(&source, kind == FileKind::Test),
        });
    }
    Ok(files)
}

/// Audit the workspace rooted at `root` with all eight rules (per-file and
/// cross-file). Returns every finding, sorted by file and line. Paths in
/// findings are reported relative to `root`.
pub fn audit_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = analyze_workspace(root)?;
    let mut findings = Vec::new();
    for f in &files {
        findings.extend(rules::check_parsed(&f.path, &f.parsed, f.kind));
    }
    let inv = inventory::build(&files);
    findings.extend(crossfile::check_crossfile(&files, &inv));
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify(Path::new("crates/core/src/lib.rs")),
            FileKind::CrateRoot
        );
        assert_eq!(classify(Path::new("src/lib.rs")), FileKind::CrateRoot);
        assert_eq!(
            classify(Path::new("crates/core/src/table.rs")),
            FileKind::Normal
        );
        assert_eq!(classify(Path::new("tests/zero_alloc.rs")), FileKind::Test);
        assert_eq!(
            classify(Path::new("crates/epoch/tests/drop_count.rs")),
            FileKind::Test
        );
        assert_eq!(classify(Path::new("examples/sharded.rs")), FileKind::Test);
    }
}
