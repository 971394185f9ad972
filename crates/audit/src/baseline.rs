//! The suppression baseline: `audit.baseline.json` at the workspace root.
//!
//! A baseline entry matches a finding by **(file, rule, message)** — line
//! numbers are deliberately ignored so unrelated edits that shift a finding
//! up or down do not invalidate the baseline. Matching is set-semantic: one
//! entry suppresses every identical (file, rule, message) triple.
//!
//! Diff-mode exit semantics (see `main.rs`): baselined findings are
//! *reported* but do not gate; only findings absent from the baseline fail
//! the run. `--update-baseline` rewrites the file from the current findings;
//! an entry is removed by fixing the finding and re-running with
//! `--update-baseline` (the workflow in `docs/CORRECTNESS.md`).
//!
//! # Schema (`dlht-audit-baseline/v1`)
//!
//! ```json
//! {
//!   "schema": "dlht-audit-baseline/v1",
//!   "entries": [
//!     { "file": "crates/x/src/y.rs", "rule": "guard-escape", "message": "..." }
//!   ]
//! }
//! ```

use crate::json;
use crate::rules::Finding;
use dlht_obs::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// The baseline schema identifier.
pub const SCHEMA: &str = "dlht-audit-baseline/v1";

/// The file name looked up at the workspace root by default.
pub const DEFAULT_FILE: &str = "audit.baseline.json";

/// One suppressed finding shape (line-number agnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub file: String,
    /// Rule name kept as a string so a baseline written by a newer analyzer
    /// (with rules this build does not know) still loads.
    pub rule: String,
    pub message: String,
}

/// A loaded (or freshly built) suppression set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// An empty baseline: nothing is suppressed.
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Parse a baseline document.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = json::parse_schema(text, SCHEMA)?;
        let arr = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("missing \"entries\" array")?;
        let mut entries = Vec::with_capacity(arr.len());
        for item in arr {
            let field = |k: &str| {
                item.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("entry missing {k:?}"))
            };
            entries.push(Entry {
                file: field("file")?,
                rule: field("rule")?,
                message: field("message")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Load from `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::from_json(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::empty()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Build a baseline that suppresses exactly `findings`, deduplicated.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: Vec<Entry> = Vec::new();
        for f in findings {
            let e = Entry {
                file: f.file.clone(),
                rule: f.rule.name().to_string(),
                message: f.message.clone(),
            };
            if !entries.contains(&e) {
                entries.push(e);
            }
        }
        Baseline { entries }
    }

    /// Is this finding suppressed?
    pub fn matches(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|e| e.file == f.file && e.rule == f.rule.name() && e.message == f.message)
    }

    /// Split findings into `(new, baselined)`, preserving order.
    pub fn partition<'a>(&self, findings: &'a [Finding]) -> (Vec<&'a Finding>, Vec<&'a Finding>) {
        findings.iter().partition(|f| !self.matches(f))
    }

    /// Serialize as a `dlht-audit-baseline/v1` document (deterministic).
    pub fn to_json(&self) -> String {
        fn esc(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        esc(SCHEMA, &mut out);
        out.push_str(",\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"file\": ");
            esc(&e.file, &mut out);
            out.push_str(", \"rule\": ");
            esc(&e.rule, &mut out);
            out.push_str(", \"message\": ");
            esc(&e.message, &mut out);
            out.push_str(" }");
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(file: &str, line: usize, msg: &str) -> Finding {
        Finding::new(file, line, Rule::GuardEscape, msg)
    }

    #[test]
    fn baseline_round_trips_and_ignores_lines() {
        let f1 = finding("a.rs", 10, "escape one");
        let f2 = finding("b.rs", 20, "escape two");
        let b = Baseline::from_findings(&[f1.clone(), f2.clone()]);
        let back = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
        // The same finding on a different line still matches.
        assert!(back.matches(&finding("a.rs", 999, "escape one")));
        // A different message does not.
        assert!(!back.matches(&finding("a.rs", 10, "escape three")));
    }

    #[test]
    fn partition_separates_new_from_baselined() {
        let old = finding("a.rs", 1, "known");
        let b = Baseline::from_findings(std::slice::from_ref(&old));
        let new = finding("a.rs", 2, "fresh");
        let all = vec![old.clone(), new.clone()];
        let (fresh, known) = b.partition(&all);
        assert_eq!(fresh, vec![&new]);
        assert_eq!(known, vec![&old]);
    }

    #[test]
    fn duplicate_findings_dedupe_into_one_entry() {
        let f = finding("a.rs", 1, "same");
        let b = Baseline::from_findings(&[f.clone(), finding("a.rs", 9, "same")]);
        assert_eq!(b.entries.len(), 1);
    }

    #[test]
    fn missing_file_loads_empty() {
        let b = Baseline::load(Path::new("/nonexistent/audit.baseline.json")).unwrap();
        assert!(b.entries.is_empty());
    }

    #[test]
    fn unknown_rule_names_still_load() {
        // Forward compat: a baseline from a newer analyzer must not brick
        // older builds.
        let text = r#"{"schema": "dlht-audit-baseline/v1", "entries": [
            { "file": "x.rs", "rule": "future-rule", "message": "m" }
        ]}"#;
        let b = Baseline::from_json(text).unwrap();
        assert_eq!(b.entries[0].rule, "future-rule");
        assert!(!b.matches(&finding("x.rs", 1, "m")), "different rule");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(Baseline::from_json(r#"{"schema": "nope", "entries": []}"#).is_err());
    }
}
