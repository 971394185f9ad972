//! The diagnostics document: a deterministic writer (fixed key order and
//! layout, so `--format json` output and `audit.baseline.json` stay
//! byte-stable) plus readers built on the workspace's one JSON codec,
//! [`dlht_obs::json`]. The repository builds fully offline, so `serde` is not
//! an option.
//!
//! # Diagnostics schema (`dlht-audit/v2`)
//!
//! ```json
//! {
//!   "schema": "dlht-audit/v2",
//!   "findings": [
//!     { "file": "crates/core/src/x.rs", "line": 3,
//!       "rule": "unsafe-needs-safety", "severity": "error",
//!       "baselined": false, "message": "..." }
//!   ]
//! }
//! ```
//!
//! `baselined` marks findings suppressed by `audit.baseline.json`; they are
//! reported but do not gate (see [`crate::baseline`]).

use crate::rules::{Finding, Rule};
use dlht_obs::json::Json;
use std::fmt::Write as _;

/// The diagnostics schema identifier.
pub const SCHEMA: &str = "dlht-audit/v2";

/// Escape a string for a JSON string literal.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize findings (with their baselined flags) as a `dlht-audit/v2`
/// document. Deterministic: key order and formatting are fixed.
pub fn findings_to_json(findings: &[(&Finding, bool)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": ");
    escape(SCHEMA, &mut out);
    out.push_str(",\n  \"findings\": [");
    for (i, (f, baselined)) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { \"file\": ");
        escape(&f.file, &mut out);
        let _ = write!(out, ", \"line\": {}, \"rule\": ", f.line);
        escape(f.rule.name(), &mut out);
        out.push_str(", \"severity\": ");
        escape(f.severity.name(), &mut out);
        let _ = write!(out, ", \"baselined\": {baselined}, \"message\": ");
        escape(&f.message, &mut out);
        out.push_str(" }");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parse a `dlht-audit/v2` document back into findings + baselined flags
/// (the golden-file round-trip and any downstream tooling).
pub fn findings_from_json(text: &str) -> Result<Vec<(Finding, bool)>, String> {
    let doc = parse_schema(text, SCHEMA)?;
    let arr = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing \"findings\" array")?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let field = |k: &str| {
            item.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("finding missing {k:?}"))
        };
        let rule_name = field("rule")?;
        let rule =
            Rule::from_name(rule_name).ok_or_else(|| format!("unknown rule {rule_name:?}"))?;
        let line = item
            .get("line")
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("missing line")?;
        let f = Finding::new(field("file")?, line, rule, field("message")?);
        let severity = field("severity")?;
        if severity != f.severity.name() {
            return Err(format!(
                "severity {severity:?} does not match rule {rule_name:?}"
            ));
        }
        let baselined = item
            .get("baselined")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        out.push((f, baselined));
    }
    Ok(out)
}

/// Parse `text` and check that its `"schema"` member is `schema`.
pub(crate) fn parse_schema(text: &str, schema: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let found = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if found != schema {
        return Err(format!(
            "unsupported schema {found:?} (expected {schema:?})"
        ));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    #[test]
    fn findings_round_trip() {
        let a = Finding::new(
            "crates/core/src/x.rs",
            10,
            Rule::GuardEscape,
            "raw ptr escape",
        );
        let b = Finding::new(
            "crates/net/src/wire.rs",
            3,
            Rule::AcquireReleasePairing,
            "one-sided \"store\"\nsecond line",
        );
        assert_eq!(b.severity, Severity::Warning);
        let json = findings_to_json(&[(&a, false), (&b, true)]);
        let back = findings_from_json(&json).unwrap();
        assert_eq!(back, vec![(a, false), (b, true)]);
    }

    #[test]
    fn empty_findings_document() {
        let json = findings_to_json(&[]);
        assert!(json.contains("\"schema\": \"dlht-audit/v2\""));
        assert_eq!(findings_from_json(&json).unwrap(), vec![]);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bad = r#"{"schema": "dlht-audit/v1", "findings": []}"#;
        assert!(findings_from_json(bad).is_err());
    }
}
