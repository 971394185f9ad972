//! Minimal dependency-free JSON: just enough to emit the schema-versioned
//! `BENCH_*.json` lines the scenario harness writes and to parse them back in
//! `bench_report`. Not a general-purpose library — unsigned integers keep
//! full `u64` precision (so seeds and op counts round-trip exactly), other
//! numbers are `f64`, objects preserve insertion order, and parse errors
//! report byte offsets.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact at full `u64` range (the recorded
    /// seed must reproduce the run bit-for-bit). The parser produces this
    /// variant for any digits-only number that fits.
    UInt(u64),
    /// Any other number; integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (insertion order on emit).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Member lookup on an object (first match; `None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number (exact integers above 2^53 lose
    /// precision in the cast).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialize to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (must consume the whole input bar whitespace).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                at: pos,
                what: "trailing characters after the document",
            });
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        // Exact integer: render without a fractional part.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &[u8], what: &'static str) -> Result<(), ParseError> {
    if bytes.len() - *pos >= lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError { at: *pos, what })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            what: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, b"null", "expected null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, b"true", "expected true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, b"false", "expected false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b":", "expected ':' after object key")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            at: *pos,
            what: "expected '\"'",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    what: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            at: *pos,
                            what: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            at: *pos,
                            what: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            what: "invalid \\u escape",
                        })?;
                        // Surrogate pairs are not needed for our own output;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
                        at: start,
                        what: "invalid UTF-8",
                    })?,
                );
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        at: start,
        what: "invalid number",
    })?;
    // Digits-only numbers parse at full u64 precision (exact seeds/counts);
    // everything else goes through f64.
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
        at: start,
        what: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let j = Json::obj([
            ("type".to_string(), Json::from("point")),
            ("mops".to_string(), Json::from(12.5)),
            ("ops".to_string(), Json::from(1_000_000u64)),
            ("ok".to_string(), Json::from(true)),
            ("tags".to_string(), Json::Arr(vec![Json::from("a")])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"type":"point","mops":12.5,"ops":1000000,"ok":true,"tags":["a"]}"#
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(3.0f64).render(), "3");
        assert_eq!(Json::from(3.25f64).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn u64_values_round_trip_exactly_above_2_53() {
        let big = (1u64 << 53) + 1; // not representable in f64
        let j = Json::from(big);
        assert_eq!(j.render(), "9007199254740993");
        assert_eq!(Json::parse(&j.render()).unwrap().as_u64(), Some(big));
        let max = Json::from(u64::MAX);
        assert_eq!(Json::parse(&max.render()).unwrap().as_u64(), Some(u64::MAX));
        // Digits-only input comes back as the exact variant.
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Num(-42.0));
    }

    #[test]
    fn parse_round_trips_emitted_records() {
        let line = r#"{"type":"point","series":"DLHT \"x\"","axes":{"threads":4},"mops":153.2,"lat":{"p99_ns":640},"neg":-1.5e3,"null":null}"#;
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("point"));
        assert_eq!(
            j.get("axes")
                .and_then(|a| a.get("threads"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(j.get("mops").and_then(Json::as_f64), Some(153.2));
        assert_eq!(j.get("neg").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(j.get("null"), Some(&Json::Null));
        // And the render→parse cycle is stable.
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn value_parser_handles_the_subset() {
        let v = Json::parse(r#"{"a": [1, 2], "b": "x\n\"y\"", "c": true, "d": null}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("  x").unwrap_err();
        assert_eq!(err.at, 2);
        assert!(err.to_string().contains("byte 2"));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ unicode: ünïcödé \u{1}";
        let j = Json::from(s);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }
}
