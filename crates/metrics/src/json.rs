//! Minimal hand-rolled JSON reader/writer.
//!
//! The workspace has no JSON crate (vendored-only policy), but the
//! metrics layer needs to *emit* run reports and *parse* checked-in
//! bench baselines. This module covers exactly that: objects (with
//! **preserved key order**, so reports serialize with a stable field
//! layout), arrays, strings, booleans, null, and finite numbers.
//!
//! Numbers are written via [`fmt_f64`], which never produces `NaN`,
//! `Infinity`, or exponent notation — non-finite inputs become `null`
//! (callers treat that as "measurement unavailable").

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64; integers round-trip up to 2^53).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object (first match); `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value as u64, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace), preserving object order.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&fmt_f64(*n)),
            JsonValue::String(s) => write_json_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Format a finite f64 without exponent notation; non-finite values
/// become `null`. Integral values print without a fractional part.
#[must_use]
pub fn fmt_f64(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        // Integral: print as integer so u64 counters round-trip textually.
        let mut s = String::new();
        let _ = write!(s, "{}", n as i64);
        return s;
    }
    // Shortest representation Rust gives is already round-trip exact; it
    // only uses exponent notation for extreme magnitudes, which metric
    // values (ms, ratios, counts) never reach — but guard anyway.
    let s = format!("{n}");
    if s.contains('e') || s.contains('E') {
        format!("{n:.6}")
    } else {
        s
    }
}

/// Append `s` as a JSON string literal (quotes + escapes) to `out`.
pub fn write_json_string(s: &str, out: &mut String) {
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

/// A JSON parse failure, with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a few kilobytes of `[`
/// overflow the stack; every document the workspace writes stays under
/// ten levels.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Malformed input, or arrays/objects nested more than 128 levels deep.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte; always on a char boundary,
    /// since every token and escape the parser steps over is ASCII.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An array or object, one level deeper.
    fn nested(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates map to the replacement character;
                            // metric reports never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of unescaped text up to the next
                    // `"` or `\`. Both delimiters are ASCII, so the cut
                    // falls on a char boundary.
                    let rest = &self.src[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_object_preserving_order() {
        let src = r#"{"zeta":1,"alpha":[true,null,-2.5],"nested":{"k":"v"}}"#;
        let value = parse(src).unwrap();
        assert_eq!(value.to_compact(), src);
        assert_eq!(value.get("zeta").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            value
                .get("nested")
                .and_then(|n| n.get("k"))
                .and_then(JsonValue::as_str),
            Some("v")
        );
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let src = " { \"a\\n\\\"b\" : [ 1 , 2 ] , \"u\" : \"\\u0041\" } ";
        let value = parse(src).unwrap();
        assert_eq!(
            value
                .get("a\n\"b")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(value.get("u").and_then(JsonValue::as_str), Some("A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "01x", "\"abc", "{}extra"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH - 1).replacen(":}", ":1}", 1)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&nest("[{\"a\":", "}]", MAX_DEPTH)).is_err());
    }

    #[test]
    fn fmt_f64_never_emits_nan_or_exponent() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-7.0), "-7");
        assert_eq!(fmt_f64(0.125), "0.125");
        assert!(!fmt_f64(1e-9).contains('e'));
        assert!(!fmt_f64(1.5e12).contains('e'));
    }

    #[test]
    fn numbers_round_trip_through_as_u64() {
        let value = parse("{\"n\":18014398509481984}").unwrap(); // 2^54 — too big
        assert_eq!(value.get("n").and_then(JsonValue::as_u64), None);
        let value = parse("{\"n\":9007199254740992,\"m\":360}").unwrap();
        assert_eq!(value.get("m").and_then(JsonValue::as_u64), Some(360));
    }

    #[test]
    fn multibyte_scalars_round_trip_next_to_escapes() {
        // 2-, 3- and 4-byte scalars next to escapes, at both ends of a
        // string and right before the end of the buffer.
        for s in [
            "é",
            "€",
            "😀",
            "é\n€\\😀\"",
            "\t😀",
            "a\u{1}é",
            "😀€é",
            "\"😀",
        ] {
            let mut out = String::new();
            write_json_string(s, &mut out);
            assert_eq!(parse(&out).unwrap().as_str(), Some(s), "{out}");
            let doc = format!("{{{out}:[{out},\"x\"]}}");
            assert_eq!(parse(&doc).unwrap().to_compact(), doc);
        }
        assert_eq!(parse("\"\\u00e9😀\"").unwrap().as_str(), Some("é😀"));
        for bad in ["\"é", "\"a😀", "\"😀\\", "\"\\u00é\"", "\"\\u0\""] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut out = String::new();
        write_json_string("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));
    }
}
