//! A minimal hand-rolled JSON writer and parser.
//!
//! The workspace has no serialization dependency (it builds offline),
//! so the serving report serializes itself through this small builder. It
//! supports exactly what `FleetReport` needs: objects, arrays, strings with
//! escaping, integers, and finite floats. The matching [`parse`] half
//! exists for the live front-end (`spatten-frontd`), whose request bodies
//! arrive as small JSON objects; it accepts the full JSON grammar minus
//! `\u` surrogate pairs, which nothing in the serving path emits, and
//! nesting deeper than [`MAX_DEPTH`].

use std::fmt::Write;

/// Builds one JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// An empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write!(self.buf, "{}:", quote(name)).expect("string write");
    }

    /// Adds a string field.
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(&quote(value));
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        write!(self.buf, "{value}").expect("string write");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a float field (non-finite values serialize as `null`).
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        self.key(name);
        if value.is_finite() {
            write!(self.buf, "{value}").expect("string write");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a pre-serialized JSON value (object, array, ...).
    pub fn raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Finishes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serializes a sequence of pre-serialized values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// JSON string quoting with the mandatory escapes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as a double, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` on a non-object or a missing
    /// key. Duplicate keys resolve to the last occurrence, matching
    /// every mainstream parser.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole
    /// number that fits (the writer only emits integers in this range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a bound a small hostile
/// body (20 KB of `[`) overflows the calling thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
/// Errors are position-stamped human-readable strings — the front-end
/// echoes them verbatim into 400 responses.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, pos))
    }
}

/// Parses the value at `pos`, which sits `depth` arrays or objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    JsonValue::Str(k) => k,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("surrogate \\u escape at byte {pos}"))?,
                        );
                    }
                    c => return Err(format!("bad escape '\\{}'", c as char)),
                }
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a scalar boundary of the input
                // (a &str, so valid UTF-8 by construction).
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("input was a str"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(JsonValue::Num(x)),
        _ => Err(format!("bad number '{text}' at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_objects() {
        let inner = JsonObject::new().u64("a", 1).f64("b", 0.5).build();
        let outer = JsonObject::new()
            .str("name", "x\"y")
            .raw("inner", &inner)
            .raw("list", &array(["1".into(), "2".into()]))
            .build();
        assert_eq!(
            outer,
            r#"{"name":"x\"y","inner":{"a":1,"b":0.5},"list":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let o = JsonObject::new().f64("x", f64::NAN).build();
        assert_eq!(o, r#"{"x":null}"#);
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(quote("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn parses_what_the_writer_emits() {
        let doc = JsonObject::new()
            .str("name", "x\"y\n")
            .u64("count", 42)
            .bool("ok", true)
            .f64("ratio", 0.25)
            .raw("nan", &JsonObject::new().f64("x", f64::NAN).build())
            .raw("list", &array(["1".into(), "\"two\"".into()]))
            .build();
        let v = parse(&doc).expect("roundtrip");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("x\"y\n"));
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("ratio").and_then(JsonValue::as_f64), Some(0.25));
        assert_eq!(
            v.get("nan").and_then(|o| o.get("x")),
            Some(&JsonValue::Null)
        );
        assert_eq!(
            v.get("list"),
            Some(&JsonValue::Array(vec![
                JsonValue::Num(1.0),
                JsonValue::Str("two".into())
            ]))
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let deep = "[".repeat(20_000);
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1}x",
            "\"unterminated",
            "{1: 2}",
            "nul",
            "1e999",
            // `u32::from_str_radix` alone would read this as `A`.
            "\"\\u+041\"",
            // Deeper than `MAX_DEPTH`; unbounded recursion would
            // overflow the test thread's stack instead of failing.
            deep.as_str(),
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_unicode() {
        let v = parse(" { \"k\" : [ null , true , \"\\u0041\\t\u{e9}\" ] } ").unwrap();
        assert_eq!(
            v.get("k"),
            Some(&JsonValue::Array(vec![
                JsonValue::Null,
                JsonValue::Bool(true),
                JsonValue::Str("A\t\u{e9}".into())
            ]))
        );
        // Duplicate keys: last one wins.
        assert_eq!(
            parse("{\"a\":1,\"a\":2}").unwrap().get("a"),
            Some(&JsonValue::Num(2.0))
        );
        // Negative and exponent numbers parse as doubles.
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
