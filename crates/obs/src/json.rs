//! A minimal JSON parser: used to validate exported traces and to
//! parse admin-endpoint responses (`/vars`, flight-recorder lines)
//! without external dependencies. Supports the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null).
//! Beside it, [`escape`]: the one string escaper every JSON writer in
//! the workspace uses.
//!
//! All failures are reported as [`ObsError::Json`] carrying the byte
//! offset where parsing stopped.

use crate::ObsError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for embedding between the quotes of a JSON string
/// literal; [`parse`] reads the result back as `s`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A JSON syntax error at a byte offset.
fn err(offset: usize, detail: impl Into<String>) -> ObsError {
    ObsError::Json {
        offset,
        detail: detail.into(),
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keyed in sorted order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up `key` in an object (`None` for other kinds).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
///
/// # Errors
///
/// [`ObsError::Json`] with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, ObsError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), ObsError> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(
            *pos,
            format!(
                "expected {:?}, found {:?}",
                ch as char,
                bytes.get(*pos).map(|&b| b as char)
            ),
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ObsError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(bytes, pos),
        other => Err(err(
            *pos,
            format!("unexpected {:?}", other.map(|&b| b as char)),
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, ObsError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, ObsError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| err(start, e.to_string()))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ObsError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex).map_err(|e| err(*pos, e.to_string()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, format!("bad \\u escape {hex:?}")))?;
                        // Surrogate pairs are not needed by our own
                        // exporter; map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(err(
                            *pos,
                            format!("bad escape {:?}", other.map(|&b| b as char)),
                        ));
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 is passed through unchanged.
                let len = match b {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| err(*pos, "truncated UTF-8 sequence"))?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| err(*pos, e.to_string()))?);
                *pos += len;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, ObsError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, ObsError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e2 ").unwrap(), Value::Num(-150.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            Value::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
    }

    /// `escape` is per-character, so walking every Unicode scalar
    /// value (controls, quote, backslash, BMP, non-BMP) through
    /// `parse` covers every string; the literal cases are text that
    /// itself looks like escapes.
    #[test]
    fn escape_round_trips_every_char_through_parse() {
        let all: Vec<char> = (0..=char::MAX as u32).filter_map(char::from_u32).collect();
        let mut cases: Vec<String> = all.chunks(4096).map(|c| c.iter().collect()).collect();
        cases.extend(
            ["", "\\u0041", "\\\"", "\\\\n\\", "\"\"\\\"", "\u{1F511}\\"].map(String::from),
        );
        for s in &cases {
            let parsed = parse(&format!("\"{}\"", escape(s))).unwrap();
            assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }
}
