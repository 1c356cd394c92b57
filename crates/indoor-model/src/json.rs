//! A small self-contained JSON reader/writer used by venue persistence.
//!
//! The workspace builds without registry access, so serde/serde_json are
//! unavailable; venue files only need numbers, strings, arrays, objects
//! and null, which this module covers. Numbers are written with Rust's
//! shortest round-trip `f64` formatting, so saved venues reload
//! bit-identically.

use std::fmt::Write as _;

/// A JSON syntax error: the byte offset it was detected at plus a short
/// description. Carried (not stringified) so loaders can attach the
/// position to their own error types — see
/// `indoor_model::serialize::LoadError::Json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u32(&self) -> Option<u32> {
        self.as_f64().and_then(|n| {
            if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
                Some(n as u32)
            } else {
                None
            }
        })
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(|n| {
            if n.fract() == 0.0 && n >= 0.0 {
                Some(n as usize)
            } else {
                None
            }
        })
    }

    pub fn as_i32(&self) -> Option<i32> {
        self.as_f64().and_then(|n| {
            if n.fract() == 0.0 && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&n) {
                Some(n as i32)
            } else {
                None
            }
        })
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Short description of the value's shape, for "expected X, found Y"
    /// error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::new(pos, "trailing garbage"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::new(*pos, format!("expected {:?}", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(ParseError::new(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError::new(*pos, "invalid literal"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&b[start..*pos]).map_err(|e| ParseError::new(start, e.to_string()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| ParseError::new(start, format!("invalid number {text:?}")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(ParseError::new(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::new(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|e| ParseError::new(*pos, e.to_string()))?,
                            16,
                        )
                        .map_err(|e| ParseError::new(*pos, e.to_string()))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| ParseError::new(*pos, "invalid \\u escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` as one slice.
                // Both are ASCII, so the run ends on a char boundary of
                // the (already valid UTF-8) input.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|e| ParseError::new(*pos, e.to_string()))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ParseError::new(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(ParseError::new(*pos, "expected ',' or '}'")),
        }
    }
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an `f64` with shortest round-trip formatting. JSON has no
/// non-finite numbers; like serde_json, non-finite values are written as
/// `null` (they reload as an absent/None field rather than corrupting
/// the document).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let j = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("d"), Some(&Json::Null));
        assert_eq!(j.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn f64_round_trips_through_text() {
        for v in [0.0, 1.5, -2.25, 1.0 / 3.0, 1e-300, 123456.789012345] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} via {s}");
        }
    }

    #[test]
    fn non_finite_f64_written_as_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut s = String::new();
            write_f64(&mut s, v);
            assert_eq!(s, "null");
            assert_eq!(parse(&s).unwrap(), Json::Null);
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}é");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}é"));
        // A 4-byte scalar, and multi-byte runs ending right before `\"`
        // and before a `\u` escape.
        for text in ["🦀", "ab🦀é\"x", "é🦀\u{1}", "\u{1}🦀"] {
            let mut s = String::new();
            write_str(&mut s, text);
            assert_eq!(parse(&s).unwrap().as_str(), Some(text), "{s}");
        }
        assert_eq!(parse(r#""é\u00e9🦀""#).unwrap().as_str(), Some("éé🦀"));
        // Malformed documents keep their error offsets.
        assert_eq!(parse("\"é🦀").unwrap_err().offset, 7);
        assert_eq!(parse(r#""é\q""#).unwrap_err().offset, 4);
    }
}
