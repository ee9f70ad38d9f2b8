//! The workspace's JSON: one string escaper, one number writer and one
//! reader, shared by every hand-emitted document (Chrome traces, perf-gate
//! baselines, counter profiles). Std-only by design: the workspace vendors
//! no serde.
//!
//! [`parse`] reads every kind of JSON value into a [`Value`] and returns a
//! human-readable error, never a panic, for malformed input. Like the
//! output of [`string`], a string it accepts holds no raw control byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON string literal, quoted, with `"`, `\` and every control
/// character escaped.
pub fn string(s: &str) -> String {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `x` as a JSON number in Rust's shortest round-trip form;
/// `null` for infinities and NaN, which JSON cannot represent.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One parsed JSON value. Objects keep their members in a `BTreeMap`, so
/// iteration is in key order whatever order the document used.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `{ ... }`; a repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// A string, unescaped.
    String(String),
    /// Any number, as `f64`.
    Number(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The members of an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// A number that is a non-negative integer no larger than 2^53, the
    /// range `f64` holds exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parse one JSON document; `Err` names what is wrong and at which byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Recursive-descent reader over the document's bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.keyword("true", Value::Bool(true)),
            b'f' => self.keyword("false", Value::Bool(false)),
            b'n' => self.keyword("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected character {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("invalid escape \\{}", other as char)),
                    }
                }
                b if b < 0x20 => {
                    return Err(format!("raw control byte in string at byte {}", self.pos - 1))
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid; copy it through byte-accurately.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn number_writes_finite_values_and_null() {
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn escaped_strings_parse_back() {
        let text = "tab\there \\ \"quoted\" \u{1} line\nbreak é";
        assert_eq!(parse(&string(text)), Ok(Value::String(text.to_string())));
    }

    #[test]
    fn parses_every_kind_of_value() {
        let doc = parse(r#"{ "a": [1, -2.5e3, true, false, null], "b": {}, "c": "x" }"#).unwrap();
        let obj = doc.as_object().unwrap();
        let expected = Value::Array(vec![
            Value::Number(1.0),
            Value::Number(-2500.0),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ]);
        assert_eq!(obj["a"], expected);
        assert_eq!(obj["b"], Value::Object(BTreeMap::new()));
        assert_eq!(obj["c"].as_str(), Some("x"));
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(0.5).as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in
            ["", "{ not json", "[1, 2", "{\"a\" 1}", "\"open", "nul", "1 2", "{\"a\": 1,}", "-"]
        {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        let err = parse("\"line\nbreak\"").unwrap_err();
        assert!(err.contains("raw control byte"), "{err}");
    }
}
