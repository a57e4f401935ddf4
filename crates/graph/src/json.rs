//! The one JSON codec: every serve response and bench report is a
//! [`Value`], written in one of two layouts and read by one strict reader.
//!
//! The compact layout ([`Value::write_compact`], a serve response) is one
//! line without whitespace; the report layout (`Display`) is indented.
//! Both write integers exactly, floats as the shortest text that reads
//! back as the same `f64`, non-finite floats as `null`, and strings
//! escaped one way. The reader ([`Value::parse`]) limits nesting depth, so
//! no input overflows the stack, and fails with a typed [`ParseError`].

use std::fmt;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`; also what a non-finite float is written as.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent, exact for every `u64`/`i64`.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in order.
    Object(Vec<(String, Value)>),
}

/// Builds a [`Value::Object`](crate::json::Value::Object) from `"key": value`
/// pairs, converting each value with `Value::from`.
///
/// ```
/// let point = oca_graph::object! { "threads": 2usize, "halt": "coverage" };
/// assert_eq!(point.get("threads").and_then(|v| v.as_u64()), Some(2));
/// ```
#[macro_export]
macro_rules! object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $(($key.to_string(), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    /// The value under `key` if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// Panics if `self` is not an object (a building bug).
    pub fn push(&mut self, key: &str, value: impl Into<Value>) {
        let Value::Object(entries) = self else {
            panic!("push({key:?}) on a non-object");
        };
        entries.push((key.to_string(), value.into()));
    }

    /// The number as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The number as `u64` if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value; only whitespace may follow it.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut parser = Parser { text, at: 0 };
        let value = parser.value(0)?;
        match parser.skip_ws() {
            None => Ok(value),
            Some(_) => Err(parser.fail(ParseErrorKind::Invalid)),
        }
    }

    /// Appends `self` to `out` in the compact layout: one line, no
    /// whitespace, `,` and `:` as the only separators.
    pub fn write_compact(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.render(out, None);
    }

    /// Writes `self` in the compact layout (`indent` is `None`) or the
    /// report layout at `indent`: there the top level, and any container
    /// holding a non-empty container, puts each child on its own line, so
    /// a report reads one key per line and its tables one record per line.
    fn render(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        let (brackets, len) = match self {
            Value::Array(items) => ("[]", items.len()),
            Value::Object(entries) => ("{}", entries.len()),
            Value::Int(i) => return write!(out, "{i}"),
            // `{:?}` is the shortest text that reads back as the same f64,
            // and it always has a `.` or an exponent.
            Value::Float(f) if f.is_finite() => return write!(out, "{f:?}"),
            Value::Bool(b) => return write!(out, "{b}"),
            Value::Str(s) => return write_string(out, s),
            Value::Float(_) | Value::Null => return out.write_str("null"),
        };
        let child = |i: usize| match self {
            Value::Object(entries) => (Some(entries[i].0.as_str()), &entries[i].1),
            Value::Array(items) => (None, &items[i]),
            _ => unreachable!("scalars returned above"),
        };
        let nested = |i| match child(i).1 {
            Value::Array(items) => !items.is_empty(),
            Value::Object(entries) => !entries.is_empty(),
            _ => false,
        };
        let multiline = indent.filter(|&w| w == 0 || (0..len).any(nested));
        let (comma, colon) = if indent.is_some() {
            (", ", ": ")
        } else {
            (",", ":")
        };
        out.write_str(&brackets[..1])?;
        for i in 0..len {
            let separator = if i == 0 { "" } else { "," };
            match multiline {
                Some(w) => write!(out, "{separator}\n{:w$}", "", w = w + 2)?,
                None if i > 0 => out.write_str(comma)?,
                None => {}
            }
            let (key, value) = child(i);
            if let Some(key) = key {
                write_string(out, key)?;
                out.write_str(colon)?;
            }
            value.render(out, indent.map(|w| w + 2))?;
        }
        if let (Some(w), true) = (multiline, len > 0) {
            write!(out, "\n{:w$}", "")?;
        }
        out.write_str(&brackets[1..])
    }
}

/// Writes `s` as a JSON string literal: `"` and `\` escaped, `\n`, `\r`
/// and `\t` by name, any other control character as `\u00XX`.
fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Value {
    /// The report layout: indented JSON, no trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, Some(0))
    }
}

macro_rules! from {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self {
                $value
            }
        }
    )*};
}

// Integers stay exact; only a `u128` past `i128::MAX` (never a count or a
// duration) becomes the nearest float.
from! {
    bool => |b| Value::Bool(b),
    f64 => |f| Value::Float(f),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
    u32 => |i| Value::Int(i.into()),
    u64 => |i| Value::Int(i.into()),
    usize => |i| Value::Int(i as i128),
    u128 => |i| i128::try_from(i).map_or(Value::Float(i as f64), Value::Int),
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Why a text is not one JSON value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text ends inside a value.
    Truncated,
    /// A byte no JSON value can have there: a bad token, number, escape
    /// or control character, an unpaired surrogate, or anything but
    /// whitespace after the value.
    Invalid,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A typed parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the text where parsing stopped.
    pub offset: usize,
    /// What went wrong there.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {:?}", self.offset, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest. Reports nest four levels; the
/// limit bounds the recursive parser's stack use on any input.
pub const MAX_DEPTH: usize = 64;

/// The reader. `at` only ever advances over ASCII bytes or whole runs of
/// string content, so it always sits on a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            offset: self.at,
            kind,
        }
    }

    /// The error for the byte at `at`: truncation at the end of the text,
    /// an invalid byte anywhere else.
    fn unexpected(&self) -> ParseError {
        self.fail(match self.peek() {
            None => ParseErrorKind::Truncated,
            Some(_) => ParseErrorKind::Invalid,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    /// Consumes `byte`, or fails on whatever is there instead.
    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    /// Skips whitespace; returns the byte after it.
    fn skip_ws(&mut self) -> Option<u8> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.peek()
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.skip_ws() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.fail(ParseErrorKind::TooDeep)),
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => {
                let entry = |p: &mut Self| {
                    if p.skip_ws() != Some(b'"') {
                        return Err(p.unexpected());
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                };
                self.list(b'}', entry).map(Value::Object)
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            _ => Err(self.unexpected()),
        }
    }

    /// Consumes the literal `word`, which the next byte starts.
    fn word(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        for &byte in word.as_bytes() {
            self.expect(byte)?;
        }
        Ok(value)
    }

    /// Parses the comma-separated items of an array or object, from the
    /// opening bracket through `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.at += 1;
        let mut items = Vec::new();
        if self.skip_ws() == Some(close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    /// Parses a string literal from its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            if self.eat(b'"') {
                return Ok(out);
            }
            self.expect(b'\\')?;
            let escaped = self.peek().ok_or(self.unexpected())?;
            self.at += 1;
            out.push(match escaped {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.fail(ParseErrorKind::Invalid)),
            });
        }
    }

    /// The char of a `\uXXXX` escape (after the `u`), joining a surrogate
    /// pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.fail(ParseErrorKind::Invalid));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or(self.fail(ParseErrorKind::Invalid))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.text.get(self.at..self.at + 4);
        let code = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or(self.fail(ParseErrorKind::Invalid))?;
        self.at += 4;
        Ok(code)
    }

    /// Parses `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: a
    /// [`Value::Int`] without fraction or exponent when it fits, else a
    /// [`Value::Float`].
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut integral = true;
        if self.eat(b'.') {
            self.digits()?;
            integral = false;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
            integral = false;
        }
        let text = &self.text[start..self.at];
        match text.parse() {
            Ok(i) if integral => Ok(Value::Int(i)),
            _ => text
                .parse()
                .map(Value::Float)
                .map_err(|_| self.fail(ParseErrorKind::Invalid)),
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(value: &Value) -> String {
        let mut out = String::new();
        value.write_compact(&mut out);
        out
    }

    /// The compact layout is one line without whitespace; both layouts
    /// encode every scalar the same way and parse back to the same value.
    #[test]
    fn both_layouts_share_one_scalar_encoding() {
        let value = object! {
            "ok": true,
            "big": u64::MAX,
            "neg": Value::Int(i64::MIN.into()),
            "ratio": 0.1,
            "whole": 1000.0,
            "tiny": 1e-9,
            "text": "a \"quoted\" \\ line\n\u{1}\té",
            "members": vec![1u32, 2, 3],
            "empty": Vec::<u32>::new(),
            "records": vec![object! { "a": 1u32 }, object! {}],
        };
        let line = compact(&value);
        assert_eq!(
            line,
            "{\"ok\":true,\"big\":18446744073709551615,\"neg\":-9223372036854775808,\
             \"ratio\":0.1,\"whole\":1000.0,\"tiny\":1e-9,\
             \"text\":\"a \\\"quoted\\\" \\\\ line\\n\\u0001\\té\",\
             \"members\":[1,2,3],\"empty\":[],\"records\":[{\"a\":1},{}]}"
        );
        assert_eq!(Value::parse(&line), Ok(value.clone()));
        assert_eq!(Value::parse(&value.to_string()), Ok(value));
        for f in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let value = object! { "x": f };
            assert_eq!(compact(&value), "{\"x\":null}");
            assert!(value.to_string().contains("\"x\": null"));
        }
    }

    #[test]
    fn compact_output_appends_to_the_buffer() {
        let mut out = String::from("prefix ");
        Value::from("x").write_compact(&mut out);
        Value::Null.write_compact(&mut out);
        assert_eq!(out, "prefix \"x\"null");
    }

    #[test]
    fn malformed_text_is_a_typed_error() {
        use ParseErrorKind::*;
        let cases = [
            ("", Truncated),
            ("{\"a\": 1", Truncated),
            ("[1, \"ab", Truncated),
            ("-", Truncated),
            ("tru", Truncated),
            ("{\"a\": inf}", Invalid),
            ("[1,]", Invalid),
            ("{a: 1}", Invalid),
            ("{\"a\" 1}", Invalid),
            ("01", Invalid),
            ("-01", Invalid),
            ("+1", Invalid),
            ("1.e5", Invalid),
            (".5", Invalid),
            ("1e", Truncated),
            ("\"\\x\"", Invalid),
            ("\"\\ud800\"", Invalid),
            ("\"\\udc00\"", Invalid),
            ("\"\\u12g4\"", Invalid),
            ("\"tab\there\"", Invalid),
            ("nul!", Invalid),
            ("{} {}", Invalid),
        ];
        for (text, kind) in cases {
            assert_eq!(
                Value::parse(text).map_err(|e| e.kind),
                Err(kind),
                "{text:?}"
            );
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(Value::parse(&deep).unwrap_err().kind, TooDeep);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00 \\u00e9\""),
            Ok(Value::from("\u{1F600} é"))
        );
        assert_eq!(Value::parse(" -0.5e1 "), Ok(Value::Float(-5.0)));
        let mixed = vec![Value::Int(0), Value::Int(-7), Value::Float(100.0)];
        assert_eq!(Value::parse("[0, -7, 1E2]"), Ok(Value::Array(mixed)));
    }
}
