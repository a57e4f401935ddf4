//! The one bench-report format: every `results/BENCH_*.json` is a
//! [`Value`] built in memory, written by one writer and read back by one
//! parser.
//!
//! Every report opens with `bench` (the binary), `mode` (`full` or
//! `smoke`) and `meta` (`git_commit`, `host_threads`, `date`, `graph`);
//! [`report`] puts them first. The writer keeps integers exact, writes non-finite
//! floats as `null` and escapes strings with
//! [`oca_serve::protocol::json_escape`]. The reader is a recursive-descent
//! parser whose nesting-depth limit keeps any input from overflowing the
//! stack; every malformed input is a typed [`ParseError`].
//!
//! Full runs write to `results/`, where the reports listed in the root
//! `.gitignore` are committed. Smoke runs write to [`smoke_dir`]
//! (`target/bench-smoke/`), so running a CI gate locally never rewrites a
//! committed report.

use crate::harness::results_dir;
use oca_serve::protocol::json_escape;
use std::fmt;
use std::path::{Path, PathBuf};

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

/// Builds a [`Value::Object`] from `"key": value` pairs, converting each
/// value with [`Value::from`].
///
/// ```
/// let point = oca_bench::object! { "threads": 2usize, "halt": "coverage" };
/// assert_eq!(point.get("threads").and_then(|v| v.as_u64()), Some(2));
/// ```
#[macro_export]
macro_rules! object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::report::Value::Object(vec![
            $(($key.to_string(), $crate::report::Value::from($value))),*
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
    /// Panics if `self` is not an object (a report-building bug).
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

    /// Writes `self` at `indent`. The top level, and any container holding
    /// a non-empty container, puts each child on its own line; any other
    /// container goes on one line. So a report reads one key per line, and
    /// its tables one record per line.
    fn render(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(entries) => {
                let children = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', children.collect())
            }
            Value::Int(i) => return write!(out, "{i}"),
            // `{:?}` is the shortest text that reads back as the same f64,
            // and it always has a `.` or an exponent: a float stays a float.
            Value::Float(f) if f.is_finite() => return write!(out, "{f:?}"),
            Value::Bool(b) => return write!(out, "{b}"),
            Value::Str(s) => return write!(out, "\"{}\"", json_escape(s)),
            Value::Float(_) | Value::Null => return write!(out, "null"),
        };
        let nested = |v: &Value| match v {
            Value::Array(items) => !items.is_empty(),
            Value::Object(entries) => !entries.is_empty(),
            _ => false,
        };
        let multiline = indent == 0 || children.iter().any(|(_, v)| nested(v));
        write!(out, "{open}")?;
        for (i, (key, value)) in children.iter().enumerate() {
            let separator = if i == 0 { "" } else { "," };
            if multiline {
                write!(out, "{separator}\n{:w$}", "", w = indent + 2)?;
            } else if i > 0 {
                write!(out, "{separator} ")?;
            }
            if let Some(key) = key {
                write!(out, "\"{}\": ", json_escape(key))?;
            }
            value.render(out, indent + 2)?;
        }
        if multiline && !children.is_empty() {
            write!(out, "\n{:w$}", "", w = indent)?;
        }
        write!(out, "{close}")
    }
}

impl fmt::Display for Value {
    /// The report text: indented JSON, no trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
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

/// Reads and parses a report file. Errors name the path; a parse failure
/// is an [`std::io::ErrorKind::InvalidData`] error.
pub fn read(path: impl AsRef<Path>) -> std::io::Result<Value> {
    let path = path.as_ref();
    let in_path =
        |kind, e: &dyn fmt::Display| std::io::Error::new(kind, format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| in_path(e.kind(), &e))?;
    Value::parse(&text).map_err(|e| in_path(std::io::ErrorKind::InvalidData, &e))
}

/// A bench report: `bench`, `mode` and `meta` first, then the entries of
/// `fields` (an object) in order. `meta` holds the git commit the run
/// came from (`"unknown"` outside a checkout), the host's available
/// parallelism, the UTC date of the run (`YYYY-MM-DD`) and `graph`, a
/// free-form description of the input.
///
/// # Panics
/// Panics if `fields` is not an object.
pub fn report(bench: &str, smoke: bool, graph: &str, fields: Value) -> Value {
    let Value::Object(entries) = fields else {
        panic!("report fields must be an object");
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|hash| !hash.is_empty() && hash.chars().all(|ch| ch.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".to_string());
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or_else(|_| "unknown".to_string(), |d| utc_date(d.as_secs()));
    let meta = object! {
        "git_commit": commit,
        "host_threads": host_threads,
        "date": date,
        "graph": graph,
    };
    let mode = if smoke { "smoke" } else { "full" };
    let mut out = object! { "bench": bench, "mode": mode, "meta": meta };
    for (key, value) in entries {
        out.push(&key, value);
    }
    out
}

/// The UTC calendar date, `YYYY-MM-DD`, of `secs` seconds after the Unix
/// epoch (the proleptic Gregorian calendar, by Hinnant's days-to-civil
/// conversion).
fn utc_date(secs: u64) -> String {
    let days = secs / 86_400;
    // Shift the epoch to 0000-03-01 so each 400-year era starts on a
    // March 1st and the leap day falls at the end of a year.
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Where smoke-mode reports go: `target/bench-smoke/` under the workspace
/// root, beside the build output and out of version control.
pub fn smoke_dir() -> PathBuf {
    results_dir().with_file_name("target").join("bench-smoke")
}

/// Writes `value` to `<file_name>` in `results/`, or in [`smoke_dir`]
/// when the report's `mode` is `smoke`. See [`write_in`].
pub fn write(file_name: &str, value: &Value) -> std::io::Result<()> {
    let smoke = value.get("mode").and_then(Value::as_str) == Some("smoke");
    let dir = if smoke { smoke_dir() } else { results_dir() };
    write_in(&dir, file_name, value)
}

/// Writes `value` to `dir/<file_name>` whatever its mode, creating the
/// directory, and prints the path. The error names the path.
pub fn write_in(dir: &Path, file_name: &str, value: &Value) -> std::io::Result<()> {
    let path = dir.join(file_name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{value}\n")))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        object! {
            "bench": "t",
            "big": u64::MAX,
            "neg": Value::Int(i64::MIN.into()),
            "ns": 123_456_789_012u128,
            "ratio": 0.1,
            "whole": 1000.0,
            "tiny": 1e-9,
            "flag": false,
            "text": "a \"quoted\" \\ line\n\u{1}é",
            "empty": Vec::<u32>::new(),
            "list": vec![1u32, 2, 3],
            "nested": object! { "inner": object! { "x": Value::Null } },
            "records": vec![object! { "a": 1u32 }, object! { "a": 2u32 }],
        }
    }

    #[test]
    fn written_reports_parse_back_to_the_same_value() {
        let value = sample();
        let text = value.to_string();
        assert_eq!(Value::parse(&text).unwrap(), value, "{text}");
        assert!(text.contains("\"big\": 18446744073709551615"), "{text}");
        assert!(text.contains("\"whole\": 1000.0"), "{text}");
        // Records of scalars sit one per line; the top level is indented.
        assert!(
            text.contains("\n    {\"a\": 1},\n    {\"a\": 2}\n"),
            "{text}"
        );
        assert!(text.contains("\"list\": [1, 2, 3]"), "{text}");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for f in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = object! { "x": f }.to_string();
            assert!(text.contains("\"x\": null"), "{text}");
            let back = Value::parse(&text).unwrap();
            assert_eq!(back.get("x"), Some(&Value::Null));
        }
    }

    #[test]
    fn report_puts_bench_mode_and_meta_first() {
        let value = report(
            "demo",
            true,
            "lfr n=1000 \"quoted\"",
            object! { "rng_seed": 42u64 },
        );
        let Value::Object(entries) = &value else {
            panic!("not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "mode", "meta", "rng_seed"]);
        assert_eq!(value.get("mode").and_then(Value::as_str), Some("smoke"));
        let meta = value.get("meta").unwrap();
        assert!(meta.get("git_commit").and_then(Value::as_str).is_some());
        assert!(meta.get("host_threads").and_then(Value::as_u64).is_some());
        let date = meta.get("date").and_then(Value::as_str).unwrap();
        assert!(is_date(date), "{date}");
        // Quotes in the description survive the round trip intact.
        let back = Value::parse(&value.to_string()).unwrap();
        assert_eq!(
            back.get("meta").and_then(|m| m.get("graph")),
            Some(&Value::from("lfr n=1000 \"quoted\""))
        );
    }

    /// True for a `YYYY-MM-DD` string.
    fn is_date(text: &str) -> bool {
        let bytes = text.as_bytes();
        bytes.len() == 10
            && bytes.iter().enumerate().all(|(i, &b)| match i {
                4 | 7 => b == b'-',
                _ => b.is_ascii_digit(),
            })
    }

    #[test]
    fn utc_date_converts_epoch_seconds_to_the_calendar_date() {
        for (secs, date) in [
            (0, "1970-01-01"),
            (86_399, "1970-01-01"),
            (86_400, "1970-01-02"),
            (951_782_400, "2000-02-29"),
            (951_868_800, "2000-03-01"),
            (1_709_164_800, "2024-02-29"),
            (1_735_689_599, "2024-12-31"),
            (4_107_542_400, "2100-03-01"),
        ] {
            assert_eq!(utc_date(secs), date, "{secs}");
        }
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

    /// A smoke report lands in `target/bench-smoke/`, never in the
    /// committed `results/`; a full one lands in `results/`.
    #[test]
    fn smoke_reports_stay_out_of_results() {
        let name = format!("BENCH_test_{}.json", std::process::id());
        let smoke = report("t", true, "g", object! {});
        write(&name, &smoke).unwrap();
        let path = smoke_dir().join(&name);
        assert_eq!(read(&path).unwrap(), smoke);
        assert!(!results_dir().join(&name).exists());
        assert!(smoke_dir().ends_with("target/bench-smoke"));
        std::fs::remove_file(&path).unwrap();

        let full = report("t", false, "g", object! {});
        write(&name, &full).unwrap();
        let path = results_dir().join(&name);
        assert_eq!(read(&path).unwrap(), full);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every committed report (each `!/results/*.json` line of the root
    /// `.gitignore`) parses and carries the shared schema.
    #[test]
    fn committed_reports_parse_with_the_shared_schema() {
        let root = results_dir();
        let gitignore = std::fs::read_to_string(root.parent().unwrap().join(".gitignore")).unwrap();
        let names: Vec<&str> = gitignore
            .lines()
            .filter_map(|l| l.strip_prefix("!/results/"))
            .collect();
        assert!(names.len() >= 5, "{names:?}");
        for name in names {
            let value = read(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                value.get("bench").and_then(Value::as_str).is_some(),
                "{name}"
            );
            // The ascent-gate baseline is a smoke snapshot from before
            // `meta` existed; the parallel trajectory still holds a smoke
            // run until its full sweep is recorded.
            let (mode, has_meta) = match name {
                "BENCH_hotpath_baseline.json" => ("smoke", false),
                "BENCH_parallel.json" => ("smoke", true),
                _ => ("full", true),
            };
            assert_eq!(
                value.get("mode").and_then(Value::as_str),
                Some(mode),
                "{name}"
            );
            let meta = value.get("meta");
            assert_eq!(meta.is_some(), has_meta, "{name}");
            if let Some(meta) = meta {
                assert!(
                    meta.get("git_commit").and_then(Value::as_str).is_some(),
                    "{name}"
                );
                assert!(
                    meta.get("host_threads").and_then(Value::as_u64).is_some(),
                    "{name}"
                );
                // `date` joined `meta` later; reports recorded before it
                // have none.
                if let Some(date) = meta.get("date") {
                    assert!(date.as_str().is_some_and(is_date), "{name}");
                }
            }
        }
    }
}
