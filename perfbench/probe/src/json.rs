//! A flat JSON object writer: the probe only ever prints one level of
//! numbers, booleans and strings.

use std::fmt::Write as _;

/// Fields in insertion order.
#[derive(Default)]
pub struct Obj {
    out: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        let _ = write!(self.out, "\"{key}\":");
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: impl Into<f64>) -> &mut Self {
        let value = value.into();
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        for ch in value.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    pub fn render(&self) -> String {
        if self.out.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.out)
        }
    }
}
