//! The little JSON the harness needs: an object writer for results and, for
//! the self-tests only, a reader that holds `BENCHMARK.json`, `results.json`
//! and the Chrome trace against each other. No JSON crate resolves offline.

use std::fmt::Write as _;

/// Writes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as measured, with all its digits; non-finite values (which no
/// metric should produce) become 0 rather than invalid JSON.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `{"k":v,...}` from already-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
pub use reader::{parse, Value};

#[cfg(test)]
mod reader {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    static NULL: Value = Value::Null;

    impl std::ops::Index<&str> for Value {
        type Output = Value;
        /// Member `key` of an object; `Null` for anything else.
        fn index(&self, key: &str) -> &Value {
            match self {
                Value::Object(map) => map.get(key).unwrap_or(&NULL),
                _ => &NULL,
            }
        }
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> &[Value] {
            match self {
                Value::Array(items) => items,
                _ => &[],
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, with its byte offset.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn error(&self, what: &str) -> String {
            format!("{what} at byte {}", self.at)
        }

        fn skip_ws(&mut self) {
            while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, literal: &str) -> bool {
            if self.bytes[self.at..].starts_with(literal.as_bytes()) {
                self.at += literal.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Value::String),
                Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
                Some(b'n') if self.eat("null") => Ok(Value::Null),
                Some(_) => self.number(),
                None => Err(self.error("unexpected end")),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.at += 1;
            let mut map = BTreeMap::new();
            loop {
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(map));
                }
                if !map.is_empty() && !self.eat(",") {
                    return Err(self.error("expected , or }"));
                }
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(":") {
                    return Err(self.error("expected :"));
                }
                map.insert(key, self.value()?);
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.at += 1;
            let mut items = Vec::new();
            loop {
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                if !items.is_empty() && !self.eat(",") {
                    return Err(self.error("expected , or ]"));
                }
                items.push(self.value()?);
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(self.error("expected a string"));
            }
            let mut out = Vec::new();
            loop {
                match self.bytes.get(self.at).copied() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.at += 1;
                        return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                    }
                    Some(b'\\') => {
                        let escape = self.bytes.get(self.at + 1).copied();
                        self.at += 2;
                        match escape {
                            Some(b'n') => out.push(b'\n'),
                            Some(b't') => out.push(b'\t'),
                            Some(b'r') => out.push(b'\r'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.at..self.at + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or_else(|| self.error("bad \\u escape"))?;
                                self.at += 4;
                                out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                            }
                            Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                            _ => return Err(self.error("bad escape")),
                        }
                    }
                    Some(c) => {
                        out.push(c);
                        self.at += 1;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.at;
            while self.bytes.get(self.at).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.at += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.at])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Number)
                .ok_or_else(|| self.error("expected a value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_objects_read_back() {
        let text = object([
            ("name", quote("a \"quoted\"\nline")),
            ("value", number(1.25)),
            ("nan", number(f64::NAN)),
            ("list", "[1, 2.5e0, -3]".to_string()),
        ]);
        let v = parse(&text).unwrap();
        assert_eq!(v["name"].as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v["value"], Value::Number(1.25));
        assert_eq!(v["nan"], Value::Number(0.0));
        assert_eq!(v["list"].as_array()[1], Value::Number(2.5));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"open").is_err());
    }
}
