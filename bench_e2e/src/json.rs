//! A small JSON value with a renderer and a parser.
//!
//! The benchmark renders its result lines and result files, and reads
//! two things back: the result line of a workload child process and
//! `BENCHMARK.json` (in the unit test that keeps the metric catalogue
//! and the manifest in step). Objects keep insertion order — a `Vec`,
//! not a hash map — so rendered output is reproducible byte for byte.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; rendered with all its digits (shortest text that
    /// reads back to the same `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[cfg(test)]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[cfg(test)]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a measurement that produced
            // one is broken, and `null` makes the reader fail loudly.
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Nesting limit of [`parse`]: input comes from files and child
/// processes, so recursion depth is bounded rather than trusted.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.fail("unexpected end of input"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.fail("expected ',' or ']'");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.fail("expected a member name");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.fail("expected ':'");
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return self.fail("expected ',' or '}'");
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected character"),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The slice is ASCII by construction of the loop above.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.pos = start;
                self.fail("malformed number")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(chunk) => out.push_str(chunk),
                Err(_) => return self.fail("invalid UTF-8 in string"),
            }
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                None => return self.fail("unsupported \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.fail("bad escape"),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_result_line() {
        let line = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([(
                    "latency_ms",
                    Value::obj([("value", Value::Num(1.2034)), ("unit", Value::str("ms"))]),
                )]),
            ),
        ]);
        assert_eq!(
            line.render(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        for n in [0.1 + 0.2, 1.0 / 3.0, 2.5e-9, 123456789.125, -0.0, 4.0] {
            let text = Value::Num(n).render();
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                n.to_bits(),
                "{text}"
            );
        }
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "a \"quoted\" \\ path\n\ttab \u{1} é";
        let rendered = Value::str(s).render();
        assert!(rendered.contains("\\u0001"));
        assert_eq!(parse(&rendered).unwrap(), Value::str(s));
    }

    #[test]
    fn parse_round_trips_nested_documents() {
        let doc = Value::obj([
            (
                "a",
                Value::Arr(vec![Value::Num(1.0), Value::Null, Value::Bool(false)]),
            ),
            ("b", Value::obj([("c", Value::str("d"))])),
            ("empty", Value::Arr(vec![])),
            ("none", Value::Obj(vec![])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        let spaced = " {\n \"x\" : [ 1 , 2.5e1 ] } ";
        let v = parse(spaced).unwrap();
        assert_eq!(
            v.get("x").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(25.0)
        );
    }

    #[test]
    fn parse_rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"open",
            "[1 2]",
            "{1:2}",
            "--1",
            "\"\\q\"",
            "\"\\u12\"",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }
}
