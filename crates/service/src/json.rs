//! A small, dependency-free JSON value: parser, writer, accessors.
//!
//! The build environment has no crates registry, so the wire format is
//! hand-rolled. Two deliberate departures from a general-purpose JSON
//! library:
//!
//! * **integers are exact** — lane values are `i128`s up to 64 bits
//!   wide, which a float-only JSON number would silently round; numeric
//!   tokens without a fraction or exponent parse as [`Json::Int`] and
//!   are written back in full precision;
//! * **objects preserve insertion order** (a `Vec` of pairs, not a
//!   map), so every response serializes deterministically — byte-equal
//!   responses for byte-equal requests, which the service's equality
//!   gates rely on.
//!
//! The parser is a plain recursive-descent with a depth bound; it
//! rejects trailing input, so a frame is exactly one value.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (stack-overflow guard for
/// untrusted frames).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an exact integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize to a compact string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                    // `{}` on a whole f64 prints no fraction; keep the
                    // token a float so it round-trips as one.
                    if !out.ends_with(['.', 'e'])
                        && !out
                            .rsplit(['[', ',', ':', '{'])
                            .next()
                            .unwrap_or("")
                            .contains(['.', 'e'])
                    {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_member(out, k, v);
                }
                out.push('}');
            }
        }
    }
}

/// Write one object member, `"name":value`, exactly as an object's
/// rendering writes it.
pub(crate) fn write_member(out: &mut String, name: &str, value: &Json) {
    write_escaped(out, name);
    out.push(':');
    value.write_to(out);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure, with a byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub what: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parse exactly one JSON value (trailing non-whitespace is an error).
///
/// # Errors
///
/// [`JsonError`] on malformed input, over-deep nesting, or trailing
/// input.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: src.as_bytes(), src, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError { what: what.into(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Array(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    members.push((key, v));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Object(members));
                    }
                    self.expect(b',')?;
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // protocol; reject rather than mis-decode.
                            let c = char::from_u32(n)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so
                    // boundaries are valid).
                    let rest = &self.src[self.pos..];
                    let c = rest.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let tok = &self.src[start..self.pos];
        if float {
            tok.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
        } else {
            tok.parse::<i128>().map(Json::Int).map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        assert_eq!(parse(&v.render()).unwrap(), *v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Bool(false));
        round_trip(&Json::Int(0));
        round_trip(&Json::Int(-42));
        round_trip(&Json::Int(i128::from(u64::MAX)));
        round_trip(&Json::Int(i128::from(i64::MIN)));
        round_trip(&Json::Float(1.5));
        round_trip(&Json::Float(-0.25));
        round_trip(&Json::Str("hello".into()));
        round_trip(&Json::Str("with \"quotes\" and \\ and \n and héllo".into()));
    }

    #[test]
    fn integers_are_exact_beyond_f64() {
        // 2^63 - 1 is not representable in f64; the Int path keeps it.
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v, Json::Int(9223372036854775807));
        assert_eq!(v.render(), "9223372036854775807");
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Json::Array(vec![Json::Int(1), Json::Str("a".into()), Json::Null]));
        round_trip(&Json::Object(vec![
            ("op".into(), Json::str("compile")),
            ("lanes".into(), Json::Int(128)),
            ("nested".into(), Json::Array(vec![Json::Object(vec![])])),
        ]));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn whitespace_and_floats_parse() {
        let v = parse(" { \"x\" : [ 1 , 2.5 , -3e2 ] } ").unwrap();
        assert_eq!(
            v.get("x").unwrap().as_array().unwrap(),
            &[Json::Int(1), Json::Float(2.5), Json::Float(-300.0)]
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"unterminated", "{\"a\":}", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s":"x","n":3,"b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_int(), Some(3));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(v.get("s").unwrap().as_int().is_none());
    }
}
