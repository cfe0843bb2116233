//! A minimal JSON codec over `std` only.
//!
//! The parser keeps numbers as their *raw source text* ([`JsonValue::Num`])
//! instead of eagerly converting to `f64`: integer fields are parsed from
//! the original token (so `u64` ids round-trip exactly), and the
//! conformance suite parses response floats straight from the wire bytes
//! to compare bit patterns. The writer formats `f32` with Rust's `Display`
//! (shortest round-trip), so `format → parse` is the identity on bits for
//! finite values; non-finite floats have no JSON number form and are
//! written as `null`.
//!
//! This file parses untrusted network input, so it follows the same
//! discipline as the panic-free lint paths: no slice indexing, no
//! `unwrap`, and an explicit nesting-depth cap.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

/// Maximum nesting depth the parser accepts. Deeper input is rejected
/// rather than recursed into (stack safety on untrusted bodies).
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order. Duplicate keys are kept as-is; lookups
    /// return the first match.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number token that
    /// parses as `u64` exactly (no fraction, no exponent, no sign).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// [`JsonValue::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Why a body failed to parse. The message is static so the error can be
/// embedded in a `400` response without allocation surprises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable reason.
    pub message: &'static str,
    /// Byte offset at which parsing failed.
    pub offset: usize,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, rest: &[u8], value: JsonValue) -> Result<JsonValue, JsonError> {
        for &want in rest {
            if self.bump() != Some(want) {
                return Err(self.err("invalid literal"));
            }
        }
        Ok(value)
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bump() {
            Some(b'n') => self.expect_literal(b"ull", JsonValue::Null),
            Some(b't') => self.expect_literal(b"rue", JsonValue::Bool(true)),
            Some(b'f') => self.expect_literal(b"alse", JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.pos -= 1;
                self.parse_number()
            }
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0usize;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0usize;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0usize;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("malformed number"));
            }
        }
        let raw = self.bytes.get(start..self.pos).unwrap_or_default();
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(JsonValue::Num(s.to_string())),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        // The opening quote is already consumed.
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("lone surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(cp)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: collect the full sequence and
                    // validate it.
                    let extra = if b >= 0xF0 {
                        3
                    } else if b >= 0xE0 {
                        2
                    } else {
                        1
                    };
                    let mut seq = vec![b];
                    for _ in 0..extra {
                        match self.bump() {
                            Some(nb) => seq.push(nb),
                            None => return Err(self.err("invalid utf-8 in string")),
                        }
                    }
                    match std::str::from_utf8(&seq) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b) => match (b as char).to_digit(16) {
                    Some(d) => d,
                    None => return Err(self.err("invalid unicode escape")),
                },
                None => return Err(self.err("invalid unicode escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bump() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &[u8]) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input,
        pos: 0,
    };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a JSON string literal (quoted + escaped).
pub fn push_str_literal(out: &mut String, s: &str) {
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
}

/// Formats an `f32` as a JSON value: `Display` (shortest round-trip, so
/// `fmt_f32 → str::parse::<f32>` is the identity on bits) for finite
/// values, `null` for NaN/±∞ which have no JSON number form.
pub fn fmt_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(parse(b"null").unwrap(), JsonValue::Null);
        assert_eq!(parse(b"true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(b"42").unwrap(), JsonValue::Num("42".into()));
        assert_eq!(
            parse(b"-1.5e3").unwrap(),
            JsonValue::Num("-1.5e3".to_string())
        );
        assert_eq!(
            parse(br#""a\"b\n""#).unwrap(),
            JsonValue::Str("a\"b\n".into())
        );
    }

    #[test]
    fn objects_and_arrays() {
        let v = parse(br#"{"user": 3, "actions": [1, 2, 3]}"#).unwrap();
        assert_eq!(v.get("user").and_then(JsonValue::as_u64), Some(3));
        let actions = v.get("actions").and_then(JsonValue::as_array).unwrap();
        assert_eq!(actions.len(), 3);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"nul",
            b"{\"a\" 1}",
            b"1 2",
            b"\"\\q\"",
            b"01e",
            b"-",
            b"\"\x01\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut s = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            s.push('[');
        }
        assert_eq!(parse(s.as_bytes()).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn u64_is_exact() {
        let v = parse(b"18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert!(parse(b"1.5").unwrap().as_u64().is_none());
        assert!(parse(b"-1").unwrap().as_u64().is_none());
    }

    #[test]
    fn f32_display_round_trips_bits() {
        for v in [0.0f32, -0.0, 1.0, 0.1, 1.0 / 3.0, f32::MIN_POSITIVE, 1e30] {
            let s = fmt_f32(v);
            let back: f32 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt_f32(f32::NAN), "null");
        assert_eq!(fmt_f32(f32::INFINITY), "null");
    }

    #[test]
    fn string_literal_escaping() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(parse(out.as_bytes()).unwrap(), JsonValue::Str("a\"b\\c\nd\u{1}".into()));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(br#""\u00e9""#).unwrap(), JsonValue::Str("é".into()));
        assert_eq!(
            parse(br#""\ud83d\ude00""#).unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(parse(br#""\ud83d""#).is_err());
        let raw = "\"héllo\"".as_bytes();
        assert_eq!(parse(raw).unwrap(), JsonValue::Str("héllo".into()));
    }
}
