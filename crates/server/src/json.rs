//! Minimal JSON value, parser and writer for the wire protocol.
//!
//! The workspace vendors no serde, so the protocol layer carries its own
//! ~300-line JSON implementation. It is deliberately strict where the
//! protocol needs strictness and small everywhere else:
//!
//! * integers are kept exact — [`Json::Uint`] / [`Json::Int`] preserve the
//!   full 64-bit range so request-id and `k` overflow are *detectable*
//!   instead of silently rounding through `f64` (a `k` of `u32::MAX` and an
//!   id of `u64::MAX` survive a round trip bit for bit; `1e30` does not
//!   masquerade as an integer);
//! * parsing is a recursive-descent pass over the byte slice with a hard
//!   **depth limit**, so a frame of 10 000 `[` characters errors instead of
//!   overflowing the stack — malformed input must never take the server
//!   down (see `tests/protocol_fuzz.rs`);
//! * objects preserve insertion order in a `Vec` (no hash map): protocol
//!   messages are small and emitted deterministically, which keeps the CI
//!   smoke's byte-level greps stable.

use std::fmt;

/// Maximum nesting depth the parser accepts. Protocol messages are at most
/// three levels deep; anything deeper is hostile or broken input.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value (see the module docs for the number model).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer that fits `u64` (ids, vertices, hop bounds).
    Uint(u64),
    /// Negative integer that fits `i64`.
    Int(i64),
    /// Any other number: fractional, exponent form, or out of 64-bit range.
    Float(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object as an ordered key–value list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Where and why a parse failed. The offset is a byte position into the
/// frame payload — precise enough for protocol debugging, cheap to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document from `input`, requiring it to consume the whole
/// slice (trailing whitespace excepted).
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(message))
        }
    }

    fn literal(&mut self, rest: &[u8], message: &'static str) -> Result<(), JsonError> {
        if self.input[self.pos..].starts_with(rest) {
            self.pos += rest.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting depth limit exceeded"));
        }
        match self.peek() {
            Some(b'n') => self.literal(b"null", "expected null").map(|_| Json::Null),
            Some(b't') => self
                .literal(b"true", "expected true")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal(b"false", "expected false")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
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
                        let code = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate; lone surrogates are
                        // rejected (never panic on hostile input).
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            self.literal(b"\\u", "expected low surrogate")?;
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences: back up and take
                    // the longest valid prefix starting here.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                        let end = start + len;
                        let bytes = self
                            .input
                            .get(start..end)
                            .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                        let s = std::str::from_utf8(bytes)
                            .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // Integer part: "0" or a non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII by construction.
        let text =
            std::str::from_utf8(&self.input[start..self.pos]).expect("number chars are ASCII"); // spg-analyze: allow(no-panic) — the scanner only accepts ASCII number chars
        if integral {
            if neg {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Uint(v));
            }
        }
        // Fractional, exponent form, or beyond 64-bit range: lossy float.
        // Protocol fields that require exact integers reject this variant,
        // which is precisely how id / k overflow is detected.
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("unrepresentable number"))
    }
}

/// Total byte length of a UTF-8 sequence starting with `first`, or `None`
/// for bytes that cannot start a sequence.
fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC2..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF4 => Some(4),
        _ => None,
    }
}

/// Serialises `value` to compact JSON (no whitespace), escaping strings per
/// RFC 8259. Deterministic: objects emit in insertion order.
pub fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Uint(v) => write_u64(out, *v),
        Json::Int(v) => {
            if *v < 0 {
                out.push('-');
            }
            write_u64(out, v.unsigned_abs());
        }
        Json::Float(v) => {
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                // JSON has no Inf/NaN; null is the conventional fallback.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write(val, out);
            }
            out.push('}');
        }
    }
}

/// Decimal digits of `u64::MAX`, the widest integer the wire carries.
pub(crate) const U64_DIGITS: usize = 20;

/// The two ASCII digits of every value below 100, in order: `00`, `01`, …,
/// `99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the decimal digits of `v` right-aligned at the end of `buf`, two
/// per step from [`DIGIT_PAIRS`], and returns the index of the first digit.
/// The wire's one integer formatter: [`write_u64`] and the `ok` reply
/// writer in `protocol.rs` both use it. `buf` must hold the digits:
/// [`U64_DIGITS`] bytes for any `u64`, 10 for a `u32`.
pub(crate) fn put_digits(buf: &mut [u8], mut v: u64) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends the decimal digits of `v` to `out` through [`put_digits`].
pub(crate) fn write_u64(out: &mut String, v: u64) {
    let mut digits = [0u8; U64_DIGITS];
    let start = put_digits(&mut digits, v);
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// [`write`] into a fresh string.
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let doc = br#"{"id": 7, "op": "query", "s": 0, "t": 5, "k": 4294967295}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(u32::MAX as u64));
        let emitted = to_string(&v);
        assert_eq!(parse(emitted.as_bytes()).unwrap(), v);
    }

    #[test]
    fn integers_stay_exact_and_overflow_is_visible() {
        assert_eq!(
            parse(b"18446744073709551615").unwrap(),
            Json::Uint(u64::MAX)
        );
        assert_eq!(parse(b"-42").unwrap(), Json::Int(-42));
        // One past u64::MAX degrades to Float — which protocol fields
        // requiring exact integers reject.
        assert!(matches!(
            parse(b"18446744073709551616").unwrap(),
            Json::Float(_)
        ));
        assert!(matches!(parse(b"1.5").unwrap(), Json::Float(_)));
        assert_eq!(parse(b"1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_write_exactly_at_the_extremes() {
        for (value, text) in [
            (Json::Uint(0), "0"),
            (Json::Uint(9), "9"),
            (Json::Uint(10), "10"),
            (Json::Uint(u64::MAX), "18446744073709551615"),
            (Json::Int(-1), "-1"),
            (Json::Int(i64::MIN), "-9223372036854775808"),
        ] {
            assert_eq!(to_string(&value), text);
            assert_eq!(parse(text.as_bytes()).unwrap(), value, "{text} round trips");
        }
        let powers = (0..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]);
        for v in powers.chain((0..64).map(|shift| u64::MAX >> shift)) {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        let mut hostile = Vec::new();
        hostile.extend(std::iter::repeat_n(b'[', 10_000));
        let err = parse(&hostile).unwrap_err();
        assert_eq!(err.message, "nesting depth limit exceeded");
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            &b"{"[..],
            b"{\"a\"}",
            b"[1,]",
            b"\"unterminated",
            b"nul",
            b"01",
            b"1e",
            b"-",
            b"\"\\u12\"",
            b"\"\\ud800\"",
            b"{\"a\":1}x",
            b"\x80",
            b"",
        ] {
            assert!(parse(bad).is_err(), "{:?} must not parse", bad);
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(br#""a\"b\\c\nd\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{e9} \u{1F600}"));
        let emitted = to_string(&v);
        assert_eq!(parse(emitted.as_bytes()).unwrap(), v);
        // Raw UTF-8 multibyte content survives.
        let raw = parse("\"héllo → wörld\"".as_bytes()).unwrap();
        assert_eq!(raw.as_str(), Some("héllo → wörld"));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(br#"{"a": [1, 2], "b": null, "a": 3}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
        assert_eq!(Json::Bool(true).as_u64(), None);
        assert_eq!(Json::Uint(1).as_array(), None);
    }
}
