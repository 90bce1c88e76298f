//! Dependency-free JSON for the HTTP facade — an escape-correct encoder
//! and a recursive-descent decoder over a small [`Value`] tree.
//!
//! This is the *only* place in the workspace that formats or parses JSON
//! text (enforced by convention and review, the same way `persist.rs` owns
//! the binary codec): `protocol.rs` builds [`Value`] trees for its
//! `to_json`/`from_json` codecs and `http.rs` wraps them in an envelope,
//! but neither ever concatenates JSON strings by hand. The decoder is
//! hardened the way the lint lexer is — depth-capped, allocation-capped by
//! the caller's input cap, and every malformation is a typed error rather
//! than a panic — and property-tested alongside it.

use std::fmt::Write as _;

/// Nesting depth past which the decoder refuses input: the serve protocol
/// nests two levels deep, so 64 is generous while keeping a hostile
/// `[[[[…` body from exhausting the worker's stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// One JSON value. Numbers split into [`Value::UInt`] (every number the
/// serve protocol emits is an unsigned integer, and `u64` counters like a
/// memory budget must survive the trip bit-exactly) and [`Value::Num`]
/// for everything else a peer may send.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other JSON number (negative, fractional, or exponent form).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered pairs — rendering is deterministic and duplicate
    /// keys are representable (the decoder keeps the last occurrence
    /// reachable via [`Value::get`], which scans from the back).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for a string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member lookup on an object; `None` for other shapes. Later
    /// duplicates win, matching common JSON object semantics.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Serialize to compact JSON text (no whitespace). Every `&str` in the
    /// tree round-trips: control characters, quotes, backslashes, and
    /// astral-plane characters all escape correctly. A non-finite
    /// [`Value::Num`] renders as `null` — JSON has no spelling for it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            // lint: panic-ok(fmt::Write to a String is infallible)
            Value::UInt(n) => write!(out, "{n}").expect("write to String"),
            Value::Num(x) if x.is_finite() => {
                // lint: panic-ok(fmt::Write to a String is infallible)
                write!(out, "{x}").expect("write to String");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                // lint: panic-ok(fmt::Write to a String is infallible)
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document. The whole input must be a single value plus
/// optional whitespace — trailing bytes are an error, mirroring the binary
/// codec's trailing-bytes check. Errors carry the byte offset of the
/// failure; callers wrap them in their own typed error.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("byte {}: {msg}", self.pos)
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
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        // lint: panic-ok(pos only advances past bytes that exist, so pos <= len)
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes, reattached as validated UTF-8
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run =
                    // lint: panic-ok(start <= pos <= len by the scan loop)
                    std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        match self.bump() {
            Some(b'"') => Ok('"'),
            Some(b'\\') => Ok('\\'),
            Some(b'/') => Ok('/'),
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'b') => Ok('\u{08}'),
            Some(b'f') => Ok('\u{0c}'),
            Some(b'u') => self.unicode_escape(),
            _ => Err(self.err("unknown escape sequence")),
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        let code = if (0xD800..=0xDBFF).contains(&hi) {
            // surrogate pair: the low half must follow immediately
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("high surrogate not followed by `\\u` low surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("high surrogate followed by a non-surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("escape is not a scalar value"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("expected four hex digits after `\\u`")),
            };
            code = (code << 4) | digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // integer part: `0` alone or a nonzero-led digit run
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let integer_end = self.pos;
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // the slice is ASCII digits and punctuation matched above
        let text =
            // lint: panic-ok(start <= pos <= len by the digit scan)
            std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if !negative && !fractional {
            // exact u64 when it fits; huge integers degrade to f64 below
            let exact = self.bytes[start..integer_end] // lint: panic-ok(start <= integer_end <= pos <= len)
                .iter()
                .try_fold(0u64, |acc, b| acc.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            if let Some(n) = exact {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>().map(Value::Num).map_err(|e| self.err(format!("bad number: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Value) {
        let text = value.render();
        assert_eq!(parse(&text).unwrap(), value, "rendered as {text}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::UInt(0));
        round_trip(Value::UInt(u64::MAX));
        round_trip(Value::Num(-1.5));
        round_trip(Value::str(""));
        round_trip(Value::str("plain ascii"));
    }

    #[test]
    fn strings_escape_correctly() {
        round_trip(Value::str("quote \" backslash \\ slash /"));
        round_trip(Value::str("newline\n tab\t return\r bell\u{7} nul\u{0}"));
        round_trip(Value::str("backspace\u{8} formfeed\u{c}"));
        round_trip(Value::str("unicode: héllo → 図 🦀"));
        assert_eq!(Value::str("a\"b").render(), r#""a\"b""#);
        assert_eq!(Value::str("\n").render(), r#""\n""#);
        assert_eq!(Value::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""A""#).unwrap(), Value::str("A"));
        assert_eq!(parse(r#""é""#).unwrap(), Value::str("é"));
        // surrogate pair for U+1F980 (crab)
        assert_eq!(parse(r#""🦀""#).unwrap(), Value::str("🦀"));
        // lone or malformed surrogates are typed errors, not panics
        assert!(parse(r#""\ud83e""#).is_err());
        assert!(parse(r#""\udd80""#).is_err());
        assert!(parse(r#""\ud83eA""#).is_err());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Value::Arr(vec![]));
        round_trip(Value::Obj(vec![]));
        round_trip(Value::Arr(vec![Value::UInt(1), Value::Null, Value::str("x")]));
        round_trip(Value::Obj(vec![
            ("type".into(), Value::str("stats")),
            ("nested".into(), Value::Obj(vec![("k".into(), Value::Arr(vec![Value::Bool(false)]))])),
        ]));
    }

    #[test]
    fn whitespace_and_structure_parse() {
        let v = parse(" { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : null } ").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Arr(vec![Value::UInt(1), Value::UInt(2)])));
        assert_eq!(v.get("b"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Value::UInt(2)));
    }

    #[test]
    fn numbers_split_exact_and_lossy() {
        assert_eq!(parse("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        // one past u64::MAX degrades to f64 rather than failing
        assert!(matches!(parse("18446744073709551616").unwrap(), Value::Num(_)));
        assert_eq!(parse("-3").unwrap(), Value::Num(-3.0));
        assert_eq!(parse("2.5").unwrap(), Value::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
        // leading zeros and bare signs are malformed per the JSON grammar
        assert!(parse("01").is_err());
        assert!(parse("-").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("1e").is_err());
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for src in [
            "",
            "  ",
            "nul",
            "truth",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1,",
            "[1 2]",
            "{\"k\" 1}",
            "{k:1}",
            "{\"k\":}",
            "[1]x",
            "{} {}",
            "\u{1}",
        ] {
            assert!(parse(src).is_err(), "accepted malformed input {src:?}");
        }
        // raw control character inside a string must be escaped
        assert!(parse("\"a\nb\"").is_err());
    }

    #[test]
    fn depth_bomb_is_refused() {
        let deep = "[".repeat(MAX_JSON_DEPTH + 2) + &"]".repeat(MAX_JSON_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "got: {err}");
        // right at the cap still parses
        let ok = "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = parse("[1, x]").unwrap_err();
        assert!(err.starts_with("byte 4:"), "got: {err}");
    }
}
