//! A minimal JSON value type with a strict parser and a deterministic
//! writer.
//!
//! The workspace is fully offline (no serde), and the service protocol
//! only needs plain JSON-lines: objects, arrays, strings, numbers, bools,
//! null. Object key order is *preserved* on both parse and write, and the
//! writer emits no whitespace, so serialising a value is a deterministic
//! byte-level operation — the property the protocol's byte-identical
//! response contract rests on.
//!
//! Integers are kept exact: non-negative integer literals parse to
//! [`Json::UInt`] (full `u64` range, so 64-bit seeds survive a round
//! trip), negative ones to [`Json::Int`], and everything else to
//! [`Json::Num`].
//!
//! [`Json::parse_request`] is the same parser with one difference: the
//! `entries` arrays of the document's top-level `matrix` object decode
//! straight into [`Json::Pairs`], one `(row, col)` tuple per element,
//! instead of a tree with a value per coordinate. The grammar, the error
//! offsets and messages, and the nesting limit are the same for both.

use mg_sparse::Idx;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (exact; covers full `u64` seeds).
    UInt(u64),
    /// Negative integer literal (exact).
    Int(i64),
    /// Any other number (fraction or exponent present, or out of integer
    /// range).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source (or construction) key order.
    Obj(Vec<(String, Json)>),
    /// An inline `entries` array decoded by [`Json::parse_request`]. It
    /// writes as the array of `[row, col]` pairs it decoded.
    Pairs(Pairs),
}

/// The elements of an inline `entries` array, decoded in the parser's
/// pass over the document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pairs {
    /// The `[row, col]` pairs of 0-based `u32` indices, in document
    /// order, up to the first fault.
    pub pairs: Vec<(Idx, Idx)>,
    /// The first element that is not such a pair. The rest of the array
    /// is still parsed, so a later syntax error still wins.
    pub fault: Option<PairFault>,
}

/// Why element `k` of an `entries` array is not a pair of indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairFault {
    /// Element `k` is not an array of exactly two values.
    Shape(usize),
    /// Element `k`'s first value is not an integer in `0..u32::MAX`.
    Row(usize),
    /// Element `k`'s second value is not an integer in `0..u32::MAX`.
    Col(usize),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Where a value sits in a request document: only the `entries` of the
/// top-level `matrix` object decode as [`Json::Pairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Any,
    Root,
    Matrix,
    Entries,
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::document(text, Slot::Any)
    }

    /// Parses a request line: [`Json::parse`], except that every array
    /// under the key `entries` of the top-level `matrix` object becomes
    /// [`Json::Pairs`]. Accepts and rejects exactly what
    /// [`Json::parse`] does, with the same errors.
    pub fn parse_request(text: &str) -> Result<Json, JsonError> {
        Parser::document(text, Slot::Root)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable [`Json::get`]: the first field named `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exact non-negative integer view.
    ///
    /// The float bound is strict: `u64::MAX as f64` rounds *up* to 2^64,
    /// so accepting `<=` would let `Num(18446744073709551616.0)` through
    /// and the saturating `as u64` cast would silently turn it into
    /// `u64::MAX`. Every f64 strictly below 2^64 is integral-exact here.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(_) => None,
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Numeric view (lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises without any whitespace, preserving object key order.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(u) => {
                out.push_str(&u.to_string());
            }
            Json::Int(i) => {
                out.push_str(&i.to_string());
            }
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
            Json::Pairs(decoded) => {
                out.push('[');
                for (k, (row, col)) in decoded.pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{row},{col}]"));
                }
                out.push(']');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Finite floats print via Rust's shortest-roundtrip `Display`;
/// non-finite values (unrepresentable in JSON) degrade to `null`.
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        out.push_str(&x.to_string());
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

impl<'a> Parser<'a> {
    fn document(text: &'a str, slot: Slot) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0, slot)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize, slot: Slot) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') if slot == Slot::Entries => self.pairs(depth),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth, slot),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses `[item, …]`, calling `item` with each element's index
    /// while the cursor is on the element.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        for k in 0.. {
            self.skip_ws();
            item(self, k)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.items(|p, _| {
            items.push(p.value(depth + 1, Slot::Any)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// An `entries` array: each element decodes to a pair, and the first
    /// element that is not one is recorded as the fault.
    fn pairs(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut decoded = Pairs::default();
        self.items(|p, k| {
            let pair = p.pair(depth + 1, k)?;
            if decoded.fault.is_none() {
                match pair {
                    Ok(rc) => decoded.pairs.push(rc),
                    Err(fault) => decoded.fault = Some(fault),
                }
            }
            Ok(())
        })?;
        Ok(Json::Pairs(decoded))
    }

    /// Element `k` of an `entries` array: the pair, or its fault (the
    /// shape check comes before the row check, the row before the
    /// column).
    fn pair(&mut self, depth: usize, k: usize) -> Result<Result<(Idx, Idx), PairFault>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        if self.peek() != Some(b'[') {
            self.value(depth, Slot::Any)?;
            return Ok(Err(PairFault::Shape(k)));
        }
        let mut coords = [None; 2];
        let mut len = 0;
        self.items(|p, j| {
            let index = p
                .value(depth + 1, Slot::Any)?
                .as_u64()
                .filter(|&v| v < u64::from(Idx::MAX))
                .map(|v| v as Idx);
            if let Some(slot) = coords.get_mut(j) {
                *slot = index;
            }
            len = j + 1;
            Ok(())
        })?;
        Ok(match (len, coords) {
            (2, [Some(row), Some(col)]) => Ok((row, col)),
            (2, [None, _]) => Err(PairFault::Row(k)),
            (2, _) => Err(PairFault::Col(k)),
            _ => Err(PairFault::Shape(k)),
        })
    }

    fn object(&mut self, depth: usize, slot: Slot) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let inner = match (slot, key.as_str()) {
                (Slot::Root, "matrix") => Slot::Matrix,
                (Slot::Matrix, "entries") => Slot::Entries,
                _ => Slot::Any,
            };
            let value = self.value(depth + 1, inner)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        // Bytes, checked as UTF-8 once at the closing quote: the input is
        // valid UTF-8 (it came from &str), runs stop only at ASCII
        // delimiters and escapes push whole characters.
        let mut out = Vec::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.extend_from_slice(&self.bytes[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.err("invalid UTF-8 inside string"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unfinished escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            value = (value << 4) | digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut integral = true;
        // The integer part's value, exact while it has at most 19 digits.
        let mut value = 0u64;
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            while let Some(c @ b'0'..=b'9') = self.peek() {
                value = value.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                self.pos += 1;
            }
        } else {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit must follow '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit must follow exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if integral && !negative && self.pos - start <= 19 {
            return Ok(Json::UInt(value));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let x: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !x.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(x))
    }
}

/// Convenience constructor: an object from key/value pairs, preserving
/// order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let big = u64::MAX;
        let parsed = Json::parse(&big.to_string()).unwrap();
        assert_eq!(parsed, Json::UInt(big));
        assert_eq!(parsed.as_u64(), Some(big));
        assert_eq!(parsed.to_string(), big.to_string());
    }

    #[test]
    fn as_u64_rejects_floats_at_and_above_two_pow_64() {
        // `u64::MAX as f64` rounds UP to 2^64 exactly, so a `<=` bound
        // would accept this value and the saturating cast would silently
        // return u64::MAX. The bound must be strict.
        assert_eq!(Json::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
        // The largest f64 strictly below 2^64 is exact and must pass.
        let edge = 18446744073709549568.0_f64;
        assert!(edge < u64::MAX as f64);
        assert_eq!(Json::Num(edge).as_u64(), Some(18446744073709549568));
        // And a huge literal parses as UInt, never touching the float path.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = Json::parse(r#"{"b":1,"a":[true,{"x":null}],"c":"s"}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Json::UInt(1)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[true,{"x":null}],"c":"s"}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé😀");
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01x",
            "1.",
            "\"unterminated",
            "nul",
            "[1]]",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "--1",
            "1ee3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_overlong_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        // The guard's boundary: a value 128 levels down parses, 129 does not.
        let nested = |depth: usize| "[".repeat(depth) + "0" + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH + 1);
    }

    #[test]
    fn writes_deterministically_without_whitespace() {
        let v = obj(vec![
            ("id", Json::UInt(1)),
            ("x", Json::Num(0.03)),
            ("s", Json::Str("a\tb".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"id":1,"x":0.03,"s":"a\tb","arr":[null,true]}"#
        );
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        let mut out = String::new();
        Json::Num(f64::NAN).write(&mut out);
        assert_eq!(out, "null");
    }
}
