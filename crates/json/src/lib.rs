//! # cesim-json
//!
//! A minimal, dependency-free JSON parser **and serializer**.
//!
//! The parser originated in `cesim-obs` (where it validates exported
//! Chrome traces); it was factored out here so the serving layer
//! (`cesim-serve`) and the provenance JSONL writer can share one
//! implementation. Supports the full JSON grammar; numbers are parsed as
//! `f64` (sufficient for trace timestamps and experiment statistics).
//!
//! Serialization is **canonical**: object keys are emitted in sorted
//! order (objects are [`BTreeMap`]s), no insignificant whitespace is
//! produced, and `f64` values print via Rust's shortest-round-trip
//! `Display` — so `parse(s).to_json()` is a stable canonical form of
//! `s`, which the serving layer uses as a cache key
//! ([`canonicalize`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are sorted (BTreeMap); duplicate keys keep the
    /// last value, as in every mainstream parser.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            b: bytes,
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The object's members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a number with an
    /// exact `u64` value (rejects fractions, negatives, and magnitudes
    /// beyond 2^53 where `f64` loses integer precision).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize compactly: sorted object keys, no whitespace, shortest
    /// round-trip float form. Non-finite numbers (which JSON cannot
    /// represent) serialize as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize into an existing buffer (see [`JsonValue::to_json`]).
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => write_f64(*n, out),
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

macro_rules! int_into_json {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Number(n as f64)
            }
        }
    )*};
}
int_into_json!(u8, u16, u32, u64, usize, i32, i64);

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// Reduce a JSON document to its canonical form: parse and re-serialize
/// with sorted object keys and no whitespace. Two documents that differ
/// only in member order or insignificant whitespace canonicalize to the
/// same string — the property the serving layer's response cache relies
/// on for its keys.
pub fn canonicalize(text: &str) -> Result<String, JsonError> {
    Ok(JsonValue::parse(text)?.to_json())
}

/// Write a JSON string literal (quotes plus RFC 8259 escapes) for `s`.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; degrade to null rather than emit an
        // unparsable document.
        out.push_str("null");
        return;
    }
    // Rust's Display for f64 is the shortest string that round-trips,
    // and its `1e300`-style exponent form is valid JSON.
    let mut s = format!("{n}");
    if s == "-0" {
        s = "0".into(); // canonical: -0.0 and 0.0 are the same JSON number
    }
    out.push_str(&s);
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a small document
/// (20,000 `[`s is 20 KB) overflow a thread's stack, which aborts the
/// process. Request bodies, fleet specs and Chrome traces nest only a
/// few levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open around `i`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.i,
            reason: reason.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, failing past
    /// [`MAX_DEPTH`] instead of recursing further.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Object(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Object(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Array(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Array(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if c < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Re-scan the UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    let len = utf8_len(c).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    if end > self.b.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let frag = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(frag);
                    self.i = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            self.i += 1;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-12.5e2").unwrap(),
            JsonValue::Number(-1250.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": "x"}, null], "c": false}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(a[2], JsonValue::Null);
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("123 junk").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_before_it_can_overflow_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&deep(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.reason.contains("deeper than 128"), "{err}");
        // Objects count toward the same limit as arrays.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2 + 1);
        let err = JsonValue::parse(&mixed).unwrap_err();
        assert!(err.reason.contains("deeper than 128"), "{err}");
        // An attack-sized document fails the same way, on a thread with
        // the default 2 MiB stack that serve workers run on.
        let flood = "[".repeat(20_000);
        let err = std::thread::spawn(move || JsonValue::parse(&flood).unwrap_err())
            .join()
            .expect("parser must not overflow the stack");
        assert!(err.reason.contains("deeper than 128"), "{err}");
    }

    #[test]
    fn unicode_roundtrip() {
        let v = JsonValue::parse("\"\\ud83d\\ude00 é\"").unwrap();
        assert_eq!(v.as_str(), Some("😀 é"));
    }

    #[test]
    fn serializes_compact_sorted() {
        let v = JsonValue::object([
            ("zeta", JsonValue::from(1u32)),
            ("alpha", JsonValue::from(true)),
            (
                "mid",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::from("x")]),
            ),
        ]);
        assert_eq!(v.to_json(), r#"{"alpha":true,"mid":[null,"x"],"zeta":1}"#);
    }

    #[test]
    fn serializes_escapes() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        // And parses back to the same string.
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json(), "null");
        assert_eq!(JsonValue::Number(-0.0).to_json(), "0");
    }

    #[test]
    fn integer_accessor_bounds() {
        assert_eq!(JsonValue::Number(42.0).as_u64(), Some(42));
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(1e300).as_u64(), None);
        assert_eq!(JsonValue::from("42").as_u64(), None);
    }

    #[test]
    fn canonicalize_is_order_and_whitespace_insensitive() {
        let a = r#"{ "b" : 1, "a": [ 1 , 2 ],
                     "c": {"y": null, "x": "s"} }"#;
        let b = r#"{"c":{"x":"s","y":null},"a":[1,2],"b":1}"#;
        let ca = canonicalize(a).unwrap();
        let cb = canonicalize(b).unwrap();
        assert_eq!(ca, cb);
        assert_eq!(ca, r#"{"a":[1,2],"b":1,"c":{"x":"s","y":null}}"#);
        // Canonical form is a fixed point.
        assert_eq!(canonicalize(&ca).unwrap(), ca);
        assert!(canonicalize("{nope}").is_err());
    }

    /// Pseudo-random document generator for the round-trip property:
    /// depth-bounded, drawing strings from a set that covers escapes,
    /// unicode, and plain ASCII.
    fn arbitrary(state: &mut u64, depth: u32) -> JsonValue {
        fn next(state: &mut u64) -> u64 {
            // splitmix64 step; good enough for structural fuzz.
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        const STRINGS: &[&str] = &[
            "",
            "plain",
            "with \"quotes\" and \\backslash",
            "newline\nand\ttab",
            "unicode 😀 é ßpan",
            "ctrl\u{1}\u{1f}",
            "key",
        ];
        let choice = next(state) % if depth >= 3 { 4 } else { 6 };
        match choice {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(next(state).is_multiple_of(2)),
            2 => {
                // Mix integers, fractions, and wide-exponent values.
                let raw = next(state);
                let n = match raw % 4 {
                    0 => (raw % 10_000) as f64,
                    1 => -((raw % 1_000) as f64) / 8.0,
                    2 => f64::from_bits(raw).abs() % 1e12,
                    _ => (raw % 1_000_000) as f64 * 1e-9,
                };
                JsonValue::Number(if n.is_finite() { n } else { 0.0 })
            }
            3 => JsonValue::String(STRINGS[(next(state) % STRINGS.len() as u64) as usize].into()),
            4 => {
                let len = (next(state) % 4) as usize;
                JsonValue::Array((0..len).map(|_| arbitrary(state, depth + 1)).collect())
            }
            _ => {
                let len = (next(state) % 4) as usize;
                JsonValue::object((0..len).map(|i| {
                    (
                        format!("k{}_{i}", next(state) % 8),
                        arbitrary(state, depth + 1),
                    )
                }))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn serialize_parse_roundtrip(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let v = arbitrary(&mut state, 0);
            let text = v.to_json();
            let back = JsonValue::parse(&text)
                .map_err(|e| TestCaseError(format!("reparse failed: {e} on {text}")))?;
            prop_assert_eq!(&back, &v);
            // Serialization is already canonical: a second pass is identical.
            prop_assert_eq!(back.to_json(), text);
        }
    }
}
