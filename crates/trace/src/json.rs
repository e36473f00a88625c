//! Minimal JSON support, with no external dependencies: the one writer
//! and the one parser of every document the workspace writes. A
//! document is built as a [`Json`] value and written with its
//! `Display` (one line) or [`Json::pretty`] (one member per line);
//! [`parse`] reads it back. Only the Chrome trace streamer
//! (`export::chrome`) writes event by event through [`escape`] and
//! [`number`], because its `u64` arguments must stay exact above 2^53.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An object of `pairs`; a repeated key keeps its last value.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The document indented: one member per line, two spaces per
    /// level, no trailing newline. [`Display`](fmt::Display) writes the
    /// same document on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write_to(&mut out, Some(0));
        out
    }

    /// Writes `self` on one line when `indent` is `None`, otherwise one
    /// member per line, nested from `indent` levels deep. Items are
    /// separated by `", "` on one line, keys followed by `": "`, and an
    /// empty container is `[]` or `{}` either way.
    fn write_to(&self, out: &mut dyn fmt::Write, indent: Option<usize>) -> fmt::Result {
        let (open, close, items): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Number(n) => return out.write_str(&number(*n)),
            Json::String(s) => return write!(out, "\"{}\"", escape(s)),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(map) => ('{', '}', map.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let newline = |out: &mut dyn fmt::Write, level: Option<usize>| match level {
            Some(level) => write!(out, "\n{:1$}", "", 2 * level),
            None => Ok(()),
        };
        let inner = indent.map(|level| level + 1);
        out.write_char(open)?;
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.write_str(if indent.is_some() { "," } else { ", " })?;
            }
            newline(out, inner)?;
            if let Some(key) = key {
                write!(out, "\"{}\": ", escape(key))?;
            }
            value.write_to(out, inner)?;
        }
        if !items.is_empty() {
            newline(out, indent)?;
        }
        out.write_char(close)
    }
}

/// The document on one line (see [`Json::pretty`] for the indented
/// form).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, None)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

/// Numbers. A JSON number is an `f64`, so integers are exact up to 2^53.
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Number(n as f64)
            }
        }
    )*};
}
from_number!(f64, u64, usize);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

/// Formats an `f64` as a JSON number: finite values roundtrip, and
/// non-finite values (not representable in JSON) degrade to `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Integral values print without the trailing ".0" that Rust's
        // Display would add, matching what other tools emit.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// A JSON parse error with a byte offset for context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Arrays and objects nested deeper than this are a [`ParseError`],
/// not a stack overflow. The deepest document the workspace writes, a
/// bench snapshot's histogram bucket, sits six levels down.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Total: any input returns, and input
/// nested past [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        text: input,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both, always at a character
    /// boundary.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode when paired,
                            // replace when lone.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.unwrap_or('\u{fffd}'));
                            // hex4 leaves pos past the digits; undo the
                            // unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once: both are ASCII, so the run ends on a
                    // character boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Finite JSON values nested up to the given depth, with strings
    /// full of characters that need escaping.
    struct AnyJson(u32);

    fn any_string(rng: &mut TestRng) -> String {
        const CHARS: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '😀',
        ];
        let len = rng.next_u64() % 6;
        (0..len)
            .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
            .collect()
    }

    impl Strategy for AnyJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.0 == 0 { 4 } else { 6 };
            let len = rng.next_u64() % 4;
            match rng.next_u64() % kinds {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::Number(match rng.next_u64() % 3 {
                    0 => (rng.next_u64() % 2000) as f64 - 1000.0,
                    1 => rng.unit_f64() * 1e6 - 5e5,
                    _ => loop {
                        let v = f64::from_bits(rng.next_u64());
                        if v.is_finite() {
                            break v;
                        }
                    },
                }),
                3 => Json::String(any_string(rng)),
                4 => Json::Array(
                    (0..len)
                        .map(|_| AnyJson(self.0 - 1).generate(rng))
                        .collect(),
                ),
                _ => Json::Object(
                    (0..len)
                        .map(|_| (any_string(rng), AnyJson(self.0 - 1).generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn compact_and_pretty_renders_parse_back(v in AnyJson(4)) {
            prop_assert_eq!(parse(&v.to_string()), Ok(v.clone()));
            prop_assert_eq!(parse(&v.pretty()), Ok(v));
        }
    }

    #[test]
    fn renders_separate_items_and_indent_two_spaces() {
        let doc = Json::object([
            (
                "b",
                Json::Array(vec![1.0.into(), "x\"y".into(), Json::Null]),
            ),
            (
                "a",
                Json::object([("t", Json::Bool(true)), ("e", Json::Array(vec![]))]),
            ),
            ("c", Json::object::<&str>([])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"a": {"e": [], "t": true}, "b": [1, "x\"y", null], "c": {}}"#
        );
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": {\n    \"e\": [],\n    \"t\": true\n  },\n  \"b\": [\n    1,\n    \"x\\\"y\",\n    null\n  ],\n  \"c\": {}\n}"
        );
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(3usize)).pretty(), "3");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each character once re-validated the whole rest of the input,
        // which took minutes on a 100,000-event trace.
        let long = "é\\\"x".repeat(1 << 20);
        let doc = Json::Array(vec![Json::String(long.clone()), Json::String(long)]);
        let start = std::time::Instant::now();
        assert_eq!(parse(&doc.to_string()), Ok(doc));
        assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\": "] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"traceEvents":[{"ph":"B","ts":1.5,"args":{"ok":true,"n":null}},[1,-2,3e2]],"s":"a\"b\né"}"#;
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            events[0].get("args").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(events[1].as_array().unwrap()[2].as_f64(), Some(300.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\né"));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain/name"), "plain/name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" back\\slash \n tab\t control\u{1} é";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(3.25), "3.25");
        assert_eq!(number(f64::NAN), "null");
    }
}
