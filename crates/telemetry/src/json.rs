//! A minimal JSON value type with a writer and a parser.
//!
//! The build environment is offline (no `serde_json`), and before this module
//! every bench binary hand-rolled its JSON with `String::push_str` — easy to
//! unbalance and impossible to read back. [`Json`] is the shared replacement:
//! an ordered-key value tree, a pretty/compact writer, and a small
//! recursive-descent [`parse`] so tests can validate emitted documents
//! structurally (the chrome://tracing export in particular) instead of by
//! substring matching.
//!
//! Numbers are stored as canonical JSON number *text* ([`Json::Num`]): the
//! writer never re-rounds a value it was given, `parse` → write round-trips
//! exactly, and bench binaries keep full control over printed precision via
//! [`Json::fixed`].

use std::fmt;

/// A JSON value. Object keys keep insertion order, so emitted documents are
/// deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its canonical JSON text (e.g. `"0.97"`, `"4096"`).
    Num(String),
    /// A string (unescaped; escaping happens in the writer).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An unsigned-integer number value.
    #[must_use]
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A signed-integer number value.
    #[must_use]
    pub fn i64(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// A float number value with shortest round-trip formatting. Non-finite
    /// values have no JSON representation and become `null`.
    #[must_use]
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// A float number value printed with a fixed number of decimals — the
    /// bench binaries' report precision. Non-finite values become `null`.
    #[must_use]
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `f64`, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The numeric value as `u64`, when this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline — the
    /// format the `BENCH_*.json` evidence files are committed in.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialises without any whitespace — one line, for JSON-lines streams.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Core writer; `indent` is `Some(depth)` for pretty output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, items.len(), '[', ']', |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, pairs.len(), '{', '}', |out, i, ind| {
                let (key, value) = &pairs[i];
                write_escaped(out, key);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                value.write(out, ind);
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Shared array/object layout: compact when `indent` is `None`, otherwise one
/// element per line at `depth + 1`.
fn write_seq<F: Fn(&mut String, usize, Option<usize>)>(
    out: &mut String,
    indent: Option<usize>,
    len: usize,
    open: char,
    close: char,
    item: F,
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        item(out, i, indent.map(|d| d + 1));
    }
    if let Some(depth) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Writes a string literal with the escapes JSON requires (quote, backslash,
/// and control characters; everything else passes through as UTF-8).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. The whole input must be one value (trailing
/// whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] with the failing byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .expect("parser input is a &str, so every suffix is valid UTF-8");
                    let c = s.chars().next().expect("peeked byte implies a char");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes `\uXXXX`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect(b'u')?;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.error("invalid low surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
            } else {
                return Err(self.error("unpaired high surrogate"));
            }
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans are ASCII")
            .to_string();
        Ok(Json::Num(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_prints_pretty() {
        let doc = Json::obj(vec![
            ("name", Json::str("demo")),
            ("count", Json::u64(3)),
            ("ratio", Json::fixed(0.96789, 2)),
            (
                "items",
                Json::Arr(vec![Json::u64(1), Json::Null, Json::Bool(true)]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = doc.to_string_pretty();
        assert!(text.contains("\"ratio\": 0.97"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn round_trips_through_parse() {
        let doc = Json::obj(vec![
            ("s", Json::str("a \"quoted\"\nline\tand \\slash")),
            ("neg", Json::i64(-42)),
            ("exp", Json::Num("1.5e-3".into())),
            (
                "nested",
                Json::obj(vec![("k", Json::Arr(vec![Json::f64(0.5)]))]),
            ),
        ]);
        for text in [doc.to_string_pretty(), doc.to_string_compact()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = parse(r#"["\u00e9", "\ud83d\ude00", "\/"]"#).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("é"));
        assert_eq!(items[1].as_str(), Some("😀"));
        assert_eq!(items[2].as_str(), Some("/"));
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": 4096, "b": -1.5, "c": true, "d": [1]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(4096));
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(
            doc.get("d").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("a").unwrap().as_str(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"k\" 1}",
            "nul",
            "1 2",
            "\"open",
            "[1]]",
            "{\"k\":}",
            "-",
            "1.",
            "1e",
            "\"\\u12\"",
            "\"\\q\"",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY), Json::Null);
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }
}
