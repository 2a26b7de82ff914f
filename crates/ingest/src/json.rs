//! A minimal JSON parser — the import half of cohort save/load — and the
//! workspace's one JSON string escaper, [`write_string`].
//!
//! `pastas-core`'s extraction task exports cohorts as JSON; research
//! workflows bring them back ("get ideas for the best analysis strategies,"
//! then return to the visualization). The parser is a strict recursive-
//! descent RFC 8259 reader: objects, arrays, strings with escapes
//! (including `\uXXXX` and surrogate pairs), numbers, booleans, null.
//! No serde, same as every other codec in the workspace.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; the formats we read stay in range).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (sorted keys, deterministic iteration).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// anything else is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }

    /// Object member access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element access.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Array(v) => v.get(index),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// A JSON syntax error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset.
    pub position: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Append `s` to `out` as a JSON string literal: quoted, with `"`, `\`
/// and every control character below U+0020 escaped (RFC 8259) — `\n`,
/// `\r` and `\t` by name, the rest as `\u00XX`. Every hand-rolled JSON
/// writer in the workspace (explain plans, exports, profiles, the serve
/// responses, bench files) quotes its strings here; [`Json::parse`] reads
/// the literal back as exactly `s`.
pub fn write_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.reserve(s.len() + 2);
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

/// The deepest nesting of arrays and objects a document may have. The
/// parser, and the drop of the value it builds, recurse once a level, so
/// a request-sized document nested past this is refused rather than
/// overflowing the stack.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), position: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one array or object a level deeper, refusing past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or_else(|| self.err("bad codepoint"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Copy the run up to the next `"`, `\` or control byte
                    // in one slice. The three stops are ASCII, so both cuts
                    // fall on char boundaries of the (UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]);
                    out.push_str(run.map_err(|_| self.err("bad UTF-8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else { return Err(self.err("short \\u escape")) };
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>().map(Json::Number).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.25e2").unwrap(), Json::Number(-325.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(|a| a.at(0)).and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("a").and_then(|a| a.at(1)).and_then(|o| o.get("b")), Some(&Json::Null));
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn surrogate_pairs() {
        // 😀 U+1F600 = 😀
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\uD83D""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\uD83Dx""#).is_err());
    }

    #[test]
    fn unicode_pass_through() {
        let v = Json::parse("\"tromsø — æøå\"").unwrap();
        assert_eq!(v.as_str(), Some("tromsø — æøå"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(BTreeMap::new()));
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(Vec::new()));
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Array(Vec::new()));
    }

    /// Arrays and objects nested past `MAX_NESTING` are a typed error,
    /// also on a 2 MiB thread (the std default a server worker runs on),
    /// where 10,000 levels used to overflow the stack.
    #[test]
    fn nesting_is_capped_on_a_small_stack() {
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                let nest = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
                assert!(Json::parse(&nest(MAX_NESTING)).is_ok());
                for n in [MAX_NESTING + 1, 10_000] {
                    let e = Json::parse(&nest(n)).unwrap_err();
                    assert!(e.message.contains("nested deeper"), "{open:?} x {n}: {e}");
                }
            }
        });
        worker.expect("spawn").join().expect("no panic, no overflow");
    }

    #[test]
    fn errors_with_positions() {
        for bad in ["", "{", "[1,", "{\"a\"}", "[1 2]", "tru", "\"abc", "01x", "{}{}", "[1,]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.position, 4);
    }

    #[test]
    fn whitespace_tolerance() {
        let v = Json::parse("  {\n\t\"a\" : 1 ,\r\n \"b\":2 }  ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(2.0));
    }

    /// One string of 1 MiB parses in linear time: each plain run is
    /// copied once, not re-validated from its start to the document's end.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let text: String = "tromsø — æøå ".chars().cycle().take(1 << 20).collect();
        let mut doc = String::new();
        write_string(&mut doc, &format!("{text}\"\n{text}"));
        let t = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert!(t.elapsed().as_secs_f64() < 1.0, "took {:?}", t.elapsed());
        assert_eq!(parsed.as_str(), Some(format!("{text}\"\n{text}").as_str()));
    }

    #[test]
    fn control_chars_rejected_raw_but_fine_escaped() {
        assert!(Json::parse("\"a\nb\"").is_err());
        assert_eq!(Json::parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
    }
}
