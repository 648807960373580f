//! Minimal JSON model, writer and parser.
//!
//! The workspace builds fully offline, so everything that persists JSON —
//! the campaign's JSONL corpus and checkpoint journal, the campaign status
//! endpoint, metrics snapshots and Chrome-trace exports — serializes through
//! this small, dependency-free JSON implementation. It lives in
//! `tqs-telemetry` (the bottom of the crate graph) so every layer can reach
//! it.
//!
//! Design notes:
//!
//! * Numbers are stored as [`f64`]. Anything that must round-trip exactly at
//!   64-bit width (plan fingerprints, row values) is written as a string by
//!   its owner; this module never guesses.
//! * The parser is a plain recursive-descent over the full grammar (strings
//!   with escapes, `\uXXXX` included) and rejects trailing garbage — a
//!   truncated corpus line (a campaign killed mid-write) surfaces as an
//!   error, which resume treats as "drop the partial tail line".

use std::fmt;

/// A JSON value. Object order is preserved (insertion order), so emitted
/// files are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `usize` count (counts in this codebase comfortably fit in f64's
    /// 53-bit integer range).
    pub fn count(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().map(|n| n as usize)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document; trailing non-whitespace is an error, and so
    /// is nesting arrays and objects more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Parse error with byte offset, so a corrupt corpus line is diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn escape_into(out: &mut String, s: &str) {
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // NaN/∞ have no JSON representation: reject them to
                    // `null` rather than emit a token no parser (including
                    // ours) accepts, which would tear the enclosing line.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:?}")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// How deep [`Json::parse`] nests arrays and objects before it gives up with
/// an error. The parser recurses once per level, so without a bound a damaged
/// line of `[[[[…` would overflow the stack and abort the process; nothing
/// this workspace writes comes near the bound.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object a level deeper, or fail past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the longest run of plain bytes in one push.
                    let start = self.pos - 1;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("campaign")),
            ("count".into(), Json::count(42)),
            ("ratio".into(), Json::Num(2.5)),
            ("on".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::str("a\"b\\c\nd"), Json::count(0)]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_standard_json_with_whitespace_and_escapes() {
        let v =
            Json::parse(r#" { "a" : [ 1 , -2.5e1 , "xA\t" ] , "b" : { } , "c" : null } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(-25.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("xA\t")
        );
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_truncated_documents() {
        assert!(Json::parse("{\"a\": [1, 2").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("deeper"), "{err}");
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&format!("{}1", r#"{"a":"#.repeat(200_000))).is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::count(7).to_string(), "7");
        assert_eq!(Json::Num(1.25).to_string(), "1.25");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"s":"x","n":3,"b":false}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // The writer refuses to emit tokens outside the JSON grammar…
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        // …and the parser refuses to accept them.
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        assert!(Json::parse("[1,NaN]").is_err());
    }
}

#[cfg(test)]
mod fuzz {
    //! Round-trip fuzzing of the writer/parser pair: random documents must
    //! survive `to_string` → `parse` exactly, and truncated documents must
    //! error instead of panicking.

    use super::*;
    use proptest::prelude::*;

    /// Strings exercising every escape path: quotes, backslashes, the named
    /// control escapes, raw C0 control chars (`\u{01}`–`\u{08}` take the
    /// `\uXXXX` path) and non-ASCII.
    const STRINGS: &str = "[a-zA-Z0-9\"\\\\\n\r\t\u{01}-\u{08}/ α-ωß]{0,16}";

    fn leaf() -> BoxedStrategy<Json> {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            // Integers in the exact-i64-print range.
            (-9_000_000_000_000i64..9_000_000_000_000).prop_map(|n| Json::Num(n as f64)),
            // Dyadic fractions round-trip f64 text exactly.
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64 / 64.0)),
            STRINGS.prop_map(Json::Str),
        ]
        .boxed()
    }

    fn arb_json(depth: u32) -> BoxedStrategy<Json> {
        if depth == 0 {
            return leaf();
        }
        prop_oneof![
            leaf(),
            proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((STRINGS, arb_json(depth - 1)), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn documents_round_trip_exactly(v in arb_json(3)) {
            let text = v.to_string();
            let back = Json::parse(&text)
                .map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
            prop_assert_eq!(&back, &v);
            // Serialization is deterministic (what compaction idempotence
            // leans on): a second trip prints the same bytes.
            prop_assert_eq!(back.to_string(), text);
        }

        #[test]
        fn string_escapes_round_trip(s in STRINGS) {
            let j = Json::str(s);
            let text = j.to_string();
            let back = Json::parse(&text)
                .map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
            prop_assert_eq!(back, j);
        }

        #[test]
        fn truncated_documents_error_instead_of_panicking(
            v in arb_json(2),
            cut in 0usize..10_000,
        ) {
            let text = v.to_string();
            prop_assert!(!text.is_empty());
            let mut at = cut % text.len();
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let prefix = &text[..at];
            match &v {
                // Containers and strings always need their closer, so every
                // strict prefix must fail to parse (never panic).
                Json::Arr(_) | Json::Obj(_) | Json::Str(_) => {
                    prop_assert!(Json::parse(prefix).is_err(), "parsed {prefix:?}");
                }
                // Scalar prefixes may legitimately parse ("12" from "123");
                // the property is only that nothing panics.
                _ => {
                    let _ = Json::parse(prefix);
                }
            }
        }
    }
}
