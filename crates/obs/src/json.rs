//! Minimal JSON rendering and parsing for JSONL export.
//!
//! The build environment is offline, so instead of a serde backend this
//! module renders a small [`Json`] value tree by hand with correct string
//! escaping, and provides the matching recursive-descent [`Json::parse`]
//! used by the `son-trace` analyzer to read exports back. Numbers follow
//! JSON rules: non-finite floats render as `null`.

use core::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (`null` if not finite).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(&str, Json)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Renders into `out` (single line, no trailing newline).
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{}` prints the shortest representation that round-trips.
                    let _ = write!(out, "{v}");
                    // Bare integers like `3` are valid JSON numbers already.
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders to a fresh string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a non-negative
    /// integral float, as produced by lossy exporters).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (e.g. one JSONL row).
    ///
    /// Integral numbers without sign parse as [`Json::U64`], negative
    /// integers as [`Json::I64`], everything else numeric as [`Json::F64`]
    /// — matching what [`Json::render`] emits, so rows round-trip.
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message for malformed input, including
    /// trailing garbage after the document and arrays or objects nested
    /// more than 128 deep (the parser recurses once per level, so an
    /// unbounded `[[[[…` line would overflow the stack).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every row the
/// stack writes is at most five levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundaries sit on ASCII bytes, so this is valid UTF-8.
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1;
                                self.eat("\\u")?;
                                self.pos -= 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = core::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if negative {
                if let Ok(v) = s.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        s.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Writes `s` as a quoted, escaped JSON string into `out`.
pub fn escape_into(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_json(), "null");
        assert_eq!(Json::Bool(true).to_json(), "true");
        assert_eq!(Json::U64(42).to_json(), "42");
        assert_eq!(Json::I64(-7).to_json(), "-7");
        assert_eq!(Json::F64(2.5).to_json(), "2.5");
        assert_eq!(Json::F64(f64::NAN).to_json(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::str("plain").to_json(), "\"plain\"");
        assert_eq!(Json::str("a\"b\\c").to_json(), "\"a\\\"b\\\\c\"");
        assert_eq!(
            Json::str("line\nbreak\ttab").to_json(),
            "\"line\\nbreak\\ttab\""
        );
        assert_eq!(Json::str("\u{1}").to_json(), "\"\\u0001\"");
        assert_eq!(
            Json::str("unicode: émoji ✓").to_json(),
            "\"unicode: émoji ✓\""
        );
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = Json::obj(vec![
            ("name", Json::str("run,with \"quotes\"\nand\\slash")),
            ("values", Json::Arr(vec![Json::U64(1), Json::I64(-2)])),
            ("f", Json::F64(2.5)),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
            ("nested", Json::obj(vec![("empty", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let v = Json::parse(" { \"k\" : [ \"a\\u0041\\t\", 3 ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap(),
            &Json::Arr(vec![Json::str("aA\t"), Json::U64(3)])
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_refuses_nesting_deeper_than_the_bound() {
        for deep in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let over = format!("[{at_bound}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::obj(vec![
            ("u", Json::U64(7)),
            ("s", Json::str("x")),
            ("b", Json::Bool(false)),
            ("f", Json::F64(8.0)),
        ]);
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("f").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("u").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
    }

    #[test]
    fn composites_render() {
        let v = Json::obj(vec![
            ("name", Json::str("run")),
            ("values", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("nested", Json::obj(vec![("ok", Json::Bool(false))])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"name":"run","values":[1,2],"nested":{"ok":false}}"#
        );
    }
}
