//! A minimal JSON parser, used to validate exporter output in-repo.
//!
//! The workspace emits JSON through `hfast_obs::JsonObj` but — with the
//! crate registry unreachable — has never had a *parser* to check that
//! what we emit actually parses. The Perfetto exporter's round-trip
//! property test closes that loop: export, [`parse`], and walk the tree.
//! Recursive descent, full escape handling, no allocation tricks.
//!
//! The same parser reads every `hfast-serve` frame, so
//! it is bounded against hostile input: containers nested deeper than
//! [`MAX_DEPTH`] are an error, not a stack overflow.

/// Deepest container nesting [`parse`] accepts. Recursion depth follows
/// input depth, and a frame of `[` bytes costs its sender nothing, so the
/// bound is fixed here and not left to the thread's stack size; 64 is
/// ten times what any document this workspace emits nests.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    /// Parses one value with `depth` containers open around it.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(pairs)),
                got => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                got => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
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
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("lone high surrogate".into());
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("bad low surrogate".into());
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined).ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("bad \\u escape")?
                        };
                        out.push(c);
                    }
                    got => {
                        return Err(format!(
                            "bad escape {:?} at byte {}",
                            got.map(|g| g as char),
                            self.pos.saturating_sub(1)
                        ))
                    }
                },
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos - 1))
                }
                Some(b) => {
                    // Re-borrow the original slice to copy UTF-8 intact.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(format!("bad UTF-8 lead byte at {start}")),
                        };
                        let end = start + width;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or("truncated UTF-8 sequence")?;
                        let s = std::str::from_utf8(chunk)
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or("truncated \\u escape")?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit at byte {}", self.pos - 1))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b").unwrap(), &JsonValue::Null);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let pair = parse(r#""😀""#).unwrap();
        assert_eq!(pair.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("1 2").is_err(), "trailing data");
        assert!(parse(r#""\ud800x""#).is_err(), "lone surrogate");
        assert!(parse("nul").is_err());
    }

    /// Depth is bounded by a constant, not by the stack: a million open
    /// brackets (arrays, objects, or both) is an error like any other.
    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for text in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"a\":", "}", MAX_DEPTH + 1),
            nest("[{\"a\":", "}]", 500_000),
            "[".repeat(1_000_000),
            "{\"a\":".repeat(1_000_000),
        ] {
            let err = parse(&text).expect_err("too deep");
            assert!(err.starts_with("nesting deeper than 64"), "{err}");
        }
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn u64_extraction() {
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_jsonobj_output() {
        let line = hfast_obs::JsonObj::new()
            .str("name", "a\"b\\c\nd")
            .u64("bytes", 4096)
            .f64_p("ratio", 1.0 / 3.0, 3)
            .bool("ok", true)
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.333));
        assert_eq!(v.get("ok").unwrap(), &JsonValue::Bool(true));
    }

    #[test]
    fn preserves_multibyte_utf8() {
        let v = parse("\"héllo — ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — ✓"));
    }
}
