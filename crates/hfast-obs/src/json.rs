//! The one JSON line builder.
//!
//! The daemon's drain summary, the trace export and `hfast-serve`'s wire
//! encoder all write JSON through [`JsonObj`] and [`escape_into`], so
//! escaping and number formatting are written once.

/// Incremental builder for one flat JSON object.
///
/// Fields appear in insertion order; keys are trusted to be plain
/// identifiers (no escaping is applied to keys), values are escaped.
///
/// ```
/// use hfast_obs::JsonObj;
/// let line = JsonObj::new()
///     .str("name", "alltoall")
///     .u64("bytes", 4096)
///     .f64_p("ratio", 1.0 / 3.0, 3)
///     .finish();
/// assert_eq!(line, r#"{"name":"alltoall","bytes":4096,"ratio":0.333}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field with fixed precision (non-finite → `null`).
    pub fn f64_p(mut self, k: &str, v: f64, precision: usize) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.precision$}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already valid JSON (e.g. a nested
    /// array built by the caller).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Appends `s` to `buf` with JSON string escaping.
pub fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_order_with_types() {
        let line = JsonObj::new()
            .str("a", "x")
            .u64("b", 7)
            .bool("d", true)
            .f64_p("e", 1.5, 1)
            .finish();
        assert_eq!(line, r#"{"a":"x","b":7,"d":true,"e":1.5}"#);
    }

    #[test]
    fn escapes_strings() {
        let line = JsonObj::new().str("s", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObj::new()
            .f64_p("nan", f64::NAN, 2)
            .f64_p("inf", f64::INFINITY, 2)
            .finish();
        assert_eq!(line, r#"{"nan":null,"inf":null}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn raw_embeds_verbatim() {
        let line = JsonObj::new().raw("hist", "[[7,2],[1023,5]]").finish();
        assert_eq!(line, r#"{"hist":[[7,2],[1023,5]]}"#);
    }
}
