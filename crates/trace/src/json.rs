//! The workspace's one JSON value: a parser and its inverse writer.
//!
//! Every JSON artifact the tree emits (`BENCH_exec.json`,
//! `BENCH_serve.json`, `halide-fuzz --stats-out`, the chrome://tracing
//! export) is built as a [`JsonValue`] and written by [`JsonValue::write`]
//! or [`JsonValue::write_pretty`]; the same type is what
//! [`JsonValue::parse`] returns, so whatever is written can be read back
//! and compared.

use std::fmt::Write as _;

/// A JSON document. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what a non-finite [`JsonValue::Number`] is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written and parsed exactly (wide enough for every `u64`
    /// and `i64`).
    Int(i128),
    /// A number with a fraction or exponent.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as `(key, value)` pairs in insertion order.
    Object(Vec<(String, JsonValue)>),
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(i64, u32, u64, usize);

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>, V: Into<JsonValue>>(
        fields: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// `x` rounded to `places` decimals — how the harnesses keep their
    /// artifacts short (`12.346`, not `12.345678901234`).
    pub fn rounded(x: f64, places: i32) -> Self {
        let scale = 10f64.powi(places);
        JsonValue::Number((x * scale).round() / scale)
    }

    /// The value under `key` if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(json: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: json.as_bytes(),
            pos: 0,
        };
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Appends the compact form (no whitespace) to `out`.
    pub fn write(&self, out: &mut String) {
        self.write_at(out, None);
    }

    /// Appends an indented form to `out`: two spaces per level, with any
    /// array or object that holds only scalars (or arrays of scalars) kept
    /// on one line, so a table of rows stays one row per line.
    pub fn write_pretty(&self, out: &mut String) {
        self.write_at(out, Some(0));
        out.push('\n');
    }

    /// A scalar, or an array of them (`[64, 32]`): what a one-line row may hold.
    fn is_flat(&self) -> bool {
        match self {
            JsonValue::Array(items) => !items
                .iter()
                .any(|v| matches!(v, JsonValue::Array(_) | JsonValue::Object(_))),
            JsonValue::Object(_) => false,
            _ => true,
        }
    }

    /// `depth` is `None` for compact output, else the current nesting level.
    fn write_at(&self, out: &mut String, depth: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `{:?}` keeps a fraction or exponent on whole values (`1.0`,
            // `1e21`), so a float never reads back as an integer.
            JsonValue::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            JsonValue::Number(_) => out.push_str("null"),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                let inline = items.iter().all(JsonValue::is_flat);
                write_container(out, depth, inline, ('[', ']'), items, |v, out, d| {
                    v.write_at(out, d)
                });
            }
            JsonValue::Object(fields) => {
                let inline = fields.iter().all(|(_, v)| v.is_flat());
                write_container(out, depth, inline, ('{', '}'), fields, |(k, v), out, d| {
                    write_string(k, out);
                    out.push_str(if d.is_some() { ": " } else { ":" });
                    v.write_at(out, d);
                });
            }
        }
    }
}

/// Writes `items` between `open` and `close`: compact when `depth` is
/// `None`, on one spaced line when `inline`, else one item per line.
fn write_container<T>(
    out: &mut String,
    depth: Option<usize>,
    inline: bool,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&T, &mut String, Option<usize>),
) {
    // What separates brackets and items: nothing, a space, or a new line
    // indented `level` deeper than this container.
    let gap = |out: &mut String, level: usize| match depth {
        None => {}
        Some(_) if inline => out.push(' '),
        Some(d) => {
            out.push('\n');
            out.push_str(&"  ".repeat(d + level));
        }
    };
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        gap(out, 1);
        write_item(item, out, depth.map(|d| d + 1));
    }
    if !items.is_empty() {
        gap(out, 0);
    }
    out.push(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

fn escape_into(s: &str, out: &mut String) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // No fraction or exponent: an exact integer (one too long even for
        // i128 falls through to the nearest float).
        if let Ok(i) = text.parse::<i128>() {
            return Ok(JsonValue::Int(i));
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at offset {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
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
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad unicode escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("bad escape".into()),
                    }
                }
                _ => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    let len = match b {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        _ => 3,
                    };
                    let start = self.pos - 1;
                    self.pos += len;
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or("bad utf-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compact text in the writer's own spelling: quotes, control
    /// characters, non-ASCII, extreme integers, whole/huge/tiny floats,
    /// nested and empty containers.
    const CANONICAL: &str = r#"{"quote \"and\" \\ slash":"tab\there\nnewline","control":"\u0001\u001f café 😀","neg":-9223372036854775808,"big":18446744073709551615,"whole_float":3.0,"huge_float":1e300,"tiny_float":-2.5e-9,"flags":[true,false],"nothing":null,"nested":[{"rows":[1,2,3]},[],{},[[0.5]]]}"#;

    #[test]
    fn write_is_the_inverse_of_parse() {
        let doc = JsonValue::parse(CANONICAL).unwrap();
        assert_eq!(doc.get("big"), Some(&JsonValue::from(u64::MAX)));
        assert_eq!(doc.get("neg"), Some(&JsonValue::from(i64::MIN)));
        assert_eq!(doc.get("whole_float"), Some(&JsonValue::Number(3.0)));
        let control = JsonValue::from("\u{1}\u{1f} café 😀");
        assert_eq!(doc.get("control"), Some(&control));

        let mut compact = String::new();
        doc.write(&mut compact);
        assert_eq!(compact, CANONICAL);
        let mut pretty = String::new();
        doc.write_pretty(&mut pretty);
        assert_eq!(JsonValue::parse(&pretty), Ok(doc));
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let mut out = String::new();
        JsonValue::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5]).write(&mut out);
        assert_eq!(out, "[null,null,null,1.5]");
    }

    #[test]
    fn pretty_keeps_scalar_rows_on_one_line() {
        let row = |app: &str, ms: f64| {
            JsonValue::object([("app", JsonValue::from(app)), ("ms", ms.into())])
        };
        let doc = JsonValue::object([("rows", vec![row("Blur", 1.5), row("Histogram", 2.0)])]);
        let mut out = String::new();
        doc.write_pretty(&mut out);
        let expected = r#"{
  "rows": [
    { "app": "Blur", "ms": 1.5 },
    { "app": "Histogram", "ms": 2.0 }
  ]
}
"#;
        assert_eq!(out, expected);
    }

    #[test]
    fn rounded_trims_to_the_requested_places() {
        assert_eq!(JsonValue::rounded(12.345678, 3), JsonValue::Number(12.346));
        assert_eq!(JsonValue::rounded(0.96, 1), JsonValue::Number(1.0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "not json",
            r#"{"a":}"#,
            "[1,]",
            r#"{"a":1} x"#,
            "\"open",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
