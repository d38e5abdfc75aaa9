//! The workspace's one JSON text format: the writer every report is
//! built with and the reader that parses those reports back.
//!
//! The workspace builds offline with no serde, so this module owns every
//! decision about JSON bytes — quoting, escaping, number rendering,
//! commas and brackets — and every producer (metrics rows, sweep
//! checkpoints and repros, lint and effect goldens, attribution
//! profiles, Chrome traces, the `BENCH_*.json` files) goes through it.
//!
//! Writer rules, all deterministic so equal values render to equal
//! bytes:
//!
//! * **Strings** escape `"` `\` `\n` `\r` `\t` with their short forms
//!   and every other U+0000–U+001F as `\u00xx`; all other characters,
//!   non-ASCII included, are written as UTF-8.
//! * **Numbers** render integers with `Display`, and `f64` either in
//!   Rust's shortest round-trip `Display` form (`0.1`, `-0`, `1e300`
//!   written out in full) or, through [`Fixed`], with a fixed number of
//!   decimal places. A value that is not finite renders as `0`.
//! * **Layout** is compact. The one hook is [`Obj::lines`] /
//!   [`Arr::lines`]: a newline before each member and before the closing
//!   bracket, which keeps one Chrome trace event per line.
//!
//! ```
//! use greenweb_trace::json::{self, Fixed, JsonValue};
//!
//! let mut out = String::new();
//! json::object(&mut out, |o| {
//!     o.field("app", "Todo \"v2\"")
//!         .field("ms", Fixed(1.0 / 3.0, 3))
//!         .field("line", None::<u32>)
//!         .arr("uids", |a| {
//!             a.item(1u64).item(2u64);
//!         });
//! });
//! assert_eq!(
//!     out,
//!     r#"{"app":"Todo \"v2\"","ms":0.333,"line":null,"uids":[1,2]}"#
//! );
//! let back = JsonValue::parse(&out).unwrap();
//! assert_eq!(back.get("app").and_then(JsonValue::as_str), Some("Todo \"v2\""));
//! ```

use std::fmt::{self, Write as _};

/// A value the writer can render in place.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// An `f64` rendered with a fixed number of decimal places (`{:.N}`).
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

/// Appends `s` with JSON string escaping, without the surrounding
/// quotes. The one escaper: every string the writer emits goes through
/// it.
fn escape(out: &mut String, s: &str) {
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so splitting the string
    // at those bytes never cuts a multi-byte character.
    for (i, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// `s` with JSON string escaping applied, without the surrounding
/// quotes, for text that embeds a JSON string by hand.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape(&mut out, s);
    out
}

/// The one float-to-JSON function: shortest round-trip `Display` when
/// `places` is `None`, fixed decimal places otherwise, and `0` for a
/// value that is not finite.
fn write_f64(out: &mut String, value: f64, places: Option<usize>) {
    if !value.is_finite() {
        out.push('0');
        return;
    }
    // Writing into a `String` cannot fail.
    let _ = match places {
        None => write!(out, "{value}"),
        Some(places) => write!(out, "{value:.places$}"),
    };
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self, None);
    }
}

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        write_f64(out, self.0, Some(self.1));
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_json!(bool, u32, u64, usize);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// A formatted value written as a JSON string, so `Display` types and
/// `format_args!` render without a temporary `String`.
impl ToJson for fmt::Arguments<'_> {
    fn write_json(&self, out: &mut String) {
        struct Escaping<'a>(&'a mut String);
        impl fmt::Write for Escaping<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                escape(self.0, s);
                Ok(())
            }
        }
        out.push('"');
        let _ = Escaping(out).write_fmt(*self);
        out.push('"');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, |a| {
            for item in self {
                a.item(item);
            }
        });
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// The members of one open object or array.
struct Members<'a> {
    out: &'a mut String,
    first: bool,
    lines: bool,
}

impl<'a> Members<'a> {
    fn open(out: &'a mut String, bracket: char) -> Self {
        out.push(bracket);
        Members {
            out,
            first: true,
            lines: false,
        }
    }

    /// Writes the separator before the next member and returns the
    /// output to write it into.
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        if self.lines {
            self.out.push('\n');
        }
        self.first = false;
        self.out
    }

    fn close(self, bracket: char) {
        if self.lines {
            self.out.push('\n');
        }
        self.out.push(bracket);
    }
}

/// An open JSON object; see [`object`].
pub struct Obj<'a>(Members<'a>);

/// An open JSON array; see [`array()`].
pub struct Arr<'a>(Members<'a>);

/// Appends one JSON object to `out`; `body` writes its members.
pub fn object(out: &mut String, body: impl FnOnce(&mut Obj<'_>)) {
    let mut obj = Obj(Members::open(out, '{'));
    body(&mut obj);
    obj.0.close('}');
}

/// Appends one JSON array to `out`; `body` writes its items.
pub fn array(out: &mut String, body: impl FnOnce(&mut Arr<'_>)) {
    let mut arr = Arr(Members::open(out, '['));
    body(&mut arr);
    arr.0.close(']');
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.write_json(out);
        out.push(':');
        out
    }

    /// Writes the member `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Writes the member `"key":{...}`; `body` writes the inner members.
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        object(self.key(key), body);
        self
    }

    /// Writes the member `"key":[...]`; `body` writes the items.
    pub fn arr(&mut self, key: &str, body: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        array(self.key(key), body);
        self
    }

    /// Puts a newline before each member and before the closing brace;
    /// call it before the first member.
    pub fn lines(&mut self) -> &mut Self {
        self.0.lines = true;
        self
    }
}

impl Arr<'_> {
    /// Appends one item.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// Appends one object item; `body` writes its members.
    pub fn obj(&mut self, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        object(self.0.next(), body);
        self
    }

    /// Appends one array item; `body` writes its items.
    pub fn arr(&mut self, body: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        array(self.0.next(), body);
        self
    }

    /// Puts a newline before each item and before the closing bracket;
    /// call it before the first item.
    pub fn lines(&mut self) -> &mut Self {
        self.0.lines = true;
        self
    }
}

/// A parsed JSON value.
///
/// The reader accepts what the writer emits — objects, arrays, strings
/// with the standard escapes, finite numbers, booleans and null — with
/// any whitespace between tokens. It is not a general-purpose JSON
/// library: `\u` escapes must name a scalar value (no surrogate pairs;
/// the writer only emits `\u` for control characters).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always read as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0C),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let c = char::from_u32(hex)
                            .ok_or_else(|| format!("bad \\u codepoint at byte {pos}"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_writer_emits() {
        let v = JsonValue::parse(
            "{\"job\":3,\"label\":\"a/b\",\"hist\":{\"buckets\":[[1,2],[3,4]]},\
             \"ok\":true,\"x\":null,\"f\":-1.5e2}",
        )
        .unwrap();
        assert_eq!(v.get("job").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("label").unwrap().as_str(), Some("a/b"));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
        let buckets = v.get("hist").unwrap().get("buckets").unwrap();
        assert_eq!(buckets.as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("123 tail").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn exact_integer_guard() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("-7").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("7.5").unwrap().as_u64(), None);
    }

    #[test]
    fn layout_and_number_rules() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.arr("events", |a| {
                a.lines().item(1u32).obj(|_| {}).arr(|_| {});
            })
            .field("nan", f64::NAN)
            .field("inf", Fixed(f64::INFINITY, 3))
            .field("fixed", Fixed(2.0, 2))
            .field("at", format_args!("{:04x}", 10));
        });
        assert_eq!(
            out,
            "{\"events\":[\n1,\n{},\n[]\n],\"nan\":0,\"inf\":0,\"fixed\":2.00,\"at\":\"000a\"}"
        );
    }
}
