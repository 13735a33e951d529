//! A small JSON value: build it, print it (compact or 2-space pretty),
//! read it back.
//!
//! Figure artefacts, `--json` output and the `## Raw data` block of
//! EXPERIMENTS.md go through [`Json`]; the scrape tests read the
//! observability layer's hand-assembled JSON with [`Json::from_str`].
//! Objects keep their keys sorted and finite floats print shortest
//! round-trip with the `.0` of integral values kept (`57201.0`), so a
//! document prints the same bytes from run to run and across the
//! writers this replaced.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer; the reader yields one for `i64::MIN..=u64::MAX` only.
    Int(i128),
    /// A float; NaN and the infinities print as `null`.
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    /// Key-sorted.
    Object(BTreeMap<String, Json>),
}

/// What a missing key indexes to.
static NULL: Json = Json::Null;

impl Json {
    /// An object of the given entries (a repeated key keeps the last).
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Multi-line rendering, two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is the current nesting level, `None` for compact output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => push_str_literal(out, s),
            Json::Array(items) => {
                write_seq(out, indent, ['[', ']'], items.iter(), |out, item, inner| {
                    item.write(out, inner)
                });
            }
            Json::Object(map) => {
                write_seq(out, indent, ['{', '}'], map.iter(), |out, (key, value), inner| {
                    push_str_literal(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                });
            }
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: I,
    each: impl Fn(&mut String, I::Item, Option<usize>),
) {
    let newline = |out: &mut String, level: Option<usize>| {
        if let Some(level) = level {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", level));
        }
    };
    let inner = indent.map(|level| level + 1);
    let empty = items.len() == 0;
    out.push(open);
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        each(out, item, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(close);
}

/// Escapes `v` into `out` as a JSON string literal — the one escaper
/// every JSON writer of the workspace uses.
pub fn push_str_literal(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Compact rendering (no whitespace).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `value["key"]`; [`Json::Null`] for a missing key or a non-object.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.as_object().and_then(|map| map.get(key)).unwrap_or(&NULL)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
/// `i32` is what an unsuffixed integer literal is.
macro_rules! from_integer {
    ($($int:ty)*) => {$(
        impl From<$int> for Json {
            fn from(v: $int) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
from_integer!(i32 i64 u32 u64 usize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::from(v.to_vec())
    }
}
/// A pair is a two-element array.
impl<A: Into<Json>, B: Into<Json>> From<(A, B)> for Json {
    fn from((a, b): (A, B)) -> Json {
        Json::Array(vec![a.into(), b.into()])
    }
}

/// `json_object! { "key": value, … }` — an object literal; each value is
/// anything `Json::from` takes (nest by calling the macro again).
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),+ $(,)?) => {
        $crate::json::Json::object([$(($key, $crate::json::Json::from($value))),+])
    };
}

/// Why a text is not JSON, and the byte offset where reading stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Nesting the reader accepts before giving up (it recurses per level).
const MAX_DEPTH: usize = 128;

impl FromStr for Json {
    type Err = ParseError;
    fn from_str(text: &str) -> Result<Json, ParseError> {
        let mut r = Reader { text, pos: 0 };
        let value = r.value(0)?;
        r.skip_ws();
        if r.pos < text.len() {
            return r.fail("trailing characters");
        }
        Ok(value)
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, what: &'static str) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos, what })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(token);
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return self.fail("nested too deeply");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.seq(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.skip_ws();
                    if !r.eat(":") {
                        return r.fail("expected ':'");
                    }
                    map.insert(key, r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Object(map))
            }
            _ => self.fail("expected a value"),
        }
    }

    /// The comma-separated body of an array or object, brackets included.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected ',' or a closing bracket"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat("\"") {
            return self.fail("expected a string");
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(c) = rest.chars().next() else { return self.fail("unterminated string") };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.peek() else { return self.fail("unterminated escape") };
                    self.pos += 1;
                    out.push(match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return self.fail("unknown escape"),
                    });
                }
                c if (c as u32) < 0x20 => return self.fail("control character in string"),
                c => out.push(c),
            }
        }
    }

    /// The `XXXX` of a `\uXXXX`, plus the low half of a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF if self.eat("\\u") => {
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return self.fail("unpaired surrogate");
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            _ => hi,
        };
        char::from_u32(code).map_or_else(|| self.fail("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        match u32::from_str_radix(digits, 16) {
            Ok(code) if digits.bytes().all(|b| b.is_ascii_hexdigit()) => {
                self.pos += 4;
                Ok(code)
            }
            _ => self.fail("expected four hex digits"),
        }
    }

    /// Lenient on shape (`01`, `1.` read as numbers), strict on range.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let in_64_bits = |v: &i128| (i64::MIN as i128..=u64::MAX as i128).contains(v);
        let integer = token.parse::<i128>().ok().filter(in_64_bits).map(Json::Int);
        // An integer too large for 64 bits reads as the nearest float.
        let float = || token.parse::<f64>().ok().filter(|v| v.is_finite()).map(Json::F64);
        match integer.or_else(float) {
            Some(number) => Ok(number),
            None => {
                self.pos = start;
                self.fail("malformed or out-of-range number")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_like_the_writers_it_replaced() {
        let doc = json_object! {
            "z": 1, "a": 57201.0, "neg": -3, "big": u64::MAX, "nan": f64::NAN,
            "s": "q\"b\\n\nt\tc\u{1}é", "list": vec![1u64, 2], "none": Json::Null,
            "pairs": vec![(1usize, 2usize)], "empty": Json::Array(vec![]),
            "obj": Json::object::<&str>([]), "flag": true, "tiny": 5e-324, "minus_zero": -0.0,
        };
        assert_eq!(
            doc.to_string(),
            "{\"a\":57201.0,\"big\":18446744073709551615,\"empty\":[],\"flag\":true,\
             \"list\":[1,2],\"minus_zero\":-0.0,\"nan\":null,\"neg\":-3,\"none\":null,\"obj\":{},\
             \"pairs\":[[1,2]],\"s\":\"q\\\"b\\\\n\\nt\\tc\\u0001é\",\"tiny\":5e-324,\"z\":1}"
        );
        let small = json_object! { "k": vec![1u64, 2], "o": json_object! { "x": 0.5 } };
        assert_eq!(
            small.pretty(),
            "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"o\": {\n    \"x\": 0.5\n  }\n}"
        );
        assert_eq!(small["o"]["x"].as_f64(), Some(0.5));
        assert_eq!(small["missing"]["deeper"], Json::Null);
    }

    #[test]
    fn reads_foreign_escapes_and_numbers() {
        let text = r#" [ "\u00e9\ud83d\ude00\/\b", 1e3, -0.25E-2, 18446744073709551616, -9223372036854775808 ] "#;
        let expected = vec![
            Json::Str("é😀/\u{8}".into()),
            Json::F64(1000.0),
            Json::F64(-0.0025),
            Json::F64(18446744073709551616.0),
            Json::Int(i64::MIN as i128),
        ];
        assert_eq!(text.parse(), Ok(Json::Array(expected)));
    }

    #[test]
    fn rejects_what_is_not_json() {
        let bad = r#"|{|[1,]|{"a" 1}|{"a":1,}|.5|-|1e|1e999|1-2|tru|nul|"abc|"\x"|"\ud800"|1 2|{1:2}|[1 2]|+1|NaN"#;
        for text in bad.split('|').chain(["\"\\ud800\\u0041\"", "\"\\u12\"", "\"a\nb\""]) {
            assert!(text.parse::<Json>().is_err(), "accepted {text:?}");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(nested(MAX_DEPTH).parse::<Json>().is_ok());
        assert_eq!(nested(MAX_DEPTH + 2).parse::<Json>().unwrap_err().what, "nested too deeply");
    }
}
