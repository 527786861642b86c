//! Hand-rolled JSON: a value tree, a renderer, and a small validating
//! parser.
//!
//! The workspace builds fully offline with no external dependencies, so
//! run artifacts (`results/*.json`), JSONL event streams, and Chrome trace
//! files are serialized by this module instead of serde. The renderer is
//! deterministic — object fields keep insertion order, floats use Rust's
//! shortest-roundtrip formatting — which is what lets same-seed runs emit
//! byte-identical traces.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers (cycle counts can exceed `f64`'s 2^53 mantissa).
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Append a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            _ => panic!("Json::push on a non-object"),
        }
    }

    /// Parse one complete JSON document into a value tree. Returns `None`
    /// on malformed input or trailing garbage. Numbers parse as `U64` when
    /// they are non-negative integers in range, `I64` for negative
    /// integers, and `F64` otherwise — matching what [`Json::write`]
    /// emits, so render → parse round-trips.
    pub fn parse(input: &str) -> Option<Json> {
        let bytes = input.as_bytes();
        let (value, next) = parse_tree(bytes, skip_ws(bytes, 0), 0)?;
        (skip_ws(bytes, next) == bytes.len()).then_some(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
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
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips, and it
        // always includes a decimal point or exponent — valid JSON and
        // deterministic.
        out.push_str(&format!("{x:?}"));
    } else {
        // JSON has no NaN/Infinity.
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Validate that `input` is one complete JSON value (with surrounding
/// whitespace allowed). Used by tests to check that emitted artifacts are
/// well-formed without an external JSON crate.
pub fn is_valid(input: &str) -> bool {
    let bytes = input.as_bytes();
    let mut pos = skip_ws(bytes, 0);
    match parse_value(bytes, pos) {
        Some(next) => {
            pos = skip_ws(bytes, next);
            pos == bytes.len()
        }
        None => false,
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// Parse one value starting at `i`; return the index just past it.
fn parse_value(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'{' => parse_obj(b, i),
        b'[' => parse_arr(b, i),
        b'"' => parse_string(b, i),
        b't' => parse_lit(b, i, b"true"),
        b'f' => parse_lit(b, i, b"false"),
        b'n' => parse_lit(b, i, b"null"),
        b'-' | b'0'..=b'9' => parse_number(b, i),
        _ => None,
    }
}

fn parse_lit(b: &[u8], i: usize, lit: &[u8]) -> Option<usize> {
    if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
        Some(i + lit.len())
    } else {
        None
    }
}

fn parse_string(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'"' => return Some(i + 1),
            b'\\' => {
                let esc = *b.get(i + 1)?;
                match esc {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                    b'u' => {
                        if i + 6 > b.len() || !b[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) {
                            return None;
                        }
                        i += 6;
                    }
                    _ => return None,
                }
            }
            0x00..=0x1f => return None,
            _ => i += 1,
        }
    }
    None
}

fn parse_number(b: &[u8], mut i: usize) -> Option<usize> {
    let start = i;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let digits = |b: &[u8], mut i: usize| -> Option<usize> {
        let s = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        (i > s).then_some(i)
    };
    i = digits(b, i)?;
    if b.get(i) == Some(&b'.') {
        i = digits(b, i + 1)?;
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+') | Some(b'-')) {
            i += 1;
        }
        i = digits(b, i)?;
    }
    (i > start).then_some(i)
}

fn parse_arr(b: &[u8], i: usize) -> Option<usize> {
    let mut pos = skip_ws(b, i + 1);
    if b.get(pos) == Some(&b']') {
        return Some(pos + 1);
    }
    loop {
        pos = skip_ws(b, parse_value(b, pos)?);
        match b.get(pos)? {
            b',' => pos = skip_ws(b, pos + 1),
            b']' => return Some(pos + 1),
            _ => return None,
        }
    }
}

fn parse_obj(b: &[u8], i: usize) -> Option<usize> {
    let mut pos = skip_ws(b, i + 1);
    if b.get(pos) == Some(&b'}') {
        return Some(pos + 1);
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return None;
        }
        pos = skip_ws(b, parse_string(b, pos)?);
        if b.get(pos) != Some(&b':') {
            return None;
        }
        pos = skip_ws(b, pos + 1);
        pos = skip_ws(b, parse_value(b, pos)?);
        match b.get(pos)? {
            b',' => pos = skip_ws(b, pos + 1),
            b'}' => return Some(pos + 1),
            _ => return None,
        }
    }
}

/// Deepest nesting [`Json::parse`] accepts. Every artifact this workspace
/// writes nests a few levels; the bound keeps a garbage line of brackets
/// from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Parse one value starting at `i`, `depth` containers deep, building the
/// tree; return the value and the index just past it.
fn parse_tree(b: &[u8], i: usize, depth: usize) -> Option<(Json, usize)> {
    if depth > MAX_DEPTH {
        return None;
    }
    match b.get(i)? {
        b'{' => {
            let mut fields = Vec::new();
            let mut pos = skip_ws(b, i + 1);
            if b.get(pos) == Some(&b'}') {
                return Some((Json::Obj(fields), pos + 1));
            }
            loop {
                if b.get(pos) != Some(&b'"') {
                    return None;
                }
                let (key, next) = parse_string_tree(b, pos)?;
                pos = skip_ws(b, next);
                if b.get(pos) != Some(&b':') {
                    return None;
                }
                let (value, next) = parse_tree(b, skip_ws(b, pos + 1), depth + 1)?;
                fields.push((key, value));
                pos = skip_ws(b, next);
                match b.get(pos)? {
                    b',' => pos = skip_ws(b, pos + 1),
                    b'}' => return Some((Json::Obj(fields), pos + 1)),
                    _ => return None,
                }
            }
        }
        b'[' => {
            let mut items = Vec::new();
            let mut pos = skip_ws(b, i + 1);
            if b.get(pos) == Some(&b']') {
                return Some((Json::Arr(items), pos + 1));
            }
            loop {
                let (value, next) = parse_tree(b, pos, depth + 1)?;
                items.push(value);
                pos = skip_ws(b, next);
                match b.get(pos)? {
                    b',' => pos = skip_ws(b, pos + 1),
                    b']' => return Some((Json::Arr(items), pos + 1)),
                    _ => return None,
                }
            }
        }
        b'"' => {
            let (s, next) = parse_string_tree(b, i)?;
            Some((Json::Str(s), next))
        }
        b't' => parse_lit(b, i, b"true").map(|n| (Json::Bool(true), n)),
        b'f' => parse_lit(b, i, b"false").map(|n| (Json::Bool(false), n)),
        b'n' => parse_lit(b, i, b"null").map(|n| (Json::Null, n)),
        b'-' | b'0'..=b'9' => {
            let next = parse_number(b, i)?;
            let text = std::str::from_utf8(&b[i..next]).ok()?;
            let value = if text.bytes().all(|c| c.is_ascii_digit()) {
                text.parse::<u64>()
                    .map(Json::U64)
                    .unwrap_or(Json::F64(text.parse().ok()?))
            } else if !text.contains(['.', 'e', 'E']) {
                text.parse::<i64>()
                    .map(Json::I64)
                    .unwrap_or(Json::F64(text.parse().ok()?))
            } else {
                Json::F64(text.parse().ok()?)
            };
            Some((value, next))
        }
        _ => None,
    }
}

/// Parse a string literal at `i` into its unescaped form.
fn parse_string_tree(b: &[u8], i: usize) -> Option<(String, usize)> {
    let end = parse_string(b, i)?;
    let raw = std::str::from_utf8(&b[i + 1..end - 1]).ok()?;
    if !raw.contains('\\') {
        return Some((raw.to_string(), end));
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                // Lone surrogates render as the replacement character; the
                // writer never emits surrogate pairs.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return None,
        }
    }
    Some((out, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from(3.0).to_string(), "3.0");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from("a\"b\n").to_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_collections_in_order() {
        let mut o = Json::obj([("b", Json::from(1u64))]);
        o.push("a", Json::Arr(vec![Json::Null, Json::from(2u64)]));
        assert_eq!(o.to_string(), "{\"b\":1,\"a\":[null,2]}");
    }

    #[test]
    fn u64_precision_is_exact() {
        let big = u64::MAX - 1;
        assert_eq!(Json::from(big).to_string(), big.to_string());
    }

    #[test]
    fn validator_accepts_what_we_render() {
        let mut o = Json::obj([
            ("name", Json::from("fig9 \u{7} tab\t")),
            (
                "xs",
                Json::Arr(vec![Json::from(1.25), Json::from(-2i64), Json::Bool(false)]),
            ),
            ("nested", Json::obj([("empty", Json::Arr(Vec::new()))])),
        ]);
        o.push("last", Json::Null);
        assert!(is_valid(&o.to_string()));
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\"1}",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":1,}",
            "nul",
            "--1",
            "1.e5",
            "\"bad \\q escape\"",
        ] {
            assert!(!is_valid(bad), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parse_round_trips_what_we_render() {
        let mut o = Json::obj([
            ("name", Json::from("fig9 \u{7} tab\t\"q\"")),
            (
                "xs",
                Json::Arr(vec![Json::from(1.25), Json::from(-2i64), Json::Bool(false)]),
            ),
            ("big", Json::from(u64::MAX)),
            ("neg", Json::from(i64::MIN)),
            ("nested", Json::obj([("empty", Json::Arr(Vec::new()))])),
            ("null", Json::Null),
        ]);
        o.push("f", Json::from(0.1));
        let text = o.to_string();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, o);
        // Re-render is byte-identical: parse is a faithful inverse.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_rejects_deep_nesting_without_overflowing() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_some());
        let bomb = "[".repeat(1 << 20);
        assert!(Json::parse(&bomb).is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "[1] x", "1e999x", "\"\\q\""] {
            assert!(Json::parse(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_trees() {
        let doc = Json::parse("{\"a\":{\"b\":[1,-2,3.5,\"s\"]},\"n\":7}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        let items = arr.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[1].as_f64(), Some(-2.0));
        assert_eq!(items[2].as_f64(), Some(3.5));
        assert_eq!(items[3].as_str(), Some("s"));
        assert_eq!(doc.as_obj().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
        assert!(items[0].get("x").is_none());
        assert!(items[0].as_arr().is_none());
    }

    #[test]
    fn parse_unescapes_strings() {
        let doc = Json::parse("\"a\\n\\t\\u0041\\\\\\\"/\\u00e9\"").unwrap();
        assert_eq!(doc.as_str(), Some("a\n\tA\\\"/é"));
    }

    #[test]
    fn validator_accepts_plain_forms() {
        for good in [
            "null",
            " true ",
            "[ ]",
            "{ }",
            "-1.5e-3",
            "[{\"k\":[]}]",
            "\"\\u00ff\"",
        ] {
            assert!(is_valid(good), "rejected: {good:?}");
        }
    }
}
