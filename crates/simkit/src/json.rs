//! The one JSON pipeline of the workspace — no external dependencies.
//!
//! Three small pieces, shared by every machine-readable document the repo
//! writes (telemetry exports, Chrome traces, the `durassd.*.v1` reports):
//!
//! * [`Writer`] — compact output with insertion-ordered keys. The writer
//!   owns the comma state and the one string escaper, so emission sites
//!   never track "first element" or quote by hand.
//! * [`parse`] / [`JsonValue`] — objects, arrays, strings, numbers (kept as
//!   their literal text so `u128` sums survive a round trip exactly),
//!   booleans and null.
//! * [`check`] — a static [`Field`] table per document describes its
//!   *structure* (key present, type, range, nesting, exact key set); one
//!   recursive walk reports every violation. Claims that relate rows to
//!   each other stay plain code in the validator that owns the schema.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::str::FromStr;

/// A parsed JSON value. Numbers keep their literal text so arbitrarily
/// large integers round-trip without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, stored as its literal token.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Borrow as an object map.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number token parsed as `T` (`None` for non-numbers and for tokens
    /// `T` cannot represent).
    fn number<T: FromStr>(&self) -> Option<T> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Parse the number token as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// Parse the number token as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// Parse the number token as `u128`.
    pub fn as_u128(&self) -> Option<u128> {
        self.number()
    }

    /// Parse the number token as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }
}

/// Compact JSON writer. Values and keys are appended in call order; the
/// writer inserts the separating commas and closes containers in the order
/// they were opened.
///
/// ```
/// use simkit::json::Writer;
/// let mut w = Writer::new();
/// w.obj().key("schema").str("x.v1").key("rows").arr();
/// w.obj().key("n").num(3).end();
/// w.end().end();
/// assert_eq!(w.finish(), r#"{"schema":"x.v1","rows":[{"n":3}]}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Closers of the containers still open, innermost last.
    open: Vec<char>,
    /// Whether the next key or value must be preceded by a comma.
    sep: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn value(&mut self) -> &mut String {
        if self.sep {
            self.out.push(',');
        }
        self.sep = true;
        &mut self.out
    }

    fn container(&mut self, opener: char, closer: char) -> &mut Self {
        self.value().push(opener);
        self.open.push(closer);
        self.sep = false;
        self
    }

    /// Open an object.
    pub fn obj(&mut self) -> &mut Self {
        self.container('{', '}')
    }

    /// Open an array.
    pub fn arr(&mut self) -> &mut Self {
        self.container('[', ']')
    }

    /// Close the innermost open object or array.
    ///
    /// # Panics
    /// If nothing is open — an emission-site bug.
    pub fn end(&mut self) -> &mut Self {
        let closer = self.open.pop().expect("Writer::end without an open container");
        self.out.push(closer);
        self.sep = true;
        self
    }

    /// Write an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.value();
        self.quoted(k);
        self.out.push(':');
        self.sep = false;
        self
    }

    /// Write a string value, escaped and quoted.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.value();
        self.quoted(s);
        self
    }

    /// Write a number through its `Display` form: integers of any width
    /// verbatim (`u128` sums stay exact), floats via
    /// `format_args!("{x:.4}")` so each field keeps its precision.
    pub fn num(&mut self, n: impl Display) -> &mut Self {
        let _ = write!(self.value(), "{n}");
        self
    }

    /// Write `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.num(b)
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splice in an already-rendered JSON value (a sub-document produced by
    /// another writer).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value().push_str(json);
        self
    }

    /// The finished document.
    ///
    /// # Panics
    /// If a container is still open — an emission-site bug.
    pub fn finish(self) -> String {
        assert!(self.open.is_empty(), "Writer::finish with {} open container(s)", self.open.len());
        self.out
    }

    /// The workspace's one string escaper.
    fn quoted(&mut self, s: &str) {
        let out = &mut self.out;
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
}

/// Parse a JSON document. Rejects trailing garbage.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut arr = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(arr));
    }
    loop {
        arr.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(arr));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(cp).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (keys/values are valid UTF-8
                // since the input is a &str).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected number at byte {start}"));
    }
    let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // Validate it parses as a float at minimum.
    tok.parse::<f64>().map_err(|_| format!("bad number '{tok}'"))?;
    Ok(JsonValue::Number(tok.to_string()))
}

/// One entry of a document's field table: `key` must be present and its
/// value must satisfy `want`.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Object key.
    pub key: &'static str,
    /// What the value must look like.
    pub want: Want,
}

impl Field {
    /// Table-entry constructor (usable in `static` tables).
    pub const fn new(key: &'static str, want: Want) -> Self {
        Self { key, want }
    }
}

/// Everything a field table can say about one value.
#[derive(Debug, Clone, Copy)]
pub enum Want {
    /// Any string.
    Str,
    /// A string equal to one of the listed values.
    OneOf(&'static [&'static str]),
    /// Any finite number.
    Num,
    /// A non-negative integer (any width up to `u128`).
    Count,
    /// A finite number greater than zero.
    Positive,
    /// A finite number in the closed range.
    Range(f64, f64),
    /// An object carrying at least the table's keys.
    Obj(&'static [Field]),
    /// An object carrying exactly the table's keys.
    Exact(&'static [Field]),
    /// An object with free keys whose every value satisfies the inner want.
    MapOf(&'static Want),
    /// An array of at least `.0` objects, each checked against the table.
    Rows(usize, &'static [Field]),
}

type Obj = BTreeMap<String, JsonValue>;

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Walk `obj` against `table`, appending one line per violation to `out`
/// (never stopping at the first). `path` prefixes the reported locations:
/// `rows[2].tail.wall = -1: want a number > 0`.
pub fn check(obj: &Obj, table: &[Field], path: &str, out: &mut Vec<String>) {
    for f in table {
        match obj.get(f.key) {
            None => out.push(format!("{}: missing", join(path, f.key))),
            Some(v) => check_value(v, f.want, path, f.key, out),
        }
    }
}

fn check_value(v: &JsonValue, want: Want, path: &str, key: &str, out: &mut Vec<String>) {
    let at = || join(path, key);
    let mut scalar = |ok: bool, what: &str| {
        if !ok {
            let got = match v {
                JsonValue::Number(n) => n.clone(),
                JsonValue::String(s) => format!("{s:?}"),
                JsonValue::Bool(b) => b.to_string(),
                JsonValue::Null => "null".into(),
                JsonValue::Array(_) => "an array".into(),
                JsonValue::Object(_) => "an object".into(),
            };
            out.push(format!("{} = {got}: want {what}", at()));
        }
    };
    let finite = v.as_f64().filter(|x| x.is_finite());
    match want {
        Want::Str => scalar(v.as_str().is_some(), "a string"),
        Want::OneOf(set) => {
            scalar(v.as_str().is_some_and(|s| set.contains(&s)), &format!("one of {set:?}"))
        }
        Want::Num => scalar(finite.is_some(), "a finite number"),
        Want::Count => scalar(v.as_u128().is_some(), "a non-negative integer"),
        Want::Positive => scalar(finite.is_some_and(|x| x > 0.0), "a number > 0"),
        Want::Range(lo, hi) => {
            scalar(finite.is_some_and(|x| (lo..=hi).contains(&x)), &format!("{lo}..={hi}"))
        }
        Want::Obj(table) | Want::Exact(table) => match v.as_object() {
            None => scalar(false, "an object"),
            Some(o) => {
                check(o, table, &at(), out);
                if matches!(want, Want::Exact(_)) {
                    for k in o.keys().filter(|k| !table.iter().any(|f| f.key == k.as_str())) {
                        out.push(format!("{}.{k}: unknown key", at()));
                    }
                }
            }
        },
        Want::MapOf(each) => match v.as_object() {
            None => scalar(false, "an object"),
            Some(o) => o.iter().for_each(|(k, v)| check_value(v, *each, &at(), k, out)),
        },
        Want::Rows(min, table) => match v.as_array() {
            None => scalar(false, "an array"),
            Some(rows) => {
                if rows.len() < min {
                    out.push(format!("{}: {} row(s), want at least {min}", at(), rows.len()));
                }
                for (i, row) in rows.iter().enumerate() {
                    match row.as_object() {
                        Some(o) => check(o, table, &format!("{}[{i}]", at()), out),
                        None => out.push(format!("{}[{i}]: want an object", at())),
                    }
                }
            }
        },
    }
}

/// Parse `doc` and check its top-level object against `table`: the parsed
/// document when the structure is valid, else every violation.
pub fn check_document(doc: &str, table: &[Field]) -> Result<JsonValue, Vec<String>> {
    let v = parse(doc).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let mut failures = Vec::new();
    match v.as_object() {
        Some(o) => check(o, table, "", &mut failures),
        None => failures.push("top level is not an object".into()),
    }
    if failures.is_empty() {
        Ok(v)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":true,"d":null,"e":-7}"#).unwrap();
        let o = v.as_object().unwrap();
        let arr = o["a"].as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].as_object().unwrap()["b"].as_str(), Some("x"));
        assert_eq!(o["c"], JsonValue::Bool(true));
        assert_eq!(o["d"], JsonValue::Null);
        assert_eq!(o["e"].as_i64(), Some(-7));
    }

    #[test]
    fn big_integers_survive() {
        let v = parse(&format!("{{\"s\":{}}}", u128::MAX)).unwrap();
        assert_eq!(v.as_object().unwrap()["s"].as_u128(), Some(u128::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a \"quoted\" \\ back\nnew\ttab\u{1}ctl";
        let mut w = Writer::new();
        w.obj().key(original).num(1).end();
        let v = parse(&w.finish()).unwrap();
        let (k, _) = v.as_object().unwrap().iter().next().unwrap();
        assert_eq!(k, original);
    }

    #[test]
    fn writer_tracks_commas_and_nesting() {
        let mut w = Writer::new();
        w.obj().key("a").arr().num(1).num(-2).obj().end().arr().end().end();
        w.key("b").obj().key("c").bool(true).key("d").null().end();
        w.key("e").str("x").key("f").num(format_args!("{:.2}", 1.0 / 3.0));
        w.key("ts").num(format_args!("{}.{:03}", 12, 5)).end();
        assert_eq!(
            w.finish(),
            r#"{"a":[1,-2,{},[]],"b":{"c":true,"d":null},"e":"x","f":0.33,"ts":12.005}"#
        );
        // Empty containers and a bare top-level value.
        let mut w = Writer::new();
        w.arr().end();
        assert_eq!(w.finish(), "[]");
        let mut w = Writer::new();
        w.num(u128::MAX);
        assert_eq!(w.finish(), u128::MAX.to_string());
    }

    #[test]
    fn writer_escapes_every_class_the_same_way() {
        let mut w = Writer::new();
        w.arr().str("q\"b\\").str("n\nr\rt\t").str("\u{1}\u{1f}").str("héllo ☃").end();
        assert_eq!(w.finish(), r#"["q\"b\\","n\nr\rt\t","\u0001\u001f","héllo ☃"]"#);
    }

    #[test]
    fn writer_splices_raw_subdocuments() {
        let mut inner = Writer::new();
        inner.obj().key("n").num(1).end();
        let inner = inner.finish();
        let mut w = Writer::new();
        w.obj().key("x").raw(&inner).key("y").arr().raw(&inner).raw(&inner).end().end();
        assert_eq!(w.finish(), r#"{"x":{"n":1},"y":[{"n":1},{"n":1}]}"#);
    }

    #[test]
    #[should_panic(expected = "open container")]
    fn writer_refuses_to_finish_an_open_document() {
        let mut w = Writer::new();
        w.obj().key("a").arr();
        w.finish();
    }

    static ENTRY: [Field; 2] =
        [Field::new("n", Want::Count), Field::new("pct", Want::Range(0.0, 100.0))];
    static ROW: [Field; 4] = [
        Field::new("name", Want::Str),
        Field::new("mode", Want::OneOf(&["durable", "volatile"])),
        Field::new("by_kind", Want::Exact(&ENTRY)),
        Field::new("free", Want::MapOf(&Want::Positive)),
    ];
    static DOC: [Field; 2] =
        [Field::new("schema", Want::OneOf(&["t.v1"])), Field::new("rows", Want::Rows(1, &ROW))];

    const GOOD_ROW: &str =
        r#"{"name":"a","mode":"durable","by_kind":{"n":3,"pct":12.5},"free":{"x":1,"y":0.5}}"#;

    #[test]
    fn checker_accepts_a_conforming_document() {
        let doc = format!(r#"{{"schema":"t.v1","extra":1,"rows":[{GOOD_ROW}]}}"#);
        assert!(check_document(&doc, &DOC).is_ok());
    }

    #[test]
    fn checker_reports_every_violation_with_its_path() {
        let bad_row =
            r#"{"name":7,"mode":"sideways","by_kind":{"n":-1,"pct":101,"stray":0},"free":{"x":0}}"#;
        let doc = format!(r#"{{"schema":"t.v1","rows":[{GOOD_ROW},{bad_row},3]}}"#);
        let fails = check_document(&doc, &DOC).unwrap_err();
        for want in [
            "rows[1].name = 7: want a string",
            "rows[1].mode = \"sideways\": want one of",
            "rows[1].by_kind.n = -1: want a non-negative integer",
            "rows[1].by_kind.pct = 101: want 0..=100",
            "rows[1].by_kind.stray: unknown key",
            "rows[1].free.x = 0: want a number > 0",
            "rows[2]: want an object",
        ] {
            assert!(fails.iter().any(|f| f.contains(want)), "missing {want:?} in {fails:?}");
        }
        assert_eq!(fails.len(), 7, "{fails:?}");
    }

    #[test]
    fn checker_rejects_missing_keys_wrong_types_and_short_arrays() {
        let fails = check_document(r#"{"rows":[]}"#, &DOC).unwrap_err();
        assert_eq!(fails, ["schema: missing", "rows: 0 row(s), want at least 1"]);
        let fails = check_document(r#"{"schema":"t.v1","rows":{}}"#, &DOC).unwrap_err();
        assert_eq!(fails, ["rows = an object: want an array"]);
        let fails = check_document(r#"{"schema":"t.v1","rows":[{}]}"#, &DOC).unwrap_err();
        assert_eq!(fails.len(), ROW.len(), "one line per missing key: {fails:?}");
        assert!(check_document("[1]", &DOC).unwrap_err()[0].contains("not an object"));
        assert!(check_document("{", &DOC).unwrap_err()[0].contains("not valid JSON"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("{\"k\":\"héllo ☃\"}").unwrap();
        assert_eq!(v.as_object().unwrap()["k"].as_str(), Some("héllo ☃"));
    }
}
