//! A minimal JSON parser and object builder for the `sigrule serve`
//! protocol.
//!
//! The build environment has no registry access (no `serde_json`), and the
//! serve protocol only needs flat request objects plus line-oriented
//! responses, so this module implements exactly that subset of RFC 8259:
//! objects, arrays, strings (with the standard escapes), numbers, booleans
//! and `null`.  Rendering goes through [`ObjectBuilder`], which shares the
//! string-escaping rules with the report renderer in `sigrule_eval`.

use sigrule_eval::report::json_string;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as an integer (digits with an optional leading
    /// minus, no fraction or exponent), kept exact: every `u64` and `i64`
    /// round-trips.
    Integer(i128),
    /// Any other JSON number (stored as `f64`, ample for protocol fields).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

/// A JSON syntax error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after the document".into(),
            });
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number (an integer converted to
    /// the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Integer(n) => Some(*n as f64),
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: any integer lexeme in
    /// `u64`'s range, or another number `f64` holds exactly (`1e3`).  A
    /// non-integer lexeme above 2⁵³ is rejected rather than silently
    /// rounded: a seed the protocol cannot carry faithfully must error, not
    /// produce results that differ from the same seed given to the one-shot
    /// CLI.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Integer(n) => u64::try_from(*n).ok(),
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Integer(n) => n.to_string(),
            Json::Number(x) => render_number(*x),
            Json::String(s) => json_string(s),
            Json::Array(items) => {
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Object(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Renders a float the way JSON expects (no `inf`/`NaN`; integers without a
/// fraction part).
fn render_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no non-finite numbers; null is the conventional stand-in.
        return "null".to_string();
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// The deepest array/object nesting a document may have.  The parser
/// recurses once per level, so without a cap a single line of `[`s overflows
/// the stack, which aborts the process instead of failing the request;
/// protocol requests nest two or three levels.
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn error(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset: pos,
        message: message.into(),
    }
}

fn expect_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(error(*pos, format!("expected {literal:?}")))
    }
}

/// Parses one value at `pos`; `depth` counts the arrays and objects that
/// enclose it.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(error(*pos, "unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::String),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(error(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(error(
            *pos,
            format!("unexpected character {:?}", *c as char),
        )),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are UTF-8");
    let digits = text.strip_prefix('-').unwrap_or(text);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        // Past `i128` (39 digits) an integer lexeme falls back to `f64`.
        if let Ok(n) = text.parse::<i128>() {
            return Ok(Json::Integer(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| error(start, format!("malformed number {text:?}")))
}

/// Parses the string starting at the `"` at `pos`.  Each run of plain
/// characters up to the next `"` or `\` is copied with one `push_str`: both
/// delimiters are ASCII, so every run starts and ends on a char boundary of
/// the (already valid UTF-8) input, and the parse is linear in its length.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(error(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: one escape sequence.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| error(*pos, "truncated \\u escape"))?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign (`\u+041`).
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(error(
                                *pos,
                                format!("bad \\u escape {:?}", String::from_utf8_lossy(hex)),
                            ));
                        }
                        let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        // Surrogate pairs are not needed by the protocol;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(error(
                            *pos,
                            format!("unknown escape {:?}", other.map(|&b| b as char)),
                        ))
                    }
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(error(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(error(*pos, "expected a string key"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(error(*pos, "expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(error(*pos, "expected ',' or '}'")),
        }
    }
}

/// Builds one compact JSON object, field by field, in insertion order.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    parts: Vec<String>,
}

impl ObjectBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ObjectBuilder::default()
    }

    /// Appends a field with pre-rendered JSON as its value.
    pub fn raw(&mut self, key: &str, rendered: impl Into<String>) -> &mut Self {
        self.parts
            .push(format!("{}:{}", json_string(key), rendered.into()));
        self
    }

    /// Appends a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_string(value))
    }

    /// Appends a numeric field.
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, render_number(value))
    }

    /// Appends an integer field, exact over all of `u64` (where
    /// [`number`](ObjectBuilder::number) rounds above 2⁵³).
    pub fn integer(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Appends a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Appends an already-parsed [`Json`] value.
    pub fn json(&mut self, key: &str, value: &Json) -> &mut Self {
        self.raw(key, value.render())
    }

    /// Appends an array of strings.
    pub fn strings(&mut self, key: &str, values: &[String]) -> &mut Self {
        let inner: Vec<String> = values.iter().map(|s| json_string(s)).collect();
        self.raw(key, format!("[{}]", inner.join(",")))
    }

    /// Appends every field of another builder, in order.
    pub fn raw_fields(&mut self, other: ObjectBuilder) -> &mut Self {
        self.parts.extend(other.parts);
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let parse = |text: &str| Json::parse(&format!(r#"{{"dataset":"{text}"}}"#));
        let parsed = parse(r"\u0041").unwrap();
        assert_eq!(parsed.get("dataset").and_then(Json::as_str), Some("A"));
        let parsed = parse(r"\u00e9\u00C9").unwrap();
        assert_eq!(parsed.get("dataset").and_then(Json::as_str), Some("éÉ"));
        for bad in [r"\u+041", r"\u-041", r"\u 041", r"\u04g1", r"\u041"] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn parses_protocol_shaped_requests() {
        let parsed = Json::parse(
            r#"{"cmd":"correct","min_sup":2,"alpha":0.05,"strict":true,"id":"q1",
                "tags":[1,-2.5,null],"nested":{"a":"b"}}"#,
        )
        .unwrap();
        assert_eq!(parsed.get("cmd").and_then(Json::as_str), Some("correct"));
        assert_eq!(parsed.get("min_sup").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("alpha").and_then(Json::as_f64), Some(0.05));
        assert_eq!(parsed.get("strict").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("tags"),
            Some(&Json::Array(vec![
                Json::Integer(1),
                Json::Number(-2.5),
                Json::Null
            ]))
        );
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("a"))
                .and_then(Json::as_str),
            Some("b")
        );
        assert!(parsed.get("absent").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\ndAé"));
        // Runs of plain text between escapes, multi-byte ones included.
        let parsed = Json::parse(r#""é\u00e9\té""#).unwrap();
        assert_eq!(parsed.as_str(), Some("éé\té"));
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'single':1}",
            "--5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Far past the cap, and unterminated: still an error, not an abort.
        assert!(Json::parse(&"[".repeat(500_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(500_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request line may be up to 1 MiB; a parser that rescans the rest
        // of the line per character needs minutes for one such line.
        for fill in ["a", "é"] {
            let payload = fill.repeat((1 << 20) / fill.len());
            let line = format!("{{\"cmd\":\"stats\",\"x\":\"{payload}\\n\"}}");
            let start = std::time::Instant::now();
            let parsed = Json::parse(&line).unwrap();
            let elapsed = start.elapsed();
            assert!(
                elapsed < std::time::Duration::from_secs(2),
                "1 MiB of {fill:?} took {elapsed:?}"
            );
            assert_eq!(
                parsed.get("x").and_then(Json::as_str),
                Some(format!("{payload}\n").as_str())
            );
        }
    }

    #[test]
    fn integers_are_exact() {
        let parsed = Json::parse("{\"seed\":1234567890123}").unwrap();
        assert_eq!(
            parsed.get("seed").and_then(Json::as_u64),
            Some(1234567890123)
        );
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(1.5).as_u64(), None);
        // Above 2^53 the f64 carrier can no longer represent every integer,
        // so exactness cannot be guaranteed — reject instead of rounding.
        assert_eq!(
            Json::Number(9_007_199_254_740_992.0).as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Json::Number(9.3e15).as_u64(), None);
    }

    #[test]
    fn integer_lexemes_keep_every_u64() {
        let seed = |text: &str| Json::parse(&format!("{{\"seed\":{text}}}")).unwrap();
        for n in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let parsed = seed(&n.to_string());
            assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(n));
            assert_eq!(parsed.render(), format!("{{\"seed\":{n}}}"));
        }
        // Negative or past u64: exact, but not a u64.
        assert_eq!(seed("-1").get("seed"), Some(&Json::Integer(-1)));
        assert_eq!(
            seed("18446744073709551616").get("seed").unwrap().as_u64(),
            None
        );
        // Fractions and exponents stay f64, with the 2^53 guard.
        assert_eq!(seed("1e3").get("seed").and_then(Json::as_u64), Some(1000));
        assert_eq!(seed("2.5").get("seed").and_then(Json::as_u64), None);
        assert_eq!(seed("1e19").get("seed").and_then(Json::as_u64), None);
        // Longer than i128: an f64, as before.
        let huge = "9".repeat(60);
        assert!(matches!(seed(&huge).get("seed"), Some(Json::Number(_))));
        for bad in ["-", "--1", "1-"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Below 1e15 an integer renders the same through either setter.
        let mut b = ObjectBuilder::new();
        b.integer("a", 999_999_999_999_999)
            .number("b", 999_999_999_999_999.0)
            .integer("c", u64::MAX);
        assert_eq!(
            b.finish(),
            r#"{"a":999999999999999,"b":999999999999999,"c":18446744073709551615}"#
        );
    }

    #[test]
    fn builder_produces_parseable_objects() {
        let mut b = ObjectBuilder::new();
        b.string("cmd", "load")
            .number("records", 42.0)
            .number("load_ms", 1.25)
            .boolean("ok", true)
            .strings("warnings", &["line 1: blank".to_string()]);
        let text = b.finish();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("cmd").and_then(Json::as_str), Some("load"));
        assert_eq!(parsed.get("records").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("load_ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    }
}
