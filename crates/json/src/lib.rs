//! Self-contained JSON codec: the workspace's one JSON stack.
//!
//! The snapshot, WAL, API and model-exchange formats are all JSON, and
//! the workspace serializes without any external crate, so this leaf
//! crate implements the small JSON subset they need: a value tree
//! ([`Value`]), a renderer, a recursive-descent parser and typed field
//! helpers. Domain encoders live next to their types
//! (`tvdp_storage::codec` for persisted rows, `tvdp_ml::model_io` for
//! model weights).
//!
//! Numbers are kept as their source token ([`Value::Num`] holds the raw
//! string) and parsed on demand into the target type, so `u64` ids above
//! 2^53 and shortest-round-trip floats survive exactly: Rust's float
//! `Display` prints the shortest decimal that uniquely identifies the
//! value, and `str::parse` recovers it bit-for-bit.
//!
//! Pixel blobs are encoded as lowercase hex strings rather than JSON
//! byte arrays — half the size and still greppable line-by-line.

/// A decode failure: human-readable message with enough context to
/// pinpoint the bad field.
pub type DecodeError = String;

/// A JSON value. Objects preserve insertion order (encoding is
/// deterministic; lookups are linear, which is fine for the small,
/// fixed-shape objects the formats use).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token to avoid double rounding.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered field list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a number value from anything whose `Display` output
    /// round-trips through `FromStr` (all primitive ints and floats).
    pub fn num(n: impl std::fmt::Display) -> Value {
        Value::Num(n.to_string())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a number token that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is a number token that parses as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, when it is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Shared sentinel so missing-field indexing can return a reference.
static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Panic-free object indexing: a missing field (or a non-object
    /// receiver) yields [`Value::Null`], so chained lookups like
    /// `body["items"][0]["width"]` degrade to `Null` instead of
    /// panicking.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Panic-free array indexing; out-of-range (or a non-array
    /// receiver) yields [`Value::Null`].
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl Value {
    /// Renders to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(tok) => out.push_str(tok),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Maximum nesting depth the parser accepts; the persisted formats are
/// at most ~6 levels deep, so this only guards corrupt input from
/// overflowing the stack.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document, requiring it to consume the whole input.
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), DecodeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, DecodeError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Value, DecodeError> {
        let start = self.pos;
        // Accept the JSON number grammar plus Rust's `inf`/`NaN` float
        // Display forms (a documented extension of the format).
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit()
                || matches!(
                    b,
                    b'-' | b'+' | b'.' | b'e' | b'E' | b'i' | b'n' | b'f' | b'N' | b'a'
                )
        }) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a value at offset {start}"));
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number token".to_string())?;
        // Validate now so `Num` tokens always parse as *some* number.
        tok.parse::<f64>()
            .map_err(|_| format!("bad number `{tok}` at offset {start}"))?;
        Ok(Value::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("bad low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(c).ok_or("bad surrogate pair")?);
                            } else {
                                out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                            }
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos.checked_add(4).ok_or("truncated \\u escape")?;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        self.pos = end;
        let s = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape".to_string())?;
        u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape `{s}`"))
    }

    fn array(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed field helpers.
// ---------------------------------------------------------------------

/// Fetches a required object field.
pub fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DecodeError> {
    v.get(name).ok_or_else(|| format!("missing field `{name}`"))
}

/// Parses a number value into any `FromStr` numeric type.
pub fn num<T: std::str::FromStr>(v: &Value, what: &str) -> Result<T, DecodeError> {
    match v {
        Value::Num(tok) => tok
            .parse()
            .map_err(|_| format!("{what}: number `{tok}` out of range")),
        _ => Err(format!("{what}: expected a number")),
    }
}

/// Required numeric object field.
pub fn num_field<T: std::str::FromStr>(v: &Value, name: &str) -> Result<T, DecodeError> {
    num(field(v, name)?, name)
}

/// Required string object field.
pub fn str_field<'v>(v: &'v Value, name: &str) -> Result<&'v str, DecodeError> {
    match field(v, name)? {
        Value::Str(s) => Ok(s),
        _ => Err(format!("{name}: expected a string")),
    }
}

/// Required array object field.
pub fn arr_field<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], DecodeError> {
    match field(v, name)? {
        Value::Arr(items) => Ok(items),
        _ => Err(format!("{name}: expected an array")),
    }
}

/// Lowercase hex encoding of a byte slice.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap_or('0'));
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap_or('0'));
    }
    out
}

/// Decodes a lowercase/uppercase hex string.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, DecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit `{}`", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit `{}`", pair[1] as char))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// Builds an object value from `(name, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Encodes a feature vector as a JSON number array.
pub fn encode_vector(v: &[f32]) -> Value {
    Value::Arr(v.iter().map(Value::num).collect())
}

/// Decodes a feature vector.
pub fn decode_vector(v: &Value) -> Result<Vec<f32>, DecodeError> {
    match v {
        Value::Arr(items) => items.iter().map(|x| num(x, "vector")).collect(),
        _ => Err("vector: expected an array".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "-12.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.render(), src);
        }
    }

    #[test]
    fn float_tokens_roundtrip_exactly() {
        for x in [0.1_f64, -1.0 / 3.0, 1e-12, f64::MAX, 34.052_235] {
            let v = Value::num(x);
            let back: f64 = num(&parse(&v.render()).unwrap(), "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        for x in [0.1_f32, f32::MIN_POSITIVE, -7.25e-3] {
            let v = Value::num(x);
            let back: f32 = num(&parse(&v.render()).unwrap(), "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn u64_beyond_f64_precision_roundtrips() {
        let big = u64::MAX - 1;
        let v = Value::num(big);
        let back: u64 = num(&parse(&v.render()).unwrap(), "id").unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}f λ 漢 🚀";
        let mut out = String::new();
        render_string(nasty, &mut out);
        let v = parse(&out).unwrap();
        assert_eq!(v, Value::Str(nasty.to_string()));
        // \u escapes (incl. surrogate pairs) parse too.
        assert_eq!(
            parse("\"\\ud83d\\ude00\\u0041\"").unwrap(),
            Value::Str("😀A".to_string())
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let src = r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src.replace(", ", ","));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "01a",
            "\"\\q\"",
            "\"\\ud83d\"", // lone high surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex_decode(&hex).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn vector_roundtrip_is_bit_exact() {
        let v = vec![0.1_f32, -2.5e-7, 1.0, f32::MIN_POSITIVE];
        let back = decode_vector(&parse(&encode_vector(&v).render()).unwrap()).unwrap();
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
