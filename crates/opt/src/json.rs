//! The one JSON value, reader and writer behind the profile format (no
//! external dependencies).
//!
//! A gauge record crosses this module through its field table
//! ([`GaugeSet::FIELDS`]): [`record`] renders one, [`read`] parses one.
//! Reading is lenient about *presence* and strict about *kind* — a
//! missing key keeps the field's default and an unknown key is ignored
//! (so older, newer and hand-written files load), but a key that is
//! present with the wrong kind of value is an error naming it. Counters
//! are read as exact `u64`s, never through a float.

use click_core::error::{Error, Result};
use click_elements::telemetry::{Field, GaugeSet, Value};

/// A JSON value. Integer tokens that fit are [`Json::Int`]; every other
/// number (negative, fractional, exponent, too large) is [`Json::Num`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// The error for a key that is present with the wrong kind of value.
pub(crate) fn mistyped(section: &str, key: &str) -> Error {
    Error::spec(format!("JSON: `{key}` in `{section}` has the wrong type"))
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub(crate) fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let owned = members.into_iter().map(|(k, v)| (k.to_owned(), v));
        Json::Obj(owned.collect())
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key` of object `self` (named `section` in errors), read
    /// with `as_t`: `None` if absent.
    ///
    /// # Errors
    ///
    /// [`mistyped`] if the member is present and `as_t` refuses it.
    pub(crate) fn member<'a, T>(
        &'a self,
        section: &str,
        key: &str,
        as_t: fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>> {
        self.get(key)
            .map(|v| as_t(v).ok_or_else(|| mistyped(section, key)))
            .transpose()
    }

    /// Renders the export layout the tools and CI greps rely on: the
    /// root object one member per line, an array directly under it one
    /// item per line, everything deeper on one line.
    pub(crate) fn render(&self) -> String {
        let mut s = String::new();
        let Json::Obj(members) = self else {
            self.inline(&mut s);
            return s;
        };
        s.push_str("{\n");
        for (i, (key, value)) in members.iter().enumerate() {
            s.push_str("  ");
            escape(key, &mut s);
            s.push_str(": ");
            match value {
                Json::Arr(items) => {
                    s.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        s.push_str("    ");
                        item.inline(&mut s);
                        s.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    s.push_str("  ]");
                }
                other => other.inline(&mut s),
            }
            s.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
        }
        s.push_str("}\n");
        s
    }

    /// Appends the value on one line. Floats are rates and ratios and
    /// are written to two decimals.
    fn inline(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(&b.to_string()),
            Json::Int(n) => s.push_str(&n.to_string()),
            Json::Num(x) => s.push_str(&format!("{x:.2}")),
            Json::Str(t) => escape(t, s),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    item.inline(s);
                }
                s.push(']');
            }
            Json::Obj(members) => {
                s.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    escape(key, s);
                    s.push_str(": ");
                    value.inline(s);
                }
                s.push('}');
            }
        }
    }
}

/// Appends `text` as a quoted JSON string.
fn escape(text: &str, s: &mut String) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// The members of a gauge record, one per table field — `Json::obj` of
/// them is the record.
pub(crate) fn record<T: GaugeSet>(t: &T) -> Vec<(&'static str, Json)> {
    let member = |f: &Field<T>| {
        let value = match (f.get)(t) {
            Value::U64(n) => Json::Int(n),
            Value::Str(s) => Json::Str(s.to_owned()),
            Value::U64s(ns) => Json::Arr(ns.iter().map(|&n| Json::Int(n)).collect()),
        };
        (f.key, value)
    };
    T::FIELDS.iter().map(member).collect()
}

/// Parses a gauge record from an object: fields missing from `v` keep
/// their default, members the table does not know are ignored.
///
/// # Errors
///
/// [`mistyped`], naming `T::SECTION` and the key, if `v` is not an object
/// or a member's value is not of its field's kind (a count that is
/// negative, fractional, a string, ...).
pub(crate) fn read<T: GaugeSet>(v: &Json) -> Result<T> {
    if !matches!(v, Json::Obj(_)) {
        return Err(mistyped("profile", T::SECTION));
    }
    let mut t = T::default();
    for f in T::FIELDS {
        let Some(member) = v.get(f.key) else { continue };
        let list: Option<Vec<u64>>;
        let value = match member {
            Json::Int(n) => Some(Value::U64(*n)),
            Json::Str(s) => Some(Value::Str(s)),
            Json::Arr(items) => {
                list = items.iter().map(Json::as_u64).collect();
                list.as_deref().map(Value::U64s)
            }
            _ => None,
        };
        if !value.is_some_and(|value| (f.set)(&mut t, value)) {
            return Err(mistyped(T::SECTION, f.key));
        }
    }
    Ok(t)
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error::spec(format!("JSON: {what} at byte {}", self.i))
    }

    /// The next byte that is not whitespace, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text.as_bytes()[self.i..];
        self.i += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
        self.text.as_bytes().get(self.i).copied()
    }

    /// Consumes one character, whitespace or not.
    fn next(&mut self) -> Option<char> {
        let c = self.text[self.i..].chars().next()?;
        self.i += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected {:?}", b as char)));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json> {
        let member = |p: &mut Self| {
            let key = p.string()?;
            p.eat(b':')?;
            Ok((key, p.value()?))
        };
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.list(b'}', member)?)),
            Some(b'[') => Ok(Json::Arr(self.list(b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json> {
        if !self.text[self.i..].starts_with(word) {
            return Err(self.err("bad literal"));
        }
        self.i += word.len();
        Ok(v)
    }

    /// The comma-separated items between the bracket at `i` and `close`.
    fn list<T>(&mut self, close: u8, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.i += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b) if b == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected `,` or {:?}", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or_else(|| self.err("unterminated string"))? {
                '"' => return Ok(out),
                '\\' => out.push(match self.next() {
                    Some(c @ ('"' | '\\' | '/')) => c,
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('u') => {
                        let hex = self.text.get(self.i..self.i + 4);
                        let code = hex
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        self.i += 4;
                        char::from_u32(code).unwrap_or('\u{FFFD}')
                    }
                    _ => return Err(self.err("bad escape")),
                }),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let rest = &self.text[self.i..];
        let len = rest
            .bytes()
            .take_while(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let token = &rest[..len];
        self.i += len;
        // A plain digit string is a count and is kept exact; `u64` parsing
        // refuses a minus sign, a fraction, an exponent and overflow.
        match token.parse::<u64>() {
            Ok(n) => Ok(Json::Int(n)),
            Err(_) => token
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("bad number")),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// [`Error::Spec`] with the byte offset of the first malformed token.
pub(crate) fn parse(text: &str) -> Result<Json> {
    let mut p = Parser { text, i: 0 };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing garbage")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_takes_any_spacing_and_escape_and_rejects_garbage() {
        let v = parse(" { \"a\" : [ ] ,\n\"b\":\"\\/\\u00e9\\\\\" , \"c\": [ null , 1e3, -1 ] } ")
            .unwrap();
        let expect = Json::obj([
            ("a", Json::Arr(vec![])),
            ("b", Json::Str("/é\\".into())),
            (
                "c",
                Json::Arr(vec![Json::Null, Json::Num(1000.0), Json::Num(-1.0)]),
            ),
        ]);
        assert_eq!(v, expect);
        // What is written reads back, layout and escapes included.
        assert_eq!(parse(&expect.render()).unwrap(), expect);
        for bad in [
            "",
            "{\"a\": }",
            "{} trailing",
            "{\"elements\": [{\"name\"]}",
            "\"open",
            "[1 2]",
            "[1,]",
            "1.2.3",
            "-",
            "tru",
            "\"\\x\"",
            "\"\\u12\"",
            "{\"a\" 1}",
            "{a: 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
