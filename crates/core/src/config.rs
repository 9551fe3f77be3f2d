//! Utilities for element configuration strings.
//!
//! Click configuration strings are the raw text between the parentheses of
//! an element declaration, e.g. the `12/0800, -` in `Classifier(12/0800, -)`.
//! Tools frequently need to split them into comma-separated arguments while
//! respecting nested parentheses, brackets, and quoted strings, and to
//! substitute `$variable` references when expanding compound elements.

/// Splits a configuration string into top-level comma-separated arguments.
///
/// Commas inside `(...)`, `[...]`, `{...}`, or double-quoted strings do not
/// split. Each argument is trimmed of surrounding whitespace. An empty or
/// all-whitespace string yields no arguments.
///
/// # Examples
///
/// ```
/// use click_core::config::split_args;
///
/// assert_eq!(split_args("12/0800, -"), vec!["12/0800", "-"]);
/// assert_eq!(split_args("a(b, c), \"d,e\""), vec!["a(b, c)", "\"d,e\""]);
/// assert!(split_args("   ").is_empty());
/// ```
pub fn split_args(config: &str) -> Vec<String> {
    arg_slices(config).into_iter().map(str::to_owned).collect()
}

/// [`split_args`] without the copies: the arguments as slices of `config`.
pub fn arg_slices(config: &str) -> Vec<&str> {
    let mut args = Vec::new();
    let mut depth = 0usize;
    let mut in_quote = false;
    let mut start = 0usize;
    let bytes = config.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if in_quote {
            match c {
                b'\\' => i += 1, // skip escaped character
                b'"' => in_quote = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => in_quote = true,
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    args.push(config[start..i].trim());
                    start = i + 1;
                }
                _ => {}
            }
        }
        i += 1;
    }
    let last = config[start..].trim();
    if !last.is_empty() || !args.is_empty() {
        args.push(last);
    }
    // Trailing comma produces an empty final argument; Click ignores it.
    if args.last().is_some_and(|a| a.is_empty()) {
        args.pop();
    }
    args
}

/// Joins arguments back into a configuration string.
pub fn join_args<S: AsRef<str>>(args: &[S]) -> String {
    args.iter()
        .map(|a| a.as_ref())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Substitutes `$name` and `${name}` variable references in a configuration
/// string.
///
/// A `$name` reference ends at the first character that is not alphanumeric
/// or `_`. Unknown variables are left untouched (so nested compound
/// parameters survive until their own expansion).
///
/// # Examples
///
/// ```
/// use click_core::config::substitute;
///
/// let bindings = [("cap".to_string(), "100".to_string())];
/// assert_eq!(substitute("$cap, $other", &bindings), "100, $other");
/// assert_eq!(substitute("${cap}x", &bindings), "100x");
/// ```
pub fn substitute(config: &str, bindings: &[(String, String)]) -> String {
    let mut out = String::with_capacity(config.len());
    let mut rest = config;
    while let Some(dollar) = rest.find('$') {
        out.push_str(&rest[..dollar]);
        rest = &rest[dollar + 1..];
        // The referenced name and the length of the reference after `$`.
        let (name, len) = match rest.strip_prefix('{') {
            Some(braced) => match braced.find('}') {
                Some(end) => (&braced[..end], end + 2),
                None => ("", 0),
            },
            None => {
                let word = |c: char| c.is_alphanumeric() || c == '_';
                let end = rest.find(|c| !word(c)).unwrap_or(rest.len());
                (&rest[..end], end)
            }
        };
        match bindings.iter().find(|(k, _)| k == name && !name.is_empty()) {
            Some((_, value)) => {
                out.push_str(value);
                rest = &rest[len..];
            }
            None => out.push('$'),
        }
    }
    out.push_str(rest);
    out
}

/// Parses a dotted-quad IPv4 address in one pass: exactly four fields,
/// each what `str::parse::<u8>` accepts (so `+7` and `007` are fields).
pub fn parse_ipv4(s: impl AsRef<[u8]>) -> Option<u32> {
    let (mut addr, mut field, mut digits, mut dots, mut signed) = (0u32, 0u32, 0, 0, false);
    for &b in s.as_ref() {
        match b {
            b'0'..=b'9' => {
                field = (field * 10 + u32::from(b - b'0')).min(256);
                digits += 1;
            }
            b'.' if digits > 0 && field <= 255 && dots < 3 => {
                addr = (addr << 8) | field;
                (field, digits, signed) = (0, 0, false);
                dots += 1;
            }
            b'+' if digits == 0 && !signed => signed = true,
            _ => return None,
        }
    }
    (dots == 3 && digits > 0 && field <= 255).then_some((addr << 8) | field)
}

/// What `str::parse` accepts for an unsigned integer, on bytes: an
/// optional `+`, then one or more ASCII digits; `None` above `max`.
fn decimal(field: &[u8], max: u64) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &d| {
        let d = d.is_ascii_digit().then(|| u64::from(d - b'0'))?;
        v.checked_mul(10)?.checked_add(d).filter(|&v| v <= max)
    })
}

/// One `StaticIPLookup` route entry, `ADDR[/PLEN] [GW] PORT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination, masked to `plen` bits.
    pub addr: u32,
    /// Prefix length, 0–32 (32 when the entry gives none).
    pub plen: u8,
    /// Gateway, when the entry names one.
    pub gateway: Option<u32>,
    /// Output port.
    pub port: usize,
}

/// The field of a route entry that [`parse_route`] refused, checked in
/// this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Not two or three words.
    Shape,
    /// Prefix length not a number up to 32.
    Prefix,
    /// Destination not a dotted quad.
    Address,
    /// Gateway not a dotted quad.
    Gateway,
    /// Output port not a number.
    Port,
}

/// Parses one `ADDR[/PLEN] [GW] PORT` route entry, split into words as
/// `str::split_whitespace` splits it.
pub fn parse_route(entry: &str) -> Result<Route, RouteError> {
    route_from_words(entry.split_whitespace().map(str::as_bytes))
}

fn route_from_words<'a>(mut words: impl Iterator<Item = &'a [u8]>) -> Result<Route, RouteError> {
    let (Some(dst), Some(second), third, None) =
        (words.next(), words.next(), words.next(), words.next())
    else {
        return Err(RouteError::Shape);
    };
    let (addr, plen) = match dst.iter().position(|&b| b == b'/') {
        Some(slash) => (
            &dst[..slash],
            decimal(&dst[slash + 1..], 32).ok_or(RouteError::Prefix)? as u8,
        ),
        None => (dst, 32),
    };
    let addr = parse_ipv4(addr).ok_or(RouteError::Address)?;
    let (gateway, port) = match third {
        Some(port) => (Some(parse_ipv4(second).ok_or(RouteError::Gateway)?), port),
        None => (None, second),
    };
    let port = decimal(port, usize::MAX as u64).ok_or(RouteError::Port)? as usize;
    Ok(Route {
        addr: addr & u32::MAX.checked_shl(32 - u32::from(plen)).unwrap_or(0),
        plen,
        gateway,
        port,
    })
}

/// Returns true if the string is a well-formed `$variable` name reference
/// (used by `click-xform` pattern wildcards).
pub fn is_variable(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next() == Some('$')
        && !s[1..].is_empty()
        && s[1..].chars().all(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_simple() {
        assert_eq!(split_args("a, b, c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn split_empty_yields_nothing() {
        assert!(split_args("").is_empty());
        assert!(split_args("  \t ").is_empty());
    }

    #[test]
    fn split_respects_nesting_and_quotes() {
        assert_eq!(
            split_args("f(a, b), [1, 2], {x, y}"),
            vec!["f(a, b)", "[1, 2]", "{x, y}"]
        );
        assert_eq!(
            split_args(r#""quoted, comma", z"#),
            vec![r#""quoted, comma""#, "z"]
        );
        assert_eq!(
            split_args(r#""esc \" , q", z"#),
            vec![r#""esc \" , q""#, "z"]
        );
    }

    #[test]
    fn split_keeps_interior_empty_args() {
        assert_eq!(split_args("a,,b"), vec!["a", "", "b"]);
    }

    #[test]
    fn split_drops_trailing_comma() {
        assert_eq!(split_args("a, b,"), vec!["a", "b"]);
    }

    #[test]
    fn join_inverts_split_for_simple_args() {
        let args = split_args("1, two, 3.0");
        assert_eq!(join_args(&args), "1, two, 3.0");
    }

    #[test]
    fn substitute_word_boundaries() {
        let b = [
            ("a".to_string(), "X".to_string()),
            ("ab".to_string(), "Y".to_string()),
        ];
        assert_eq!(substitute("$a $ab $abc", &b), "X Y $abc");
        assert_eq!(substitute("$a,$a", &b), "X,X");
    }

    #[test]
    fn substitute_braced() {
        let b = [("n".to_string(), "5".to_string())];
        assert_eq!(substitute("${n}00", &b), "500");
        assert_eq!(substitute("${missing}", &b), "${missing}");
    }

    #[test]
    fn lone_dollar_passes_through() {
        assert_eq!(substitute("cost: $", &[]), "cost: $");
        assert_eq!(substitute("$ x", &[]), "$ x");
    }

    #[test]
    fn variable_detection() {
        assert!(is_variable("$x"));
        assert!(is_variable("$port_2"));
        assert!(!is_variable("$"));
        assert!(!is_variable("x"));
        assert!(!is_variable("$a b"));
    }
}
