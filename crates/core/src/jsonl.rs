//! Flat JSON-line codec of the run journal.
//!
//! The crash-safe run journal (`dabench-journal-v1`, see
//! [`crate::supervise`]) speaks one restricted dialect: **one flat JSON
//! object per line, string values only**. The restriction is deliberate — a flat
//! string-only object round-trips byte-exactly through a hand-rolled
//! parser small enough to audit, which is what lets the journal promise
//! byte-identical replay with no dependencies.
//!
//! Escaping covers `"`/`\\`/control characters (as `\uXXXX`); parsing
//! accepts exactly what [`escape`] emits plus the standard short escapes,
//! so parsing an object whose keys and values were written with
//! [`escape`] is an identity on the pairs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parse one line as a flat JSON object with string values only.
///
/// Returns `None` on any syntactic deviation — the caller decides whether
/// that means a truncated tail or mid-file corruption. Duplicate keys keep
/// the last occurrence.
#[must_use]
pub fn parse_object(line: &str) -> Option<BTreeMap<String, String>> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = BTreeMap::new();

    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    if chars.next()? != '{' {
        return None;
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
                continue;
            }
            _ => {
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next()? != ':' {
                    return None;
                }
                skip_ws(&mut chars);
                let value = parse_string(&mut chars)?;
                fields.insert(key, value);
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage after the object
    }
    Some(fields)
}

/// A truncated hex dump of `text`'s leading bytes, for diagnostics on
/// records that failed to parse: `"67 61 72 62 …"` (at most `max_bytes`
/// bytes shown, an ellipsis marking the cut).
#[must_use]
pub fn hex_snippet(text: &str, max_bytes: usize) -> String {
    let bytes = text.as_bytes();
    let shown = &bytes[..bytes.len().min(max_bytes)];
    let mut out = String::with_capacity(shown.len() * 3 + 2);
    for (i, b) in shown.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{b:02x}");
    }
    if bytes.len() > max_bytes {
        out.push_str(" …");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_parse_is_identity() {
        let pairs = [
            ("label", "fig9"),
            ("status", "completed"),
            ("data", "line1\nline2\t\"quoted\" \\ back\u{1}slash é"),
        ];
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        let line = format!("{{{}}}", fields.join(","));
        assert!(!line.contains('\n'), "single line: {line:?}");
        let parsed = parse_object(&line).expect("round-trips");
        for (k, v) in pairs {
            assert_eq!(parsed.get(k).map(String::as_str), Some(v), "key {k}");
        }
    }

    #[test]
    fn rejects_non_objects_and_trailing_garbage() {
        assert_eq!(parse_object(""), None);
        assert_eq!(parse_object("garbage"), None);
        assert_eq!(parse_object("[1,2]"), None);
        assert_eq!(parse_object("{\"a\":\"b\"} extra"), None);
        assert_eq!(parse_object("{\"a\":1}"), None, "non-string value");
        assert_eq!(parse_object("{\"a\":\"b"), None, "unterminated string");
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_object("{}"), Some(BTreeMap::new()));
    }

    #[test]
    fn hex_snippet_truncates_and_marks_the_cut() {
        assert_eq!(hex_snippet("garb", 8), "67 61 72 62");
        assert_eq!(hex_snippet("garbage!", 4), "67 61 72 62 …");
        assert_eq!(hex_snippet("", 4), "");
    }
}
