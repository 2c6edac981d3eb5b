//! JSON string escaping, shared by every JSON writer in the workspace: the
//! SPARQL-JSON results serializer, the facet-panel writer and the server's
//! hand-built bodies.
//!
//! The rules: `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use
//! their short escapes, every other character below U+0020 is written as
//! `\u00xx` (lowercase hex), and everything else — non-ASCII included — is
//! copied through unchanged. The escaper walks the input once and copies
//! unescaped runs in bulk, so it allocates nothing of its own.

/// Escape sequences for the control characters U+0000..U+001F.
const CONTROL: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// The escape sequence for one byte, or `None` when it is copied verbatim.
/// Every escaped character is ASCII, so scanning UTF-8 bytewise is sound:
/// bytes of a multi-byte sequence are all >= 0x80 and pass through.
fn escape_of(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(CONTROL[b as usize]),
        _ => None,
    }
}

/// Feed the escaped form of `s` to `emit` as borrowed pieces: unescaped
/// runs of `s` interleaved with static escape sequences.
fn for_each_piece<E>(s: &str, mut emit: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(esc) = escape_of(b) {
            if start < i {
                emit(&s[start..i])?;
            }
            emit(esc)?;
            start = i + 1;
        }
    }
    if start < s.len() {
        emit(&s[start..])?;
    }
    Ok(())
}

/// Append `s` to `out` escaped as JSON string content, without quotes.
pub fn push_escaped(out: &mut String, s: &str) {
    let _ = for_each_piece(s, |p| {
        out.push_str(p);
        Ok::<(), std::convert::Infallible>(())
    });
}

/// Append `s` to `out` as a quoted JSON string.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Write `s` to `out` as a quoted JSON string.
pub fn write_string(out: &mut impl std::io::Write, s: &str) -> std::io::Result<()> {
    out.write_all(b"\"")?;
    for_each_piece(s, |p| out.write_all(p.as_bytes()))?;
    out.write_all(b"\"")
}

/// `s` as a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-character rules, written out the slow way.
    fn oracle(s: &str) -> String {
        let mut out = String::from("\"");
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
        out
    }

    #[test]
    fn every_control_character_and_specials_match_the_rules() {
        let mut all: String = (0u8..0x80).map(char::from).collect();
        all.push_str("héllo \u{7f} 日本 \u{1F600} \"q\" \\b\\");
        for s in [all.as_str(), "", "plain", "\"", "\\", "a\u{1}b", "\u{1f}"] {
            assert_eq!(string(s), oracle(s), "{s:?}");
            let mut w = Vec::new();
            write_string(&mut w, s).unwrap();
            assert_eq!(String::from_utf8(w).unwrap(), oracle(s), "{s:?}");
        }
    }

    #[test]
    fn push_escaped_appends_without_quotes() {
        let mut out = String::from("x=");
        push_escaped(&mut out, "a\"b\nc");
        assert_eq!(out, "x=a\\\"b\\nc");
    }
}
