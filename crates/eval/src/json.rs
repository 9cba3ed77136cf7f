//! A minimal JSON document builder and writer.
//!
//! The evaluation report must serialize to JSON and this workspace builds
//! without crates.io access, so this module is the one JSON writer: a
//! [`Json`] value tree with escaping-correct, locale-independent output.
//! Parsing is intentionally out of scope.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// An unsigned integer, serialized exactly (an f64 would corrupt
    /// values above 2^53 — e.g. corpus seeds).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip float formatting is valid
                    // JSON for finite values.
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Uint(x) => out.push_str(&format!("{x}")),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(
                out,
                indent,
                depth,
                '[',
                ']',
                items.iter(),
                |out, item, d| item.write(out, indent, d),
            ),
            Json::Obj(pairs) => write_seq(
                out,
                indent,
                depth,
                '{',
                '}',
                pairs.iter(),
                |out, (k, v), d| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                },
            ),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Uint(x as u64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Uint(x)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}

impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::Num(1.5).to_string_compact(), "1.5");
        assert_eq!(Json::Num(5.0).to_string_compact(), "5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn large_integers_are_exact() {
        // Above 2^53, f64 would round; Uint must not.
        assert_eq!(
            Json::from(u64::MAX).to_string_compact(),
            "18446744073709551615"
        );
        assert_eq!(
            Json::from(usize::MAX).to_string_compact(),
            usize::MAX.to_string()
        );
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nested_structure_compact() {
        let j = Json::obj([
            ("name", Json::from("vote")),
            ("bins", Json::arr([Json::from(1.0), Json::from(0.25)])),
            ("empty", Json::arr([])),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"vote","bins":[1,0.25],"empty":[]}"#
        );
    }

    #[test]
    fn pretty_output_is_indented_and_reparses_structurally() {
        let j = Json::obj([("a", Json::arr([Json::from(1.0)]))]);
        let s = j.to_string_pretty();
        assert!(s.contains("\n  \"a\": [\n    1\n  ]\n"), "{s}");
    }

    #[test]
    fn float_roundtrip_precision() {
        let x = 0.123456789012345_f64;
        let s = Json::Num(x).to_string_compact();
        assert_eq!(s.parse::<f64>().unwrap(), x);
    }
}
