//! The one JSON writer behind every document the figure binaries print.
//!
//! Nothing else in this crate spells JSON syntax: a figure builds its
//! header fields and its rows as [`Object`]s with
//! [`object!`](crate::object) and hands the top-level one to
//! [`Object::document`], which lays them out the way the six pinned
//! references (`crates/bench/reference/*.json`) expect — one top-level
//! field per line, and an array-valued top-level field (the rows) one
//! element per line. Everything below the top level renders inline.

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed exactly.
    Int(i128),
    /// A float printed with a fixed number of decimals (`{:.N}`); a
    /// non-finite value prints `null`.
    Fixed(f64, usize),
    /// A string, quoted and escaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Object),
}

/// `value` printed with exactly `decimals` decimals.
pub fn fixed(value: f64, decimals: usize) -> Json {
    Json::Fixed(value, decimals)
}

/// An insertion-ordered JSON object: keys print in the order they were
/// added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(&'static str, Json)>);

/// An [`Object`] from `"key" => value` pairs, in order — shorthand for
/// a chain of [`Object::field`] calls.
#[macro_export]
macro_rules! object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Object::new()$(.field($key, $value))*
    };
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value` (chainable).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// The object as a whole document: `{`, one `"key": value` line per
    /// field, `}`. An array-valued field opens on its key's line and puts
    /// each element on a line of its own. No trailing newline.
    pub fn document(&self) -> String {
        let mut out = String::from("{\n");
        join(&mut out, ",\n", &self.0, |out, (key, value)| {
            out.push_str("  ");
            write_key(out, key);
            match value {
                Json::Array(items) => {
                    out.push_str("[\n");
                    join(out, ",\n", items, |out, item| {
                        out.push_str("    ");
                        item.write(out);
                    });
                    out.push_str("\n  ]");
                }
                inline => inline.write(out),
            }
        });
        out.push_str("\n}");
        out
    }
}

impl Json {
    /// Appends the inline rendering of `self` to `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Fixed(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push('[');
                join(out, ", ", items, |out, item| item.write(out));
                out.push(']');
            }
            Json::Object(Object(fields)) => {
                out.push('{');
                join(out, ", ", fields, |out, (key, value)| {
                    write_key(out, key);
                    value.write(out);
                });
                out.push('}');
            }
        }
    }
}

/// Appends `items`, each rendered by `each`, separated by `sep`.
fn join<'a, T: 'a>(
    out: &mut String,
    sep: &str,
    items: impl IntoIterator<Item = &'a T>,
    mut each: impl FnMut(&mut String, &'a T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
}

/// Appends `"key": `.
fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push_str(": ");
}

/// Appends `s` quoted, escaping `"`, `\` and every control character.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                // Lossless: every one of these types fits in an i128.
                Json::Int(n as i128)
            }
        }
    )*};
}
from_int!(i32, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Object> for Json {
    fn from(o: Object) -> Self {
        Json::Object(o)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(value: impl Into<Json>) -> String {
        let mut out = String::new();
        value.into().write(&mut out);
        out
    }

    #[test]
    fn scalars_render_exactly() {
        assert_eq!(inline(true), "true");
        assert_eq!(inline(false), "false");
        assert_eq!(inline(0usize), "0");
        assert_eq!(inline(-7i32), "-7");
        assert_eq!(inline(u64::MAX), "18446744073709551615");
        assert_eq!(inline(None::<u64>), "null");
        assert_eq!(inline(Some(3u32)), "3");
        assert_eq!(inline(Json::Null), "null");
    }

    #[test]
    fn fixed_decimals_round_and_pad() {
        assert_eq!(inline(fixed(0.5, 1)), "0.5");
        assert_eq!(inline(fixed(2.0, 1)), "2.0");
        assert_eq!(inline(fixed(0.25, 2)), "0.25");
        assert_eq!(inline(fixed(5.7764, 3)), "5.776");
        assert_eq!(inline(fixed(0.0, 4)), "0.0000");
        assert_eq!(inline(fixed(0.0118104, 6)), "0.011810");
        assert_eq!(inline(fixed(1234.56, 0)), "1235");
        assert_eq!(inline(fixed(f64::INFINITY, 3)), "null");
        assert_eq!(inline(fixed(f64::NAN, 3)), "null");
        assert_eq!(inline(Some(fixed(1.0, 3))), "1.000");
        assert_eq!(inline(None::<Json>), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(inline("src -> relay -> sink"), r#""src -> relay -> sink""#);
        assert_eq!(inline(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(inline(r"C:\tmp"), r#""C:\\tmp""#);
        assert_eq!(inline("a\nb\rc\td"), r#""a\nb\rc\td""#);
        assert_eq!(inline("\u{0}\u{1f}"), r#""\u0000\u001f""#);
        assert_eq!(inline("µs ✓"), "\"µs ✓\"");
    }

    #[test]
    fn nested_objects_and_arrays_render_inline() {
        let row = object! {
            "system" => "runc", "ci" => vec![fixed(5.317, 3), fixed(8.248, 3)],
            "pool" => object! { "hits" => 7u64, "idle_s" => fixed(8.25, 6) },
            "events" => vec![object! { "action" => "up" }],
            "none" => Vec::<Json>::new(), "empty" => Object::new(),
        };
        assert_eq!(
            inline(row),
            concat!(
                r#"{"system": "runc", "ci": [5.317, 8.248], "#,
                r#""pool": {"hits": 7, "idle_s": 8.250000}, "#,
                r#""events": [{"action": "up"}], "none": [], "empty": {}}"#
            )
        );
    }

    #[test]
    fn documents_put_each_field_and_each_row_on_its_own_line() {
        let rows = vec![
            object! { "a" => 1u32, "b" => None::<u32> },
            object! { "a" => 2u32, "b" => Some(fixed(0.5, 2)) },
        ];
        let doc = object! {
            "figure" => "fig0", "cluster" => object! { "nodes" => 2usize },
            "gate" => object! { "pass" => true }, "cells" => rows,
        };
        assert_eq!(
            doc.document(),
            concat!(
                "{\n",
                "  \"figure\": \"fig0\",\n",
                "  \"cluster\": {\"nodes\": 2},\n",
                "  \"gate\": {\"pass\": true},\n",
                "  \"cells\": [\n",
                "    {\"a\": 1, \"b\": null},\n",
                "    {\"a\": 2, \"b\": 0.50}\n",
                "  ]\n",
                "}"
            )
        );
    }

    #[test]
    fn an_empty_row_list_keeps_the_row_layout() {
        let doc = Object::new().field("rows", Vec::<Object>::new()).document();
        assert_eq!(doc, "{\n  \"rows\": [\n\n  ]\n}");
    }
}
