//! A tiny deterministic JSON value tree: renderer, parser, and the
//! checksummed envelope the on-disk caches share.
//!
//! The workspace is dependency-free by design, so JSON is rendered and
//! parsed by hand. The tree keeps object fields in insertion order and
//! every producer feeds it from sorted containers, so the emitted bytes
//! are identical across runs — the CI determinism gate and the
//! golden-file tests compare them verbatim. [`Json::parse`] reads back
//! exactly the subset the renderer emits.
//!
//! ## Sealed documents
//!
//! The check cache (`fearless-incr`) and the flow cache (`fearless-flow`)
//! persist one document each, `{schema, checksum, payload fields...}`.
//! [`seal`] embeds an FNV-1a 64 checksum ([`checksum_hex`]) of the
//! payload fields rendered as one object; [`read_sealed`] re-renders the
//! parsed payload and compares, so any content-altering corruption (bit
//! flip, truncation that still parses, torn write) is caught.
//! [`write_atomic`] lands a document through a temp file and a `rename`,
//! so a crashed save leaves the old document or the new one, never a
//! torn hybrid.

use std::borrow::Borrow;
use std::path::Path;

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON value. Objects preserve insertion order; determinism is the
/// producer's responsibility (emit from sorted containers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer (the only numeric kind the metrics need).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses the JSON subset [`Json::render`] and [`Json::render_compact`]
    /// emit: objects, arrays, strings with the renderer's escapes,
    /// unsigned integers, booleans and null. Commas are read as
    /// whitespace. Returns `None` on any malformed input, and on input
    /// that nests more than [`MAX_DEPTH`] arrays and objects — the parser
    /// recurses once per level, so unbounded nesting (a frame of `[`s)
    /// would otherwise overflow the stack.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == text.len()).then_some(v)
    }

    /// The value of the first field named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer, when `self` is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when `self` is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Moves the first field named `key` out of an object, leaving
    /// `null` behind; an absent field reads as an empty object.
    fn take_field(&mut self, key: &str) -> Json {
        let field = match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key),
            _ => None,
        };
        field.map_or(Json::Obj(Vec::new()), |(_, v)| {
            std::mem::replace(v, Json::Null)
        })
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line, no trailing newline — for
    /// line-oriented formats (e.g. the incremental cache's write-ahead
    /// journal) where one value must occupy exactly one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::U64(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    item.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(fields) => write_obj(out, depth, fields.iter().map(|(k, v)| (k, v))),
        }
    }
}

/// Writes an object at `depth`, one member at a time.
fn write_obj<K, V>(out: &mut String, depth: usize, fields: impl IntoIterator<Item = (K, V)>)
where
    K: AsRef<str>,
    V: Borrow<Json>,
{
    let mut empty = true;
    for (k, v) in fields {
        out.push(if empty { '{' } else { ',' });
        empty = false;
        write_key(out, depth + 1, k.as_ref());
        v.borrow().write(out, depth + 1);
    }
    if empty {
        out.push_str("{}");
    } else {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push('}');
    }
}

/// Writes the start of an object member at `depth`, up to its value.
fn write_key(out: &mut String, depth: usize, key: &str) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push('"');
    out.push_str(&escape(key));
    out.push_str("\": ");
}

/// `fields` rendered as one pretty-printed object, as [`Json::render`]
/// renders `Json::Obj(fields)`.
fn render_obj(fields: &[(String, Json)]) -> String {
    let mut out = String::new();
    write_obj(&mut out, 0, fields.iter().map(|(k, v)| (k, v)));
    out.push('\n');
    out
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The documents the workspace writes (traces, BENCH files, caches,
/// journals, serve frames) nest at most 7 levels, so 128 rejects only
/// hostile or corrupt input.
pub const MAX_DEPTH: usize = 128;

/// A cursor over the text [`Json::parse`] reads.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r' | b',')) {
            self.pos += 1;
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Option<Json> {
        if !self.text[self.pos..].starts_with(word) {
            return None;
        }
        self.pos += word.len();
        Some(value)
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return None;
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'0'..=b'9' => {
                let start = self.pos;
                let rest = &self.text.as_bytes()[start..];
                self.pos += rest.iter().take_while(|b| b.is_ascii_digit()).count();
                self.text[start..self.pos].parse().ok().map(Json::U64)
            }
            _ => None,
        }
    }

    /// Reads object members after the opening `{`, through the `}`.
    fn object(&mut self) -> Option<Json> {
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            match self.peek()? {
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                b'"' => {
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek()? != b':' {
                        return None;
                    }
                    self.pos += 1;
                    fields.push((key, self.value()?));
                }
                _ => return None,
            }
        }
    }

    /// Reads array items after the opening `[`, through the `]`.
    fn array(&mut self) -> Option<Json> {
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek()? == b']' {
                self.pos += 1;
                return Some(Json::Arr(items));
            }
            items.push(self.value()?);
        }
    }

    /// Reads a string literal starting at its opening quote. Each run of
    /// unescaped characters is copied as one slice; the renderer leaves
    /// non-ASCII text unescaped, and `"`/`\\` never occur inside a
    /// multi-byte UTF-8 sequence, so the runs split on char boundaries.
    fn string(&mut self) -> Option<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.peek()? == b'"' {
                self.pos += 1;
                return Some(out);
            }
            let escaped = *self.text.as_bytes().get(self.pos + 1)?;
            self.pos += 2;
            match escaped {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4)?;
                    out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                    self.pos += 4;
                }
                _ => return None,
            }
        }
    }
}

/// FNV-1a 64 over `text`, in fixed-width lowercase hex: the content
/// checksum of sealed documents, WAL lines and serve request keys.
pub fn checksum_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Renders a sealed document: `schema`, then the checksum of `payload`,
/// then the payload fields themselves. Every payload field is an object,
/// given as its members; each member is rendered and dropped before the
/// next is produced, so a save never holds a document-sized value tree.
pub fn seal<const N: usize>(
    schema: &str,
    payload: [(&str, &mut dyn Iterator<Item = (String, Json)>); N],
) -> String {
    const { assert!(N > 0, "a sealed document has at least one payload field") };
    // The payload object the checksum covers, as `Json::render` renders it.
    let mut doc = String::from("{");
    for (i, (key, members)) in payload.into_iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        write_key(&mut doc, 1, key);
        write_obj(&mut doc, 1, members);
    }
    doc.push_str("\n}\n");
    // The document is that object with `schema` and `checksum` as its
    // first fields.
    let header = format!(
        "\n  \"schema\": \"{}\",\n  \"checksum\": \"{}\",",
        escape(schema),
        checksum_hex(&doc)
    );
    doc.insert_str(1, &header);
    doc
}

/// Reads the sealed document at `path`, returning the payload values
/// named by `keys` (an absent key reads as an empty object). `Ok(None)`
/// means no file exists. Any other failure is an error naming why the
/// document was discarded: `unreadable`, `invalid utf-8`,
/// `malformed json`, `schema mismatch`, `missing checksum` or
/// `checksum mismatch`.
///
/// # Errors
///
/// The reason string above; a cache degrades to a cold start on it.
pub fn read_sealed<const N: usize>(
    path: &Path,
    schema: &str,
    keys: [&str; N],
) -> Result<Option<[Json; N]>, &'static str> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(_) => return Err("unreadable"),
    };
    let text = String::from_utf8(bytes).map_err(|_| "invalid utf-8")?;
    let mut root = match Json::parse(&text) {
        Some(root @ Json::Obj(_)) => root,
        _ => return Err("malformed json"),
    };
    if root.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err("schema mismatch");
    }
    let stored = root.get("checksum").and_then(Json::as_str);
    let stored = stored.ok_or("missing checksum")?.to_string();
    let payload = keys.map(|key| (key.to_string(), root.take_field(key)));
    if checksum_hex(&render_obj(&payload)) != stored {
        return Err("checksum mismatch");
    }
    Ok(Some(payload.map(|(_, v)| v)))
}

/// Writes `text` to `path` through the temp file `tmp` and a `rename`.
///
/// # Errors
///
/// Returns a message when the temp file cannot be written or renamed.
pub fn write_atomic(path: &Path, tmp: &Path, text: &str) -> Result<(), String> {
    std::fs::write(tmp, text)
        .map_err(|e| format!("cannot write cache temp `{}`: {e}", tmp.display()))?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        format!("cannot commit cache `{}`: {e}", path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("a\u{2}b"), "a\\u0002b");
        assert_eq!(escape("a\rb\tc"), "a\\rb\\tc");
    }

    #[test]
    fn renders_nested_deterministically() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::obj([("x", Json::str("y"))])),
        ]);
        let first = v.render();
        let second = v.render();
        assert_eq!(first, second);
        assert!(first.starts_with("{\n  \"b\": 1,"), "{first}");
        assert!(first.ends_with("}\n"), "{first}");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    /// Every character the renderer escapes, plus multi-byte UTF-8.
    const AWKWARD: &str = "q\"b\\n\nr\rt\t\u{0}\u{1f}\u{7f} é 漢字 🦀";

    #[test]
    fn parse_inverts_render_on_a_large_document() {
        let entries: Vec<(String, Json)> = (0..5000u64)
            .map(|i| {
                let v = Json::obj([
                    ("text", Json::str(format!("{AWKWARD} #{i}"))),
                    ("n", Json::U64(i * 0x9e37_79b9)),
                    ("flags", Json::Arr(vec![Json::Bool(i % 2 == 0), Json::Null])),
                    ("empty", Json::obj(Vec::<(String, Json)>::new())),
                ]);
                (format!("key {i} {AWKWARD}"), v)
            })
            .collect();
        let doc = Json::obj([
            ("entries", Json::Obj(entries)),
            ("max", Json::U64(u64::MAX)),
        ]);
        let text = doc.render();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).as_ref(), Some(&doc));
        let compact = doc.render_compact();
        assert_eq!(Json::parse(&compact).as_ref(), Some(&doc));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "\"unterminated",
            "{\"a\": \"trunc",
            "\"\\u12g4\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "{\"a\" 1}",
            "[1 2",
            "-1",
            "18446744073709551616",
            "tru",
            "{} x",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |levels: usize| {
            let mut v = Json::U64(7);
            for i in 0..levels {
                v = if i % 2 == 0 {
                    Json::Arr(vec![v])
                } else {
                    Json::obj([("k", v)])
                };
            }
            v
        };
        let at_limit = nested(MAX_DEPTH);
        assert_eq!(Json::parse(&at_limit.render()).as_ref(), Some(&at_limit));
        assert_eq!(
            Json::parse(&at_limit.render_compact()).as_ref(),
            Some(&at_limit)
        );
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1).render()), None);
        // One 200 KB frame of `[` is refused, not a stack overflow.
        assert_eq!(Json::parse(&"[".repeat(200 * 1024)), None);
        let balanced = format!("{}{}", "[".repeat(200 * 1024), "]".repeat(200 * 1024));
        assert_eq!(Json::parse(&balanced), None);
    }

    #[test]
    fn parse_reads_commas_as_whitespace() {
        let v = Json::parse("{\"a\",: 1,, \"b\": [1,,2 3]},").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)]))
        );
        assert_eq!(v.get("c"), None);
        assert_eq!(
            Json::parse("\"\\u0041\"").as_ref().and_then(Json::as_str),
            Some("A")
        );
    }

    #[test]
    fn sealed_documents_round_trip_and_detect_tampering() {
        let dir = std::env::temp_dir().join(format!("fearless-trace-seal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        assert_eq!(read_sealed(&path, "s/1", ["a"]), Ok(None));
        let mut a = [("x".to_string(), Json::str(AWKWARD))].into_iter();
        let mut b = [("y".to_string(), Json::U64(7))].into_iter();
        let mut empty = std::iter::empty();
        let text = seal("s/1", [("a", &mut a), ("b", &mut b), ("e", &mut empty)]);
        // The streamed document is exactly the tree rendering.
        let payload = [
            ("a", Json::obj([("x", Json::str(AWKWARD))])),
            ("b", Json::obj([("y", Json::U64(7))])),
            ("e", Json::Obj(Vec::new())),
        ];
        let checksum = checksum_hex(&Json::obj(payload.clone()).render());
        let mut tree = vec![
            ("schema", Json::str("s/1")),
            ("checksum", Json::str(checksum)),
        ];
        tree.extend(payload.clone());
        assert_eq!(text, Json::obj(tree).render());

        write_atomic(&path, &dir.join("doc.tmp"), &text).unwrap();
        assert!(!dir.join("doc.tmp").exists());
        let read = read_sealed(&path, "s/1", ["a", "b", "e"]);
        assert_eq!(read, Ok(Some(payload.map(|(_, v)| v))));
        // An absent key reads as an empty object, which the checksum
        // then covers too.
        assert_eq!(
            read_sealed(&path, "s/1", ["a", "b", "e", "c"]),
            Err("checksum mismatch")
        );
        assert_eq!(read_sealed(&path, "s/2", ["a"]), Err("schema mismatch"));
        std::fs::write(&path, text.replace("\"y\": 7", "\"y\": 8")).unwrap();
        assert_eq!(
            read_sealed(&path, "s/1", ["a", "b", "e"]),
            Err("checksum mismatch")
        );
        std::fs::write(&path, "[]").unwrap();
        assert_eq!(read_sealed(&path, "s/1", ["a"]), Err("malformed json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_render_is_one_line() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::obj([("x", Json::str("y\nz"))])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line,
            "{\"b\": 1, \"a\": [true, null], \"c\": {\"x\": \"y\\nz\"}}"
        );
    }
}
