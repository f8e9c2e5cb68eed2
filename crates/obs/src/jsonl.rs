//! The workspace's one durable-JSONL layer: JSON rendering, the strict
//! parser, and the crash-safe file protocol behind every JSONL artifact
//! — campaign records (`rls-dispatch`), metrics streams and
//! flight-recorder dumps (this crate), and the server journal
//! (`rls-serve`).
//!
//! # Format
//!
//! The environment is offline (no `serde`), and records are flat objects
//! of numbers, strings, and booleans, so a tiny append-only builder
//! ([`JsonObject`], [`array()`]) is all that is needed. Output is one
//! object per line (JSONL) — `jq`-friendly and append-safe for long
//! campaigns. [`escape_into`] is the one string escaper; [`render_value`]
//! re-renders a parsed value losslessly.
//!
//! The [`parse`] half reads records back (checkpoint/resume, journal
//! recovery, the `rls-report` differ): a strict recursive-descent parser
//! for one JSON value, returning a [`JsonValue`] tree with typed
//! accessors. Numbers keep their raw token so `u64` fields (cycle counts,
//! fault ids) round-trip losslessly instead of passing through `f64`.
//!
//! # File protocol
//!
//! - [`reserve`] claims a unique `<stem>[-k].jsonl` name with
//!   `create_new`: two writers racing for one stamp get distinct names
//!   (monotonic `-k` suffix) instead of overwriting each other;
//! - [`create`] makes a file appear holding its first records: they are
//!   written to a hidden temp file (the leading dot keeps it out of
//!   `*.jsonl` globs), `sync_all`ed, and renamed into place, then the
//!   directory is fsynced (best-effort) — a crash never publishes a
//!   half-written file;
//! - [`append_line`] adds one record as one `write_all` plus `sync_data`, so
//!   after `kill -9` a file holds every fully-appended record plus at most
//!   one torn final line;
//! - [`truncate_torn_tail`] cuts that torn line off before a writer
//!   resumes appending, so it never ends up mid-file;
//! - [`records`] reads a file back, tolerating only a torn final line:
//!   garbage anywhere earlier means the file did not come from this
//!   protocol.
//!
//! Policy stays with the callers: fault-injection points, error wrapping
//! (`DispatchError`), and what a reader does with a corrupt file (the
//! server journal quarantines it).

use std::ffi::OsString;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Appends `s` to `out`, escaped for inclusion in a JSON string literal.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// An in-order JSON object builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Adds a float field (renders `null` for non-finite values).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{}\":{rendered}", escape(key)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Adds a pre-rendered JSON value (array or nested object).
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), rendered));
        self
    }

    /// Renders the object on one line.
    pub fn render(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Renders an array from pre-rendered element strings.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Renders a parsed [`JsonValue`] back to one line, preserving field
/// order and raw number tokens (lossless round-trip for records this
/// module's writer produced).
pub fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(raw) => raw.clone(),
        JsonValue::Str(s) => format!("\"{}\"", escape(s)),
        JsonValue::Array(items) => array(items.iter().map(render_value)),
        JsonValue::Object(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, x)| format!("\"{}\":{}", escape(k), render_value(x)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless integer access.
    Number(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a field of an object; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Field accessors composing `get` with a typed conversion.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// String field, see [`JsonValue::u64_field`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Boolean field, see [`JsonValue::u64_field`].
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(JsonValue::as_bool)
    }
}

/// Parses one JSON value from `text`, requiring it to span the whole input
/// (surrounding whitespace allowed). Errors carry a byte offset and a
/// message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.sequence(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", char::from(c), self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn sequence(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not produced by our own
                            // renderer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| "unterminated string".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        self.pos += 1; // consume `u`
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        if raw.is_empty() || raw == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }
}

/// Reserves a unique name for a new JSONL file under `dir` with
/// `create_new`: `<stem>.jsonl`, or `<stem>-1.jsonl`, `<stem>-2.jsonl`, …
/// when taken. Returns the reserved path and its (empty, write-only)
/// handle. `dir` must exist.
pub fn reserve(dir: &Path, stem: &str) -> io::Result<(PathBuf, File)> {
    let mut k = 0u32;
    loop {
        let name = if k == 0 {
            format!("{stem}.jsonl")
        } else {
            format!("{stem}-{k}.jsonl")
        };
        let path = dir.join(name);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(file) => return Ok((path, file)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => k += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Makes `path` appear holding exactly `lines`, one record per line,
/// replacing whatever was there: the lines go to a hidden temp file next
/// to it, which is fsynced and atomically renamed over `path`; the
/// rename itself is then persisted by a best-effort directory fsync (not
/// every filesystem can sync a directory). Returns a handle positioned
/// at the end of the file, ready for [`append_line`].
pub fn create<I>(path: &Path, lines: I) -> io::Result<File>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut text = String::new();
    for line in lines {
        text.push_str(line.as_ref());
        text.push('\n');
    }
    let mut tmp_name = OsString::from(".");
    tmp_name.push(path.file_name().unwrap_or(path.as_os_str()));
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let publish = || -> io::Result<File> {
        let mut file = File::create(&tmp)?; // lint: persist-ok(the one temp-file writer: fsynced, then renamed below)
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(file)
    };
    let file = publish().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(file)
}

/// Appends one record line: one `write_all` of the line and its newline,
/// then `sync_data`. A crash can tear only this line, and only at the end
/// of the file.
pub fn append_line(file: &mut File, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    file.write_all(&buf)?;
    file.sync_data()
}

/// Truncates a torn final line (bytes after the last newline, left by a
/// crash mid-[`append_line`]) so later appends start on a fresh line:
/// appending straight after it would glue the next record onto the torn
/// bytes and turn a tolerated torn tail into mid-file garbage. A file
/// ending in a newline, or an empty one, is left untouched. Scans
/// backwards in chunks, so only the tail is read regardless of size.
pub fn truncate_torn_tail(path: &Path) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let len = file.metadata()?.len();
    let mut buf = [0u8; 4096];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = buf.get_mut(..(end - start) as usize).unwrap_or_default();
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if end == len && chunk.last() == Some(&b'\n') {
            return Ok(()); // intact tail, nothing to repair
        }
        if let Some(pos) = chunk.iter().rposition(|&b| b == b'\n') {
            file.set_len(start + pos as u64 + 1)?;
            return file.sync_data();
        }
        end = start;
    }
    if len > 0 {
        file.set_len(0)?; // one torn line is the whole file
        file.sync_data()?;
    }
    Ok(())
}

/// A line that is neither an intact record nor the torn final line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptLine {
    /// 1-based line number within the file.
    pub line: usize,
    /// What the parser rejected.
    pub message: String,
}

impl fmt::Display for CorruptLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Parses every record of a JSONL file's `text`, returning each intact
/// line (trimmed) with its value, in file order. Blank lines are skipped.
/// A final line that fails to parse is a torn tail from a killed writer
/// and is dropped; a failure anywhere earlier is a [`CorruptLine`].
pub fn records(text: &str) -> Result<Vec<(&str, JsonValue)>, CorruptLine> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(n, l)| (n + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let mut out = Vec::with_capacity(lines.len());
    for (n, &(line, raw)) in lines.iter().enumerate() {
        match parse(raw) {
            Ok(v) => out.push((raw, v)),
            Err(_) if n + 1 == lines.len() => break, // torn tail
            Err(message) => return Err(CorruptLine { line, message }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let s = JsonObject::new()
            .str("type", "trial")
            .num("i", 3)
            .bool("kept", true)
            .float("ls", 0.25)
            .render();
        assert_eq!(s, r#"{"type":"trial","i":3,"kept":true,"ls":0.25}"#);
    }

    #[test]
    fn escapes_strings() {
        let s = JsonObject::new().str("name", "a\"b\\c\nd").render();
        assert_eq!(s, r#"{"name":"a\"b\\c\nd"}"#);
        let s = JsonObject::new().str("ctl", "\u{1}").render();
        assert_eq!(s, r#"{"ctl":"\u0001"}"#);
    }

    #[test]
    fn arrays_compose() {
        let a = array((0..2).map(|i| JsonObject::new().num("w", i).render()));
        assert_eq!(a, r#"[{"w":0},{"w":1}]"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = JsonObject::new().float("ls", f64::NAN).render();
        assert_eq!(s, r#"{"ls":null}"#);
    }

    #[test]
    fn parse_round_trips_rendered_records() {
        let line = JsonObject::new()
            .str("type", "trial")
            .num("i", 3)
            .num("big", u64::MAX)
            .bool("kept", true)
            .float("ls", 0.25)
            .raw("live", &array((0..3).map(|i| i.to_string())))
            .render();
        let v = parse(&line).unwrap();
        assert_eq!(v.str_field("type"), Some("trial"));
        assert_eq!(v.u64_field("i"), Some(3));
        assert_eq!(v.u64_field("big"), Some(u64::MAX), "u64 is lossless");
        assert_eq!(v.bool_field("kept"), Some(true));
        assert_eq!(v.get("ls").and_then(JsonValue::as_f64), Some(0.25));
        let live: Vec<u64> = v
            .get("live")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(live, vec![0, 1, 2]);
    }

    #[test]
    fn parse_resolves_escapes() {
        let line = JsonObject::new().str("name", "a\"b\\c\nd\ttab").render();
        let v = parse(&line).unwrap();
        assert_eq!(v.str_field("name"), Some("a\"b\\c\nd\ttab"));
        assert_eq!(render_value(&v), line, "re-rendering is lossless");
        let v = parse(r#"{"u":"Aé"}"#).unwrap();
        assert_eq!(v.str_field("u"), Some("Aé"));
    }

    #[test]
    fn parse_rejects_torn_lines() {
        for torn in [
            r#"{"type":"trial","i":"#,
            r#"{"type":"tri"#,
            r#"{"type":"trial"} extra"#,
            r#"{"#,
            "",
        ] {
            assert!(parse(torn).is_err(), "{torn:?}");
        }
    }

    #[test]
    fn parse_handles_nested_and_negative() {
        let v = parse(r#"{"a":[{"x":-2.5e1},null,false]}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].get("x").and_then(JsonValue::as_f64), Some(-25.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_bool(), Some(false));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rls-jsonl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reserve_suffixes_names_taken_by_other_writers() {
        let dir = scratch_dir("reserve");
        let (p1, _f1) = reserve(&dir, "campaign-s27-4t-12345").unwrap();
        let (p2, _f2) = reserve(&dir, "campaign-s27-4t-12345").unwrap();
        let (p3, _f3) = reserve(&dir, "campaign-s27-4t-12345").unwrap();
        assert_eq!(p1.file_name().unwrap(), "campaign-s27-4t-12345.jsonl");
        assert_eq!(p2.file_name().unwrap(), "campaign-s27-4t-12345-1.jsonl");
        assert_eq!(p3.file_name().unwrap(), "campaign-s27-4t-12345-2.jsonl");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_publishes_the_lines_and_leaves_no_temp_file() {
        let dir = scratch_dir("create");
        let (path, _) = reserve(&dir, "obs-x").unwrap();
        let mut f = create(&path, [r#"{"type":"obs"}"#]).unwrap();
        append_line(&mut f, r#"{"type":"metric"}"#).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"type\":\"obs\"}\n{\"type\":\"metric\"}\n");
        // Replacing an existing file with no lines leaves it empty.
        create(&path, std::iter::empty::<&str>()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["obs-x.jsonl"], "no hidden temp left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_torn_tail_keeps_whole_lines_only() {
        let dir = scratch_dir("torn");
        let path = dir.join("t.jsonl");
        let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(10_000));
        for (before, after) in [
            ("", ""),
            ("{\"a\":1}\n", "{\"a\":1}\n"),
            ("{\"a\":1}\n{\"b\":", "{\"a\":1}\n"),
            ("{\"b\":", ""),
            (&format!("{long}\n{long}")[..], &format!("{long}\n")[..]),
            (&long[..], ""),
        ] {
            std::fs::write(&path, before).unwrap();
            truncate_torn_tail(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), after);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_tolerate_only_a_torn_final_line() {
        let got = records("{\"a\":1}\n\n  {\"b\":2}  \n{\"c\":").unwrap();
        let lines: Vec<&str> = got.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(got[1].1.u64_field("b"), Some(2));
        assert!(records("").unwrap().is_empty());
        let err = records("{\"a\":1}\nGARBAGE\n{\"b\":2}\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2: "), "{err}");
    }
}
