//! Torn-tail-tolerant reader for obs metrics JSONL files and
//! flight-recorder dumps.
//!
//! A thin wrapper over [`crate::jsonl::records`], the reader every JSONL
//! artifact shares: the stream is appended one fsynced line at a time,
//! so a crash can tear at most the *final* line — that one is silently
//! dropped. Any earlier line that is not one complete JSON value means
//! the file was not produced by the sink and is reported as an error.
//!
//! Reading is cheap and stateless, so the same path can be re-read while
//! a live campaign is still appending to it (reader reuse): each read
//! returns every intact line present at that moment.

use std::io;
use std::path::Path;

use crate::jsonl;

/// The intact lines of one metrics stream.
#[derive(Debug, Default, Clone)]
pub struct MetricsLog {
    lines: Vec<String>,
}

impl MetricsLog {
    /// Reads `path`, tolerating a single torn final line.
    pub fn read(path: &Path) -> io::Result<MetricsLog> {
        MetricsLog::from_text(&std::fs::read_to_string(path)?)
    }

    /// [`MetricsLog::read`] on already-loaded text.
    pub fn from_text(text: &str) -> io::Result<MetricsLog> {
        let records = jsonl::records(text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("corrupt metrics {e}"))
        })?;
        Ok(MetricsLog {
            lines: records.into_iter().map(|(line, _)| line.to_string()).collect(),
        })
    }

    /// The intact lines, in file order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of intact lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no intact line survived.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"type\":\"obs\",\"version\":1,\"run_id\":\"0-r0\"}";
    const METRIC: &str =
        "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"fsim.batches\",\"value\":1}";

    #[test]
    fn intact_lines_round_trip() {
        let text = format!("{HEADER}\n{METRIC}\n");
        let log = MetricsLog::from_text(&text).unwrap();
        assert_eq!(log.lines(), [HEADER.to_string(), METRIC.to_string()]);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let text = format!("{HEADER}\n{METRIC}\n{{\"type\":\"metr");
        let log = MetricsLog::from_text(&text).unwrap();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn midfile_garbage_is_an_error() {
        let text = format!("{HEADER}\nnot json\n{METRIC}\n");
        let err = MetricsLog::from_text(&text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn trailing_data_after_object_is_torn() {
        // `{"a":1} extra` is not an intact record; as a tail it is dropped.
        let text = format!("{HEADER}\n{{\"a\":1}} extra");
        assert_eq!(MetricsLog::from_text(&text).unwrap().len(), 1);
    }

    #[test]
    fn balanced_but_invalid_json_is_corrupt() {
        // Balanced braces are not enough: every line is parsed strictly,
        // so a malformed object mid-file is corruption.
        let text = format!("{HEADER}\n{{\"a\" 1}}\n{METRIC}\n");
        let err = MetricsLog::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_the_scanner() {
        let tricky = "{\"s\":\"a{b}c\\\"{\",\"fields\":{\"k\":1}}";
        let log = MetricsLog::from_text(&format!("{tricky}\n")).unwrap();
        assert_eq!(log.lines(), [tricky.to_string()]);
    }

    #[test]
    fn reader_reuse_sees_appended_records() {
        let dir = std::env::temp_dir().join(format!("rls-obs-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs-reuse.jsonl");
        std::fs::write(&path, format!("{HEADER}\n")).unwrap();
        assert_eq!(MetricsLog::read(&path).unwrap().len(), 1);
        // A campaign appends (with, at this instant, a torn tail)…
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&format!("{METRIC}\n{{\"type\":\"m"));
        std::fs::write(&path, &text).unwrap();
        assert_eq!(MetricsLog::read(&path).unwrap().len(), 2);
        // …and later completes the line: a re-read picks it up.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("etric\",\"value\":2}\n");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(MetricsLog::read(&path).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_is_empty_not_error() {
        let log = MetricsLog::from_text("").unwrap();
        assert!(log.is_empty());
    }
}
