//! The persistence layer: an append-only, line-delimited record log.
//!
//! One file, one [`Record`] per line, appended after every harness
//! run. Appending is the only mutation; history is never rewritten, so
//! the file doubles as the regression timeline. The reader tolerates
//! the one corruption an append-only log realistically suffers — a
//! torn trailing write (process killed mid-append, disk full) — by
//! dropping a final line that has no newline and does not parse, and
//! reporting what it dropped. Every newline-terminated line is a
//! complete write: one that does not parse (damage, or a row of
//! another schema version) is an error naming the line, for reads and
//! appends alike, and nothing is dropped. [`Store::append`] truncates
//! a torn tail before writing, so the log heals on the next run.

use crate::record::Record;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// A torn-tail recovery the reader performed (or the appender is
/// about to perform).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// 1-based line number of the dropped line.
    pub line: usize,
    /// Byte offset the file is (to be) truncated to.
    pub keep_bytes: u64,
    /// Bytes of the torn line dropped.
    pub dropped_bytes: u64,
    /// Why the dropped line failed to parse.
    pub reason: String,
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped {} corrupt trailing byte(s) from line {} ({})",
            self.dropped_bytes, self.line, self.reason
        )
    }
}

/// What a read produced: every valid record plus the recovery note if
/// the log ended in a torn write.
#[derive(Debug, Clone, Default)]
pub struct ReadResult {
    /// All records, in append order.
    pub records: Vec<Record>,
    /// Present when a torn last line was dropped.
    pub recovery: Option<Recovery>,
}

/// Handle on one store file.
#[derive(Debug, Clone)]
pub struct Store {
    path: PathBuf,
}

impl Store {
    /// A store at `path`. Nothing is touched until a read or append.
    pub fn new(path: impl Into<PathBuf>) -> Store {
        Store { path: path.into() }
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every record. A missing file is an empty store; a torn
    /// last line is dropped and reported via [`ReadResult::recovery`];
    /// any other line that does not parse is an error.
    pub fn read(&self) -> io::Result<ReadResult> {
        parse_log(&self.text()?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The file's contents; empty when it does not exist.
    fn text(&self) -> io::Result<String> {
        match std::fs::read_to_string(&self.path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
            read => read,
        }
    }

    /// Appends `records`, one line each, creating the file (and parent
    /// directory) on first use. A log that does not read is left
    /// untouched and the read error returned. A torn last line is
    /// truncated away first, and the performed [`Recovery`] returned so
    /// callers can surface a warning; a complete last line without its
    /// newline gets one.
    pub fn append(&self, records: &[Record]) -> io::Result<Option<Recovery>> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = self.text()?;
        let recovery = parse_log(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .recovery;
        let mut out = String::new();
        match &recovery {
            Some(rec) => OpenOptions::new()
                .write(true)
                .open(&self.path)?
                .set_len(rec.keep_bytes)?,
            None if !text.is_empty() && !text.ends_with('\n') => out.push('\n'),
            None => {}
        }
        for record in records {
            out.push_str(&record.to_line());
            out.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(out.as_bytes())?;
        Ok(recovery)
    }
}

/// Splits `text` into lines and parses each as a [`Record`].
///
/// Returns `Err` for a newline-terminated line that does not parse; a
/// final line without a newline that does not parse (the torn-append
/// case) is recovered.
fn parse_log(text: &str) -> Result<ReadResult, String> {
    let mut read = ReadResult::default();
    let mut offset = 0usize;
    for (index, line) in text.split_inclusive('\n').enumerate() {
        let row = line.trim_end_matches(['\n', '\r']);
        if !row.trim().is_empty() {
            match Record::from_line(row) {
                Ok(record) => read.records.push(record),
                Err(reason) if !line.ends_with('\n') => {
                    read.recovery = Some(Recovery {
                        line: index + 1,
                        keep_bytes: offset as u64,
                        dropped_bytes: line.len() as u64,
                        reason,
                    });
                }
                Err(reason) => return Err(format!("line {}: {reason}", index + 1)),
            }
        }
        offset += line.len();
    }
    Ok(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    fn rec(figure: &str, nodes: u16) -> Record {
        Record {
            run: "r1".into(),
            ..sample(figure, nodes, 9)
        }
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let store = Store::new("/nonexistent-dir-for-sure/history.jsonl");
        let read = store.read().expect("missing file is an empty store");
        assert!(read.records.is_empty() && read.recovery.is_none());
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let good = rec("fig41", 1).to_line();
        let text = format!("{good}\n{{broken\n{good}\n");
        let err = parse_log(&text).expect_err("mid-log corruption must not be dropped");
        assert!(err.contains("line 2"), "unhelpful error: {err}");
    }

    #[test]
    fn torn_trailing_write_is_recovered() {
        let good = rec("fig41", 1).to_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{good}\n{torn}");
        let read = parse_log(&text).expect("torn tail recovers");
        assert_eq!(read.records.len(), 1);
        let recovery = read.recovery.expect("recovery reported");
        assert_eq!(recovery.line, 2);
        assert_eq!(recovery.keep_bytes as usize, good.len() + 1);
        assert_eq!(recovery.dropped_bytes as usize, torn.len());
    }

    #[test]
    fn a_complete_unreadable_last_line_is_an_error() {
        let good = rec("fig41", 1).to_line();
        let err = parse_log(&format!("{good}\nnot json at all\n"))
            .expect_err("a newline-terminated line is a complete write");
        assert!(err.contains("line 2"), "unhelpful error: {err}");
        // The same line without its newline is a torn write.
        let read = parse_log(&format!("{good}\nnot json at all")).expect("torn tail");
        assert_eq!(read.recovery.map(|r| r.line), Some(2));
    }
}
