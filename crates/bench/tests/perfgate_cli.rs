//! CLI contract of the `perfgate` binary: it gates a run file of store
//! rows against the history store, and a file that holds no rows is
//! unusable input (exit 2), never a vacuous pass.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed baseline history.
const HISTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/history.jsonl");

/// A scratch file under the temp dir holding `text`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, text: &str) -> TempFile {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-perfgate-{}-{name}", std::process::id()));
        fs::write(&path, text).expect("scratch file");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn perfgate(run: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .arg(HISTORY)
        .arg(run)
        .output()
        .expect("spawn perfgate")
}

/// The history's latest row for each configuration, in history order:
/// the counts a run of the build that recorded them is gated against.
/// An older row may hold more heap than 1.25x its configuration's
/// latest count, which the gate rejects.
fn latest_rows(history: &str) -> String {
    let config = |line: &str| {
        line.split("\"config_fingerprint\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("every history row names its config fingerprint")
            .to_string()
    };
    let mut seen = HashSet::new();
    let mut rows: Vec<&str> = history
        .lines()
        .rev()
        .filter(|line| seen.insert(config(line)))
        .collect();
    rows.reverse();
    rows.iter().map(|line| format!("{line}\n")).collect()
}

#[test]
fn rows_copied_from_the_history_pass() {
    let history = fs::read_to_string(HISTORY).expect("committed history");
    let run = TempFile::new("copied.jsonl", &latest_rows(&history));
    let output = perfgate(&run.0);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(0),
        "perfgate rejected the history's own rows: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("perfgate: PASS"), "{stdout}");
}

#[test]
fn a_document_an_empty_file_and_a_missing_file_exit_2() {
    let history = fs::read_to_string(HISTORY).expect("committed history");
    let rows: Vec<&str> = history.lines().take(2).collect();
    // The pretty-printed run document older builds wrote.
    let document = format!(
        "{{\n  \"schema\": \"dbshare-bench/2\",\n  \"records\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    let document = TempFile::new("document.json", &document);
    let empty = TempFile::new("empty.jsonl", "");
    let missing = std::env::temp_dir().join(format!(
        "dbshare-perfgate-{}-missing.jsonl",
        std::process::id()
    ));
    for (path, why) in [
        (&document.0, "line 1"),
        (&empty.0, "holds no records"),
        (&missing, "does not exist"),
    ] {
        let output = perfgate(path);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{}: expected exit 2, got {:?}: {stderr}",
            path.display(),
            output.status
        );
        assert!(
            stderr.contains("perfgate: error") && stderr.contains(why),
            "{}: stderr must say why, got: {stderr}",
            path.display()
        );
    }
}
