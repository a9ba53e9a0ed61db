//! Store integration tests against a real file: append/read
//! round-trips, the committed baseline history, torn-write recovery,
//! and byte-identical re-serialization of the store's JSON values.

use dbshare_expstore::{JobDetail, Json, Provenance, Record, Store, Waits};
use std::fs;
use std::path::PathBuf;

/// A scratch file under the target-adjacent temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-expstore-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn record(run: &str, figure: &str, nodes: u16, wall: f64) -> Record {
    Record {
        run: run.into(),
        created_unix: 1_760_000_000,
        provenance: Provenance {
            git_revision: format!("rev-{run}"),
            rustc_version: "rustc 1.80.0 (stable)".into(),
            build_profile: "release".into(),
        },
        figure: figure.into(),
        curve: format!("curve of {figure}, \"quoted\""),
        nodes,
        seed: 0xD5_0000 + u64::from(nodes),
        host_cpus: 8,
        config_fingerprint: format!("cfg-{figure}-{nodes}"),
        metric_fingerprint: format!("met-{figure}-{nodes}"),
        wall_secs: wall,
        events_processed: 50_000 * u64::from(nodes),
        allocs_per_event: 0.0646,
        mean_response_ms: 71.25,
        throughput_tps: 196.5,
        peak_rss_mb: None,
        resources: [
            ("cpu", 0.644),
            ("gem", 0.31),
            ("lock-engine", 0.0),
            ("network", 0.0),
            ("disk:ACCOUNT", 0.39),
            ("log", 0.1),
        ]
        .map(|(name, util)| (name.to_string(), util))
        .to_vec(),
        waits: Waits {
            input_ms: 0.25,
            lock_ms: 30.0,
            io_ms: 25.5,
            cpu_wait_ms: 2.0,
            cpu_service_ms: 13.5,
        },
        detail: JobDetail {
            host_allocs: 4_375,
            host_alloc_bytes: 1_048_576,
            peak_heap_bytes: 524_288 * u64::from(nodes),
            sim_seconds: 12.5,
            measured_txns: 2_500,
            norm_response_ms: 71.7,
            tps_per_node_at_80pct_cpu: 128.25,
            cpu_utilization: 0.644,
        },
    }
}

/// The committed baseline history holds rows of this schema version
/// only: every line must load as a record, with nothing dropped as a
/// torn write.
#[test]
fn committed_history_reads_every_line_without_recovery() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/history.jsonl");
    let text = fs::read_to_string(&path).expect("committed history is readable");
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(lines > 0, "committed history is empty");
    let read = Store::new(&path).read().expect("committed history parses");
    assert!(read.recovery.is_none(), "recovery: {:?}", read.recovery);
    assert_eq!(read.records.len(), lines);
}

#[test]
fn append_read_round_trip_preserves_every_field_and_order() {
    let tmp = TempFile::new("roundtrip.jsonl");
    let store = Store::new(&tmp.0);
    let first = vec![record("r1", "fig41", 1, 0.5), record("r1", "fig41", 2, 0.7)];
    let second = vec![record("r2", "fig45", 4, 1.5)];
    assert!(store.append(&first).expect("append 1").is_none());
    assert!(store.append(&second).expect("append 2").is_none());

    let read = store.read().expect("read back");
    assert!(read.recovery.is_none());
    let expected: Vec<Record> = first.into_iter().chain(second).collect();
    assert_eq!(read.records, expected);
}

#[test]
fn torn_trailing_write_is_truncated_and_warned_on_next_append() {
    let tmp = TempFile::new("torn.jsonl");
    let store = Store::new(&tmp.0);
    store
        .append(&[record("r1", "fig41", 1, 1.0)])
        .expect("append");
    // Simulate a torn append: half a record at the tail.
    let half = &record("r1", "fig41", 2, 1.0).to_line()[..40];
    let mut bytes = fs::read(&tmp.0).expect("read file");
    let clean_len = bytes.len() as u64;
    bytes.extend_from_slice(half.as_bytes());
    fs::write(&tmp.0, &bytes).expect("write torn tail");

    // Reading drops the tail and warns, without touching the file.
    let read = store.read().expect("read recovers");
    assert_eq!(read.records.len(), 1);
    let recovery = read.recovery.as_ref().expect("warned");
    assert_eq!(recovery.keep_bytes, clean_len);
    assert_eq!(recovery.dropped_bytes as usize, half.len());
    assert_eq!(
        fs::metadata(&tmp.0).expect("meta").len(),
        clean_len + half.len() as u64
    );

    // Appending first truncates the torn tail, then writes cleanly.
    let recovery = store
        .append(&[record("r2", "fig41", 2, 1.0)])
        .expect("append repairs")
        .expect("recovery reported");
    assert_eq!(recovery.keep_bytes, clean_len);
    let read = store.read().expect("read after repair");
    assert!(read.recovery.is_none());
    assert_eq!(read.records.len(), 2);
    assert_eq!(read.records[1].run, "r2");
}

#[test]
fn mid_file_corruption_refuses_to_read() {
    let tmp = TempFile::new("midfile.jsonl");
    let store = Store::new(&tmp.0);
    let good = record("r1", "fig41", 1, 1.0).to_line();
    fs::write(&tmp.0, format!("{good}\nnot json at all\n{good}\n")).expect("write");
    let err = store.read().expect_err("mid-file corruption is fatal");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A store whose complete lines are of another schema version (an
/// old working store after a schema bump) is refused by reads and
/// appends alike, and an append leaves it byte-identical.
#[test]
fn a_store_of_another_schema_is_refused_and_left_untouched() {
    for version in [2.0, 99.0] {
        let tmp = TempFile::new("other-schema.jsonl");
        let store = Store::new(&tmp.0);
        let lines: Vec<String> = [1, 2]
            .map(|nodes| {
                let mut row = record("r0", "fig41", nodes, 1.0).to_json();
                row.set("v", Json::Num(version));
                row.render_line() + "\n"
            })
            .into();
        let before = lines.concat();
        fs::write(&tmp.0, &before).expect("write");

        let err = store.read().expect_err("rows of another version");
        assert!(err.to_string().contains("line 1"), "unhelpful error: {err}");
        let err = store
            .append(&[record("r1", "fig41", 1, 1.0)])
            .expect_err("an append must not drop complete rows");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(fs::read_to_string(&tmp.0).expect("read"), before);
    }
}

#[test]
fn a_complete_garbage_last_line_is_an_error() {
    let tmp = TempFile::new("garbage-last.jsonl");
    let store = Store::new(&tmp.0);
    let good = record("r1", "fig41", 1, 1.0).to_line();
    let before = format!("{good}\nnot json at all\n");
    fs::write(&tmp.0, &before).expect("write");
    let err = store.read().expect_err("a complete garbage line is damage");
    assert!(err.to_string().contains("line 2"), "unhelpful error: {err}");
    assert!(store.append(&[record("r2", "fig41", 1, 1.0)]).is_err());
    assert_eq!(fs::read_to_string(&tmp.0).expect("read"), before);
}

#[test]
fn append_starts_a_fresh_line_after_a_complete_unterminated_row() {
    let tmp = TempFile::new("unterminated.jsonl");
    let store = Store::new(&tmp.0);
    fs::write(&tmp.0, record("r1", "fig41", 1, 1.0).to_line()).expect("write");
    let recovery = store
        .append(&[record("r2", "fig41", 2, 1.0)])
        .expect("append");
    assert!(recovery.is_none());
    let read = store.read().expect("read back");
    assert!(read.recovery.is_none());
    let runs: Vec<&str> = read.records.iter().map(|r| r.run.as_str()).collect();
    assert_eq!(runs, ["r1", "r2"]);
}

#[test]
fn stored_lines_reserialize_byte_identically() {
    let tmp = TempFile::new("reserialize.jsonl");
    let store = Store::new(&tmp.0);
    store
        .append(&[
            record("r1", "fig41", 1, 0.125),
            record("r1", "fig47", 8, 2.0),
        ])
        .expect("append");
    let text = fs::read_to_string(&tmp.0).expect("raw text");
    for line in text.lines() {
        // parse -> render_line is the identity on every stored row:
        // the Json value layer loses nothing and adds nothing.
        let doc = Json::parse(line).expect("row parses");
        assert_eq!(doc.render_line(), line, "re-serialization drifted");
        // And through the typed Record layer as well.
        let rec = Record::from_line(line).expect("record parses");
        assert_eq!(rec.to_line(), line, "record re-serialization drifted");
    }
}
