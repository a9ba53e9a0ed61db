//! Reading `BENCH_repro.json` artifacts into store [`Record`]s.
//!
//! The harness artifact is the transport format of a *single* run; the
//! store is the accumulated history. Each row of the artifact's
//! `records` array is a store record rendered with
//! [`Record::to_json`], so reading an artifact is a schema check plus
//! [`Record::from_json`] per row, and the `perfgate` CI binary speaks
//! records whichever file it started from. Structural problems (not
//! JSON, another schema, no `records` array, rows missing required
//! fields) are errors: silently returning an empty history would make
//! every downstream comparison vacuously pass.

use crate::json::Json;
use crate::record::Record;

/// Artifact schema identifier, bumped on incompatible layout changes.
/// Readers refuse documents of any other schema.
pub const ARTIFACT_SCHEMA: &str = "dbshare-bench/2";

/// Converts a parsed artifact document into store records.
pub fn records_from_artifact(doc: &Json) -> Result<Vec<Record>, String> {
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(ARTIFACT_SCHEMA) {
        return Err(format!(
            "artifact schema {} is not {ARTIFACT_SCHEMA}; re-run repro with this build",
            schema.map_or("(none)".to_string(), |s| format!("{s:?}"))
        ));
    }
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("artifact has no records array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| Record::from_json(row).map_err(|e| format!("record {i}: {e}")))
        .collect()
}

/// Reads and converts an artifact file in one step.
pub fn read_artifact_records(path: &std::path::Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{} is not a valid artifact: {e}", path.display()))?;
    records_from_artifact(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    fn record(nodes: u16) -> Record {
        Record {
            peak_rss_mb: Some(48.0),
            ..sample("fig41", nodes, 42)
        }
    }

    fn artifact_doc(schema: &str, records: &[Record]) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(schema.into())),
            (
                "records",
                Json::Arr(records.iter().map(Record::to_json).collect()),
            ),
        ])
    }

    #[test]
    fn rows_read_back_as_the_records_they_render() {
        let records = vec![record(1), record(2)];
        let doc = artifact_doc(ARTIFACT_SCHEMA, &records);
        assert_eq!(records_from_artifact(&doc).expect("converts"), records);
    }

    #[test]
    fn other_schemas_are_refused_by_name() {
        let err = records_from_artifact(&artifact_doc("dbshare-bench/1", &[record(1)]))
            .expect_err("a /1 artifact must be refused");
        assert!(
            err.contains("\"dbshare-bench/1\""),
            "unhelpful error: {err}"
        );
        assert!(err.contains(ARTIFACT_SCHEMA), "unhelpful error: {err}");

        let mut doc = artifact_doc(ARTIFACT_SCHEMA, &[record(1)]);
        doc.remove("schema");
        assert!(records_from_artifact(&doc).is_err());
    }

    #[test]
    fn missing_records_array_is_an_error() {
        let doc = Json::obj(vec![("schema", Json::Str(ARTIFACT_SCHEMA.into()))]);
        assert!(records_from_artifact(&doc).is_err());
    }

    #[test]
    fn malformed_rows_name_the_row() {
        let mut row = record(1).to_json();
        row.remove("config_fingerprint");
        let doc = Json::obj(vec![
            ("schema", Json::Str(ARTIFACT_SCHEMA.into())),
            ("records", Json::Arr(vec![record(2).to_json(), row])),
        ]);
        let err = records_from_artifact(&doc).expect_err("incomplete row");
        assert!(
            err.contains("record 1") && err.contains("config_fingerprint"),
            "unhelpful error: {err}"
        );
    }
}
