//! Run artifacts: the `BENCH_repro.json` document.
//!
//! One row per executed job: the job's experiment-store [`Record`]
//! ([`Outcome::records`]), rendered with [`Record::to_json`]. A row says which figure/curve/point ran, with
//! the seed and a fingerprint of the full configuration, which build
//! ran it, the host wall-clock and allocations it cost, and the
//! simulated headline metrics. Run-wide totals sit beside the rows.
//! The document is built from the in-repo [`Json`] value, so it
//! round-trips through [`Json::parse`], and `perfgate` reads the rows
//! back with [`read_artifact_records`].
//!
//! [`read_artifact_records`]: dbshare_expstore::read_artifact_records

use crate::json::Json;
use crate::Outcome;
use dbshare_expstore::{fnv1a_hex, Record, ARTIFACT_SCHEMA};
use dbshare_sim::experiments::RunSpec;
use std::io::Write as _;
use std::path::Path;

/// A 64-bit FNV-1a hash of the spec's full `Debug` rendering, as
/// 16 hex digits. Two jobs share a fingerprint iff their complete
/// configuration (every parameter, including seed and run length) is
/// identical — cheap to compare across artifact files.
pub fn fingerprint(spec: &RunSpec) -> String {
    fnv1a_hex(&format!("{spec:?}"))
}

impl Outcome {
    /// Builds the `BENCH_repro.json` document for this run.
    pub fn artifact(&self) -> Json {
        let results = &self.results;
        let total_events: u64 = results.iter().map(|r| r.report.events_processed).sum();
        let total_allocs: u64 = results.iter().map(|r| r.report.profile.host_allocs).sum();
        let peak_rss = results
            .iter()
            .filter_map(|r| r.peak_rss_mb)
            .fold(None::<f64>, |acc, mb| Some(acc.map_or(mb, |a| a.max(mb))));
        Json::obj(vec![
            ("schema", Json::Str(ARTIFACT_SCHEMA.into())),
            (
                "created_unix",
                match self.created_unix {
                    Some(t) => Json::Num(t as f64),
                    None => Json::Null,
                },
            ),
            ("workers", Json::Num(self.workers as f64)),
            ("host_cpus", Json::Num(f64::from(self.host_cpus))),
            ("jobs", Json::Num(results.len() as f64)),
            ("total_wall_secs", Json::Num(self.total_wall_secs)),
            ("total_events", Json::Num(total_events as f64)),
            (
                "events_per_sec",
                Json::Num(total_events as f64 / self.total_wall_secs.max(1e-9)),
            ),
            ("total_allocs", Json::Num(total_allocs as f64)),
            (
                "allocs_per_event",
                Json::Num(total_allocs as f64 / (total_events.max(1)) as f64),
            ),
            (
                "peak_rss_mb",
                match peak_rss {
                    Some(mb) => Json::Num(mb),
                    None => Json::Null,
                },
            ),
            (
                "records",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ])
    }
}

/// Renders `doc` to `path` (with a trailing newline).
pub fn write_artifact(path: &Path, doc: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.render().as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobResult;
    use dbshare_sim::experiments::{DebitCreditRun, RunLength};

    const TINY: RunLength = RunLength {
        warmup: 10,
        measured: 50,
    };

    #[test]
    fn fingerprint_separates_specs_and_is_stable() {
        let a = RunSpec::DebitCredit(DebitCreditRun::baseline(2, TINY));
        let mut changed = DebitCreditRun::baseline(2, TINY);
        changed.seed ^= 1;
        let b = RunSpec::DebitCredit(changed);
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a).len(), 16);
    }

    #[test]
    fn artifact_has_one_record_per_job_with_headline_fields() {
        let spec = RunSpec::DebitCredit(DebitCreditRun::baseline(1, TINY));
        let results: Vec<JobResult> = (0..3)
            .map(|i| JobResult {
                job: crate::Job {
                    figure: format!("fig{i}"),
                    curve: "c".into(),
                    nodes: 1,
                    spec,
                    observe: crate::Observe::default(),
                },
                report: spec.execute(),
                observations: crate::Observations::default(),
                wall_secs: 0.25,
                peak_rss_mb: Some(128.0),
            })
            .collect();
        let records = results
            .iter()
            .map(|res| {
                crate::record(
                    res,
                    "r1700000000-1-0",
                    1_700_000_000,
                    8,
                    &Default::default(),
                )
            })
            .collect();
        let outcome = Outcome {
            figures: Vec::new(),
            results,
            records,
            workers: 2,
            host_cpus: 8,
            total_wall_secs: 1.5,
            created_unix: Some(1_700_000_000),
            run_id: "r1700000000-1-0".into(),
        };
        let doc = outcome.artifact();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(ARTIFACT_SCHEMA)
        );
        assert_eq!(doc.get("host_cpus").and_then(Json::as_f64), Some(8.0));
        assert_eq!(doc.get("jobs").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("peak_rss_mb").and_then(Json::as_f64), Some(128.0));
        let records = doc.get("records").and_then(Json::as_arr).expect("records");
        assert_eq!(records.len(), 3);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(
                rec.get("figure").and_then(Json::as_str),
                Some(&*format!("fig{i}"))
            );
            assert_eq!(rec.get("wall_secs").and_then(Json::as_f64), Some(0.25));
            // Every key a reader of the artifact looks a row up by.
            for key in [
                "curve",
                "nodes",
                "seed",
                "config_fingerprint",
                "metric_fingerprint",
                "peak_rss_mb",
                "events_processed",
                "events_per_sec",
                "host_allocs",
                "host_alloc_bytes",
                "allocs_per_event",
                "sim_seconds",
                "measured_txns",
                "mean_response_ms",
                "norm_response_ms",
                "throughput_tps",
                "tps_per_node_at_80pct_cpu",
                "cpu_utilization",
                "utilizations",
                "waits_ms",
                "binding",
                "next_constraint",
            ] {
                assert!(rec.get(key).is_some(), "missing {key}");
            }
        }
    }
}
