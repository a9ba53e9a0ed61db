//! The harness's core guarantee, regression-tested: results are
//! identical to a serial run for ANY worker count, and the JSON
//! artifact round-trips through the crate's own parser, row for row
//! into the store records the run produced.

use dbshare_harness::{Harness, Json, Provenance, Record, Sweep};
use dbshare_sim::experiments::{fig41_grid, fig47_grid, run_grid_serial, RunLength};

/// Short but non-degenerate: long enough for lock waits and buffer
/// misses to occur, short enough to keep the suite fast.
const TINY: RunLength = RunLength {
    warmup: 30,
    measured: 150,
};

fn sweeps() -> Vec<Sweep> {
    vec![
        Sweep {
            figure: "fig41".into(),
            grid: fig41_grid(&[1, 2], TINY),
        },
        Sweep {
            figure: "fig47".into(),
            grid: fig47_grid(&[1], TINY),
        },
    ]
}

#[test]
fn one_worker_and_many_workers_match_the_serial_run_exactly() {
    // Serial reference: the exact code path `run_grid_serial` uses.
    let serial: Vec<String> = sweeps()
        .into_iter()
        .map(|s| format!("{:?}", run_grid_serial(s.grid)))
        .collect();

    for workers in [1usize, 4, 13] {
        let outcome = Harness::new().workers(workers).run(sweeps());
        let parallel: Vec<String> = outcome
            .figures
            .iter()
            .map(|f| format!("{:?}", f.series))
            .collect();
        // Debug-string comparison covers every RunReport field (and is
        // NaN-proof, unlike f64 equality).
        assert_eq!(
            parallel, serial,
            "results diverged from the serial run at {workers} workers"
        );
    }
}

#[test]
fn artifact_round_trips_through_the_crates_own_parser() {
    let provenance = Provenance {
        git_revision: "test-rev".into(),
        rustc_version: "test-rustc".into(),
        build_profile: "test".into(),
    };
    let outcome = Harness::new()
        .workers(3)
        .provenance(provenance)
        .run(sweeps());
    let doc = outcome.artifact();
    let text = doc.render();
    let parsed = Json::parse(&text).expect("artifact parses back");
    assert_eq!(parsed, doc, "render → parse is not the identity");

    // One record per job, each carrying the audit fields.
    let records = parsed
        .get("records")
        .and_then(Json::as_arr)
        .expect("records array");
    assert_eq!(records.len(), outcome.results.len());
    for ((record, result), row) in records.iter().zip(&outcome.results).zip(&outcome.records) {
        assert_eq!(
            record.get("figure").and_then(Json::as_str),
            Some(result.job.figure.as_str())
        );
        assert_eq!(
            record.get("seed").and_then(Json::as_f64),
            Some(result.job.spec.seed() as f64)
        );
        assert!(record.get("wall_secs").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            record.get("config_fingerprint").and_then(Json::as_str),
            Some(dbshare_harness::fingerprint(&result.job.spec).as_str())
        );
        // Each artifact row is the job's store record, losslessly.
        assert_eq!(&Record::from_json(record).expect("row is a record"), row);
        assert_eq!(row.provenance.git_revision, "test-rev");
    }
}

#[test]
fn artifacts_from_different_worker_counts_agree_on_everything_but_timing() {
    let strip_timing = |doc: &Json| -> Json {
        fn walk(v: &Json) -> Json {
            match v {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| {
                            !matches!(
                                k.as_str(),
                                "wall_secs"
                                    | "total_wall_secs"
                                    | "created_unix"
                                    | "run"
                                    | "workers"
                                    | "events_per_sec"
                                    | "peak_rss_mb"
                            )
                        })
                        .map(|(k, v)| (k.clone(), walk(v)))
                        .collect(),
                ),
                Json::Arr(xs) => Json::Arr(xs.iter().map(walk).collect()),
                other => other.clone(),
            }
        }
        walk(doc)
    };
    let a = Harness::new().workers(1).run(sweeps()).artifact();
    let b = Harness::new().workers(8).run(sweeps()).artifact();
    assert_eq!(strip_timing(&a), strip_timing(&b));
}
