//! The harness's core guarantee, regression-tested: results are
//! identical to running each job's spec on its own for ANY worker
//! count, and the run file (the store's line format) reads back with
//! the store's own parser, row for row, as the records the run built.

use dbshare_harness::{fingerprint, Harness, Provenance, Record, Store, Sweep};
use dbshare_sim::experiments::{fig41_grid, fig47_grid, RunLength};
use std::path::PathBuf;

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

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "dbshare-harness-determinism-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn one_worker_and_many_workers_match_the_serial_run_exactly() {
    // Serial reference: each job's spec executed on its own, in the
    // grids' order. Debug strings cover every RunReport field (and are
    // NaN-proof, unlike f64 equality).
    let serial: Vec<String> = sweeps()
        .into_iter()
        .flat_map(|s| {
            let figure = s.figure;
            s.grid.into_iter().flat_map(move |c| {
                let (figure, label) = (figure.clone(), c.label);
                c.points.into_iter().map(move |(n, spec)| {
                    format!("{figure} | {label} | n={n}: {:?}", spec.execute())
                })
            })
        })
        .collect();

    for workers in [1usize, 4, 13] {
        let outcome = Harness::new().workers(workers).run(sweeps());
        let parallel: Vec<String> = outcome
            .results
            .iter()
            .map(|r| {
                let job = &r.job;
                format!(
                    "{} | {} | n={}: {:?}",
                    job.figure, job.curve, job.nodes, r.report
                )
            })
            .collect();
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
    // The run file `repro --json` writes: the rows in the store's line
    // format.
    let path = temp_path("run.jsonl");
    let run_file = Store::new(&path);
    run_file.append(&outcome.records).expect("run file writes");
    let read = run_file.read().expect("run file reads back");
    std::fs::remove_file(&path).ok();
    assert!(read.recovery.is_none());
    assert_eq!(
        read.records, outcome.records,
        "rows do not read back losslessly"
    );

    // One row per job, each carrying the audit fields.
    assert_eq!(read.records.len(), outcome.results.len());
    for (row, result) in read.records.iter().zip(&outcome.results) {
        assert_eq!(row.figure, result.job.figure);
        assert_eq!(row.seed, result.job.spec.seed());
        assert!(row.wall_secs >= 0.0);
        assert_eq!(row.config_fingerprint, fingerprint(&result.job.spec));
        assert_eq!(row.provenance.git_revision, "test-rev");
    }
}

#[test]
fn artifacts_from_different_worker_counts_agree_on_everything_but_timing() {
    let untimed = |workers: usize| -> Vec<Record> {
        let outcome = Harness::new().workers(workers).run(sweeps());
        outcome
            .records
            .into_iter()
            .map(|r| Record {
                run: String::new(),
                created_unix: 0,
                wall_secs: 0.0,
                peak_rss_mb: None,
                ..r
            })
            .collect()
    };
    assert_eq!(untimed(1), untimed(8));
}
