//! The persistence hook: each grid run appends one store row per job,
//! the simulated content of those rows (fingerprints, events,
//! metrics — everything except host timing) is identical for any
//! worker count, and the attribution views render the same from rows
//! read back as from the rows the run built.

use dbshare_expstore::explain::{explain_figure, sidecar_json, SATURATION_THRESHOLD};
use dbshare_harness::{Harness, Provenance, Store, Sweep};
use dbshare_sim::experiments::{fig41_grid, RunLength};
use std::path::PathBuf;

const TINY: RunLength = RunLength {
    warmup: 20,
    measured: 100,
};

fn sweeps() -> Vec<Sweep> {
    vec![Sweep {
        figure: "fig41".into(),
        grid: fig41_grid(&[1, 2], TINY),
    }]
}

fn temp_store(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "dbshare-harness-history-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn each_run_appends_rows_that_agree_across_worker_counts() {
    let path = temp_store("append.jsonl");
    let provenance = Provenance {
        git_revision: "test-rev".into(),
        rustc_version: "test-rustc".into(),
        build_profile: "test".into(),
    };
    let harness = Harness::new().provenance(provenance).history(path.clone());
    let first = harness.clone().workers(1).run(sweeps());
    let second = harness.workers(4).run(sweeps());
    assert_ne!(first.run_id, second.run_id, "run ids must not collide");

    let read = Store::new(&path).read().expect("store reads back");
    std::fs::remove_file(&path).ok();
    assert!(read.recovery.is_none());
    assert_eq!(read.records.len(), first.results.len() * 2);

    let (a, b) = read.records.split_at(first.results.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.run, first.run_id);
        assert_eq!(y.run, second.run_id);
        assert_eq!(x.provenance.git_revision, "test-rev");
        // Same grid => same configs, and the simulator is
        // deterministic => bit-identical metrics, at any worker count.
        assert_eq!(x.config_fingerprint, y.config_fingerprint);
        assert_eq!(x.metric_fingerprint, y.metric_fingerprint);
        assert_eq!(x.events_processed, y.events_processed);
        assert_eq!(x.mean_response_ms, y.mean_response_ms);
        assert_eq!(x.throughput_tps, y.throughput_tps);
        assert!(x.metric_fingerprint.len() == 16);
    }
}

/// The attribution views render from rows, so a row read back from
/// the store renders the same `--explain` table, JSON sidecar and knee
/// verdicts as the row its run built.
#[test]
fn rows_read_back_render_the_same_explain_table_sidecar_and_knees() {
    let path = temp_store("explain.jsonl");
    let outcome = Harness::new()
        .workers(2)
        .history(path.clone())
        .run(sweeps());
    let read = Store::new(&path).read().expect("store reads back");
    std::fs::remove_file(&path).ok();
    assert_eq!(read.records.len(), outcome.records.len());

    // Halfway between the binding utilizations of a curve whose
    // binding utilization grows from n=1 to n=2, that curve's knee lies
    // between the two.
    let binding = |i: usize| outcome.records[i].constraints()[0].1;
    let curve = (0..outcome.records.len() / 2)
        .find(|&c| binding(2 * c) < binding(2 * c + 1))
        .expect("some curve's binding utilization grows with the nodes");
    let mid = (binding(2 * curve) + binding(2 * curve + 1)) / 2.0;
    for threshold in [SATURATION_THRESHOLD, mid, 0.0] {
        let live = explain_figure("fig41", &outcome.records, threshold);
        let stored = explain_figure("fig41", &read.records, threshold);
        assert_eq!(live.render(), stored.render());
        assert_eq!(sidecar_json(&[live]), sidecar_json(&[stored]));
    }
    let knees = explain_figure("fig41", &read.records, mid).knees;
    let verdict = knees[curve].verdict();
    assert!(
        verdict.contains(": knee between n=1 and n=2: "),
        "{verdict}"
    );
}
