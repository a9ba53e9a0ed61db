//! Tests of the experiment harness itself: presets build the intended
//! configurations, the throughput-at-utilization search agrees with
//! the extrapolated Fig. 4.6 metric, and replication intervals behave.

use dbshare::prelude::experiments::{
    find_tps_at_cpu, replicate, run_grid_serial, CurveGrid, Series,
};
use dbshare::prelude::*;

fn quick() -> RunLength {
    RunLength {
        warmup: 300,
        measured: 2_000,
    }
}

#[test]
fn fig_presets_produce_the_right_curves() {
    let nodes = [1u16, 2];
    let run = RunLength {
        warmup: 50,
        measured: 300,
    };
    let check = |grid: fn(&[u16], RunLength) -> Vec<CurveGrid>, expect_curves: usize| {
        let series: Vec<Series> = run_grid_serial(grid(&nodes, run));
        assert_eq!(series.len(), expect_curves);
        for s in &series {
            assert_eq!(s.points.len(), nodes.len(), "{}", s.label);
            assert!(s.at(1).is_some() && s.at(2).is_some());
            assert!(s.at(3).is_none());
            for (_, r) in &s.points {
                assert_eq!(r.measured_txns, run.measured);
            }
        }
    };
    check(experiments::fig41_grid, 4);
    check(experiments::fig42_grid, 4);
    check(experiments::fig43_grid, 8);
    check(experiments::fig44_grid, 8);
    check(experiments::fig45_grid, 16);
    check(experiments::fig46_grid, 8);
    check(experiments::lock_engine_comparison_grid, 4);
}

#[test]
fn table41_lists_every_headline_parameter() {
    let t = experiments::table41();
    for needle in [
        "100 TPS",
        "250000 instructions",
        "4 processors x 10 MIPS",
        "50 us/page, 2 us/entry",
        "5000/8000 instr",
        "15 ms DB disks, 5 ms log disks",
        "controller 1 ms, transfer 0.4 ms",
    ] {
        assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
    }
}

#[test]
fn tps_search_agrees_with_the_extrapolated_metric() {
    // The Fig. 4.6 metric extrapolates from one run's utilization; the
    // bisection search actually simulates at each probe rate. They must
    // agree within a few percent (per-transaction CPU cost is nearly
    // load-independent).
    let p = DebitCreditRun {
        buffer: 1_000,
        ..DebitCreditRun::baseline(2, quick())
    };
    let extrapolated = debit_credit_run(p).tps_per_node_at_80pct_cpu;
    let searched = find_tps_at_cpu(p, 0.8, 7);
    let rel = (searched - extrapolated).abs() / extrapolated;
    assert!(
        rel < 0.06,
        "search {searched:.1} vs extrapolation {extrapolated:.1} ({rel:.3})"
    );
    // and both land in a plausible band for a 40-MIPS node
    assert!((100.0..150.0).contains(&searched), "{searched}");
}

#[test]
fn replication_interval_covers_the_seed_spread() {
    let p = DebitCreditRun::baseline(2, quick());
    let rep = replicate(p, &[1, 2, 3, 4]);
    assert_eq!(rep.runs.len(), 4);
    assert!(rep.response_ci95_ms > 0.0);
    // every individual mean lies within a few half-widths
    for r in &rep.runs {
        assert!(
            (r.mean_response_ms - rep.mean_response_ms).abs() < 4.0 * rep.response_ci95_ms + 1.0,
            "outlier run {} vs mean {} ± {}",
            r.mean_response_ms,
            rep.mean_response_ms,
            rep.response_ci95_ms
        );
    }
    // and the within-run batch-means CI roughly matches the
    // across-replication spread (same steady state)
    let within = rep.runs[0].response_ci95_ms.expect("batches");
    assert!(within < 3.0, "batch CI {within}");
}
