//! Regression tests for the observation layer's contracts: observed
//! runs are bit-reproducible (same run → identical trace and timeline,
//! for any worker count), observation does not perturb the simulation,
//! and timeline windows conserve the engine's counter totals exactly.

use dbshare_harness::{Harness, Observe, Sweep, TimelineWindow};
use dbshare_model::RoutingStrategy;
use dbshare_sim::experiments::{fig41_grid, fig45_grid, DebitCreditRun, RunLength, RunSpec};
use desim::trace::TraceEventKind;
use desim::SimDuration;

/// Short but non-degenerate: long enough for lock waits, buffer
/// misses, and remote page transfers to occur.
const TINY: RunLength = RunLength {
    warmup: 30,
    measured: 150,
};

fn spec() -> RunSpec {
    RunSpec::DebitCredit(DebitCreditRun::baseline(2, TINY))
}

#[test]
fn observed_runs_are_bit_reproducible() {
    let (report_a, obs_a) = spec().execute_observed(Observe::full());
    let (report_b, obs_b) = spec().execute_observed(Observe::full());
    assert!(!obs_a.trace.is_empty(), "trace was requested");
    assert!(!obs_a.timeline.is_empty(), "timeline was requested");
    assert_eq!(obs_a, obs_b, "same spec must observe identically");
    assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
}

#[test]
fn observation_does_not_perturb_the_simulation() {
    let bare = spec().execute();
    // Tracing alone adds no calendar events: the whole report must be
    // identical, field for field.
    let (traced, _) = spec().execute_observed(Observe {
        timeline_every: None,
        trace: true,
    });
    assert_eq!(
        format!("{bare:?}"),
        format!("{traced:?}"),
        "enabling tracing changed the simulation"
    );
    // The timeline sampler schedules (read-only) calendar ticks, so
    // only the event count may move — every simulated result is pinned.
    let (sampled, _) = spec().execute_observed(Observe::full());
    assert_eq!(sampled.measured_txns, bare.measured_txns);
    assert_eq!(sampled.deadlock_aborts, bare.deadlock_aborts);
    assert_eq!(sampled.timeout_aborts, bare.timeout_aborts);
    assert_eq!(
        format!(
            "{} {} {}",
            sampled.mean_response_ms, sampled.throughput_tps, sampled.lock_wait_ms
        ),
        format!(
            "{} {} {}",
            bare.mean_response_ms, bare.throughput_tps, bare.lock_wait_ms
        ),
        "timeline sampling changed simulated metrics"
    );
}

#[test]
fn observations_are_invariant_across_worker_counts() {
    let sweeps = || {
        vec![
            Sweep {
                figure: "fig41".into(),
                grid: fig41_grid(&[1, 2], TINY),
            },
            Sweep {
                figure: "fig45".into(),
                grid: fig45_grid(&[2], TINY),
            },
        ]
    };
    let one = Harness::new()
        .workers(1)
        .observe(Observe::full())
        .run(sweeps());
    let many = Harness::new()
        .workers(7)
        .observe(Observe::full())
        .run(sweeps());
    assert_eq!(one.results.len(), many.results.len());
    for (a, b) in one.results.iter().zip(&many.results) {
        assert!(!a.observations.trace.is_empty());
        assert_eq!(
            a.observations, b.observations,
            "observations diverged between worker counts for {} / {} / n={}",
            a.job.figure, a.job.curve, a.job.nodes
        );
    }
}

/// Sums the count and duration fields that must telescope exactly.
fn totals(windows: &[TimelineWindow]) -> Vec<u64> {
    let mut t = vec![0u64; 19];
    for w in windows {
        for (slot, v) in t.iter_mut().zip([
            w.committed,
            w.lock_requests,
            w.lock_waits,
            w.storage_reads,
            w.commit_writes,
            w.log_writes,
            w.evict_writes,
            w.page_transfers,
            w.aborts,
            w.buffer_hits,
            w.buffer_misses,
            w.buffer_invalidations,
            w.resp_ns,
            w.input_ns,
            w.lock_ns,
            w.io_ns,
            w.cpu_wait_ns,
            w.cpu_service_ns,
            w.width.as_nanos(),
        ]) {
            *slot += v;
        }
    }
    t
}

#[test]
fn timeline_windows_conserve_run_totals() {
    // Fine windows vs one coarse window over the same deterministic
    // run: every count and duration field is a counter delta, so the
    // fine sums must telescope to the coarse totals exactly.
    let fine_cfg = Observe {
        timeline_every: Some(SimDuration::from_millis(200)),
        trace: false,
    };
    let coarse_cfg = Observe {
        timeline_every: Some(SimDuration::from_secs(3600)),
        trace: false,
    };
    // Random routing and a small buffer, so that page transfers and
    // write-backs occur too.
    let spec = RunSpec::DebitCredit(DebitCreditRun {
        routing: RoutingStrategy::Random,
        buffer: 50,
        ..DebitCreditRun::baseline(2, TINY)
    });
    let (report, fine) = spec.execute_observed(fine_cfg);
    let (_, coarse) = spec.execute_observed(coarse_cfg);
    assert!(fine.timeline.len() > 2, "expected several fine windows");
    assert_eq!(coarse.timeline.len(), 1, "expected one coarse window");
    assert_eq!(totals(&fine.timeline), totals(&coarse.timeline));
    // The windows and the report are deltas of one set of counts, so
    // the windows also sum to the report's per-transaction counts.
    let t = totals(&fine.timeline);
    assert_eq!(t[0], report.measured_txns);
    let per_txn = |count: u64| count as f64 / report.measured_txns as f64;
    let pairs = [
        ("lock requests", per_txn(t[1]), report.lock_requests_per_txn),
        ("lock waits", per_txn(t[2]), report.lock_waits_per_txn),
        ("storage reads", per_txn(t[3]), report.reads_per_txn),
        (
            "commit and log writes",
            per_txn(t[4] + t[5]),
            report.writes_per_txn,
        ),
        ("write-backs", per_txn(t[6]), report.evict_writes_per_txn),
        (
            "page transfers",
            per_txn(t[7]),
            report.page_transfers_per_txn,
        ),
    ];
    for (name, windows, reported) in pairs {
        assert!(reported > 0.0, "{name}: the run must exercise it");
        assert_eq!(windows.to_bits(), reported.to_bits(), "{name}");
    }
}

#[test]
fn trace_commits_match_the_reported_measurement() {
    let (report, obs) = spec().execute_observed(Observe {
        timeline_every: None,
        trace: true,
    });
    // The trace covers warm-up too, so it sees at least the measured
    // commits; every commit carries its response time.
    let commits: Vec<_> = obs
        .trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::TxnCommit)
        .collect();
    assert!(commits.len() as u64 >= report.measured_txns);
    assert!(commits.iter().all(|e| e.arg > 0));
    // Lock waits resolve: grants with a wait duration imply waits.
    let waits = obs
        .trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::LockWait)
        .count();
    let waited_grants = obs
        .trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::LockGrant && e.arg > 0)
        .count();
    assert!(waits > 0, "tiny contended run should produce lock waits");
    assert!(waited_grants <= waits);
}
