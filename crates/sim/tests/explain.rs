//! The progress gauge behind `--ticker` is observe-only: publishing
//! through one must not perturb the simulation's results.

use std::sync::Arc;

use dbshare_model::{CouplingMode, RoutingStrategy, UpdateStrategy};
use dbshare_sim::experiments::{DebitCreditRun, RunLength, RunSpec};
use dbshare_sim::{Observe, ProgressGauge};

/// The progress gauge is a pure observer: wiring one in must leave the
/// report bit-identical, and its final snapshot must agree with the
/// report's event count.
#[test]
fn progress_gauge_does_not_perturb_results() {
    let s = RunSpec::DebitCredit(DebitCreditRun {
        nodes: 2,
        coupling: CouplingMode::GemLocking,
        update: UpdateStrategy::NoForce,
        routing: RoutingStrategy::Random,
        ..DebitCreditRun::baseline(2, RunLength::quick())
    });
    let baseline = s.execute();
    let gauge = Arc::new(ProgressGauge::default());
    let (report, _) = s.execute_observed(Observe::default(), Some(Arc::clone(&gauge)));
    assert_eq!(
        format!("{report:?}"),
        format!("{baseline:?}"),
        "gauge perturbed the report"
    );
    let snap = gauge.snapshot();
    assert_eq!(
        snap.events, report.events_processed,
        "final gauge publish must agree with the report"
    );
    assert!(snap.fraction() >= 1.0, "run completed, fraction < 1");
}
