//! The no-progress watchdog: off by default (zero behavior change),
//! and when armed with an aggressive threshold it reports through the
//! trace layer without perturbing the simulation's results.

use dbshare_model::{RoutingStrategy, SystemConfig};
use dbshare_sim::{Engine, Observe};
use dbshare_workload::{DebitCredit, DebitCreditWorkload};
use desim::trace::TraceEventKind;

fn engine(watchdog_secs: Option<f64>) -> Engine {
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.run.warmup_txns = 20;
    cfg.run.measured_txns = 100;
    cfg.run.watchdog_secs = watchdog_secs;
    let dc = DebitCredit::new(1, 100.0);
    let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Affinity);
    Engine::new(cfg, Box::new(wl)).expect("valid configuration")
}

#[test]
fn disabled_watchdog_changes_nothing() {
    let a = engine(None).run();
    let b = engine(Some(3600.0)).run(); // armed but never trips
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn aggressive_watchdog_fires_and_traces_without_perturbing_results() {
    let baseline = engine(None).run();
    // A threshold far below the mean inter-commit gap trips on nearly
    // every deadlock-scan tick (its stderr dump is diagnostic output).
    let mut traced = engine(Some(1e-9));
    traced.set_observe(Observe {
        timeline_every: None,
        trace: true,
    });
    let (report, obs) = traced.run_observed();
    let barks = obs
        .trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::Watchdog)
        .count();
    assert!(barks > 0, "aggressive watchdog never fired");
    assert!(
        obs.trace
            .iter()
            .filter(|e| e.kind == TraceEventKind::Watchdog)
            .all(|e| e.arg > 0),
        "watchdog events must report the live-transaction count"
    );
    // Reporting is read-only: the simulated results are untouched.
    assert_eq!(report.measured_txns, baseline.measured_txns);
    assert_eq!(
        format!("{} {}", report.mean_response_ms, report.throughput_tps),
        format!("{} {}", baseline.mean_response_ms, baseline.throughput_tps),
    );
}
