//! The no-progress watchdog: off by default (zero behavior change),
//! and when armed with an aggressive threshold it reports through the
//! trace layer without perturbing the simulation's results.

use dbshare_model::{CouplingMode, RoutingStrategy, SystemConfig, UpdateStrategy};
use dbshare_sim::{Engine, Observe};
use dbshare_workload::{DebitCredit, DebitCreditWorkload};
use desim::trace::TraceEventKind;
use std::collections::HashSet;

fn engine(watchdog_secs: Option<f64>) -> Engine {
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.run.warmup_txns = 20;
    cfg.run.measured_txns = 100;
    cfg.run.watchdog_secs = watchdog_secs;
    let dc = DebitCredit::new(1, 100.0);
    let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Affinity);
    Engine::new(cfg, Box::new(wl)).expect("valid configuration")
}

/// Four PCL nodes with random routing under FORCE: lock requests go to
/// remote authorities, and locks are held across the commit writes, so
/// lock waits are common.
fn pcl_engine(watchdog_secs: Option<f64>) -> Engine {
    let nodes = 4;
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = CouplingMode::Pcl;
    cfg.update = UpdateStrategy::Force;
    cfg.routing = RoutingStrategy::Random;
    cfg.run.warmup_txns = 100;
    cfg.run.measured_txns = 2_000;
    cfg.run.watchdog_secs = watchdog_secs;
    let dc = DebitCredit::new(nodes, 100.0);
    let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Random);
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

#[test]
fn aggressive_watchdog_dumps_a_multi_node_pcl_run_without_perturbing_it() {
    let baseline = pcl_engine(None).run();
    let mut traced = pcl_engine(Some(1e-9));
    traced.set_observe(Observe {
        timeline_every: None,
        trace: true,
    });
    let (report, obs) = traced.run_observed();
    // Every Watchdog event is followed by a stuck-run dump. Replaying
    // the lock waits from the trace shows that some dumps ran while a
    // transaction waited, i.e. that they looked up the holders at a
    // PCL lock authority.
    let mut waiting = HashSet::new();
    let (mut dumps, mut dumps_with_waiters) = (0, 0);
    for e in &obs.trace {
        match e.kind {
            TraceEventKind::LockWait => {
                waiting.insert(e.txn);
            }
            TraceEventKind::LockGrant | TraceEventKind::TxnAbort => {
                waiting.remove(&e.txn);
            }
            TraceEventKind::Watchdog => {
                dumps += 1;
                if !waiting.is_empty() {
                    dumps_with_waiters += 1;
                }
            }
            _ => {}
        }
    }
    assert!(dumps > 0, "aggressive watchdog never fired");
    assert!(
        dumps_with_waiters > 0,
        "no dump saw a lock waiter ({dumps} dumps)"
    );
    // The dump only reads engine state: the whole report is unchanged.
    assert_eq!(format!("{report:?}"), format!("{baseline:?}"));
}
