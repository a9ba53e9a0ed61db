//! Failure injection (reproduction extension): crash one of four nodes
//! mid-run and watch how much work each coupling loses — the paper's
//! §1 availability argument, quantified.
//!
//! The non-volatile GEM preserves the global lock table across the
//! crash, so only the dead node's own transactions abort. Under loose
//! coupling the dead node's lock-authority state is volatile: every
//! transaction in the system holding or waiting for a lock there dies
//! with it, and requests to that authority stall until recovery.
//!
//! The chart plots commits per 1 s timeline window of simulated time,
//! counted from the start of the measurement window.
//!
//! ```text
//! cargo run --release --example node_failure
//! ```

use dbshare::desim::SimDuration;
use dbshare::model::{CouplingMode, CrashConfig, RoutingStrategy, SystemConfig};
use dbshare::prelude::*;
use dbshare::sim::{Observe, TimelineWindow};
use dbshare::workload::Workload;
use dbshare_bench::chart::Chart;

fn run(coupling: CouplingMode) -> (RunReport, Vec<TimelineWindow>) {
    let tps = 100.0;
    let nodes = 4;
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = coupling;
    cfg.routing = RoutingStrategy::Random;
    cfg.crash = Some(CrashConfig {
        node: 1,
        at_secs: 5.0,
        recovery_secs: 3.0,
    });
    cfg.run.warmup_txns = 400;
    cfg.run.measured_txns = 6_000;
    let dc = DebitCredit::new(nodes, tps);
    let wl = DebitCreditWorkload::new(dc, tps, RoutingStrategy::Random);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    let mut engine = Engine::new(cfg, Box::new(wl)).expect("valid");
    engine.set_observe(Observe {
        timeline_every: Some(SimDuration::from_secs(1)),
        trace: false,
    });
    let (report, observations) = engine.run_observed();
    (report, observations.timeline)
}

fn main() {
    println!("4 nodes x 100 TPS, node 1 crashes at t=5s, recovers at t=8s\n");
    let mut chart = Chart::new(
        "Node crash at t=5s (recovery 3s): commits per second",
        "simulated seconds",
        "commits/s",
    );
    for (coupling, label) in [
        (CouplingMode::GemLocking, "GEM locking"),
        (CouplingMode::Pcl, "primary copy locking"),
    ] {
        let (r, windows) = run(coupling);
        println!(
            "{label:<22} crash aborts: {:>5}   per-node cpu: {:?}",
            r.crash_aborts,
            r.cpu_utilization_per_node
                .iter()
                .map(|u| format!("{:.0}%", u * 100.0))
                .collect::<Vec<_>>(),
        );
        chart.add_series(
            label,
            windows
                .iter()
                .enumerate()
                .map(|(s, w)| (s as f64, w.committed as f64))
                .collect(),
        );
    }
    let path = "svg/node_failure.svg";
    std::fs::create_dir_all("svg").expect("create svg dir");
    std::fs::write(path, chart.render(860, 480)).expect("write svg");
    println!("\nwrote {path} (the loose coupling's dip is deeper: its");
    println!("lock-authority state died with the node)");
}
