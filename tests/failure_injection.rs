//! Failure-injection tests (reproduction extension): a node crash with
//! log-based recovery, quantifying the §1 availability argument — the
//! non-volatile GEM preserves the global lock table across a crash,
//! while a loosely coupled node's lock-authority state is volatile.

use dbshare::desim::{Rng, SimDuration, SimTime};
use dbshare::model::gla::GlaMap;
use dbshare::model::{
    CouplingMode, CrashConfig, NodeId, PageId, PartitionId, RoutingStrategy, SystemConfig,
    TxnTypeId,
};
use dbshare::prelude::*;
use dbshare::sim::{Observe, TimelineWindow};
use dbshare::workload::Workload;

/// 4 nodes x 100 TPS under random routing, 400 warm-up transactions.
fn crash_engine(coupling: CouplingMode, crash: Option<CrashConfig>, measured: u64) -> Engine {
    let tps = 100.0;
    let nodes = 4;
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = coupling;
    cfg.routing = RoutingStrategy::Random;
    cfg.crash = crash;
    cfg.run.warmup_txns = 400;
    cfg.run.measured_txns = measured;
    let dc = DebitCredit::new(nodes, tps);
    let wl = DebitCreditWorkload::new(dc, tps, RoutingStrategy::Random);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid")
}

fn run_with_crash(coupling: CouplingMode, crash: Option<CrashConfig>) -> RunReport {
    crash_engine(coupling, crash, 4_000).run()
}

fn crash_at_3s() -> Option<CrashConfig> {
    Some(CrashConfig {
        node: 1,
        at_secs: 3.0,
        recovery_secs: 2.0,
    })
}

/// Long enough (about 50 simulated seconds) for a lock left behind by
/// the crash to outlive the 30 s lock timeout.
#[test]
fn crashed_runs_complete_under_both_protocols() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let r = crash_engine(coupling, crash_at_3s(), 20_000).run();
        assert_eq!(r.measured_txns, 20_000, "{coupling:?}");
        assert!(!r.truncated);
        assert!(r.crash_aborts > 0, "{coupling:?}: some work must be killed");
        // no residual hangs: the timeout safety net stays silent
        assert_eq!(r.timeout_aborts, 0, "{coupling:?}");
    }
}

#[test]
fn survivors_absorb_the_load_during_downtime() {
    let r = run_with_crash(CouplingMode::GemLocking, crash_at_3s());
    // The crashed node worked for ~3 of ~10 simulated seconds (plus
    // post-recovery): its utilization is visibly below the survivors'.
    let crashed = r.cpu_utilization_per_node[1];
    let surviving = r.cpu_utilization_per_node[0];
    assert!(
        crashed < surviving * 0.85,
        "crashed node {crashed} vs survivor {surviving}"
    );
    // total throughput is still delivered (open system, re-routing)
    assert!(
        (r.throughput_tps - 400.0).abs() < 20.0,
        "{}",
        r.throughput_tps
    );
}

#[test]
fn gem_loses_less_work_than_pcl_on_a_crash() {
    // GEM locking: only the crashed node's own transactions die (the
    // GLT lives in non-volatile GEM). PCL: additionally every
    // transaction with lock state at the dead node's authority dies —
    // with random routing that is roughly the whole system's active set.
    let gem = run_with_crash(CouplingMode::GemLocking, crash_at_3s());
    let pcl = run_with_crash(CouplingMode::Pcl, crash_at_3s());
    assert!(
        pcl.crash_aborts > gem.crash_aborts,
        "PCL kills more: {} vs GEM {}",
        pcl.crash_aborts,
        gem.crash_aborts
    );
}

/// The full 1 s timeline windows of the configuration that
/// `examples/node_failure.rs` charts: node 1 of 4 crashes at t = 5 s
/// and recovers 3 s later. The last, partial window is dropped.
fn one_second_windows(coupling: CouplingMode) -> Vec<TimelineWindow> {
    let crash = CrashConfig {
        node: 1,
        at_secs: 5.0,
        recovery_secs: 3.0,
    };
    let mut engine = crash_engine(coupling, Some(crash), 6_000);
    let second = SimDuration::from_secs(1);
    engine.set_observe(Observe {
        timeline_every: Some(second),
        trace: false,
    });
    let (_, mut observations) = engine.run_observed();
    observations.timeline.retain(|w| w.width == second);
    observations.timeline
}

#[test]
fn the_crash_transient_shows_in_one_second_windows() {
    let crash_at = SimTime::from_secs(5);
    let fewest = |windows: &[TimelineWindow], before_crash: bool| {
        windows
            .iter()
            .filter(|w| !before_crash || w.start + w.width <= crash_at)
            .map(|w| w.committed)
            .min()
            .expect("some windows")
    };
    let gem = one_second_windows(CouplingMode::GemLocking);
    let pcl = one_second_windows(CouplingMode::Pcl);
    // PCL: requests to the dead node's lock authority stall until
    // recovery, so throughput nearly stops for a second or more.
    let (pcl_before, pcl_min) = (fewest(&pcl, true), fewest(&pcl, false));
    assert!(
        pcl_min * 4 < pcl_before,
        "PCL dips to {pcl_min} commits/s from at least {pcl_before}"
    );
    // GEM: the global lock table survives, so the survivors keep
    // committing through the downtime.
    let gem_min = fewest(&gem, false);
    assert!(
        gem_min > pcl_min,
        "GEM's worst second {gem_min} vs PCL's {pcl_min}"
    );
}

/// Two nodes take turns writing one page each of a 17-page partition,
/// so nearly every lookup meets a copy the other node invalidated.
struct PingPong {
    partitions: Vec<PartitionConfig>,
    cursor: u64,
    rr: u16,
}

impl Workload for PingPong {
    fn next(&mut self, _rng: &mut Rng) -> (NodeId, TxnSpec) {
        let node = NodeId::new(self.rr);
        self.rr = 1 - self.rr;
        let page = PageId::new(PartitionId::new(0), self.cursor);
        self.cursor = (self.cursor + 1) % self.partitions[0].pages;
        let refs = vec![PageRef::write(page)];
        (node, TxnSpec::new(TxnTypeId::new(0), 0, refs))
    }
    fn mean_accesses(&self) -> f64 {
        1.0
    }
    fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }
    fn gla_map(&self) -> GlaMap {
        GlaMap::central(2, 1)
    }
}

/// The report's hit ratio counts every measured lookup, those of a
/// buffer the crash discarded included: it equals the ratio of one
/// timeline window spanning the whole measurement.
#[test]
fn a_crashed_buffer_keeps_its_lookups_in_the_hit_ratio() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let mut cfg = SystemConfig::debit_credit(2);
        cfg.coupling = coupling;
        cfg.arrival_tps_per_node = 25.0;
        cfg.buffer_pages_per_node = 256;
        cfg.run.warmup_txns = 300;
        cfg.run.measured_txns = 2_000;
        cfg.crash = Some(CrashConfig {
            node: 1,
            at_secs: 20.0,
            recovery_secs: 5.0,
        });
        let wl = PingPong {
            partitions: vec![PartitionConfig {
                name: "HOT".into(),
                pages: 17,
                locking: true,
                storage: StorageAllocation::disk(4),
            }],
            cursor: 0,
            rr: 0,
        };
        cfg.partitions = wl.partitions.clone();
        let mut engine = Engine::new(cfg, Box::new(wl)).expect("valid");
        engine.set_observe(Observe {
            timeline_every: Some(SimDuration::from_secs(3600)),
            trace: false,
        });
        let (r, obs) = engine.run_observed();
        assert!(r.crash_aborts > 0, "{coupling:?}: the crash must hit");
        let [w] = obs.timeline.as_slice() else {
            panic!("{coupling:?}: expected one window");
        };
        let invalidations = (r.invalidations_per_txn * r.measured_txns as f64).round() as u64;
        assert_eq!(w.buffer_invalidations, invalidations, "{coupling:?}");
        let lookups = w.buffer_hits + w.buffer_misses + invalidations;
        let expected = w.buffer_hits as f64 / lookups as f64;
        assert_eq!(
            r.hit_ratio("HOT"),
            Some(expected),
            "{coupling:?}: {} hits, {} misses, {invalidations} invalidations",
            w.buffer_hits,
            w.buffer_misses
        );
    }
}

#[test]
fn crash_free_baseline_is_unaffected_by_the_feature() {
    let with = run_with_crash(CouplingMode::GemLocking, None);
    assert_eq!(with.crash_aborts, 0);
    assert!(with.cpu_utilization_per_node.iter().all(|&u| u > 0.5));
}

#[test]
fn config_validation_guards_crash_parameters() {
    let mut cfg = SystemConfig::debit_credit(2);
    cfg.partitions.push(dbshare::model::PartitionConfig {
        name: "P".into(),
        pages: 10,
        locking: true,
        storage: dbshare::model::StorageAllocation::disk(1),
    });
    cfg.crash = Some(CrashConfig {
        node: 5,
        at_secs: 1.0,
        recovery_secs: 1.0,
    });
    assert!(cfg.validate().is_err(), "node out of range");
    cfg.crash = Some(CrashConfig {
        node: 0,
        at_secs: 1.0,
        recovery_secs: 0.0,
    });
    assert!(cfg.validate().is_err(), "zero recovery");
    let mut single = SystemConfig::debit_credit(1);
    single.partitions = cfg.partitions.clone();
    single.crash = Some(CrashConfig {
        node: 0,
        at_secs: 1.0,
        recovery_secs: 1.0,
    });
    assert!(single.validate().is_err(), "only node");
}
