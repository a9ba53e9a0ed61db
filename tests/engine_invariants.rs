//! Engine-level invariants: determinism, conservation, admission
//! control, and abort/restart machinery.

use dbshare::desim::trace::{unpack_page, TraceEventKind};
use dbshare::desim::Rng;
use dbshare::model::gla::{GlaMap, PartitionGla};
use dbshare::model::{NodeId, PageId, PartitionId, TxnTypeId};
use dbshare::prelude::*;
use dbshare::sim::Observe;
use dbshare::workload::debit_credit::BT;
use dbshare::workload::Workload;
use std::collections::HashMap;

fn quick() -> RunLength {
    RunLength {
        warmup: 200,
        measured: 1_500,
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let a = debit_credit_run(DebitCreditRun::baseline(3, quick()));
    let b = debit_credit_run(DebitCreditRun::baseline(3, quick()));
    assert_eq!(a, b, "simulation must be deterministic");
}

#[test]
fn different_seeds_give_different_but_close_results() {
    let a = debit_credit_run(DebitCreditRun {
        seed: 1,
        ..DebitCreditRun::baseline(3, quick())
    });
    let b = debit_credit_run(DebitCreditRun {
        seed: 2,
        ..DebitCreditRun::baseline(3, quick())
    });
    assert_ne!(a.mean_response_ms, b.mean_response_ms);
    // statistically the same system: means within 10%
    let rel = (a.mean_response_ms - b.mean_response_ms).abs() / a.mean_response_ms;
    assert!(rel < 0.10, "seeds diverge too much: {rel}");
}

#[test]
fn measured_transaction_count_is_exact() {
    let r = debit_credit_run(DebitCreditRun::baseline(2, quick()));
    assert_eq!(r.measured_txns, quick().measured);
}

#[test]
fn response_time_exceeds_minimum_io_path() {
    // NOFORCE: every transaction reads its ACCOUNT page from disk
    // (16.4 ms) and writes one log page (6.4 ms): response cannot be
    // below ~23 ms plus CPU.
    let r = debit_credit_run(DebitCreditRun::baseline(1, quick()));
    assert!(r.mean_response_ms > 23.0, "{}", r.mean_response_ms);
    assert!(r.p50_response_ms > 23.0);
    assert!(r.p95_response_ms >= r.p50_response_ms);
}

#[test]
fn tight_mpl_produces_input_queueing() {
    let tps = 100.0;
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.mpl_per_node = 2; // far below the ~6 concurrent transactions needed
    cfg.run.warmup_txns = 200;
    cfg.run.measured_txns = 1_000;
    let dc = DebitCredit::new(1, tps);
    let wl = DebitCreditWorkload::new(dc, tps, RoutingStrategy::Affinity);
    let r = Engine::new(cfg, Box::new(wl)).expect("valid").run();
    assert!(
        r.input_wait_ms > 5.0,
        "MPL=2 must queue arrivals, wait {}",
        r.input_wait_ms
    );
}

#[test]
fn paper_mpl_produces_no_input_queueing() {
    // §4.1: "The multiprogramming level has been chosen high enough to
    // avoid queuing delays at the transaction manager."
    let r = debit_credit_run(DebitCreditRun::baseline(4, quick()));
    assert!(r.input_wait_ms < 1.0, "input wait {}", r.input_wait_ms);
}

/// A deliberately deadlock-prone workload: two-page transactions that
/// write a small page set in random order.
struct DeadlockProne {
    nodes: u16,
    pages: u64,
    partitions: Vec<PartitionConfig>,
    rr: u16,
}

impl Workload for DeadlockProne {
    fn next(&mut self, rng: &mut Rng) -> (NodeId, TxnSpec) {
        let node = NodeId::new(self.rr);
        self.rr = (self.rr + 1) % self.nodes;
        let a = rng.below(self.pages);
        let b = {
            let x = rng.below(self.pages - 1);
            if x >= a {
                x + 1
            } else {
                x
            }
        };
        let refs = vec![
            PageRef::write(PageId::new(PartitionId::new(0), a)),
            PageRef::write(PageId::new(PartitionId::new(0), b)),
        ];
        (node, TxnSpec::new(TxnTypeId::new(0), a, refs))
    }
    fn mean_accesses(&self) -> f64 {
        2.0
    }
    fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }
    fn gla_map(&self) -> GlaMap {
        GlaMap::new(self.nodes, vec![PartitionGla::Hashed])
    }
}

/// Runs [`DeadlockProne`] on 2 nodes over a hot set of `pages` pages
/// at `tps` transactions per second and node.
fn deadlock_prone_run(coupling: CouplingMode, pages: u64, tps: f64, measured: u64) -> RunReport {
    let nodes = 2;
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = coupling;
    cfg.arrival_tps_per_node = tps;
    cfg.cpu.per_access_instr = 10_000.0;
    cfg.buffer_pages_per_node = 64;
    cfg.run.warmup_txns = 100;
    cfg.run.measured_txns = measured;
    let wl = DeadlockProne {
        nodes,
        pages,
        partitions: vec![PartitionConfig {
            name: "HOT".into(),
            pages,
            locking: true,
            storage: StorageAllocation::disk(4),
        }],
        rr: 0,
    };
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid").run()
}

#[test]
fn deadlocks_are_detected_and_resolved() {
    // Low concurrency (about one transaction in flight at a time, with
    // occasional overlap) over a tiny page set: overlapping pairs often
    // grab the same two pages in opposite order — a genuine deadlock —
    // while queues stay too short for FIFO convoys. All-write
    // transactions over a tiny hot set at higher rates livelock under
    // strict 2PL (every grant head waits on its own second queue),
    // which is the lock *timeout's* job, not the detector's.
    let r = deadlock_prone_run(CouplingMode::GemLocking, 4, 5.0, 3_000);
    // The run completes (aborted victims restart and eventually commit)
    assert_eq!(r.measured_txns, 3_000);
    assert!(
        r.deadlock_aborts > 0,
        "this workload must produce deadlocks"
    );
    // At this low concurrency every cycle is caught by detection; the
    // timeout safety net stays quiet. (All-write transactions over a
    // tiny hot set at higher rates convoy-collapse under strict 2PL —
    // queues feed on themselves — and then timeouts fire by design.)
    assert_eq!(r.timeout_aborts, 0, "timeouts mean detection failed");
    assert!(
        r.throughput_tps > 9.0,
        "offered load sustained: {}",
        r.throughput_tps
    );
}

#[test]
fn both_protocols_handle_the_deadlock_prone_workload() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let r = deadlock_prone_run(coupling, 4, 5.0, 1_500);
        assert_eq!(r.measured_txns, 1_500, "{coupling:?} run must complete");
    }
}

/// Golden fingerprints of deadlocking runs. The debit-credit goldens
/// all have `deadlocks=0`, so only these pin victim selection: the
/// youngest member of the first cycle the detector's sorted search
/// meets.
#[test]
fn golden_deadlock_prone_runs() {
    // The 16-page runs at 40 TPS/node are long enough to convoy: they
    // pin victims under deep queues and the timeout aborts as well.
    let (gem, pcl) = (CouplingMode::GemLocking, CouplingMode::Pcl);
    let cases = [
        (gem, 4, 5.0, 1_500, "d372ce0143c2a002"),
        (pcl, 4, 5.0, 1_500, "545485418e1a2871"),
        (gem, 16, 40.0, 10_000, "b8dded6c026abdd4"),
        (pcl, 16, 40.0, 10_000, "7130a2666a9d86da"),
    ];
    let mut drifted = Vec::new();
    for (coupling, pages, tps, measured, golden) in cases {
        let r = deadlock_prone_run(coupling, pages, tps, measured);
        let case = format!("{coupling:?} pages={pages} tps={tps}");
        assert_eq!(r.measured_txns, measured, "{case}: run must complete");
        assert!(r.deadlock_aborts > 0, "{case}: no deadlock aborts");
        if pages == 16 {
            assert!(r.timeout_aborts > 0, "{case}: no timeout aborts");
        }
        let got = r.metric_fingerprint();
        if got != golden {
            drifted.push(format!(
                "{case}: {got} (deadlocks={} timeouts={})",
                r.deadlock_aborts, r.timeout_aborts
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "metrics drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn force_and_noforce_conserve_io_accounting() {
    // Every transaction writes 3 pages; FORCE must write them all at
    // commit, NOFORCE must eventually write them back on replacement
    // (in steady state, writes-per-txn ≈ modified-pages-per-txn).
    let force = debit_credit_run(DebitCreditRun {
        update: UpdateStrategy::Force,
        ..DebitCreditRun::baseline(2, quick())
    });
    // 3 force-writes + 1 log write
    assert!(
        (3.8..4.2).contains(&force.writes_per_txn),
        "{}",
        force.writes_per_txn
    );
    assert!(
        force.evict_writes_per_txn < 0.05,
        "{}",
        force.evict_writes_per_txn
    );

    let noforce = debit_credit_run(DebitCreditRun {
        update: UpdateStrategy::NoForce,
        ..DebitCreditRun::baseline(2, quick())
    });
    assert!(
        (0.9..1.1).contains(&noforce.writes_per_txn),
        "{}",
        noforce.writes_per_txn
    );
    // ACCOUNT pages (1/txn) must eventually be written back; B/T pages
    // are mostly re-dirtied in place and HISTORY pages written per 20
    // appends: expect a bit over 1 per transaction.
    assert!(
        (0.8..2.0).contains(&noforce.evict_writes_per_txn),
        "{}",
        noforce.evict_writes_per_txn
    );
}

#[test]
fn config_validation_rejects_broken_setups() {
    let dc = DebitCredit::new(1, 100.0);
    let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Affinity);
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.buffer_pages_per_node = 0;
    assert!(Engine::new(cfg, Box::new(wl)).is_err());
}

#[test]
fn response_time_composition_sums_to_the_mean() {
    // input + lock + io + cpu-queue + cpu-service ≈ response: the
    // engine attributes every waiting millisecond to exactly one bucket.
    for update in [UpdateStrategy::NoForce, UpdateStrategy::Force] {
        let r = debit_credit_run(DebitCreditRun {
            update,
            ..DebitCreditRun::baseline(2, quick())
        });
        let sum =
            r.input_wait_ms + r.lock_wait_ms + r.io_wait_ms + r.cpu_wait_ms + r.cpu_service_ms;
        let rel = (sum - r.mean_response_ms).abs() / r.mean_response_ms;
        assert!(
            rel < 0.03,
            "{update:?}: components {sum:.1} vs response {:.1} (rel {rel:.3})",
            r.mean_response_ms
        );
    }
}

#[test]
fn sim_time_cap_truncates_overloaded_runs() {
    // 400 TPS offered to one 40-MIPS node (the pure path length alone
    // needs 100 MIPS): the open system can never reach its target;
    // the cap ends it and flags the report.
    let tps = 400.0;
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.arrival_tps_per_node = tps;
    cfg.run.warmup_txns = 0;
    cfg.run.measured_txns = 1_000_000;
    cfg.run.max_sim_secs = Some(2.0);
    let dc = DebitCredit::new(1, tps);
    let wl = DebitCreditWorkload::new(dc, tps, RoutingStrategy::Affinity);
    let r = Engine::new(cfg, Box::new(wl)).expect("valid").run();
    assert!(r.truncated, "overloaded run must be truncated");
    assert!(r.measured_txns < 1_000_000);
    assert!(r.sim_seconds <= 2.1, "{}", r.sim_seconds);
    assert!(r.cpu_utilization > 0.9, "saturated: {}", r.cpu_utilization);
}

/// A cap that ends the run before warm-up does leaves an empty
/// measurement window: no per-transaction count or hit ratio may be
/// read over the warm-up.
#[test]
fn sim_time_cap_before_warm_up_ends_reports_an_empty_window() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let tps = 100.0;
        let mut cfg = SystemConfig::debit_credit(2);
        cfg.coupling = coupling;
        cfg.run.warmup_txns = 2_000;
        cfg.run.max_sim_secs = Some(3.0);
        let wl = DebitCreditWorkload::new(DebitCredit::new(2, tps), tps, RoutingStrategy::Affinity);
        let r = Engine::new(cfg, Box::new(wl)).expect("valid").run();
        assert!(r.truncated, "{coupling:?}: the cap must end the warm-up");
        assert_eq!(r.measured_txns, 0, "{coupling:?}");
        let per_txn = [
            r.messages_per_txn,
            r.gem_entries_per_txn,
            r.page_requests_per_txn,
            r.page_transfers_per_txn,
            r.revokes_per_txn,
            r.lock_requests_per_txn,
            r.lock_waits_per_txn,
            r.invalidations_per_txn,
            r.reads_per_txn,
            r.writes_per_txn,
            r.evict_writes_per_txn,
        ];
        assert_eq!(per_txn, [0.0; 11], "{coupling:?}");
        for (name, ratio) in &r.hit_ratios {
            assert_eq!(*ratio, 0.0, "{coupling:?}: {name} hit ratio");
        }
        assert_eq!(r.deadlock_aborts + r.timeout_aborts + r.crash_aborts, 0);
    }
}

#[test]
fn sim_time_cap_does_not_touch_healthy_runs() {
    let mut p = DebitCreditRun::baseline(1, quick());
    p.seed = 42;
    let plain = debit_credit_run(p);
    // generous cap: identical results, no truncation
    let tps = 100.0;
    let mut cfg = SystemConfig::debit_credit(1);
    cfg.run.warmup_txns = quick().warmup;
    cfg.run.measured_txns = quick().measured;
    cfg.run.seed = 42;
    cfg.run.max_sim_secs = Some(10_000.0);
    let dc = DebitCredit::new(1, tps);
    let wl = DebitCreditWorkload::new(dc, tps, RoutingStrategy::Affinity);
    let capped = Engine::new(cfg, Box::new(wl)).expect("valid").run();
    assert!(!capped.truncated);
    assert_eq!(capped.mean_response_ms, plain.mean_response_ms);
}

#[test]
fn global_log_covers_every_update_commit() {
    // Every debit-credit transaction is an update: the global log
    // holds one record per commit, including warm-up.
    let r = debit_credit_run(DebitCreditRun::baseline(3, quick()));
    assert_eq!(r.global_log_records, quick().warmup + quick().measured);
}

#[test]
fn per_node_utilizations_are_reported_and_consistent() {
    let r = debit_credit_run(DebitCreditRun::baseline(3, quick()));
    assert_eq!(r.cpu_utilization_per_node.len(), 3);
    let avg: f64 =
        r.cpu_utilization_per_node.iter().sum::<f64>() / r.cpu_utilization_per_node.len() as f64;
    assert!((avg - r.cpu_utilization).abs() < 1e-9);
    let max = r
        .cpu_utilization_per_node
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    assert!((max - r.cpu_utilization_max).abs() < 1e-9);
    assert!(
        r.events_processed > r.measured_txns * 10,
        "{}",
        r.events_processed
    );
}

#[test]
fn scales_to_32_nodes() {
    // Well beyond the paper's 10-node range: 32 nodes at 100 TPS each
    // (3 200 TPS aggregate, a 320M-account database) — no overflow, no
    // imbalance, stable open system.
    let r = debit_credit_run(DebitCreditRun {
        run: RunLength {
            warmup: 200,
            measured: 3_000,
        },
        ..DebitCreditRun::baseline(32, quick())
    });
    assert_eq!(r.measured_txns, 3_000);
    assert_eq!(r.cpu_utilization_per_node.len(), 32);
    assert!(
        (r.throughput_tps - 3_200.0).abs() < 160.0,
        "{}",
        r.throughput_tps
    );
    // (per-node utilizations fluctuate over this ~1-second window; the
    // point of this test is scale, not balance)
    assert!(
        (0.5..0.95).contains(&r.cpu_utilization),
        "{}",
        r.cpu_utilization
    );
    assert_eq!(r.timeout_aborts, 0);
}

/// A page request whose owner already wrote its copy back is answered
/// "not found", and the requester reads the page like a buffer miss: a
/// GEM-resident page synchronously from GEM, counted and traced once,
/// when the read completes. GEM locking, NOFORCE and a 200-page buffer
/// on 3 nodes evict owned BRANCH/TELLER pages often enough for a few
/// requests to miss their copy.
#[test]
fn page_replies_without_a_copy_read_gem_resident_pages_from_gem() {
    let p = DebitCreditRun {
        routing: RoutingStrategy::Random,
        bt: BtStorage::Gem,
        ..DebitCreditRun::baseline(3, RunLength::quick())
    };
    let observe = Observe {
        trace: true,
        timeline_every: None,
    };
    let (_, obs) = experiments::RunSpec::DebitCredit(p).execute_observed(observe);
    // The instant of each transaction's BRANCH/TELLER read in progress.
    let mut reading = HashMap::new();
    let mut after_request = 0;
    for e in &obs.trace {
        if unpack_page(e.page).is_none_or(|(part, _)| part != BT.raw()) {
            continue;
        }
        match e.kind {
            TraceEventKind::PageRead => {
                let again = reading.insert(e.txn, e.at);
                assert_eq!(again, None, "T{} read its page twice", e.txn);
            }
            TraceEventKind::PageReadDone => {
                if let Some(at) = reading.remove(&e.txn) {
                    assert_eq!(at, e.at, "T{}'s GEM read was not synchronous", e.txn);
                    // The wait of a page request ends here.
                    after_request += usize::from(e.arg > 0);
                }
            }
            _ => {}
        }
    }
    assert!(after_request > 0, "no page request missed its copy");
}
