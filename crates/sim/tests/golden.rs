//! Golden-numbers regression tests: the optimized engine must produce
//! *bit-identical* metrics to the seed engine for pinned seeds. The
//! constants below were captured from the pre-optimization build; any
//! hot-path change (hashing, slab indexing, calendar layout) that
//! perturbs event order or arithmetic shows up here immediately. The
//! scale, truncated and crash constants were captured before the
//! arrival and statistics paths were folded back into the event loop.
//! The trace constants were captured before the PCL lock path moved
//! to a chunk-indexed GLA map, bitset read authorizations and a
//! per-transaction lock index. The lock-path constants were captured
//! before GEM and PCL locking moved into one engine lock module. The
//! I/O-path constants were captured before every page read, commit
//! write, write-back and GEM page transfer moved into one engine I/O
//! module.

use dbshare_model::{
    CouplingMode, CrashConfig, LogStorage, PageTransferMode, RoutingStrategy, SystemConfig,
    UpdateStrategy,
};
use dbshare_sim::experiments::{
    debit_credit_run, trace_run, BtStorage, DebitCreditRun, RunLength, RunSpec, ScaleRun, TraceRun,
};
use dbshare_sim::{Engine, Observe};
use dbshare_workload::debit_credit::BT;
use dbshare_workload::trace::{Trace, TraceGenConfig};
use dbshare_workload::{DebitCredit, DebitCreditWorkload, Workload};
use desim::trace::{unpack_page, TraceEventKind};
use std::collections::{BTreeMap, HashSet};

/// One run's fingerprint: every floating-point metric as exact bits,
/// every counter as-is. Formatted as one line per field so failures
/// point at the drifted metric.
fn fingerprint(r: &dbshare_sim::RunReport) -> String {
    fn b(x: f64) -> u64 {
        x.to_bits()
    }
    format!(
        "measured={} resp={:016x} p95={:016x} norm={:016x} tput={:016x} \
         lockw={:016x} iow={:016x} cpuw={:016x} cpusvc={:016x} cpu={:016x} \
         msgs={:016x} locks={:016x} reads={:016x} writes={:016x} \
         deadlocks={} timeouts={} events={}",
        r.measured_txns,
        b(r.mean_response_ms),
        b(r.p95_response_ms),
        b(r.norm_response_ms),
        b(r.throughput_tps),
        b(r.lock_wait_ms),
        b(r.io_wait_ms),
        b(r.cpu_wait_ms),
        b(r.cpu_service_ms),
        b(r.cpu_utilization),
        b(r.messages_per_txn),
        b(r.lock_requests_per_txn),
        b(r.reads_per_txn),
        b(r.writes_per_txn),
        r.deadlock_aborts,
        r.timeout_aborts,
        r.events_processed,
    )
}

fn params(coupling: CouplingMode, update: UpdateStrategy, nodes: u16) -> DebitCreditRun {
    DebitCreditRun {
        nodes,
        coupling,
        update,
        routing: RoutingStrategy::Random,
        ..DebitCreditRun::baseline(nodes, RunLength::quick())
    }
}

fn run(coupling: CouplingMode, update: UpdateStrategy, nodes: u16) -> String {
    fingerprint(&debit_credit_run(params(coupling, update, nodes)))
}

#[test]
fn golden_gem_noforce_2_nodes() {
    let got = run(CouplingMode::GemLocking, UpdateStrategy::NoForce, 2);
    assert_eq!(
        got,
        "measured=2500 resp=4051ebc9d0333faf p95=405c4fc1db0142f6 norm=4051ebc9d0333fb1 \
         tput=4068932ef816d64c lockw=3fcf5d165efbb3cf iow=40447c577ff05a93 \
         cpuw=40178c022ca0b4ee cpusvc=403a61959635d421 cpu=3fe58edb60abb0f0 \
         msgs=3fe57a786c22680a locks=400009d495182a99 reads=3ff56d5cfaacd9e8 \
         writes=3ff001a36e2eb1c4 deadlocks=0 timeouts=0 events=71677",
        "GEM/NOFORCE metrics drifted"
    );
}

#[test]
fn golden_pcl_noforce_2_nodes() {
    let got = run(CouplingMode::Pcl, UpdateStrategy::NoForce, 2);
    assert_eq!(
        got,
        "measured=2500 resp=405485c9357c595f p95=406040bfe1975f2d norm=405485c9357c5955 \
         tput=40688b37ce66c28e lockw=401a0d29881ab36d iow=4045ab94a05ed04b \
         cpuw=4021de9927556fc4 cpusvc=403b7adf0ee4617e cpu=3fe73de472f777e7 \
         msgs=400507c84b5dcc64 locks=40000c49ba5e353f reads=3ff7a0f9096bb98c \
         writes=3ff0000000000000 deadlocks=0 timeouts=0 events=69172",
        "PCL/NOFORCE metrics drifted"
    );
}

#[test]
fn golden_pcl_force_3_nodes() {
    let got = run(CouplingMode::Pcl, UpdateStrategy::Force, 3);
    assert_eq!(
        got,
        "measured=2500 resp=406ce56923ff4680 p95=407711947bedb728 norm=406ce56923ff466c \
         tput=40727dc30ad801c9 lockw=403932c17d06929f iow=4065105b31c4241b \
         cpuw=402d56d480755b4c cpusvc=403cabf98c3ab9ba cpu=3fe8534c9616dcf9 \
         msgs=400bdd97f62b6ae8 locks=400017c1bda5119d reads=3ffca2339c0ebee0 \
         writes=400ff141205bc01a deadlocks=0 timeouts=0 events=87540",
        "PCL/FORCE metrics drifted"
    );
}

/// A miniature `ScaleRun` (the spec shape `--scale` executes, shrunk
/// to test size) under full observation: the metric fingerprint plus
/// the trace-event and timeline-window counts.
#[test]
fn golden_scale_runs_under_full_observation() {
    for (coupling, metrics, trace_events, windows) in [
        (CouplingMode::GemLocking, "16241c81b6bda45e", 25_467, 11),
        (CouplingMode::Pcl, "52d07061ec1209a5", 25_195, 11),
    ] {
        let spec = RunSpec::Scale(ScaleRun {
            nodes: 4,
            accounts: 4_000,
            coupling,
            tps_per_node: 100.0,
            page_metadata_budget: 64,
            run: RunLength {
                warmup: 200,
                measured: 2_000,
            },
            seed: 0xDB5_4A6E,
        });
        let (report, obs) = spec.execute_observed(Observe::full(), None);
        assert_eq!(
            (
                report.metric_fingerprint().as_str(),
                obs.trace.len(),
                obs.timeline.len()
            ),
            (metrics, trace_events, windows),
            "{coupling:?} scale run drifted"
        );
    }
}

/// A 4-node debit-credit engine under random routing, optionally
/// capped in simulated time and with a node crash injected.
fn dc_engine(
    coupling: CouplingMode,
    crash: Option<CrashConfig>,
    max_sim_secs: Option<f64>,
) -> Engine {
    let tps = 100.0;
    let nodes = 4;
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = coupling;
    cfg.routing = RoutingStrategy::Random;
    cfg.crash = crash;
    cfg.run.warmup_txns = 200;
    cfg.run.measured_txns = 2_000;
    cfg.run.max_sim_secs = max_sim_secs;
    let wl = DebitCreditWorkload::new(DebitCredit::new(nodes, tps), tps, RoutingStrategy::Random);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid config")
}

/// A run cut off by `max_sim_secs` mid-stream, with arrivals still
/// scheduled past the cap.
#[test]
fn golden_truncated_gem_run() {
    let report = dc_engine(CouplingMode::GemLocking, None, Some(2.0)).run();
    assert!(report.truncated, "run must actually truncate");
    assert_eq!(
        report.metric_fingerprint(),
        "366b4ccbe3e85de5",
        "truncated GEM run drifted"
    );
}

/// A crash/recovery schedule: aborts, rerouted arrivals, and restart
/// draws.
#[test]
fn golden_crash_gem_run() {
    let crash = CrashConfig {
        node: 1,
        at_secs: 3.0,
        recovery_secs: 2.0,
    };
    let report = dc_engine(CouplingMode::GemLocking, Some(crash), None).run();
    assert!(report.crash_aborts > 0, "crash must bite");
    assert_eq!(
        report.metric_fingerprint(),
        "4424c6f3a08c5e87",
        "crashed GEM run drifted"
    );
}

/// Short runs of the synthetic §4.6 trace on 4 nodes under affinity
/// routing: PCL with and without the read optimization, and GEM
/// locking. Replay is order-preserving, so the run draws the trace's
/// leading transactions; the test first checks that those include
/// transactions with hundreds of references and repeat references to
/// one page (the covering-lock branch of the access path).
#[test]
fn golden_trace_runs() {
    const SEED: u64 = 11;
    let run = RunLength {
        warmup: 100,
        measured: 500,
    };
    let trace = Trace::synthesize(&TraceGenConfig::default(), SEED);
    let drawn = &trace.txns()[..(run.warmup + run.measured) as usize];
    let longest = drawn.iter().map(|t| t.refs.len()).max().unwrap_or(0);
    assert!(longest >= 200, "longest drawn transaction: {longest} refs");
    let repeats = drawn
        .iter()
        .filter(|t| {
            let mut seen = HashSet::new();
            !t.refs.iter().all(|r| seen.insert(r.page))
        })
        .count();
    assert!(repeats > 0, "no drawn transaction repeats a page");

    for (coupling, read_optimization, metrics) in [
        (CouplingMode::Pcl, true, "eda86af91be2438d"),
        (CouplingMode::Pcl, false, "1881aab38d34b9da"),
        (CouplingMode::GemLocking, false, "28c3f23cfb589c9f"),
    ] {
        let report = trace_run(TraceRun {
            nodes: 4,
            coupling,
            routing: RoutingStrategy::Affinity,
            read_optimization,
            run,
            seed: SEED,
        });
        assert_eq!(
            report.metric_fingerprint(),
            metrics,
            "{coupling:?} trace run (read optimization {read_optimization}) drifted"
        );
    }
}

/// The lock paths no other golden pins: the central lock engine, PCL
/// with a central lock manager, GEM page transfers through GEM,
/// GEM/FORCE, and a PCL node crash. Each row pins the metric
/// fingerprint and the exact bits of the local-lock share (PCL only),
/// and first checks that the run exercises its path. The PCL crash row
/// was re-captured when GLAs began dropping lock requests of
/// transactions that aborted while the request was on the wire.
#[test]
fn golden_lock_paths() {
    let dc = |nodes| DebitCreditRun {
        routing: RoutingStrategy::Random,
        ..DebitCreditRun::baseline(nodes, RunLength::quick())
    };
    let crash = CrashConfig {
        node: 1,
        at_secs: 3.0,
        recovery_secs: 2.0,
    };
    let lock_engine = RunSpec::LockEngine {
        params: DebitCreditRun {
            coupling: CouplingMode::LockEngine,
            ..dc(3)
        },
        op_service_us: 100.0,
    }
    .execute();
    let central = debit_credit_run(DebitCreditRun {
        coupling: CouplingMode::Pcl,
        central_lock_manager: true,
        ..dc(3)
    });
    let gem_transfer = debit_credit_run(DebitCreditRun {
        buffer: 1_000,
        transfer: PageTransferMode::Gem,
        ..dc(3)
    });
    let gem_force = debit_credit_run(DebitCreditRun {
        update: UpdateStrategy::Force,
        ..dc(3)
    });
    let pcl_crash = dc_engine(CouplingMode::Pcl, Some(crash), None).run();
    assert!(lock_engine.lock_engine_utilization > 0.0);
    assert!(central.cpu_utilization_max > central.cpu_utilization + 0.05);
    assert!(gem_transfer.page_requests_per_txn > 0.0);
    assert!(gem_force.writes_per_txn > 3.0);
    assert!(pcl_crash.crash_aborts > 0);
    let mut drifted = Vec::new();
    for (case, report, golden) in [
        ("lock engine", &lock_engine, "a6d86c75708e0044 None"),
        (
            "PCL central lock manager",
            &central,
            "7012f34026815afe Some(4599668036174851558)",
        ),
        (
            "GEM/NOFORCE GEM page transfers",
            &gem_transfer,
            "21903e1a16c704a0 None",
        ),
        ("GEM/FORCE", &gem_force, "bce7fc3fa37452d7 None"),
        (
            "PCL crash",
            &pcl_crash,
            "6aaf5ebe276d5f95 Some(4598252511199504916)",
        ),
    ] {
        let got = format!(
            "{} {:?}",
            report.metric_fingerprint(),
            report.local_lock_fraction.map(f64::to_bits)
        );
        if got != golden {
            drifted.push(format!("{case}: {got}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "lock paths drifted:\n{}",
        drifted.join("\n")
    );
}

/// The storage paths no other golden pins, each a Fig. 4.3/4.4 point
/// (3 nodes, random routing, buffer 1,000, GEM locking): synchronous
/// GEM reads, write-backs and commit writes of a GEM-resident
/// BRANCH/TELLER partition; FORCE writes into a non-volatile cache, a
/// volatile cache and a GEM write buffer; and the log in GEM. Each row
/// first checks that its traced run exercises the path, then pins the
/// metric fingerprint and the number of trace events of each kind, so
/// that an emission that moves or disappears shows up too.
#[test]
fn golden_io_paths() {
    let dc = |update, bt, log| DebitCreditRun {
        update,
        routing: RoutingStrategy::Random,
        buffer: 1_000,
        bt,
        log,
        ..DebitCreditRun::baseline(3, RunLength::quick())
    };
    let (noforce, force) = (UpdateStrategy::NoForce, UpdateStrategy::Force);
    let mut drifted = Vec::new();
    for (case, params, golden) in [
        (
            "B-T in GEM, NOFORCE",
            dc(noforce, BtStorage::Gem, LogStorage::Disk),
            "1ef17478322c0b91 CommitIo=2901 CommitIoDone=2900 \
                LockGrant=41 LockRelease=2900 LockRequest=5826 LockWait=41 \
                MsgRecv=3444 MsgSend=3446 PageFlush=946 PageRead=3217 \
                PageReadDone=4932 PageTransfer=1723 TxnAdmit=2919 \
                TxnCommit=2900",
        ),
        (
            "B-T in GEM, FORCE",
            dc(force, BtStorage::Gem, LogStorage::Disk),
            "d4af5df0ae8852cb CommitIo=8755 CommitIoDone=8724 \
                LockGrant=332 LockRelease=2900 LockRequest=5890 LockWait=335 \
                PageRead=4996 PageReadDone=4983 TxnAdmit=2958 TxnCommit=2900",
        ),
        (
            "B-T non-volatile cache, FORCE",
            dc(force, BtStorage::NvCache, LogStorage::Disk),
            "2e8807729c558771 CommitIo=11661 CommitIoDone=11630 \
                LockGrant=344 LockRelease=2900 LockRequest=5894 LockWait=346 \
                PageRead=4994 PageReadDone=4980 TxnAdmit=2960 TxnCommit=2900",
        ),
        (
            "B-T volatile cache, FORCE",
            dc(force, BtStorage::VolatileCache, LogStorage::Disk),
            "4c4d9d77cbc5cbdb CommitIo=11671 CommitIoDone=11635 \
                LockGrant=401 LockRelease=2900 LockRequest=5910 LockWait=407 \
                PageRead=5000 PageReadDone=4991 TxnAdmit=2969 TxnCommit=2900",
        ),
        (
            "B-T GEM write buffer, FORCE",
            dc(force, BtStorage::GemWriteBuffer, LogStorage::Disk),
            "db21cdd9c91308f9 CommitIo=11651 CommitIoDone=11626 \
                LockGrant=352 LockRelease=2900 LockRequest=5894 LockWait=355 \
                PageRead=4997 PageReadDone=4979 TxnAdmit=2961 TxnCommit=2900",
        ),
        (
            "log in GEM, NOFORCE",
            dc(noforce, BtStorage::Disk, LogStorage::Gem),
            "6c0c7282da55d4d5 CommitIo=2900 CommitIoDone=2900 \
                LockGrant=29 LockRelease=2900 LockRequest=5821 LockWait=29 \
                MsgRecv=3427 MsgSend=3427 PageFlush=941 PageRead=3215 \
                PageReadDone=4920 PageTransfer=1714 TxnAdmit=2919 \
                TxnCommit=2900",
        ),
    ] {
        let (report, obs) = RunSpec::DebitCredit(params).execute_observed(
            Observe {
                trace: true,
                timeline_every: None,
            },
            None,
        );
        // Trace events of `kind` on a BRANCH/TELLER page (`Some(true)`),
        // on another page (`Some(false)`) or on none (`None`).
        let on = |kind: TraceEventKind, bt: Option<bool>| {
            obs.trace
                .iter()
                .filter(|e| e.kind == kind)
                .filter(|e| unpack_page(e.page).map(|(part, _)| part == BT.raw()) == bt)
                .count()
        };
        match (params.bt, params.log) {
            // A GEM-resident page is read and written back with the CPU
            // held; its FORCE writes emit no `CommitIo`, although every
            // update transaction writes its BRANCH/TELLER page.
            (BtStorage::Gem, _) if params.update == noforce => {
                assert!(on(TraceEventKind::PageRead, Some(true)) > 0, "{case}");
                assert!(on(TraceEventKind::PageFlush, Some(true)) > 0, "{case}");
            }
            (BtStorage::Gem, _) => {
                assert!(report.writes_per_txn > 3.5, "{case}");
                assert_eq!(on(TraceEventKind::CommitIo, Some(true)), 0, "{case}");
            }
            // The log records go to GEM; the log disks stay idle.
            (_, LogStorage::Gem) => {
                assert!(on(TraceEventKind::CommitIo, None) > 0, "{case}");
                assert_eq!(report.log_utilization_max, 0.0, "{case}");
            }
            // FORCE writes of BRANCH/TELLER pages go through the cache
            // or the write buffer in front of its disks.
            _ => assert!(on(TraceEventKind::CommitIo, Some(true)) > 0, "{case}"),
        }
        let mut kinds = BTreeMap::new();
        for e in &obs.trace {
            *kinds.entry(format!("{:?}", e.kind)).or_insert(0usize) += 1;
        }
        let counts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        let got = format!("{} {}", report.metric_fingerprint(), counts.join(" "));
        if got != golden {
            drifted.push(format!("{case}: {got}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "I/O paths drifted:\n{}",
        drifted.join("\n")
    );
}
