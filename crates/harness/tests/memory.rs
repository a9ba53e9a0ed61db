//! Memory follows live state. A converging run's peak heap does not
//! grow with its length, also when nearly every transaction locks a page
//! no transaction locked before, and the lock state PCL builds before
//! the first event grows about linearly with the node count. The trace
//! job, whose million page references dominate its heap, stays under a
//! fixed bound.
//!
//! This binary installs the counting allocator, so the job pool records
//! each job's exact peak heap (`RunProfile::peak_heap_bytes`). The
//! counts are deterministic for a given build, so the bounds do not
//! flake.

#[global_allocator]
static ALLOC: dbshare_harness::CountingAlloc = dbshare_harness::CountingAlloc;

use dbshare_harness::{alloc_track, run_jobs, Job, Observe};
use dbshare_model::{CouplingMode, RoutingStrategy, SystemConfig, UpdateStrategy};
use dbshare_sim::experiments::{DebitCreditRun, RunLength, RunSpec, ScaleRun, TraceRun};
use dbshare_sim::Engine;
use dbshare_workload::{DebitCredit, DebitCreditWorkload, Workload};

/// Largest peak-heap growth allowed from L to 4L measured transactions.
const MAX_RUN_LENGTH_GROWTH: u64 = 16 * 1024;

/// Measured-transaction counts of the run-length check, each four times
/// the one before. The last passes 16,384 admissions, where the
/// transaction index must compact instead of growing.
const RUN_LENGTHS: [u64; 3] = [2_000, 8_000, 32_000];

/// Largest peak-heap growth of the PCL input of
/// `peak_heap_does_not_grow_with_the_pages_touched`. The lock
/// authorities hold about as many entries at both lengths; the heap
/// still grows by about 100 KB from state outside the lock tables
/// (doubling the authorities' pre-sized maps leaves it unchanged).
/// Keeping an entry per page ever locked adds over 2 MB.
const MAX_PCL_GROWTH: u64 = 128 * 1024;

/// Largest peak heap of the short trace job: about 1.12x the
/// 23,212,171 B it takes with 16-byte page references. At 24 bytes (a
/// page id of two words) it took 33,159,667 B.
const MAX_TRACE_PEAK_HEAP: u64 = 26_000_000;

/// Largest PCL `Engine::new` heap at 200 nodes, as a multiple of the
/// heap at 50 nodes. Four times the nodes cost four times the tables.
const MAX_NODE_COUNT_RATIO: f64 = 4.5;

/// 3 nodes, NOFORCE, affinity routing, 50 TPS per node: below every
/// saturation point, so the live state is bounded by the MPL and the
/// run length changes nothing but the number of transactions.
fn converging(coupling: CouplingMode, measured: u64) -> Job {
    Job {
        figure: "memory".into(),
        curve: format!("{coupling:?}"),
        nodes: 3,
        spec: RunSpec::Scale(ScaleRun {
            nodes: 3,
            accounts: 10_000,
            coupling,
            tps_per_node: 50.0,
            page_metadata_budget: 8_192,
            run: RunLength {
                warmup: 3_000,
                measured,
            },
            seed: 7,
        }),
        observe: Observe::default(),
    }
}

#[test]
fn peak_heap_does_not_grow_with_run_length() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let jobs = RUN_LENGTHS.iter().map(|&m| converging(coupling, m));
        let results = run_jobs(jobs.collect(), 1, false, None);
        for r in &results {
            assert!(!r.report.truncated, "{coupling:?} must converge");
        }
        assert!(
            results[0].report.profile.peak_heap_bytes > 0,
            "counting allocator not active"
        );
        for (pair, lengths) in results.windows(2).zip(RUN_LENGTHS.windows(2)) {
            let short = pair[0].report.profile.peak_heap_bytes;
            let long = pair[1].report.profile.peak_heap_bytes;
            assert!(
                long < short + MAX_RUN_LENGTH_GROWTH,
                "{coupling:?}: peak heap {short} B at {} measured, {long} B at {}",
                lengths[0],
                lengths[1]
            );
        }
    }
}

/// 8 nodes, seed 1, 2,000 warm-up transactions: nearly every
/// transaction locks an ACCOUNT page (8 million of them) that no
/// transaction locked before. GEM locking runs FORCE with affinity
/// routing and 1,000-page buffers (`dbbench`'s `dc-gem-force`), PCL
/// NOFORCE with random routing and 200-page buffers (`dc-pcl-random`).
fn fresh_pages(coupling: CouplingMode, measured: u64) -> Job {
    let run = RunLength {
        warmup: 2_000,
        measured,
    };
    let run = DebitCreditRun {
        coupling,
        seed: 1,
        ..DebitCreditRun::baseline(8, run)
    };
    let run = match coupling {
        CouplingMode::Pcl => DebitCreditRun {
            routing: RoutingStrategy::Random,
            ..run
        },
        _ => DebitCreditRun {
            update: UpdateStrategy::Force,
            buffer: 1_000,
            ..run
        },
    };
    Job {
        figure: "memory".into(),
        curve: format!("{coupling:?}"),
        nodes: 8,
        spec: RunSpec::DebitCredit(run),
        observe: Observe::default(),
    }
}

/// The GLT and the PCL lock authorities keep an entry only while a
/// buffer holds a copy of its page (or a lock, an owner or a request in
/// transit needs it), so a run that touches a new page in nearly every
/// transaction holds about as many entries at 32,000 measured
/// transactions as at 8,000. (GEM: from 2,000 to 8,000 the heap still
/// grows by about 24 KB for reasons other than the lock table.)
#[test]
fn peak_heap_does_not_grow_with_the_pages_touched() {
    let lengths = [8_000, 32_000];
    let bounds = [
        (CouplingMode::GemLocking, MAX_RUN_LENGTH_GROWTH),
        (CouplingMode::Pcl, MAX_PCL_GROWTH),
    ];
    for (coupling, bound) in bounds {
        let jobs = lengths.iter().map(|&m| fresh_pages(coupling, m));
        let results = run_jobs(jobs.collect(), 1, false, None);
        for r in &results {
            assert!(!r.report.truncated, "{coupling:?} must converge");
        }
        let short = results[0].report.profile.peak_heap_bytes;
        let long = results[1].report.profile.peak_heap_bytes;
        assert!(short > 0, "counting allocator not active");
        assert!(
            long < short + bound,
            "{coupling:?}: peak heap {short} B at {} measured, {long} B at {}",
            lengths[0],
            lengths[1]
        );
    }
}

/// Heap bytes a PCL engine holds once built, before its first event.
fn pcl_engine_heap(nodes: u16) -> i64 {
    let mut cfg = SystemConfig::debit_credit(nodes);
    cfg.coupling = CouplingMode::Pcl;
    cfg.page_metadata_budget = Some(8_192);
    let dc = DebitCredit::with_accounts(nodes, 1_000_000);
    let wl = DebitCreditWorkload::new(dc, cfg.arrival_tps_per_node, RoutingStrategy::Affinity);
    cfg.partitions = wl.partitions().to_vec();
    let live0 = alloc_track::thread_live_bytes();
    let engine = Engine::new(cfg, Box::new(wl)).expect("valid configuration");
    let heap = alloc_track::thread_live_bytes() - live0;
    drop(engine);
    heap
}

#[test]
fn pcl_lock_state_grows_linearly_with_nodes() {
    let (small, large) = (pcl_engine_heap(50), pcl_engine_heap(200));
    assert!(small > 0, "counting allocator not active");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= MAX_NODE_COUNT_RATIO,
        "PCL engine heap {small} B at 50 nodes, {large} B at 200 ({ratio:.1}x)"
    );
}

/// The Fig. 4.7 trace job (4 nodes, PCL with the read optimization,
/// affinity routing), short: its heap is mostly the synthesized trace,
/// about a million page references, whatever the run length.
#[test]
fn trace_job_peak_heap_is_bounded() {
    let job = Job {
        figure: "memory".into(),
        curve: "PCL/affinity".into(),
        nodes: 4,
        spec: RunSpec::Trace(TraceRun {
            nodes: 4,
            coupling: CouplingMode::Pcl,
            routing: RoutingStrategy::Affinity,
            read_optimization: true,
            run: RunLength {
                warmup: 100,
                measured: 1_000,
            },
            seed: 1,
        }),
        observe: Observe::default(),
    };
    let result = run_jobs(vec![job], 1, false, None).remove(0);
    assert!(!result.report.truncated, "the trace job must converge");
    let peak = result.report.profile.peak_heap_bytes;
    assert!(peak > 0, "counting allocator not active");
    assert!(
        peak <= MAX_TRACE_PEAK_HEAP,
        "trace job peak heap {peak} B exceeds {MAX_TRACE_PEAK_HEAP} B"
    );
}
