//! Experiment presets reproducing §4 of the paper.
//!
//! Each `figNN_grid` function lays out the corresponding figure's
//! sweep: the same parameters, the same curves, as a grid of pending
//! runs. The `dbshare-harness` worker pool executes the grids for the
//! `repro` binary in `dbshare-bench`, and [`run_grid_serial`] executes
//! them one point at a time into series of [`RunReport`]s, for the
//! integration tests that assert the qualitative shapes the paper
//! reports.

use crate::progress::ProgressGauge;
use crate::{Engine, Observations, Observe, RunReport};
use dbshare_model::{
    CouplingMode, LogStorage, PageTransferMode, RoutingStrategy, StorageAllocation, SystemConfig,
    UpdateStrategy,
};
use dbshare_workload::trace::{Trace, TraceGenConfig};
use dbshare_workload::{DebitCredit, DebitCreditWorkload, TraceWorkload, WithGlaMap, Workload};

/// Storage allocation of the hot BRANCH/TELLER partition (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtStorage {
    /// Conventional disks (the default of §4.2).
    Disk,
    /// Resident in GEM (Fig. 4.3).
    Gem,
    /// Disks with a volatile shared cache (Fig. 4.4).
    VolatileCache,
    /// Disks with a non-volatile shared cache (Fig. 4.4).
    NvCache,
    /// Disks behind a small non-volatile GEM write buffer (§2 usage
    /// form 2; reproduction extension).
    GemWriteBuffer,
}

/// Run length: trade fidelity for speed (tests use [`RunLength::quick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Transactions completed before measurement starts.
    pub warmup: u64,
    /// Transactions measured.
    pub measured: u64,
}

impl RunLength {
    /// Full-length runs for the reproduction binary.
    pub const fn full() -> Self {
        RunLength {
            warmup: 2_000,
            measured: 16_000,
        }
    }
    /// Short runs for tests and quick sweeps.
    pub const fn quick() -> Self {
        RunLength {
            warmup: 400,
            measured: 2_500,
        }
    }
}

/// One curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label as in the paper's legend.
    pub label: String,
    /// `(nodes, report)` per swept point.
    pub points: Vec<(u16, RunReport)>,
}

impl Series {
    /// The report at `nodes`, if present.
    pub fn at(&self, nodes: u16) -> Option<&RunReport> {
        self.points
            .iter()
            .find(|&&(n, _)| n == nodes)
            .map(|(_, r)| r)
    }

    /// The node counts this curve actually has points for, in sweep
    /// order. Callers rendering several curves against a shared node
    /// axis should consult this (or [`Series::at`], which returns
    /// `None` for absent points) rather than assuming every curve
    /// covers every node count.
    pub fn node_counts(&self) -> Vec<u16> {
        self.points.iter().map(|&(n, _)| n).collect()
    }
}

/// A data-only description of one simulation run: everything a worker
/// needs to execute it, with no closures, so sweeps can be flattened
/// into independent jobs, fingerprinted, and logged (the
/// `dbshare-harness` crate builds on this).
#[derive(Debug, Clone, Copy)]
pub enum RunSpec {
    /// A debit-credit run (Figs. 4.1–4.6).
    DebitCredit(DebitCreditRun),
    /// A debit-credit run against the central lock engine with an
    /// explicit per-operation service time (the §5 comparison).
    LockEngine {
        /// Preset parameters (with [`CouplingMode::LockEngine`]).
        params: DebitCreditRun,
        /// Lock-engine service time per operation in microseconds.
        op_service_us: f64,
    },
    /// A trace-driven run (Fig. 4.7).
    Trace(TraceRun),
    /// A memory-lean large-system run (the `--scale` family).
    Scale(ScaleRun),
}

impl RunSpec {
    /// Executes the run. Deterministic: equal specs produce equal
    /// reports on every invocation, in any process, on any thread.
    pub fn execute(&self) -> RunReport {
        self.engine().run()
    }

    /// Executes the run with the given observation settings, returning
    /// the report together with the collected timeline and trace, and
    /// publishing coarse progress into `progress`, when given, for a
    /// sampling thread to read. The report is identical to
    /// [`execute`](RunSpec::execute), and the gauge is observer-only:
    /// report and observations are bit-identical with and without it,
    /// and across repeated invocations, which is what makes trace
    /// files diffable.
    pub fn execute_observed(
        &self,
        observe: Observe,
        progress: Option<std::sync::Arc<ProgressGauge>>,
    ) -> (RunReport, Observations) {
        let mut engine = self.engine();
        engine.set_observe(observe);
        if let Some(gauge) = progress {
            engine.set_progress(gauge);
        }
        engine.run_observed()
    }

    /// Builds the configured engine without running it.
    pub(crate) fn engine(&self) -> Engine {
        match *self {
            RunSpec::DebitCredit(p) => debit_credit_engine_at(p, 100.0, |_| {}),
            RunSpec::LockEngine {
                params,
                op_service_us,
            } => debit_credit_engine_at(params, 100.0, |cfg| {
                cfg.lock_engine.op_service_us = op_service_us
            }),
            RunSpec::Trace(p) => trace_engine(p),
            RunSpec::Scale(p) => scale_engine(p),
        }
    }

    /// Number of nodes the run simulates.
    pub fn nodes(&self) -> u16 {
        match *self {
            RunSpec::DebitCredit(p) | RunSpec::LockEngine { params: p, .. } => p.nodes,
            RunSpec::Trace(p) => p.nodes,
            RunSpec::Scale(p) => p.nodes,
        }
    }

    /// The run's master seed.
    pub fn seed(&self) -> u64 {
        match *self {
            RunSpec::DebitCredit(p) | RunSpec::LockEngine { params: p, .. } => p.seed,
            RunSpec::Trace(p) => p.seed,
            RunSpec::Scale(p) => p.seed,
        }
    }
}

/// One curve of a figure as a grid of pending runs: the shape of the
/// sweep without any of the work. Produced by the `*_grid` preset
/// functions; executed serially by [`run_grid_serial`] or in parallel
/// by the `dbshare-harness` worker pool.
#[derive(Debug, Clone)]
pub struct CurveGrid {
    /// Curve label as in the paper's legend.
    pub label: String,
    /// `(nodes, spec)` per swept point.
    pub points: Vec<(u16, RunSpec)>,
}

/// Executes a grid serially, point by point, in declaration order.
/// The parallel harness reassembles its results into exactly this
/// shape, so the two are interchangeable.
pub fn run_grid_serial(grid: Vec<CurveGrid>) -> Vec<Series> {
    grid.into_iter()
        .map(|c| Series {
            label: c.label,
            points: c
                .points
                .into_iter()
                .map(|(n, spec)| (n, spec.execute()))
                .collect(),
        })
        .collect()
}

/// Parameters of one debit-credit run.
#[derive(Debug, Clone, Copy)]
pub struct DebitCreditRun {
    /// Number of nodes.
    pub nodes: u16,
    /// Concurrency/coherency protocol.
    pub coupling: CouplingMode,
    /// FORCE or NOFORCE.
    pub update: UpdateStrategy,
    /// Random or affinity routing.
    pub routing: RoutingStrategy,
    /// Buffer frames per node (200 or 1000 in the paper).
    pub buffer: u64,
    /// BRANCH/TELLER storage allocation.
    pub bt: BtStorage,
    /// §3.1 clustering of BRANCH and TELLER records (all of the paper's
    /// experiments cluster; `false` runs the four-page variant).
    pub clustered: bool,
    /// Replaces PCL's partitioned lock authority with a *central* lock
    /// manager on node 0 (\[Ra91b\] baseline; only meaningful with
    /// [`CouplingMode::Pcl`]).
    pub central_lock_manager: bool,
    /// NOFORCE page-transfer channel (Fig. 4.3 extension).
    pub transfer: PageTransferMode,
    /// Where commit log records go (§2 extension; the paper uses log
    /// disks).
    pub log: LogStorage,
    /// Run length.
    pub run: RunLength,
    /// Master seed.
    pub seed: u64,
}

impl DebitCreditRun {
    /// The §4.2 baseline: GEM locking, NOFORCE, affinity routing,
    /// buffer 200, everything on plain disks.
    pub fn baseline(nodes: u16, run: RunLength) -> Self {
        DebitCreditRun {
            nodes,
            coupling: CouplingMode::GemLocking,
            update: UpdateStrategy::NoForce,
            routing: RoutingStrategy::Affinity,
            buffer: 200,
            bt: BtStorage::Disk,
            clustered: true,
            central_lock_manager: false,
            transfer: PageTransferMode::Network,
            log: LogStorage::Disk,
            run,
            seed: 0xDB5_4A6E,
        }
    }
}

/// Executes one debit-credit configuration (Table 4.1 parameters).
pub fn debit_credit_run(p: DebitCreditRun) -> RunReport {
    debit_credit_run_with(p, |_| {})
}

/// Like [`debit_credit_run`], with a final hook to adjust any
/// [`SystemConfig`] field the preset does not expose (lock-engine
/// timing, MPL, CPU capacity, ...).
pub fn debit_credit_run_with(
    p: DebitCreditRun,
    tweak: impl FnOnce(&mut SystemConfig),
) -> RunReport {
    debit_credit_run_at(p, 100.0, tweak)
}

/// [`debit_credit_run_with`] at an explicit per-node arrival rate (the
/// database still scales with the rate, §4.1). Used by
/// [`find_tps_at_cpu`]'s probes so every preset option is honoured.
fn debit_credit_run_at(
    p: DebitCreditRun,
    tps: f64,
    tweak: impl FnOnce(&mut SystemConfig),
) -> RunReport {
    debit_credit_engine_at(p, tps, tweak).run()
}

/// Builds the fully configured engine for a debit-credit run without
/// running it (observed execution sets its observation first).
fn debit_credit_engine_at(
    p: DebitCreditRun,
    tps: f64,
    tweak: impl FnOnce(&mut SystemConfig),
) -> Engine {
    let mut cfg = SystemConfig::debit_credit(p.nodes);
    cfg.arrival_tps_per_node = tps;
    cfg.coupling = p.coupling;
    cfg.update = p.update;
    cfg.routing = p.routing;
    cfg.buffer_pages_per_node = p.buffer;
    cfg.page_transfer = p.transfer;
    cfg.log_storage = p.log;
    cfg.run.warmup_txns = p.run.warmup;
    cfg.run.measured_txns = p.run.measured;
    cfg.run.seed = p.seed;
    let dc = DebitCredit::new(p.nodes, tps);
    let bt_pages = dc.bt_pages();
    let mut wl = DebitCreditWorkload::new(dc, tps, p.routing);
    if !p.clustered {
        wl = wl.unclustered();
    }
    cfg.partitions = Workload::partitions(&wl).to_vec();
    // §4.4: reallocate the hot BRANCH/TELLER partition.
    let bt_part = &mut cfg.partitions[dbshare_workload::debit_credit::BT.index()];
    match p.bt {
        BtStorage::Disk => {}
        BtStorage::Gem => bt_part.storage = StorageAllocation::Gem,
        BtStorage::VolatileCache => {
            let disks = disks_of(&bt_part.storage);
            bt_part.storage = StorageAllocation::CachedDisk {
                disks,
                cache_pages: bt_pages,
                nonvolatile: false,
            };
        }
        BtStorage::NvCache => {
            let disks = disks_of(&bt_part.storage);
            bt_part.storage = StorageAllocation::CachedDisk {
                disks,
                cache_pages: bt_pages,
                nonvolatile: true,
            };
        }
        BtStorage::GemWriteBuffer => {
            let disks = disks_of(&bt_part.storage);
            bt_part.storage = StorageAllocation::WriteBufferedDisk {
                disks,
                // a *small* buffer is the point of this usage form
                buffer_pages: (bt_pages / 4).max(16),
            };
        }
    }
    tweak(&mut cfg);
    if p.central_lock_manager {
        let partitions = cfg.partitions.len();
        let central = WithGlaMap::new(wl, dbshare_model::gla::GlaMap::central(p.nodes, partitions));
        return Engine::new(cfg, Box::new(central)).expect("valid experiment configuration");
    }
    Engine::new(cfg, Box::new(wl)).expect("valid experiment configuration")
}

/// Parameters of one memory-lean scale run. Unlike [`DebitCreditRun`],
/// the database size is explicit instead of rate-coupled (a 200-node
/// Table 4.1 database would hold two billion accounts), and every
/// page-metadata pre-allocation is capped by a budget so the engine
/// materializes large-system state lazily.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Number of nodes (the paper's figures stop at 8; scale runs
    /// probe 50–200).
    pub nodes: u16,
    /// Total accounts (branches = nodes, accounts divided evenly).
    pub accounts: u64,
    /// Concurrency/coherency protocol.
    pub coupling: CouplingMode,
    /// Arrival rate per node in TPS.
    pub tps_per_node: f64,
    /// Cap on every page-metadata pre-allocation, in entries
    /// ([`SystemConfig::page_metadata_budget`]).
    pub page_metadata_budget: usize,
    /// Run length.
    pub run: RunLength,
    /// Master seed.
    pub seed: u64,
}

/// Builds the engine for a scale run. The geometry uses
/// [`DebitCredit::with_accounts`]; everything else follows the §4.2
/// baseline (NOFORCE, affinity routing, buffer 200, plain disks).
fn scale_engine(p: ScaleRun) -> Engine {
    let mut cfg = SystemConfig::debit_credit(p.nodes);
    cfg.arrival_tps_per_node = p.tps_per_node;
    cfg.coupling = p.coupling;
    cfg.run.warmup_txns = p.run.warmup;
    cfg.run.measured_txns = p.run.measured;
    cfg.run.seed = p.seed;
    cfg.page_metadata_budget = Some(p.page_metadata_budget);
    let dc = DebitCredit::with_accounts(p.nodes, p.accounts);
    let wl = DebitCreditWorkload::new(dc, p.tps_per_node, RoutingStrategy::Affinity);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid scale configuration")
}

/// Node axis of the full scale sweep (`--scale full`). The 200-node
/// endpoint is the headline run: one million accounts, on the order of
/// a hundred million calendar events.
pub const SCALE_FULL_NODES: &[u16] = &[50, 100, 200];
/// Node axis of the CI-sized smoke sweep (`--scale smoke`).
pub const SCALE_SMOKE_NODES: &[u16] = &[16, 64];

/// Pre-allocation cap used by every scale preset.
const SCALE_BUDGET: usize = 8_192;

/// Geometry and run length of one `--scale` family. The fixed grids
/// and the `--knee` bisection both build specs through
/// [`ScalePreset::spec`], so a knee probe at node count `n` is exactly
/// the grid's point at `n` — same config fingerprint, comparable
/// history rows.
#[derive(Debug, Clone, Copy)]
pub struct ScalePreset {
    /// Total accounts in the database.
    pub accounts: u64,
    /// Measured transactions per node.
    pub measured_per_node: u64,
    /// Node axis of the fixed grid.
    pub nodes: &'static [u16],
}

impl ScalePreset {
    /// The `--scale smoke` preset: a CI-sized miniature (≤64 nodes,
    /// 100,000 accounts) exercising the same code paths as the full
    /// sweep.
    pub const SMOKE: ScalePreset = ScalePreset {
        accounts: 100_000,
        measured_per_node: 1_000,
        nodes: SCALE_SMOKE_NODES,
    };

    /// The `--scale full` preset: up to 200 nodes against one million
    /// accounts, 25,000 measured transactions per node (5 million at
    /// the endpoint — beyond 10^8 calendar events for the 200-node GEM
    /// run).
    pub const FULL: ScalePreset = ScalePreset {
        accounts: 1_000_000,
        measured_per_node: 25_000,
        nodes: SCALE_FULL_NODES,
    };

    /// The two curves every scale figure sweeps.
    pub const CURVES: [(&'static str, CouplingMode); 2] = [
        ("GEM/NOFORCE", CouplingMode::GemLocking),
        ("PCL/NOFORCE", CouplingMode::Pcl),
    ];

    /// The spec at node count `n` for `coupling` — identical to the
    /// corresponding fixed-grid point.
    pub fn spec(&self, coupling: CouplingMode, n: u16) -> RunSpec {
        RunSpec::Scale(ScaleRun {
            nodes: n,
            accounts: self.accounts,
            coupling,
            tps_per_node: 100.0,
            page_metadata_budget: SCALE_BUDGET,
            run: RunLength {
                // Work scales with the system so per-node load (and
                // the contention picture) is comparable across the
                // axis.
                warmup: n as u64 * 500,
                measured: n as u64 * self.measured_per_node,
            },
            seed: 0xDB5_4A6E,
        })
    }

    /// The preset's fixed grid (what `--scale` runs).
    pub fn grid(&self) -> Vec<CurveGrid> {
        Self::CURVES
            .iter()
            .map(|&(label, coupling)| grid_curve(label, self.nodes, |n| self.spec(coupling, n)))
            .collect()
    }
}

fn disks_of(s: &StorageAllocation) -> u32 {
    match *s {
        StorageAllocation::Disk { disks } => disks,
        StorageAllocation::CachedDisk { disks, .. } => disks,
        StorageAllocation::WriteBufferedDisk { disks, .. } => disks,
        StorageAllocation::Gem => 0,
    }
}

/// Builds one grid curve from a per-node spec constructor.
fn grid_curve<F>(label: &str, nodes: &[u16], mut f: F) -> CurveGrid
where
    F: FnMut(u16) -> RunSpec,
{
    CurveGrid {
        label: label.to_string(),
        points: nodes.iter().map(|&n| (n, f(n))).collect(),
    }
}

/// Fig. 4.1 as a grid of pending runs: GEM locking, response time vs.
/// nodes for random/affinity routing × FORCE/NOFORCE (buffer 200, all
/// files on disk).
pub fn fig41_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (routing, rl) in [
        (RoutingStrategy::Random, "random"),
        (RoutingStrategy::Affinity, "affinity"),
    ] {
        for (update, ul) in [
            (UpdateStrategy::Force, "FORCE"),
            (UpdateStrategy::NoForce, "NOFORCE"),
        ] {
            out.push(grid_curve(&format!("{rl}/{ul}"), nodes, |n| {
                RunSpec::DebitCredit(DebitCreditRun {
                    nodes: n,
                    routing,
                    update,
                    ..DebitCreditRun::baseline(n, run)
                })
            }));
        }
    }
    out
}

/// Fig. 4.2 as a grid of pending runs: buffer size 200 vs. 1000 for
/// random routing, FORCE and NOFORCE, GEM locking.
pub fn fig42_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for buffer in [200u64, 1_000] {
        for (update, ul) in [
            (UpdateStrategy::Force, "FORCE"),
            (UpdateStrategy::NoForce, "NOFORCE"),
        ] {
            out.push(grid_curve(&format!("{ul}/buffer {buffer}"), nodes, |n| {
                RunSpec::DebitCredit(DebitCreditRun {
                    nodes: n,
                    routing: RoutingStrategy::Random,
                    update,
                    buffer,
                    ..DebitCreditRun::baseline(n, run)
                })
            }));
        }
    }
    out
}

/// Fig. 4.3 as a grid of pending runs: BRANCH/TELLER on disk vs. in
/// GEM, for NOFORCE (a) and FORCE (b), both routings, buffer 1000.
pub fn fig43_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (update, ul) in [
        (UpdateStrategy::NoForce, "NOFORCE"),
        (UpdateStrategy::Force, "FORCE"),
    ] {
        for (bt, bl) in [(BtStorage::Disk, "disk"), (BtStorage::Gem, "GEM")] {
            for (routing, rl) in [
                (RoutingStrategy::Random, "random"),
                (RoutingStrategy::Affinity, "affinity"),
            ] {
                out.push(grid_curve(&format!("{ul}/{rl}/B-T {bl}"), nodes, |n| {
                    RunSpec::DebitCredit(DebitCreditRun {
                        nodes: n,
                        routing,
                        update,
                        buffer: 1_000,
                        bt,
                        ..DebitCreditRun::baseline(n, run)
                    })
                }));
            }
        }
    }
    out
}

/// Fig. 4.4 as a grid of pending runs: disk caches for the
/// BRANCH/TELLER partition (FORCE, buffer 1000).
pub fn fig44_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (bt, bl) in [
        (BtStorage::Disk, "disk"),
        (BtStorage::VolatileCache, "volatile cache"),
        (BtStorage::NvCache, "nonvolatile cache"),
        (BtStorage::Gem, "GEM"),
    ] {
        for (routing, rl) in [
            (RoutingStrategy::Random, "random"),
            (RoutingStrategy::Affinity, "affinity"),
        ] {
            out.push(grid_curve(&format!("{rl}/B-T {bl}"), nodes, |n| {
                RunSpec::DebitCredit(DebitCreditRun {
                    nodes: n,
                    routing,
                    update: UpdateStrategy::Force,
                    buffer: 1_000,
                    bt,
                    ..DebitCreditRun::baseline(n, run)
                })
            }));
        }
    }
    out
}

/// Fig. 4.5 as a grid of pending runs: PCL vs. GEM locking across
/// buffer sizes, update strategies, and routings.
pub fn fig45_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (coupling, cl) in [
        (CouplingMode::GemLocking, "GEM"),
        (CouplingMode::Pcl, "PCL"),
    ] {
        for buffer in [200u64, 1_000] {
            for (update, ul) in [
                (UpdateStrategy::Force, "FORCE"),
                (UpdateStrategy::NoForce, "NOFORCE"),
            ] {
                for (routing, rl) in [
                    (RoutingStrategy::Random, "random"),
                    (RoutingStrategy::Affinity, "affinity"),
                ] {
                    out.push(grid_curve(
                        &format!("{cl}/{rl}/{ul}/buffer {buffer}"),
                        nodes,
                        |n| {
                            RunSpec::DebitCredit(DebitCreditRun {
                                nodes: n,
                                coupling,
                                routing,
                                update,
                                buffer,
                                ..DebitCreditRun::baseline(n, run)
                            })
                        },
                    ));
                }
            }
        }
    }
    out
}

/// Fig. 4.6 as a grid of pending runs: throughput per node at 80% CPU
/// utilization for PCL and GEM locking × routing × update strategy
/// (buffer 1000). The value is in each report's
/// `tps_per_node_at_80pct_cpu`.
pub fn fig46_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (coupling, cl) in [
        (CouplingMode::GemLocking, "GEM"),
        (CouplingMode::Pcl, "PCL"),
    ] {
        for (routing, rl) in [
            (RoutingStrategy::Random, "random"),
            (RoutingStrategy::Affinity, "affinity"),
        ] {
            for (update, ul) in [
                (UpdateStrategy::Force, "FORCE"),
                (UpdateStrategy::NoForce, "NOFORCE"),
            ] {
                out.push(grid_curve(&format!("{cl}/{rl}/{ul}"), nodes, |n| {
                    RunSpec::DebitCredit(DebitCreditRun {
                        nodes: n,
                        coupling,
                        routing,
                        update,
                        buffer: 1_000,
                        ..DebitCreditRun::baseline(n, run)
                    })
                }));
            }
        }
    }
    out
}

/// Parameters of one trace-driven run (§4.6).
#[derive(Debug, Clone, Copy)]
pub struct TraceRun {
    /// Number of nodes (the paper varies 1–8).
    pub nodes: u16,
    /// Protocol.
    pub coupling: CouplingMode,
    /// Routing strategy.
    pub routing: RoutingStrategy,
    /// PCL read optimization (\[Ra86\]); §4.6 reports local-lock shares
    /// both with and without it.
    pub read_optimization: bool,
    /// Run length.
    pub run: RunLength,
    /// Master seed (also seeds the trace generator).
    pub seed: u64,
}

/// Executes one trace-driven configuration: 50 TPS per node, buffer
/// 1000, NOFORCE, PCL read optimization enabled (§4.6).
pub fn trace_run(p: TraceRun) -> RunReport {
    trace_engine(p).run()
}

/// Builds the configured engine for [`trace_run`] without running it.
fn trace_engine(p: TraceRun) -> Engine {
    let mut cfg = SystemConfig::debit_credit(p.nodes);
    cfg.arrival_tps_per_node = 50.0;
    cfg.coupling = p.coupling;
    cfg.update = UpdateStrategy::NoForce;
    cfg.routing = p.routing;
    cfg.buffer_pages_per_node = 1_000;
    cfg.pcl_read_optimization = p.read_optimization;
    // Long trace transactions (the largest performs >11,000 accesses)
    // need many concurrent slots; the paper chooses the MPL high enough
    // to avoid input queueing (§4.1).
    cfg.mpl_per_node = 256;
    // Trace transactions average ~57 accesses; the paper keeps the CPU
    // and device characteristics of Table 4.1 — the per-access path
    // length is scaled so that GEM-locking CPU utilization lands near
    // the reported ~45% at 50 TPS per node.
    cfg.cpu.per_access_instr = 3_000.0;
    cfg.run.warmup_txns = p.run.warmup;
    cfg.run.measured_txns = p.run.measured;
    cfg.run.seed = p.seed;
    let trace = Trace::synthesize(&TraceGenConfig::default(), p.seed);
    let wl = TraceWorkload::new(trace, p.nodes, p.routing);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid experiment configuration")
}

/// Fig. 4.7 as a grid of pending runs: PCL vs. GEM locking for the
/// real-life (synthetic-trace) workload, both routings.
pub fn fig47_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    for (coupling, cl) in [
        (CouplingMode::GemLocking, "GEM"),
        (CouplingMode::Pcl, "PCL"),
    ] {
        for (routing, rl) in [
            (RoutingStrategy::Random, "random"),
            (RoutingStrategy::Affinity, "affinity"),
        ] {
            out.push(grid_curve(&format!("{cl}/{rl}"), nodes, |n| {
                RunSpec::Trace(TraceRun {
                    nodes: n,
                    coupling,
                    routing,
                    read_optimization: true,
                    run,
                    seed: 0xDB5_4A6E,
                })
            }));
        }
    }
    out
}

/// Searches (by bisection over the arrival rate) for the per-node
/// transaction rate at which average CPU utilization reaches `target`
/// (Fig. 4.6 measures 80%). Each probe is a full short simulation, so
/// this is the faithful — if slower — alternative to the single-point
/// extrapolation in [`RunReport::tps_per_node_at_80pct_cpu`]; the two
/// agree within a few percent because per-transaction CPU cost is
/// nearly load-independent (see `tests/harness.rs`).
///
/// # Panics
///
/// Panics if `target` is not within (0, 1).
pub fn find_tps_at_cpu(p: DebitCreditRun, target: f64, probes: u32) -> f64 {
    assert!(target > 0.0 && target < 1.0, "target utilization in (0,1)");
    let util_at = |tps: f64| -> f64 { debit_credit_run_at(p, tps, |_| {}).cpu_utilization };
    // CPU utilization is monotone in the offered rate; bracket and bisect.
    let (mut lo, mut hi) = (10.0f64, 170.0f64);
    for _ in 0..probes {
        let mid = (lo + hi) / 2.0;
        if util_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Summary of replicated runs with independent seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// Mean of the per-run mean response times (ms).
    pub mean_response_ms: f64,
    /// Half-width of the 95% confidence interval across replications.
    pub response_ci95_ms: f64,
    /// The individual reports.
    pub runs: Vec<RunReport>,
}

/// Runs `p` under each seed and summarizes across replications
/// (independent-replications confidence intervals, the companion to the
/// within-run batch-means interval in [`RunReport`]).
///
/// # Panics
///
/// Panics if fewer than two seeds are supplied.
pub fn replicate(p: DebitCreditRun, seeds: &[u64]) -> Replication {
    assert!(seeds.len() >= 2, "need >= 2 replications for an interval");
    let runs: Vec<RunReport> = seeds
        .iter()
        .map(|&seed| debit_credit_run(DebitCreditRun { seed, ..p }))
        .collect();
    let n = runs.len() as f64;
    let mean = runs.iter().map(|r| r.mean_response_ms).sum::<f64>() / n;
    let var = runs
        .iter()
        .map(|r| (r.mean_response_ms - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0);
    Replication {
        mean_response_ms: mean,
        response_ci95_ms: 1.96 * (var / n).sqrt(),
        runs,
    }
}

/// §5 comparison as a grid of pending runs: GEM locking vs. a central
/// lock engine (\[Yu87\]) at several per-operation service times. The
/// lock engine saturates within the paper's 1–10-node range; GEM
/// locking does not.
pub fn lock_engine_comparison_grid(nodes: &[u16], run: RunLength) -> Vec<CurveGrid> {
    let mut out = Vec::new();
    out.push(grid_curve("GEM locking (2us entries)", nodes, |n| {
        RunSpec::DebitCredit(DebitCreditRun {
            routing: RoutingStrategy::Random,
            ..DebitCreditRun::baseline(n, run)
        })
    }));
    for us in [100.0f64, 300.0, 500.0] {
        out.push(grid_curve(
            &format!("lock engine ({us:.0}us/op)"),
            nodes,
            |n| RunSpec::LockEngine {
                params: DebitCreditRun {
                    coupling: CouplingMode::LockEngine,
                    routing: RoutingStrategy::Random,
                    ..DebitCreditRun::baseline(n, run)
                },
                op_service_us: us,
            },
        ));
    }
    out
}

/// Renders Table 4.1 (the parameter settings actually in force).
pub fn table41() -> String {
    let cfg = SystemConfig::debit_credit(1);
    format!(
        "Table 4.1 parameter settings (debit-credit)\n\
         number of nodes N      : 1 - 10\n\
         arrival rate           : {} TPS per node\n\
         DB size (per 100 TPS)  : BRANCH 100 (bf 1, clustered w. TELLER), TELLER 1000 (bf 10),\n\
         \u{20}                        ACCOUNT 10,000,000 (bf 10), HISTORY (bf 20)\n\
         path length            : {} instructions per transaction\n\
         lock mode              : page locks for BRANCH/TELLER, ACCOUNT; no locks for HISTORY\n\
         CPU capacity           : {} processors x {} MIPS per node\n\
         DB buffer size         : 200 (1000) pages per node\n\
         GEM                    : {} server; {} us/page, {} us/entry\n\
         communication          : {} MB/s; {}/{} instr per send or receive (short/long)\n\
         I/O overhead           : {} instr per page (GEM: {})\n\
         disk access time       : {} ms DB disks, {} ms log disks\n\
         other I/O delays       : controller {} ms, transfer {} ms per page\n",
        cfg.arrival_tps_per_node,
        cfg.cpu.bot_instr + cfg.cpu.eot_instr + 4.0 * cfg.cpu.per_access_instr,
        cfg.cpu.cpus_per_node,
        cfg.cpu.mips_per_cpu,
        cfg.gem.servers,
        cfg.gem.page_access_us,
        cfg.gem.entry_access_us,
        cfg.comm.bandwidth_mb_per_s,
        cfg.comm.short_msg_instr,
        cfg.comm.long_msg_instr,
        cfg.disk.io_instr_per_page,
        cfg.gem.io_init_instr,
        cfg.disk.db_disk_ms,
        cfg.disk.log_disk_ms,
        cfg.disk.controller_ms,
        cfg.disk.transfer_ms,
    )
}
