//! Parallel experiment orchestration for the reproduction.
//!
//! Each figure in the paper is a *sweep*: a handful of curves, each a
//! vector of `(nodes, RunSpec)` points. Every point is an independent,
//! fully deterministic single-threaded simulation, so parallelism
//! belongs *around* the engine, not inside it. This crate:
//!
//! 1. flattens sweeps into a flat list of [`Job`]s,
//! 2. executes them on a `std::thread` worker pool ([`pool`]) fed by a
//!    shared `Mutex<VecDeque<_>>` queue, returning the results in
//!    input order for any worker count, and
//! 3. maps each job result, once, to one experiment-store [`Record`]
//!    ([`Outcome::records`]): the row the store appends, the row
//!    `repro --json` writes to its run file in the store's line
//!    format, and the row every view renders from (`repro`'s figure
//!    tables and charts, `--explain`, `--knee`, the gate).
//!
//! ```no_run
//! use dbshare_harness::{Harness, Sweep};
//! use dbshare_sim::experiments::{fig41_grid, RunLength};
//!
//! let sweeps = vec![Sweep {
//!     figure: "fig4.1".into(),
//!     grid: fig41_grid(&[1, 2, 4], RunLength::quick()),
//! }];
//! let outcome = Harness::new().run(sweeps);
//! let first_curve = &outcome.records[0].curve;
//! ```

pub mod alloc_track;
pub mod knee;
pub mod pool;
pub mod rss;
pub mod ticker;

pub use alloc_track::CountingAlloc;
pub use knee::{run_knee, KneeOutcome};
pub use ticker::Ticker;
// The JSON value moved into the experiment store crate (the store is
// the lowest persistence layer now); re-exported here so harness users
// keep their `dbshare_harness::{json, Json}` paths.
pub use dbshare_expstore::json::{self, Json};
use dbshare_expstore::{fnv1a_hex, JobDetail, Waits};
pub use dbshare_expstore::{Provenance, Record, Store};
pub use pool::{run_jobs, Job, JobResult};

pub use dbshare_sim::{Observations, Observe, TimelineWindow};

use dbshare_sim::experiments::{CurveGrid, RunSpec};
use dbshare_sim::RunReport;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One figure's worth of pending runs: a figure key plus the grid the
/// `sim::experiments::*_grid` presets produce.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Figure key, e.g. `"fig4.1"` — labels jobs and their rows.
    pub figure: String,
    /// The figure's curves as pending `(nodes, spec)` points.
    pub grid: Vec<CurveGrid>,
}

/// Everything a harness run produced: the per-job results and their
/// store rows, both in flattened input order (sweep by sweep, curve by
/// curve, point by point), and run-wide bookkeeping.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-job results in flattened input order.
    pub results: Vec<JobResult>,
    /// One experiment-store row per job, in the order of `results`,
    /// stamped with this run's id and the harness's provenance. A
    /// figure's curves are its runs of consecutive rows with one
    /// curve label.
    pub records: Vec<Record>,
    /// Wall-clock seconds for the whole pool run.
    pub total_wall_secs: f64,
    /// Opaque id grouping this run's rows in the experiment store
    /// (unique per run within a machine: timestamp, pid, sequence).
    pub run_id: String,
}

/// A 64-bit FNV-1a hash of the spec's full `Debug` rendering, as
/// 16 hex digits. Two jobs share a fingerprint iff their complete
/// configuration (every parameter, including seed and run length) is
/// identical — cheap to compare across run files and store rows.
pub fn fingerprint(spec: &RunSpec) -> String {
    fnv1a_hex(&format!("{spec:?}"))
}

/// A job's experiment-store row, stamped with its run's id, start time,
/// host CPU count and build provenance. This is the only place a job
/// result is mapped to row fields; [`Harness::run`] calls it once per
/// job.
fn record(
    res: &JobResult,
    run: &str,
    created_unix: u64,
    host_cpus: u32,
    provenance: &Provenance,
) -> Record {
    let r = &res.report;
    Record {
        run: run.to_string(),
        created_unix,
        provenance: provenance.clone(),
        figure: res.job.figure.clone(),
        curve: res.job.curve.clone(),
        nodes: res.job.nodes,
        seed: res.job.spec.seed(),
        host_cpus,
        config_fingerprint: fingerprint(&res.job.spec),
        metric_fingerprint: r.metric_fingerprint(),
        wall_secs: res.wall_secs,
        events_processed: r.events_processed,
        allocs_per_event: r.profile.allocs_per_event(),
        mean_response_ms: r.mean_response_ms,
        throughput_tps: r.throughput_tps,
        peak_rss_mb: res.peak_rss_mb,
        resources: resources(r),
        waits: Waits {
            input_ms: r.input_wait_ms,
            lock_ms: r.lock_wait_ms,
            io_ms: r.io_wait_ms,
            cpu_wait_ms: r.cpu_wait_ms,
            cpu_service_ms: r.cpu_service_ms,
        },
        detail: JobDetail {
            host_allocs: r.profile.host_allocs,
            host_alloc_bytes: r.profile.host_alloc_bytes,
            peak_heap_bytes: r.profile.peak_heap_bytes,
            sim_seconds: r.sim_seconds,
            measured_txns: r.measured_txns,
            norm_response_ms: r.norm_response_ms,
            tps_per_node_at_80pct_cpu: r.tps_per_node_at_80pct_cpu,
            cpu_utilization: r.cpu_utilization,
        },
    }
}

/// The run's resources in the record's fixed order — cpu, gem,
/// lock-engine, network, `disk:<group>`..., log — with their
/// utilizations. Every protocol reports these, so the attribution
/// applies unchanged to any coupling mode.
fn resources(r: &RunReport) -> Vec<(String, f64)> {
    // The *hottest* node's CPU, not the mean: the first node to
    // saturate gates the system even while the average looks safe.
    let mut out: Vec<(String, f64)> = [
        ("cpu", r.cpu_utilization_max),
        ("gem", r.gem_utilization),
        ("lock-engine", r.lock_engine_utilization),
        ("network", r.network_utilization),
    ]
    .map(|(name, util)| (name.to_string(), util))
    .into();
    out.extend(
        r.disk_utilizations
            .iter()
            .map(|(name, util)| (format!("disk:{name}"), *util)),
    );
    out.push(("log".to_string(), r.log_utilization_max));
    out
}

/// The orchestrator: worker count, progress reporting, the provenance
/// stamped on every row, and persistence policy.
#[derive(Debug, Clone)]
pub struct Harness {
    workers: usize,
    progress: bool,
    observe: Observe,
    provenance: Provenance,
    history: Option<PathBuf>,
    ticker: Option<std::time::Duration>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness using every available core, no progress output, the
    /// default (unknown) provenance, and no persistence.
    pub fn new() -> Self {
        Harness {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            progress: false,
            observe: Observe::default(),
            provenance: Provenance::default(),
            history: None,
            ticker: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Enables per-job progress lines on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Sets the observation settings every job runs with. The default
    /// (all off) leaves the execution path identical to an unobserved
    /// run; results carry the collected [`Observations`] per job.
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Enables the live progress ticker: one stderr line every
    /// `every`, sampled by a dedicated thread from observer-only
    /// gauges ([`ticker`]). Results stay bit-identical — the ticker
    /// never writes into a simulation and prints nothing to stdout.
    pub fn ticker(mut self, every: std::time::Duration) -> Self {
        self.ticker = Some(every);
        self
    }

    /// Sets the build provenance every row of [`Outcome::records`] is
    /// stamped with.
    pub fn provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Persists every run to the experiment store: after each grid
    /// run, the run's [`Outcome::records`] are appended to the store
    /// file at `path` (conventionally `exphistory/history.jsonl`). A
    /// failed append warns on stderr rather than discarding a
    /// completed run's results.
    pub fn history(mut self, path: PathBuf) -> Self {
        self.history = Some(path);
        self
    }

    /// Flattens `sweeps` into jobs (sweep by sweep, curve by curve,
    /// point by point), runs them on the pool, and maps each result to
    /// its store row. Results and rows come back in that flattened
    /// order for any worker count.
    pub fn run(&self, sweeps: Vec<Sweep>) -> Outcome {
        let mut jobs = Vec::new();
        for sweep in sweeps {
            for curve in sweep.grid {
                for (nodes, spec) in curve.points {
                    jobs.push(Job {
                        figure: sweep.figure.clone(),
                        curve: curve.label.clone(),
                        nodes,
                        spec,
                        observe: self.observe,
                    });
                }
            }
        }

        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let started = Instant::now();
        let ticker = self.ticker.map(|every| Ticker::spawn(every, jobs.len()));
        let results = run_jobs(
            jobs,
            self.workers,
            self.progress,
            ticker.as_ref().map(|t| t.state().as_ref()),
        );
        drop(ticker); // stop and join the sampler before reporting
        let total_wall_secs = started.elapsed().as_secs_f64();

        // Run ids only need to be unique per machine: timestamp for
        // humans, pid + process-wide sequence for uniqueness when runs
        // share a second (back-to-back invocations, test suites).
        static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
        let run_id = format!(
            "r{created_unix}-{}-{}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        );

        let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get()) as u32;
        let records = results
            .iter()
            .map(|res| record(res, &run_id, created_unix, host_cpus, &self.provenance))
            .collect();
        let outcome = Outcome {
            results,
            records,
            total_wall_secs,
            run_id,
        };

        if let Some(path) = &self.history {
            // Append after every grid run. Warnings go to stderr so
            // stdout stays byte-identical for any harness settings.
            match Store::new(path).append(&outcome.records) {
                Ok(None) => {}
                Ok(Some(recovery)) => {
                    eprintln!("history {}: {recovery}", path.display());
                }
                Err(e) => {
                    eprintln!(
                        "history {}: cannot append run ({e}); results not persisted",
                        path.display()
                    );
                }
            }
        }

        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_sim::experiments::{fig41_grid, DebitCreditRun, RunLength};

    const TINY: RunLength = RunLength {
        warmup: 20,
        measured: 100,
    };

    #[test]
    fn outcome_preserves_sweep_and_curve_order() {
        let sweeps = vec![
            Sweep {
                figure: "figA".into(),
                grid: fig41_grid(&[1, 2], TINY),
            },
            Sweep {
                figure: "figB".into(),
                grid: fig41_grid(&[1], TINY),
            },
        ];
        let expected: Vec<(String, String, u16)> = sweeps
            .iter()
            .flat_map(|s| {
                s.grid.iter().flat_map(move |c| {
                    c.points
                        .iter()
                        .map(move |&(n, _)| (s.figure.clone(), c.label.clone(), n))
                })
            })
            .collect();
        let outcome = Harness::new().workers(3).run(sweeps);
        let rows: Vec<(String, String, u16)> = outcome
            .records
            .iter()
            .map(|r| (r.figure.clone(), r.curve.clone(), r.nodes))
            .collect();
        assert_eq!(rows, expected);
        let jobs: Vec<(String, String, u16)> = outcome
            .results
            .iter()
            .map(|r| (r.job.figure.clone(), r.job.curve.clone(), r.job.nodes))
            .collect();
        assert_eq!(jobs, expected);
    }

    #[test]
    fn fingerprint_separates_specs_and_is_stable() {
        let a = RunSpec::DebitCredit(DebitCreditRun::baseline(2, TINY));
        let mut changed = DebitCreditRun::baseline(2, TINY);
        changed.seed ^= 1;
        let b = RunSpec::DebitCredit(changed);
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a).len(), 16);
    }
}
