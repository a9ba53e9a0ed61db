//! The worker pool: executes flattened [`Job`]s on plain
//! `std::thread` workers fed from a shared queue.
//!
//! No work-stealing, no dependencies — a `Mutex<VecDeque<_>>` is the
//! queue and an `mpsc` channel carries results back. Each job is a
//! self-contained deterministic simulation, so the pool only has to
//! get *ordering* right: jobs are tagged with their flattened index on
//! the way in and dropped into index-addressed slots on the way out,
//! which makes the returned vector identical for any worker count.

use crate::alloc_track;
use crate::ticker::TickerState;
use dbshare_sim::experiments::RunSpec;
use dbshare_sim::{Observations, Observe, RunReport};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// One independent unit of work: a single simulation run plus enough
/// labelling to route its result back into the right figure and curve.
#[derive(Debug, Clone)]
pub struct Job {
    /// Figure key, e.g. `"fig4.1"`.
    pub figure: String,
    /// Curve label as in the paper's legend.
    pub curve: String,
    /// Swept node count (the x-axis value).
    pub nodes: u16,
    /// The full run description; executing it is the actual work.
    pub spec: RunSpec,
    /// Observation settings for the run. The default (all off) keeps
    /// the execution path identical to an unobserved run.
    pub observe: Observe,
}

/// A completed job: the input [`Job`], the simulator's report, and the
/// host wall-clock the run took.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job that produced this result.
    pub job: Job,
    /// The simulation's full metrics report.
    pub report: RunReport,
    /// Timeline windows and trace events, empty unless the job's
    /// [`Observe`] requested them.
    pub observations: Observations,
    /// Host wall-clock seconds spent executing the job.
    pub wall_secs: f64,
    /// Process peak RSS in MiB sampled right after the job finished
    /// (`None` off Linux). Process-wide high-water mark: an
    /// upper-bound estimate for this job, not an isolated measurement.
    pub peak_rss_mb: Option<f64>,
}

/// Runs `jobs` on `workers` threads and returns the results **in input
/// order**, regardless of completion order or worker count.
///
/// `workers` is clamped to `1..=jobs.len()`. With `progress` set, one
/// line per finished job goes to stderr (stdout is untouched, so
/// captured figure output stays byte-identical to a serial run).
pub fn run_jobs(jobs: Vec<Job>, workers: usize, progress: bool) -> Vec<JobResult> {
    run_jobs_ticked(jobs, workers, progress, None)
}

/// [`run_jobs`] with an optional live-progress registry: when `ticker`
/// is set, each worker registers a [`ProgressGauge`] per job for the
/// sampling thread to read and retires it when the job finishes. The
/// gauge is observer-only, so results stay bit-identical either way.
///
/// [`ProgressGauge`]: dbshare_sim::ProgressGauge
pub fn run_jobs_ticked(
    jobs: Vec<Job>,
    workers: usize,
    progress: bool,
    ticker: Option<&TickerState>,
) -> Vec<JobResult> {
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);
    let queue: Mutex<VecDeque<(usize, Job)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, JobResult)>();

    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                // Pop under the lock, run outside it.
                let next = queue.lock().expect("job queue poisoned").pop_front();
                let Some((index, job)) = next else { break };
                // Jobs run start-to-finish on this thread, so the
                // thread-local allocation counters delimit exactly this
                // job's allocator traffic (zero unless the binary
                // installed `CountingAlloc`).
                let allocs0 = alloc_track::thread_allocs();
                let bytes0 = alloc_track::thread_alloc_bytes();
                let gauge = ticker.map(|t| t.register(format!("{} n={}", job.curve, job.nodes)));
                // The heap high-water mark starts at the live bytes the
                // thread holds now, so it measures this job alone.
                alloc_track::reset_thread_peak();
                let live0 = alloc_track::thread_live_bytes();
                let start = Instant::now();
                let (mut report, observations) =
                    job.spec.execute_instrumented(job.observe, gauge.clone());
                let wall_secs = start.elapsed().as_secs_f64();
                report.profile.peak_heap_bytes = (alloc_track::thread_peak_bytes() - live0) as u64;
                if let (Some(t), Some(gauge)) = (ticker, &gauge) {
                    t.finish(gauge, report.events_processed);
                }
                report.profile.host_allocs = alloc_track::thread_allocs() - allocs0;
                report.profile.host_alloc_bytes = alloc_track::thread_alloc_bytes() - bytes0;
                let result = JobResult {
                    job,
                    report,
                    observations,
                    wall_secs,
                    peak_rss_mb: crate::rss::peak_rss_mb(),
                };
                if tx.send((index, result)).is_err() {
                    break; // receiver gone: nothing left to report to
                }
            });
        }
        // Drop the original sender so `rx` ends once every worker is
        // done, then collect on this thread while the workers run.
        drop(tx);

        let mut slots: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();
        let mut done = 0usize;
        for (index, result) in rx {
            done += 1;
            if progress {
                eprintln!(
                    "[{done}/{total}] {} | {} | n={} ({:.2}s)",
                    result.job.figure, result.job.curve, result.job.nodes, result.wall_secs
                );
            }
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every queued job reports exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_sim::experiments::{DebitCreditRun, RunLength, RunSpec};

    const TINY: RunLength = RunLength {
        warmup: 20,
        measured: 100,
    };

    fn tiny_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let nodes = (i % 3 + 1) as u16;
                Job {
                    figure: "figT".into(),
                    curve: format!("curve{}", i % 2),
                    nodes,
                    spec: RunSpec::DebitCredit(DebitCreditRun::baseline(nodes, TINY)),
                    observe: Observe::default(),
                }
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let jobs = tiny_jobs(7);
        let results = run_jobs(jobs.clone(), 4, false);
        assert_eq!(results.len(), jobs.len());
        for (job, result) in jobs.iter().zip(&results) {
            assert_eq!(result.job.curve, job.curve);
            assert_eq!(result.job.nodes, job.nodes);
            assert_eq!(result.report.nodes, job.nodes);
            assert!(result.wall_secs >= 0.0);
        }
    }

    #[test]
    fn empty_job_list_returns_immediately() {
        assert!(run_jobs(Vec::new(), 8, false).is_empty());
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let results = run_jobs(tiny_jobs(2), 64, false);
        assert_eq!(results.len(), 2);
    }
}
