//! `dbbench run`: the end-to-end metrics, measured with tracing off.
//!
//! One untimed warm-up job runs first, then timed passes over all of
//! the workload's jobs until at least [`MIN_PASSES`] passes are done
//! and `--seconds` have elapsed. Each pass yields one sample of every
//! end-to-end metric; the reported value is the median over passes.
//! Host times are scaled to the nominal host of [`crate::gauge`].

use crate::gauge::Gauge;
use crate::golden;
use crate::workloads::{Built, WorkloadDef, JOBS};
use crate::{Metric, Outcome, Spread};
use dbshare_sim::RunReport;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Timed passes per run, at the least.
pub const MIN_PASSES: usize = 3;

/// Extra set-ups per job and pass, so `setup_s` is a median of many
/// samples where set-up is cheap: at most this many, and only while
/// they take less than [`EXTRA_SETUP_S`] in all.
const EXTRA_SETUPS: usize = 24;
const EXTRA_SETUP_S: f64 = 0.02;

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order. The
/// record also carries `failed_frac`, which `compare` checks on its own
/// (it is 0 on a healthy run, so it cannot take a relative bound), and
/// `host_speed`, the gauge's reading that the times were scaled by.
pub const END_TO_END: [&str; 3] = ["txn_per_s", "setup_s", "peak_rss_mb"];

/// Runs `f`, turning a panic anywhere in the simulator into an `Err`
/// so it counts as a failed job instead of ending the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One executed job.
pub struct JobRun {
    pub report: RunReport,
    /// Host seconds building the workload.
    pub build_s: f64,
    /// Host seconds in `Engine::new`.
    pub engine_new_s: f64,
    /// Host seconds in `Engine::run`.
    pub run_s: f64,
    /// Heap allocations during `Engine::run`.
    pub allocs: u64,
}

/// Builds and runs job `j` untraced, at `measured` transactions.
pub fn execute(def: &WorkloadDef, j: u64, seed: u64, measured: u64) -> Result<JobRun, String> {
    guarded(|| {
        let Built {
            engine,
            build_s,
            engine_new_s,
            ..
        } = def.build(j, seed, measured, |w| w);
        let allocs = dbshare_harness::alloc_track::thread_allocs();
        let t0 = Instant::now();
        let report = engine.run();
        let run_s = t0.elapsed().as_secs_f64();
        JobRun {
            report,
            build_s,
            engine_new_s,
            run_s,
            allocs: dbshare_harness::alloc_track::thread_allocs() - allocs,
        }
    })
}

/// Correctness bookkeeping across every execution of a workload's jobs.
///
/// A job fails if it panics, is truncated, misses its measured-
/// transaction target, or its metric fingerprint differs from the
/// reference for that job and length: the golden value at the default
/// seed and full length, otherwise the fingerprint of the first
/// execution in this process.
pub struct Checker {
    name: &'static str,
    expected: BTreeMap<(u64, u64), String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(def: &'static WorkloadDef, seed: u64) -> Self {
        let expected = (0..JOBS)
            .filter_map(|j| {
                golden::fingerprint(def.name, seed, j).map(|f| ((j, def.measured), f.to_string()))
            })
            .collect();
        Checker {
            name: def.name,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one execution of job `j` at `measured` transactions and
    /// returns its report if every check passed.
    pub fn check<'a, T>(
        &mut self,
        j: u64,
        measured: u64,
        outcome: &'a Result<T, String>,
        report: impl Fn(&T) -> &RunReport,
    ) -> Option<&'a T> {
        self.attempted += 1;
        let problem = match outcome {
            Err(panic) => Some(format!("panicked: {panic}")),
            Ok(run) => self.problem(j, measured, report(run)),
        };
        match problem {
            None => outcome.as_ref().ok(),
            Some(p) => {
                self.failed += 1;
                eprintln!("dbbench: {} job {j} failed: {p}", self.name);
                None
            }
        }
    }

    fn problem(&mut self, j: u64, measured: u64, r: &RunReport) -> Option<String> {
        if r.truncated {
            return Some("truncated by the simulated-time cap".into());
        }
        if r.measured_txns < measured {
            return Some(format!(
                "measured {} of {measured} transactions",
                r.measured_txns
            ));
        }
        let got = r.metric_fingerprint();
        match self.expected.get(&(j, measured)) {
            Some(want) if *want != got => Some(format!("fingerprint {got}, expected {want}")),
            Some(_) => None,
            None => {
                self.expected.insert((j, measured), got);
                None
            }
        }
    }
}

fn report_of(run: &JobRun) -> &RunReport {
    &run.report
}

/// Median set-up time of job `j`: `first` plus repeated builds, each
/// dropped unrun.
fn setup_median(def: &WorkloadDef, j: u64, seed: u64, first: f64) -> f64 {
    let mut samples = vec![first];
    let t0 = Instant::now();
    while samples.len() <= EXTRA_SETUPS && t0.elapsed().as_secs_f64() < EXTRA_SETUP_S {
        let b = def.build(j, seed, def.measured, |w| w);
        samples.push(b.build_s + b.engine_new_s);
    }
    Spread::of(&samples).median
}

/// One timed pass; times are scaled to the nominal host.
#[derive(Default)]
struct Pass {
    arrivals: u64,
    run_s: f64,
    setup_s: f64,
    /// `run_s` as the host took it, unscaled.
    host_run_s: f64,
}

/// Runs the warm-up job and the timed passes of `def`. Each job's host
/// times are scaled by the host speed [`Gauge`] reads just before and
/// after the job (set-up and run together).
pub fn run(def: &'static WorkloadDef, seed: u64, seconds: f64) -> Outcome {
    let mut checker = Checker::new(def, seed);
    let mut gauge = Gauge::new();
    // Untimed: page faults and allocator growth are paid here, once.
    let warm = execute(def, 0, seed, def.measured);
    checker.check(0, def.measured, &warm, report_of);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut pass = Pass::default();
        for j in 0..JOBS {
            let before = gauge.speed();
            let outcome = execute(def, j, seed, def.measured);
            let Some(run) = checker.check(j, def.measured, &outcome, report_of) else {
                continue;
            };
            let setup_s = setup_median(def, j, seed, run.build_s + run.engine_new_s);
            let speed = (before + gauge.speed()) / 2.0;
            pass.arrivals += run.report.profile.arrivals;
            pass.run_s += run.run_s * speed;
            pass.setup_s += setup_s * speed;
            pass.host_run_s += run.run_s;
        }
        passes.push(pass);
    }
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.arrivals as f64 / p.run_s.max(1e-9))
        .collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let speeds: Vec<f64> = passes
        .iter()
        .map(|p| p.run_s / p.host_run_s.max(1e-9))
        .collect();
    let rss = dbshare_harness::rss::peak_rss_mb().unwrap_or(f64::NAN);
    Outcome {
        workload: def.name,
        seed,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            Metric::spread("txn_per_s", "txn/s", Spread::of(&rates)),
            Metric::spread("setup_s", "s", Spread::of(&setups)),
            Metric::new("peak_rss_mb", "MiB", rss),
            Metric::spread("host_speed", "ratio", Spread::of(&speeds)),
            Metric::new(
                "failed_frac",
                "fraction",
                checker.failed as f64 / checker.attempted as f64,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, WORKLOADS};

    fn itself(r: &RunReport) -> &RunReport {
        r
    }

    fn report(measured_txns: u64, mean_response_ms: f64) -> Result<RunReport, String> {
        Ok(RunReport {
            measured_txns,
            mean_response_ms,
            ..RunReport::default()
        })
    }

    #[test]
    fn checker_fails_short_truncated_panicked_and_drifting_jobs() {
        let mut c = Checker::new(&WORKLOADS[0], 9);
        assert!(c.check(0, 100, &report(100, 1.0), itself).is_some());
        assert!(c.check(0, 100, &report(100, 1.0), itself).is_some());
        assert!(
            c.check(0, 100, &report(100, 1.5), itself).is_none(),
            "fingerprint drift"
        );
        assert!(
            c.check(1, 100, &report(99, 1.0), itself).is_none(),
            "target missed"
        );
        let truncated = Ok(RunReport {
            truncated: true,
            measured_txns: 100,
            ..RunReport::default()
        });
        assert!(c.check(2, 100, &truncated, itself).is_none());
        assert!(c.check(3, 100, &Err("boom".into()), itself).is_none());
        assert_eq!((c.attempted, c.failed), (6, 4));
    }

    #[test]
    fn default_seed_pins_every_full_length_job() {
        for def in &WORKLOADS {
            let mut c = Checker::new(def, DEFAULT_SEED);
            let stale = report(def.measured, 1.0);
            for j in 0..JOBS {
                assert!(
                    c.check(j, def.measured, &stale, itself).is_none(),
                    "{}",
                    def.name
                );
            }
        }
    }
}
