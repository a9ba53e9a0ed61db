//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--jobs N] [--json PATH] [--nodes 1,2,5,10]
//!       [--csv DIR] [--svg DIR] [--trace DIR] [--timeline DIR]
//!       [--profile] [--history [DIR]] [--report [PATH]] [--no-history] [-v]
//!       [--scale smoke|full] [--explain [PATH]] [--knee smoke|full]
//!       [--ticker [SECS]]
//!       [table41|fig41|fig42|fig43|fig44|fig45|fig46|fig47|lockengine|all]
//! ```
//!
//! Each figure prints one row per curve and one column per node count
//! with the figure's metric (mean response time in ms; TPS/node at 80%
//! CPU for Fig. 4.6; normalized response for Fig. 4.7). All selected
//! figures are flattened into independent jobs and executed on the
//! `dbshare-harness` worker pool (`--jobs N`, default: all cores);
//! every run is deterministic, so the printed tables are byte-identical
//! for any worker count. Each job is one serial event loop on one
//! thread. Progress goes to stderr; a per-job artifact, one
//! experiment-store record per job with wall-clocks, seeds, and
//! headline metrics, is written to `BENCH_repro.json` (`--json PATH`
//! to relocate). `--verbose`
//! additionally prints the full per-run reports; `--csv DIR` writes
//! every report field per figure; `--svg DIR` draws each figure.
//! `--profile` prints the run's host cost to stderr — stdout stays
//! byte-identical with or without the flag: the engine's always-on
//! event-loop counters (per-event-type and per-subsystem, aggregated
//! per figure and for the whole suite, with events/s of host
//! wall-clock), then the per-figure and suite allocs/event and the
//! largest per-job peak heap.
//!
//! The binary installs a counting global allocator (thread-local
//! counters updated on every allocation and free), so every artifact
//! records per-job `host_allocs` / `allocs_per_event` and the job's
//! `peak_heap_bytes`.
//!
//! Every run is also appended to the experiment store — one JSON line
//! per job under `exphistory/history.jsonl` (`--history DIR` to
//! relocate, `--no-history` to skip) — with config and metric
//! fingerprints, build provenance, and host cost. `--history` prints
//! per-figure trend tables over every recorded run to stderr,
//! including the delta against the best prior run of the identical
//! job set; `--report [PATH]` renders the same store as an HTML page
//! (default `<store dir>/report.html`). The separate `perfgate`
//! binary turns the store into a CI regression gate.
//!
//! `--timeline DIR` turns on the simulator's timeline sampler and
//! writes one CSV per figure (`<fig>_timeline.csv`: windowed
//! throughput, response components, occupancy, and utilizations per
//! curve point). `--trace DIR` turns on structured tracing and writes
//! one Perfetto-loadable Chrome trace-event JSON per curve point
//! (`<fig>_<curve>_n<N>.trace.json`); traces record every event, so
//! pair the flag with `--quick`, one figure, and a short `--nodes`
//! list. Both outputs are stamped with simulated time only and are
//! byte-identical across repeated runs and any `--jobs` value; with
//! neither flag the engine runs the exact unobserved path, leaving
//! stdout and the allocation profile untouched.
//!
//! `--scale smoke|full` adds the memory-lean large-system scenario
//! family: `full` sweeps 50–200 nodes against a fixed million-account
//! database (the 200-node endpoint processes on the order of 10^8
//! calendar events), `smoke` is the CI-sized miniature (≤64 nodes,
//! 100k accounts). The scale presets carry their own node axes and run
//! lengths, so `--nodes` and `--quick` do not affect them. Without a
//! figure selector, `--scale` runs only the scale sweep (figures can
//! still be requested alongside). Every scale job records its peak-RSS
//! estimate in the artifact and the experiment store.
//!
//! `--explain` attributes every selected figure after the run: a
//! per-point table naming the *binding constraint* (the most-utilized
//! resource), the runner-up, and the queue-wait shares of mean
//! response time, plus a knee verdict per curve — printed to stderr
//! and written as a JSON sidecar (`BENCH_explain.json`, or the given
//! path). Both render from the run's store records, whose fields are
//! deterministic, so the table and sidecar are byte-identical across
//! `--jobs`.
//! `--knee smoke|full` answers the knee question directly: instead of
//! the fixed `--scale` grid it bisects the node axis per curve —
//! hi endpoint first (one job if the curve never saturates), then lo,
//! then midpoints until the bracket narrows to a quarter of the span.
//! Probes run through the ordinary job pool, are recorded in the
//! experiment store under `knee-smoke`/`knee-full`, and fingerprint-
//! match the fixed grid's rows at the same node counts. `--ticker
//! [SECS]` (default 2) prints a live stderr line per interval — jobs
//! done/running, aggregate events/s, simulated time, ETA, and peak
//! RSS — sampled from observer-only gauges that leave every result
//! bit-identical.

use dbshare_bench::chart::Chart;
use dbshare_bench::html_report;
use dbshare_bench::trace_export::{self, TimelineRows};
use dbshare_expstore::{explain, figure_runs, short_rev, FigureRun};
use dbshare_harness::{
    rss, run_knee, write_artifact, CountingAlloc, Harness, Json, Observe, Outcome, Provenance,
    Store, Sweep,
};
use dbshare_sim::experiments::{self, CurveGrid, RunLength, ScalePreset, Series};
use dbshare_sim::{RunProfile, RunReport};
use std::path::{Path, PathBuf};

/// Count every heap allocation the reproduction performs, so
/// `--profile` can report per-job allocator traffic and peak heap,
/// and the artifact can pin allocs/event. Counting is a few
/// thread-local updates per allocation and free — cheap enough to
/// leave always on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Which metric a figure plots.
#[derive(Clone, Copy)]
enum Metric {
    MeanResponse,
    TpsAt80,
    NormResponse,
}

impl Metric {
    fn label(self) -> &'static str {
        match self {
            Metric::MeanResponse => "mean response time [ms]",
            Metric::TpsAt80 => "TPS per node at 80% CPU",
            Metric::NormResponse => "normalized response time [ms]",
        }
    }
    fn of(self, r: &RunReport) -> f64 {
        match self {
            Metric::MeanResponse => r.mean_response_ms,
            Metric::TpsAt80 => r.tps_per_node_at_80pct_cpu,
            Metric::NormResponse => r.norm_response_ms,
        }
    }
}

/// One reproducible figure: its id, title, metric, node list, and the
/// preset that lays out its job grid.
struct Figure {
    name: &'static str,
    title: &'static str,
    metric: Metric,
    trace_nodes: bool,
    grid: fn(&[u16], RunLength) -> Vec<CurveGrid>,
}

// Adapters so the scale presets (which carry their own node axes and
// run lengths) fit the common `Figure::grid` signature.
fn scale_smoke_adapter(_nodes: &[u16], _run: RunLength) -> Vec<CurveGrid> {
    ScalePreset::SMOKE.grid()
}
fn scale_full_adapter(_nodes: &[u16], _run: RunLength) -> Vec<CurveGrid> {
    ScalePreset::FULL.grid()
}

/// The `--scale` scenario family: selected by flag, never by `all`
/// (the full sweep is deliberately expensive).
const SCALE_SMOKE: Figure = Figure {
    name: "scale-smoke",
    title: "Scale smoke  16-64 nodes, 100k accounts (memory-lean presets)",
    metric: Metric::MeanResponse,
    trace_nodes: false,
    grid: scale_smoke_adapter,
};
const SCALE_FULL: Figure = Figure {
    name: "scale-full",
    title: "Scale  50-200 nodes, 1M accounts (memory-lean presets)",
    metric: Metric::MeanResponse,
    trace_nodes: false,
    grid: scale_full_adapter,
};

const FIGURES: &[Figure] = &[
    Figure {
        name: "fig41",
        title: "Fig. 4.1  GEM locking: workload allocation x update strategy (buffer 200)",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::fig41_grid,
    },
    Figure {
        name: "fig42",
        title: "Fig. 4.2  buffer size 200 vs 1000 (random routing, GEM locking)",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::fig42_grid,
    },
    Figure {
        name: "fig43",
        title: "Fig. 4.3  BRANCH/TELLER allocation disk vs GEM (buffer 1000)",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::fig43_grid,
    },
    Figure {
        name: "fig44",
        title: "Fig. 4.4  disk caches for BRANCH/TELLER (FORCE, buffer 1000)",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::fig44_grid,
    },
    Figure {
        name: "fig45",
        title: "Fig. 4.5  PCL vs GEM locking",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::fig45_grid,
    },
    Figure {
        name: "fig46",
        title: "Fig. 4.6  throughput per node at 80% CPU utilization (buffer 1000)",
        metric: Metric::TpsAt80,
        trace_nodes: false,
        grid: experiments::fig46_grid,
    },
    Figure {
        name: "lockengine",
        title: "S5   GEM locking vs central lock engine [Yu87] (random routing, buffer 200)",
        metric: Metric::MeanResponse,
        trace_nodes: false,
        grid: experiments::lock_engine_comparison_grid,
    },
    Figure {
        name: "fig47",
        title: "Fig. 4.7  PCL vs GEM locking, real-life (synthetic trace) workload",
        metric: Metric::NormResponse,
        trace_nodes: true,
        grid: experiments::fig47_grid,
    },
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Verifies an output directory is creatable and writable *before* the
/// (possibly long) run: create it and probe-write a scratch file.
/// A bad `--trace`/`--timeline`/`--csv`/`--svg` destination exits 2
/// immediately instead of failing after the simulations finish.
fn ensure_writable_dir(flag: &str, dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("{flag}: cannot create directory {dir:?}: {e}"));
    }
    let probe = Path::new(dir).join(".repro-write-probe");
    if let Err(e) = std::fs::write(&probe, b"") {
        fail(&format!("{flag}: directory {dir:?} is not writable: {e}"));
    }
    let _ = std::fs::remove_file(&probe);
}

fn parse_nodes(s: &str) -> Vec<u16> {
    let nodes: Vec<u16> = s
        .split(',')
        .map(|x| match x.trim().parse::<u16>() {
            Ok(0) => fail("node counts must be >= 1"),
            Ok(n) => n,
            Err(_) => fail(&format!(
                "--nodes takes a comma-separated list of integers, got {x:?}"
            )),
        })
        .collect();
    if nodes.is_empty() {
        fail("--nodes needs at least one node count");
    }
    nodes
}

fn arg_value<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    args.get(i)
        .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

fn print_series(fig: &Figure, series: &[Series]) {
    println!("\n=== {} ===  (metric: {})", fig.title, fig.metric.label());
    // Column axis: the union of node counts across all curves, so no
    // curve's points are silently misaligned if the sweeps differ.
    let mut nodes: Vec<u16> = Vec::new();
    for s in series {
        for n in s.node_counts() {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    nodes.sort_unstable();
    print!("{:<38}", "curve \\ nodes");
    for n in &nodes {
        print!("{n:>9}");
    }
    println!();
    for s in series {
        print!("{:<38}", s.label);
        for n in &nodes {
            match s.at(*n) {
                Some(r) => print!("{:>9.1}", fig.metric.of(r)),
                None => print!("{:>9}", "n/a"),
            }
        }
        println!();
    }
}

fn write_svg(dir: &str, fig: &Figure, series: &[Series]) {
    let mut chart = Chart::new(fig.title, "nodes", fig.metric.label());
    for s in series {
        chart.add_series(
            &s.label,
            s.points
                .iter()
                .map(|(n, r)| (*n as f64, fig.metric.of(r)))
                .collect(),
        );
    }
    let path = format!("{dir}/{}.svg", fig.name);
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chart.render(860, 480)))
    {
        fail(&format!("cannot write {path}: {e}"));
    }
    println!("wrote {path}");
}

fn write_csv(dir: &str, name: &str, series: &[Series]) {
    let mut out = String::from(
        "curve,nodes,mean_response_ms,ci95_ms,p50_ms,p95_ms,norm_response_ms,\
         throughput_tps,tps_per_node_at_80pct_cpu,cpu_utilization,cpu_utilization_max,\
         gem_utilization,lock_engine_utilization,network_utilization,\
         messages_per_txn,page_requests_per_txn,page_req_delay_ms,\
         lock_requests_per_txn,local_lock_fraction,lock_wait_ms,io_wait_ms,\
         invalidations_per_txn,reads_per_txn,writes_per_txn,evict_writes_per_txn,\
         deadlock_aborts,timeout_aborts\n",
    );
    for s in series {
        for (n, r) in &s.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.label.replace(',', ";"),
                n,
                r.mean_response_ms,
                r.response_ci95_ms.unwrap_or(f64::NAN),
                r.p50_response_ms,
                r.p95_response_ms,
                r.norm_response_ms,
                r.throughput_tps,
                r.tps_per_node_at_80pct_cpu,
                r.cpu_utilization,
                r.cpu_utilization_max,
                r.gem_utilization,
                r.lock_engine_utilization,
                r.network_utilization,
                r.messages_per_txn,
                r.page_requests_per_txn,
                r.page_req_delay_ms,
                r.lock_requests_per_txn,
                r.local_lock_fraction.unwrap_or(f64::NAN),
                r.lock_wait_ms,
                r.io_wait_ms,
                r.invalidations_per_txn,
                r.reads_per_txn,
                r.writes_per_txn,
                r.evict_writes_per_txn,
                r.deadlock_aborts,
                r.timeout_aborts,
            ));
        }
    }
    let path = format!("{dir}/{name}.csv");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        fail(&format!("cannot write {path}: {e}"));
    }
    println!("wrote {path}");
}

/// A curve label reduced to a filename-safe slug (`"2 CPUs, FORCE"`
/// becomes `"2-cpus--force"`).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes one figure's timeline windows (every curve point) as a CSV.
fn write_timeline(dir: &str, figure: &str, outcome: &Outcome) {
    let rows: Vec<TimelineRows<'_>> = outcome
        .results
        .iter()
        .filter(|r| r.job.figure == figure)
        .map(|r| TimelineRows {
            curve: &r.job.curve,
            nodes: r.job.nodes,
            windows: &r.observations.timeline,
        })
        .collect();
    let out = trace_export::timeline_csv(&rows);
    let path = format!("{dir}/{figure}_timeline.csv");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        fail(&format!("cannot write {path}: {e}"));
    }
    println!("wrote {path}");
}

/// Writes one Chrome trace-event JSON per curve point of a figure.
fn write_traces(dir: &str, figure: &str, outcome: &Outcome) {
    for r in outcome.results.iter().filter(|r| r.job.figure == figure) {
        let out = trace_export::chrome_trace(&r.observations.trace, r.job.nodes);
        let path = format!(
            "{dir}/{figure}_{}_n{}.trace.json",
            slug(&r.job.curve),
            r.job.nodes
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
            fail(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
}

/// Prints per-figure trend tables over every run the store recorded.
/// Stderr only — wall-clocks differ run to run, and stdout must stay
/// byte-identical with or without the flag.
fn print_history(store_path: &Path, wanted: &[&Figure]) {
    let read = match Store::new(store_path).read() {
        Ok(read) => read,
        Err(e) => {
            eprintln!("history: cannot read {}: {e}", store_path.display());
            return;
        }
    };
    if let Some(recovery) = &read.recovery {
        eprintln!("history {}: {recovery}", store_path.display());
    }
    let rows = figure_runs(&read.records);
    for fig in wanted {
        let fig_rows: Vec<&FigureRun> = rows.iter().filter(|r| r.figure == fig.name).collect();
        if fig_rows.is_empty() {
            continue;
        }
        eprintln!(
            "\n=== history [{}] ({} recorded run(s)) ===",
            fig.name,
            fig_rows.len()
        );
        eprintln!(
            "{:<22}{:<18}{:<14}{:>5}{:>10}{:>9}{:>11}{:>10}{:>8}{:>14}  vs best prior",
            "run",
            "when (UTC)",
            "rev",
            "jobs",
            "events",
            "wall s",
            "events/s",
            "al/ev",
            "rss MB",
            "binding",
        );
        for (i, row) in fig_rows.iter().enumerate() {
            // Baseline: the best *earlier* run of the identical job
            // set, matching the gate's and the HTML report's framing.
            let best_prior = row.best_comparable(fig_rows[..i].iter().copied());
            let delta = match best_prior.map(FigureRun::events_per_sec) {
                None => "-".to_string(),
                Some(best) => format!("{:+.1}%", (row.events_per_sec() / best - 1.0) * 100.0),
            };
            eprintln!(
                "{:<22}{:<18}{:<14}{:>5}{:>10}{:>9.2}{:>11.0}{:>10.4}{:>8}{:>14}  {delta}",
                row.run,
                html_report::utc_datetime(row.created_unix),
                short_rev(&row.git_revision),
                row.jobs,
                row.events,
                row.wall_secs,
                row.events_per_sec(),
                row.allocs_per_event,
                rss::format_mb(row.peak_rss_mb),
                row.binding,
            );
        }
    }
}

/// Renders the store as the HTML report page at `out_path`.
fn write_report(store_path: &Path, out_path: &Path) {
    let read = match Store::new(store_path).read() {
        Ok(read) => read,
        Err(e) => fail(&format!(
            "--report: cannot read {}: {e}",
            store_path.display()
        )),
    };
    if read.records.is_empty() {
        eprintln!(
            "--report: store {} holds no records, skipping",
            store_path.display()
        );
        return;
    }
    let page = html_report::render(&read.records);
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            fail(&format!("cannot create {}: {e}", parent.display()));
        }
    }
    if let Err(e) = std::fs::write(out_path, page) {
        fail(&format!("cannot write {}: {e}", out_path.display()));
    }
    eprintln!("wrote {}", out_path.display());
}

fn print_details(series: &[Series]) {
    for s in series {
        for (n, r) in &s.points {
            println!("[{} N={}]\n{}", s.label, n, r);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = RunLength::full();
    let mut nodes: Option<Vec<u16>> = None;
    let mut which: Vec<String> = Vec::new();
    let mut verbose = false;
    let mut profile = false;
    let mut csv: Option<String> = None;
    let mut svg: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut timeline_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut json_path = String::from("BENCH_repro.json");
    let mut history_dir = String::from("exphistory");
    let mut show_history = false;
    let mut no_history = false;
    let mut report: Option<Option<String>> = None;
    let mut scale: Option<&'static Figure> = None;
    let mut explain_to: Option<String> = None;
    let mut knee: Option<(&'static str, ScalePreset)> = None;
    let mut ticker: Option<std::time::Duration> = None;
    // Known figure selectors, needed during parsing too: `--history`
    // and `--report` take *optional* values, so a selector following
    // them must not be swallowed as the value.
    let known: Vec<&str> = std::iter::once("table41")
        .chain(std::iter::once("all"))
        .chain(FIGURES.iter().map(|f| f.name))
        .collect();
    let optional_value = |args: &[String], i: usize| -> Option<String> {
        args.get(i + 1)
            .filter(|v| !v.starts_with('-') && !known.contains(&v.as_str()))
            .cloned()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => run = RunLength::quick(),
            "--verbose" | "-v" => verbose = true,
            "--profile" => profile = true,
            "--nodes" => {
                i += 1;
                nodes = Some(parse_nodes(arg_value(&args, i, "--nodes")));
            }
            "--jobs" => {
                i += 1;
                let v = arg_value(&args, i, "--jobs");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => fail(&format!("--jobs takes an integer >= 1, got {v:?}")),
                }
            }
            "--json" => {
                i += 1;
                json_path = arg_value(&args, i, "--json").to_string();
            }
            "--csv" => {
                i += 1;
                csv = Some(arg_value(&args, i, "--csv").to_string());
            }
            "--svg" => {
                i += 1;
                svg = Some(arg_value(&args, i, "--svg").to_string());
            }
            "--trace" => {
                i += 1;
                trace_dir = Some(arg_value(&args, i, "--trace").to_string());
            }
            "--timeline" => {
                i += 1;
                timeline_dir = Some(arg_value(&args, i, "--timeline").to_string());
            }
            "--history" => {
                show_history = true;
                if let Some(dir) = optional_value(&args, i) {
                    history_dir = dir;
                    i += 1;
                }
            }
            "--no-history" => no_history = true,
            "--scale" => {
                i += 1;
                scale = Some(match arg_value(&args, i, "--scale") {
                    "smoke" => &SCALE_SMOKE,
                    "full" => &SCALE_FULL,
                    other => fail(&format!("--scale takes smoke or full, got {other:?}")),
                });
            }
            "--report" => {
                if let Some(path) = optional_value(&args, i) {
                    report = Some(Some(path));
                    i += 1;
                } else {
                    report = Some(None);
                }
            }
            "--explain" => {
                explain_to = Some(match optional_value(&args, i) {
                    Some(path) => {
                        i += 1;
                        path
                    }
                    None => "BENCH_explain.json".to_string(),
                });
            }
            "--knee" => {
                i += 1;
                knee = Some(match arg_value(&args, i, "--knee") {
                    "smoke" => ("knee-smoke", ScalePreset::SMOKE),
                    "full" => ("knee-full", ScalePreset::FULL),
                    other => fail(&format!("--knee takes smoke or full, got {other:?}")),
                });
            }
            "--ticker" => {
                let secs = match optional_value(&args, i) {
                    Some(v) => {
                        i += 1;
                        match v.parse::<f64>() {
                            Ok(s) if s > 0.0 && s.is_finite() => s,
                            _ => fail(&format!("--ticker takes seconds > 0, got {v:?}")),
                        }
                    }
                    None => 2.0,
                };
                ticker = Some(std::time::Duration::from_secs_f64(secs));
            }
            other if other.starts_with('-') => fail(&format!(
                "unknown flag {other:?} (try --quick, --jobs, --json, --nodes, --csv, --svg, \
                 --trace, --timeline, --profile, --history, --report, --no-history, \
                 --scale, --explain, --knee, --ticker, -v)"
            )),
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    // `--scale`/`--knee` alone run only their own jobs; figure
    // selectors can still be added alongside them.
    if which.is_empty() && scale.is_none() && knee.is_none() {
        which.push("all".to_string());
    }
    // Reject unknown figure names instead of silently doing nothing.
    for w in &which {
        if !known.contains(&w.as_str()) {
            fail(&format!(
                "unknown figure {w:?}; valid: {}",
                known.join(", ")
            ));
        }
    }
    let all = which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);

    // Probe every export destination before the (possibly long) run:
    // an unwritable --trace/--timeline/--csv/--svg directory exits 2
    // now, not after the run.
    for (flag, dir) in [
        ("--csv", &csv),
        ("--svg", &svg),
        ("--trace", &trace_dir),
        ("--timeline", &timeline_dir),
    ] {
        if let Some(dir) = dir {
            ensure_writable_dir(flag, dir);
        }
    }

    let provenance = Provenance {
        git_revision: env!("REPRO_GIT_REVISION").to_string(),
        rustc_version: env!("REPRO_RUSTC_VERSION").to_string(),
        build_profile: env!("REPRO_BUILD_PROFILE").to_string(),
    };
    let store_path: PathBuf = Path::new(&history_dir).join("history.jsonl");

    let dc_nodes = nodes
        .clone()
        .unwrap_or_else(|| vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    let tr_nodes = nodes.unwrap_or_else(|| vec![1, 2, 4, 6, 8]);

    if want("table41") {
        println!("{}", experiments::table41());
    }

    // Flatten every selected figure into one job list and run the pool
    // once, so late jobs of one figure overlap with early jobs of the
    // next. Each run is deterministic and results are reassembled in
    // input order, so stdout is byte-identical for any --jobs value.
    let mut wanted: Vec<&Figure> = FIGURES.iter().filter(|f| want(f.name)).collect();
    if let Some(scale_fig) = scale {
        wanted.push(scale_fig);
    }
    let sweeps: Vec<Sweep> = wanted
        .iter()
        .map(|fig| Sweep {
            figure: fig.name.to_string(),
            grid: (fig.grid)(
                if fig.trace_nodes {
                    &tr_nodes
                } else {
                    &dc_nodes
                },
                run,
            ),
        })
        .collect();
    // Observation stays all-off unless asked for, keeping the engine on
    // the exact unobserved execution path (and stdout byte-identical).
    let observe = Observe {
        timeline_every: timeline_dir.as_ref().map(|_| Observe::DEFAULT_WINDOW),
        trace: trace_dir.is_some(),
    };
    let mut harness = Harness::new()
        .progress(true)
        .observe(observe)
        .provenance(provenance.clone());
    if let Some(n) = jobs {
        harness = harness.workers(n);
    }
    if !no_history {
        harness = harness.history(store_path.clone());
    }
    if let Some(every) = ticker {
        harness = harness.ticker(every);
    }
    let outcome: Outcome = harness.run(sweeps);

    for fig in &wanted {
        let series = outcome
            .series_for(fig.name)
            .expect("harness returns every submitted figure");
        print_series(fig, series);
        if let Some(dir) = &csv {
            write_csv(dir, fig.name, series);
        }
        if let Some(dir) = &svg {
            write_svg(dir, fig, series);
        }
        if let Some(dir) = &timeline_dir {
            write_timeline(dir, fig.name, &outcome);
        }
        if let Some(dir) = &trace_dir {
            write_traces(dir, fig.name, &outcome);
        }
        if verbose {
            print_details(series);
        }
    }

    // The knee bisection runs its probes one at a time through the
    // same harness (history appends and the ticker apply per probe).
    if let Some((knee_figure, preset)) = &knee {
        println!(
            "\n=== knee [{knee_figure}] (saturation threshold {:.0}%) ===",
            explain::SATURATION_THRESHOLD * 100.0
        );
        let knee_outcome = run_knee(&harness, knee_figure, preset, explain::SATURATION_THRESHOLD);
        print!("{}", knee_outcome.render());
    }

    // Attribution: rendered from the run's (deterministic) records, so
    // the stderr table and the sidecar are byte-identical across
    // --jobs.
    if let Some(sidecar_path) = &explain_to {
        let explains: Vec<explain::FigureExplain> = wanted
            .iter()
            .map(|fig| {
                explain::explain_figure(fig.name, &outcome.records, explain::SATURATION_THRESHOLD)
            })
            .collect();
        for fe in &explains {
            eprint!("\n{}", fe.render());
        }
        if let Err(e) = std::fs::write(sidecar_path, explain::sidecar_json(&explains)) {
            fail(&format!("--explain: cannot write {sidecar_path}: {e}"));
        }
        eprintln!("wrote {sidecar_path}");
    }

    if profile && !outcome.results.is_empty() {
        // Stderr only: stdout must stay byte-identical with or without
        // the flag (the repro tables are diffed against golden output).
        let mut suite = RunProfile::default();
        for fig in &wanted {
            let mut agg = RunProfile::default();
            let mut events = 0u64;
            let mut wall = 0.0f64;
            for res in outcome.results.iter().filter(|r| r.job.figure == fig.name) {
                agg.merge(&res.report.profile);
                events += res.report.events_processed;
                wall += res.wall_secs;
            }
            suite.merge(&agg);
            eprintln!(
                "profile [{}]: {:.0} events/s over {:.2}s job wall",
                fig.name,
                events as f64 / wall.max(1e-9),
                wall
            );
            eprintln!("{agg}");
        }
        let total_events: u64 = outcome
            .results
            .iter()
            .map(|r| r.report.events_processed)
            .sum();
        eprintln!(
            "profile [suite]: {:.0} events/s over {:.2}s pool wall ({} events, {} jobs)",
            total_events as f64 / outcome.total_wall_secs.max(1e-9),
            outcome.total_wall_secs,
            total_events,
            outcome.results.len()
        );
        eprintln!("{suite}");

        // The allocation lines: the store's per-figure aggregates of
        // this run's records, the same fold --history prints.
        let line = |name: &str, allocs: u64, events: u64, wall_secs: f64, peak: u64| {
            eprintln!(
                "alloc [{name}]: {:.4} allocs/event ({allocs} allocs, {events} events, \
                 {wall_secs:.2}s job wall), peak heap {peak} bytes",
                allocs as f64 / (events.max(1)) as f64,
            );
        };
        let (mut allocs, mut events, mut wall_secs, mut peak) = (0, 0, 0.0, 0);
        for row in figure_runs(&outcome.records) {
            line(
                &row.figure,
                row.host_allocs,
                row.events,
                row.wall_secs,
                row.peak_heap_bytes,
            );
            allocs += row.host_allocs;
            events += row.events;
            wall_secs += row.wall_secs;
            peak = peak.max(row.peak_heap_bytes);
        }
        line("suite", allocs, events, wall_secs, peak);
    }

    if !outcome.results.is_empty() {
        // Stamp the artifact with build/run provenance (captured by the
        // crate's build script) so a saved BENCH_repro.json records
        // exactly which build and command produced it.
        let mut doc = outcome.artifact();
        doc.set(
            "provenance",
            Json::obj(vec![
                ("git_revision", Json::Str(provenance.git_revision.clone())),
                ("rustc_version", Json::Str(provenance.rustc_version.clone())),
                ("build_profile", Json::Str(provenance.build_profile.clone())),
                (
                    "command_line",
                    Json::Str(
                        std::iter::once("repro".to_string())
                            .chain(args.iter().cloned())
                            .collect::<Vec<_>>()
                            .join(" "),
                    ),
                ),
            ]),
        );
        if let Err(e) = write_artifact(Path::new(&json_path), &doc) {
            fail(&format!("cannot write {json_path}: {e}"));
        }
        eprintln!(
            "wrote {json_path} ({} jobs, {} workers, {:.2}s wall)",
            outcome.results.len(),
            outcome.workers,
            outcome.total_wall_secs
        );
    }

    // Trend tables and the HTML report read the store *after* this
    // run's append, so the freshly recorded run is included.
    if show_history {
        print_history(&store_path, &wanted);
    }
    if let Some(report_path) = &report {
        let out_path = report_path
            .clone()
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(&history_dir).join("report.html"));
        write_report(&store_path, &out_path);
    }
}
