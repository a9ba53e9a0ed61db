//! `dbbench` — how fast the simulator simulates, end to end and per layer.
//!
//! ```text
//! dbbench run     [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! dbbench trace   [--workload NAME|all] [--seed S] [--seconds T] [--out DIR]
//! dbbench compare [--spec BENCHMARK.json] A.json B.json
//! ```
//!
//! `run` measures the end-to-end metrics of each workload with tracing
//! off (`run --trace 1` is `trace`); `trace` runs one traced job per
//! workload and replays its records through each layer's public API
//! for the per-layer metrics. Both print `workload metric value unit`
//! lines, write one JSON record per workload to `DIR/<mode>-<name>.json`
//! (`DIR` defaults to `target/dbbench`), and end their standard output
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! With `--workload all` (the default) every workload runs in a child
//! process of its own, one after another. `compare` checks B's
//! end-to-end medians against A's with the bounds of `BENCHMARK.json`:
//! exit 1 on a regression, 2 on unusable input. See README.md.

mod compare;
mod gauge;
mod golden;
mod layers;
mod passes;
mod replay;
mod workloads;

use dbshare_harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{WorkloadDef, DEFAULT_SEED, WORKLOADS};

// Counts heap allocations per thread for `sim.allocs_per_txn`.
#[global_allocator]
static ALLOC: dbshare_harness::CountingAlloc = dbshare_harness::CountingAlloc;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(xs: &[f64]) -> Spread {
        assert!(!xs.is_empty(), "spread of an empty sample");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |p: f64| {
            let pos = p * (n + 1) as f64;
            let j = pos.floor() as usize;
            if j < 1 {
                v[0]
            } else if j >= n {
                v[n - 1]
            } else {
                v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
            }
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Spread {
            median,
            q1: quantile(0.25),
            q3: quantile(0.75),
            n,
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The per-pass sample behind `value`, for metrics reported as a
    /// median.
    pub spread: Option<Spread>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            spread: None,
        }
    }

    pub fn spread(name: &str, unit: &str, s: Spread) -> Metric {
        Metric {
            value: s.median,
            spread: Some(s),
            ..Metric::new(name, unit, 0.0)
        }
    }
}

/// Everything one workload's run or trace produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The JSON record `compare` reads (one line of an `A.json`).
    pub fn record(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ];
                if let Some(s) = m.spread {
                    fields.extend([
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ]);
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Parses a record written by [`Outcome::record`]; `None` if `json`
    /// is not one.
    pub fn from_record(json: &Json) -> Option<Outcome> {
        let name = json.get("workload")?.as_str()?;
        let workload = WORKLOADS.iter().find(|w| w.name == name)?.name;
        let whole = |key: &str| json.get(key)?.as_f64().map(|x| x as u64);
        let Json::Obj(fields) = json.get("metrics")? else {
            return None;
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit")?.as_str()?;
                Some(Metric::new(name, unit, m.get("value")?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            workload,
            seed: whole("seed")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }

    fn print_lines(&self) {
        for m in &self.metrics {
            let mut line = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
            if let Some(s) = m.spread {
                line.push_str(&format!("  (q1 {}, q3 {}, n {})", s.q1, s.q3, s.n));
            }
            println!("{line}");
        }
    }
}

/// True for the metrics `BENCHMARK.json` names.
fn in_spec(metric: &str) -> bool {
    passes::END_TO_END.contains(&metric) || layers::PER_LAYER.iter().any(|(n, _)| *n == metric)
}

/// The final standard-output line: `correct`, `attempted`, `failed`,
/// and each metric's value and unit (prefixed `workload/` when several
/// workloads ran).
fn summary_line(outcomes: &[Outcome]) -> String {
    let prefix = outcomes.len() > 1;
    let metrics = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().filter(|m| in_spec(&m.name)).map(move |m| {
                let name = if prefix {
                    format!("{}/{}", o.workload, m.name)
                } else {
                    m.name.clone()
                };
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
        })
        .collect();
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    // Written by hand so the counts render as JSON integers.
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && attempted > 0,
        Json::Obj(metrics).render_line()
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("dbbench: error: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "usage: dbbench run|trace [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]\n       dbbench compare [--spec BENCHMARK.json] A.json B.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

struct Opts {
    mode: Mode,
    /// `None` = every workload.
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_opts(mode: Mode, args: &[String]) -> Opts {
    let mut opts = Opts {
        mode,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        out: PathBuf::from("target/dbbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value\n{USAGE}")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                opts.workload = match v.as_str() {
                    "all" => None,
                    name => Some(workloads::find(name).unwrap_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        fail(&format!(
                            "unknown workload {name:?} (one of {names:?} or all)"
                        ))
                    })),
                };
            }
            "--seed" => {
                let v = value();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--seed takes an integer, got {v:?}")));
            }
            "--seconds" => {
                let v = value();
                opts.seconds = match v.parse::<f64>() {
                    Ok(s) if (0.0..=3600.0).contains(&s) => s,
                    _ => fail(&format!("--seconds takes 0..=3600, got {v:?}")),
                };
            }
            "--trace" => {
                opts.mode = match value().as_str() {
                    "0" => Mode::Run,
                    "1" => Mode::Trace,
                    v => fail(&format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()),
            other => fail(&format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    opts
}

fn record_path(out: &Path, mode: Mode, workload: &str) -> PathBuf {
    out.join(format!("{}-{workload}.json", mode.name()))
}

/// Runs one workload in this process and writes its record.
fn run_one(opts: &Opts, def: &'static WorkloadDef) -> Outcome {
    let outcome = match opts.mode {
        Mode::Run => passes::run(def, opts.seed, opts.seconds),
        Mode::Trace => layers::trace(def, opts.seed, opts.seconds, &opts.out),
    };
    let path = record_path(&opts.out, opts.mode, def.name);
    if let Err(e) = std::fs::write(&path, outcome.record().render_line() + "\n") {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    outcome
}

/// Runs `def` in a child process and reads back the record it wrote.
/// A child that dies without a record counts as one failed attempt.
fn run_child(opts: &Opts, def: &'static WorkloadDef) -> Outcome {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("cannot locate self: {e}")));
    let path = record_path(&opts.out, opts.mode, def.name);
    let _ = std::fs::remove_file(&path);
    let output = Command::new(exe)
        .arg(opts.mode.name())
        .args(["--workload", def.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out)
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| fail(&format!("cannot start a child for {}: {e}", def.name)));
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the child's own summary line.
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop();
    for line in lines {
        println!("{line}");
    }
    let record = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(text.trim()).ok())
        .and_then(|json| Outcome::from_record(&json));
    match record {
        Some(o) if output.status.success() => o,
        _ => {
            eprintln!("dbbench: {} child failed ({})", def.name, output.status);
            Outcome {
                workload: def.name,
                seed: opts.seed,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        fail(USAGE);
    };
    let mode = match command.as_str() {
        "run" => Mode::Run,
        "trace" => Mode::Trace,
        "compare" => std::process::exit(compare::main(rest)),
        other => fail(&format!("unknown command {other:?}\n{USAGE}")),
    };
    let opts = parse_opts(mode, rest);
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        fail(&format!("cannot create {}: {e}", opts.out.display()));
    }
    let outcomes: Vec<Outcome> = match opts.workload {
        Some(def) => vec![run_one(&opts, def)],
        None => WORKLOADS.iter().map(|def| run_child(&opts, def)).collect(),
    };
    for o in &outcomes {
        if opts.workload.is_some() {
            o.print_lines();
        }
    }
    println!("{}", summary_line(&outcomes));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed benchmark definition at the repository root.
    pub const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(list: &Json, key: &str) -> Vec<(String, String)> {
        list.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let spec = Json::parse(SPEC).unwrap();
        let workloads: Vec<String> = names(&spec, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<String> = names(&spec, "end_to_end")
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(e2e, passes::END_TO_END);
        let per_layer = names(&spec, "per_layer");
        let ours: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, ours);
        let bounds = compare::parse_spec(SPEC).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap().bound;
        assert!(bounds
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= setup && setup <= 0.25));
    }

    #[test]
    fn spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn records_round_trip() {
        let o = Outcome {
            workload: "dc-gem-force",
            seed: 3,
            attempted: 13,
            failed: 1,
            metrics: vec![
                Metric::spread("txn_per_s", "txn/s", Spread::of(&[1.5, 2.5, 3.5])),
                Metric::new("peak_rss_mb", "MiB", 12.25),
            ],
        };
        let back = Outcome::from_record(&Json::parse(&o.record().render_line()).unwrap()).unwrap();
        assert_eq!(back.metrics[0].value, 2.5);
        assert_eq!((back.seed, back.attempted, back.failed), (3, 13, 1));
        assert_eq!(back.metrics[1], o.metrics[1]);
    }

    #[test]
    fn summary_line_has_integer_counts_and_no_failed_frac() {
        let o = Outcome {
            workload: "scale-64",
            seed: 1,
            attempted: 13,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.5),
                Metric::new("failed_frac", "fraction", 0.0),
            ],
        };
        let line = summary_line(std::slice::from_ref(&o));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":13,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
