//! `dbbench compare [--spec BENCHMARK.json] A.json B.json`.
//!
//! A and B each hold one or more `run` records (JSON lines, e.g. the
//! concatenated `run-*.json` of several runs). For every workload of A
//! and every end-to-end metric of the spec, B's median is checked
//! against A's median with the metric's direction and bound. The failed
//! fraction is pooled over all records of a side, and any increase is a
//! regression. `setup_s` may also worsen by up to [`SETUP_FLOOR_S`]
//! whatever its relative bound: debit-credit set-up takes tens of
//! microseconds, where a relative bound only measures host noise.
//! Exit 0: no regression; 1: a regression; 2: unusable input (missing
//! or malformed files, a workload or metric absent).

use crate::{Outcome, Spread};
use dbshare_harness::json::Json;
use std::collections::BTreeSet;

/// Absolute worsening of `setup_s`, in seconds, that is never a
/// regression.
pub const SETUP_FLOOR_S: f64 = 0.01;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// One checked (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub regressed: bool,
}

/// Reads the end-to-end metrics and their bounds from a benchmark spec.
pub fn parse_spec(text: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(text).map_err(|e| format!("spec: {e}"))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("spec: metric without a name")?;
            let higher_is_better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("spec: {name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| (0.0..1.0).contains(b))
                .ok_or_else(|| format!("spec: {name}: bound must be in [0, 1)"))?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// Parses a file of `run` records, one JSON object per line.
pub fn parse_records(text: &str) -> Result<Vec<Outcome>, String> {
    let records: Vec<Outcome> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            Json::parse(line)
                .ok()
                .and_then(|j| Outcome::from_record(&j))
                .ok_or_else(|| format!("line {}: not a dbbench record", i + 1))
        })
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err("no records".into());
    }
    Ok(records)
}

fn median_of(records: &[&Outcome], metric: &str) -> Result<f64, String> {
    let values = records
        .iter()
        .map(|o| {
            o.metrics
                .iter()
                .find(|m| m.name == metric && m.value.is_finite())
                .map(|m| m.value)
                .ok_or_else(|| format!("{}: a record lacks {metric}", o.workload))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Spread::of(&values).median)
}

fn failed_frac(records: &[&Outcome]) -> f64 {
    let attempted: u64 = records.iter().map(|o| o.attempted).sum();
    let failed: u64 = records.iter().map(|o| o.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Checks B against A; `Err` means the input cannot be compared.
pub fn compare(spec: &[Bound], a: &[Outcome], b: &[Outcome]) -> Result<Vec<Row>, String> {
    let workloads: BTreeSet<&'static str> = a.iter().map(|o| o.workload).collect();
    let mut rows = Vec::new();
    for w in workloads {
        let side_a: Vec<&Outcome> = a.iter().filter(|o| o.workload == w).collect();
        let side_b: Vec<&Outcome> = b.iter().filter(|o| o.workload == w).collect();
        if side_b.is_empty() {
            return Err(format!("B has no record of {w}"));
        }
        for m in spec {
            let (va, vb) = (median_of(&side_a, &m.name)?, median_of(&side_b, &m.name)?);
            if va <= 0.0 {
                return Err(format!("{w}: A's {} is not positive", m.name));
            }
            let worse_by = if m.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S / va
            } else {
                0.0
            };
            rows.push(Row {
                workload: w,
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound: m.bound.max(floor),
                regressed: worse_by > m.bound.max(floor),
            });
        }
        let (fa, fb) = (failed_frac(&side_a), failed_frac(&side_b));
        rows.push(Row {
            workload: w,
            metric: "failed_frac".into(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: 0.0,
            regressed: fb > fa,
        });
    }
    Ok(rows)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Loads the three files and compares them.
pub fn compare_files(spec: &str, a: &str, b: &str) -> Result<Vec<Row>, String> {
    let spec = parse_spec(&read(spec)?)?;
    let a = parse_records(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let b = parse_records(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    compare(&spec, &a, &b)
}

/// The `compare` command; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut spec = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = p.clone(),
                None => {
                    eprintln!("dbbench: error: --spec requires a path");
                    return 2;
                }
            },
            other => files.push(other.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("dbbench: error: usage: dbbench compare [--spec BENCHMARK.json] A.json B.json");
        return 2;
    };
    match compare_files(&spec, a, b) {
        Err(e) => {
            eprintln!("dbbench: error: {e}");
            2
        }
        Ok(rows) => {
            println!("workload metric A B worse_by bound verdict");
            for r in &rows {
                println!(
                    "{} {} {} {} {:+.4} {} {}",
                    r.workload,
                    r.metric,
                    r.a,
                    r.b,
                    r.worse_by,
                    r.bound,
                    if r.regressed { "REGRESSED" } else { "ok" }
                );
            }
            i32::from(rows.iter().any(|r| r.regressed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    use crate::tests::SPEC;

    fn record(workload: &'static str, rate: f64, failed: u64) -> Outcome {
        Outcome {
            workload,
            seed: 1,
            attempted: 13,
            failed,
            metrics: vec![
                Metric::new("txn_per_s", "txn/s", rate),
                Metric::new("setup_s", "s", 0.02),
                Metric::new("peak_rss_mb", "MiB", 12.0),
            ],
        }
    }

    fn runs(rates: &[f64], failed: u64) -> Vec<Outcome> {
        rates
            .iter()
            .map(|&r| record("dc-gem-force", r, failed))
            .collect()
    }

    #[test]
    fn equal_runs_pass() {
        let spec = parse_spec(SPEC).unwrap();
        let rows = compare(
            &spec,
            &runs(&[100.0, 102.0, 98.0], 0),
            &runs(&[99.0, 101.0], 0),
        );
        assert!(rows.unwrap().iter().all(|r| !r.regressed));
    }

    #[test]
    fn a_doctored_twofold_slowdown_is_rejected() {
        let spec = parse_spec(SPEC).unwrap();
        let rows = compare(&spec, &runs(&[100.0; 5], 0), &runs(&[50.0; 5], 0)).unwrap();
        let slow: Vec<&Row> = rows.iter().filter(|r| r.regressed).collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].metric, "txn_per_s");
    }

    #[test]
    fn setup_time_may_grow_by_the_floor() {
        let spec = parse_spec(SPEC).unwrap();
        let mut b = runs(&[100.0; 5], 0);
        for r in &mut b {
            r.metrics[1].value = 0.02 + SETUP_FLOOR_S * 0.9;
        }
        let rows = compare(&spec, &runs(&[100.0; 5], 0), &b).unwrap();
        assert!(rows.iter().all(|r| !r.regressed));
        for r in &mut b {
            r.metrics[1].value = 0.02 + SETUP_FLOOR_S * 1.1;
        }
        let rows = compare(&spec, &runs(&[100.0; 5], 0), &b).unwrap();
        assert!(rows.iter().any(|r| r.metric == "setup_s" && r.regressed));
    }

    #[test]
    fn an_increased_failed_fraction_is_rejected() {
        let spec = parse_spec(SPEC).unwrap();
        let mut b = runs(&[100.0; 5], 0);
        b[4].failed = 1;
        let rows = compare(&spec, &runs(&[100.0; 5], 0), &b).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.metric == "failed_frac" && r.regressed));
    }

    #[test]
    fn missing_or_malformed_input_is_unusable() {
        let missing = compare_files(
            "BENCHMARK.json",
            "/nonexistent/a.json",
            "/nonexistent/b.json",
        );
        assert!(missing.is_err());
        assert!(parse_records("not json\n").is_err());
        assert!(parse_records("").is_err());
        let spec = parse_spec(SPEC).unwrap();
        let other = vec![record("scale-64", 1.0, 0)];
        assert!(compare(&spec, &runs(&[1.0], 0), &other).is_err());
    }
}
