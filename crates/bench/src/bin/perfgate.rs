//! The CI perf-regression gate, backed by the experiment store.
//!
//! ```text
//! perfgate [--max-regress-pct N] HISTORY.jsonl ARTIFACT.json
//! ```
//!
//! Reads recorded history from the store file and the run under test
//! from its `BENCH_repro.json` artifact, then applies the store's gate
//! ([`dbshare_expstore::gate`]):
//!
//! - **exit 1** when any job with an unchanged config fingerprint
//!   produced a different metric fingerprint (the simulator is
//!   deterministic — same config must mean bit-identical results),
//!   when a job's peak heap exceeds 1.25 times the latest count
//!   recorded for its config fingerprint, when no job's config
//!   fingerprint is recorded at all, or when a figure's aggregate
//!   events/s fell more than `--max-regress-pct` percent (default 50)
//!   below the best recorded run of the identical job set;
//! - **exit 2** on unusable input: missing or malformed history or
//!   artifact, an artifact of another schema or with rows of another
//!   record version (older builds wrote `dbshare-bench/1`, or rows
//!   without the peak heap and attribution), or an empty history. A
//!   gate that cannot see its baseline must fail loudly, not pass
//!   vacuously.
//!
//! Figures whose config set has no recorded counterpart are reported
//! and skipped — changing a sweep's shape is not a regression.

use dbshare_expstore::{gate_check, read_artifact_records, Store, MAX_HEAP_GROWTH};
use std::path::Path;

fn fail(msg: &str) -> ! {
    eprintln!("perfgate: error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_regress_pct = 50.0f64;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress-pct" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| fail("--max-regress-pct requires a value"));
                match v.parse::<f64>() {
                    Ok(p) if (0.0..100.0).contains(&p) => max_regress_pct = p,
                    _ => fail(&format!(
                        "--max-regress-pct takes a percentage in [0, 100), got {v:?}"
                    )),
                }
            }
            other if other.starts_with('-') => {
                fail(&format!("unknown flag {other:?} (try --max-regress-pct)"))
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    let [history_path, artifact_path] = paths.as_slice() else {
        fail("usage: perfgate [--max-regress-pct N] HISTORY.jsonl ARTIFACT.json");
    };

    let store = Store::new(history_path);
    if !store.path().exists() {
        fail(&format!("history store {history_path} does not exist"));
    }
    let read = store
        .read()
        .unwrap_or_else(|e| fail(&format!("cannot read history {history_path}: {e}")));
    if let Some(recovery) = &read.recovery {
        eprintln!("perfgate: warning: history {history_path}: {recovery}");
    }
    if read.records.is_empty() {
        fail(&format!("history store {history_path} holds no records"));
    }
    let current = read_artifact_records(Path::new(artifact_path)).unwrap_or_else(|e| fail(&e));
    if current.is_empty() {
        fail(&format!("artifact {artifact_path} holds no job records"));
    }

    println!(
        "perfgate: {} history record(s) vs {} current job(s), \
         peak heap bound at {MAX_HEAP_GROWTH}x, events/s floor at -{max_regress_pct:.0}%",
        read.records.len(),
        current.len()
    );
    let outcome = gate_check(&read.records, &current, max_regress_pct);
    for note in &outcome.notes {
        println!("  ok: {note}");
    }
    for failure in &outcome.failures {
        println!("  FAIL: {failure}");
    }
    if outcome.passed() {
        println!("perfgate: PASS");
    } else {
        println!("perfgate: FAIL ({} finding(s))", outcome.failures.len());
        std::process::exit(1);
    }
}
