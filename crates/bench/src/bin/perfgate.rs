//! The CI perf-regression gate, backed by the experiment store.
//!
//! ```text
//! perfgate [--max-regress-pct N] HISTORY.jsonl RUN.jsonl
//! ```
//!
//! Reads recorded history from the store file and the run under test
//! from its run file (`repro --json`, `BENCH_repro.jsonl` by default),
//! both with [`Store::read`], then applies the store's gate
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
//! - **exit 2** on unusable input: a missing or empty file, or a line
//!   that is not a store row of this record version (a pretty-printed
//!   document of an older build, or rows without the peak heap and
//!   attribution). A gate that cannot see its baseline or its run must
//!   fail loudly, not pass vacuously.
//!
//! Figures whose config set has no recorded counterpart are reported
//! and skipped — changing a sweep's shape is not a regression.

use dbshare_expstore::{gate_check, Record, Store, MAX_HEAP_GROWTH};

fn fail(msg: &str) -> ! {
    eprintln!("perfgate: error: {msg}");
    std::process::exit(2);
}

/// Every row of the store-format file at `path`; exits 2 when the
/// file is missing, unreadable or empty. `what` names the file in
/// messages.
fn read_rows(what: &str, path: &str) -> Vec<Record> {
    let store = Store::new(path);
    if !store.path().exists() {
        fail(&format!("{what} {path} does not exist"));
    }
    let read = store
        .read()
        .unwrap_or_else(|e| fail(&format!("cannot read {what} {path}: {e}")));
    if let Some(recovery) = &read.recovery {
        eprintln!("perfgate: warning: {what} {path}: {recovery}");
    }
    if read.records.is_empty() {
        fail(&format!("{what} {path} holds no records"));
    }
    read.records
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
    let [history_path, run_path] = paths.as_slice() else {
        fail("usage: perfgate [--max-regress-pct N] HISTORY.jsonl RUN.jsonl");
    };

    let history = read_rows("history store", history_path);
    let current = read_rows("run file", run_path);

    println!(
        "perfgate: {} history record(s) vs {} current job(s), \
         peak heap bound at {MAX_HEAP_GROWTH}x, events/s floor at -{max_regress_pct:.0}%",
        history.len(),
        current.len()
    );
    let outcome = gate_check(&history, &current, max_regress_pct);
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
