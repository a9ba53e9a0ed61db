//! A minimal wall-clock benchmarking harness.
//!
//! Replaces criterion so the workspace carries no registry
//! dependencies: each benchmark warms up briefly, then runs for a fixed
//! time budget and reports mean / best iteration time. Invoked through
//! `cargo bench` (the bench targets set `harness = false`); a substring
//! filter can be passed after `--`:
//!
//! ```text
//! cargo bench -p dbshare-bench --bench components -- lock_table
//! ```

use std::time::{Duration, Instant};

/// Collects and prints benchmark measurements.
pub struct Bench {
    filter: Option<String>,
    warmup: Duration,
    budget: Duration,
}

impl Bench {
    /// Builds a runner from the process arguments: the first argument
    /// that is not a flag is used as a substring filter on benchmark
    /// names (cargo passes `--bench`; that and other flags are ignored).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench {
            filter,
            warmup: Duration::from_millis(200),
            budget: Duration::from_secs(2),
        }
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Runs one benchmark: `f` is called repeatedly, first for the
    /// warm-up window, then for the measurement budget (at least three
    /// iterations each), and the mean/best iteration times are printed.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        if !self.matches(name) {
            return;
        }
        let mut spin = |window: Duration| -> (u64, Duration, Duration) {
            let start = Instant::now();
            let mut iters = 0u64;
            let mut best = Duration::MAX;
            loop {
                let t0 = Instant::now();
                f();
                let dt = t0.elapsed();
                best = best.min(dt);
                iters += 1;
                let elapsed = start.elapsed();
                if elapsed >= window && iters >= 3 {
                    return (iters, elapsed, best);
                }
            }
        };
        spin(self.warmup);
        let (iters, elapsed, best) = spin(self.budget);
        let mean = elapsed / iters as u32;
        println!(
            "bench {name:<44} {:>12}/iter (best {:>12}, {iters} iters)",
            fmt_duration(mean),
            fmt_duration(best),
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_substrings() {
        let b = Bench {
            filter: Some("lock".into()),
            warmup: Duration::ZERO,
            budget: Duration::ZERO,
        };
        assert!(b.matches("lock_table/grant"));
        assert!(!b.matches("lru/hit"));
        let all = Bench {
            filter: None,
            warmup: Duration::ZERO,
            budget: Duration::ZERO,
        };
        assert!(all.matches("anything"));
    }

    #[test]
    fn bench_runs_at_least_three_iterations() {
        let b = Bench {
            filter: None,
            warmup: Duration::ZERO,
            budget: Duration::ZERO,
        };
        let mut count = 0u32;
        b.bench("counting", || count += 1);
        assert!(
            count >= 6,
            "warmup + measure each run >= 3 iters, got {count}"
        );
    }

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(150)), "150.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(25)), "25.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }
}
