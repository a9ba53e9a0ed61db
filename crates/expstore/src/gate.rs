//! The regression gate: compares a fresh run against recorded history.
//!
//! Three checks, in increasing order of tolerance:
//!
//! 1. **Metric drift (exact).** A job whose config fingerprint exists
//!    in history must reproduce the recorded metric fingerprint
//!    bit-for-bit — the simulator is deterministic, so *any* change in
//!    results for an unchanged configuration is a correctness
//!    regression, not noise. A run none of whose config fingerprints
//!    is recorded fails: a gate with nothing to compare must not pass.
//! 2. **Peak heap (bounded).** A job's `peak_heap_bytes` may be at
//!    most [`MAX_HEAP_GROWTH`] times the latest count recorded for its
//!    config fingerprint. The count is exact and the same on every host
//!    for a build, so the bound only absorbs deliberate growth; a
//!    change that needs more appends a fresh baseline run to the
//!    history. A zero count means no counting allocator and is not
//!    compared.
//! 3. **Event-rate regression (thresholded).** Per figure, the fresh
//!    run's aggregate events/s must stay within `max_regress_pct`
//!    percent of the best recorded run of the *same config set*
//!    ([`figure_runs`] pairs only identical job sets). Host wall-clock
//!    varies across machines, so the threshold is the caller's to
//!    choose: tight for same-machine trend gating, generous for
//!    cross-runner CI.

use crate::aggregate::figure_runs;
use crate::record::Record;

/// The largest peak heap a job may hold, as a multiple of the latest
/// count recorded for its configuration.
pub const MAX_HEAP_GROWTH: f64 = 1.25;

/// Verdict of one gate evaluation.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Hard failures: the gate should fail the build.
    pub failures: Vec<String>,
    /// Informational lines (clean comparisons, skipped checks).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates `current` against `history` with the given events/s
/// regression threshold in percent (e.g. `50.0` fails when the fresh
/// run is less than half the best recorded rate).
pub fn check(history: &[Record], current: &[Record], max_regress_pct: f64) -> GateOutcome {
    let mut outcome = GateOutcome::default();

    // 1 and 2, per job, against the rows recorded for its config.
    let (mut matched, mut heap_compared, mut largest_growth) = (0, 0, 0.0f64);
    for rec in current {
        let same_config = || {
            history
                .iter()
                .filter(|old| old.config_fingerprint == rec.config_fingerprint)
        };
        if same_config().next().is_none() {
            continue;
        }
        matched += 1;
        let job = format!(
            "{} | {} | n={} (config {})",
            rec.figure, rec.curve, rec.nodes, rec.config_fingerprint
        );
        if let Some(old) =
            same_config().find(|old| old.metric_fingerprint != rec.metric_fingerprint)
        {
            outcome.failures.push(format!(
                "metric drift: {job}: history run {} recorded metrics {}, this run \
                 produced {} — same configuration, different results",
                old.run, old.metric_fingerprint, rec.metric_fingerprint,
            ));
        }
        let heap = rec.detail.peak_heap_bytes;
        let latest = same_config()
            .rev()
            .find(|old| old.detail.peak_heap_bytes > 0);
        if let Some(old) = latest.filter(|_| heap > 0) {
            heap_compared += 1;
            let growth = heap as f64 / old.detail.peak_heap_bytes as f64;
            largest_growth = largest_growth.max(growth);
            if growth > MAX_HEAP_GROWTH {
                outcome.failures.push(format!(
                    "peak heap: {job}: {heap} bytes is {growth:.3}x the {} that run {} \
                     recorded, above the {MAX_HEAP_GROWTH}x bound",
                    old.detail.peak_heap_bytes, old.run,
                ));
            }
        }
    }
    outcome.notes.push(format!(
        "metric fingerprints: {matched} of {} current job(s) had recorded history to match against",
        current.len()
    ));
    if matched == 0 {
        outcome.failures.push(
            "no current job's config fingerprint is recorded in history: nothing to gate against"
                .to_string(),
        );
    }
    outcome.notes.push(format!(
        "peak heap: {heap_compared} job(s) compared, at most {largest_growth:.3}x the \
         latest recorded count (bound {MAX_HEAP_GROWTH}x)"
    ));

    // 3. Aggregate events/s per figure vs the best comparable run.
    let history_rows = figure_runs(history);
    for row in figure_runs(current) {
        let Some(best) = row.best_comparable(&history_rows) else {
            outcome.notes.push(format!(
                "events/s [{}]: no recorded run with this config set — skipped",
                row.figure
            ));
            continue;
        };
        let floor = best.events_per_sec() * (1.0 - max_regress_pct / 100.0);
        let verdict = format!(
            "events/s [{}]: {:.0} now vs best recorded {:.0} (run {}, rev {}); \
             floor at -{:.0}% is {:.0}",
            row.figure,
            row.events_per_sec(),
            best.events_per_sec(),
            best.run,
            short_rev(&best.git_revision),
            max_regress_pct,
            floor,
        );
        if row.events_per_sec() < floor {
            outcome.failures.push(format!("regression: {verdict}"));
        } else {
            outcome.notes.push(verdict);
        }
    }
    outcome
}

/// First 12 characters of a revision string (full hashes are noise in
/// one-line reports). Cuts at a character boundary, so any revision
/// string a row carries is safe to shorten.
pub fn short_rev(rev: &str) -> &str {
    match rev.char_indices().nth(12) {
        Some((end, _)) => &rev[..end],
        None => rev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    fn rec(run: &str, figure: &str, nodes: u16, wall: f64, metric: &str) -> Record {
        Record {
            run: run.into(),
            config_fingerprint: format!("cfg-{figure}-{nodes}"),
            metric_fingerprint: metric.into(),
            wall_secs: wall,
            events_processed: 1000,
            ..sample(figure, nodes, 1)
        }
    }

    fn with_heap(mut r: Record, bytes: u64) -> Record {
        r.detail.peak_heap_bytes = bytes;
        r
    }

    #[test]
    fn clean_rerun_passes() {
        let history = vec![
            rec("r1", "fig41", 1, 1.0, "m1"),
            rec("r1", "fig41", 2, 1.0, "m2"),
        ];
        let current = vec![
            rec("r2", "fig41", 1, 1.1, "m1"),
            rec("r2", "fig41", 2, 1.1, "m2"),
        ];
        let outcome = check(&history, &current, 50.0);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
    }

    #[test]
    fn metric_drift_for_unchanged_config_fails() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        let current = vec![rec("r2", "fig41", 1, 1.0, "DIFFERENT")];
        let outcome = check(&history, &current, 50.0);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].contains("metric drift"));
    }

    #[test]
    fn slow_run_beyond_threshold_fails() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        // 3x slower than history: below the 50% floor.
        let current = vec![rec("r2", "fig41", 1, 3.0, "m1")];
        let outcome = check(&history, &current, 50.0);
        assert_eq!(outcome.failures.len(), 1, "notes: {:?}", outcome.notes);
        assert!(outcome.failures[0].contains("regression"));
        // The same run passes a 70% threshold.
        assert!(check(&history, &current, 70.0).passed());
    }

    #[test]
    fn different_config_set_is_skipped_not_compared() {
        let history = vec![
            rec("r1", "fig41", 1, 1.0, "m1"),
            rec("r1", "fig41", 2, 1.0, "m2"),
        ];
        // One of the two jobs: a different config set.
        let current = vec![rec("r2", "fig41", 1, 100.0, "m1")];
        let outcome = check(&history, &current, 50.0);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("no recorded run with this config set")));
    }

    #[test]
    fn a_run_with_no_recorded_config_fails() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        // Different node count => no config fingerprint in history.
        let current = vec![rec("r2", "fig41", 4, 1.0, "m4")];
        let outcome = check(&history, &current, 50.0);
        assert_eq!(outcome.failures.len(), 1, "notes: {:?}", outcome.notes);
        assert!(outcome.failures[0].contains("nothing to gate against"));
    }

    #[test]
    fn heap_beyond_the_bound_of_the_latest_count_fails() {
        let history = vec![
            with_heap(rec("r1", "fig41", 1, 1.0, "m1"), 4_000),
            with_heap(rec("r2", "fig41", 1, 1.0, "m1"), 1_000),
        ];
        let at = |bytes| {
            check(
                &history,
                &[with_heap(rec("r3", "fig41", 1, 1.0, "m1"), bytes)],
                50.0,
            )
        };
        // The latest count (r2's 1,000 bytes) is the baseline.
        assert!(at(1_250).passed());
        let outcome = at(1_300);
        assert_eq!(outcome.failures.len(), 1, "notes: {:?}", outcome.notes);
        assert!(
            outcome.failures[0].contains("peak heap") && outcome.failures[0].contains("r2"),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn zero_heap_counts_are_not_compared() {
        let counted = vec![with_heap(rec("r1", "fig41", 1, 1.0, "m1"), 1_000)];
        let uncounted = vec![with_heap(rec("r1", "fig41", 1, 1.0, "m1"), 0)];
        let current = |bytes| vec![with_heap(rec("r2", "fig41", 1, 1.0, "m1"), bytes)];
        assert!(check(&counted, &current(0), 50.0).passed());
        assert!(check(&uncounted, &current(1_000_000), 50.0).passed());
    }

    #[test]
    fn short_rev_cuts_at_a_char_boundary() {
        assert_eq!(short_rev("0123456789abcdef"), "0123456789ab");
        assert_eq!(short_rev("abc"), "abc");
        // Byte 12 falls inside the sixth 'é': a byte cut would panic.
        assert_eq!(short_rev("aéééééé"), "aéééééé");
        assert_eq!(short_rev("aéééééééééééé"), "aééééééééééé");
    }
}
