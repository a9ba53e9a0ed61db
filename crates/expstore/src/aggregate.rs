//! The aggregation layer: per-(run, figure) rows folded from job
//! [`Record`]s.
//!
//! [`figure_runs`] folds per-job rows into per-(run, figure)
//! aggregates, each stamped with a *config-set fingerprint* — an
//! FNV-1a hash over the sorted config fingerprints of the figure's
//! jobs — so aggregate comparisons only ever pair runs that executed
//! the identical job set. The trend tables, the HTML report and the
//! gate all read these rows.

use crate::record::{fnv1a_hex, Record};

/// Per-(run, figure) aggregate of job rows: the row a trend table
/// prints and the unit the regression gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRun {
    /// Run id the jobs belong to.
    pub run: String,
    /// Unix timestamp of the run.
    pub created_unix: u64,
    /// Git revision that produced the run.
    pub git_revision: String,
    /// Figure key.
    pub figure: String,
    /// Jobs aggregated into this row.
    pub jobs: usize,
    /// Summed host wall seconds.
    pub wall_secs: f64,
    /// Summed events processed.
    pub events: u64,
    /// Event-weighted allocations per event.
    pub allocs_per_event: f64,
    /// Summed host heap allocations of the jobs.
    pub host_allocs: u64,
    /// Largest per-job peak heap of the run's jobs, in bytes.
    pub peak_heap_bytes: u64,
    /// Largest per-job peak RSS of the run's jobs, in MiB — the
    /// memory budget the whole figure fit in. `None` when no job
    /// carried the sample (non-Linux hosts).
    pub peak_rss_mb: Option<f64>,
    /// Binding constraint of the figure's hottest job — the resource
    /// with the highest binding utilization across the aggregated
    /// rows ([`Record::constraints`]).
    pub binding: String,
    /// That hottest job's binding utilization in `[0, 1]`.
    pub binding_utilization: f64,
    /// FNV-1a over the sorted config fingerprints of the jobs: two
    /// rows are comparable iff this matches.
    pub config_set: String,
}

impl FigureRun {
    /// Aggregate host event rate of the figure's jobs.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    /// The fastest of `rows` that ran this row's figure with the
    /// identical job set (the earliest of equals): the baseline the
    /// gate, the trend tables and the HTML report compare against.
    pub fn best_comparable<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a FigureRun>,
    ) -> Option<&'a FigureRun> {
        rows.into_iter()
            .filter(|r| r.figure == self.figure && r.config_set == self.config_set)
            // `min_by` keeps the first of equals; the order is reversed.
            .min_by(|a, b| b.events_per_sec().total_cmp(&a.events_per_sec()))
    }
}

/// Folds records into [`FigureRun`] aggregates, preserving the order
/// in which (run, figure) pairs first appear in the log.
pub fn figure_runs(records: &[Record]) -> Vec<FigureRun> {
    let mut rows: Vec<FigureRun> = Vec::new();
    let mut configs: Vec<Vec<&str>> = Vec::new();
    let mut allocs: Vec<f64> = Vec::new();
    for r in records {
        let [(binding, binding_utilization), _] = r.constraints();
        let at = rows
            .iter()
            .position(|row| row.run == r.run && row.figure == r.figure)
            .unwrap_or_else(|| {
                rows.push(FigureRun {
                    run: r.run.clone(),
                    created_unix: r.created_unix,
                    git_revision: r.provenance.git_revision.clone(),
                    figure: r.figure.clone(),
                    jobs: 0,
                    wall_secs: 0.0,
                    events: 0,
                    allocs_per_event: 0.0,
                    host_allocs: 0,
                    peak_heap_bytes: 0,
                    peak_rss_mb: None,
                    binding: binding.to_string(),
                    binding_utilization,
                    config_set: String::new(),
                });
                configs.push(Vec::new());
                allocs.push(0.0);
                rows.len() - 1
            });
        let row = &mut rows[at];
        row.jobs += 1;
        row.wall_secs += r.wall_secs;
        row.events += r.events_processed;
        row.host_allocs += r.detail.host_allocs;
        row.peak_heap_bytes = row.peak_heap_bytes.max(r.detail.peak_heap_bytes);
        if let Some(mb) = r.peak_rss_mb {
            row.peak_rss_mb = Some(row.peak_rss_mb.map_or(mb, |best| best.max(mb)));
        }
        // The aggregate names the *hottest* job's binding constraint
        // (strict >, so the earliest of equals wins — deterministic).
        if binding_utilization > row.binding_utilization {
            row.binding = binding.to_string();
            row.binding_utilization = binding_utilization;
        }
        allocs[at] += r.allocs_per_event * r.events_processed as f64;
        configs[at].push(&r.config_fingerprint);
    }
    for ((row, mut fps), alloc_sum) in rows.iter_mut().zip(configs).zip(allocs) {
        fps.sort_unstable();
        row.config_set = fnv1a_hex(&fps.join(","));
        row.allocs_per_event = alloc_sum / (row.events.max(1)) as f64;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample as record;

    fn rec(run: &str, figure: &str, nodes: u16, rev: &str, wall: f64, events: u64) -> Record {
        let mut r = Record {
            run: run.into(),
            created_unix: 5,
            wall_secs: wall,
            events_processed: events,
            config_fingerprint: format!("cfg-{figure}-{nodes}"),
            ..record(figure, nodes, 1)
        };
        r.provenance.git_revision = rev.into();
        r
    }

    fn sample() -> Vec<Record> {
        vec![
            rec("r1", "fig41", 1, "revA", 1.0, 1000),
            rec("r1", "fig41", 2, "revA", 1.0, 3000),
            rec("r1", "fig45", 1, "revA", 2.0, 2000),
            rec("r2", "fig41", 1, "revB", 0.5, 1000),
            rec("r2", "fig41", 2, "revB", 0.5, 3000),
        ]
    }

    #[test]
    fn figure_runs_aggregate_and_fingerprint_the_config_set() {
        let rows = figure_runs(&sample());
        assert_eq!(rows.len(), 3);
        let r1fig41 = &rows[0];
        assert_eq!(
            (r1fig41.run.as_str(), r1fig41.figure.as_str()),
            ("r1", "fig41")
        );
        assert_eq!(r1fig41.jobs, 2);
        assert_eq!(r1fig41.events, 4000);
        assert!((r1fig41.events_per_sec() - 2000.0).abs() < 1e-9);
        // Same job set => same config-set fingerprint across runs.
        let r2fig41 = rows.iter().find(|r| r.run == "r2").expect("r2 present");
        assert_eq!(r1fig41.config_set, r2fig41.config_set);
        // Different job set => different fingerprint.
        let r1fig45 = rows.iter().find(|r| r.figure == "fig45").expect("fig45");
        assert_ne!(r1fig41.config_set, r1fig45.config_set);
    }

    #[test]
    fn figure_runs_sum_the_exact_host_allocs() {
        let mut records = sample();
        for (rec, allocs) in records.iter_mut().zip([7, 5]) {
            rec.detail.host_allocs = allocs;
            rec.detail.peak_heap_bytes = 1_000 * allocs;
        }
        let rows = figure_runs(&records);
        assert_eq!((rows[0].run.as_str(), rows[0].host_allocs), ("r1", 12));
        assert_eq!(rows[0].peak_heap_bytes, 7_000);
    }

    #[test]
    fn figure_runs_keep_the_largest_peak_rss() {
        // The aggregate reports the *max* job RSS (the budget the
        // figure needed), and rows without samples stay None.
        let mut records = sample();
        records[0].peak_rss_mb = Some(48.0);
        records[1].peak_rss_mb = Some(96.5);
        let rows = figure_runs(&records);
        let r1fig41 = rows
            .iter()
            .find(|r| r.run == "r1" && r.figure == "fig41")
            .expect("r1/fig41");
        assert_eq!(r1fig41.peak_rss_mb, Some(96.5));
        let r2fig41 = rows
            .iter()
            .find(|r| r.run == "r2" && r.figure == "fig41")
            .expect("r2/fig41");
        assert_eq!(r2fig41.peak_rss_mb, None);
    }

    #[test]
    fn figure_runs_name_the_hottest_binding_constraint() {
        let mut records = sample();
        // Resources 0 and 3 are the cpu and the network.
        records[0].resources[0].1 = 0.64;
        records[0].resources[3].1 = 0.5;
        records[1].resources[0].1 = 0.5;
        records[1].resources[3].1 = 0.71;
        records[3].resources[0].1 = 0.71;
        records[3].resources[3].1 = 0.71;
        let rows = figure_runs(&records);
        let r1fig41 = rows
            .iter()
            .find(|r| r.run == "r1" && r.figure == "fig41")
            .expect("r1/fig41");
        assert_eq!(r1fig41.binding, "network");
        assert_eq!(r1fig41.binding_utilization, 0.71);
        // Of equally hot jobs, the earliest names the constraint.
        let r2fig41 = rows
            .iter()
            .find(|r| r.run == "r2" && r.figure == "fig41")
            .expect("r2/fig41");
        assert_eq!(r2fig41.binding, "cpu");
    }

    #[test]
    fn best_comparable_is_the_fastest_run_of_the_same_job_set() {
        let mut records = sample();
        // r3 repeats r2's fig41 rate exactly; r1 ran it at half.
        records.extend([
            rec("r3", "fig41", 1, "revC", 0.5, 1000),
            rec("r3", "fig41", 2, "revC", 0.5, 3000),
        ]);
        let rows = figure_runs(&records);
        let fig41 = rows.iter().find(|r| r.run == "r1").expect("r1/fig41");
        let best = fig41.best_comparable(&rows).expect("comparable runs");
        assert_eq!(best.run, "r2", "the earliest of equally fast runs");
        let fig45 = rows.iter().find(|r| r.figure == "fig45").expect("fig45");
        assert_eq!(
            fig45.best_comparable(&rows).map(|r| r.run.as_str()),
            Some("r1")
        );
        assert!(fig45.best_comparable(&rows[..1]).is_none());
    }
}
