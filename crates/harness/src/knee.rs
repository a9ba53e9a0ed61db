//! The `--knee` driver: find where a scale curve saturates by
//! bisecting the node axis instead of sweeping a fixed grid.
//!
//! A fixed `--scale` grid spends a full job on every node count; the
//! knee question ("where does the binding resource reach saturation?")
//! only needs the bracket. The driver probes the hi endpoint first —
//! if the curve never saturates (the GEM case), that is one job and a
//! verdict — then the lo endpoint, then bisects until the bracket is
//! no wider than a quarter of the original span. Every probe is built
//! from the same [`ScalePreset::spec`] the fixed grid uses, runs
//! through the ordinary [`Harness`] job pool (so `--jobs`,
//! the ticker, and history persistence all apply), and lands in the
//! experiment store as a row whose config fingerprint matches the
//! grid's point at that node count. The probe lines and the verdicts
//! render from those rows.

use crate::{Harness, Record, Sweep};
use dbshare_expstore::explain::CurveKnee;
use dbshare_sim::experiments::{CurveGrid, RunSpec, ScalePreset};

/// The result of one curve's bisection.
#[derive(Debug, Clone)]
pub struct KneeCurve {
    /// The verdict, phrased exactly like `--explain`'s knee lines.
    pub verdict: CurveKnee,
    /// Node counts probed, in probe order.
    pub probed: Vec<u16>,
}

/// A whole `--knee` run: one bisection per curve of the preset.
#[derive(Debug, Clone)]
pub struct KneeOutcome {
    /// Figure key the probes were recorded under (e.g. `"knee-full"`).
    pub figure: String,
    /// One result per curve, in [`ScalePreset::CURVES`] order.
    pub curves: Vec<KneeCurve>,
    /// Jobs the fixed grid would have run, for the closing tally.
    pub grid_jobs: usize,
}

impl KneeOutcome {
    /// Total probes across all curves.
    pub fn total_probes(&self) -> usize {
        self.curves.iter().map(|c| c.probed.len()).sum()
    }

    /// The closing verdict block (one line per curve plus the probe
    /// tally). Deterministic: a pure function of the probed rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.curves {
            out.push_str(&c.verdict.verdict());
            out.push('\n');
        }
        out.push_str(&format!(
            "total probes: {} (fixed grid: {} jobs)\n",
            self.total_probes(),
            self.grid_jobs
        ));
        out
    }
}

/// Runs the bisection for every curve of `preset`, printing one stdout
/// line per probe as it lands. Probes are recorded under `figure` in
/// the harness's history (when one is configured).
pub fn run_knee(
    harness: &Harness,
    figure: &str,
    preset: &ScalePreset,
    threshold: f64,
) -> KneeOutcome {
    let lo0 = *preset.nodes.first().expect("preset has a node axis");
    let hi0 = *preset.nodes.last().expect("preset has a node axis");
    let mut curves = Vec::new();
    for &(label, coupling) in ScalePreset::CURVES.iter() {
        let mut points: Vec<Record> = Vec::new();
        let probed = probe_order(lo0, hi0, |n| {
            let row = run_probe(harness, figure, label, preset.spec(coupling, n), n);
            let [(binding, util), _] = row.constraints();
            println!(
                "probe {label} n={n}: binding {binding} {:.1}%, resp {:.1}ms",
                util * 100.0,
                row.mean_response_ms
            );
            points.push(row);
            util >= threshold
        });

        // Fold the probes into the verdict --explain prints, over the
        // preset's whole axis even where only its top was probed.
        points.sort_by_key(|r| r.nodes);
        let refs: Vec<&Record> = points.iter().collect();
        curves.push(KneeCurve {
            verdict: CurveKnee {
                lo: lo0,
                hi: hi0,
                ..CurveKnee::scan(&refs, threshold)
            },
            probed,
        });
    }
    KneeOutcome {
        figure: figure.to_string(),
        curves,
        grid_jobs: preset.nodes.len() * ScalePreset::CURVES.len(),
    }
}

/// Executes one probe as a one-job sweep through the harness pool and
/// returns its store row.
fn run_probe(harness: &Harness, figure: &str, curve: &str, spec: RunSpec, n: u16) -> Record {
    let sweep = Sweep {
        figure: figure.to_string(),
        grid: vec![CurveGrid {
            label: curve.to_string(),
            points: vec![(n, spec)],
        }],
    };
    harness
        .run(vec![sweep])
        .records
        .pop()
        .expect("a one-job sweep yields one row")
}

/// The adaptive probe sequence for one curve: hi endpoint first (the
/// cheap "no knee" exit), then the lo endpoint, then bisection until
/// the bracket is no wider than a quarter of the original span.
/// Returns the probed node counts in probe order; `saturated` is
/// called exactly once per returned entry.
fn probe_order(lo0: u16, hi0: u16, mut saturated: impl FnMut(u16) -> bool) -> Vec<u16> {
    let mut probed = vec![hi0];
    if !saturated(hi0) {
        return probed; // never saturates on this axis: one job
    }
    if lo0 >= hi0 {
        return probed;
    }
    probed.push(lo0);
    if saturated(lo0) {
        return probed; // saturated from the first probe
    }
    let min_gap = ((hi0 - lo0) / 4).max(1);
    let (mut lo, mut hi) = (lo0, hi0);
    while hi - lo > min_gap {
        let mid = lo + (hi - lo) / 2;
        probed.push(mid);
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    probed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsaturated_curve_costs_one_probe() {
        let probed = probe_order(50, 200, |_| false);
        assert_eq!(probed, [200]);
    }

    #[test]
    fn saturated_from_the_start_costs_two_probes() {
        let probed = probe_order(50, 200, |_| true);
        assert_eq!(probed, [200, 50]);
    }

    #[test]
    fn bisection_narrows_to_a_quarter_span_bracket() {
        // Saturation sets in above n=150: expect 200 (sat), 50 (not),
        // 125 (not), 162 (sat) — bracket (125, 162], 4 probes against
        // the fixed grid's 6 (3 node counts x 2 curves).
        let probed = probe_order(50, 200, |n| n > 150);
        assert_eq!(probed, [200, 50, 125, 162]);
    }

    #[test]
    fn degenerate_single_point_axis_terminates() {
        assert_eq!(probe_order(16, 16, |_| true), [16]);
        assert_eq!(probe_order(16, 16, |_| false), [16]);
    }
}
