//! Bottleneck attribution, rendered from records: which resource
//! binds, and where the knee is.
//!
//! The paper's argument (§4) is that each coupling architecture is
//! limited by whichever shared resource saturates first — CPU, GEM
//! servers, the lock engine, the network, a disk group, or the log —
//! and that response time decomposes into the queue waits that
//! resource inflicts. Each job's [`Record`] carries that argument: its
//! resources' utilizations and its response-time waits, ranked by
//! [`Record::constraints`] into the *binding constraint* (the
//! most-utilized resource) and the *next constraint* (the runner-up).
//! This module renders the views over those rows:
//!
//! * [`find_knee`] walks a curve along the node axis and reports the
//!   first point whose binding utilization crosses a saturation
//!   threshold, corroborated by the response-time slope (a real knee
//!   at least doubles response time across the crossing interval).
//! * [`CurveKnee`] is one curve's verdict, shared by `--explain` and
//!   the `--knee` bisection.
//! * [`explain_figure`] applies both to a whole figure and renders a
//!   deterministic table ([`FigureExplain::render`]) plus a JSON
//!   sidecar ([`sidecar_json`]) for `repro --explain`.
//!
//! Everything here is a pure function of record fields that are
//! themselves bit-identical across `--jobs`, so the rendered table and
//! sidecar are byte-identical too (CI diffs the sidecars of a
//! `--jobs 1` and a `--jobs 4` run), and a row read back from the
//! store renders exactly as the row its run built.

use crate::json::Json;
use crate::record::Record;

/// Default saturation threshold for knee detection: a binding
/// utilization at or above 95% marks the knee point.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// A detected knee on one curve's node axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// The last probed node count whose binding utilization stayed
    /// below the threshold; `None` when the very first point was
    /// already saturated.
    pub below: Option<u16>,
    /// The first node count at or above the threshold.
    pub at: u16,
    /// The resource that binds at the knee.
    pub resource: String,
    /// Its utilization at the knee point.
    pub utilization: f64,
    /// `resp(at) / resp(below)` — the response-time slope across the
    /// crossing interval (1.0 when `below` is `None`).
    pub resp_ratio: f64,
    /// True when the response-time curve corroborates the utilization
    /// crossing (at least a doubling across the interval).
    pub corroborated: bool,
}

/// Scans `points` (one curve's rows, ordered by node count) for the
/// first one whose binding utilization reaches `threshold`. Returns
/// `None` when the curve never saturates within the probed axis.
pub fn find_knee(points: &[&Record], threshold: f64) -> Option<Knee> {
    let i = points
        .iter()
        .position(|r| r.constraints()[0].1 >= threshold)?;
    let (r, prev) = (points[i], i.checked_sub(1).map(|j| points[j]));
    let [(resource, utilization), _] = r.constraints();
    let resp_ratio = prev.map_or(1.0, |p| r.mean_response_ms / p.mean_response_ms.max(1e-9));
    Some(Knee {
        below: prev.map(|p| p.nodes),
        at: r.nodes,
        resource: resource.to_string(),
        utilization,
        resp_ratio,
        corroborated: prev.is_some() && resp_ratio >= 2.0,
    })
}

/// One curve's knee verdict within a figure.
#[derive(Debug, Clone)]
pub struct CurveKnee {
    /// Curve label.
    pub curve: String,
    /// First node count probed.
    pub lo: u16,
    /// Last node count probed.
    pub hi: u16,
    /// The knee, when the curve saturates within `[lo, hi]`.
    pub knee: Option<Knee>,
    /// The curve's peak binding constraint: `(resource, utilization,
    /// nodes)` of the point with the highest binding utilization —
    /// what the "no knee" verdict is measured against.
    pub peak: (String, f64, u16),
}

impl CurveKnee {
    /// Scans one curve's rows, ordered by node count, for its knee at
    /// `threshold` and its peak binding constraint. The curve is the
    /// first row's and the span is the first and last row. Panics on a
    /// curve without rows.
    pub fn scan(points: &[&Record], threshold: f64) -> CurveKnee {
        let peak = points
            .iter()
            .map(|r| {
                let [(name, util), _] = r.constraints();
                (name.to_string(), util, r.nodes)
            })
            // Strict >, so the earliest of equal peaks wins.
            .reduce(|best, p| if p.1 > best.1 { p } else { best })
            .expect("a curve has at least one point");
        CurveKnee {
            curve: points[0].curve.clone(),
            lo: points[0].nodes,
            hi: points[points.len() - 1].nodes,
            knee: find_knee(points, threshold),
            peak,
        }
    }

    /// The one-line human verdict for this curve, shared by
    /// `--explain` ([`FigureExplain::render`]) and the `--knee`
    /// bisection so both speak the same language.
    pub fn verdict(&self) -> String {
        match &self.knee {
            None => format!(
                "{}: no knee in [{}, {}] (peak binding {} {:.1}% at n={})",
                self.curve,
                self.lo,
                self.hi,
                self.peak.0,
                self.peak.1 * 100.0,
                self.peak.2
            ),
            Some(knee) => match knee.below {
                Some(below) => format!(
                    "{}: knee between n={} and n={}: {} reaches {:.1}% (resp x{:.2}{})",
                    self.curve,
                    below,
                    knee.at,
                    knee.resource,
                    knee.utilization * 100.0,
                    knee.resp_ratio,
                    if knee.corroborated {
                        ", corroborated"
                    } else {
                        ", not corroborated"
                    }
                ),
                None => format!(
                    "{}: saturated from the first probe (n={}): {} at {:.1}%",
                    self.curve,
                    knee.at,
                    knee.resource,
                    knee.utilization * 100.0
                ),
            },
        }
    }
}

/// A whole figure, attributed: its rows plus per-curve knee verdicts.
#[derive(Debug, Clone)]
pub struct FigureExplain<'a> {
    /// Figure key (e.g. `"scale-smoke"`).
    pub figure: String,
    /// Saturation threshold the knee scan used.
    pub threshold: f64,
    /// The figure's rows in input order.
    pub points: Vec<&'a Record>,
    /// One verdict per curve, in input order.
    pub knees: Vec<CurveKnee>,
}

/// Attributes the rows of `records` that belong to `figure` and scans
/// each curve (a run of consecutive rows with one curve label, ordered
/// by node count as the harness runs them) for a knee at `threshold`.
pub fn explain_figure<'a>(
    figure: &str,
    records: &'a [Record],
    threshold: f64,
) -> FigureExplain<'a> {
    let points: Vec<&Record> = records.iter().filter(|r| r.figure == figure).collect();
    let knees = points
        .chunk_by(|a, b| a.curve == b.curve)
        .map(|curve| CurveKnee::scan(curve, threshold))
        .collect();
    FigureExplain {
        figure: figure.to_string(),
        threshold,
        points,
        knees,
    }
}

/// `component_ms` as a fraction of the row's mean response time.
fn share(r: &Record, component_ms: f64) -> f64 {
    component_ms / r.mean_response_ms.max(1e-9)
}

impl FigureExplain<'_> {
    /// Renders the figure's attribution as a fixed-width text table
    /// plus one knee line per curve. Deterministic: a pure function of
    /// the rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== explain [{}] (saturation threshold {:.0}%) ===\n",
            self.figure,
            self.threshold * 100.0
        ));
        out.push_str(&format!(
            "{:<26}{:>6}  {:<14}{:>6}  {:<14}{:>6}{:>10}{:>7}{:>7}{:>7}{:>7}{:>7}\n",
            "curve",
            "nodes",
            "binding",
            "util%",
            "next",
            "util%",
            "resp ms",
            "input%",
            "lock%",
            "io%",
            "cpuW%",
            "cpuS%"
        ));
        for r in &self.points {
            let [b, n] = r.constraints();
            let w = &r.waits;
            out.push_str(&format!(
                "{:<26}{:>6}  {:<14}{:>6.1}  {:<14}{:>6.1}{:>10.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}\n",
                r.curve,
                r.nodes,
                b.0,
                b.1 * 100.0,
                n.0,
                n.1 * 100.0,
                r.mean_response_ms,
                share(r, w.input_ms) * 100.0,
                share(r, w.lock_ms) * 100.0,
                share(r, w.io_ms) * 100.0,
                share(r, w.cpu_wait_ms) * 100.0,
                share(r, w.cpu_service_ms) * 100.0,
            ));
        }
        for k in &self.knees {
            out.push_str(&k.verdict());
            out.push('\n');
        }
        out
    }
}

/// Renders a set of figure explanations as the `--explain` JSON
/// sidecar (schema `dbshare-explain/1`). Hand-built: numbers use
/// Rust's shortest-round-trip `Display` form (integers without a
/// fraction), so the output is byte-identical whenever the rows are
/// bit-identical.
pub fn sidecar_json(figures: &[FigureExplain]) -> String {
    let mut out = String::from("{\"schema\":\"dbshare-explain/1\",\"figures\":[");
    for (fi, fig) in figures.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"figure\":{},\"threshold\":{},\"points\":[",
            json_str(&fig.figure),
            json_num(fig.threshold)
        ));
        for (pi, r) in fig.points.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            let [b, n] = r.constraints();
            out.push_str(&format!(
                "{{\"curve\":{},\"nodes\":{},\"binding\":{},\"binding_utilization\":{}",
                json_str(&r.curve),
                r.nodes,
                json_str(b.0),
                json_num(b.1)
            ));
            out.push_str(&format!(
                ",\"next\":{},\"next_utilization\":{}",
                json_str(n.0),
                json_num(n.1)
            ));
            let w = &r.waits;
            out.push_str(&format!(
                ",\"mean_response_ms\":{},\"waits_ms\":{{\"input\":{},\"lock\":{},\"io\":{},\"cpu_wait\":{},\"cpu_service\":{}}}",
                json_num(r.mean_response_ms),
                json_num(w.input_ms),
                json_num(w.lock_ms),
                json_num(w.io_ms),
                json_num(w.cpu_wait_ms),
                json_num(w.cpu_service_ms)
            ));
            out.push_str(",\"utilizations\":[");
            for (ri, (name, util)) in r.resources.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", json_str(name), json_num(*util)));
            }
            out.push_str("]}");
        }
        out.push_str("],\"knees\":[");
        for (ki, k) in fig.knees.iter().enumerate() {
            if ki > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"curve\":{},\"lo\":{},\"hi\":{},\"peak\":{{\"resource\":{},\"utilization\":{},\"nodes\":{}}},\"knee\":",
                json_str(&k.curve),
                k.lo,
                k.hi,
                json_str(&k.peak.0),
                json_num(k.peak.1),
                k.peak.2
            ));
            match &k.knee {
                None => out.push_str("null"),
                Some(knee) => {
                    out.push_str(&format!(
                        "{{\"below\":{},\"at\":{},\"resource\":{},\"utilization\":{},\"resp_ratio\":{},\"corroborated\":{}}}",
                        knee.below.map_or("null".to_string(), |n| n.to_string()),
                        knee.at,
                        json_str(&knee.resource),
                        json_num(knee.utilization),
                        json_num(knee.resp_ratio),
                        knee.corroborated
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// A finite float in `Display` form (`null` otherwise).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A string as a JSON string literal.
fn json_str(s: &str) -> String {
    Json::Str(s.to_string()).render_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    /// A row whose hottest node's CPU and network utilizations and
    /// mean response time are given; the other resources sit lower.
    fn report(cpu_max: f64, net: f64, resp: f64) -> Record {
        let mut r = sample("scale-smoke", 16, 1);
        r.curve = "PCL/NOFORCE".into();
        r.mean_response_ms = resp;
        r.resources = [
            ("cpu", cpu_max),
            ("gem", 0.0),
            ("lock-engine", 0.0),
            ("network", net),
            ("disk:ACCOUNT", 0.2),
            ("log", 0.1),
        ]
        .map(|(name, util)| (name.to_string(), util))
        .to_vec();
        r
    }

    fn at(nodes: u16, mut r: Record) -> Record {
        r.nodes = nodes;
        r
    }

    #[test]
    fn binding_is_argmax_next_is_runner_up() {
        let r = report(0.64, 0.71, 800.0);
        assert_eq!(r.constraints(), [("network", 0.71), ("cpu", 0.64)]);
    }

    #[test]
    fn ties_go_to_the_earlier_resource() {
        let r = report(0.8, 0.8, 100.0);
        assert_eq!(r.constraints(), [("cpu", 0.8), ("network", 0.8)]);
    }

    #[test]
    fn knee_detects_first_threshold_crossing() {
        let r50 = at(50, report(0.3, 0.35, 1_000.0));
        let r100 = at(100, report(0.5, 0.69, 6_600.0));
        let r200 = at(200, report(0.6, 0.999, 88_700.0));
        let knee =
            find_knee(&[&r50, &r100, &r200], SATURATION_THRESHOLD).expect("saturates at 200");
        assert_eq!(knee.below, Some(100));
        assert_eq!(knee.at, 200);
        assert_eq!(knee.resource, "network");
        assert!(knee.corroborated, "resp 6.6s -> 88.7s is a real knee");
        // Below-threshold curves have no knee.
        assert!(find_knee(&[&r50, &r100], SATURATION_THRESHOLD).is_none());
    }

    #[test]
    fn saturated_first_probe_has_no_below_point() {
        let hot = at(50, report(0.2, 0.99, 5_000.0));
        let knee = find_knee(&[&hot], SATURATION_THRESHOLD).unwrap();
        assert_eq!(knee.below, None);
        assert_eq!(knee.resp_ratio, 1.0);
        assert!(!knee.corroborated);
    }

    #[test]
    fn sidecar_is_valid_shape_and_render_is_stable() {
        let rows = vec![report(0.64, 0.71, 800.0)];
        let fig = explain_figure("scale-smoke", &rows, SATURATION_THRESHOLD);
        let text = fig.render();
        assert!(text.contains("binding"));
        assert!(text.contains("network"));
        assert!(text.contains("no knee in [16, 16]"));
        let json = sidecar_json(std::slice::from_ref(&fig));
        assert_eq!(json, sidecar_json(&[fig]));
        assert!(json.starts_with("{\"schema\":\"dbshare-explain/1\""));
        assert!(json.contains("\"binding\":\"network\""));
        assert!(json.contains("\"knee\":null"));
        // The sidecar parses as JSON and lists every resource in order.
        let doc = Json::parse(&json).expect("sidecar parses");
        let point = &doc.get("figures").and_then(Json::as_arr).unwrap()[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap()[0];
        let names: Vec<&str> = point
            .get("utilizations")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|pair| pair.as_arr().unwrap()[0].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "cpu",
                "gem",
                "lock-engine",
                "network",
                "disk:ACCOUNT",
                "log"
            ]
        );
    }

    #[test]
    fn curves_split_at_each_label_and_other_figures_are_skipped() {
        let mut rows = vec![
            at(1, report(0.3, 0.2, 50.0)),
            at(2, report(0.97, 0.2, 150.0)),
            at(1, report(0.1, 0.2, 50.0)),
        ];
        rows[2].curve = "GEM/NOFORCE".into();
        let mut other = report(0.5, 0.5, 50.0);
        other.figure = "fig41".into();
        rows.push(other);
        let fig = explain_figure("scale-smoke", &rows, SATURATION_THRESHOLD);
        assert_eq!(fig.points.len(), 3);
        let verdicts: Vec<String> = fig.knees.iter().map(CurveKnee::verdict).collect();
        assert_eq!(
            verdicts,
            [
                "PCL/NOFORCE: knee between n=1 and n=2: cpu reaches 97.0% (resp x3.00, corroborated)",
                "GEM/NOFORCE: no knee in [1, 1] (peak binding network 20.0% at n=1)",
            ]
        );
    }
}
