//! A small, dependency-free SVG line-chart renderer used by the
//! `repro` binary to draw the paper's figures (`--svg DIR`).
//!
//! Deliberately minimal: numeric x/y axes with "nice" ticks, one
//! polyline + marker set per series, and a legend. Enough to eyeball
//! the reproduced figures against the paper's.

use std::fmt::Write as _;

/// Chart margins and layout constants (pixels).
const MARGIN_LEFT: f64 = 64.0;
const MARGIN_RIGHT: f64 = 210.0;
const MARGIN_TOP: f64 = 40.0;
const MARGIN_BOTTOM: f64 = 48.0;

/// A distinguishable line color palette.
const PALETTE: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
];

/// An x/y line chart with one or more named series.
///
/// ```rust
/// use dbshare_bench::chart::Chart;
/// let mut c = Chart::new("Fig. X", "nodes", "response [ms]");
/// c.add_series("GEM", vec![(1.0, 70.0), (5.0, 72.0), (10.0, 74.0)]);
/// let svg = c.render(640, 400);
/// assert!(svg.contains("<svg") && svg.contains("GEM"));
/// ```
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Chart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a named series of `(x, y)` points (drawn in the given order).
    pub fn add_series(&mut self, name: &str, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.to_string(), points));
        self
    }

    /// Renders to an SVG document string.
    ///
    /// # Panics
    ///
    /// Panics if no series with at least one point was added, or if any
    /// coordinate is not finite.
    pub fn render(&self, width: u32, height: u32) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        assert!(!pts.is_empty(), "chart has no data");
        for &(x, y) in &pts {
            assert!(x.is_finite() && y.is_finite(), "non-finite point ({x},{y})");
        }
        let (x_min, x_max) = bounds(pts.iter().map(|p| p.0));
        // y axis starts at zero (the paper's response-time charts do)
        let (_, y_raw_max) = bounds(pts.iter().map(|p| p.1));
        let y_ticks = nice_ticks(0.0, y_raw_max.max(1e-9), 6);
        let y_max = *y_ticks.last().expect("ticks non-empty");
        let x_ticks = nice_ticks(x_min, x_max.max(x_min + 1e-9), 8);
        let x_lo = *x_ticks.first().expect("ticks non-empty");
        let x_hi = *x_ticks.last().expect("ticks non-empty");

        let w = width as f64;
        let h = height as f64;
        let plot_w = w - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = h - MARGIN_TOP - MARGIN_BOTTOM;
        let sx = |x: f64| MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo).max(1e-12) * plot_w;
        let sy = |y: f64| MARGIN_TOP + plot_h - y / y_max.max(1e-12) * plot_h;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">"#
        );
        let _ = write!(
            svg,
            r#"<rect width="{width}" height="{height}" fill="white"/>"#
        );
        // title
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="22" font-size="15" font-weight="bold">{}</text>"#,
            MARGIN_LEFT,
            escape(&self.title)
        );
        // axes
        let _ = write!(
            svg,
            r#"<line x1="{l:.1}" y1="{b:.1}" x2="{r:.1}" y2="{b:.1}" stroke="black"/><line x1="{l:.1}" y1="{t:.1}" x2="{l:.1}" y2="{b:.1}" stroke="black"/>"#,
            l = MARGIN_LEFT,
            r = MARGIN_LEFT + plot_w,
            t = MARGIN_TOP,
            b = MARGIN_TOP + plot_h,
        );
        // ticks + grid
        for &tx in &x_ticks {
            let x = sx(tx);
            let _ = write!(
                svg,
                r#"<line x1="{x:.1}" y1="{b:.1}" x2="{x:.1}" y2="{b2:.1}" stroke="black"/><text x="{x:.1}" y="{ty:.1}" text-anchor="middle">{}</text>"#,
                fmt_num(tx),
                b = MARGIN_TOP + plot_h,
                b2 = MARGIN_TOP + plot_h + 5.0,
                ty = MARGIN_TOP + plot_h + 18.0,
            );
        }
        for &ty in &y_ticks {
            let y = sy(ty);
            let _ = write!(
                svg,
                r##"<line x1="{l:.1}" y1="{y:.1}" x2="{r:.1}" y2="{y:.1}" stroke="#dddddd"/><text x="{tx:.1}" y="{yy:.1}" text-anchor="end">{}</text>"##,
                fmt_num(ty),
                l = MARGIN_LEFT,
                r = MARGIN_LEFT + plot_w,
                tx = MARGIN_LEFT - 8.0,
                yy = y + 4.0,
            );
        }
        // axis labels
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
            MARGIN_LEFT + plot_w / 2.0,
            h - 10.0,
            escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{:.1}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
            MARGIN_TOP + plot_h / 2.0,
            MARGIN_TOP + plot_h / 2.0,
            escape(&self.y_label)
        );
        // series
        for (i, (name, points)) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let dash = if i >= PALETTE.len() {
                r#" stroke-dasharray="6 3""#
            } else {
                ""
            };
            let path: Vec<String> = points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect();
            let _ = write!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"{dash}/>"#,
                path.join(" ")
            );
            for &(x, y) in points {
                let _ = write!(
                    svg,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="2.6" fill="{color}"/>"#,
                    sx(x),
                    sy(y)
                );
            }
            // legend entry
            let ly = MARGIN_TOP + 14.0 * i as f64 + 8.0;
            let lx = MARGIN_LEFT + plot_w + 12.0;
            let _ = write!(
                svg,
                r#"<line x1="{lx:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="1.8"{dash}/><text x="{:.1}" y="{:.1}">{}</text>"#,
                lx + 18.0,
                lx + 24.0,
                ly + 4.0,
                escape(name)
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

fn bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// "Nice numbers" tick generation (1/2/5 × 10^k steps) covering
/// `[lo, hi]` with about `n` ticks.
fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(hi > lo, "degenerate range");
    let span = hi - lo;
    let raw_step = span / n.max(2) as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    } * mag;
    let start = (lo / step).floor() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t < hi + step * 0.999 {
        // avoid -0.0 and float crumbs
        let v = (t / step).round() * step;
        ticks.push(if v == 0.0 { 0.0 } else { v });
        t += step;
    }
    ticks
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e9 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_basic_chart() {
        let mut c = Chart::new("T", "x", "y");
        c.add_series("a", vec![(1.0, 10.0), (2.0, 20.0)]);
        c.add_series("b", vec![(1.0, 5.0), (2.0, 8.0)]);
        let svg = c.render(640, 400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">a</text>") && svg.contains(">b</text>"));
        assert_eq!(svg.matches("<circle").count(), 4);
        assert_eq!(c.series.len(), 2);
    }

    #[test]
    fn y_axis_starts_at_zero() {
        let mut c = Chart::new("T", "x", "y");
        c.add_series("a", vec![(1.0, 100.0), (2.0, 120.0)]);
        let svg = c.render(640, 400);
        assert!(svg.contains(">0</text>"), "zero tick missing");
    }

    #[test]
    fn ticks_are_nice_numbers() {
        let t = nice_ticks(0.0, 97.0, 6);
        assert_eq!(t, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let t = nice_ticks(1.0, 10.0, 8);
        assert!(t
            .iter()
            .all(|v| (v / 2.0).fract().abs() < 1e-9 || (v / 1.0).fract().abs() < 1e-9));
        assert!(*t.first().expect("non-empty") <= 1.0);
        assert!(*t.last().expect("non-empty") >= 10.0);
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut c = Chart::new("a<b & c", "x", "y");
        c.add_series("s<1>", vec![(0.0, 1.0)]);
        let svg = c.render(320, 200);
        assert!(svg.contains("a&lt;b &amp; c"));
        assert!(svg.contains("s&lt;1&gt;"));
        assert!(!svg.contains("s<1>"));
    }

    #[test]
    fn single_point_series_render() {
        let mut c = Chart::new("T", "x", "y");
        c.add_series("dot", vec![(5.0, 5.0)]);
        let svg = c.render(320, 200);
        assert!(svg.contains("<circle"));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_chart_panics() {
        Chart::new("T", "x", "y").render(320, 200);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_point_panics() {
        let mut c = Chart::new("T", "x", "y");
        c.add_series("bad", vec![(0.0, f64::NAN)]);
        c.render(320, 200);
    }
}
