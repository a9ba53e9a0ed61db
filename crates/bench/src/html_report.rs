//! The experiment store's HTML report: the perf trajectory as a page.
//!
//! Sits next to [`chart`](crate::chart) (the per-figure SVG renderer)
//! but reads the *store*, not a single run: one section per figure
//! with a trend table over every recorded run (host event rate,
//! allocations/event, wall), inline sparklines for host events/s *and*
//! the simulated headline metrics (throughput TPS and mean response —
//! flat lines by construction, since results are bit-identical run to
//! run; any kink is a regression), a result-set hash that makes metric
//! drift visible at a glance (two runs with the same config column and
//! different result column produced different simulated results for
//! the same configuration), and the delta against the best comparable
//! earlier run — comparable meaning the same job set. Rendering is
//! pure string building over [`Record`]s — deterministic for a given
//! store, no timestamps of its own, so re-rendering an unchanged store
//! is byte-identical.

use dbshare_expstore::{fnv1a_hex, short_rev, FigureRun, Record};

/// Renders the full report page for `records` (append order).
pub fn render(records: &[Record]) -> String {
    let rows = dbshare_expstore::figure_runs(records);
    let mut figures: Vec<&str> = Vec::new();
    for row in &rows {
        if !figures.contains(&row.figure.as_str()) {
            figures.push(&row.figure);
        }
    }
    let runs = {
        let mut seen: Vec<&str> = Vec::new();
        for r in records {
            if !seen.contains(&r.run.as_str()) {
                seen.push(&r.run);
            }
        }
        seen
    };

    let mut out = String::with_capacity(16 * 1024);
    out.push_str(HEADER);
    out.push_str(&format!(
        "<h1>dbshare perf history</h1>\n<p class=\"meta\">{} recorded run(s), \
         {} figure(s), {} job row(s)</p>\n",
        runs.len(),
        figures.len(),
        records.len()
    ));

    for figure in figures {
        let fig_rows: Vec<&FigureRun> = rows.iter().filter(|r| r.figure == figure).collect();
        out.push_str(&format!("<h2>{}</h2>\n", escape(figure)));
        out.push_str(&sparklines(records, &fig_rows));
        out.push_str(
            "<table>\n<tr><th>run</th><th>when (UTC)</th><th>rev</th><th>jobs</th>\
             <th>events</th><th>wall s</th><th>events/s</th><th>allocs/ev</th>\
             <th>rss MB</th><th>binding</th><th>TPS</th><th>resp ms</th>\
             <th>config</th><th>results</th><th>vs best prior</th></tr>\n",
        );
        for (i, row) in fig_rows.iter().enumerate() {
            // Best *earlier* run of the identical job set: the store's
            // regression baseline.
            let best_prior = row.best_comparable(fig_rows[..i].iter().copied());
            let delta = match best_prior.map(FigureRun::events_per_sec) {
                None => "<td class=\"na\">&mdash;</td>".to_string(),
                Some(best) => {
                    let pct = (row.events_per_sec() / best - 1.0) * 100.0;
                    let class = if pct < -10.0 {
                        "bad"
                    } else if pct > 10.0 {
                        "good"
                    } else {
                        "flat"
                    };
                    format!("<td class=\"{class}\">{pct:+.1}%</td>")
                }
            };
            let (tps, resp) = sim_metrics(records, row);
            // Largest per-job peak RSS of the row, when sampled —
            // the memory trend of the scale presets.
            let rss = match row.peak_rss_mb {
                Some(mb) => format!("<td>{mb:.0}</td>"),
                None => "<td class=\"na\">&mdash;</td>".to_string(),
            };
            // The hottest job's binding constraint.
            let binding = format!(
                "<td>{} {:.0}%</td>",
                escape(&row.binding),
                row.binding_utilization * 100.0
            );
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{:.2}</td><td>{:.0}</td><td>{:.4}</td>\
                 {rss}{binding}<td>{tps:.1}</td><td>{resp:.1}</td>\
                 <td class=\"hash\">{}</td><td class=\"hash\">{}</td>{}</tr>\n",
                escape(&row.run),
                utc_datetime(row.created_unix),
                escape(short_rev(&row.git_revision)),
                row.jobs,
                row.events,
                row.wall_secs,
                row.events_per_sec(),
                row.allocs_per_event,
                &row.config_set[..8.min(row.config_set.len())],
                &result_set(records, row)[..8],
                delta,
            ));
        }
        out.push_str("</table>\n");
        out.push_str(&util_stack(records, figure));
    }
    out.push_str(FOOTER);
    out
}

/// The figure's utilization stack: per-resource fill bars for every
/// job of the figure's latest run, with the binding constraint's cell
/// bolded. The coupling facility (GEM or lock engine) and the disk
/// groups each show their hottest member.
fn util_stack(records: &[Record], figure: &str) -> String {
    let run = &records
        .iter()
        .rev()
        .find(|r| r.figure == figure)
        .expect("a reported figure has rows")
        .run;
    let mut out = String::new();
    out.push_str(&format!(
        "<p class=\"meta\">utilization stack of run {} (binding constraint in bold)</p>\n\
         <table>\n<tr><th>curve</th><th>n</th><th>cpu</th><th>coupling</th>\
         <th>network</th><th>disk</th><th>log</th></tr>\n",
        escape(run)
    ));
    let column = |name: &str| match name {
        "cpu" => 0,
        "gem" | "lock-engine" => 1,
        "network" => 2,
        "log" => 4,
        _ => 3, // disk:<group>
    };
    for r in records
        .iter()
        .filter(|r| r.figure == figure && &r.run == run)
    {
        let mut utils = [0.0f64; 5];
        for (name, util) in &r.resources {
            let u = &mut utils[column(name)];
            *u = u.max(*util);
        }
        let binding = column(r.constraints()[0].0);
        let cell = |(i, v): (usize, &f64)| {
            let pct = (v * 100.0).clamp(0.0, 100.0);
            format!(
                "<td class=\"{}\" style=\"background:linear-gradient(90deg,#bfdbfe {pct:.0}%,\
                 transparent {pct:.0}%)\">{pct:.0}%</td>",
                if i == binding { "bind" } else { "util" }
            )
        };
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td>{}</tr>\n",
            escape(&r.curve),
            r.nodes,
            utils.iter().enumerate().map(cell).collect::<String>(),
        ));
    }
    out.push_str("</table>\n");
    out
}

/// FNV over the figure-run's sorted `(config, metric)` fingerprint
/// pairs: equal iff the run produced bit-identical simulated results
/// for the identical job set.
fn result_set(records: &[Record], row: &FigureRun) -> String {
    let mut pairs: Vec<String> = records
        .iter()
        .filter(|r| r.run == row.run && r.figure == row.figure)
        .map(|r| format!("{}:{}", r.config_fingerprint, r.metric_fingerprint))
        .collect();
    pairs.sort_unstable();
    fnv1a_hex(&pairs.join(","))
}

/// Job-mean simulated headline metrics (throughput TPS, mean response
/// ms) of one figure-run's rows. Bit-identical run to run for an
/// unchanged job set, so the report plots them as drift alarms.
fn sim_metrics(records: &[Record], row: &FigureRun) -> (f64, f64) {
    let mut tps = 0.0;
    let mut resp = 0.0;
    let mut n = 0usize;
    for r in records
        .iter()
        .filter(|r| r.run == row.run && r.figure == row.figure)
    {
        tps += r.throughput_tps;
        resp += r.mean_response_ms;
        n += 1;
    }
    let n = n.max(1) as f64;
    (tps / n, resp / n)
}

/// One inline SVG polyline over `values` (index on x), labelled with
/// its range. Empty for fewer than two points.
fn spark_svg(values: &[f64], color: &str, label: &str, decimals: usize) -> String {
    if values.len() < 2 {
        return String::new();
    }
    let (w, h, pad) = (260.0f64, 40.0f64, 4.0f64);
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let points: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let x = pad + (w - 2.0 * pad) * i as f64 / (values.len() - 1) as f64;
            let y = h - pad - (h - 2.0 * pad) * (v - lo) / span;
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg class=\"spark\" width=\"{w:.0}\" height=\"{h:.0}\" \
         viewBox=\"0 0 {w:.0} {h:.0}\"><polyline points=\"{}\" fill=\"none\" \
         stroke=\"{color}\" stroke-width=\"1.5\"/></svg>\
         <span class=\"meta\"> {label}, {lo:.decimals$} &ndash; {hi:.decimals$}</span>\n",
        points.join(" "),
    )
}

/// The figure's sparkline block: host events/s and the simulated
/// headline metrics across runs.
fn sparklines(records: &[Record], rows: &[&FigureRun]) -> String {
    let mut out = String::new();
    let rates: Vec<f64> = rows.iter().map(|r| r.events_per_sec()).collect();
    out.push_str(&spark_svg(&rates, "#2563eb", "events/s", 0));
    let sims: Vec<(f64, f64)> = rows.iter().map(|r| sim_metrics(records, r)).collect();
    let tps: Vec<f64> = sims.iter().map(|(t, _)| *t).collect();
    let resp: Vec<f64> = sims.iter().map(|(_, r)| *r).collect();
    out.push_str(&spark_svg(&tps, "#15803d", "sim TPS (job mean)", 1));
    out.push_str(&spark_svg(
        &resp,
        "#b45309",
        "sim mean resp ms (job mean)",
        1,
    ));
    out
}

/// `seconds` since the Unix epoch as `YYYY-MM-DD HH:MM` UTC (civil
/// calendar arithmetic — no date dependency). Zero renders as `?`.
pub fn utc_datetime(seconds: u64) -> String {
    if seconds == 0 {
        return "?".to_string();
    }
    let days = (seconds / 86_400) as i64;
    let secs = seconds % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}",
        secs / 3600,
        (secs % 3600) / 60
    )
}

/// Minimal HTML escaping for text interpolated into the page.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

const HEADER: &str = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
<title>dbshare perf history</title>\n<style>\n\
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;padding:0 1rem;color:#111}\n\
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ddd}\n\
table{border-collapse:collapse;margin:0.5rem 0;font-variant-numeric:tabular-nums}\n\
th,td{padding:0.2rem 0.7rem;text-align:right;border-bottom:1px solid #eee}\n\
th{font-weight:600;background:#f8f8f8}td:first-child,th:first-child{text-align:left}\n\
.hash{font-family:ui-monospace,monospace;color:#555}\n\
.good{color:#15803d}.bad{color:#b91c1c;font-weight:600}.flat{color:#666}.na{color:#aaa}\n\
.bind{font-weight:700}\n\
.meta{color:#666}.spark{vertical-align:middle}\n\
</style>\n</head>\n<body>\n";

const FOOTER: &str = "</body>\n</html>\n";

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_expstore::{JobDetail, Provenance, Waits};

    fn rec(run: &str, unix: u64, figure: &str, nodes: u16, wall: f64, metric: &str) -> Record {
        Record {
            run: run.into(),
            created_unix: unix,
            provenance: Provenance {
                git_revision: format!("{run}revision000000"),
                rustc_version: "rustc".into(),
                build_profile: "release".into(),
            },
            figure: figure.into(),
            curve: "c".into(),
            nodes,
            seed: 1,
            host_cpus: 8,
            config_fingerprint: format!("cfg{figure}{nodes}"),
            metric_fingerprint: metric.into(),
            wall_secs: wall,
            events_processed: 100_000,
            allocs_per_event: 0.06,
            mean_response_ms: 50.0,
            throughput_tps: 100.0,
            peak_rss_mb: Some(64.0),
            resources: [
                ("cpu", 0.644),
                ("gem", 0.31),
                ("lock-engine", 0.0),
                ("network", 0.71),
                ("disk:ACCOUNT", 0.39),
                ("log", 0.1),
            ]
            .map(|(name, util)| (name.to_string(), util))
            .to_vec(),
            waits: Waits {
                input_ms: 0.0,
                lock_ms: 20.0,
                io_ms: 15.0,
                cpu_wait_ms: 1.0,
                cpu_service_ms: 14.0,
            },
            detail: JobDetail {
                host_allocs: 6_000,
                host_alloc_bytes: 384_000,
                peak_heap_bytes: 1_048_576,
                sim_seconds: 12.5,
                measured_txns: 2_500,
                norm_response_ms: 50.0,
                tps_per_node_at_80pct_cpu: 128.0,
                cpu_utilization: 0.644,
            },
        }
    }

    #[test]
    fn report_is_deterministic_and_covers_every_figure() {
        let records = vec![
            rec("r1", 1_754_000_000, "fig41", 1, 2.0, "m1"),
            rec("r1", 1_754_000_000, "fig45", 1, 2.0, "m2"),
            rec("r2", 1_754_100_000, "fig41", 1, 1.0, "m1"),
        ];
        let page = render(&records);
        assert_eq!(page, render(&records), "rendering is not deterministic");
        assert!(page.contains("<h2>fig41</h2>") && page.contains("<h2>fig45</h2>"));
        // r2 doubled fig41's event rate over r1: +100% vs best prior.
        assert!(page.contains("+100.0%"), "missing delta: {page}");
        // Same results => same result-set hash in both fig41 rows.
        let hash_cells: Vec<&str> = page.matches("class=\"hash\"").collect();
        assert_eq!(hash_cells.len(), 6, "two hash cells per row");
        // Sampled peak RSS lands in its own column.
        assert!(page.contains("<th>rss MB</th>"), "missing RSS column");
        assert!(page.contains("<td>64</td>"), "missing RSS cell: {page}");
        // fig41's two runs draw host and simulated-metric sparklines.
        assert!(page.contains("sim TPS"), "missing TPS sparkline: {page}");
        assert!(
            page.contains("sim mean resp"),
            "missing response sparkline: {page}"
        );
        // Escapes interpolated text.
        assert!(!page.contains("<script"), "sanity");
    }

    #[test]
    fn missing_rss_samples_render_as_dashes() {
        let mut unsampled = rec("r1", 1_754_000_000, "fig41", 1, 2.0, "m1");
        unsampled.peak_rss_mb = None;
        let page = render(&[unsampled]);
        // One dash each for the missing baseline delta and the RSS —
        // never a zero.
        assert_eq!(page.matches("class=\"na\"").count(), 2, "{page}");
    }

    #[test]
    fn binding_column_and_utilization_stack_render() {
        let page = render(&[rec("r1", 1_754_000_000, "fig41", 64, 2.0, "m1")]);
        assert!(page.contains("<th>binding</th>"), "{page}");
        assert!(page.contains("<td>network 71%</td>"), "{page}");
        assert!(page.contains("utilization stack of run r1"), "{page}");
        // The binding resource's stack cell is bolded; exactly one per
        // attributed job row.
        assert_eq!(page.matches("class=\"bind\"").count(), 1, "{page}");
    }

    #[test]
    fn utc_datetime_matches_known_instants() {
        assert_eq!(utc_datetime(0), "?");
        assert_eq!(utc_datetime(86_400), "1970-01-02 00:00");
        assert_eq!(utc_datetime(1_786_492_800), "2026-08-12 00:00");
        assert_eq!(utc_datetime(1_754_006_400), "2025-08-01 00:00");
    }
}
