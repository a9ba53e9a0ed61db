//! Regenerates two headline figures at reduced scale and writes them as
//! SVG charts — the same rendering the `repro` binary uses with
//! `--svg`, shown here through the library API. Both figures' runs are
//! flattened into one job list and executed on the `dbshare-harness`
//! worker pool, exactly like `repro` does.
//!
//! ```text
//! cargo run --release --example paper_figures [output-dir]
//! ```

use dbshare::prelude::*;
use dbshare_bench::chart::Chart;
use dbshare_harness::{Harness, Outcome, Record, Sweep};

/// Adds one chart series per curve of `figure`: its runs of consecutive
/// rows with one curve label, each point `(nodes, metric(row))`.
fn add_curves(chart: &mut Chart, outcome: &Outcome, figure: &str, metric: fn(&Record) -> f64) {
    let rows: Vec<&Record> = outcome
        .records
        .iter()
        .filter(|r| r.figure == figure)
        .collect();
    for curve in rows.chunk_by(|a, b| a.curve == b.curve) {
        chart.add_series(
            &curve[0].curve,
            curve
                .iter()
                .map(|r| (f64::from(r.nodes), metric(r)))
                .collect(),
        );
    }
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "figures".into());
    std::fs::create_dir_all(&dir).expect("create output directory");
    let nodes = [1u16, 2, 4, 6, 8, 10];
    let run = RunLength::quick();

    // One pool run covers both figures; per-job progress goes to
    // stderr, and the charts render from the run's store rows, in the
    // grids' order for any worker count.
    let outcome = Harness::new().progress(true).run(vec![
        Sweep {
            figure: "fig41".into(),
            grid: experiments::fig41_grid(&nodes, run),
        },
        Sweep {
            figure: "fig46".into(),
            grid: experiments::fig46_grid(&nodes, run),
        },
    ]);

    // Fig. 4.1: GEM locking, routing × update strategy.
    let mut fig41 = Chart::new(
        "Fig. 4.1 - GEM locking: routing x update strategy (buffer 200)",
        "nodes",
        "mean response time [ms]",
    );
    add_curves(&mut fig41, &outcome, "fig41", |r| r.mean_response_ms);
    let path = format!("{dir}/fig41.svg");
    std::fs::write(&path, fig41.render(860, 480)).expect("write svg");
    println!("wrote {path}");

    // Fig. 4.6: throughput per node at 80% CPU.
    let mut fig46 = Chart::new(
        "Fig. 4.6 - throughput per node at 80% CPU utilization (buffer 1000)",
        "nodes",
        "TPS per node at 80% CPU",
    );
    add_curves(&mut fig46, &outcome, "fig46", |r| {
        r.detail.tps_per_node_at_80pct_cpu
    });
    let path = format!("{dir}/fig46.svg");
    std::fs::write(&path, fig46.render(860, 480)).expect("write svg");
    println!("wrote {path}");

    println!(
        "\nOpen the SVGs in a browser; compare against the shapes in\n\
         EXPERIMENTS.md. The full-length versions come from:\n\
         cargo run --release -p dbshare-bench --bin repro -- --svg {dir}"
    );
}
