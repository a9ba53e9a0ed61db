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
use dbshare_harness::{Harness, Sweep};

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "figures".into());
    std::fs::create_dir_all(&dir).expect("create output directory");
    let nodes = [1u16, 2, 4, 6, 8, 10];
    let run = RunLength::quick();

    // One pool run covers both figures; per-job progress goes to
    // stderr, and the reassembled series are identical to running
    // each grid with experiments::run_grid_serial.
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
    for series in outcome.series_for("fig41").expect("fig41 was submitted") {
        fig41.add_series(
            &series.label,
            series
                .points
                .iter()
                .map(|(n, r)| (*n as f64, r.mean_response_ms))
                .collect(),
        );
    }
    let path = format!("{dir}/fig41.svg");
    std::fs::write(&path, fig41.render(860, 480)).expect("write svg");
    println!("wrote {path}");

    // Fig. 4.6: throughput per node at 80% CPU.
    let mut fig46 = Chart::new(
        "Fig. 4.6 - throughput per node at 80% CPU utilization (buffer 1000)",
        "nodes",
        "TPS per node at 80% CPU",
    );
    for series in outcome.series_for("fig46").expect("fig46 was submitted") {
        fig46.add_series(
            &series.label,
            series
                .points
                .iter()
                .map(|(n, r)| (*n as f64, r.tps_per_node_at_80pct_cpu))
                .collect(),
        );
    }
    let path = format!("{dir}/fig46.svg");
    std::fs::write(&path, fig46.render(860, 480)).expect("write svg");
    println!("wrote {path}");

    println!(
        "\nOpen the SVGs in a browser; compare against the shapes in\n\
         EXPERIMENTS.md. The full-length versions come from:\n\
         cargo run --release -p dbshare-bench --bin repro -- --svg {dir}"
    );
}
