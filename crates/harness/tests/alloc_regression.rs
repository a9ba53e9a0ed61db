//! Allocation-regression test: the measured phase of the engine must
//! stay (near-)allocation-free. This test binary installs the counting
//! allocator, runs one quick figure through the job pool, and pins the
//! allocations-per-event ratio under a ceiling with plenty of headroom
//! over today's number but far below where it was before buffer
//! pooling — a hot-path change that reintroduces per-transaction or
//! per-message allocation trips it immediately.
//!
//! Allocation counts are deterministic for a given build (the
//! simulation is single-threaded per job and allocator traffic is
//! counted thread-locally), so the ceiling does not flake.

#[global_allocator]
static ALLOC: dbshare_harness::CountingAlloc = dbshare_harness::CountingAlloc;

use dbshare_harness::{Harness, Sweep};
use dbshare_sim::experiments::{fig41_grid, RunLength};

/// Generous ceiling: the release build measures ~0.019 allocs/event on
/// this figure; before the pooling work it was ~0.47.
const MAX_ALLOCS_PER_EVENT: f64 = 0.10;

#[test]
fn steady_state_allocations_stay_bounded() {
    let sweeps = vec![Sweep {
        figure: "fig4.1".into(),
        grid: fig41_grid(&[2], RunLength::quick()),
    }];
    let outcome = Harness::new().workers(1).run(sweeps);
    assert!(!outcome.results.is_empty());

    let mut allocs = 0u64;
    let mut events = 0u64;
    for r in &outcome.results {
        allocs += r.report.profile.host_allocs;
        events += r.report.events_processed;
    }
    // The allocator is installed in this binary, so the counters must
    // actually move — engine construction alone allocates.
    assert!(allocs > 0, "counting allocator not active");
    assert!(events > 0);

    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "allocation regression: {per_event:.4} allocs/event over {events} events \
         (ceiling {MAX_ALLOCS_PER_EVENT}) — a hot path started allocating"
    );
}
