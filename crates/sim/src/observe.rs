//! Run observation: tracing and timeline-sampling configuration plus
//! the data the engine hands back when observation is enabled.
//!
//! Observation is strictly opt-in. A default [`Observe`] leaves the
//! engine on the exact event stream and allocation profile of an
//! unobserved run; enabling it adds trace records and/or periodic
//! `TimelineSample` calendar events, all stamped with *simulated* time
//! so the outputs are bit-reproducible across runs, hosts, and worker
//! counts.

use desim::trace::TraceEvent;
use desim::{SimDuration, SimTime};

/// What to observe during a run. `Default` observes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observe {
    /// Sample a timeline window every this much simulated time
    /// (`None` = no timeline). Windows are aligned to the measurement
    /// window: the first opens at end of warm-up.
    pub timeline_every: Option<SimDuration>,
    /// Collect structured trace events ([`desim::trace::TraceEvent`]).
    pub trace: bool,
}

impl Observe {
    /// The default timeline window width (500 ms of simulated time).
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(500);

    /// Everything on, with the default timeline window.
    pub fn full() -> Self {
        Observe {
            timeline_every: Some(Self::DEFAULT_WINDOW),
            trace: true,
        }
    }
}

/// One timeline window: exact event-count deltas over the window plus
/// instantaneous occupancy and windowed utilization at its close.
///
/// Count fields are differences of the engine's `u64` counters, so
/// summing them across all windows of a run reproduces the end-of-run
/// totals exactly (the conservation property the tests pin).
/// Utilizations attribute device busy time to the window a request was
/// *issued* in (service is accrued at offer time), which is exact in
/// total and deterministic per window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineWindow {
    /// Window start (simulated time).
    pub start: SimTime,
    /// Window width (the last window of a run may be partial).
    pub width: SimDuration,
    /// Transactions committed in the window.
    pub committed: u64,
    /// Lock requests issued.
    pub lock_requests: u64,
    /// Lock requests that had to wait.
    pub lock_waits: u64,
    /// Storage page reads issued.
    pub storage_reads: u64,
    /// Commit-time force writes issued.
    pub commit_writes: u64,
    /// Commit log writes issued.
    pub log_writes: u64,
    /// Replacement write-backs issued.
    pub evict_writes: u64,
    /// Pages transferred node-to-node (or through GEM).
    pub page_transfers: u64,
    /// Transactions aborted (deadlock + timeout + crash).
    pub aborts: u64,
    /// Buffer hits across all nodes and partitions.
    pub buffer_hits: u64,
    /// Buffer misses across all nodes and partitions.
    pub buffer_misses: u64,
    /// Buffer lookups that found an invalidated copy, across all nodes
    /// and partitions.
    pub buffer_invalidations: u64,
    /// Summed response time of transactions committed in the window
    /// (nanoseconds; divide by `committed` for the window mean).
    pub resp_ns: u64,
    /// Summed input-queue wait of committed transactions (ns).
    pub input_ns: u64,
    /// Summed lock wait of committed transactions (ns).
    pub lock_ns: u64,
    /// Summed I/O wait of committed transactions (ns).
    pub io_ns: u64,
    /// Summed CPU queueing wait of committed transactions (ns).
    pub cpu_wait_ns: u64,
    /// Summed CPU service of committed transactions (ns).
    pub cpu_service_ns: u64,
    /// MPL slots in use across nodes at the window close
    /// (instantaneous). `u64`: a 200-node scale run sums per-node
    /// gauges system-wide, so the window types must not assume the
    /// totals fit a node-sized integer.
    pub mpl_in_use: u64,
    /// Transactions queued for an MPL slot at the window close.
    pub mpl_queue: u64,
    /// Live transactions in a lock wait at the window close.
    pub lock_wait_depth: u64,
    /// Per-node CPU utilization over the window.
    pub cpu_util: Vec<f64>,
    /// GEM server utilization over the window.
    pub gem_util: f64,
    /// Database-disk (and cache-controller) utilization over the window.
    pub disk_util: f64,
    /// Network utilization over the window.
    pub net_util: f64,
    /// Log-disk utilization over the window.
    pub log_util: f64,
}

/// Everything observation collected during one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Observations {
    /// Timeline windows in order (empty unless a timeline was enabled).
    pub timeline: Vec<TimelineWindow>,
    /// Trace events in emission order (empty unless tracing was
    /// enabled).
    pub trace: Vec<TraceEvent>,
}
