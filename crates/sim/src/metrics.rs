//! Measurement collection and the end-of-run report.

use dbshare_node::buffer::BufferCounters;
use desim::stats::{BatchMeans, DurationHistogram, RunningStat};
use desim::{SimDuration, SimTime};
use std::fmt;

/// Observations per batch for the batch-means confidence interval.
const BATCH: u64 = 200;

/// Accumulators filled during the measurement window.
#[derive(Debug)]
pub(crate) struct Metrics {
    /// Response times (arrival → commit) in milliseconds.
    pub resp: RunningStat,
    /// Batch means over response times (95% confidence half-width).
    pub resp_batches: BatchMeans,
    /// Response-time histogram for percentiles.
    pub resp_hist: DurationHistogram,
    /// Input-queue (MPL) waiting time.
    pub input_wait: RunningStat,
    /// Per-transaction lock waiting time.
    pub lock_wait: RunningStat,
    /// Per-transaction I/O waiting time (storage reads, page transfers,
    /// commit writes).
    pub io_wait: RunningStat,
    /// Per-transaction CPU queueing time.
    pub cpu_wait: RunningStat,
    /// Per-transaction CPU service time (incl. synchronous GEM holds).
    pub cpu_service: RunningStat,
    /// Delay from page request send to page installation (§4.2 footnote:
    /// ≈6.5 ms vs >16.4 ms for a disk access).
    pub page_req_delay: RunningStat,
    /// Per-transaction response time divided by its reference count
    /// (used for the §4.6 "artificial average transaction" metric).
    pub resp_per_ref: RunningStat,
    /// Total page references of measured transactions.
    pub refs_completed: u64,
    /// Measurement window start.
    pub started: SimTime,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            resp: RunningStat::default(),
            resp_batches: BatchMeans::new(BATCH),
            resp_hist: DurationHistogram::default(),
            input_wait: RunningStat::default(),
            lock_wait: RunningStat::default(),
            io_wait: RunningStat::default(),
            cpu_wait: RunningStat::default(),
            cpu_service: RunningStat::default(),
            page_req_delay: RunningStat::default(),
            resp_per_ref: RunningStat::default(),
            refs_completed: 0,
            started: SimTime::ZERO,
        }
    }
}

impl Metrics {
    #[allow(clippy::too_many_arguments)] // one bucket per wait class
    pub(crate) fn record_completion(
        &mut self,
        resp: SimDuration,
        refs: usize,
        input_wait: SimDuration,
        lock_wait: SimDuration,
        io_wait: SimDuration,
        cpu_wait: SimDuration,
        cpu_service: SimDuration,
    ) {
        self.resp.record_dur_ms(resp);
        self.resp_batches.record(resp.as_millis_f64());
        self.resp_hist.record(resp);
        self.input_wait.record_dur_ms(input_wait);
        self.lock_wait.record_dur_ms(lock_wait);
        self.io_wait.record_dur_ms(io_wait);
        self.cpu_wait.record_dur_ms(cpu_wait);
        self.cpu_service.record_dur_ms(cpu_service);
        self.resp_per_ref
            .record(resp.as_millis_f64() / refs.max(1) as f64);
        self.refs_completed += refs as u64;
    }
}

/// Every integer count the report and the timeline read. Each is
/// counted over the whole run at the one engine hook where its event
/// happens, and windowed only by [`since`](Counters::since): against
/// the warm-up snapshot for the report, against the previous tick for
/// the timeline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Counters {
    pub committed: u64,
    /// Commits of transactions that modified a page.
    pub update_commits: u64,
    pub lock_requests: u64,
    /// Requests at a PCL lock authority from its own node.
    pub gla_local_requests: u64,
    /// Requests at a PCL lock authority from another node.
    pub gla_remote_requests: u64,
    pub ra_local_grants: u64,
    pub lock_waits: u64,
    pub page_requests: u64,
    pub page_transfers: u64,
    pub storage_reads: u64,
    pub commit_writes: u64,
    pub log_writes: u64,
    pub evict_writes: u64,
    pub messages: u64,
    /// Synchronous GEM lock-table entry accesses.
    pub gem_entries: u64,
    pub deadlock_aborts: u64,
    pub timeout_aborts: u64,
    pub crash_aborts: u64,
    pub revokes_sent: u64,
    /// Buffer lookups by partition, on every node.
    pub buffer: Vec<BufferCounters>,
    /// Per-commit sums in nanoseconds: response time, then its input,
    /// lock, I/O and CPU waits and CPU service.
    pub resp_ns: u64,
    pub input_ns: u64,
    pub lock_ns: u64,
    pub io_ns: u64,
    pub cpu_wait_ns: u64,
    pub cpu_service_ns: u64,
}

impl Counters {
    /// Zero counts for a database of `partitions` partitions.
    pub(crate) fn new(partitions: usize) -> Counters {
        Counters {
            buffer: vec![BufferCounters::default(); partitions],
            ..Counters::default()
        }
    }

    /// Counter delta `self - base` (the totals of a window).
    pub(crate) fn since(&self, base: &Counters) -> Counters {
        Counters {
            committed: self.committed - base.committed,
            update_commits: self.update_commits - base.update_commits,
            lock_requests: self.lock_requests - base.lock_requests,
            gla_local_requests: self.gla_local_requests - base.gla_local_requests,
            gla_remote_requests: self.gla_remote_requests - base.gla_remote_requests,
            ra_local_grants: self.ra_local_grants - base.ra_local_grants,
            lock_waits: self.lock_waits - base.lock_waits,
            page_requests: self.page_requests - base.page_requests,
            page_transfers: self.page_transfers - base.page_transfers,
            storage_reads: self.storage_reads - base.storage_reads,
            commit_writes: self.commit_writes - base.commit_writes,
            log_writes: self.log_writes - base.log_writes,
            evict_writes: self.evict_writes - base.evict_writes,
            messages: self.messages - base.messages,
            gem_entries: self.gem_entries - base.gem_entries,
            deadlock_aborts: self.deadlock_aborts - base.deadlock_aborts,
            timeout_aborts: self.timeout_aborts - base.timeout_aborts,
            crash_aborts: self.crash_aborts - base.crash_aborts,
            revokes_sent: self.revokes_sent - base.revokes_sent,
            buffer: self
                .buffer
                .iter()
                .zip(&base.buffer)
                .map(|(c, b)| BufferCounters {
                    hits: c.hits - b.hits,
                    misses: c.misses - b.misses,
                    invalidations: c.invalidations - b.invalidations,
                })
                .collect(),
            resp_ns: self.resp_ns - base.resp_ns,
            input_ns: self.input_ns - base.input_ns,
            lock_ns: self.lock_ns - base.lock_ns,
            io_ns: self.io_ns - base.io_ns,
            cpu_wait_ns: self.cpu_wait_ns - base.cpu_wait_ns,
            cpu_service_ns: self.cpu_service_ns - base.cpu_service_ns,
        }
    }

    /// Buffer lookups summed over the partitions.
    pub(crate) fn buffer_total(&self) -> BufferCounters {
        let mut total = BufferCounters::default();
        for c in &self.buffer {
            total.hits += c.hits;
            total.misses += c.misses;
            total.invalidations += c.invalidations;
        }
        total
    }
}

/// Always-on event-loop profile: how many calendar events of each kind
/// the run processed and which subsystems their continuations
/// dispatched into. Counts cover the whole run (including warm-up) and
/// mirror the deterministic event stream, so two runs of the same
/// configuration produce identical profiles; wall-clock-derived rates
/// (events per second) live in the harness's store rows, not here.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunProfile {
    /// `Arrival` events (open-system source admissions).
    pub arrivals: u64,
    /// `Restart` events (re-admissions after deadlock/crash aborts).
    pub restarts: u64,
    /// `CpuDone` events (CPU bursts finished).
    pub cpu_done: u64,
    /// `GemHeldDone` events (synchronous GEM tails holding the CPU).
    pub gem_held_done: u64,
    /// `IoDone` events (storage, log, and transfer completions).
    pub io_done: u64,
    /// `Delivered` events (network message deliveries).
    pub delivered: u64,
    /// Periodic deadlock/timeout scan ticks.
    pub deadlock_scans: u64,
    /// `NodeCrash` + `NodeRecovered` failure-injection events.
    pub crash_events: u64,
    /// Timeline sampling ticks (zero unless a timeline is requested —
    /// sampling is scheduled only when observation is enabled, so the
    /// disabled event stream is untouched).
    pub timeline_samples: u64,
    /// Continuations dispatched into the transaction lifecycle
    /// (BOT, object access, commit initiation).
    pub cont_lifecycle: u64,
    /// Continuations dispatched into the lock protocols (GEM + PCL).
    pub cont_locking: u64,
    /// Continuations dispatched into messaging (send/receive handlers).
    pub cont_messaging: u64,
    /// Continuations dispatched into storage, buffer, and transfer I/O.
    pub cont_storage: u64,
    /// Host heap allocations performed while executing the run
    /// (`alloc` + `realloc` calls). Filled in by the harness when a
    /// counting global allocator is installed (`repro` binary); zero
    /// otherwise. Deterministic for a given build: the same job
    /// performs the same allocation sequence every time.
    pub host_allocs: u64,
    /// Host heap bytes requested while executing the run. Same caveats
    /// as [`host_allocs`](Self::host_allocs).
    pub host_alloc_bytes: u64,
    /// Peak host heap bytes the run held live above what its thread
    /// held when it started; a merged profile keeps the largest. Same
    /// caveats as [`host_allocs`](Self::host_allocs).
    pub peak_heap_bytes: u64,
}

impl RunProfile {
    /// Accumulates `other` into `self` (used to aggregate the profiles
    /// of many runs into one figure- or suite-level summary).
    pub fn merge(&mut self, other: &RunProfile) {
        self.arrivals += other.arrivals;
        self.restarts += other.restarts;
        self.cpu_done += other.cpu_done;
        self.gem_held_done += other.gem_held_done;
        self.io_done += other.io_done;
        self.delivered += other.delivered;
        self.deadlock_scans += other.deadlock_scans;
        self.crash_events += other.crash_events;
        self.timeline_samples += other.timeline_samples;
        self.cont_lifecycle += other.cont_lifecycle;
        self.cont_locking += other.cont_locking;
        self.cont_messaging += other.cont_messaging;
        self.cont_storage += other.cont_storage;
        self.host_allocs += other.host_allocs;
        self.host_alloc_bytes += other.host_alloc_bytes;
        self.peak_heap_bytes = self.peak_heap_bytes.max(other.peak_heap_bytes);
    }

    /// Host heap allocations per processed calendar event — the
    /// steady-state allocator pressure this profile saw. Zero when no
    /// counting allocator was installed.
    pub fn allocs_per_event(&self) -> f64 {
        let events = self.events_total();
        if events == 0 {
            0.0
        } else {
            self.host_allocs as f64 / events as f64
        }
    }

    /// Total calendar events processed (sum of the per-type counts).
    pub fn events_total(&self) -> u64 {
        self.arrivals
            + self.restarts
            + self.cpu_done
            + self.gem_held_done
            + self.io_done
            + self.delivered
            + self.deadlock_scans
            + self.crash_events
            + self.timeline_samples
    }
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  events: {} (arrival {} restart {} cpu {} gem-held {} io {} msg {} scan {} crash {} sample {})",
            self.events_total(),
            self.arrivals,
            self.restarts,
            self.cpu_done,
            self.gem_held_done,
            self.io_done,
            self.delivered,
            self.deadlock_scans,
            self.crash_events,
            self.timeline_samples,
        )?;
        write!(
            f,
            "  conts: lifecycle {} locking {} messaging {} storage {}",
            self.cont_lifecycle, self.cont_locking, self.cont_messaging, self.cont_storage,
        )
    }
}

/// Everything a simulation run reports. Field units are embedded in the
/// names; "per_txn" denominators are measured commits.
/// (`Default` exists for tests that synthesize partial reports.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Number of processing nodes.
    pub nodes: u16,
    /// Committed transactions in the measurement window.
    pub measured_txns: u64,
    /// True if the run hit `RunControl::max_sim_secs` before reaching
    /// its measured-transaction target (overload).
    pub truncated: bool,
    /// Length of the measurement window in simulated seconds.
    pub sim_seconds: f64,
    /// Measured throughput in transactions per second (system-wide).
    pub throughput_tps: f64,
    /// Mean transaction response time in milliseconds.
    pub mean_response_ms: f64,
    /// Half-width of the 95% confidence interval on the mean response
    /// time (batch means over batches of 200 transactions; `None` with
    /// fewer than two complete batches).
    pub response_ci95_ms: Option<f64>,
    /// Median response time.
    pub p50_response_ms: f64,
    /// 95th-percentile response time.
    pub p95_response_ms: f64,
    /// Response time normalized to a transaction of the workload's
    /// average size (the §4.6 reporting convention; equals
    /// `mean_response_ms` for fixed-size workloads).
    pub norm_response_ms: f64,
    /// Mean input-queue wait (should be ≈0 with the paper's MPL).
    pub input_wait_ms: f64,
    /// Mean per-transaction lock wait.
    pub lock_wait_ms: f64,
    /// Mean per-transaction I/O wait (reads, page transfers, commit
    /// writes) — the response-time composition the paper reports.
    pub io_wait_ms: f64,
    /// Mean per-transaction CPU queueing time.
    pub cpu_wait_ms: f64,
    /// Mean per-transaction CPU service time.
    pub cpu_service_ms: f64,
    /// Average CPU utilization across nodes.
    pub cpu_utilization: f64,
    /// Highest per-node CPU utilization (imbalance indicator, §4.6).
    pub cpu_utilization_max: f64,
    /// CPU utilization of each node (§4.6 reports "some nodes utilized
    /// by more than 85%").
    pub cpu_utilization_per_node: Vec<f64>,
    /// GEM server utilization.
    pub gem_utilization: f64,
    /// Central lock-engine utilization (0 unless
    /// `CouplingMode::LockEngine` — the \[Yu87\] comparison of §5).
    pub lock_engine_utilization: f64,
    /// Network utilization.
    pub network_utilization: f64,
    /// Messages per transaction (all kinds).
    pub messages_per_txn: f64,
    /// GEM entry operations per transaction.
    pub gem_entries_per_txn: f64,
    /// Page requests per transaction (NOFORCE misses served by owners).
    pub page_requests_per_txn: f64,
    /// Pages transferred between nodes per transaction (page-request
    /// replies that carry the page or announce it in GEM under GEM
    /// locking; grant piggybacks under PCL).
    pub page_transfers_per_txn: f64,
    /// Read-authorization revocations sent per transaction (PCL read
    /// optimization).
    pub revokes_per_txn: f64,
    /// Mean delay of a page request until the page was installed.
    pub page_req_delay_ms: f64,
    /// Lock requests per transaction.
    pub lock_requests_per_txn: f64,
    /// Fraction of lock requests processed without messages (PCL; GEM
    /// locking reports `None` — every request goes to GEM, none need
    /// messages).
    pub local_lock_fraction: Option<f64>,
    /// Lock requests that had to wait, per transaction.
    pub lock_waits_per_txn: f64,
    /// Buffer invalidations detected per transaction.
    pub invalidations_per_txn: f64,
    /// Storage page reads per transaction.
    pub reads_per_txn: f64,
    /// Commit-time page/log writes per transaction.
    pub writes_per_txn: f64,
    /// Replacement-driven write-backs per transaction.
    pub evict_writes_per_txn: f64,
    /// Per-partition buffer hit ratios `(name, ratio)` aggregated over
    /// all nodes.
    pub hit_ratios: Vec<(String, f64)>,
    /// Per-partition disk-array utilization `(name, utilization)`.
    pub disk_utilizations: Vec<(String, f64)>,
    /// Per-node log-disk utilization (max across nodes).
    pub log_utilization_max: f64,
    /// Transactions aborted by deadlock detection.
    pub deadlock_aborts: u64,
    /// Transactions aborted by lock timeout (safety net; expected 0).
    pub timeout_aborts: u64,
    /// Transactions killed by an injected node crash (their restarts
    /// run on surviving nodes).
    pub crash_aborts: u64,
    /// Records a global log merged from the nodes' local logs would
    /// hold: update commits over the whole run, warm-up included
    /// (§2/\[Ra91a\]).
    pub global_log_records: u64,
    /// Calendar events processed over the whole run (simulator-
    /// performance figure; pairs with the criterion benches).
    pub events_processed: u64,
    /// Per-event-type and per-subsystem event-loop counters (always
    /// collected; surfaced by `repro --profile`).
    pub profile: RunProfile,
    /// Throughput per node that would drive average CPU utilization to
    /// 80% (the Fig. 4.6 metric), extrapolated from the measured
    /// utilization-per-TPS ratio.
    pub tps_per_node_at_80pct_cpu: f64,
}

impl RunReport {
    /// Hit ratio of the named partition, if present.
    pub fn hit_ratio(&self, partition: &str) -> Option<f64> {
        self.hit_ratios
            .iter()
            .find(|(n, _)| n == partition)
            .map(|&(_, r)| r)
    }

    /// A 64-bit FNV-1a fingerprint over the exact bits of the report's
    /// headline metrics (the same field set the golden-numbers tests
    /// pin), as 16 hex digits. The simulator is deterministic, so two
    /// runs of one configuration share a fingerprint iff they produced
    /// bit-identical results — the experiment store records it per job
    /// and the regression gate fails on any change for an unchanged
    /// config fingerprint.
    pub fn metric_fingerprint(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.measured_txns);
        eat(self.mean_response_ms.to_bits());
        eat(self.p95_response_ms.to_bits());
        eat(self.norm_response_ms.to_bits());
        eat(self.throughput_tps.to_bits());
        eat(self.lock_wait_ms.to_bits());
        eat(self.io_wait_ms.to_bits());
        eat(self.cpu_wait_ms.to_bits());
        eat(self.cpu_service_ms.to_bits());
        eat(self.cpu_utilization.to_bits());
        eat(self.messages_per_txn.to_bits());
        eat(self.lock_requests_per_txn.to_bits());
        eat(self.reads_per_txn.to_bits());
        eat(self.writes_per_txn.to_bits());
        eat(self.deadlock_aborts);
        eat(self.timeout_aborts);
        eat(self.events_processed);
        format!("{hash:016x}")
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "N={:<2} txns={:<6} tps={:<7.1} resp={:.1}ms (p50 {:.1}, p95 {:.1}, norm {:.1})",
            self.nodes,
            self.measured_txns,
            self.throughput_tps,
            self.mean_response_ms,
            self.p50_response_ms,
            self.p95_response_ms,
            self.norm_response_ms,
        )?;
        writeln!(
            f,
            "  cpu={:.1}% (max {:.1}%) gem={:.2}% net={:.1}% | waits: input {:.2}ms lock {:.2}ms cpu {:.2}ms svc {:.2}ms",
            self.cpu_utilization * 100.0,
            self.cpu_utilization_max * 100.0,
            self.gem_utilization * 100.0,
            self.network_utilization * 100.0,
            self.input_wait_ms,
            self.lock_wait_ms,
            self.cpu_wait_ms,
            self.cpu_service_ms,
        )?;
        writeln!(f, "  io wait: {:.2}ms/txn", self.io_wait_ms)?;
        writeln!(
            f,
            "  per txn: locks {:.2} (local {}) msgs {:.2} pagereq {:.2} ({:.1}ms) reads {:.2} writes {:.2} evict {:.2} inval {:.3}",
            self.lock_requests_per_txn,
            match self.local_lock_fraction {
                Some(l) => format!("{:.0}%", l * 100.0),
                None => "n/a".into(),
            },
            self.messages_per_txn,
            self.page_requests_per_txn,
            self.page_req_delay_ms,
            self.reads_per_txn,
            self.writes_per_txn,
            self.evict_writes_per_txn,
            self.invalidations_per_txn,
        )?;
        write!(f, "  hits:")?;
        for (name, r) in &self.hit_ratios {
            write!(f, " {name}={:.0}%", r * 100.0)?;
        }
        write!(f, "\n  disk util:")?;
        for (name, u) in &self.disk_utilizations {
            write!(f, " {name}={:.0}%", u * 100.0)?;
        }
        write!(f, " log(max)={:.0}%", self.log_utilization_max * 100.0)?;
        if self.deadlock_aborts + self.timeout_aborts > 0 {
            write!(
                f,
                " | aborts: {} deadlock, {} timeout",
                self.deadlock_aborts, self.timeout_aborts
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            nodes: 2,
            measured_txns: 100,
            truncated: false,
            sim_seconds: 1.0,
            throughput_tps: 100.0,
            mean_response_ms: 42.0,
            response_ci95_ms: Some(1.0),
            p50_response_ms: 40.0,
            p95_response_ms: 80.0,
            norm_response_ms: 42.0,
            input_wait_ms: 0.0,
            lock_wait_ms: 1.0,
            io_wait_ms: 20.0,
            cpu_wait_ms: 5.0,
            cpu_service_ms: 25.0,
            cpu_utilization: 0.625,
            cpu_utilization_max: 0.64,
            cpu_utilization_per_node: vec![0.61, 0.64],
            gem_utilization: 0.004,
            lock_engine_utilization: 0.0,
            network_utilization: 0.01,
            messages_per_txn: 2.0,
            gem_entries_per_txn: 12.0,
            page_requests_per_txn: 0.5,
            page_transfers_per_txn: 0.5,
            revokes_per_txn: 0.0,
            page_req_delay_ms: 6.5,
            lock_requests_per_txn: 2.0,
            local_lock_fraction: Some(0.5),
            lock_waits_per_txn: 0.01,
            invalidations_per_txn: 0.2,
            reads_per_txn: 1.3,
            writes_per_txn: 1.0,
            evict_writes_per_txn: 1.0,
            hit_ratios: vec![("BRANCH/TELLER".into(), 0.71)],
            disk_utilizations: vec![("BRANCH/TELLER".into(), 0.4)],
            log_utilization_max: 0.3,
            deadlock_aborts: 0,
            timeout_aborts: 0,
            crash_aborts: 0,
            global_log_records: 100,
            events_processed: 5_000,
            profile: RunProfile::default(),
            tps_per_node_at_80pct_cpu: 128.0,
        }
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("tps=100.0"), "{s}");
        assert!(s.contains("resp=42.0ms"), "{s}");
        assert!(s.contains("local 50%"), "{s}");
        assert!(s.contains("BRANCH/TELLER=71%"), "{s}");
        assert!(!s.contains("aborts"), "{s}");
    }

    #[test]
    fn display_shows_aborts_when_present() {
        let mut r = report();
        r.deadlock_aborts = 3;
        assert!(r.to_string().contains("3 deadlock"));
    }

    #[test]
    fn metric_fingerprint_is_stable_and_sensitive() {
        let r = report();
        assert_eq!(r.metric_fingerprint(), r.metric_fingerprint());
        assert_eq!(r.metric_fingerprint().len(), 16);
        // Any pinned metric flips the fingerprint — even by one ULP.
        let mut ulp = report();
        ulp.mean_response_ms = f64::from_bits(ulp.mean_response_ms.to_bits() + 1);
        assert_ne!(r.metric_fingerprint(), ulp.metric_fingerprint());
        let mut counter = report();
        counter.events_processed += 1;
        assert_ne!(r.metric_fingerprint(), counter.metric_fingerprint());
        // Unpinned presentation fields (e.g. per-node breakdowns) do
        // not: the fingerprint tracks the golden-test field set.
        let mut cosmetic = report();
        cosmetic.cpu_utilization_per_node = vec![0.0];
        assert_eq!(r.metric_fingerprint(), cosmetic.metric_fingerprint());
    }

    #[test]
    fn metric_counters_stay_exact_past_u32_range() {
        // A billion-event scale run pushes several formerly-u32 counts
        // past 2^32; the report math and fingerprint must stay exact
        // (no silent truncation) across that boundary.
        let huge = u64::from(u32::MAX) + 5;
        let mut m = Metrics {
            refs_completed: huge,
            ..Metrics::default()
        };
        m.refs_completed += 7; // accumulation continues, no wrap
        assert_eq!(m.refs_completed, huge + 7);

        let mut a = report();
        a.measured_txns = huge;
        a.events_processed = huge * 30;
        let mut b = a.clone();
        b.events_processed += 1;
        // One event past the u32 boundary still flips the fingerprint:
        // the hash eats full 64-bit values, not truncated ones.
        assert_ne!(a.metric_fingerprint(), b.metric_fingerprint());
        let mut wrapped = a.clone();
        wrapped.measured_txns = huge - u64::from(u32::MAX) - 1; // what a u32 cast would leave
        assert_ne!(a.metric_fingerprint(), wrapped.metric_fingerprint());
    }

    #[test]
    fn hit_ratio_lookup() {
        let r = report();
        assert_eq!(r.hit_ratio("BRANCH/TELLER"), Some(0.71));
        assert_eq!(r.hit_ratio("ACCOUNT"), None);
    }

    #[test]
    fn counters_since_subtracts() {
        let a = Counters {
            committed: 10,
            page_requests: 4,
            ..Counters::new(2)
        };
        let mut b = a.clone();
        b.committed = 25;
        b.page_requests = 9;
        b.buffer[0].hits = 3;
        b.buffer[1].hits = 4;
        b.buffer[1].invalidations = 1;
        let d = b.since(&a);
        assert_eq!(d.committed, 15);
        assert_eq!(d.page_requests, 5);
        assert_eq!(d.buffer[1].hits, 4);
        let total = d.buffer_total();
        assert_eq!((total.hits, total.misses, total.invalidations), (7, 0, 1));
    }
}
