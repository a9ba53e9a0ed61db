//! Observation plumbing: trace emission and timeline sampling.
//!
//! Everything here is gated on the engine's [`Observe`] configuration.
//! With observation off (the default), [`Engine::emit`] is a single
//! `Option` branch and no `TimelineSample` event is ever scheduled, so
//! the event stream, the allocation profile, and every report of an
//! unobserved run are byte-identical to a build without this module.

use super::{Engine, Event, Phase};
use crate::metrics::Counters;
use crate::observe::{Observations, Observe, TimelineWindow};
use dbshare_model::{NodeId, PageId, TxnId};
use dbshare_storage::DeviceBusySnapshot;
use desim::trace::{pack_page, TraceEvent, TraceEventKind, NO_PAGE, NO_TXN};
use desim::{SimDuration, SimTime};

/// The timeline sampler's baselines at the last tick.
pub(crate) struct TimelineState {
    every: SimDuration,
    window_start: SimTime,
    last: Counters,
    last_cpu_busy: Vec<f64>,
    last_dev: DeviceBusySnapshot,
    windows: Vec<TimelineWindow>,
}

impl Engine {
    /// Configures observation for this run. Must be called before
    /// [`run`](Engine::run) / [`run_observed`](Engine::run_observed).
    pub fn set_observe(&mut self, observe: Observe) {
        self.observe = observe;
    }

    /// Appends one trace record if tracing is on. Integer-only
    /// arguments and a cheap early-out: free when tracing is off.
    #[inline]
    pub(crate) fn emit(
        &mut self,
        at: SimTime,
        kind: TraceEventKind,
        node: NodeId,
        txn: Option<TxnId>,
        page: Option<PageId>,
        arg: u64,
    ) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        trace.push(TraceEvent {
            at,
            kind,
            node: node.raw(),
            txn: txn.map_or(NO_TXN, |t| t.raw()),
            page: page.map_or(NO_PAGE, |p| pack_page(p.partition().raw(), p.number())),
            arg,
        });
    }

    /// Starts the timeline sampler at `now` (the beginning of the
    /// measurement window) if one was requested and none is armed yet.
    pub(crate) fn arm_timeline(&mut self, now: SimTime) {
        let Some(every) = self.observe.timeline_every else {
            return;
        };
        if self.timeline.is_some() {
            return;
        }
        self.timeline = Some(TimelineState {
            every,
            window_start: now,
            last: self.counters.clone(),
            last_cpu_busy: self
                .nodes
                .iter()
                .map(|c| c.cpus.busy_integral_at(now))
                .collect(),
            last_dev: self.storage.busy_snapshot(),
            windows: Vec::new(),
        });
        self.cal.schedule(now + every, Event::TimelineSample);
    }

    /// Handles a `TimelineSample` event: closes the current window and
    /// schedules the next tick.
    pub(crate) fn timeline_tick(&mut self, now: SimTime) {
        if self.timeline.is_none() {
            return;
        }
        self.close_timeline_window(now);
        if !self.done {
            let every = self.timeline.as_ref().expect("timeline armed").every;
            self.cal.schedule(now + every, Event::TimelineSample);
        }
    }

    /// Closes the sampler and returns its windows, flushing a final
    /// partial window covering `[last tick, now)`.
    pub(crate) fn flush_timeline(&mut self, now: SimTime) -> Vec<TimelineWindow> {
        if self.timeline.is_none() {
            return Vec::new();
        }
        if now > self.timeline.as_ref().expect("timeline armed").window_start {
            self.close_timeline_window(now);
        }
        self.timeline
            .take()
            .map(|tl| tl.windows)
            .unwrap_or_default()
    }

    /// Snapshots state at `now`, appends the finished window, and
    /// rebases the baselines for the next one. Read-only with respect
    /// to simulation state: no RNG draws, no statistic resets.
    fn close_timeline_window(&mut self, now: SimTime) {
        let Some(mut tl) = self.timeline.take() else {
            return;
        };
        let width = now - tl.window_start;
        let span = width.as_secs_f64();
        let d = self.counters.since(&tl.last);
        let buffer = d.buffer_total();
        let dev = self.storage.busy_snapshot();
        let util = |busy: SimDuration, base: SimDuration, servers: u32| {
            if span > 0.0 && servers > 0 {
                (busy - base).as_secs_f64() / (span * servers as f64)
            } else {
                0.0
            }
        };
        let mut cpu_util = Vec::with_capacity(self.nodes.len());
        let mut mpl_in_use = 0u64;
        let mut mpl_queue = 0u64;
        for (i, ctx) in self.nodes.iter().enumerate() {
            let busy = ctx.cpus.busy_integral_at(now) - tl.last_cpu_busy[i];
            cpu_util.push(if span > 0.0 {
                busy / (span * f64::from(ctx.cpus.total()))
            } else {
                0.0
            });
            tl.last_cpu_busy[i] = ctx.cpus.busy_integral_at(now);
            mpl_in_use += u64::from(ctx.mpl.in_use());
            mpl_queue += ctx.mpl.queue_len() as u64;
        }
        let lock_wait_depth = self
            .txns
            .values()
            .filter(|t| t.phase == Phase::LockWait)
            .count() as u64;
        tl.windows.push(TimelineWindow {
            start: tl.window_start,
            width,
            committed: d.committed,
            lock_requests: d.lock_requests,
            lock_waits: d.lock_waits,
            storage_reads: d.storage_reads,
            commit_writes: d.commit_writes,
            log_writes: d.log_writes,
            evict_writes: d.evict_writes,
            page_transfers: d.page_transfers,
            aborts: d.deadlock_aborts + d.timeout_aborts + d.crash_aborts,
            buffer_hits: buffer.hits,
            buffer_misses: buffer.misses,
            buffer_invalidations: buffer.invalidations,
            resp_ns: d.resp_ns,
            input_ns: d.input_ns,
            lock_ns: d.lock_ns,
            io_ns: d.io_ns,
            cpu_wait_ns: d.cpu_wait_ns,
            cpu_service_ns: d.cpu_service_ns,
            mpl_in_use,
            mpl_queue,
            lock_wait_depth,
            cpu_util,
            gem_util: util(dev.gem_busy, tl.last_dev.gem_busy, dev.gem_servers),
            disk_util: util(dev.disk_busy, tl.last_dev.disk_busy, dev.disk_servers),
            net_util: util(
                dev.network_busy,
                tl.last_dev.network_busy,
                dev.network_servers,
            ),
            log_util: util(dev.log_busy, tl.last_dev.log_busy, dev.log_servers),
        });
        tl.window_start = now;
        tl.last = self.counters.clone();
        tl.last_dev = dev;
        self.timeline = Some(tl);
    }

    /// Runs the simulation and returns the report together with
    /// everything observation collected. With a default [`Observe`]
    /// the report is identical to [`run`](Engine::run) and the
    /// observations are empty.
    pub fn run_observed(mut self) -> (crate::RunReport, Observations) {
        if self.observe.trace {
            self.trace = Some(Vec::new());
        }
        let now = self.run_loop();
        let timeline = self.flush_timeline(now);
        let trace = self.trace.take().unwrap_or_default();
        let report = self.build_report(now);
        (report, Observations { timeline, trace })
    }
}
