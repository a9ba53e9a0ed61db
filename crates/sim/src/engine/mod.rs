//! The simulation engine: event loop, CPU dispatch, and transaction
//! lifecycle (the transaction manager of §3.2).

mod access;
mod commit;
mod events;
mod io;
mod locking;
mod maintenance;
mod messages;
mod telemetry;
mod txn;
mod txntable;

pub(crate) use events::{Cont, Event, Job, Msg, MsgBody};
pub(crate) use telemetry::TimelineState;
pub(crate) use txn::{Phase, Txn};
pub(crate) use txntable::TxnTable;

use crate::metrics::{Counters, Metrics, RunProfile, RunReport};
use crate::observe::Observe;
use dbshare_model::config::ConfigError;
use dbshare_model::{NodeId, PageId, SystemConfig, TxnId, TxnSpec, UpdateStrategy};
use dbshare_node::{BufferManager, CostModel};
use dbshare_storage::globallog::LocalLog;
use dbshare_storage::StorageSubsystem;
use dbshare_workload::Workload;
use desim::trace::{TraceEvent, TraceEventKind};
use desim::{Calendar, Resource, Rng, SimDuration, SimTime};

/// Interval between deadlock / timeout scans.
pub(crate) const DEADLOCK_SCAN_EVERY: SimDuration = SimDuration::from_millis(250);
/// Lock waits longer than this abort the waiter (safety net; expected
/// not to trigger for the paper's workloads).
pub(crate) const LOCK_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Mean restart delay after a deadlock abort.
pub(crate) const RESTART_DELAY_MS: f64 = 50.0;

/// Per-node runtime context.
pub(crate) struct NodeCtx {
    pub cpus: Resource<Job>,
    pub mpl: Resource<TxnId>,
    pub buffer: BufferManager,
    pub cost: CostModel,
    pub rng: Rng,
}

/// The discrete-event simulation of one configuration.
///
/// Build with [`Engine::new`], run with [`Engine::run`]; the returned
/// [`RunReport`] carries every metric the paper's figures use.
pub struct Engine {
    pub(crate) cfg: SystemConfig,
    pub(crate) cal: Calendar<Event>,
    /// The workload generator.
    pub(crate) workload: Box<dyn Workload + Send>,
    pub(crate) storage: StorageSubsystem,
    pub(crate) nodes: Vec<NodeCtx>,
    /// The lock state of the configured coupling (`locking.rs`).
    pub(crate) locking: locking::Locking,
    pub(crate) txns: TxnTable,
    pub(crate) next_txn: u64,
    pub(crate) counters: Counters,
    pub(crate) base: Counters,
    pub(crate) metrics: Metrics,
    /// Always-on event-loop profile (whole run, incl. warm-up).
    pub(crate) profile: RunProfile,
    pub(crate) arrival_rng: Rng,
    pub(crate) wl_rng: Rng,
    pub(crate) restart_rng: Rng,
    pub(crate) warmed: bool,
    pub(crate) done: bool,
    pub(crate) truncated: bool,
    /// Nodes currently down (failure injection).
    pub(crate) down: Vec<bool>,
    pub(crate) measured: u64,
    pub(crate) part_locking: Vec<bool>,
    pub(crate) part_names: Vec<String>,
    /// Reusable scratch: distinct remote authorities of a committing
    /// transaction (commit phase 2 builds release messages from it
    /// without allocating).
    pub(crate) scratch_nodes: Vec<NodeId>,
    /// Recycled page-list buffers for release messages: commit phase 2
    /// takes buffers here, the receiving GLA returns them emptied.
    pub(crate) release_pool: Vec<events::ReleasePages>,
    /// Reusable scratch: transactions drained from a crashed node's
    /// MPL input queue.
    pub(crate) scratch_queue: Vec<TxnId>,
    /// Specs of retired transactions; the workload generator reuses
    /// their reference buffers for new draws.
    pub(crate) spare_specs: Vec<TxnSpec>,
    /// Buffer hits and misses counted by buffers that a node crash
    /// discarded, so the timeline's cumulative totals never fall.
    pub(crate) crashed_buffer: (u64, u64),
    /// Per-node commit logs, merged into the global log at end of run
    /// (§2 / \[Ra91a\]).
    pub(crate) local_logs: Vec<LocalLog>,
    pub(crate) mean_arrival_gap_us: f64,
    /// Observation configuration (default: observe nothing).
    pub(crate) observe: Observe,
    /// The trace, collected only when tracing is enabled; every
    /// emission is behind a single `is_some()` branch.
    pub(crate) trace: Option<Vec<TraceEvent>>,
    /// Timeline sampler state, armed at end of warm-up when requested.
    pub(crate) timeline: Option<TimelineState>,
    /// Instant of the most recent commit (any node) — the no-progress
    /// watchdog's progress signal.
    pub(crate) last_commit_at: SimTime,
    /// When the watchdog last fired (suppresses re-firing every scan).
    pub(crate) last_watchdog: SimTime,
    /// Live progress gauge, observer-only (the harness ticker samples
    /// it). `None` keeps the event loop on the exact unobserved path.
    pub(crate) progress: Option<std::sync::Arc<crate::progress::ProgressGauge>>,
}

impl Engine {
    /// Builds the engine from a configuration and a workload. The
    /// workload's database layout is copied into the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first configuration violation found.
    pub fn new(
        mut cfg: SystemConfig,
        workload: Box<dyn Workload + Send>,
    ) -> Result<Self, ConfigError> {
        if cfg.partitions.is_empty() {
            cfg.partitions = workload.partitions().to_vec();
        }
        cfg.validate()?;
        let master = Rng::seed_from_u64(cfg.run.seed);
        let storage = StorageSubsystem::new(&cfg);
        // Hot maps are pre-sized from the configuration so the steady
        // state never rehashes: the MPL bounds live transactions, the
        // buffer capacity bounds hot page-table entries.
        let live = cfg.mpl_per_node as usize * cfg.nodes as usize;
        let admissions = (cfg.run.warmup_txns + cfg.run.measured_txns) as usize + live;
        let nodes = (0..cfg.nodes)
            .map(|i| NodeCtx {
                cpus: Resource::new(cfg.cpu.cpus_per_node),
                mpl: Resource::new(cfg.mpl_per_node),
                buffer: BufferManager::new(cfg.buffer_pages_per_node, cfg.partitions.len()),
                cost: CostModel::new(cfg.cpu.clone()),
                rng: master.derive(100 + i as u64),
            })
            .collect();
        let locking = locking::Locking::new(&cfg, &*workload, live);
        let part_locking = cfg.partitions.iter().map(|p| p.locking).collect();
        let part_names = cfg.partitions.iter().map(|p| p.name.clone()).collect();
        let mean_arrival_gap_us = 1e6 / (cfg.arrival_tps_per_node * cfg.nodes as f64);
        Ok(Engine {
            cal: Calendar::new(),
            workload,
            storage,
            nodes,
            locking,
            txns: TxnTable::with_capacity(live, admissions),
            next_txn: 0,
            counters: Counters::default(),
            base: Counters::default(),
            metrics: Metrics::default(),
            profile: RunProfile::default(),
            arrival_rng: master.derive(1),
            wl_rng: master.derive(2),
            restart_rng: master.derive(3),
            warmed: false,
            done: false,
            truncated: false,
            down: vec![false; cfg.nodes as usize],
            measured: 0,
            part_locking,
            part_names,
            scratch_nodes: Vec::new(),
            scratch_queue: Vec::new(),
            release_pool: Vec::new(),
            spare_specs: Vec::new(),
            crashed_buffer: (0, 0),
            local_logs: (0..cfg.nodes)
                .map(|i| LocalLog::new(NodeId::new(i)))
                .collect(),
            cfg,
            mean_arrival_gap_us,
            observe: Observe::default(),
            trace: None,
            timeline: None,
            last_commit_at: SimTime::ZERO,
            last_watchdog: SimTime::ZERO,
            progress: None,
        })
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        let now = self.run_loop();
        self.build_report(now)
    }

    /// Attaches a live progress gauge. The engine publishes event
    /// count, simulated time, and commit count into it with relaxed
    /// stores once every few thousand events and never reads it back,
    /// so an attached gauge cannot perturb the simulation (reports are
    /// bit-identical with and without one).
    pub fn set_progress(&mut self, gauge: std::sync::Arc<crate::progress::ProgressGauge>) {
        self.progress = Some(gauge);
    }

    /// The event loop shared by [`run`](Engine::run) and
    /// [`run_observed`](Engine::run_observed); returns the final
    /// simulated instant.
    pub(crate) fn run_loop(&mut self) -> SimTime {
        self.cal.schedule(SimTime::ZERO, Event::Arrival);
        self.cal
            .schedule(SimTime::ZERO + DEADLOCK_SCAN_EVERY, Event::DeadlockScan);
        if let Some(crash) = self.cfg.crash {
            let node = NodeId::new(crash.node);
            let at = SimTime::ZERO + SimDuration::from_secs_f64(crash.at_secs);
            self.cal.schedule(at, Event::NodeCrash { node });
            self.cal.schedule(
                at + SimDuration::from_secs_f64(crash.recovery_secs),
                Event::NodeRecovered { node },
            );
        }
        // If there is no warm-up, measurement starts immediately.
        if self.cfg.run.warmup_txns == 0 {
            self.warmed = true;
            self.arm_timeline(SimTime::ZERO);
        }
        let deadline = self
            .cfg
            .run
            .max_sim_secs
            .map(|s| SimTime::ZERO + SimDuration::from_secs_f64(s));
        if let Some(gauge) = &self.progress {
            gauge.set_target(self.cfg.run.warmup_txns + self.cfg.run.measured_txns);
        }
        let mut progress_tick: u64 = 0;
        while !self.done {
            let Some((now, ev)) = self.cal.pop() else {
                break;
            };
            if let Some(limit) = deadline {
                if now > limit {
                    self.truncated = true;
                    break;
                }
            }
            self.on_event(now, ev);
            // Observer-only telemetry: a handful of relaxed stores once
            // per 4096 events, and nothing at all without a gauge.
            if let Some(gauge) = &self.progress {
                progress_tick += 1;
                if progress_tick & 0xFFF == 0 {
                    gauge.publish(
                        self.cal.total_scheduled(),
                        now.as_nanos(),
                        self.counters.committed,
                    );
                }
            }
        }
        let now = self.cal.now();
        if let Some(gauge) = &self.progress {
            gauge.publish(
                self.cal.total_scheduled(),
                now.as_nanos(),
                self.counters.committed,
            );
        }
        now
    }

    // Out of line on purpose: inlined into `run_loop`, which the
    // compiler did once the continuation dispatch in `fire` shrank, the
    // event loop ran about 10% slower on every dbbench workload.
    #[inline(never)]
    fn on_event(&mut self, now: SimTime, ev: Event) {
        match &ev {
            Event::Arrival => self.profile.arrivals += 1,
            Event::Restart { .. } => self.profile.restarts += 1,
            Event::CpuDone { .. } => self.profile.cpu_done += 1,
            Event::GemHeldDone { .. } => self.profile.gem_held_done += 1,
            Event::IoDone { .. } => self.profile.io_done += 1,
            Event::Delivered { .. } => self.profile.delivered += 1,
            Event::DeadlockScan => self.profile.deadlock_scans += 1,
            Event::NodeCrash { .. } | Event::NodeRecovered { .. } => self.profile.crash_events += 1,
            Event::TimelineSample => self.profile.timeline_samples += 1,
        }
        match ev {
            Event::Arrival => {
                let gap =
                    SimDuration::from_micros_f64(self.arrival_rng.exp(self.mean_arrival_gap_us));
                let spare = self.spare_specs.pop();
                let (node, spec) = self.workload.next_with(&mut self.wl_rng, spare);
                self.cal.schedule(now + gap, Event::Arrival);
                self.admit(now, node, spec, now, 0);
            }
            Event::Restart {
                node,
                spec,
                arrival,
                restarts,
            } => self.admit(now, node, spec, arrival, restarts),
            Event::CpuDone { node, job } => self.cpu_done(now, node, job),
            Event::GemHeldDone { node, cont } => {
                self.release_cpu(now, node);
                self.fire(now, cont);
            }
            Event::IoDone { cont } => self.fire(now, cont),
            Event::Delivered { msg } => self.deliver(now, msg),
            Event::DeadlockScan => {
                self.deadlock_scan(now);
                if !self.done {
                    self.cal
                        .schedule(now + DEADLOCK_SCAN_EVERY, Event::DeadlockScan);
                }
            }
            Event::NodeCrash { node } => self.node_crash(now, node),
            Event::NodeRecovered { node } => self.node_recovered(node),
            Event::TimelineSample => self.timeline_tick(now),
        }
    }

    // ------------------------------------------------------------------
    // CPU dispatch
    // ------------------------------------------------------------------

    /// Submits a CPU job on `node`: runs immediately if a processor is
    /// free, otherwise queues FIFO.
    pub(crate) fn dispatch(&mut self, now: SimTime, node: NodeId, job: Job) {
        if let Some(job) = self.nodes[node.index()].cpus.acquire(now, job) {
            self.cal
                .schedule(now + job.service, Event::CpuDone { node, job });
        }
    }

    /// A job's instruction execution finished; perform its synchronous
    /// GEM tail (holding the CPU) or release the CPU and continue.
    fn cpu_done(&mut self, now: SimTime, node: NodeId, job: Job) {
        if let Some(id) = job.txn {
            if let Some(t) = self.txns.get_mut(&id) {
                t.cpu_service += job.service;
            }
        }
        if job.gem_entries > 0 || job.gem_pages > 0 {
            let mut done = now;
            if job.gem_entries > 0 {
                done = self.storage.lock_table_entries(now, job.gem_entries);
            }
            if job.gem_pages > 0 {
                done = self.storage.gem_pages(now, job.gem_pages).max(done);
            }
            if let Some(id) = job.txn {
                if let Some(t) = self.txns.get_mut(&id) {
                    t.cpu_service += done - now;
                }
            }
            self.cal.schedule(
                done,
                Event::GemHeldDone {
                    node,
                    cont: job.cont,
                },
            );
        } else {
            self.release_cpu(now, node);
            self.fire(now, job.cont);
        }
    }

    /// Releases one CPU of `node`, starting the next queued job if any.
    fn release_cpu(&mut self, now: SimTime, node: NodeId) {
        if let Some((job, since)) = self.nodes[node.index()].cpus.release(now) {
            if let Some(id) = job.txn {
                if let Some(t) = self.txns.get_mut(&id) {
                    t.cpu_wait += now - since;
                }
            }
            self.cal
                .schedule(now + job.service, Event::CpuDone { node, job });
        }
    }

    /// The continuation dispatcher: transfers control to the
    /// appropriate protocol/lifecycle step.
    pub(crate) fn fire(&mut self, now: SimTime, cont: Cont) {
        match &cont {
            Cont::BotDone(_) | Cont::AccessCpuDone(_) | Cont::CommitInit(_) => {
                self.profile.cont_lifecycle += 1
            }
            Cont::LockExec(_) | Cont::RaReadExec(_) | Cont::GrantExec(_) | Cont::ReleaseExec(_) => {
                self.profile.cont_locking += 1
            }
            Cont::SendDone { .. } | Cont::RecvDone { .. } => self.profile.cont_messaging += 1,
            _ => self.profile.cont_storage += 1,
        }
        match cont {
            Cont::BotDone(t) => self.begin_access(now, t),
            Cont::AccessCpuDone(t) => self.after_access_cpu(now, t),
            Cont::LockExec(t) => self.lock_exec(now, t),
            Cont::RaReadExec(t) => self.ra_read_exec(now, t),
            Cont::GrantExec(t) => self.grant_exec(now, t),
            Cont::ReleaseExec(t) => self.release_exec(now, t),
            Cont::SendDone { msg, last_of } => self.send_done(now, msg, last_of),
            Cont::RecvDone { msg } => self.handle_msg(now, msg),
            Cont::CommitInit(t) => self.commit_init(now, t),
            Cont::IoIssue(op) => self.io_issue(now, op),
            Cont::IoDone { op, sync } => self.io_done(now, op, sync),
            Cont::GemOwnerClear { node, page } => self.gem_owner_clear(node, page),
        }
    }

    // ------------------------------------------------------------------
    // Admission and completion
    // ------------------------------------------------------------------

    /// The next node at or after `preferred` that is up (the TP monitor
    /// re-routes arrivals around failed nodes).
    pub(crate) fn alive_node(&self, preferred: NodeId) -> NodeId {
        let n = self.nodes.len();
        for off in 0..n {
            let cand = (preferred.index() + off) % n;
            if !self.down[cand] {
                return NodeId::new(cand as u16);
            }
        }
        preferred // unreachable: validation forbids crashing the only node
    }

    fn admit(
        &mut self,
        now: SimTime,
        node: NodeId,
        spec: TxnSpec,
        arrival: SimTime,
        restarts: u32,
    ) {
        let node = self.alive_node(node);
        let id = TxnId::new(self.next_txn);
        self.next_txn += 1;
        let granted = self.nodes[node.index()].mpl.acquire(now, id).is_some();
        self.txns.admit(id, node, spec, arrival, restarts);
        if granted {
            if let Some(t) = self.txns.get_mut(&id) {
                t.admitted = now;
                t.phase = Phase::Running;
            }
            self.emit(
                now,
                TraceEventKind::TxnAdmit,
                node,
                Some(id),
                None,
                (now - arrival).as_nanos(),
            );
            self.start_txn(now, id);
        }
    }

    pub(crate) fn start_txn(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let svc = self.sample(node, |c, r| c.bot(r));
        self.dispatch(now, node, Job::cpu(svc, Some(id), Cont::BotDone(id)));
    }

    /// Ends a transaction: statistics, MPL hand-over, run termination.
    /// (A transaction may have been killed by a node crash while its
    /// final send was in flight; completion is then a no-op.)
    pub(crate) fn txn_complete(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        debug_assert_eq!(t.id, id);
        // Retire the storage in place: the spec's reference buffer
        // feeds the next workload draw, the Txn's collections (still
        // sitting in their slab slot) the next admission.
        let spec = std::mem::take(&mut t.spec);
        let node = t.node;
        let modified = t.modified.len() as u32;
        let arrival = t.arrival;
        let admitted = t.admitted;
        let (lock_wait, io_wait) = (t.lock_wait, t.io_wait);
        let (cpu_wait, cpu_service) = (t.cpu_wait, t.cpu_service);
        self.txns.retire(&id);
        if modified > 0 {
            self.local_logs[node.index()].append(now, id, modified);
        }
        self.counters.committed += 1;
        self.last_commit_at = now;
        self.emit(
            now,
            TraceEventKind::TxnCommit,
            node,
            Some(id),
            None,
            (now - arrival).as_nanos(),
        );
        if self.warmed {
            self.measured += 1;
            self.metrics.record_completion(
                now - arrival,
                spec.refs().len(),
                admitted - arrival,
                lock_wait,
                io_wait,
                cpu_wait,
                cpu_service,
            );
            self.timeline_note_commit(
                now - arrival,
                admitted - arrival,
                lock_wait,
                io_wait,
                cpu_wait,
                cpu_service,
            );
            if self.measured >= self.cfg.run.measured_txns {
                self.done = true;
            }
        } else if self.counters.committed >= self.cfg.run.warmup_txns {
            self.end_warmup(now);
        }
        self.spare_specs.push(spec);
        if let Some((next, _)) = self.nodes[node.index()].mpl.release(now) {
            let mut next_arrival = None;
            if let Some(n) = self.txns.get_mut(&next) {
                n.admitted = now;
                n.phase = Phase::Running;
                next_arrival = Some(n.arrival);
            }
            if let Some(arr) = next_arrival {
                self.emit(
                    now,
                    TraceEventKind::TxnAdmit,
                    node,
                    Some(next),
                    None,
                    (now - arr).as_nanos(),
                );
                self.start_txn(now, next);
            }
        }
    }

    fn end_warmup(&mut self, now: SimTime) {
        self.warmed = true;
        self.metrics = Metrics {
            started: now,
            ..Metrics::default()
        };
        self.base = self.counters.clone();
        self.storage.reset_stats(now);
        for ctx in self.nodes.iter_mut() {
            ctx.cpus.reset_stats(now);
            ctx.mpl.reset_stats(now);
            ctx.buffer.reset_counters();
        }
        self.locking.end_warmup();
        self.arm_timeline(now);
    }

    // ------------------------------------------------------------------
    // Small helpers shared by the submodules
    // ------------------------------------------------------------------

    pub(crate) fn txn(&self, id: TxnId) -> &Txn {
        self.txns.get(&id).expect("live transaction")
    }

    pub(crate) fn txn_mut(&mut self, id: TxnId) -> &mut Txn {
        self.txns.get_mut(&id).expect("live transaction")
    }

    /// Samples a cost on `node`'s stream.
    pub(crate) fn sample<F>(&mut self, node: NodeId, f: F) -> SimDuration
    where
        F: FnOnce(&CostModel, &mut Rng) -> SimDuration,
    {
        let ctx = &mut self.nodes[node.index()];
        f(&ctx.cost, &mut ctx.rng)
    }

    /// Fixed-instruction service time (identical on all nodes).
    pub(crate) fn fixed(&self, instr: f64) -> SimDuration {
        self.cfg.cpu.exec_time(instr)
    }

    pub(crate) fn is_noforce(&self) -> bool {
        self.cfg.update == UpdateStrategy::NoForce
    }

    /// Whether `page`'s partition uses page locking.
    pub(crate) fn locked_partition(&self, page: PageId) -> bool {
        self.part_locking
            .get(page.partition().index())
            .copied()
            .unwrap_or(false)
    }
}
