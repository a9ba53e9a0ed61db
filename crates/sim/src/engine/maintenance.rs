//! Background machinery: deadlock detection / lock timeouts with
//! abort-and-restart, node crashes, and end-of-run report assembly.

use super::{Engine, Event, Phase, LOCK_TIMEOUT, RESTART_DELAY_MS};
use crate::metrics::RunReport;
use dbshare_lockmgr::deadlock::{choose_victim, find_cycle, has_cycle};
use dbshare_model::{NodeId, TxnId};
use dbshare_node::buffer::BufferCounters;
use desim::trace::TraceEventKind;
use desim::{SimDuration, SimTime};

/// Why a victim was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortReason {
    Deadlock,
    Timeout,
    Crash,
}

impl Engine {
    // ------------------------------------------------------------------
    // Deadlock detection and aborts (§3.2)
    // ------------------------------------------------------------------

    /// Periodic scan: break *every* waits-for cycle (abort the youngest
    /// member of each, re-collecting edges after every abort since an
    /// abort wakes waiters) and abort any waiter past the lock timeout.
    ///
    /// Stage 1 checks the reduced graph for a cycle in linear time; it
    /// has the same transitive closure as the full graph, so the scan
    /// ends there whenever the full graph is acyclic. Stage 2 picks the
    /// victim on the full, sorted graph: the youngest member of the
    /// first cycle its search meets, which a search of the reduced graph
    /// need not reproduce.
    pub(crate) fn deadlock_scan(&mut self, now: SimTime) {
        self.check_watchdog(now);
        let mut guard = 0u32;
        let mut reduced = Vec::new();
        loop {
            reduced.clear();
            self.collect_waits_for(true, &mut reduced);
            if !has_cycle(&reduced) {
                break;
            }
            let mut edges = Vec::new();
            self.collect_waits_for(false, &mut edges);
            // The edge list is assembled from hash maps; sort it so
            // victim selection (and thus the whole run) is reproducible.
            edges.sort_unstable();
            edges.dedup();
            let Some(cycle) = find_cycle(&edges) else {
                break;
            };
            let victim = choose_victim(&cycle);
            self.abort(now, victim, AbortReason::Deadlock);
            guard += 1;
            if guard > 10_000 {
                break; // unreachable in practice; bounds a scan
            }
        }
        // Timeout safety net.
        let mut stuck: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.phase == Phase::LockWait && now - t.wait_since > LOCK_TIMEOUT)
            .map(|(id, _)| id)
            .collect();
        stuck.sort_unstable();
        for id in stuck {
            self.abort(now, id, AbortReason::Timeout);
        }
    }

    /// No-progress watchdog: when `RunControl::watchdog_secs` is set
    /// and no transaction has committed for that long while some are
    /// live, emit a `Watchdog` trace event and dump diagnostic state
    /// to stderr. Firing rearms the quiet-period clock, so a fully
    /// wedged run produces one dump per threshold interval, not one
    /// per scan.
    fn check_watchdog(&mut self, now: SimTime) {
        let Some(secs) = self.cfg.run.watchdog_secs else {
            return;
        };
        if self.txns.is_empty() {
            return;
        }
        let since = self.last_commit_at.max(self.last_watchdog);
        if (now - since).as_secs_f64() < secs {
            return;
        }
        self.last_watchdog = now;
        let live = self.txns.len() as u64;
        self.emit(
            now,
            TraceEventKind::Watchdog,
            NodeId::new(0),
            None,
            None,
            live,
        );
        eprintln!(
            "WATCHDOG at {now}: no commit for {:.1}s with {live} live transactions",
            (now - self.last_commit_at).as_secs_f64()
        );
        self.dump_stuck(now);
    }

    /// Aborts `victim` (it is lock-waiting): all protocol state is
    /// cleaned up, waiters it blocked are woken, and the transaction
    /// restarts after a short delay. Aborts do not occur at all for
    /// debit-credit.
    pub(crate) fn abort(&mut self, now: SimTime, victim: TxnId, reason: AbortReason) {
        let Some(t) = self.txns.remove(&victim) else {
            return;
        };
        match reason {
            AbortReason::Deadlock => self.counters.deadlock_aborts += 1,
            AbortReason::Timeout => self.counters.timeout_aborts += 1,
            AbortReason::Crash => self.counters.crash_aborts += 1,
        }
        let reason_arg = match reason {
            AbortReason::Deadlock => 0,
            AbortReason::Timeout => 1,
            AbortReason::Crash => 2,
        };
        self.emit(
            now,
            TraceEventKind::TxnAbort,
            t.node,
            Some(victim),
            t.waiting_page,
            reason_arg,
        );
        self.release_aborted(now, &t);
        // Free the MPL slot (admit the next queued transaction).
        if let Some((next, _)) = self.nodes[t.node.index()].mpl.release(now) {
            if let Some(n) = self.txns.get_mut(&next) {
                n.admitted = now;
                n.phase = Phase::Running;
                self.start_txn(now, next);
            }
        }
        // Restart after a short randomized delay.
        let delay = SimDuration::from_millis_f64(self.restart_rng.exp(RESTART_DELAY_MS));
        self.cal.schedule(
            now + delay,
            Event::Restart {
                node: t.node,
                spec: t.spec,
                arrival: t.arrival,
                restarts: t.restarts + 1,
            },
        );
    }

    /// The watchdog's diagnostic dump: live transactions by phase,
    /// per-node queue depths, the waits-for graph, and for the oldest
    /// lock waiters the holders of the page they wait for.
    fn dump_stuck(&self, now: SimTime) {
        // Phase counts in a fixed order so the dump is reproducible
        // (a map printed in iteration order is not).
        const PHASES: [(&str, Phase); 5] = [
            ("input", Phase::InputQueue),
            ("running", Phase::Running),
            ("lockwait", Phase::LockWait),
            ("pagewait", Phase::PageWait),
            ("commitio", Phase::CommitIo),
        ];
        // One extra bucket for phases the table doesn't know: a stuck
        // run's diagnostic must degrade to "other", never panic.
        let mut counts = [0usize; PHASES.len() + 1];
        for t in self.txns.values() {
            let bucket = PHASES
                .iter()
                .position(|&(_, p)| p == t.phase)
                .unwrap_or(PHASES.len());
            counts[bucket] += 1;
        }
        let summary: Vec<String> = PHASES
            .iter()
            .map(|&(label, _)| label)
            .chain(std::iter::once("other"))
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(label, c)| format!("{label}: {c}"))
            .collect();
        eprintln!(
            "STUCK phases: {{{}}} live={}",
            summary.join(", "),
            self.txns.len()
        );
        for (i, ctx) in self.nodes.iter().enumerate() {
            // Per-node wait-class depths and the oldest live arrival:
            // shows *where* a stalled node's transactions sit.
            let mut input = 0usize;
            let mut lockwait = 0usize;
            let mut iowait = 0usize;
            let mut oldest: Option<SimTime> = None;
            for t in self.txns.values() {
                if t.node.index() != i {
                    continue;
                }
                match t.phase {
                    Phase::InputQueue => input += 1,
                    Phase::LockWait => lockwait += 1,
                    Phase::PageWait | Phase::CommitIo => iowait += 1,
                    Phase::Running => {}
                }
                oldest = Some(oldest.map_or(t.arrival, |o| o.min(t.arrival)));
            }
            let oldest_age = oldest.map_or(0.0, |a| (now - a).as_secs_f64());
            eprintln!(
                "  NODE {i}: cpus in_use={} queue={} mpl in_use={} queue={} input={input} lockwait={lockwait} iowait={iowait} oldest_txn_age={oldest_age:.1}s",
                ctx.cpus.in_use(),
                ctx.cpus.queue_len(),
                ctx.mpl.in_use(),
                ctx.mpl.queue_len(),
            );
        }
        let mut edges = Vec::new();
        self.collect_waits_for(false, &mut edges);
        edges.sort_unstable();
        edges.dedup();
        eprintln!(
            "  EDGES({}): {:?}",
            edges.len(),
            &edges[..edges.len().min(60)]
        );
        eprintln!("  CYCLE: {:?}", find_cycle(&edges));
        for t in self.txns.values() {
            if matches!(t.phase, Phase::Running | Phase::PageWait | Phase::CommitIo) {
                eprintln!(
                    "  ACTIVE {:?} node={} phase={:?} step={}/{} waiting={:?} held={:?} modified={:?} commit_writes={}",
                    t.id, t.node, t.phase, t.step, t.spec.refs().len(),
                    t.waiting_page, t.held, t.modified,
                    t.commit_writes.len(),
                );
            }
        }
        let mut waits: Vec<_> = self
            .txns
            .values()
            .filter(|t| t.phase == Phase::LockWait)
            .collect();
        waits.sort_by_key(|t| t.wait_since);
        for t in waits.iter().take(12) {
            eprintln!(
                "  {:?} node={} phase={:?} step={}/{} waiting={:?} since={:.1}s held={}",
                t.id,
                t.node,
                t.phase,
                t.step,
                t.spec.refs().len(),
                t.waiting_page,
                (now - t.wait_since).as_secs_f64(),
                t.held.len(),
            );
            if let Some(p) = t.waiting_page {
                let (holders, qlen) = self.lock_holders(p);
                eprintln!("    holders={holders:?} queue={qlen}");
                for (h, _) in holders.iter().take(3) {
                    if let Some(ht) = self.txns.get(h) {
                        eprintln!(
                            "    -> holder {:?} phase={:?} step={}/{} waiting={:?} node={}",
                            h,
                            ht.phase,
                            ht.step,
                            ht.spec.refs().len(),
                            ht.waiting_page,
                            ht.node
                        );
                    } else {
                        eprintln!("    -> holder {h:?} NOT LIVE (leaked lock!)");
                    }
                }
            }
        }
        eprintln!(
            "  CAL depth={} scheduled={}",
            self.cal.len(),
            self.cal.total_scheduled()
        );
    }

    // ------------------------------------------------------------------
    // Failure injection (reproduction extension)
    // ------------------------------------------------------------------

    /// The node fails: its volatile state is lost. Every transaction it
    /// was running aborts (restarting on a survivor), and so does every
    /// transaction whose locks were volatile state of the node
    /// ([`crash_locks`](Engine::crash_locks)). Messages to the node are
    /// delivered after the recovery point (see `deliver`).
    ///
    /// Modelling note: CPU jobs already queued on the failing node when
    /// it crashes still run to completion (their continuations are
    /// no-ops once their transactions are gone). This slightly
    /// understates the crash's disruption; the work involved is a few
    /// milliseconds of in-flight slices.
    pub(crate) fn node_crash(&mut self, now: SimTime, node: NodeId) {
        self.down[node.index()] = true;
        // Arrivals waiting for an MPL slot restart on a survivor. The
        // drain reuses the engine-owned scratch buffer.
        let mut queued = std::mem::take(&mut self.scratch_queue);
        queued.clear();
        self.nodes[node.index()]
            .mpl
            .drain_queue_into(now, &mut queued);
        for &id in &queued {
            if let Some(t) = self.txns.remove(&id) {
                self.counters.crash_aborts += 1;
                self.schedule_restart(now, &t);
            }
        }
        self.scratch_queue = queued;
        // Every live transaction executing on the node aborts.
        let mut victims: Vec<TxnId> = self
            .txns
            .values()
            .filter(|t| t.node == node)
            .map(|t| t.id)
            .collect();
        victims.sort_unstable();
        for v in victims {
            self.abort(now, v, AbortReason::Crash);
        }
        // The buffer content is gone; its lookups stay counted in the
        // timeline's buffer totals.
        let parts = self.part_names.len();
        let lost = std::mem::replace(
            &mut self.nodes[node.index()].buffer,
            dbshare_node::BufferManager::new(self.cfg.buffer_pages_per_node, parts),
        );
        for pi in 0..parts {
            let c = lost.counters(pi);
            self.crashed_buffer.0 += c.hits;
            self.crashed_buffer.1 += c.misses;
        }
        self.crash_locks(now, node);
    }

    /// The node rejoins with a cold buffer.
    pub(crate) fn node_recovered(&mut self, node: NodeId) {
        self.down[node.index()] = false;
    }

    /// Schedules a restart of `t` (used by crash handling; deadlock
    /// aborts go through [`abort`](Engine::abort)).
    pub(crate) fn schedule_restart(&mut self, now: SimTime, t: &super::Txn) {
        let delay = SimDuration::from_millis_f64(self.restart_rng.exp(RESTART_DELAY_MS));
        self.cal.schedule(
            now + delay,
            Event::Restart {
                node: t.node,
                spec: t.spec.clone(),
                arrival: t.arrival,
                restarts: t.restarts + 1,
            },
        );
    }

    // ------------------------------------------------------------------
    // Report assembly
    // ------------------------------------------------------------------

    /// Builds the end-of-run report at `now`. Also constructs and
    /// validates the merged global log (§2 / \[Ra91a\]) — an internal
    /// consistency check on commit ordering.
    pub(crate) fn build_report(&mut self, now: SimTime) -> RunReport {
        let global_log = dbshare_storage::globallog::merge(&self.local_logs);
        let global_log_records = dbshare_storage::globallog::validate(&global_log)
            .expect("global log must merge consistently") as u64;
        let c = self.counters.since(&self.base);
        let n = self.measured.max(1) as f64;
        let dev = self.storage.report(now);
        let span = (now - self.metrics.started).as_secs_f64().max(1e-9);

        let mut cpu_per_node = Vec::with_capacity(self.nodes.len());
        for ctx in self.nodes.iter_mut() {
            cpu_per_node.push(ctx.cpus.utilization(now));
        }
        let cpu_avg = cpu_per_node.iter().sum::<f64>() / cpu_per_node.len() as f64;
        let cpu_max = cpu_per_node.iter().cloned().fold(0.0, f64::max);

        // Aggregate buffer counters per partition across nodes.
        let mut hit_ratios = Vec::new();
        for (pi, name) in self.part_names.iter().enumerate() {
            let mut agg = BufferCounters::default();
            for ctx in &self.nodes {
                let cnt = ctx.buffer.counters(pi);
                agg.hits += cnt.hits;
                agg.misses += cnt.misses;
                agg.invalidations += cnt.invalidations;
            }
            hit_ratios.push((name.clone(), agg.hit_ratio()));
        }

        let local_lock_fraction = self.local_lock_fraction(&c);

        let avg_refs = self.metrics.refs_completed as f64 / n;
        let norm_response_ms = self.metrics.resp_per_ref.mean() * avg_refs;

        RunReport {
            nodes: self.cfg.nodes,
            measured_txns: self.measured,
            truncated: self.truncated,
            sim_seconds: span,
            throughput_tps: self.measured as f64 / span,
            mean_response_ms: self.metrics.resp.mean(),
            response_ci95_ms: self.metrics.resp_batches.ci95_half_width(),
            p50_response_ms: self.metrics.resp_hist.percentile(50.0).as_millis_f64(),
            p95_response_ms: self.metrics.resp_hist.percentile(95.0).as_millis_f64(),
            norm_response_ms,
            input_wait_ms: self.metrics.input_wait.mean(),
            lock_wait_ms: self.metrics.lock_wait.mean(),
            io_wait_ms: self.metrics.io_wait.mean(),
            cpu_wait_ms: self.metrics.cpu_wait.mean(),
            cpu_service_ms: self.metrics.cpu_service.mean(),
            cpu_utilization: cpu_avg,
            cpu_utilization_max: cpu_max,
            cpu_utilization_per_node: cpu_per_node,
            gem_utilization: dev.gem_utilization,
            lock_engine_utilization: dev.lock_engine_utilization,
            network_utilization: dev.network_utilization,
            messages_per_txn: dev.messages as f64 / n,
            gem_entries_per_txn: dev.gem_entry_ops as f64 / n,
            page_requests_per_txn: c.page_requests as f64 / n,
            page_transfers_per_txn: c.page_transfers as f64 / n,
            revokes_per_txn: c.revokes_sent as f64 / n,
            page_req_delay_ms: self.metrics.page_req_delay.mean(),
            lock_requests_per_txn: c.lock_requests as f64 / n,
            local_lock_fraction,
            lock_waits_per_txn: c.lock_waits as f64 / n,
            invalidations_per_txn: c.invalidations as f64 / n,
            reads_per_txn: c.storage_reads as f64 / n,
            writes_per_txn: (c.commit_writes + c.log_writes) as f64 / n,
            evict_writes_per_txn: c.evict_writes as f64 / n,
            hit_ratios,
            disk_utilizations: self
                .part_names
                .iter()
                .cloned()
                .zip(dev.partitions.iter().map(|p| p.disk_utilization))
                .collect(),
            log_utilization_max: dev.log_utilization.iter().cloned().fold(0.0, f64::max),
            deadlock_aborts: c.deadlock_aborts,
            timeout_aborts: c.timeout_aborts,
            crash_aborts: c.crash_aborts,
            global_log_records,
            events_processed: self.cal.total_scheduled(),
            profile: self.profile.clone(),
            tps_per_node_at_80pct_cpu: if cpu_avg > 1e-9 {
                self.cfg.arrival_tps_per_node * 0.8 / cpu_avg
            } else {
                0.0
            },
        }
    }
}
