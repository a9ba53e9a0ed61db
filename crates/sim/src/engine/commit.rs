//! Commit processing (§3.2): phase 1 writes log data (and, under
//! FORCE, all modified pages) to non-volatile storage; phase 2 releases
//! the transaction's locks and publishes its modifications
//! (`locking.rs`).

use super::txn::{CommitWrite, Grantor};
use super::{Cont, Engine, Job, Phase};
use dbshare_model::{TxnId, UpdateStrategy};
use desim::trace::TraceEventKind;
use desim::SimTime;

impl Engine {
    /// Last access done: run the end-of-transaction CPU slice.
    pub(crate) fn commit_begin(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let svc = self.sample(node, |c, r| c.eot(r));
        self.dispatch(
            now,
            node,
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: Some(id),
                cont: Cont::CommitInit(id),
            },
        );
    }

    /// Builds the commit-write list (phase 1) and starts the write
    /// chain. Force-writes and the log write are performed one after
    /// another (sequential device operations, as in the paper's FORCE
    /// model — this is what makes the force-write latency of each
    /// individual file visible, §4.4).
    pub(crate) fn commit_init(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let force = self.cfg.update == UpdateStrategy::Force;
        t.commit_writes.clear();
        if force {
            for i in 0..t.modified.len() {
                let p = t.modified[i];
                t.commit_writes.push(CommitWrite { page: Some(p) });
            }
        }
        if !t.modified.is_empty() {
            // One log page per update transaction (§3.2), written after
            // the force-writes.
            t.commit_writes.push(CommitWrite { page: None });
        }
        if t.commit_writes.is_empty() {
            self.phase2_begin(now, id);
        } else {
            self.commit_write_init(now, id, 0);
        }
    }

    /// Initiates the `idx`-th commit write: CPU for the I/O initiation,
    /// performed synchronously for GEM-resident pages.
    pub(crate) fn commit_write_init(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        if idx >= t.commit_writes.len() {
            self.phase2_begin(now, id);
            return;
        }
        let node = t.node;
        let w = t.commit_writes[idx];
        match w.page {
            Some(p) if self.storage.is_gem_resident(p) => {
                // Synchronous force-write into GEM: CPU held for the
                // 50 µs page write; nothing asynchronous to wait for.
                self.counters.commit_writes += 1;
                let svc = self.fixed(self.cfg.gem.io_init_instr);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 1,
                        txn: Some(id),
                        cont: Cont::CommitWriteInit {
                            txn: id,
                            idx: idx + 1,
                        },
                    },
                );
            }
            _ => {
                // GEM-buffered targets (write-buffered partitions, GEM
                // log) have the cheap 300-instruction initiation.
                let gem_target = match w.page {
                    Some(p) => self.storage.write_goes_to_gem(p),
                    None => self.storage.log_is_gem(),
                };
                let instr = if gem_target {
                    self.cfg.gem.io_init_instr
                } else {
                    self.cfg.disk.io_instr_per_page
                };
                let svc = self.fixed(instr);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 0,
                        txn: Some(id),
                        cont: Cont::CommitWriteIssue { txn: id, idx },
                    },
                );
            }
        }
    }

    /// Issues the `idx`-th commit write to its device; the next write
    /// is initiated when this one completes (sequential chain).
    pub(crate) fn commit_write_issue(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let node = t.node;
        let w = t.commit_writes[idx];
        let served = match w.page {
            None => {
                self.counters.log_writes += 1;
                self.storage.write_log(now, node)
            }
            Some(p) => {
                self.counters.commit_writes += 1;
                self.storage.write_page(now, p)
            }
        };
        self.txn_mut(id).begin_wait(now, Phase::CommitIo, None);
        self.emit(now, TraceEventKind::CommitIo, node, Some(id), w.page, 0);
        self.cal.schedule(
            served.done,
            super::Event::IoDone {
                cont: Cont::CommitIoChain { txn: id, idx },
            },
        );
    }

    /// A commit write finished: initiate the next one (or phase 2).
    pub(crate) fn commit_io_chain(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let node = t.node;
        let waited = if t.phase == Phase::CommitIo && now >= t.wait_since {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        t.end_io_wait(now);
        self.emit(
            now,
            TraceEventKind::CommitIoDone,
            node,
            Some(id),
            None,
            waited,
        );
        self.commit_write_init(now, id, idx + 1);
    }

    /// Begins phase 2: the lock-release CPU slice, one lock operation
    /// per lock held on this node (at least one); locks of remote
    /// authorities are released by message.
    fn phase2_begin(&mut self, now: SimTime, id: TxnId) {
        let t = self.txn_mut(id);
        t.phase = Phase::Running;
        let node = t.node;
        let ops = t
            .held
            .iter()
            .filter(|&&(_, at)| !matches!(at, Grantor::Gla(g) if g != node))
            .count();
        let job = self.lock_job(ops.max(1) as u32, Some(id), Cont::ReleaseExec(id));
        self.dispatch(now, node, job);
    }
}
