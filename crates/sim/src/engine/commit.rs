//! Commit processing (§3.2): phase 1 writes log data (and, under
//! FORCE, all modified pages) to non-volatile storage (`io.rs`); phase
//! 2 releases the transaction's locks and publishes its modifications
//! (`locking.rs`).

use super::io::IoOp;
use super::txn::{CommitWrite, Grantor};
use super::{Cont, Engine, Job, Phase};
use dbshare_model::{TxnId, UpdateStrategy};
use desim::SimTime;

impl Engine {
    /// Last access done: run the end-of-transaction CPU slice.
    pub(crate) fn commit_begin(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let svc = self.sample(node, |c, r| c.eot(r));
        self.dispatch(now, node, Job::cpu(svc, Some(id), Cont::CommitInit(id)));
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
        self.commit_write(now, id, 0);
    }

    /// Starts the `idx`-th commit write, or phase 2 after the last one.
    pub(crate) fn commit_write(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get(&id) else { return };
        if idx < t.commit_writes.len() {
            self.start_io(now, IoOp::Commit { txn: id, idx });
        } else {
            self.phase2_begin(now, id);
        }
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
