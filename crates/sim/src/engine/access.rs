//! Record-access processing: the access CPU slice, the lock request
//! (`locking.rs`), buffer-invalidation detection, and page acquisition
//! (buffer hit, page request to the owner, or storage read, `io.rs`).

use super::io::{Arrival, IoOp};
use super::locking::PageCopy;
use super::{Cont, Engine, Job, Msg, MsgBody, Phase};
use dbshare_model::TxnId;
use desim::trace::TraceEventKind;
use desim::SimTime;

impl Engine {
    /// Starts the next record access, or commit when the program is done.
    pub(crate) fn begin_access(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        if t.step >= t.spec.refs().len() {
            self.commit_begin(now, id);
            return;
        }
        let node = t.node;
        let records = t.spec.refs()[t.step].records;
        // One exponentially distributed CPU service per *record* access
        // (§3.2); clustered pages carry several records.
        let svc = (0..records)
            .map(|_| self.sample(node, |c, r| c.access(r)))
            .sum();
        self.dispatch(now, node, Job::cpu(svc, Some(id), Cont::AccessCpuDone(id)));
    }

    /// The access CPU slice is done: request the lock, or go straight
    /// to the page phase for unlocked partitions.
    pub(crate) fn after_access_cpu(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let (page, mode) = t.access();
        if !self.locked_partition(page) {
            self.acquire_page(now, id, 0, PageCopy::Stored, false);
            return;
        }
        // Covering lock already held (trace transactions may touch a
        // page repeatedly): no new request.
        if let Some(held) = t.locks.get(&page).filter(|l| l.mode().covers(mode)) {
            let seqno = held.seqno();
            self.acquire_page(now, id, seqno, PageCopy::Stored, true);
            return;
        }
        self.counters.lock_requests += 1;
        let node = t.node;
        self.emit(
            now,
            TraceEventKind::LockRequest,
            node,
            Some(id),
            Some(page),
            0,
        );
        self.request_lock(now, id, page, mode);
    }

    // ------------------------------------------------------------------
    // Page acquisition (common)
    // ------------------------------------------------------------------

    /// With the lock held and the current version `seqno` known, obtain
    /// the page: buffer hit, the copy shipped with the grant, page
    /// request to the owner, or storage read.
    pub(crate) fn acquire_page(
        &mut self,
        now: SimTime,
        id: TxnId,
        seqno: u64,
        copy: PageCopy,
        versioned: bool,
    ) {
        use dbshare_node::Lookup;
        let t = self.txn(id);
        let node = t.node;
        let r = t.spec.refs()[t.step];
        let page = r.page;
        let lookup = if versioned {
            self.nodes[node.index()].buffer.lookup(page, seqno)
        } else {
            self.nodes[node.index()].buffer.lookup_unversioned(page)
        };
        match lookup {
            Lookup::Hit => self.finish_access(now, id),
            miss => {
                if miss == Lookup::Invalidated {
                    self.counters.invalidations += 1;
                }
                match copy {
                    // Sequential insert: the page is created in the
                    // buffer, no read I/O is ever needed. A shipped copy
                    // is installed as it arrived.
                    _ if r.append || copy == PageCopy::Shipped => {
                        self.install_page(now, id, seqno, Arrival::InPlace)
                    }
                    PageCopy::Owner(owner) if owner != node => {
                        // Request the current version from its owner.
                        self.counters.page_requests += 1;
                        self.txn_mut(id)
                            .begin_wait(now, Phase::PageWait, Some(page));
                        self.send_msg(
                            now,
                            Msg {
                                from: node,
                                to: owner,
                                body: MsgBody::PageReq { txn: id, page },
                            },
                            Some(id),
                            None,
                        );
                    }
                    _ => self.start_io(now, IoOp::Read(id)),
                }
            }
        }
    }

    /// Access complete: note modifications, advance to the next
    /// reference.
    pub(crate) fn finish_access(&mut self, now: SimTime, id: TxnId) {
        let t = self.txn_mut(id);
        let r = t.spec.refs()[t.step];
        if r.mode.is_write() {
            t.note_modified(r.page);
        }
        t.step += 1;
        t.phase = Phase::Running;
        self.begin_access(now, id);
    }
}
