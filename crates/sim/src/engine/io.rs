//! The engine's I/O module (§3.2–3.3, Table 4.1): the one place that
//! decides how a page I/O starts and ends.
//!
//! Every page read, commit write (a FORCE page or the log page),
//! dirty-page write-back and GEM page transfer is an [`IoOp`] started
//! by [`start_io`](Engine::start_io). Its initiation CPU job costs 300
//! instructions for a GEM target and 3,000 for a disk. Storage names
//! the path ([`IoPath`]): a GEM-resident page (and a GEM page
//! transfer) is accessed synchronously, with the CPU held for the
//! 50 µs page access, and the job continues at [`Cont::IoDone`];
//! anything else is asynchronous, and the job continues at
//! [`Cont::IoIssue`], which issues the device access and fires
//! `IoDone` at its completion. A page copy enters a buffer for an
//! access in one place, [`install_page`](Engine::install_page), and
//! every copy enters a buffer through [`put_copy`](Engine::put_copy).
//!
//! A synchronous read is counted and traced (`PageRead`) when it
//! completes, an asynchronous one when it is issued. A synchronous
//! commit write is counted when it starts, and emits no `CommitIo` or
//! `CommitIoDone`.

use super::{Cont, Engine, Event, Job, Msg, Phase};
use dbshare_model::{NodeId, PageId, TxnId};
use dbshare_storage::{IoPath, IoTarget};
use desim::trace::TraceEventKind;
use desim::SimTime;

/// A page I/O, from its initiation CPU job to its completion.
#[derive(Debug)]
pub(crate) enum IoOp {
    /// A read of the current access's page: a buffer miss, or a page
    /// whose owner no longer buffers it.
    Read(TxnId),
    /// The `idx`-th write of a committing transaction's phase 1.
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Position in its phase-1 write chain.
        idx: usize,
        /// The FORCE page or the log page it writes.
        target: IoTarget,
    },
    /// The write-back of a dirty page evicted from `node`'s buffer (a
    /// system job: no transaction waits for it).
    WriteBack {
        /// Node that evicted the page.
        node: NodeId,
        /// The dirty page.
        page: PageId,
    },
    /// The owner stores a requested page in GEM
    /// (`PageTransferMode::Gem`), then sends this reply.
    TransferStore(Msg),
    /// The requester fetches a transferred page out of GEM.
    TransferFetch(TxnId),
}

/// How the copy of the current access's page reached the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Created by a sequential insert, or shipped with the lock grant:
    /// nothing was waited for.
    InPlace,
    /// Read from storage: ends the read's wait.
    Read,
    /// Sent by its owner, in a message or through GEM: ends the page
    /// request's wait, which is recorded as its delay.
    Transfer,
}

impl Engine {
    /// Starts `op`: the initiation CPU job on the node that performs
    /// it, on the path storage names. A transaction whose read is
    /// asynchronous waits from here, unless the wait of its page
    /// request is still open.
    pub(crate) fn start_io(&mut self, now: SimTime, op: IoOp) {
        let (node, txn, path) = match op {
            IoOp::Read(id) => {
                let t = self.txn(id);
                let target = IoTarget::Read(t.access().0);
                (t.node, Some(id), self.storage.io_path(target))
            }
            IoOp::Commit { txn, target, .. } => {
                (self.txn(txn).node, Some(txn), self.storage.io_path(target))
            }
            IoOp::WriteBack { node, page } => {
                self.counters.evict_writes += 1;
                self.emit(now, TraceEventKind::PageFlush, node, None, Some(page), 0);
                (node, None, self.storage.io_path(IoTarget::Write(page)))
            }
            IoOp::TransferStore(ref reply) => (reply.from, None, IoPath::GemSync),
            IoOp::TransferFetch(id) => (self.txn(id).node, Some(id), IoPath::GemSync),
        };
        let sync = path == IoPath::GemSync;
        match op {
            IoOp::Commit { .. } if sync => self.counters.commit_writes += 1,
            IoOp::Read(id) if !sync => {
                let t = self.txn_mut(id);
                if t.phase != Phase::PageWait {
                    t.begin_wait(now, Phase::PageWait, None);
                }
            }
            _ => {}
        }
        let instr = match path {
            IoPath::Disk => self.cfg.disk.io_instr_per_page,
            IoPath::GemSync | IoPath::GemAsync => self.cfg.gem.io_init_instr,
        };
        let cont = if sync {
            Cont::IoDone { op, sync }
        } else {
            Cont::IoIssue(op)
        };
        let job = Job {
            service: self.fixed(instr),
            gem_entries: 0,
            gem_pages: u32::from(sync),
            txn,
            cont,
        };
        self.dispatch(now, node, job);
    }

    /// The initiation CPU of an asynchronous I/O finished: issue the
    /// device access and fire `IoDone` at its completion.
    pub(crate) fn io_issue(&mut self, now: SimTime, op: IoOp) {
        let done = match op {
            IoOp::Read(id) => {
                let Some(t) = self.txns.get(&id) else { return };
                let (node, page) = (t.node, t.access().0);
                self.counters.storage_reads += 1;
                self.emit(now, TraceEventKind::PageRead, node, Some(id), Some(page), 0);
                self.storage.read_page(now, page)
            }
            IoOp::Commit { txn, target, .. } => {
                let Some(t) = self.txns.get_mut(&txn) else {
                    return;
                };
                let node = t.node;
                let page = match target {
                    IoTarget::Write(p) => Some(p),
                    _ => None,
                };
                t.begin_wait(now, Phase::CommitIo, None);
                self.emit(now, TraceEventKind::CommitIo, node, Some(txn), page, 0);
                if let Some(p) = page {
                    self.counters.commit_writes += 1;
                    self.storage.write_page(now, p)
                } else {
                    self.counters.log_writes += 1;
                    self.storage.write_log(now, node)
                }
            }
            IoOp::WriteBack { page, .. } => self.storage.write_page(now, page),
            IoOp::TransferStore(_) | IoOp::TransferFetch(_) => {
                unreachable!("GEM page transfers are synchronous")
            }
        };
        let cont = Cont::IoDone { op, sync: false };
        self.cal.schedule(done, Event::IoDone { cont });
    }

    /// `op` finished (`sync`: with its CPU job): the read page enters
    /// the buffer, the commit chain moves on, the write-back may clear
    /// the page's GLT ownership, the stored page's reply is sent.
    pub(crate) fn io_done(&mut self, now: SimTime, op: IoOp, sync: bool) {
        match op {
            IoOp::Read(id) => {
                let Some(t) = self.txns.get(&id) else { return };
                let (node, page) = (t.node, t.access().0);
                let seqno = t.seqno(page);
                if sync {
                    self.counters.storage_reads += 1;
                    self.emit(now, TraceEventKind::PageRead, node, Some(id), Some(page), 0);
                }
                self.install_page(now, id, seqno, Arrival::Read);
            }
            IoOp::Commit { txn, idx, .. } => {
                let Some(t) = self.txns.get_mut(&txn) else {
                    return;
                };
                if !sync {
                    let node = t.node;
                    let waited = t.end_io_wait(now).as_nanos();
                    self.emit(
                        now,
                        TraceEventKind::CommitIoDone,
                        node,
                        Some(txn),
                        None,
                        waited,
                    );
                }
                self.commit_write(now, txn, idx + 1);
            }
            IoOp::WriteBack { node, page } => self.evict_write_done(now, node, page),
            IoOp::TransferStore(reply) => self.send_page_reply(now, reply),
            IoOp::TransferFetch(id) => {
                let Some(t) = self.txns.get(&id) else { return };
                let seqno = t.seqno(t.access().0);
                self.install_page(now, id, seqno, Arrival::Transfer);
            }
        }
    }

    /// Installs version `seqno` of the current access's page in the
    /// buffer (writing back the dirty page it displaces), ends the wait
    /// for it, and finishes the access.
    pub(crate) fn install_page(&mut self, now: SimTime, id: TxnId, seqno: u64, arrival: Arrival) {
        let t = self.txn_mut(id);
        let (node, page) = (t.node, t.access().0);
        let waited = t.end_io_wait(now);
        if arrival == Arrival::Transfer {
            self.metrics.page_req_delay.record(waited.as_millis_f64());
        }
        self.put_copy(now, node, page, seqno, false);
        if arrival != Arrival::InPlace {
            self.emit(
                now,
                TraceEventKind::PageReadDone,
                node,
                Some(id),
                Some(page),
                waited.as_nanos(),
            );
        }
        self.finish_access(now, id);
    }

    /// Puts version `seqno` of `page` in `node`'s buffer, as a modified
    /// copy if `dirty`. The copy that enters and the one evicted for it
    /// are counted at the lock state, and an evicted dirty page is
    /// written back.
    pub(crate) fn put_copy(
        &mut self,
        now: SimTime,
        node: NodeId,
        page: PageId,
        seqno: u64,
        dirty: bool,
    ) {
        let buffer = &mut self.nodes[node.index()].buffer;
        let placed = if dirty {
            buffer.mark_dirty(page, seqno)
        } else {
            buffer.insert(page, seqno, false)
        };
        if placed.added {
            self.copy_entered(page);
        }
        if let Some((victim, frame)) = placed.evicted {
            self.copy_left(victim);
            if frame.dirty {
                self.start_io(now, IoOp::WriteBack { node, page: victim });
            }
        }
    }
}
