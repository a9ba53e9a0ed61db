//! Per-transaction runtime state.

use dbshare_lockmgr::LockMode;
use dbshare_model::{NodeId, PageId, TxnId, TxnSpec, UpdateStrategy};
use dbshare_storage::IoTarget;
use desim::fxhash::FxHashMap;
use desim::{SimDuration, SimTime};
use std::collections::hash_map::Entry;

/// Where a transaction currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for a multiprogramming slot.
    InputQueue,
    /// Executing (CPU, storage, or protocol processing).
    Running,
    /// Waiting for a lock (queued locally or at a remote GLA, or a
    /// pending write awaiting revocation acks).
    LockWait,
    /// Waiting for a page (storage read or page transfer).
    PageWait,
    /// Commit phase 1: waiting for log/force writes.
    CommitIo,
}

/// Where a held lock was granted, recorded at grant time: commit and
/// abort release it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Grantor {
    /// The global lock table (GEM locking or the central lock engine).
    Glt,
    /// The global lock authority (GLA) of a node (PCL).
    Gla(NodeId),
    /// A read authorization of the transaction's own node (PCL read
    /// optimization).
    Ra,
}

/// One entry of a transaction's lock index ([`Txn::locks`]): the page
/// version learned when the lock was (last) granted, the mode held (the
/// stronger of the modes granted), and its [`Grantor`]. Packed into one
/// word, so an index entry takes no more memory than a bare page
/// version: the write flag in the top bit, the grantor code (0 GLT,
/// 1 RA, 2 + node for a GLA) in the next 17, the version below.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldLock(u64);

impl HeldLock {
    const WRITE: u64 = 1 << 63;
    const AT_SHIFT: u32 = 46;
    const SEQNO: u64 = (1 << Self::AT_SHIFT) - 1;

    fn new(seqno: u64, mode: LockMode, at: Grantor) -> Self {
        assert!(
            seqno <= Self::SEQNO,
            "page version {seqno} overflows the lock index"
        );
        let at = match at {
            Grantor::Glt => 0,
            Grantor::Ra => 1,
            Grantor::Gla(node) => 2 + u64::from(node.raw()),
        };
        let write = if mode == LockMode::Write {
            Self::WRITE
        } else {
            0
        };
        HeldLock(write | at << Self::AT_SHIFT | seqno)
    }

    /// Page version learned when the lock was (last) granted.
    pub fn seqno(self) -> u64 {
        self.0 & Self::SEQNO
    }

    /// The mode held.
    pub fn mode(self) -> LockMode {
        if self.0 & Self::WRITE != 0 {
            LockMode::Write
        } else {
            LockMode::Read
        }
    }

    /// Where the lock was granted.
    pub fn at(self) -> Grantor {
        match (self.0 & !Self::WRITE) >> Self::AT_SHIFT {
            0 => Grantor::Glt,
            1 => Grantor::Ra,
            code => Grantor::Gla(NodeId::new((code - 2) as u16)),
        }
    }
}

/// Runtime state of one transaction instance.
#[derive(Debug)]
pub(crate) struct Txn {
    /// Identity.
    pub id: TxnId,
    /// Executing node.
    pub node: NodeId,
    /// The program (page references in order).
    pub spec: TxnSpec,
    /// First arrival (restarts keep the original for response times).
    pub arrival: SimTime,
    /// When it obtained its MPL slot.
    pub admitted: SimTime,
    /// Current reference index.
    pub step: usize,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Every lock this transaction holds, in grant order, with its
    /// grantor. The order fixes the page order of release messages and
    /// deferred revocation acknowledgements.
    pub held: Vec<(PageId, Grantor)>,
    /// The lock index: every lock in `held`, by page, with its mode,
    /// grantor and the page version learned at grant time (used to
    /// predict the post-commit version for remote authorities). It
    /// answers "is `page` locked, and how" in one probe.
    pub locks: FxHashMap<PageId, HeldLock>,
    /// Pages modified, in first-modification order (deduplicated).
    pub modified: Vec<PageId>,
    /// The page a lock is being waited on.
    pub waiting_page: Option<PageId>,
    /// When the current wait began.
    pub wait_since: SimTime,
    /// Times restarted after deadlock aborts.
    pub restarts: u32,
    /// Accumulated lock waiting time.
    pub lock_wait: SimDuration,
    /// Accumulated I/O and page-transfer waiting time (PageWait and
    /// CommitIo phases).
    pub io_wait: SimDuration,
    /// Accumulated CPU queueing time.
    pub cpu_wait: SimDuration,
    /// Accumulated CPU service (including synchronous GEM holds).
    pub cpu_service: SimDuration,
}

impl Txn {
    /// Creates a fresh transaction.
    pub fn new(id: TxnId, node: NodeId, spec: TxnSpec, arrival: SimTime, restarts: u32) -> Self {
        Txn {
            id,
            node,
            spec,
            arrival,
            admitted: arrival,
            step: 0,
            phase: Phase::InputQueue,
            held: Vec::new(),
            locks: FxHashMap::default(),
            modified: Vec::new(),
            waiting_page: None,
            wait_since: SimTime::ZERO,
            restarts,
            lock_wait: SimDuration::ZERO,
            io_wait: SimDuration::ZERO,
            cpu_wait: SimDuration::ZERO,
            cpu_service: SimDuration::ZERO,
        }
    }

    /// Reinitialises a recycled transaction slot for a new admission,
    /// keeping every collection's capacity (the held and modified
    /// lists, the lock index). Equivalent to `*self = Txn::new(..)`
    /// without the allocations.
    pub fn renew(
        &mut self,
        id: TxnId,
        node: NodeId,
        spec: TxnSpec,
        arrival: SimTime,
        restarts: u32,
    ) {
        debug_assert!(
            self.held.is_empty(),
            "recycled transaction {:?} still holds locks",
            self.id
        );
        self.id = id;
        self.node = node;
        self.spec = spec;
        self.arrival = arrival;
        self.admitted = arrival;
        self.step = 0;
        self.phase = Phase::InputQueue;
        self.held.clear();
        self.locks.clear();
        self.modified.clear();
        self.waiting_page = None;
        self.wait_since = SimTime::ZERO;
        self.restarts = restarts;
        self.lock_wait = SimDuration::ZERO;
        self.io_wait = SimDuration::ZERO;
        self.cpu_wait = SimDuration::ZERO;
        self.cpu_service = SimDuration::ZERO;
    }

    /// The page version learned when `page` was locked (0 if it is not).
    pub fn seqno(&self, page: PageId) -> u64 {
        self.locks.get(&page).map_or(0, |l| l.seqno())
    }

    /// The current access's page and the lock mode it needs.
    pub fn access(&self) -> (PageId, LockMode) {
        let r = self.spec.refs()[self.step];
        let mode = if r.mode.is_write() {
            LockMode::Write
        } else {
            LockMode::Read
        };
        (r.page, mode)
    }

    /// Records a grant of `mode` on `page` at version `seqno` by `at`:
    /// a page not locked before joins the index and the end of the held
    /// list, a lock already held is upgraded in place.
    pub fn note_grant(&mut self, page: PageId, mode: LockMode, seqno: u64, at: Grantor) {
        match self.locks.entry(page) {
            Entry::Occupied(mut e) => {
                let held = e.get_mut();
                debug_assert!(
                    held.at() == at && at != Grantor::Ra,
                    "{page} re-granted by {at:?} over a lock from {:?}",
                    held.at()
                );
                let mode = if mode == LockMode::Write {
                    mode
                } else {
                    held.mode()
                };
                *held = HeldLock::new(seqno, mode, at);
            }
            Entry::Vacant(e) => {
                e.insert(HeldLock::new(seqno, mode, at));
                self.held.push((page, at));
            }
        }
    }

    /// True if the transaction holds a read lock on `page` granted
    /// under its node's read authorization.
    pub fn holds_ra(&self, page: PageId) -> bool {
        self.locks.get(&page).is_some_and(|l| l.at() == Grantor::Ra)
    }

    /// Drops the read lock on `page` granted under a read authorization
    /// (given back before a write upgrade goes to the GLA).
    pub fn give_back_ra(&mut self, page: PageId) {
        self.locks.remove(&page);
        self.held.retain(|&h| h != (page, Grantor::Ra));
    }

    /// Records a modified page (deduplicated, order-preserving).
    pub fn note_modified(&mut self, page: PageId) {
        if !self.modified.contains(&page) {
            self.modified.push(page);
        }
    }

    /// The `idx`-th write of commit phase 1 under `update`, `None` past
    /// the last: under FORCE each modified page in first-modification
    /// order, then the log page; under NOFORCE the log page only. One
    /// log page per update transaction (§3.2), so a transaction that
    /// modified nothing writes nothing.
    pub fn commit_target(&self, update: UpdateStrategy, idx: usize) -> Option<IoTarget> {
        if self.modified.is_empty() {
            return None;
        }
        let forced: &[PageId] = match update {
            UpdateStrategy::Force => &self.modified,
            UpdateStrategy::NoForce => &[],
        };
        match forced.get(idx) {
            Some(&page) => Some(IoTarget::Write(page)),
            None if idx == forced.len() => Some(IoTarget::Log),
            None => None,
        }
    }

    /// Begins a wait at `now` (lock or page).
    pub fn begin_wait(&mut self, now: SimTime, phase: Phase, page: Option<PageId>) {
        self.phase = phase;
        self.waiting_page = page;
        self.wait_since = now;
    }

    /// Ends a lock wait at `now`, accumulating the waited time.
    pub fn end_lock_wait(&mut self, now: SimTime) {
        if self.phase == Phase::LockWait {
            self.lock_wait += now - self.wait_since;
        }
        self.phase = Phase::Running;
        self.waiting_page = None;
    }

    /// Ends an I/O or page wait at `now`, accumulating and returning
    /// the waited time (zero if none was open).
    pub fn end_io_wait(&mut self, now: SimTime) -> SimDuration {
        let mut waited = SimDuration::ZERO;
        if matches!(self.phase, Phase::PageWait | Phase::CommitIo) && now >= self.wait_since {
            waited = now - self.wait_since;
            self.io_wait += waited;
        }
        self.phase = Phase::Running;
        self.waiting_page = None;
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::{PageRef, TxnTypeId};
    use dbshare_workload::debit_credit::{ACCOUNT, BT, HISTORY};

    fn txn(refs: Vec<PageRef>) -> Txn {
        let spec = TxnSpec::new(TxnTypeId::new(0), 0, refs);
        Txn::new(TxnId::new(0), NodeId::new(0), spec, SimTime::ZERO, 0)
    }

    /// The phase-1 chain under `update`: every write up to the first
    /// index that yields none, checking that the next yields none too.
    fn chain(t: &Txn, update: UpdateStrategy) -> Vec<IoTarget> {
        let writes: Vec<_> = (0..)
            .map_while(|idx| t.commit_target(update, idx))
            .collect();
        assert_eq!(t.commit_target(update, writes.len() + 1), None);
        writes
    }

    #[test]
    fn commit_writes_follow_the_modified_pages_and_the_update_strategy() {
        let account = PageId::new(ACCOUNT, 7);
        let history = PageId::new(HISTORY, 0);
        let bt = PageId::new(BT, 3);
        let mut t = txn(vec![
            PageRef::write(account),
            PageRef::append(history),
            PageRef::write(bt),
        ]);
        for page in [account, history, bt, account] {
            t.note_modified(page);
        }
        assert_eq!(
            chain(&t, UpdateStrategy::Force),
            [
                IoTarget::Write(account),
                IoTarget::Write(history),
                IoTarget::Write(bt),
                IoTarget::Log
            ]
        );
        assert_eq!(chain(&t, UpdateStrategy::NoForce), [IoTarget::Log]);
    }

    #[test]
    fn a_transaction_that_modified_nothing_writes_nothing() {
        let t = txn(vec![PageRef::read(PageId::new(ACCOUNT, 7))]);
        assert_eq!(chain(&t, UpdateStrategy::Force), []);
        assert_eq!(chain(&t, UpdateStrategy::NoForce), []);
    }
}
