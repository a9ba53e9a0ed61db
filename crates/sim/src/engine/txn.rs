//! Per-transaction runtime state.

use dbshare_lockmgr::LockMode;
use dbshare_model::{NodeId, PageId, TxnId, TxnSpec};
use desim::fxhash::FxHashMap;
use desim::smallvec::InlineVec;
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

/// A commit-time page write (phase 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitWrite {
    /// The page to write (None = the log record, which goes to the
    /// node's log disks).
    pub page: Option<PageId>,
}

/// One entry of a transaction's lock index ([`Txn::locks`]): the page
/// version learned when the lock was (last) granted, the mode held (the
/// stronger of the modes granted), and whether it is a read lock
/// granted locally under a read authorization (listed in `held_ra`)
/// rather than by the GEM lock table or a GLA. Packed into one word,
/// so an index entry takes no more memory than a bare page version.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldLock(u64);

impl HeldLock {
    const WRITE: u64 = 1 << 63;
    const RA: u64 = 1 << 62;
    const SEQNO: u64 = Self::RA - 1;

    fn new(seqno: u64, mode: LockMode, ra: bool) -> Self {
        assert!(
            seqno <= Self::SEQNO,
            "page version {seqno} overflows the lock index"
        );
        let mut bits = seqno;
        if mode == LockMode::Write {
            bits |= Self::WRITE;
        }
        if ra {
            bits |= Self::RA;
        }
        HeldLock(bits)
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

    /// A read lock granted locally under a read authorization.
    pub fn is_ra(self) -> bool {
        self.0 & Self::RA != 0
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
    /// Pages locked via the GEM global lock table, in grant order.
    pub held_gem: InlineVec<PageId, 8>,
    /// Locks held at GLA nodes, in grant order: (authority, page).
    pub held_gla: InlineVec<(NodeId, PageId), 8>,
    /// Pages read-locked locally under a read authorization, in grant
    /// order. A page whose RA lock was given back early for a write
    /// upgrade stays listed; its `locks` entry no longer says `ra`.
    pub held_ra: InlineVec<PageId, 8>,
    /// The lock index: every lock this transaction holds, by page, with
    /// its mode and the page version learned at grant time (used to
    /// predict the post-commit version for remote authorities). The
    /// ordered `held_*` lists fix the release order; this map answers
    /// "is `page` locked, and how" in one probe.
    pub locks: FxHashMap<PageId, HeldLock>,
    /// Pages modified (ordered, deduplicated).
    pub modified: InlineVec<PageId, 8>,
    /// Commit phase 1 write list (performed as a sequential chain).
    pub commit_writes: InlineVec<CommitWrite, 8>,
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
            held_gem: InlineVec::new(),
            held_gla: InlineVec::new(),
            held_ra: InlineVec::new(),
            locks: FxHashMap::default(),
            modified: InlineVec::new(),
            commit_writes: InlineVec::new(),
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
    /// keeping every collection's capacity (spill buffers, hash-map
    /// storage). Equivalent to `*self = Txn::new(..)` without the
    /// allocations.
    pub fn renew(
        &mut self,
        id: TxnId,
        node: NodeId,
        spec: TxnSpec,
        arrival: SimTime,
        restarts: u32,
    ) {
        debug_assert!(
            self.held_gem.is_empty() && self.held_gla.is_empty() && self.held_ra.is_empty(),
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
        self.held_gem.clear();
        self.held_gla.clear();
        self.held_ra.clear();
        self.locks.clear();
        self.modified.clear();
        self.commit_writes.clear();
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

    /// Records a grant of `mode` on `page` at version `seqno` in the
    /// lock index. Returns `true` for a page not locked before, which
    /// the caller appends to its ordered held list; a lock already held
    /// is upgraded in place.
    pub fn note_grant(&mut self, page: PageId, mode: LockMode, seqno: u64, ra: bool) -> bool {
        match self.locks.entry(page) {
            Entry::Occupied(mut e) => {
                let held = e.get_mut();
                debug_assert!(!held.is_ra() && !ra, "{page} re-granted over an RA lock");
                let mode = if mode == LockMode::Write {
                    mode
                } else {
                    held.mode()
                };
                *held = HeldLock::new(seqno, mode, false);
                false
            }
            Entry::Vacant(e) => {
                e.insert(HeldLock::new(seqno, mode, ra));
                true
            }
        }
    }

    /// True if the transaction holds a locally authorized read lock on
    /// `page` (see `held_ra`).
    pub fn holds_ra(&self, page: PageId) -> bool {
        self.locks.get(&page).is_some_and(|l| l.is_ra())
    }

    /// The pages of `held_ra` whose RA lock is still held, in grant
    /// order.
    pub fn ra_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.held_ra.iter().copied().filter(|&p| self.holds_ra(p))
    }

    /// Records a modified page (deduplicated, order-preserving).
    pub fn note_modified(&mut self, page: PageId) {
        if !self.modified.contains(&page) {
            self.modified.push(page);
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

    /// Ends an I/O or page wait at `now`, accumulating the waited time.
    pub fn end_io_wait(&mut self, now: SimTime) {
        if matches!(self.phase, Phase::PageWait | Phase::CommitIo) && now >= self.wait_since {
            self.io_wait += now - self.wait_since;
        }
        self.phase = Phase::Running;
        self.waiting_page = None;
    }
}
