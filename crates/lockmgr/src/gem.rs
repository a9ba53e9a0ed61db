//! The GEM global lock table (close coupling, §3.2).
//!
//! One lock table for the whole system lives in GEM. Every lock and
//! unlock touches it with synchronous entry accesses (a read plus a
//! Compare&Swap write — the *timing* of those accesses is charged by
//! the engine on the GEM server; this module is the table's state).
//!
//! Coherency control rides along for free: each entry carries the
//! page's current sequence number (incremented per modification) and,
//! under NOFORCE, the *page owner* — the node whose buffer holds the
//! most recent version. Comparing sequence numbers at lock time detects
//! buffer invalidations without any extra communication.
//!
//! An entry lives only while something can be compared with its
//! sequence number: a node buffer holding a copy of the page (the table
//! counts them), a lock holder or waiter, or an owner. It is dropped the
//! moment the last of these goes; the next request finds the page at
//! sequence number 0 again. The counting PCL lock authorities share the
//! rule and its code.

use crate::directory::{Counted, Directory};
use crate::table::{LockMode, LockReply, LockTable};
use dbshare_model::{NodeId, PageId, TxnId};

/// Global-lock-table metadata of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageInfo {
    /// Current version number (page sequence number).
    pub seqno: u64,
    /// Node whose buffer holds the newest version, when that version is
    /// not yet on permanent storage (NOFORCE); `None` means permanent
    /// storage is current.
    pub owner: Option<NodeId>,
}

/// One page's entry: its metadata and the number of node buffers
/// holding a copy.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    seqno: u64,
    owner: Option<NodeId>,
    copies: u32,
}

impl Entry {
    fn info(&self) -> PageInfo {
        PageInfo {
            seqno: self.seqno,
            owner: self.owner,
        }
    }
}

impl Counted for Entry {
    fn copies(&self) -> u32 {
        self.copies
    }

    fn set_copies(&mut self, copies: u32) {
        self.copies = copies;
    }

    fn pinned(&self) -> bool {
        self.owner.is_some()
    }
}

/// Reply to a GEM lock request: the lock outcome plus the coherency
/// metadata read from the same entry (no extra accesses needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemReply {
    /// Lock outcome.
    pub reply: LockReply,
    /// Entry metadata at request time.
    pub info: PageInfo,
}

/// The global lock table stored in GEM.
///
/// ```rust
/// use dbshare_lockmgr::{GemLockTable, LockMode, LockReply};
/// use dbshare_model::{NodeId, PageId, PartitionId, TxnId};
/// let mut glt = GemLockTable::new();
/// let p = PageId::new(PartitionId::new(0), 9);
/// let r = glt.request(TxnId::new(1), p, LockMode::Write);
/// assert_eq!(r.reply, LockReply::Granted);
/// assert_eq!(r.info.seqno, 0);
/// glt.record_modification(p, NodeId::new(0), false);
/// assert_eq!(glt.info(p).seqno, 1);
/// assert_eq!(glt.info(p).owner, Some(NodeId::new(0)));
/// ```
#[derive(Debug)]
pub struct GemLockTable {
    dir: Directory<Entry>,
}

impl Default for GemLockTable {
    fn default() -> Self {
        GemLockTable::with_capacity(0, 0)
    }
}

impl GemLockTable {
    /// Creates an empty table (all pages at sequence number 0, storage
    /// current).
    pub fn new() -> Self {
        GemLockTable::default()
    }

    /// Creates a table pre-sized for `pages` hot pages and `txns`
    /// concurrently active transactions.
    pub fn with_capacity(pages: usize, txns: usize) -> Self {
        GemLockTable {
            dir: Directory::with_capacity(pages, txns, true),
        }
    }

    /// GEM entry accesses per lock or unlock operation: one read plus
    /// one Compare&Swap write.
    pub const ENTRY_OPS: u32 = 2;

    /// Requests a lock; the reply carries the entry's coherency info.
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> GemReply {
        let reply = self.dir.table.request(txn, page, mode);
        GemReply {
            reply,
            info: self.info(page),
        }
    }

    /// Current metadata of `page`.
    pub fn info(&self, page: PageId) -> PageInfo {
        self.dir
            .entries
            .get(&page)
            .map(Entry::info)
            .unwrap_or_default()
    }

    /// Records that `node` committed a modification of `page`:
    /// increments the sequence number and sets the owner (NOFORCE) or
    /// marks storage current (`force_written = true`). Returns the new
    /// sequence number.
    pub fn record_modification(&mut self, page: PageId, node: NodeId, force_written: bool) -> u64 {
        let e = self.dir.entry(page);
        e.seqno += 1;
        e.owner = if force_written { None } else { Some(node) };
        e.seqno
    }

    /// Records that the owner wrote the current version back to
    /// permanent storage (dirty replacement, §3.2): future misses read
    /// from storage instead of requesting the page.
    pub fn record_writeback(&mut self, page: PageId, node: NodeId) {
        if let Some(e) = self.dir.entries.get_mut(&page) {
            if e.owner == Some(node) {
                e.owner = None;
                if e.copies == 0 {
                    self.dir.recheck(page);
                }
            }
        }
    }

    /// A node buffer took a copy of `page`.
    pub fn copy_added(&mut self, page: PageId) {
        self.dir.copy_added(page);
    }

    /// A node buffer dropped its copy of `page`.
    ///
    /// # Panics
    ///
    /// Panics if no buffer holds a counted copy of `page`.
    pub fn copy_dropped(&mut self, page: PageId) {
        self.dir.copy_dropped(page);
    }

    /// The lock table: holders, queues and waits-for edges (deadlock
    /// detection and diagnostics).
    pub fn table(&self) -> &LockTable {
        &self.dir.table
    }

    /// Releases all locks of `txn`, returning newly granted waiters.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        self.dir.release_all(txn)
    }

    /// Releases a single lock (used on abort paths).
    pub fn release(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.dir.release(txn, page)
    }

    /// Clears the page ownership of every page owned by `node` (the
    /// node crashed and its buffered versions are gone; after log-based
    /// recovery the permanent database is current again).
    pub fn clear_node_ownership(&mut self, node: NodeId) {
        let table = &self.dir.table;
        self.dir.entries.retain(|&page, e| {
            if e.owner != Some(node) {
                return true;
            }
            e.owner = None;
            e.copies > 0 || table.is_locked(page)
        });
    }

    /// Checks the copy counts against `recount(page)`, the number of
    /// node buffers holding a copy of `page`: for each page of
    /// `buffered` and each entry, the count must be that number, and an
    /// entry without a copy must have an owner or a lock holder or
    /// waiter. Allocates nothing. Returns the number of `buffered` pages.
    ///
    /// # Panics
    ///
    /// Panics at the first page that disagrees.
    pub fn check_copies(
        &self,
        buffered: impl IntoIterator<Item = PageId>,
        recount: impl Fn(PageId) -> u32,
    ) -> usize {
        self.dir.check_copies(buffered, recount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::PartitionId;

    fn page(n: u64) -> PageId {
        PageId::new(PartitionId::new(0), n)
    }
    fn txn(n: u64) -> TxnId {
        TxnId::new(n)
    }
    fn node(n: u16) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn sequence_numbers_track_modifications() {
        let mut glt = GemLockTable::new();
        assert_eq!(glt.info(page(1)).seqno, 0);
        glt.record_modification(page(1), node(0), false);
        glt.record_modification(page(1), node(1), false);
        let i = glt.info(page(1));
        assert_eq!(i.seqno, 2);
        assert_eq!(i.owner, Some(node(1)));
    }

    #[test]
    fn force_write_clears_owner() {
        let mut glt = GemLockTable::new();
        glt.record_modification(page(1), node(0), true);
        assert_eq!(glt.info(page(1)).owner, None);
        assert_eq!(glt.info(page(1)).seqno, 1);
    }

    #[test]
    fn writeback_clears_owner_only_if_still_owner() {
        let mut glt = GemLockTable::new();
        glt.record_modification(page(1), node(0), false);
        // another node modifies before the writeback completes
        glt.record_modification(page(1), node(1), false);
        glt.record_writeback(page(1), node(0));
        assert_eq!(glt.info(page(1)).owner, Some(node(1))); // not clobbered
        glt.record_writeback(page(1), node(1));
        assert_eq!(glt.info(page(1)).owner, None);
    }

    #[test]
    fn request_returns_info_with_grant() {
        let mut glt = GemLockTable::new();
        glt.record_modification(page(2), node(1), false);
        let r = glt.request(txn(5), page(2), LockMode::Read);
        assert_eq!(r.reply, LockReply::Granted);
        assert_eq!(r.info.seqno, 1);
        assert_eq!(r.info.owner, Some(node(1)));
    }

    #[test]
    fn conflicting_request_queues_and_release_grants() {
        let mut glt = GemLockTable::new();
        glt.request(txn(1), page(1), LockMode::Write);
        let r = glt.request(txn(2), page(1), LockMode::Write);
        assert_eq!(r.reply, LockReply::Queued);
        let granted = glt.release_all(txn(1));
        assert_eq!(granted, vec![(page(1), txn(2), LockMode::Write)]);
        assert_eq!(glt.table().grants(), 2);
        assert_eq!(glt.table().conflicts(), 1);
    }

    #[test]
    fn entry_lives_while_a_copy_is_buffered() {
        let mut glt = GemLockTable::new();
        glt.request(txn(1), page(1), LockMode::Write);
        glt.copy_added(page(1));
        assert_eq!(glt.record_modification(page(1), node(0), true), 1);
        glt.release_all(txn(1));
        glt.copy_added(page(1)); // a second node reads it
        glt.copy_dropped(page(1));
        assert_eq!(glt.info(page(1)).seqno, 1, "one copy still buffered");
        glt.copy_dropped(page(1));
        assert!(glt.dir.entries.is_empty(), "no copy, owner or lock is left");
        assert_eq!(glt.info(page(1)), PageInfo::default());
    }

    #[test]
    fn entry_lives_while_owned() {
        let mut glt = GemLockTable::new();
        glt.request(txn(1), page(1), LockMode::Write);
        glt.copy_added(page(1));
        glt.record_modification(page(1), node(0), false);
        glt.release_all(txn(1));
        glt.copy_dropped(page(1)); // dirty eviction: the write-back runs
        assert_eq!(glt.info(page(1)).owner, Some(node(0)));
        glt.record_writeback(page(1), node(0));
        assert!(glt.dir.entries.is_empty());
    }

    #[test]
    fn entry_lives_while_locked() {
        let mut glt = GemLockTable::new();
        glt.request(txn(1), page(1), LockMode::Read);
        glt.request(txn(2), page(1), LockMode::Write);
        glt.copy_added(page(1));
        glt.record_modification(page(1), node(0), true);
        glt.copy_dropped(page(1)); // invalidated while locked
        assert_eq!(glt.info(page(1)).seqno, 1);
        glt.release(txn(1), page(1)); // txn 2 is granted
        assert_eq!(glt.info(page(1)).seqno, 1);
        glt.release(txn(2), page(1));
        assert!(glt.dir.entries.is_empty());
    }

    #[test]
    fn crash_drops_the_entries_only_ownership_kept() {
        let mut glt = GemLockTable::new();
        for p in 1..=3 {
            glt.request(txn(p), page(p), LockMode::Write);
            glt.copy_added(page(p));
            glt.record_modification(page(p), node(0), false);
            glt.release_all(txn(p));
            glt.copy_dropped(page(p));
        }
        glt.copy_added(page(2)); // buffered elsewhere
        glt.request(txn(9), page(3), LockMode::Read); // locked
        glt.clear_node_ownership(node(0));
        let mut left: Vec<u64> = glt.dir.entries.keys().map(|p| p.number()).collect();
        left.sort_unstable();
        assert_eq!(left, vec![2, 3]);
        assert_eq!(glt.info(page(2)).owner, None);
        let recount = |p: PageId| u32::from(p == page(2));
        assert_eq!(glt.check_copies([page(2)], recount), 1);
    }

    #[test]
    #[should_panic(expected = "copy count")]
    fn check_copies_catches_a_miscount() {
        let mut glt = GemLockTable::new();
        glt.copy_added(page(1));
        glt.copy_added(page(1));
        glt.check_copies([page(1)], |_| 1);
    }

    #[test]
    fn entry_ops_constant_matches_paper() {
        // §2: "Changing control information in the GLT [...] requires
        // (at least) two GEM accesses".
        assert_eq!(GemLockTable::ENTRY_OPS, 2);
    }
}
