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

use crate::table::{LockMode, LockReply, LockTable};
use dbshare_model::{NodeId, PageId, TxnId};
use desim::fxhash::{self, FxHashMap};

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
#[derive(Debug, Default)]
pub struct GemLockTable {
    table: LockTable,
    meta: FxHashMap<PageId, PageInfo>,
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
            table: LockTable::with_capacity(pages, txns),
            meta: fxhash::map_with_capacity(pages),
        }
    }

    /// GEM entry accesses per lock or unlock operation: one read plus
    /// one Compare&Swap write.
    pub const ENTRY_OPS: u32 = 2;

    /// Requests a lock; the reply carries the entry's coherency info.
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> GemReply {
        let reply = self.table.request(txn, page, mode);
        GemReply {
            reply,
            info: self.info(page),
        }
    }

    /// Current metadata of `page`.
    pub fn info(&self, page: PageId) -> PageInfo {
        self.meta.get(&page).copied().unwrap_or_default()
    }

    /// Records that `node` committed a modification of `page`:
    /// increments the sequence number and sets the owner (NOFORCE) or
    /// marks storage current (`force_written = true`).
    pub fn record_modification(&mut self, page: PageId, node: NodeId, force_written: bool) {
        let e = self.meta.entry(page).or_default();
        e.seqno += 1;
        e.owner = if force_written { None } else { Some(node) };
    }

    /// Records that the owner wrote the current version back to
    /// permanent storage (dirty replacement, §3.2): future misses read
    /// from storage instead of requesting the page.
    pub fn record_writeback(&mut self, page: PageId, node: NodeId) {
        if let Some(e) = self.meta.get_mut(&page) {
            if e.owner == Some(node) {
                e.owner = None;
            }
        }
    }

    /// The lock table: holders, queues and waits-for edges (deadlock
    /// detection and diagnostics).
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Releases all locks of `txn`, returning newly granted waiters.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        self.table.release_all(txn)
    }

    /// Releases a single lock (used on abort paths).
    pub fn release(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.table.release(txn, page)
    }

    /// Clears the page ownership of every page owned by `node` (the
    /// node crashed and its buffered versions are gone; after log-based
    /// recovery the permanent database is current again). Returns the
    /// number of entries cleared.
    pub fn clear_node_ownership(&mut self, node: NodeId) -> usize {
        let mut cleared = 0;
        for e in self.meta.values_mut() {
            if e.owner == Some(node) {
                e.owner = None;
                cleared += 1;
            }
        }
        cleared
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
    fn entry_ops_constant_matches_paper() {
        // §2: "Changing control information in the GLT [...] requires
        // (at least) two GEM accesses".
        assert_eq!(GemLockTable::ENTRY_OPS, 2);
    }
}
