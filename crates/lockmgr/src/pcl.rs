//! Primary copy locking (loose coupling, \[Ra86\], §3.2).
//!
//! The database is logically partitioned; each node holds the *global
//! lock authority* (GLA) for one partition. Requests against the local
//! partition are processed without messages; others need a short
//! message round trip to the authorized node.
//!
//! Coherency control is integrated: the GLA node tracks page sequence
//! numbers, and under NOFORCE it also acts as the *owner* of its
//! partition's pages — modified pages return to it with the lock
//! release message, and current versions ship out with lock grant
//! messages, so page transfers never cost extra messages.
//!
//! The *read optimization* (\[Ra86\]) is also implemented: the GLA can
//! hand a node a **read authorization (RA)** for a page, after which
//! that node processes further read locks on the page locally (it is
//! guaranteed no writes have occurred, otherwise the RA would have been
//! revoked). Write locks first revoke outstanding RAs with explicit
//! revocation messages and wait for the acknowledgements.
//!
//! An authority built with [`GlaState::counting`] keeps a page's entry
//! only while a node buffer holds a copy of the page, a lock holder or
//! waiter or a request in transit needs it, or a node holds a read
//! authorization for it: the rule, and the code, of the
//! [`GemLockTable`](crate::GemLockTable). Any other authority keeps
//! every entry it makes.

use crate::directory::{Counted, Directory};
use crate::table::{LockMode, LockReply, LockTable};
use dbshare_model::{NodeId, PageId, TxnId};
use desim::fxhash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

/// Bits of [`GlaPage::word`] below the sequence number: the copy count.
/// A page has at most one copy per node, and node ids are 16 bits.
const COPY_BITS: u32 = 16;
const COPY_MASK: u64 = (1 << COPY_BITS) - 1;

/// Per-page state at the GLA node.
#[derive(Debug, Clone, Default)]
struct GlaPage {
    /// The sequence number above [`COPY_BITS`], and the number of node
    /// buffers holding a copy (counting authorities only) in them.
    word: u64,
    /// Nodes holding a read authorization.
    ra: NodeSet,
}

impl GlaPage {
    fn seqno(&self) -> u64 {
        self.word >> COPY_BITS
    }

    /// Advances the sequence number, returning the new one.
    fn bump(&mut self) -> u64 {
        self.word = self
            .word
            .checked_add(1 << COPY_BITS)
            .expect("sequence number overflow");
        self.seqno()
    }
}

impl Counted for GlaPage {
    fn copies(&self) -> u32 {
        (self.word & COPY_MASK) as u32
    }

    fn set_copies(&mut self, copies: u32) {
        let copies = u64::from(copies);
        assert!(copies <= COPY_MASK, "more copies than nodes");
        self.word = self.word & !COPY_MASK | copies;
    }

    fn pinned(&self) -> bool {
        !self.ra.is_empty()
    }
}

/// A set of nodes: ids below 64 as the bits of one word, larger ids in
/// a boxed spill set that only systems of more than 64 nodes allocate.
/// Below 64 nodes, inserting needs no allocation and draining no
/// pointer chase.
#[derive(Debug, Clone, Default)]
struct NodeSet {
    low: u64,
    // Boxed so that the empty spill costs one word in every `GlaPage`.
    #[allow(clippy::box_collection)]
    high: Option<Box<BTreeSet<NodeId>>>,
}

impl NodeSet {
    fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_none()
    }

    fn insert(&mut self, node: NodeId) {
        match node.index() {
            i if i < 64 => self.low |= 1 << i,
            _ => {
                self.high.get_or_insert_default().insert(node);
            }
        }
    }

    /// Empties the set, returning its members other than `except` in
    /// ascending order.
    fn take_except(&mut self, except: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut bits = std::mem::take(&mut self.low);
        while bits != 0 {
            let node = NodeId::new(bits.trailing_zeros() as u16);
            bits &= bits - 1;
            if node != except {
                out.push(node);
            }
        }
        if let Some(high) = self.high.take() {
            out.extend(high.into_iter().filter(|&n| n != except));
        }
        out
    }
}

/// Outcome of a lock request processed at a GLA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlaOutcome {
    /// Lock table outcome.
    pub reply: LockReply,
    /// Page sequence number at the GLA (for invalidation detection and
    /// piggybacked page versions).
    pub seqno: u64,
    /// Whether a read authorization was granted to the requesting node
    /// (read optimization enabled, read mode, granted).
    pub ra_granted: bool,
    /// Nodes whose read authorizations must be revoked before this
    /// write lock may be granted to the requester, in ascending node
    /// order and without the requester's own node. Empty for reads.
    pub revoke: Vec<NodeId>,
}

/// Lock-authority state of one node: the lock table and page directory
/// for its GLA partition.
#[derive(Debug, Default)]
pub struct GlaState {
    dir: Directory<GlaPage>,
    local_requests: u64,
    remote_requests: u64,
}

impl GlaState {
    /// Creates an empty authority state that keeps every entry.
    pub fn new() -> Self {
        GlaState::default()
    }

    /// Creates an authority state pre-sized for `pages` hot pages and
    /// `txns` concurrently active transactions, which keeps every entry.
    pub fn with_capacity(pages: usize, txns: usize) -> Self {
        GlaState::sized(pages, txns, false)
    }

    /// [`with_capacity`](Self::with_capacity) for an authority that
    /// counts the buffered copies of its pages and drops an entry once
    /// nothing keeps it. It must be told every copy of its partition's
    /// pages that enters or leaves a buffer
    /// ([`copy_added`](Self::copy_added),
    /// [`copy_dropped`](Self::copy_dropped)) and every remote request
    /// that names a copy's version
    /// ([`request_sent`](Self::request_sent),
    /// [`request_arrived`](Self::request_arrived)).
    pub fn counting(pages: usize, txns: usize) -> Self {
        GlaState::sized(pages, txns, true)
    }

    fn sized(pages: usize, txns: usize, counting: bool) -> Self {
        GlaState {
            dir: Directory::with_capacity(pages, txns, counting),
            local_requests: 0,
            remote_requests: 0,
        }
    }

    /// Processes a lock request at this GLA node.
    ///
    /// `from` is the requesting node, `local` whether the request
    /// originated on this node (statistics), and `read_optimization`
    /// whether RAs are handed out / revoked.
    pub fn request(
        &mut self,
        txn: TxnId,
        from: NodeId,
        page: PageId,
        mode: LockMode,
        local: bool,
        read_optimization: bool,
    ) -> GlaOutcome {
        if local {
            self.local_requests += 1;
        } else {
            self.remote_requests += 1;
        }
        let reply = self.dir.table.request(txn, page, mode);
        let entry = self.dir.entry(page);
        let mut ra_granted = false;
        let mut revoke = Vec::new();
        match mode {
            LockMode::Read => {
                if read_optimization && reply != LockReply::Queued {
                    entry.ra.insert(from);
                    ra_granted = true;
                }
            }
            LockMode::Write => {
                // All RAs except the writer's own node become invalid.
                revoke = entry.ra.take_except(from);
                if read_optimization && reply != LockReply::Queued {
                    // the writer's node may keep reading its own copy
                    entry.ra.insert(from);
                }
            }
        }
        GlaOutcome {
            reply,
            seqno: entry.seqno(),
            ra_granted,
            revoke,
        }
    }

    /// Current sequence number of `page` at this authority.
    pub fn seqno(&self, page: PageId) -> u64 {
        self.dir.entries.get(&page).map_or(0, GlaPage::seqno)
    }

    /// Records a read authorization handed out when a *queued* read
    /// request is finally granted (immediate grants record it inside
    /// [`request`](Self::request)).
    pub fn grant_ra(&mut self, page: PageId, node: NodeId) {
        self.dir.entry(page).ra.insert(node);
    }

    /// Records a committed modification of `page` (the new version has
    /// arrived at / exists on the GLA node, which owns it under NOFORCE).
    pub fn record_modification(&mut self, page: PageId) -> u64 {
        self.dir.entry(page).bump()
    }

    /// Releases all locks of `txn` at this authority, returning newly
    /// granted waiters as `(page, txn, mode)`.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        self.dir.release_all(txn)
    }

    /// Releases one lock (abort paths).
    pub fn release(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.dir.release(txn, page)
    }

    /// Whether this authority counts copies and drops entries.
    pub fn counts_copies(&self) -> bool {
        self.dir.counting()
    }

    /// A node buffer took a copy of `page`. Ignored by an authority
    /// that does not count copies.
    pub fn copy_added(&mut self, page: PageId) {
        self.dir.copy_added(page);
    }

    /// A node buffer dropped its copy of `page`. Ignored by an authority
    /// that does not count copies.
    ///
    /// # Panics
    ///
    /// Panics if no buffer holds a counted copy of `page`.
    pub fn copy_dropped(&mut self, page: PageId) {
        self.dir.copy_dropped(page);
    }

    /// A remote lock request on `page` that names the version of the
    /// requester's buffered copy left for this authority: `page`'s entry
    /// stays until the request arrives, so the version is compared with
    /// the number it was read against. Ignored by an authority that does
    /// not count copies.
    pub fn request_sent(&mut self, page: PageId) {
        self.dir.request_sent(page);
    }

    /// A request counted by [`request_sent`](Self::request_sent) arrived,
    /// whether or not its transaction is still live.
    ///
    /// # Panics
    ///
    /// Panics if no such request was in transit.
    pub fn request_arrived(&mut self, page: PageId) {
        self.dir.request_arrived(page);
    }

    /// Checks the copy counts of a counting authority against
    /// `recount(page)`, the number of node buffers holding a copy of
    /// `page`, for each page of `buffered` (the buffered pages of this
    /// authority's partition) and each entry; an entry without a copy
    /// must have a read authorization, a lock holder or waiter, or a
    /// request in transit. Allocates nothing. Returns the number of
    /// `buffered` pages.
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

    /// This authority's lock table: holders, queues and waits-for
    /// edges (deadlock detection, crash handling and diagnostics).
    pub fn table(&self) -> &LockTable {
        &self.dir.table
    }

    /// `(local, remote)` request counts.
    pub fn request_counts(&self) -> (u64, u64) {
        (self.local_requests, self.remote_requests)
    }
}

/// What to do with a revocation received by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeAction {
    /// No local readers: acknowledge immediately.
    AckNow,
    /// Local readers still hold the page: the acknowledgement is sent
    /// when the last one releases ([`RaTable::release`] returns `true`).
    Deferred,
}

/// Per-node read-authorization table: which pages this node may grant
/// read locks on locally, and which local transactions currently hold
/// such locks.
#[derive(Debug, Default)]
pub struct RaTable {
    entries: FxHashMap<PageId, RaEntry>,
}

#[derive(Debug, Default)]
struct RaEntry {
    authorized: bool,
    readers: FxHashSet<TxnId>,
    revoke_pending: bool,
}

impl RaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RaTable::default()
    }

    /// Records an authorization received from the GLA.
    pub fn grant_authorization(&mut self, page: PageId) {
        let e = self.entries.entry(page).or_default();
        if !e.revoke_pending {
            e.authorized = true;
        }
    }

    /// Attempts to grant a read lock locally. Returns `true` (and
    /// registers the reader) if the node holds a valid authorization.
    /// The caller must additionally have a valid cached copy of the
    /// page — without one the current version must be fetched from the
    /// GLA anyway, so the request goes remote.
    pub fn try_local_read(&mut self, txn: TxnId, page: PageId) -> bool {
        match self.entries.get_mut(&page) {
            Some(e) if e.authorized && !e.revoke_pending => {
                e.readers.insert(txn);
                true
            }
            _ => false,
        }
    }

    /// Processes a revocation from the GLA.
    pub fn revoke(&mut self, page: PageId) -> RevokeAction {
        let e = self.entries.entry(page).or_default();
        e.authorized = false;
        if e.readers.is_empty() {
            e.revoke_pending = false;
            RevokeAction::AckNow
        } else {
            e.revoke_pending = true;
            RevokeAction::Deferred
        }
    }

    /// Releases `txn`'s locally granted read lock on `page`. Returns
    /// `true` if a deferred revocation can now be acknowledged.
    pub fn release(&mut self, txn: TxnId, page: PageId) -> bool {
        if let Some(e) = self.entries.get_mut(&page) {
            e.readers.remove(&txn);
            if e.revoke_pending && e.readers.is_empty() {
                e.revoke_pending = false;
                return true;
            }
        }
        false
    }

    /// True if this node currently holds an authorization for `page`.
    pub fn is_authorized(&self, page: PageId) -> bool {
        self.entries
            .get(&page)
            .map(|e| e.authorized && !e.revoke_pending)
            .unwrap_or(false)
    }

    /// Local transactions currently holding locally granted read locks
    /// on `page` (for distributed deadlock detection: a pending writer
    /// waits for these).
    pub fn readers(&self, page: PageId) -> Vec<TxnId> {
        self.entries
            .get(&page)
            .map(|e| {
                let mut v: Vec<TxnId> = e.readers.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
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
    fn grants_and_counts_local_remote() {
        let mut gla = GlaState::new();
        let r = gla.request(txn(1), node(0), page(1), LockMode::Read, true, false);
        assert_eq!(r.reply, LockReply::Granted);
        assert!(!r.ra_granted);
        let r = gla.request(txn(2), node(1), page(1), LockMode::Read, false, false);
        assert_eq!(r.reply, LockReply::Granted);
        assert_eq!(gla.request_counts(), (1, 1));
    }

    #[test]
    fn seqno_advances_on_modification() {
        let mut gla = GlaState::new();
        assert_eq!(gla.seqno(page(1)), 0);
        assert_eq!(gla.record_modification(page(1)), 1);
        assert_eq!(gla.record_modification(page(1)), 2);
        let r = gla.request(txn(1), node(0), page(1), LockMode::Read, true, false);
        assert_eq!(r.seqno, 2);
    }

    #[test]
    fn read_optimization_grants_ra() {
        let mut gla = GlaState::new();
        let r = gla.request(txn(1), node(1), page(1), LockMode::Read, false, true);
        assert!(r.ra_granted);
        assert!(r.revoke.is_empty());
    }

    #[test]
    fn write_revokes_other_ras() {
        let mut gla = GlaState::new();
        gla.request(txn(1), node(1), page(1), LockMode::Read, false, true);
        gla.request(txn(2), node(2), page(1), LockMode::Read, false, true);
        gla.release_all(txn(1));
        gla.release_all(txn(2));
        let r = gla.request(txn(3), node(1), page(1), LockMode::Write, false, true);
        assert_eq!(r.reply, LockReply::Granted);
        // node 1 is the writer: only node 2's RA is revoked
        assert_eq!(r.revoke, vec![node(2)]);
    }

    /// RAs granted to nodes on both sides of the 64-bit word, out of
    /// order and repeatedly: a write revokes each other holder once,
    /// in ascending order, and never the writer's own node.
    #[test]
    fn write_revokes_each_other_ra_once_in_ascending_order() {
        let readers = [70u16, 3, 64, 63, 0, 3, 200, 70, 9, 64];
        for writer in [3u16, 64, 5] {
            let mut gla = GlaState::new();
            for (i, &n) in readers.iter().enumerate() {
                let t = txn(i as u64);
                let r = gla.request(t, node(n), page(1), LockMode::Read, false, true);
                assert!(r.ra_granted);
                gla.release_all(t);
            }
            // a queued grant records its RA through `grant_ra`
            gla.grant_ra(page(1), node(65));
            let r = gla.request(txn(99), node(writer), page(1), LockMode::Write, false, true);
            let mut want: Vec<NodeId> = [0u16, 3, 9, 63, 64, 65, 70, 200]
                .into_iter()
                .filter(|&n| n != writer)
                .map(node)
                .collect();
            assert_eq!(r.revoke, want, "writer {writer}");
            // the writer kept its own RA; nothing else survives
            gla.release_all(txn(99));
            let r = gla.request(txn(100), node(1), page(1), LockMode::Write, false, true);
            want = vec![node(writer)];
            assert_eq!(r.revoke, want, "writer {writer}, second write");
        }
    }

    /// Entries of a counting authority.
    fn entries(gla: &GlaState) -> usize {
        gla.dir.entries.len()
    }

    #[test]
    fn a_copy_keeps_the_entry() {
        let mut gla = GlaState::counting(4, 4);
        gla.request(txn(1), node(1), page(1), LockMode::Write, false, false);
        gla.copy_added(page(1)); // the writer's node reads it
        assert_eq!(gla.record_modification(page(1)), 1);
        gla.copy_added(page(1)); // the new version at the authority
        gla.release_all(txn(1));
        gla.copy_dropped(page(1));
        assert_eq!(gla.seqno(page(1)), 1, "one copy is still buffered");
        gla.copy_dropped(page(1));
        assert_eq!(entries(&gla), 0, "no copy, lock or authorization is left");
        // A re-created entry starts over at sequence number 0.
        let r = gla.request(txn(2), node(2), page(1), LockMode::Read, false, false);
        assert_eq!(r.seqno, 0);
    }

    #[test]
    fn a_holder_or_waiter_keeps_the_entry() {
        let mut gla = GlaState::counting(4, 4);
        gla.request(txn(1), node(0), page(1), LockMode::Read, true, false);
        let r = gla.request(txn(2), node(1), page(1), LockMode::Write, false, false);
        assert_eq!(r.reply, LockReply::Queued);
        gla.copy_added(page(1));
        gla.record_modification(page(1));
        gla.copy_dropped(page(1)); // evicted while locked
        assert_eq!(gla.seqno(page(1)), 1);
        assert_eq!(
            gla.release(txn(1), page(1)),
            vec![(txn(2), LockMode::Write)]
        );
        assert_eq!(gla.seqno(page(1)), 1, "the granted waiter holds it");
        gla.release(txn(2), page(1));
        assert_eq!(entries(&gla), 0);
    }

    #[test]
    fn a_read_authorization_keeps_the_entry() {
        let mut gla = GlaState::counting(4, 4);
        gla.request(txn(1), node(1), page(1), LockMode::Read, false, true);
        gla.record_modification(page(1));
        gla.release_all(txn(1));
        assert_eq!(gla.seqno(page(1)), 1, "node 1 holds an authorization");
        // A write revokes it; the entry goes with the writer's lock.
        let r = gla.request(txn(2), node(2), page(1), LockMode::Write, false, false);
        assert_eq!(r.revoke, vec![node(1)]);
        gla.release_all(txn(2));
        assert_eq!(entries(&gla), 0);
    }

    #[test]
    fn a_request_in_transit_keeps_the_entry() {
        let mut gla = GlaState::counting(4, 4);
        gla.copy_added(page(1));
        gla.record_modification(page(1));
        // The copy's node asks for the lock, naming version 1, and
        // evicts the copy while the request is on the wire.
        gla.request_sent(page(1));
        gla.copy_dropped(page(1));
        assert_eq!(gla.seqno(page(1)), 1);
        gla.request(txn(1), node(1), page(1), LockMode::Read, false, false);
        gla.request_arrived(page(1));
        assert_eq!(gla.seqno(page(1)), 1, "the request's lock holds it");
        gla.release_all(txn(1));
        assert_eq!(entries(&gla), 0);
        // A request whose transaction aborted on the way locks nothing.
        gla.copy_added(page(2));
        gla.request_sent(page(2));
        gla.copy_dropped(page(2));
        gla.request_arrived(page(2));
        assert_eq!(entries(&gla), 0);
    }

    #[test]
    fn an_authority_that_counts_nothing_keeps_every_entry() {
        let mut gla = GlaState::with_capacity(4, 4);
        gla.request(txn(1), node(1), page(1), LockMode::Write, false, false);
        gla.record_modification(page(1));
        gla.copy_added(page(1));
        gla.copy_dropped(page(1));
        gla.request_sent(page(1));
        gla.request_arrived(page(1));
        gla.release_all(txn(1));
        gla.request(txn(2), node(1), page(2), LockMode::Read, false, false);
        gla.release(txn(2), page(2));
        assert_eq!(entries(&gla), 2);
        assert_eq!(gla.seqno(page(1)), 1);
    }

    #[test]
    fn copy_counts_share_the_sequence_number_word() {
        let mut gla = GlaState::counting(4, 4);
        for _ in 0..3 {
            gla.copy_added(page(1));
        }
        for n in 1..=5 {
            assert_eq!(gla.record_modification(page(1)), n);
        }
        let recount = |p: PageId| if p == page(1) { 3 } else { 0 };
        assert_eq!(gla.check_copies([page(1)], recount), 1);
        assert_eq!(gla.seqno(page(1)), 5);
    }

    #[test]
    #[should_panic(expected = "copy count")]
    fn check_copies_catches_a_miscount() {
        let mut gla = GlaState::counting(4, 4);
        gla.copy_added(page(1));
        gla.check_copies([page(1)], |_| 2);
    }

    /// The page directory holds an entry per buffered or locked page: a
    /// larger entry shows up as resident memory on every PCL workload.
    #[test]
    fn gla_page_stays_within_three_words() {
        assert!(std::mem::size_of::<GlaPage>() <= 24);
    }

    #[test]
    fn ra_table_local_read_lifecycle() {
        let mut ra = RaTable::new();
        assert!(!ra.try_local_read(txn(1), page(1)));
        ra.grant_authorization(page(1));
        assert!(ra.is_authorized(page(1)));
        assert!(ra.try_local_read(txn(1), page(1)));
        // release without pending revoke: nothing to ack
        assert!(!ra.release(txn(1), page(1)));
    }

    #[test]
    fn revoke_with_no_readers_acks_now() {
        let mut ra = RaTable::new();
        ra.grant_authorization(page(1));
        assert_eq!(ra.revoke(page(1)), RevokeAction::AckNow);
        assert!(!ra.is_authorized(page(1)));
        assert!(!ra.try_local_read(txn(1), page(1)));
    }

    #[test]
    fn revoke_with_readers_defers_ack_until_release() {
        let mut ra = RaTable::new();
        ra.grant_authorization(page(1));
        assert!(ra.try_local_read(txn(1), page(1)));
        assert!(ra.try_local_read(txn(2), page(1)));
        assert_eq!(ra.revoke(page(1)), RevokeAction::Deferred);
        // new local reads are refused while the revoke is pending
        assert!(!ra.try_local_read(txn(3), page(1)));
        assert!(!ra.release(txn(1), page(1))); // one reader left
        assert!(ra.release(txn(2), page(1))); // last reader: ack now
    }

    #[test]
    fn authorization_not_restored_while_revoke_pending() {
        let mut ra = RaTable::new();
        ra.grant_authorization(page(1));
        ra.try_local_read(txn(1), page(1));
        ra.revoke(page(1));
        // a racing grant (in-flight before the revoke) must not
        // resurrect the authorization
        ra.grant_authorization(page(1));
        assert!(!ra.is_authorized(page(1)));
        ra.release(txn(1), page(1));
        // after the ack the GLA may re-authorize
        ra.grant_authorization(page(1));
        assert!(ra.is_authorized(page(1)));
    }

    #[test]
    fn queued_write_reports_queue_and_revokes() {
        let mut gla = GlaState::new();
        gla.request(txn(1), node(0), page(1), LockMode::Read, true, true);
        let r = gla.request(txn(2), node(2), page(1), LockMode::Write, false, true);
        assert_eq!(r.reply, LockReply::Queued);
        assert_eq!(r.revoke, vec![node(0)]);
        let granted = gla.release_all(txn(1));
        assert_eq!(granted, vec![(page(1), txn(2), LockMode::Write)]);
    }
}
