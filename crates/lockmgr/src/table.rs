//! A strict two-phase-locking lock table with FIFO queues and lock
//! conversion (read → write upgrades).
//!
//! This table is the building block of both protocols: the GEM global
//! lock table holds one instance for the whole system (§3.2), while PCL
//! instantiates one per node for its GLA partition, plus small per-node
//! tables for locally authorized read locks.

use dbshare_model::{PageId, TxnId};
use desim::fxhash::{self, FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// Lock mode: long read and write locks (strict 2PL, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared.
    Read,
    /// Exclusive.
    Write,
}

impl LockMode {
    /// True if two locks of these modes can be held simultaneously.
    pub const fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }

    /// True if a holder of `self` needs no further lock to perform an
    /// access of mode `other`.
    pub const fn covers(self, other: LockMode) -> bool {
        matches!(
            (self, other),
            (LockMode::Write, _) | (LockMode::Read, LockMode::Read)
        )
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockReply {
    /// The lock was granted immediately.
    Granted,
    /// The request conflicts and was queued; the requester must wait
    /// for a grant notification produced by a later release.
    Queued,
    /// The transaction already holds a covering lock.
    AlreadyHeld,
}

#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// Conversion of an already-held read lock.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Waiter>,
}

impl LockState {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
    }
}

/// A strict 2PL lock table over pages.
///
/// ```rust
/// use dbshare_lockmgr::{LockTable, LockMode, LockReply};
/// use dbshare_model::{PageId, PartitionId, TxnId};
/// let mut lt = LockTable::new();
/// let p = PageId::new(PartitionId::new(0), 1);
/// assert_eq!(lt.request(TxnId::new(1), p, LockMode::Write), LockReply::Granted);
/// assert_eq!(lt.request(TxnId::new(2), p, LockMode::Read), LockReply::Queued);
/// let granted = lt.release_all(TxnId::new(1));
/// assert_eq!(granted, vec![(p, TxnId::new(2), LockMode::Read)]);
/// ```
#[derive(Debug, Default)]
pub struct LockTable {
    locks: FxHashMap<PageId, LockState>,
    held: FxHashMap<TxnId, FxHashSet<PageId>>,
    /// Queued requests over all pages: the waits-for scans return at
    /// once when there are none.
    queued: usize,
    grants: u64,
    conflicts: u64,
    /// Recycled [`LockState`]s: a page's entry is created on first
    /// conflict-free use and dropped once idle, so without recycling
    /// every lock cycle pays a holder-list allocation.
    free_states: Vec<LockState>,
    /// Recycled per-transaction held-page sets (emptied, capacity kept).
    free_sets: Vec<FxHashSet<PageId>>,
    /// Reusable page list for [`release_all`](LockTable::release_all).
    scratch: Vec<PageId>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Creates a table pre-sized for `pages` concurrently locked pages
    /// and `txns` concurrently active transactions (so the per-event
    /// hot path never rehashes).
    pub fn with_capacity(pages: usize, txns: usize) -> Self {
        LockTable {
            locks: fxhash::map_with_capacity(pages),
            held: fxhash::map_with_capacity(txns),
            ..LockTable::default()
        }
    }

    /// Records `page` in `txn`'s held-page index, reusing a pooled set
    /// for a transaction's first lock.
    fn index_held(&mut self, txn: TxnId, page: PageId) {
        self.held
            .entry(txn)
            .or_insert_with(|| self.free_sets.pop().unwrap_or_default())
            .insert(page);
    }

    /// Requests a lock on `page` in `mode` for `txn`.
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> LockReply {
        let state = self
            .locks
            .entry(page)
            .or_insert_with(|| self.free_states.pop().unwrap_or_default());
        if let Some(held) = state.holder_mode(txn) {
            if held.covers(mode) {
                return LockReply::AlreadyHeld;
            }
            // Read → write conversion: upgrades may overtake the queue
            // (standard treatment; waiting behind new readers would
            // deadlock against them).
            if state.compatible_with_holders(txn, LockMode::Write) {
                for h in state.holders.iter_mut() {
                    if h.0 == txn {
                        h.1 = LockMode::Write;
                    }
                }
                self.grants += 1;
                return LockReply::Granted;
            }
            self.conflicts += 1;
            self.queued += 1;
            // Queue upgrades ahead of non-upgrade waiters.
            let pos = state.queue.iter().take_while(|w| w.upgrade).count();
            state.queue.insert(
                pos,
                Waiter {
                    txn,
                    mode: LockMode::Write,
                    upgrade: true,
                },
            );
            return LockReply::Queued;
        }
        if state.queue.is_empty() && state.compatible_with_holders(txn, mode) {
            state.holders.push((txn, mode));
            self.index_held(txn, page);
            self.grants += 1;
            LockReply::Granted
        } else {
            self.conflicts += 1;
            self.queued += 1;
            state.queue.push_back(Waiter {
                txn,
                mode,
                upgrade: false,
            });
            LockReply::Queued
        }
    }

    /// Releases `txn`'s lock on `page` (or removes its queued request),
    /// returning the waiters granted as a result.
    pub fn release(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.release_then(txn, page, |_| {})
    }

    /// [`release`](Self::release), calling `on_idle(page)` if the page is
    /// left without a holder or waiter.
    pub(crate) fn release_then(
        &mut self,
        txn: TxnId,
        page: PageId,
        on_idle: impl FnOnce(PageId),
    ) -> Vec<(TxnId, LockMode)> {
        if let Some(set) = self.held.get_mut(&txn) {
            set.remove(&page);
        }
        self.release_page(txn, page, on_idle)
    }

    /// Removes `txn` from `page`'s holders and queue and grants the
    /// waiters that can now proceed; `txn`'s held-page index is the
    /// caller's.
    fn release_page(
        &mut self,
        txn: TxnId,
        page: PageId,
        on_idle: impl FnOnce(PageId),
    ) -> Vec<(TxnId, LockMode)> {
        let Some(state) = self.locks.get_mut(&page) else {
            return Vec::new();
        };
        let queued = state.queue.len();
        state.holders.retain(|&(t, _)| t != txn);
        state.queue.retain(|w| w.txn != txn);
        let granted = Self::promote(state);
        self.queued -= queued - state.queue.len();
        let idle = state.holders.is_empty() && state.queue.is_empty();
        for &(t, _) in &granted {
            self.index_held(t, page);
            self.grants += 1;
        }
        if idle {
            // Recycle the entry: its holder list (and any queue
            // capacity) is reused by the next page that locks.
            if let Some(state) = self.locks.remove(&page) {
                self.free_states.push(state);
            }
            on_idle(page);
        }
        granted
    }

    /// Releases everything `txn` holds or waits for (commit phase 2 or
    /// abort), returning all newly granted `(page, txn, mode)` triples
    /// in deterministic (page, queue) order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        self.release_all_then(txn, |_| {})
    }

    /// [`release_all`](Self::release_all), calling `on_idle(page)` for each
    /// page left without a holder or waiter.
    pub(crate) fn release_all_then(
        &mut self,
        txn: TxnId,
        mut on_idle: impl FnMut(PageId),
    ) -> Vec<(PageId, TxnId, LockMode)> {
        // The page list lives in a reusable scratch buffer and the
        // emptied held-set returns to the pool, so the common
        // no-waiters release performs no allocation at all (`out`
        // only allocates when something is actually granted).
        let mut pages = std::mem::take(&mut self.scratch);
        pages.clear();
        if let Some(mut set) = self.held.remove(&txn) {
            pages.extend(set.drain());
            self.free_sets.push(set);
        }
        pages.sort_unstable();
        let mut out = Vec::new();
        for &page in &pages {
            for (t, m) in self.release_page(txn, page, &mut on_idle) {
                out.push((page, t, m));
            }
        }
        self.scratch = pages;
        out
    }

    /// Grants compatible waiters after holders changed.
    fn promote(state: &mut LockState) -> Vec<(TxnId, LockMode)> {
        let mut granted = Vec::new();
        // Upgrades first: an upgrader can proceed once it is the sole
        // holder.
        while let Some(w) = state.queue.front() {
            if w.upgrade {
                let txn = w.txn;
                let sole = state.holders.iter().all(|&(t, _)| t == txn);
                if sole {
                    state.queue.pop_front();
                    match state.holders.iter_mut().find(|(t, _)| *t == txn) {
                        Some(h) => h.1 = LockMode::Write,
                        None => state.holders.push((txn, LockMode::Write)),
                    }
                    granted.push((txn, LockMode::Write));
                    continue;
                }
                break;
            }
            let compatible = state.holders.iter().all(|&(_, m)| m.compatible(w.mode));
            // FIFO: a pending upgrade further back must not be starved
            // by a stream of readers; simple FIFO order handles this
            // because we only look at the queue head.
            if compatible {
                let w = state.queue.pop_front().expect("front exists");
                state.holders.push((w.txn, w.mode));
                granted.push((w.txn, w.mode));
            } else {
                break;
            }
        }
        granted
    }

    /// True if `page` has a lock holder or waiter.
    pub(crate) fn is_locked(&self, page: PageId) -> bool {
        self.locks.contains_key(&page)
    }

    /// The mode `txn` currently holds on `page`, if any.
    pub fn held_mode(&self, txn: TxnId, page: PageId) -> Option<LockMode> {
        self.locks.get(&page)?.holder_mode(txn)
    }

    /// Current holders of `page`.
    pub fn holders(&self, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.locks
            .get(&page)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    /// Number of queued waiters on `page`.
    pub fn queue_len(&self, page: PageId) -> usize {
        self.locks.get(&page).map(|s| s.queue.len()).unwrap_or(0)
    }

    /// Waits-for edges `(waiter, holder)` for deadlock detection:
    /// every queued transaction waits for every current holder it is
    /// incompatible with, and for earlier incompatible queue entries.
    pub fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        if self.queued == 0 {
            return edges;
        }
        for state in self.locks.values() {
            for (i, w) in state.queue.iter().enumerate() {
                for &(t, m) in &state.holders {
                    if t != w.txn && !m.compatible(w.mode) {
                        edges.push((w.txn, t));
                    }
                }
                for prior in state.queue.iter().take(i) {
                    if prior.txn != w.txn && !prior.mode.compatible(w.mode) {
                        edges.push((w.txn, prior.txn));
                    }
                }
            }
        }
        edges
    }

    /// Appends to `out` a reduced waits-for graph whose transitive
    /// closure equals that of [`waits_for_edges`](Self::waits_for_edges),
    /// so it has a cycle exactly when the full graph does.
    ///
    /// Every waiter still waits for each incompatible holder. Within a
    /// queue, a read waits only for the nearest earlier write, and a
    /// write for every entry back to and including the nearest earlier
    /// write. Every emitted edge is a full edge; conversely a full edge
    /// `w_i → w_j` skipped here has an earlier write `w_k` with
    /// `j < k < i`, so `w_i → w_k` is emitted and `w_k → w_j` (a write
    /// conflicts with everything) is a full edge over a shorter queue
    /// distance — a path by induction. That is O(queue × holders +
    /// queue) edges per page instead of O(queue²).
    pub fn reduced_waits_for_edges(&self, out: &mut Vec<(TxnId, TxnId)>) {
        if self.queued == 0 {
            return;
        }
        for state in self.locks.values() {
            let mut last_write = None;
            for (i, w) in state.queue.iter().enumerate() {
                for &(t, m) in &state.holders {
                    if t != w.txn && !m.compatible(w.mode) {
                        out.push((w.txn, t));
                    }
                }
                let priors = match w.mode {
                    LockMode::Read => last_write.map_or(i..i, |k| k..k + 1),
                    LockMode::Write => last_write.unwrap_or(0)..i,
                };
                for prior in state.queue.range(priors) {
                    if prior.txn != w.txn {
                        out.push((w.txn, prior.txn));
                    }
                }
                if w.mode == LockMode::Write {
                    last_write = Some(i);
                }
            }
        }
    }

    /// Total grants so far (including queued-then-granted).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Requests that found a conflict and queued.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// True if no locks are held or queued anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.locks.is_empty()
    }

    /// Every transaction currently holding or waiting for any lock
    /// (sorted; failure handling needs to abort them all when a lock
    /// authority's volatile state is lost).
    pub fn all_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .locks
            .values()
            .flat_map(|s| {
                s.holders
                    .iter()
                    .map(|&(t, _)| t)
                    .chain(s.queue.iter().map(|w| w.txn))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
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

    #[test]
    fn mode_compatibility() {
        assert!(LockMode::Read.compatible(LockMode::Read));
        assert!(!LockMode::Read.compatible(LockMode::Write));
        assert!(!LockMode::Write.compatible(LockMode::Write));
        assert!(LockMode::Write.covers(LockMode::Read));
        assert!(!LockMode::Read.covers(LockMode::Write));
    }

    #[test]
    fn shared_readers_coexist() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Read),
            LockReply::Granted
        );
        assert_eq!(
            lt.request(txn(2), page(1), LockMode::Read),
            LockReply::Granted
        );
        assert_eq!(lt.holders(page(1)).len(), 2);
        assert_eq!(lt.conflicts(), 0);
    }

    #[test]
    fn writer_excludes() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        assert_eq!(
            lt.request(txn(2), page(1), LockMode::Read),
            LockReply::Queued
        );
        assert_eq!(
            lt.request(txn(3), page(1), LockMode::Write),
            LockReply::Queued
        );
        assert_eq!(lt.queue_len(page(1)), 2);
        assert_eq!(lt.conflicts(), 2);
    }

    #[test]
    fn fifo_grant_on_release() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        lt.request(txn(2), page(1), LockMode::Read);
        lt.request(txn(3), page(1), LockMode::Read);
        lt.request(txn(4), page(1), LockMode::Write);
        let granted = lt.release(txn(1), page(1));
        // both readers granted together, writer still waits
        assert_eq!(
            granted,
            vec![(txn(2), LockMode::Read), (txn(3), LockMode::Read)]
        );
        assert_eq!(lt.queue_len(page(1)), 1);
        let granted = lt.release(txn(2), page(1));
        assert!(granted.is_empty());
        let granted = lt.release(txn(3), page(1));
        assert_eq!(granted, vec![(txn(4), LockMode::Write)]);
    }

    #[test]
    fn already_held_covering() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Read),
            LockReply::AlreadyHeld
        );
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Write),
            LockReply::AlreadyHeld
        );
    }

    #[test]
    fn upgrade_sole_reader_immediate() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Read);
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Write),
            LockReply::Granted
        );
        assert_eq!(lt.held_mode(txn(1), page(1)), Some(LockMode::Write));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_wins() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Read);
        lt.request(txn(2), page(1), LockMode::Read);
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Write),
            LockReply::Queued
        );
        // a later writer queues behind the upgrade
        lt.request(txn(3), page(1), LockMode::Write);
        let granted = lt.release(txn(2), page(1));
        assert_eq!(granted, vec![(txn(1), LockMode::Write)]);
        assert_eq!(lt.held_mode(txn(1), page(1)), Some(LockMode::Write));
        // txn 3 still waits
        assert_eq!(lt.queue_len(page(1)), 1);
    }

    #[test]
    fn release_all_returns_grants_across_pages() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        lt.request(txn(1), page(2), LockMode::Write);
        lt.request(txn(2), page(1), LockMode::Read);
        lt.request(txn(3), page(2), LockMode::Write);
        let granted = lt.release_all(txn(1));
        assert_eq!(
            granted,
            vec![
                (page(1), txn(2), LockMode::Read),
                (page(2), txn(3), LockMode::Write)
            ]
        );
        assert!(lt.held_mode(txn(1), page(1)).is_none());
    }

    #[test]
    fn release_all_removes_queued_requests_too() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        lt.request(txn(2), page(1), LockMode::Write);
        // txn 2 gives up (abort) while queued: release via release_all
        // requires the held-index; queued entries are cleaned by page
        // release. Use release() directly:
        let granted = lt.release(txn(2), page(1));
        assert!(granted.is_empty());
        assert_eq!(lt.queue_len(page(1)), 0);
    }

    #[test]
    fn waits_for_edges_reflect_conflicts() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        lt.request(txn(2), page(1), LockMode::Write);
        lt.request(txn(3), page(1), LockMode::Write);
        let edges = lt.waits_for_edges();
        assert!(edges.contains(&(txn(2), txn(1))));
        assert!(edges.contains(&(txn(3), txn(1))));
        assert!(edges.contains(&(txn(3), txn(2)))); // queue ordering edge
    }

    fn sorted(mut edges: Vec<(TxnId, TxnId)>) -> Vec<(TxnId, TxnId)> {
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    fn reduced(lt: &LockTable) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        lt.reduced_waits_for_edges(&mut edges);
        sorted(edges)
    }

    #[test]
    fn reduced_edges_of_a_mixed_queue() {
        // Holder 1 (W); queue [2 W, 3 R, 4 R, 5 W, 6 R].
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        for (t, mode) in [
            (2, LockMode::Write),
            (3, LockMode::Read),
            (4, LockMode::Read),
            (5, LockMode::Write),
            (6, LockMode::Read),
        ] {
            assert_eq!(lt.request(txn(t), page(1), mode), LockReply::Queued);
        }
        let e = |a, b| (txn(a), txn(b));
        assert_eq!(
            reduced(&lt),
            vec![
                e(2, 1),
                e(3, 1),
                e(3, 2),
                e(4, 1),
                e(4, 2),
                e(5, 1),
                e(5, 2),
                e(5, 3),
                e(5, 4),
                e(6, 1),
                e(6, 5),
            ]
        );
        // The one full edge left out, 6 → 2, is the path 6 → 5 → 2.
        let kept = reduced(&lt);
        let mut skipped = sorted(lt.waits_for_edges());
        skipped.retain(|x| !kept.contains(x));
        assert_eq!(skipped, vec![e(6, 2)]);
    }

    #[test]
    fn reduced_edges_skip_the_upgraders_own_read_lock() {
        // 1 and 2 hold reads; 1 queues an upgrade, then 3 a write.
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Read);
        lt.request(txn(2), page(1), LockMode::Read);
        assert_eq!(
            lt.request(txn(1), page(1), LockMode::Write),
            LockReply::Queued
        );
        lt.request(txn(3), page(1), LockMode::Write);
        let e = |a, b| (txn(a), txn(b));
        assert_eq!(reduced(&lt), vec![e(1, 2), e(3, 1), e(3, 2)]);
        assert_eq!(reduced(&lt), sorted(lt.waits_for_edges()));
        assert!(!crate::deadlock::has_cycle(&reduced(&lt)));
        // 2 upgrading as well is the classic conversion deadlock.
        lt.request(txn(2), page(1), LockMode::Write);
        assert!(reduced(&lt).contains(&e(2, 1)));
        assert!(crate::deadlock::has_cycle(&reduced(&lt)));
    }

    /// The table-wide queued count follows every queue change, and the
    /// waits-for scans find nothing without a queued request.
    #[test]
    fn queued_count_follows_the_queues() {
        let check = |lt: &LockTable| {
            let queued: usize = lt.locks.values().map(|s| s.queue.len()).sum();
            assert_eq!(lt.queued, queued);
            let mut reduced = Vec::new();
            lt.reduced_waits_for_edges(&mut reduced);
            assert_eq!(reduced.is_empty(), queued == 0);
        };
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Read);
        lt.request(txn(2), page(1), LockMode::Read);
        lt.request(txn(3), page(1), LockMode::Write);
        lt.request(txn(1), page(1), LockMode::Write); // queued upgrade
        lt.request(txn(4), page(2), LockMode::Write);
        lt.request(txn(5), page(2), LockMode::Read);
        check(&lt);
        assert_eq!(lt.queued, 3);
        lt.release(txn(3), page(1)); // a waiter gives up
        check(&lt);
        lt.release_all(txn(2)); // the upgrade is granted
        check(&lt);
        lt.release_all(txn(4)); // txn 5 is granted
        check(&lt);
        assert_eq!(lt.queued, 0);
        assert!(lt.waits_for_edges().is_empty());
        lt.release_all(txn(1));
        lt.release_all(txn(5));
        check(&lt);
        assert!(lt.is_quiescent());
    }

    #[test]
    fn quiescent_after_all_released() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Write);
        lt.request(txn(1), page(2), LockMode::Read);
        lt.release_all(txn(1));
        assert!(lt.is_quiescent());
        assert_eq!(lt.grants(), 2);
    }

    #[test]
    fn readers_do_not_jump_queue_past_writer() {
        let mut lt = LockTable::new();
        lt.request(txn(1), page(1), LockMode::Read);
        lt.request(txn(2), page(1), LockMode::Write); // queued
                                                      // a new reader must queue behind the writer (no starvation)
        assert_eq!(
            lt.request(txn(3), page(1), LockMode::Read),
            LockReply::Queued
        );
        let granted = lt.release(txn(1), page(1));
        assert_eq!(granted, vec![(txn(2), LockMode::Write)]);
    }
}
