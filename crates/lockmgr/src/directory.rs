//! A lock table with its page directory, whose entries live with the
//! page's buffered copies: the entry lifetime of the GEM lock table and
//! of the PCL lock authorities that count copies (§3.2's sequence
//! numbers, kept only while something can be compared with them).
//!
//! An entry lives while its page has a copy in some node buffer (the
//! directory counts them), a lock holder or waiter in the table, a lock
//! request in transit that names a copy's version, or the entry's own
//! pin: an owner in the GEM lock table, a read authorization at a lock
//! authority. It is dropped the moment the last of these goes, and the
//! next use finds the page at sequence number 0 again. Every number
//! that can still be compared with the entry's (a buffered copy's, a
//! lock holder's, a request's) keeps the entry, so each comparison gives
//! the answer it would have given had the entry stayed.

use crate::table::{LockMode, LockTable};
use dbshare_model::{PageId, TxnId};
use desim::fxhash::{self, FxHashMap};
use std::collections::hash_map::Entry as Slot;

/// A directory entry: its buffered-copy count and its own pin.
pub(crate) trait Counted: Default {
    /// Node buffers holding a copy of the page.
    fn copies(&self) -> u32;
    /// Sets the copy count, which never exceeds the node count.
    fn set_copies(&mut self, copies: u32);
    /// Kept by something besides a copy, a lock or a request in
    /// transit: an owner (GEM) or a read authorization (PCL).
    fn pinned(&self) -> bool;
}

/// A lock table and its page directory. The default counts nothing.
#[derive(Debug, Default)]
pub(crate) struct Directory<E> {
    pub(crate) table: LockTable,
    pub(crate) entries: FxHashMap<PageId, E>,
    /// Lock requests in transit that name the version of a buffered
    /// copy, per page.
    in_transit: FxHashMap<PageId, u32>,
    /// Whether copies are counted and entries dropped. A directory that
    /// counts nothing ignores copy and transit events and keeps every
    /// entry it ever made.
    counting: bool,
}

/// True if `e` has no copy, pin or request in transit: only a lock
/// holder or waiter of `page` can still keep it.
fn unkept<E: Counted>(e: &E, page: PageId, in_transit: &FxHashMap<PageId, u32>) -> bool {
    e.copies() == 0 && !e.pinned() && !in_transit.contains_key(&page)
}

/// Drops `page`'s entry if nothing but a lock could keep it; called
/// when the page has no lock holder or waiter.
fn drop_if_unkept<E: Counted>(
    entries: &mut FxHashMap<PageId, E>,
    page: PageId,
    in_transit: &FxHashMap<PageId, u32>,
) {
    if let Slot::Occupied(e) = entries.entry(page) {
        if unkept(e.get(), page, in_transit) {
            e.remove();
        }
    }
}

impl<E: Counted> Directory<E> {
    /// A directory pre-sized for `pages` hot pages and `txns`
    /// concurrently active transactions, dropping idle entries if
    /// `counting`.
    pub(crate) fn with_capacity(pages: usize, txns: usize, counting: bool) -> Self {
        Directory {
            table: LockTable::with_capacity(pages, txns),
            entries: fxhash::map_with_capacity(pages),
            in_transit: FxHashMap::default(),
            counting,
        }
    }

    pub(crate) fn counting(&self) -> bool {
        self.counting
    }

    /// `page`'s entry, created at its default if absent.
    pub(crate) fn entry(&mut self, page: PageId) -> &mut E {
        self.entries.entry(page).or_default()
    }

    /// Drops `page`'s entry if nothing keeps it (after its pin went).
    pub(crate) fn recheck(&mut self, page: PageId) {
        if self.counting && !self.table.is_locked(page) {
            drop_if_unkept(&mut self.entries, page, &self.in_transit);
        }
    }

    /// A node buffer took a copy of `page`.
    pub(crate) fn copy_added(&mut self, page: PageId) {
        if self.counting {
            let e = self.entry(page);
            e.set_copies(e.copies() + 1);
        }
    }

    /// A node buffer dropped its copy of `page`.
    ///
    /// # Panics
    ///
    /// Panics if no buffer holds a counted copy of `page`.
    pub(crate) fn copy_dropped(&mut self, page: PageId) {
        if !self.counting {
            return;
        }
        const UNCOUNTED: &str = "a copy left that was never counted";
        let Slot::Occupied(mut e) = self.entries.entry(page) else {
            panic!("{page:?}: {UNCOUNTED}");
        };
        let copies = e.get().copies().checked_sub(1).expect(UNCOUNTED);
        e.get_mut().set_copies(copies);
        if unkept(e.get(), page, &self.in_transit) && !self.table.is_locked(page) {
            e.remove();
        }
    }

    /// A lock request naming the version of a buffered copy of `page`
    /// left for this table: the entry stays until it arrives.
    pub(crate) fn request_sent(&mut self, page: PageId) {
        if self.counting {
            *self.in_transit.entry(page).or_default() += 1;
        }
    }

    /// A request counted by [`request_sent`](Self::request_sent) arrived.
    ///
    /// # Panics
    ///
    /// Panics if no such request was in transit.
    pub(crate) fn request_arrived(&mut self, page: PageId) {
        if !self.counting {
            return;
        }
        let Slot::Occupied(mut n) = self.in_transit.entry(page) else {
            panic!("{page:?}: a request arrived that was never sent");
        };
        *n.get_mut() -= 1;
        if *n.get() == 0 {
            n.remove();
            self.recheck(page);
        }
    }

    /// Releases all locks of `txn`, returning newly granted waiters.
    pub(crate) fn release_all(&mut self, txn: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        if !self.counting {
            return self.table.release_all(txn);
        }
        let (entries, in_transit) = (&mut self.entries, &self.in_transit);
        self.table
            .release_all_then(txn, |page| drop_if_unkept(entries, page, in_transit))
    }

    /// Releases a single lock (abort paths).
    pub(crate) fn release(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, LockMode)> {
        if !self.counting {
            return self.table.release(txn, page);
        }
        let (entries, in_transit) = (&mut self.entries, &self.in_transit);
        self.table
            .release_then(txn, page, |page| drop_if_unkept(entries, page, in_transit))
    }

    /// Checks the copy counts against `recount(page)`, the number of
    /// node buffers holding a copy of `page`: for each page of
    /// `buffered` and each entry, the count must be that number, and an
    /// entry without a copy must have a pin, a lock holder or waiter, or
    /// a request in transit. Allocates nothing. Returns the number of
    /// `buffered` pages.
    ///
    /// # Panics
    ///
    /// Panics at the first page that disagrees.
    pub(crate) fn check_copies(
        &self,
        buffered: impl IntoIterator<Item = PageId>,
        recount: impl Fn(PageId) -> u32,
    ) -> usize {
        let mut pages = 0;
        for page in buffered {
            let counted = self.entries.get(&page).map_or(0, E::copies);
            assert_eq!(counted, recount(page), "copy count of {page:?}");
            pages += 1;
        }
        for (&page, e) in &self.entries {
            assert_eq!(e.copies(), recount(page), "copy count of {page:?}");
            assert!(
                !unkept(e, page, &self.in_transit) || self.table.is_locked(page),
                "{page:?}: an entry without copy, pin, lock or request in transit"
            );
        }
        pages
    }
}
