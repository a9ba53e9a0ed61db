//! Transaction specifications as produced by the workload generators.

use crate::{PageId, TxnTypeId};

/// Read or write access to a page (determines the lock mode requested
/// and whether the page becomes dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Shared access; requests a read lock.
    Read,
    /// Exclusive access; requests a write lock and dirties the page.
    Write,
}

impl AccessMode {
    /// True for [`AccessMode::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessMode::Write)
    }
}

/// One database page reference of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    /// The referenced page.
    pub page: PageId,
    /// Read or write.
    pub mode: AccessMode,
    /// Whether the page is appended rather than read from storage
    /// (HISTORY-style sequential inserts never need a read I/O).
    pub append: bool,
    /// Record accesses performed on this page (CPU is charged per
    /// *record* access, §3.2; clustering can put several accessed
    /// records — e.g. a BRANCH and its TELLER — on one page).
    pub records: u16,
}

impl PageRef {
    /// A normal read reference (one record).
    pub const fn read(page: PageId) -> Self {
        PageRef {
            page,
            mode: AccessMode::Read,
            append: false,
            records: 1,
        }
    }
    /// A normal write (read-modify-write) reference (one record).
    pub const fn write(page: PageId) -> Self {
        PageRef {
            page,
            mode: AccessMode::Write,
            append: false,
            records: 1,
        }
    }
    /// An append-style write (no read I/O needed if absent from the buffer).
    pub const fn append(page: PageId) -> Self {
        PageRef {
            page,
            mode: AccessMode::Write,
            append: true,
            records: 1,
        }
    }
    /// Sets the number of record accesses on this page.
    ///
    /// # Panics
    ///
    /// Panics if `records == 0`.
    pub fn with_records(mut self, records: u16) -> Self {
        assert!(records > 0, "a reference accesses at least one record");
        self.records = records;
        self
    }
}

/// A complete transaction specification: its type, the unit of affinity
/// used by affinity-based routing (the branch for debit-credit), and
/// the ordered page references it performs.
///
/// ```rust
/// use dbshare_model::{TxnSpec, TxnTypeId, PageRef, PageId, PartitionId};
/// let spec = TxnSpec::new(
///     TxnTypeId::new(0),
///     7,
///     vec![PageRef::write(PageId::new(PartitionId::new(0), 3))],
/// );
/// assert_eq!(spec.refs().len(), 1);
/// assert!(spec.is_update());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    txn_type: TxnTypeId,
    affinity_key: u64,
    refs: Vec<PageRef>,
}

impl TxnSpec {
    /// Creates a specification from its parts.
    pub fn new(txn_type: TxnTypeId, affinity_key: u64, refs: Vec<PageRef>) -> Self {
        TxnSpec {
            txn_type,
            affinity_key,
            refs,
        }
    }

    /// The transaction type.
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// The affinity key used by affinity-based routing (the branch
    /// number for debit-credit, the transaction type for traces).
    pub fn affinity_key(&self) -> u64 {
        self.affinity_key
    }

    /// The ordered page references.
    pub fn refs(&self) -> &[PageRef] {
        &self.refs
    }

    /// True if the transaction writes at least one page.
    pub fn is_update(&self) -> bool {
        self.refs.iter().any(|r| r.mode.is_write())
    }

    /// Consumes the spec, returning its reference buffer for reuse
    /// (cleared). Lets workload generators recycle the per-transaction
    /// `Vec` instead of allocating a fresh one per draw.
    pub fn into_refs(self) -> Vec<PageRef> {
        let mut refs = self.refs;
        refs.clear();
        refs
    }
}

impl Default for TxnSpec {
    /// An empty placeholder spec (no references). Used when moving a
    /// spec out of retired transaction state without allocating.
    fn default() -> Self {
        TxnSpec::new(TxnTypeId::new(0), 0, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, PartitionId};

    fn page(p: u16, n: u64) -> PageId {
        PageId::new(PartitionId::new(p), n)
    }

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Write.is_write());
        assert!(!AccessMode::Read.is_write());
    }

    #[test]
    fn page_ref_constructors() {
        let r = PageRef::read(page(0, 1));
        assert_eq!(r.mode, AccessMode::Read);
        assert!(!r.append);
        let w = PageRef::write(page(0, 1));
        assert!(w.mode.is_write());
        let a = PageRef::append(page(1, 2));
        assert!(a.mode.is_write() && a.append);
    }

    #[test]
    fn txn_spec_update_detection() {
        let read_only = TxnSpec::new(
            TxnTypeId::new(0),
            0,
            vec![PageRef::read(page(0, 1)), PageRef::read(page(0, 2))],
        );
        assert!(!read_only.is_update());

        let update = TxnSpec::new(
            TxnTypeId::new(1),
            3,
            vec![PageRef::read(page(0, 1)), PageRef::write(page(1, 9))],
        );
        assert!(update.is_update());
        assert_eq!(update.affinity_key(), 3);
        assert_eq!(update.txn_type(), TxnTypeId::new(1));
    }
}
