//! Structured, sim-time-stamped event tracing.
//!
//! A simulation engine can record a stream of [`TraceEvent`]s. Records
//! are small `Copy` structs stamped with *simulated* time only, so a
//! trace is bit-reproducible across host machines, repeated runs, and
//! worker counts — which makes trace files diffable: two runs that
//! should be identical can be compared record by record, and the first
//! differing event localizes a divergence.
//!
//! The contract with the engine is *zero cost when off*: the engine
//! holds an `Option<Vec<TraceEvent>>` and guards every emission behind
//! a single `is_some()` branch, so a run without a trace performs no
//! allocation and no formatting on behalf of tracing. Events are
//! appended in simulated-time order (FIFO within an instant), and
//! downstream exporters rely on that order for byte-identical output.
//!
//! ```rust
//! use desim::trace::{pack_page, unpack_page, TraceEvent, TraceEventKind, NO_TXN};
//! use desim::SimTime;
//! let trace = vec![TraceEvent {
//!     at: SimTime::from_micros(10),
//!     kind: TraceEventKind::PageRead,
//!     node: 0,
//!     txn: NO_TXN,
//!     page: pack_page(2, 7),
//!     arg: 0,
//! }];
//! assert_eq!(unpack_page(trace[0].page), Some((2, 7)));
//! ```

use crate::SimTime;

/// Sentinel for "no transaction" in [`TraceEvent::txn`].
pub const NO_TXN: u64 = u64::MAX;

/// Sentinel for "no page" in [`TraceEvent::page`].
pub const NO_PAGE: u64 = u64::MAX;

/// Packs a (partition, page-number) pair into the single `u64` used by
/// [`TraceEvent::page`]. The partition occupies the top 16 bits; page
/// numbers in the modelled databases fit comfortably in the low 48.
pub fn pack_page(partition: u16, number: u64) -> u64 {
    ((partition as u64) << 48) | (number & ((1u64 << 48) - 1))
}

/// Splits a packed page id back into (partition, page number).
/// Returns `None` for the [`NO_PAGE`] sentinel.
pub fn unpack_page(packed: u64) -> Option<(u16, u64)> {
    if packed == NO_PAGE {
        None
    } else {
        Some(((packed >> 48) as u16, packed & ((1u64 << 48) - 1)))
    }
}

/// What happened. The variants cover the transaction lifecycle, the
/// lock protocol, page movement, and messaging — the event classes a
/// closely-coupled database-sharing run is analysed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEventKind {
    /// A transaction obtained its multiprogramming slot and started
    /// executing. `arg` = input-queue wait in nanoseconds.
    TxnAdmit,
    /// A transaction committed. `arg` = response time in nanoseconds
    /// (from first arrival, restarts included).
    TxnCommit,
    /// A transaction aborted and will restart. `arg` = reason
    /// (0 deadlock, 1 timeout, 2 crash).
    TxnAbort,
    /// A lock was requested (local table, GEM lock table, or a remote
    /// authority — the node field says where the requester runs).
    LockRequest,
    /// A lock request queued; the transaction starts a lock wait.
    LockWait,
    /// A queued lock was granted, ending a wait.
    /// `arg` = lock-wait duration in nanoseconds.
    LockGrant,
    /// A transaction released its locks (commit phase 2 or abort).
    /// `arg` = number of locks released.
    LockRelease,
    /// A page read was issued to the storage subsystem.
    PageRead,
    /// A page read completed. `arg` = I/O wait in nanoseconds.
    PageReadDone,
    /// A page travelled node-to-node or through GEM. `arg` = the
    /// receiving node.
    PageTransfer,
    /// A dirty page was written back on eviction.
    PageFlush,
    /// A commit-time force/log write was issued.
    CommitIo,
    /// The commit I/O chain finished. `arg` = I/O wait in nanoseconds.
    CommitIoDone,
    /// A message left a node. `arg` = destination node.
    MsgSend,
    /// A message was received. `arg` = source node.
    MsgRecv,
    /// The no-progress watchdog fired. `arg` = live transactions.
    Watchdog,
}

/// One traced occurrence. All fields are plain integers so the record
/// is `Copy`, comparison is exact, and emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant of the occurrence.
    pub at: SimTime,
    /// Event class.
    pub kind: TraceEventKind,
    /// Node the event happened on (the requester's node for lock and
    /// message events).
    pub node: u16,
    /// Transaction sequence number, or [`NO_TXN`].
    pub txn: u64,
    /// Page involved, packed via [`pack_page`], or [`NO_PAGE`].
    pub page: u64,
    /// Kind-specific argument (durations in ns, peer nodes, abort
    /// reasons — see [`TraceEventKind`]).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(at_us),
            kind,
            node: 3,
            txn: 42,
            page: pack_page(1, 7),
            arg: 0,
        }
    }

    #[test]
    fn page_packing_round_trips() {
        let packed = pack_page(5, 123_456_789);
        assert_eq!(unpack_page(packed), Some((5, 123_456_789)));
        assert_eq!(unpack_page(NO_PAGE), None);
    }

    #[test]
    fn events_compare_exactly() {
        assert_eq!(
            ev(9, TraceEventKind::PageRead),
            ev(9, TraceEventKind::PageRead)
        );
        assert_ne!(
            ev(9, TraceEventKind::PageRead),
            ev(10, TraceEventKind::PageRead)
        );
    }
}
