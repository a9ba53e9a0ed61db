//! Event, continuation, and message types of the simulation engine.

use super::io::IoOp;
use dbshare_lockmgr::LockMode;
use dbshare_model::{NodeId, PageId, TxnId, TxnSpec};
use desim::{SimDuration, SimTime};

/// Page list carried by a commit-time [`MsgBody::Release`]. A plain
/// `Vec` keeps the `Event` enum small (every calendar slot pays for
/// the largest variant); the engine recycles these buffers through
/// `Engine::release_pool`, so the steady state still does not
/// allocate: the receiver returns the emptied buffer to the pool and
/// commit phase 2 takes its buffers from it.
pub(crate) type ReleasePages = Vec<(PageId, bool)>;

/// A calendar event.
#[derive(Debug)]
pub(crate) enum Event {
    /// Next transaction arrives from the SOURCE.
    Arrival,
    /// A previously aborted transaction re-enters the system.
    Restart {
        /// Target node (unchanged across restarts).
        node: NodeId,
        /// The transaction program.
        spec: TxnSpec,
        /// Original arrival time (response time spans restarts).
        arrival: SimTime,
        /// Restart count.
        restarts: u32,
    },
    /// A CPU service slice completed on `node`.
    CpuDone {
        /// The node whose CPU ran the job.
        node: NodeId,
        /// The job that finished its pure-CPU part.
        job: Job,
    },
    /// A synchronous GEM access performed while holding a CPU finished.
    GemHeldDone {
        /// The node whose CPU was held.
        node: NodeId,
        /// What to do next.
        cont: Cont,
    },
    /// An asynchronous storage operation completed.
    IoDone {
        /// What to do next.
        cont: Cont,
    },
    /// A message finished its network transmission.
    Delivered {
        /// The message.
        msg: Msg,
    },
    /// Periodic deadlock / timeout scan.
    DeadlockScan,
    /// Periodic timeline sampling tick (scheduled only when a timeline
    /// is requested — an unobserved run never sees this event).
    TimelineSample,
    /// Injected node failure.
    NodeCrash {
        /// The failing node.
        node: NodeId,
    },
    /// The crashed node finished log-based recovery and rejoins.
    NodeRecovered {
        /// The recovered node.
        node: NodeId,
    },
}

/// A unit of CPU work on one node. The job may end with synchronous GEM
/// accesses (entry or page operations) that keep the CPU busy beyond
/// the instruction execution itself.
#[derive(Debug)]
pub(crate) struct Job {
    /// Pure instruction-execution time.
    pub service: SimDuration,
    /// Synchronous GEM entry accesses performed at the end of the slice.
    pub gem_entries: u32,
    /// Synchronous GEM page accesses performed at the end of the slice.
    pub gem_pages: u32,
    /// Transaction this work is attributed to (None for system jobs
    /// like dirty-page write-backs).
    pub txn: Option<TxnId>,
    /// Continuation fired when the job (including GEM holds) finishes.
    pub cont: Cont,
}

impl Job {
    /// A job of instruction execution only, attributed to `txn`.
    pub fn cpu(service: SimDuration, txn: Option<TxnId>, cont: Cont) -> Self {
        Job {
            service,
            gem_entries: 0,
            gem_pages: 0,
            txn,
            cont,
        }
    }
}

/// Continuations: where control flow resumes after a CPU slice, device
/// completion, or message delivery. Together with the per-transaction
/// state these encode the transaction manager's state machine (§3.2).
#[derive(Debug)]
pub(crate) enum Cont {
    /// Begin-of-transaction processing finished: start the first access.
    BotDone(TxnId),
    /// The record-access CPU slice finished: request the lock (or skip
    /// to the page phase for unlocked partitions).
    AccessCpuDone(TxnId),
    /// Execute the lock request on the requester's node now (against
    /// the GEM lock table, whose entry accesses the slice already
    /// timed, or the node's own GLA).
    LockExec(TxnId),
    /// Grant a read lock under the node's read authorization now.
    RaReadExec(TxnId),
    /// A queued lock was granted on the waiter's node; the waiter
    /// processes the grant and resumes.
    GrantExec(TxnId),
    /// Perform commit phase 2 (publish modifications, release locks).
    ReleaseExec(TxnId),
    /// A send-CPU slice finished: put the message on the wire. If
    /// `last_of` is set, that transaction's response ends here (release
    /// messages are fire-and-forget).
    SendDone {
        /// Message to transmit.
        msg: Msg,
        /// Transaction completing with this send, if any.
        last_of: Option<TxnId>,
    },
    /// A receive-CPU slice finished: act on the message.
    RecvDone {
        /// The received message.
        msg: Msg,
    },
    /// End-of-transaction CPU finished: begin commit phase 1.
    CommitInit(TxnId),
    /// The initiation CPU of an asynchronous I/O finished: issue the
    /// device access (`io.rs`).
    IoIssue(IoOp),
    /// An I/O finished: a synchronous one with its CPU job, an
    /// asynchronous one at the device (`io.rs`).
    IoDone {
        /// The operation.
        op: IoOp,
        /// Whether the CPU job held the CPU for the GEM page access.
        sync: bool,
    },
    /// The GLT entry update clearing page ownership executed (after the
    /// write-back of an owned page, GEM locking / NOFORCE).
    GemOwnerClear {
        /// Former owner.
        node: NodeId,
        /// The page.
        page: PageId,
    },
}

/// A message between nodes.
#[derive(Debug, Clone)]
pub(crate) struct Msg {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub body: MsgBody,
}

/// Message payloads of the two protocols.
#[derive(Debug, Clone)]
pub(crate) enum MsgBody {
    /// PCL: remote lock request to the GLA node.
    LockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// Page to lock.
        page: PageId,
        /// Requested mode.
        mode: LockMode,
        /// Version of the requester's cached copy, if any (lets the GLA
        /// decide whether to piggyback the current page).
        cached: Option<u64>,
    },
    /// PCL: lock grant back to the requester, possibly carrying the
    /// current page version (NOFORCE) and/or a read authorization.
    LockGrant {
        /// Granted transaction.
        txn: TxnId,
        /// Granted page.
        page: PageId,
        /// Page sequence number at the GLA.
        seqno: u64,
        /// Whether the current page version travels with the grant
        /// (makes this a "long" message).
        with_page: bool,
        /// Whether a read authorization was granted.
        ra: bool,
    },
    /// PCL: commit-time lock release to a remote GLA node; modified
    /// pages of that authority travel along (NOFORCE), making the
    /// message "long".
    Release {
        /// Releasing transaction.
        txn: TxnId,
        /// Pages released at this authority, with their modified flag.
        pages: ReleasePages,
    },
    /// PCL read optimization: revoke a read authorization.
    Revoke {
        /// Page whose authorization is revoked.
        page: PageId,
        /// The writer whose lock waits on the revocation.
        writer: TxnId,
    },
    /// PCL read optimization: revocation acknowledged.
    RevokeAck {
        /// The page.
        page: PageId,
        /// The writer waiting for this acknowledgement.
        writer: TxnId,
    },
    /// GEM locking / NOFORCE: request the current page version from its
    /// owner.
    PageReq {
        /// Requesting transaction.
        txn: TxnId,
        /// The wanted page.
        page: PageId,
    },
    /// Reply to a page request. `found = true` makes this a "long"
    /// message carrying the page (network transfer mode); with GEM
    /// transfer mode the page travels through GEM and this stays short.
    PageReply {
        /// Requesting transaction.
        txn: TxnId,
        /// The page.
        page: PageId,
        /// Version supplied.
        seqno: u64,
        /// Whether the owner still had the page.
        found: bool,
        /// Whether the page was deposited in GEM instead of the message
        /// (GEM transfer mode).
        via_gem: bool,
    },
}

impl MsgBody {
    /// True if the message carries a page (a "long" message).
    pub fn is_long(&self) -> bool {
        match self {
            MsgBody::LockGrant { with_page, .. } => *with_page,
            MsgBody::Release { pages, .. } => pages.iter().any(|&(_, m)| m),
            MsgBody::PageReply { found, via_gem, .. } => *found && !via_gem,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every calendar slot pays for the largest event, and a CPU job
    /// carries its continuation: keep both from growing.
    #[test]
    fn events_stay_small() {
        assert!(std::mem::size_of::<Cont>() <= 64);
        assert!(std::mem::size_of::<Event>() <= 104);
    }

    /// Every transaction slot pays this fixed size, however short its
    /// held and modified lists are.
    #[test]
    fn txn_slots_stay_small() {
        assert!(std::mem::size_of::<super::super::Txn>() <= 216);
    }
}
