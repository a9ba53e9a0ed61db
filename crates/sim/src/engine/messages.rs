//! Message handling: the communication subsystem (§3.2), dispatch of
//! the PCL protocol messages to `locking.rs`, and the page-transfer
//! paths (their GEM page accesses and reads in `io.rs`).

use super::io::{Arrival, IoOp};
use super::locking::ReqCtx;
use super::{Cont, Engine, Job, Msg, MsgBody};
use dbshare_model::{NodeId, PageId, PageTransferMode, TxnId};
use desim::trace::TraceEventKind;
use desim::SimTime;

/// Transaction a message is about, for trace attribution.
fn msg_txn(body: &MsgBody) -> Option<TxnId> {
    match body {
        MsgBody::LockReq { txn, .. }
        | MsgBody::LockGrant { txn, .. }
        | MsgBody::Release { txn, .. }
        | MsgBody::PageReq { txn, .. }
        | MsgBody::PageReply { txn, .. } => Some(*txn),
        MsgBody::Revoke { writer, .. } | MsgBody::RevokeAck { writer, .. } => Some(*writer),
    }
}

impl Engine {
    /// Queues the send-side CPU work for `msg` on the sending node.
    /// `attributed` charges the CPU to a transaction's statistics;
    /// `last_of` completes that transaction once the message is on the
    /// wire (used for fire-and-forget release messages).
    pub(crate) fn send_msg(
        &mut self,
        now: SimTime,
        msg: Msg,
        attributed: Option<TxnId>,
        last_of: Option<TxnId>,
    ) {
        let instr = if msg.body.is_long() {
            self.cfg.comm.long_msg_instr
        } else {
            self.cfg.comm.short_msg_instr
        };
        let svc = self.fixed(instr);
        let node = msg.from;
        self.dispatch(
            now,
            node,
            Job::cpu(svc, attributed, Cont::SendDone { msg, last_of }),
        );
    }

    /// Send CPU finished: transmit, and complete the sender if this was
    /// its final action.
    pub(crate) fn send_done(&mut self, now: SimTime, msg: Msg, last_of: Option<TxnId>) {
        let bytes = if msg.body.is_long() {
            self.cfg.comm.long_msg_bytes
        } else {
            self.cfg.comm.short_msg_bytes
        };
        let delivered = self.storage.send(now, bytes);
        self.emit(
            now,
            TraceEventKind::MsgSend,
            msg.from,
            msg_txn(&msg.body),
            None,
            u64::from(msg.to.raw()),
        );
        self.cal
            .schedule(delivered, super::Event::Delivered { msg });
        if let Some(id) = last_of {
            self.txn_complete(now, id);
        }
    }

    /// Transmission finished: queue the receive-side CPU work. A
    /// message for a *down* node sits in its receive queue until the
    /// node recovers (failure injection).
    pub(crate) fn deliver(&mut self, now: SimTime, msg: Msg) {
        if self.down[msg.to.index()] {
            if let Some(crash) = self.cfg.crash {
                let back = SimTime::ZERO
                    + desim::SimDuration::from_secs_f64(crash.at_secs + crash.recovery_secs);
                if back > now {
                    self.cal.schedule(back, super::Event::Delivered { msg });
                    return;
                }
            }
        }
        let mut instr = if msg.body.is_long() {
            self.cfg.comm.long_msg_instr
        } else {
            self.cfg.comm.short_msg_instr
        };
        // Protocol processing folded into the receive slice.
        match &msg.body {
            MsgBody::LockReq { .. } | MsgBody::Revoke { .. } | MsgBody::RevokeAck { .. } => {
                instr += self.cfg.pcl_local_lock_instr;
            }
            MsgBody::Release { pages, .. } => {
                instr += self.cfg.pcl_local_lock_instr * pages.len().max(1) as f64;
            }
            _ => {}
        }
        let attributed = match &msg.body {
            MsgBody::LockGrant { txn, .. } | MsgBody::PageReply { txn, .. } => Some(*txn),
            _ => None,
        };
        let svc = self.fixed(instr);
        let node = msg.to;
        self.emit(
            now,
            TraceEventKind::MsgRecv,
            node,
            msg_txn(&msg.body),
            None,
            u64::from(msg.from.raw()),
        );
        self.dispatch(now, node, Job::cpu(svc, attributed, Cont::RecvDone { msg }));
    }

    /// Receive CPU finished: act on the message.
    pub(crate) fn handle_msg(&mut self, now: SimTime, msg: Msg) {
        // Take the body apart by value: cloning it would copy the
        // Release page list (a heap allocation whenever it spilled).
        let Msg { from, to, body } = msg;
        match body {
            MsgBody::LockReq {
                txn,
                page,
                mode,
                cached,
            } => {
                let ctx = ReqCtx {
                    from,
                    page,
                    mode,
                    cached,
                };
                self.gla_request(now, to, txn, ctx);
            }
            MsgBody::LockGrant {
                txn,
                page,
                seqno,
                with_page,
                ra,
            } => self.requester_grant(now, to, from, txn, page, seqno, with_page, ra),
            MsgBody::Release { txn, pages } => self.gla_release(now, to, txn, pages),
            MsgBody::Revoke { page, writer } => self.revoke_ra(now, to, from, page, writer),
            MsgBody::RevokeAck { page, writer } => self.revoke_acked(now, writer, page),
            MsgBody::PageReq { txn, page } => self.owner_page_req(now, to, from, txn, page),
            MsgBody::PageReply {
                txn,
                page,
                seqno,
                found,
                via_gem,
            } => self.requester_page_reply(now, to, txn, page, seqno, found, via_gem),
        }
    }

    // ------------------------------------------------------------------
    // GEM-locking page transfers (NOFORCE)
    // ------------------------------------------------------------------

    /// The owner answers a page request: from its buffer (a long
    /// reply), through GEM (transfer mode: the page is stored in GEM
    /// first, and the reply stays short), or "not found" after it
    /// already wrote the page back. The requester then reads the
    /// permanent database; its read queues behind the write-back on the
    /// same disk, so it sees the new version.
    fn owner_page_req(
        &mut self,
        now: SimTime,
        owner: NodeId,
        from: NodeId,
        txn: TxnId,
        page: PageId,
    ) {
        let cached = self.nodes[owner.index()].buffer.cached_seqno(page);
        let via_gem = cached.is_some() && self.cfg.page_transfer == PageTransferMode::Gem;
        let reply = Msg {
            from: owner,
            to: from,
            body: MsgBody::PageReply {
                txn,
                page,
                seqno: cached.unwrap_or(0),
                found: cached.is_some(),
                via_gem,
            },
        };
        if via_gem {
            self.start_io(now, IoOp::TransferStore(reply));
        } else {
            self.send_page_reply(now, reply);
        }
    }

    /// Sends the owner's reply to a page request; one that carries the
    /// page, or announces it in GEM, is a page transfer.
    pub(crate) fn send_page_reply(&mut self, now: SimTime, reply: Msg) {
        if let MsgBody::PageReply {
            txn,
            page,
            found: true,
            via_gem,
            ..
        } = reply.body
        {
            if !via_gem {
                self.counters.page_transfers += 1;
            }
            self.emit(
                now,
                TraceEventKind::PageTransfer,
                reply.from,
                Some(txn),
                Some(page),
                u64::from(reply.to.raw()),
            );
        }
        self.send_msg(now, reply, None, None);
    }

    /// The requester processes a page reply: reads the page if its
    /// owner no longer had it, fetches it from GEM, or installs the copy
    /// the reply carried.
    #[allow(clippy::too_many_arguments)]
    fn requester_page_reply(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        page: PageId,
        seqno: u64,
        found: bool,
        via_gem: bool,
    ) {
        let Some(t) = self.txns.get(&txn) else { return };
        debug_assert_eq!(t.node, node);
        debug_assert_eq!(t.access().0, page, "{txn:?} got another page");
        if !found {
            self.start_io(now, IoOp::Read(txn));
        } else if via_gem {
            self.start_io(now, IoOp::TransferFetch(txn));
        } else {
            self.install_page(now, txn, seqno, Arrival::Transfer);
        }
    }
}
