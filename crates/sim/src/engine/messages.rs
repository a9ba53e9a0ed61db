//! Message handling: the communication subsystem (§3.2), dispatch of
//! the PCL protocol messages to `locking.rs`, and the page-transfer
//! paths.

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
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: attributed,
                cont: Cont::SendDone { msg, last_of },
            },
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
        self.dispatch(
            now,
            node,
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: attributed,
                cont: Cont::RecvDone { msg },
            },
        );
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

    /// The owner answers a page request: from its buffer (long reply),
    /// through GEM (transfer mode), or "not found" after it already
    /// wrote the page back.
    fn owner_page_req(
        &mut self,
        now: SimTime,
        owner: NodeId,
        from: NodeId,
        txn: TxnId,
        page: PageId,
    ) {
        let cached = self.nodes[owner.index()].buffer.cached_seqno(page);
        match cached {
            Some(seqno) if self.cfg.page_transfer == PageTransferMode::Gem => {
                // Deposit the page in GEM (synchronous, CPU held), then
                // notify the requester with a short message.
                let svc = self.fixed(self.cfg.gem.io_init_instr);
                self.dispatch(
                    now,
                    owner,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 1,
                        txn: None,
                        cont: Cont::GemTransferStored {
                            msg: Msg {
                                from: owner,
                                to: from,
                                body: MsgBody::PageReq { txn, page },
                            },
                            seqno,
                        },
                    },
                );
            }
            Some(seqno) => {
                self.counters.page_transfers += 1;
                self.emit(
                    now,
                    TraceEventKind::PageTransfer,
                    owner,
                    Some(txn),
                    Some(page),
                    u64::from(from.raw()),
                );
                self.send_msg(
                    now,
                    Msg {
                        from: owner,
                        to: from,
                        body: MsgBody::PageReply {
                            txn,
                            page,
                            seqno,
                            found: true,
                            via_gem: false,
                        },
                    },
                    None,
                    None,
                );
            }
            None => {
                // Already replaced and written back: the requester reads
                // the permanent database (its read queues behind the
                // write-back on the same disk, so it sees the new
                // version).
                self.send_msg(
                    now,
                    Msg {
                        from: owner,
                        to: from,
                        body: MsgBody::PageReply {
                            txn,
                            page,
                            seqno: 0,
                            found: false,
                            via_gem: false,
                        },
                    },
                    None,
                    None,
                );
            }
        }
    }

    /// Owner finished storing the transferred page in GEM: notify.
    pub(crate) fn gem_transfer_stored(&mut self, now: SimTime, msg: Msg, seqno: u64) {
        self.counters.gem_transfers += 1;
        let MsgBody::PageReq { txn, page } = msg.body else {
            return;
        };
        self.emit(
            now,
            TraceEventKind::PageTransfer,
            msg.from,
            Some(txn),
            Some(page),
            u64::from(msg.to.raw()),
        );
        self.send_msg(
            now,
            Msg {
                from: msg.from,
                to: msg.to,
                body: MsgBody::PageReply {
                    txn,
                    page,
                    seqno,
                    found: true,
                    via_gem: true,
                },
            },
            None,
            None,
        );
    }

    /// The requester processes a page reply.
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
        if !found {
            self.start_storage_read_for(now, txn, page);
            return;
        }
        if via_gem {
            // Fetch the page from GEM (synchronous).
            let svc = self.fixed(self.cfg.gem.io_init_instr);
            self.dispatch(
                now,
                node,
                Job {
                    service: svc,
                    gem_entries: 0,
                    gem_pages: 1,
                    txn: Some(txn),
                    cont: Cont::GemTransferFetched(txn),
                },
            );
            return;
        }
        self.install_transferred_page(now, txn, page, seqno);
    }

    /// Requester finished reading the transferred page out of GEM.
    pub(crate) fn gem_transfer_fetched(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let page = t.spec.refs()[t.step].page;
        let seqno = t.seqno(page);
        self.install_transferred_page(now, id, page, seqno);
    }

    fn install_transferred_page(&mut self, now: SimTime, id: TxnId, page: PageId, seqno: u64) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let node = t.node;
        let waited = (now - t.wait_since).as_nanos();
        let delay_ms = (now - t.wait_since).as_millis_f64();
        t.end_io_wait(now);
        self.metrics.page_req_delay.record(delay_ms);
        let evicted = self.nodes[node.index()].buffer.insert(page, seqno, false);
        if let Some((victim, _)) = evicted {
            self.start_evict_write(now, node, victim);
        }
        self.emit(
            now,
            TraceEventKind::PageReadDone,
            node,
            Some(id),
            Some(page),
            waited,
        );
        self.finish_access(now, id);
    }

    /// Delayed storage read used by the not-found page-reply path (the
    /// transaction is mid-access; the page identity is explicit).
    fn start_storage_read_for(&mut self, now: SimTime, id: TxnId, page: PageId) {
        debug_assert_eq!(self.txn(id).spec.refs()[self.txn(id).step].page, page);
        let node = self.txn(id).node;
        let svc = self.fixed(self.cfg.disk.io_instr_per_page);
        self.dispatch(
            now,
            node,
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: Some(id),
                cont: Cont::StorageReadIssue(id),
            },
        );
    }
}
