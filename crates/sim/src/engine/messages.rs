//! Message handling: the communication subsystem (§3.2) plus the
//! receiver-side protocol actions of PCL and the page-transfer paths.

use super::{Cont, Engine, Job, Msg, MsgBody, PendingWrite, Phase, ReqCtx};
use dbshare_lockmgr::pcl::RevokeAction;
use dbshare_lockmgr::{LockMode, LockReply};
use dbshare_model::{NodeId, PageId, PageTransferMode, TxnId};
use dbshare_node::Lookup;
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
            } => self.gla_lock_req(now, to, from, txn, page, mode, cached),
            MsgBody::LockGrant {
                txn,
                page,
                mode,
                seqno,
                with_page,
                ra,
            } => self.requester_grant(now, to, txn, page, mode, seqno, with_page, ra),
            MsgBody::Release { txn, pages } => self.gla_release(now, to, txn, pages),
            MsgBody::Revoke { page, writer } => match self.nodes[to.index()].ra.revoke(page) {
                RevokeAction::AckNow => self.send_msg(
                    now,
                    Msg {
                        from: to,
                        to: from,
                        body: MsgBody::RevokeAck { page, writer },
                    },
                    None,
                    None,
                ),
                RevokeAction::Deferred => {
                    self.nodes[to.index()]
                        .pending_acks
                        .insert(page, (from, writer));
                }
            },
            MsgBody::RevokeAck { page, writer } => {
                let ready = if let Some(pw) = self.pending_writes.get_mut(&writer) {
                    debug_assert_eq!(pw.ctx.page, page, "ack for the wrong page");
                    pw.acks_left = pw.acks_left.saturating_sub(1);
                    pw.acks_left == 0 && pw.granted
                } else {
                    false // writer aborted meanwhile
                };
                if ready {
                    self.finish_pending_write(now, writer);
                }
            }
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
    // PCL receiver-side actions
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn gla_lock_req(
        &mut self,
        now: SimTime,
        gla_node: NodeId,
        from: NodeId,
        txn: TxnId,
        page: PageId,
        mode: LockMode,
        cached: Option<u64>,
    ) {
        let ro = self.cfg.pcl_read_optimization;
        let out = self.gla[gla_node.index()].request(txn, from, page, mode, false, ro);
        let ctx = ReqCtx {
            from,
            page,
            mode,
            cached,
        };
        if !out.revoke.is_empty() {
            self.counters.revokes_sent += out.revoke.len() as u64;
            self.counters.lock_waits += 1;
            self.pending_writes.insert(
                txn,
                PendingWrite {
                    gla: gla_node,
                    acks_left: out.revoke.len() as u64,
                    granted: out.reply != LockReply::Queued,
                    ctx,
                },
            );
            for target in out.revoke {
                self.send_msg(
                    now,
                    Msg {
                        from: gla_node,
                        to: target,
                        body: MsgBody::Revoke { page, writer: txn },
                    },
                    None,
                    None,
                );
            }
            return;
        }
        match out.reply {
            LockReply::Granted | LockReply::AlreadyHeld => {
                self.send_pcl_grant(now, gla_node, txn, ctx);
            }
            LockReply::Queued => {
                self.counters.lock_waits += 1;
                self.remote_ctx.insert(txn, ctx);
            }
        }
    }

    /// The requester processes a lock grant from a remote GLA.
    #[allow(clippy::too_many_arguments)]
    fn requester_grant(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        page: PageId,
        mode: LockMode,
        seqno: u64,
        with_page: bool,
        ra: bool,
    ) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return; // aborted while the grant was in flight
        };
        let waited = if t.phase == Phase::LockWait {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        t.end_lock_wait(now);
        if t.note_grant(page, mode, seqno, false) {
            t.held_gla.push((self.gla_map.gla_of(page), page));
        }
        self.emit(
            now,
            TraceEventKind::LockGrant,
            node,
            Some(txn),
            Some(page),
            waited,
        );
        if ra {
            self.nodes[node.index()].ra.grant_authorization(page);
        }
        if with_page {
            // The current version travelled with the grant: install it.
            let lookup = self.nodes[node.index()].buffer.lookup(page, seqno);
            if lookup == Lookup::Invalidated {
                self.counters.invalidations += 1;
            }
            if lookup != Lookup::Hit {
                let evicted = self.nodes[node.index()].buffer.insert(page, seqno, false);
                if let Some((victim, _)) = evicted {
                    self.start_evict_write(now, node, victim);
                }
            }
            self.finish_access(now, txn);
        } else {
            self.acquire_page(now, txn, seqno, None, true);
        }
    }

    /// The GLA processes a commit-time release: record modifications
    /// (receiving the new versions under NOFORCE), release the locks,
    /// and wake waiters.
    fn gla_release(
        &mut self,
        now: SimTime,
        gla_node: NodeId,
        txn: TxnId,
        mut pages: super::events::ReleasePages,
    ) {
        let noforce = self.is_noforce();
        for (page, modified) in &pages {
            if *modified {
                let new_seq = self.gla[gla_node.index()].record_modification(*page);
                if noforce {
                    // The GLA node owns its partition's pages: the new
                    // version now lives (dirty) in its buffer.
                    let evicted = self.nodes[gla_node.index()]
                        .buffer
                        .mark_dirty(*page, new_seq);
                    if let Some((victim, _)) = evicted {
                        self.start_evict_write(now, gla_node, victim);
                    }
                }
            }
        }
        // The emptied buffer goes back to the pool for the next commit.
        pages.clear();
        self.release_pool.push(pages);
        let grants = self.gla[gla_node.index()].release_all(txn);
        self.process_gla_grants(now, gla_node, grants);
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

    /// Sends a deferred revocation acknowledgement for `page`, if one
    /// is owed by `node`.
    pub(crate) fn send_deferred_ack(&mut self, now: SimTime, node: NodeId, page: PageId) {
        if let Some((gla, writer)) = self.nodes[node.index()].pending_acks.remove(&page) {
            self.send_msg(
                now,
                Msg {
                    from: node,
                    to: gla,
                    body: MsgBody::RevokeAck { page, writer },
                },
                None,
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::PartitionId;

    /// Regression for the `out.revoke.len() as u32` truncation: a
    /// revoke set one wider than `u32::MAX` used to wrap `acks_left`
    /// to 1, granting the write lock after a single acknowledgement
    /// with ~4 billion revocations still outstanding. The counter is
    /// `u64` now; walk it across the old boundary and check it
    /// neither wraps nor reaches zero early.
    #[test]
    fn acks_left_counts_past_the_u32_boundary() {
        let wide = u64::from(u32::MAX) + 2;
        let mut pw = PendingWrite {
            gla: NodeId::new(0),
            acks_left: wide,
            granted: true,
            ctx: ReqCtx {
                from: NodeId::new(0),
                page: PageId::new(PartitionId::new(0), 0),
                mode: LockMode::Write,
                cached: None,
            },
        };
        // The ack handler's exact arithmetic (messages.rs RevokeAck).
        for acked in 1..=3u64 {
            pw.acks_left = pw.acks_left.saturating_sub(1);
            assert_eq!(pw.acks_left, wide - acked);
            assert_ne!(pw.acks_left, 0, "granted with acks outstanding");
        }
        // And the conversion from a usize revoke-set length is
        // lossless for every representable length (64-bit hosts).
        let len: usize = 5_000_000_000usize;
        assert_eq!(len as u64, 5_000_000_000u64);
    }
}
