//! The engine's lock module (§3.2): the one place that knows which
//! coupling runs, and that reads or writes lock state.
//!
//! Both couplings run the same strict-2PL lock table with page sequence
//! numbers for coherency. GEM locking (and the central lock engine)
//! keeps one global lock table (GLT), reached by the requester's CPU
//! with synchronous entry accesses. Primary copy locking (PCL) keeps a
//! global lock authority (GLA) per node, reached locally or by a
//! message round trip, plus the read authorizations of the read
//! optimization. Every lock passes the same steps:
//!
//! * request: [`request_lock`](Engine::request_lock), executed on the
//!   requester's node by [`lock_exec`](Engine::lock_exec) (GLT or own
//!   GLA, which [`gla_request`](Engine::gla_request) also serves for
//!   remote requesters) or [`ra_read_exec`](Engine::ra_read_exec)
//!   (read authorization);
//! * grant delivery: [`deliver_grant`](Engine::deliver_grant), for
//!   immediate grants and for queued ones
//!   ([`grant_exec`](Engine::grant_exec), a remote GLA's grant message);
//! * wake-up of the waiters a release granted: [`wake`](Engine::wake);
//! * release: [`release_exec`](Engine::release_exec) at commit and the
//!   remote GLAs' [`gla_release`](Engine::gla_release), or
//!   [`release_aborted`](Engine::release_aborted).

use super::events::ReleasePages;
use super::maintenance::AbortReason;
use super::txn::Grantor;
use super::{Cont, Engine, Job, Msg, MsgBody, Phase, Txn};
use crate::metrics::Counters;
use dbshare_lockmgr::pcl::{GlaState, RaTable, RevokeAction};
use dbshare_lockmgr::{GemLockTable, LockMode, LockReply, LockTable};
use dbshare_model::gla::GlaMap;
use dbshare_model::{CouplingMode, NodeId, PageId, SystemConfig, TxnId};
use dbshare_workload::Workload;
use desim::fxhash::{self, FxHashMap};
use desim::trace::TraceEventKind;
use desim::SimTime;

/// The lock state of the configured coupling.
pub(crate) enum Locking {
    /// GEM locking or the central lock engine: one global lock table.
    Glt(GemLockTable),
    /// Primary copy locking.
    Pcl(Pcl),
}

/// PCL's lock state: the lock authorities, the read authorizations, and
/// the requests in progress at the authorities.
pub(crate) struct Pcl {
    /// Which node holds the lock authority of each page.
    gla_map: GlaMap,
    /// Each node's lock authority.
    gla: Vec<GlaState>,
    /// Each node's read authorizations.
    ra: Vec<RaTable>,
    /// Each node's deferred revocation acknowledgements: page → (GLA
    /// node, writer).
    pending_acks: Vec<FxHashMap<PageId, (NodeId, TxnId)>>,
    /// Queued requests, kept at their GLA until the grant can be
    /// executed (local requester) or sent (remote requester).
    queued: FxHashMap<TxnId, ReqCtx>,
    /// Write locks waiting for read-authorization revocations.
    pending_writes: FxHashMap<TxnId, PendingWrite>,
}

/// A lock request as its GLA sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqCtx {
    pub from: NodeId,
    pub page: PageId,
    pub mode: LockMode,
    /// Version of the requester's cached copy, if any (lets the GLA
    /// decide whether to piggyback the current page).
    pub cached: Option<u64>,
}

/// A write lock waiting for read-authorization revocations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingWrite {
    pub gla: NodeId,
    /// Revocation acks still outstanding. `u64`: the revoke set can
    /// hold every node in the system, and a `u32` cast of a `usize`
    /// length would wrap silently rather than fail.
    pub acks_left: u64,
    pub granted: bool,
    pub ctx: ReqCtx,
}

/// Where the current version of a granted page is, as the grant says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageCopy {
    /// A buffered copy of the granted version, else permanent storage.
    Stored,
    /// The buffer of this node (GEM locking, NOFORCE).
    Owner(NodeId),
    /// It came with the grant message (PCL, NOFORCE).
    Shipped,
}

impl Locking {
    /// The lock state of `cfg`'s coupling for up to `live` concurrent
    /// transactions. Page-keyed tables are pre-sized for twice a
    /// node's buffer, capped by `page_metadata_budget`: entries past
    /// the cap are materialized lazily on first touch, which trades a
    /// few early rehashes for not committing `buffer × nodes` entries
    /// of RAM up front on 200-node runs. The one GLT is sized for every
    /// live transaction; each GLA for one node's MPL, growing on demand
    /// when random routing sends it more, so the pre-sized total stays
    /// linear in the node count. The GLT and, without the read
    /// optimization, the GLAs count their pages' buffered copies and
    /// drop the entries nothing keeps; a GLA handing out read
    /// authorizations keeps every entry, since nearly every page read
    /// there keeps an authorization anyway.
    pub(crate) fn new(cfg: &SystemConfig, workload: &dyn Workload, live: usize) -> Self {
        let nodes = cfg.nodes as usize;
        let hot_pages = cfg.buffer_pages_per_node as usize * 2;
        let cap = |pages: usize| cfg.page_metadata_budget.map_or(pages, |b| pages.min(b));
        let gla = if cfg.pcl_read_optimization {
            GlaState::with_capacity
        } else {
            GlaState::counting
        };
        match cfg.coupling {
            CouplingMode::GemLocking | CouplingMode::LockEngine => {
                Locking::Glt(GemLockTable::with_capacity(cap(hot_pages * nodes), live))
            }
            CouplingMode::Pcl => Locking::Pcl(Pcl {
                gla_map: workload.gla_map(),
                gla: (0..nodes)
                    .map(|_| gla(cap(hot_pages), cfg.mpl_per_node as usize))
                    .collect(),
                ra: (0..nodes).map(|_| RaTable::new()).collect(),
                pending_acks: (0..nodes).map(|_| fxhash::map_with_capacity(16)).collect(),
                queued: fxhash::map_with_capacity(live),
                pending_writes: fxhash::map_with_capacity(live),
            }),
        }
    }
}

impl Engine {
    fn pcl(&mut self) -> &mut Pcl {
        match &mut self.locking {
            Locking::Pcl(p) => p,
            Locking::Glt(_) => unreachable!("a PCL protocol step under GEM locking"),
        }
    }

    /// A CPU job of `ops` lock operations: GEM's lock-operation
    /// instructions and entry accesses each (`StorageSubsystem` runs
    /// the entries on the central lock engine when it holds the
    /// table), or PCL's local lock processing.
    pub(crate) fn lock_job(&self, ops: u32, txn: Option<TxnId>, cont: Cont) -> Job {
        let (instr, entries) = match self.locking {
            Locking::Glt(_) => (self.cfg.gem.lock_op_instr, GemLockTable::ENTRY_OPS),
            Locking::Pcl(_) => (self.cfg.pcl_local_lock_instr, 0),
        };
        Job {
            service: self.fixed(instr * f64::from(ops)),
            gem_entries: entries * ops,
            gem_pages: 0,
            txn,
            cont,
        }
    }

    // ------------------------------------------------------------------
    // Request
    // ------------------------------------------------------------------

    /// Requests `id`'s lock on `page`. The GLT, the node's own GLA and a
    /// valid read authorization (with a cached copy, whose currency the
    /// authorization guarantees) are processed on this node after a
    /// lock-operation CPU slice; anything else goes to the page's GLA
    /// as a message.
    pub(crate) fn request_lock(&mut self, now: SimTime, id: TxnId, page: PageId, mode: LockMode) {
        let node = self.txn(id).node;
        let cont = match &self.locking {
            Locking::Glt(_) => Cont::LockExec(id),
            Locking::Pcl(p) => {
                let gla = p.gla_map.gla_of(page);
                if gla == node {
                    Cont::LockExec(id)
                } else if self.cfg.pcl_read_optimization
                    && mode == LockMode::Read
                    && p.ra[node.index()].is_authorized(page)
                    && self.nodes[node.index()].buffer.cached_seqno(page).is_some()
                {
                    Cont::RaReadExec(id)
                } else {
                    return self.send_lock_request(now, id, page, mode, gla);
                }
            }
        };
        let job = self.lock_job(1, Some(id), cont);
        self.dispatch(now, node, job);
    }

    /// Executes a lock request against the GLT (whose entry accesses
    /// elapsed inside the CPU slice) or the requester's own GLA.
    pub(crate) fn lock_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let (page, mode) = t.access();
        let Locking::Glt(glt) = &mut self.locking else {
            let ctx = ReqCtx {
                from: node,
                page,
                mode,
                cached: None,
            };
            return self.gla_request(now, node, id, ctx);
        };
        let rep = glt.request(id, page, mode);
        if rep.reply == LockReply::Queued {
            self.counters.lock_waits += 1;
            self.wait_for_lock(now, id, page);
        } else {
            let copy = rep.info.owner.map_or(PageCopy::Stored, PageCopy::Owner);
            self.deliver_grant(now, id, rep.info.seqno, Grantor::Glt, copy);
        }
    }

    /// Grants a read lock under the requester's read authorization. The
    /// authorization may have been revoked or the copy evicted while the
    /// CPU slice waited: the request then goes to the GLA.
    pub(crate) fn ra_read_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let (page, _) = t.access();
        let cached = self.nodes[node.index()].buffer.cached_seqno(page);
        let p = self.pcl();
        match cached {
            Some(seqno) if p.ra[node.index()].try_local_read(id, page) => {
                self.counters.ra_local_grants += 1;
                self.deliver_grant(now, id, seqno, Grantor::Ra, PageCopy::Stored);
            }
            _ => {
                let gla = p.gla_map.gla_of(page);
                self.send_lock_request(now, id, page, LockMode::Read, gla);
            }
        }
    }

    /// Sends `id`'s request to `page`'s remote GLA and waits for the
    /// grant. A read lock on the page held under a read authorization
    /// is given back first: otherwise the write's revocation would wait
    /// on this transaction. A request that names the version of a
    /// buffered copy keeps the page's entry at a counting GLA until it
    /// arrives there.
    fn send_lock_request(
        &mut self,
        now: SimTime,
        id: TxnId,
        page: PageId,
        mode: LockMode,
        gla: NodeId,
    ) {
        let node = self.txn(id).node;
        if self.txn(id).holds_ra(page) {
            self.txn_mut(id).give_back_ra(page);
            self.release_ra(now, node, id, page);
        }
        let cached = self.nodes[node.index()].buffer.cached_seqno(page);
        if cached.is_some() {
            self.pcl().gla[gla.index()].request_sent(page);
        }
        self.wait_for_lock(now, id, page);
        self.send_msg(
            now,
            Msg {
                from: node,
                to: gla,
                body: MsgBody::LockReq {
                    txn: id,
                    page,
                    mode,
                    cached,
                },
            },
            Some(id),
            None,
        );
    }

    /// Processes `txn`'s lock request at `gla`'s authority, from that
    /// node itself or from a remote one. A write first revokes the
    /// other nodes' read authorizations and is granted once every
    /// revocation is acknowledged; a conflicting request queues until
    /// [`wake`](Engine::wake).
    ///
    /// A request whose transaction aborted while the request was on the
    /// wire is dropped: the abort already cleaned up this GLA, and a
    /// lock granted now would never be released.
    pub(crate) fn gla_request(&mut self, now: SimTime, gla: NodeId, txn: TxnId, ctx: ReqCtx) {
        if !self.txns.contains_key(&txn) {
            if ctx.cached.is_some() {
                self.pcl().gla[gla.index()].request_arrived(ctx.page);
            }
            return;
        }
        let local = ctx.from == gla;
        if local {
            self.counters.gla_local_requests += 1;
        } else {
            self.counters.gla_remote_requests += 1;
        }
        let ro = self.cfg.pcl_read_optimization;
        let authority = &mut self.pcl().gla[gla.index()];
        let out = authority.request(txn, ctx.from, ctx.page, ctx.mode, local, ro);
        if ctx.cached.is_some() {
            // The request's lock or queue entry now keeps the page's entry.
            authority.request_arrived(ctx.page);
        }
        let granted = out.reply != LockReply::Queued;
        if granted && out.revoke.is_empty() {
            if local {
                self.deliver_grant(now, txn, out.seqno, Grantor::Gla(gla), PageCopy::Stored);
            } else {
                self.send_grant(now, gla, txn, ctx);
            }
            return;
        }
        self.counters.lock_waits += 1;
        if local {
            self.wait_for_lock(now, txn, ctx.page);
        }
        if out.revoke.is_empty() {
            self.pcl().queued.insert(txn, ctx);
            return;
        }
        self.counters.revokes_sent += out.revoke.len() as u64;
        let pending = PendingWrite {
            gla,
            acks_left: out.revoke.len() as u64,
            granted,
            ctx,
        };
        self.pcl().pending_writes.insert(txn, pending);
        for target in out.revoke {
            self.send_msg(
                now,
                Msg {
                    from: gla,
                    to: target,
                    body: MsgBody::Revoke {
                        page: ctx.page,
                        writer: txn,
                    },
                },
                None,
                None,
            );
        }
    }

    /// `id` starts waiting for its lock on `page`.
    fn wait_for_lock(&mut self, now: SimTime, id: TxnId, page: PageId) {
        let t = self.txn_mut(id);
        t.begin_wait(now, Phase::LockWait, Some(page));
        let node = t.node;
        self.emit(now, TraceEventKind::LockWait, node, Some(id), Some(page), 0);
    }

    // ------------------------------------------------------------------
    // Grant
    // ------------------------------------------------------------------

    /// Delivers a lock grant on the current access's page, whichever
    /// table granted it: records the lock with its grantor `at` in the
    /// transaction's lock index and held list, ends the lock wait of a
    /// request that queued, and resumes the access at page version
    /// `seqno`, whose copy `copy` locates.
    pub(crate) fn deliver_grant(
        &mut self,
        now: SimTime,
        id: TxnId,
        seqno: u64,
        at: Grantor,
        copy: PageCopy,
    ) {
        let t = self.txn_mut(id);
        let node = t.node;
        let (page, mode) = t.access();
        let waited = (t.phase == Phase::LockWait).then(|| (now - t.wait_since).as_nanos());
        if waited.is_some() {
            t.end_lock_wait(now);
        }
        t.note_grant(page, mode, seqno, at);
        if let Some(waited) = waited {
            self.emit(
                now,
                TraceEventKind::LockGrant,
                node,
                Some(id),
                Some(page),
                waited,
            );
        }
        self.acquire_page(now, id, seqno, copy, true);
    }

    /// A queued lock was granted on the waiter's own node (the GLT, or
    /// its node's GLA) and its grant-processing CPU slice finished
    /// (GEM: the entry re-read): resume the access.
    pub(crate) fn grant_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let (page, _) = t.access();
        debug_assert_eq!(t.waiting_page, Some(page), "{id:?} granted another page");
        let (seqno, at, copy) = match &self.locking {
            Locking::Glt(glt) => {
                let info = glt.info(page);
                let copy = info.owner.map_or(PageCopy::Stored, PageCopy::Owner);
                (info.seqno, Grantor::Glt, copy)
            }
            Locking::Pcl(p) => (
                p.gla[node.index()].seqno(page),
                Grantor::Gla(node),
                PageCopy::Stored,
            ),
        };
        self.deliver_grant(now, id, seqno, at, copy);
    }

    /// The requester on `node` processes a lock grant from the remote
    /// GLA on `gla`, which may carry a read authorization and the
    /// current page version.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn requester_grant(
        &mut self,
        now: SimTime,
        node: NodeId,
        gla: NodeId,
        txn: TxnId,
        page: PageId,
        seqno: u64,
        with_page: bool,
        ra: bool,
    ) {
        if !self.txns.contains_key(&txn) {
            return; // aborted while the grant was in flight
        }
        debug_assert_eq!(
            self.txn(txn).access().0,
            page,
            "{txn:?} granted another page"
        );
        if ra {
            self.pcl().ra[node.index()].grant_authorization(page);
        }
        let copy = if with_page {
            PageCopy::Shipped
        } else {
            PageCopy::Stored
        };
        self.deliver_grant(now, txn, seqno, Grantor::Gla(gla), copy);
    }

    /// Wakes the waiters a release at `at` granted. A waiter on its own
    /// node resumes after a lock-operation CPU slice there, a remote
    /// one gets the grant message, and a pending write still waits for
    /// its revocation acknowledgements.
    pub(crate) fn wake(
        &mut self,
        now: SimTime,
        at: Grantor,
        granted: impl IntoIterator<Item = TxnId>,
    ) {
        for txn in granted {
            let Grantor::Gla(gla) = at else {
                self.resume_granted(now, txn); // the GLT
                continue;
            };
            let p = self.pcl();
            if let Some(pw) = p.pending_writes.get_mut(&txn) {
                pw.granted = true;
                if pw.acks_left == 0 {
                    self.finish_pending_write(now, txn);
                }
            } else if let Some(ctx) = p.queued.remove(&txn) {
                self.gla_grant(now, gla, txn, ctx);
            }
        }
    }

    /// Schedules the grant-processing CPU slice of `txn` on its node,
    /// unless it aborted meanwhile.
    fn resume_granted(&mut self, now: SimTime, txn: TxnId) {
        if let Some(node) = self.txns.get(&txn).map(|t| t.node) {
            let job = self.lock_job(1, Some(txn), Cont::GrantExec(txn));
            self.dispatch(now, node, job);
        }
    }

    /// Grants a request that waited at `gla`: a requester on that node
    /// resumes there, a remote one gets the grant message.
    fn gla_grant(&mut self, now: SimTime, gla: NodeId, txn: TxnId, ctx: ReqCtx) {
        if ctx.from == gla {
            self.resume_granted(now, txn);
        } else {
            self.send_grant(now, gla, txn, ctx);
        }
    }

    /// A pending write has its lock and all revocation acks: grant it.
    fn finish_pending_write(&mut self, now: SimTime, writer: TxnId) {
        if let Some(pw) = self.pcl().pending_writes.remove(&writer) {
            self.gla_grant(now, pw.gla, writer, pw.ctx);
        }
    }

    /// Sends a lock grant from `gla` back to the remote requester,
    /// piggybacking the current page version when the requester's copy
    /// is stale and this node still buffers it (NOFORCE), and a read
    /// authorization for reads under the read optimization.
    fn send_grant(&mut self, now: SimTime, gla: NodeId, txn: TxnId, ctx: ReqCtx) {
        let seqno = self.pcl().gla[gla.index()].seqno(ctx.page);
        let requester_stale = ctx.cached.is_none_or(|c| c < seqno);
        let with_page = self.is_noforce()
            && requester_stale
            && self.nodes[gla.index()].buffer.has_valid(ctx.page, seqno);
        let ra = self.cfg.pcl_read_optimization && ctx.mode == LockMode::Read;
        if ra {
            self.pcl().gla[gla.index()].grant_ra(ctx.page, ctx.from);
        }
        if with_page {
            self.counters.page_transfers += 1;
            self.emit(
                now,
                TraceEventKind::PageTransfer,
                gla,
                Some(txn),
                Some(ctx.page),
                u64::from(ctx.from.raw()),
            );
        }
        self.send_msg(
            now,
            Msg {
                from: gla,
                to: ctx.from,
                body: MsgBody::LockGrant {
                    txn,
                    page: ctx.page,
                    seqno,
                    with_page,
                    ra,
                },
            },
            None,
            None,
        );
    }

    // ------------------------------------------------------------------
    // Read-authorization revocation
    // ------------------------------------------------------------------

    /// `node` receives the revocation of its read authorization on
    /// `page` from `gla`: it acknowledges at once, or when its last
    /// local reader of the page releases.
    pub(crate) fn revoke_ra(
        &mut self,
        now: SimTime,
        node: NodeId,
        gla: NodeId,
        page: PageId,
        writer: TxnId,
    ) {
        let p = self.pcl();
        match p.ra[node.index()].revoke(page) {
            RevokeAction::AckNow => self.send_revoke_ack(now, node, gla, page, writer),
            RevokeAction::Deferred => {
                p.pending_acks[node.index()].insert(page, (gla, writer));
            }
        }
    }

    fn send_revoke_ack(
        &mut self,
        now: SimTime,
        node: NodeId,
        gla: NodeId,
        page: PageId,
        writer: TxnId,
    ) {
        let body = MsgBody::RevokeAck { page, writer };
        self.send_msg(
            now,
            Msg {
                from: node,
                to: gla,
                body,
            },
            None,
            None,
        );
    }

    /// A revocation acknowledgement for `writer`'s pending write.
    pub(crate) fn revoke_acked(&mut self, now: SimTime, writer: TxnId, page: PageId) {
        let ready = match self.pcl().pending_writes.get_mut(&writer) {
            Some(pw) => {
                debug_assert_eq!(pw.ctx.page, page, "ack for the wrong page");
                pw.acks_left = pw.acks_left.saturating_sub(1);
                pw.acks_left == 0 && pw.granted
            }
            None => false, // writer aborted meanwhile
        };
        if ready {
            self.finish_pending_write(now, writer);
        }
    }

    /// Releases `txn`'s read lock on `page`, granted under `node`'s read
    /// authorization, and sends the revocation acknowledgement that
    /// waited for it, if any.
    fn release_ra(&mut self, now: SimTime, node: NodeId, txn: TxnId, page: PageId) {
        let p = self.pcl();
        if !p.ra[node.index()].release(txn, page) {
            return;
        }
        if let Some((gla, writer)) = p.pending_acks[node.index()].remove(&page) {
            self.send_revoke_ack(now, node, gla, page, writer);
        }
    }

    // ------------------------------------------------------------------
    // Release
    // ------------------------------------------------------------------

    /// Commit phase 2 after its CPU slice. Publishes the new page
    /// versions: in the GLT entries (with this node as owner under
    /// NOFORCE), at this node's GLA, or, for a remote GLA, as the
    /// version it will record when the release message arrives (the
    /// copy here stays clean; ownership moves to the GLA node). Then
    /// releases the locks held on this node and sends one release
    /// message per remote GLA in node order, its pages in held-list
    /// order; the last send ends the transaction.
    pub(crate) fn release_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let noforce = self.is_noforce();
        // Indexed loops: the transaction's lists stay put while
        // `&mut self` methods run.
        for i in 0..self.txn(id).modified.len() {
            let p = self.txn(id).modified[i];
            let (new_seq, keep_dirty) = if !self.locked_partition(p) {
                (0, noforce) // latched partitions are node-local
            } else {
                match &mut self.locking {
                    Locking::Glt(glt) => (glt.record_modification(p, node, !noforce), noforce),
                    Locking::Pcl(pcl) => {
                        let held = self.txns.get(&id).and_then(|t| t.locks.get(&p).copied());
                        let held = held.expect("a modified page is write-locked");
                        if held.at() == Grantor::Gla(node) {
                            (pcl.gla[node.index()].record_modification(p), noforce)
                        } else {
                            (held.seqno() + 1, false)
                        }
                    }
                }
            };
            self.put_copy(now, node, p, new_seq, keep_dirty);
        }
        let released = self.txn(id).held.len() as u64;
        let here = match self.locking {
            Locking::Glt(_) => Grantor::Glt,
            Locking::Pcl(_) => Grantor::Gla(node),
        };
        self.release_all_at(now, here, id);
        for i in 0..self.txn(id).held.len() {
            if let (p, Grantor::Ra) = self.txn(id).held[i] {
                self.release_ra(now, node, id, p);
            }
        }
        self.emit(
            now,
            TraceEventKind::LockRelease,
            node,
            Some(id),
            None,
            released,
        );

        // The distinct-authority scratch is engine-owned and the page
        // lists are pooled, so the steady state does not allocate.
        let mut authorities = std::mem::take(&mut self.scratch_nodes);
        authorities.clear();
        for &(_, at) in self.txn(id).held.iter() {
            match at {
                Grantor::Gla(g) if g != node && !authorities.contains(&g) => authorities.push(g),
                _ => {}
            }
        }
        authorities.sort_unstable();
        for (i, &g) in authorities.iter().enumerate() {
            let mut pages: ReleasePages = self.release_pool.pop().unwrap_or_default();
            debug_assert!(pages.is_empty(), "pooled release buffer not cleared");
            let t = self.txn(id);
            for &(p, at) in t.held.iter() {
                if at == Grantor::Gla(g) {
                    pages.push((p, t.modified.contains(&p)));
                }
            }
            let last_of = (i + 1 == authorities.len()).then_some(id);
            self.send_msg(
                now,
                Msg {
                    from: node,
                    to: g,
                    body: MsgBody::Release { txn: id, pages },
                },
                Some(id),
                last_of,
            );
        }
        // The release messages now carry every remote page; the held
        // list is done (a crash abort in the final-send window must not
        // release these locks a second time).
        self.txn_mut(id).held.clear();
        let none_remote = authorities.is_empty();
        self.scratch_nodes = authorities;
        if none_remote {
            self.txn_complete(now, id);
        }
    }

    /// A GLA processes a commit-time release message: records the
    /// modifications (receiving the new versions under NOFORCE),
    /// releases the locks, and wakes waiters.
    pub(crate) fn gla_release(
        &mut self,
        now: SimTime,
        gla: NodeId,
        txn: TxnId,
        mut pages: ReleasePages,
    ) {
        let noforce = self.is_noforce();
        for &(page, modified) in &pages {
            if modified {
                let new_seq = self.pcl().gla[gla.index()].record_modification(page);
                if noforce {
                    // The GLA node owns its partition's pages: the new
                    // version now lives (dirty) in its buffer.
                    self.put_copy(now, gla, page, new_seq, true);
                }
            }
        }
        // The emptied buffer goes back to the pool for the next commit.
        pages.clear();
        self.release_pool.push(pages);
        self.release_all_at(now, Grantor::Gla(gla), txn);
    }

    /// Releases every lock `txn` holds or waits for at `at` and wakes
    /// the waiters that were granted.
    fn release_all_at(&mut self, now: SimTime, at: Grantor, txn: TxnId) {
        let granted = match (&mut self.locking, at) {
            (Locking::Glt(glt), _) => glt.release_all(txn),
            (Locking::Pcl(p), Grantor::Gla(g)) => p.gla[g.index()].release_all(txn),
            (Locking::Pcl(_), _) => unreachable!("PCL locks are held at a GLA"),
        };
        self.wake(now, at, granted.into_iter().map(|(_, t, _)| t));
    }

    /// Releases everything the aborted transaction `t` held or waited
    /// for and wakes the waiters it blocked: its waiting page's lock
    /// first, then each table it holds locks at in grantor order, then
    /// its read-authorization locks. Remote tables are cleaned up at
    /// once (the message costs of the rare abort paths are not
    /// modelled).
    pub(crate) fn release_aborted(&mut self, now: SimTime, t: &Txn) {
        let victim = t.id;
        if let Locking::Pcl(p) = &mut self.locking {
            p.queued.remove(&victim);
            p.pending_writes.remove(&victim);
        }
        if let Some(page) = t.waiting_page {
            let (at, granted) = match &mut self.locking {
                Locking::Glt(glt) => (Grantor::Glt, glt.release(victim, page)),
                Locking::Pcl(p) => {
                    let g = p.gla_map.gla_of(page);
                    (Grantor::Gla(g), p.gla[g.index()].release(victim, page))
                }
            };
            self.wake(now, at, granted.into_iter().map(|(t, _)| t));
        }
        let mut tables: Vec<Grantor> = t
            .held
            .iter()
            .map(|&(_, at)| at)
            .filter(|&at| at != Grantor::Ra)
            .collect();
        tables.sort_unstable();
        tables.dedup();
        for at in tables {
            self.release_all_at(now, at, victim);
        }
        for &(p, at) in t.held.iter() {
            if at == Grantor::Ra {
                self.release_ra(now, t.node, victim, p);
            }
        }
    }

    /// The lock side of `node`'s crash. GEM is non-volatile: the GLT
    /// survives, and pages owned by the dead buffer are recovered from
    /// the log to the permanent database (modelled as instantaneous
    /// within the recovery window), so their ownership reverts to
    /// storage. A PCL node's lock authority is volatile: every
    /// transaction holding or waiting for a lock there aborts.
    pub(crate) fn crash_locks(&mut self, now: SimTime, node: NodeId) {
        let victims = match &mut self.locking {
            Locking::Glt(glt) => return glt.clear_node_ownership(node),
            Locking::Pcl(p) => p.gla[node.index()].table().all_txns(),
        };
        for v in victims {
            self.abort(now, v, AbortReason::Crash);
        }
    }

    // ------------------------------------------------------------------
    // Buffered copies
    // ------------------------------------------------------------------

    /// Passes a copy of `page` entering (`entered`) or leaving a node
    /// buffer to the lock state that counts the page's copies: the GLT,
    /// or the page's GLA unless it runs the read optimization. Pages of
    /// latched partitions have no lock state.
    fn count_copy(&mut self, page: PageId, entered: bool) {
        if !self.locked_partition(page) {
            return;
        }
        match &mut self.locking {
            Locking::Glt(glt) if entered => glt.copy_added(page),
            Locking::Glt(glt) => glt.copy_dropped(page),
            // Such a GLA ignores copies: skip finding it.
            Locking::Pcl(_) if self.cfg.pcl_read_optimization => {}
            Locking::Pcl(p) => {
                let gla = &mut p.gla[p.gla_map.gla_of(page).index()];
                if entered {
                    gla.copy_added(page);
                } else {
                    gla.copy_dropped(page);
                }
            }
        }
    }

    /// A copy of `page` entered a node's buffer.
    pub(crate) fn copy_entered(&mut self, page: PageId) {
        self.count_copy(page, true);
    }

    /// A copy of `page` left a node's buffer: evicted, invalidated, or
    /// lost in a crash.
    pub(crate) fn copy_left(&mut self, page: PageId) {
        self.count_copy(page, false);
    }

    /// Checks the copy counts of the GLT or of each counting GLA against
    /// a recount of the node buffers (see [`GemLockTable::check_copies`]
    /// and [`GlaState::check_copies`]), returning the number of buffered
    /// copies checked; 0 under the read optimization.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn check_copy_counts(&self) -> usize {
        let buffered = || {
            self.nodes.iter().flat_map(|ctx| {
                ctx.buffer
                    .pages()
                    .filter(|&page| self.locked_partition(page))
            })
        };
        let recount = |page| {
            let holders = self
                .nodes
                .iter()
                .filter(|ctx| ctx.buffer.cached_seqno(page).is_some());
            holders.count() as u32
        };
        match &self.locking {
            Locking::Glt(glt) => glt.check_copies(buffered(), recount),
            Locking::Pcl(p) => (p.gla.iter().enumerate())
                .filter(|(_, gla)| gla.counts_copies())
                .map(|(i, gla)| {
                    let own = buffered().filter(|&page| p.gla_map.gla_of(page).index() == i);
                    gla.check_copies(own, recount)
                })
                .sum(),
        }
    }

    /// A dirty page's write-back on `node` completed. Under GEM
    /// locking/NOFORCE the node clears its ownership in the GLT (an
    /// entry update), unless its buffer meanwhile holds a newer dirty
    /// version of the page.
    pub(crate) fn evict_write_done(&mut self, now: SimTime, node: NodeId, page: PageId) {
        if matches!(self.locking, Locking::Glt(_))
            && self.is_noforce()
            && self.locked_partition(page)
            && !self.nodes[node.index()].buffer.is_dirty(page)
        {
            let job = self.lock_job(1, None, Cont::GemOwnerClear { node, page });
            self.dispatch(now, node, job);
        }
    }

    /// The GLT entry update after a write-back executed.
    pub(crate) fn gem_owner_clear(&mut self, node: NodeId, page: PageId) {
        if let Locking::Glt(glt) = &mut self.locking {
            glt.record_writeback(page, node);
        }
    }

    // ------------------------------------------------------------------
    // Deadlock detection, diagnostics and statistics
    // ------------------------------------------------------------------

    /// Appends the waits-for edges of every lock table — the reduced
    /// graph (stage 1 of the deadlock scan) or the full one (stage 2) —
    /// plus the pending-writer edges of the read optimization: a
    /// pending writer waits for the locally authorized readers at other
    /// nodes.
    pub(crate) fn collect_waits_for(&self, reduced: bool, out: &mut Vec<(TxnId, TxnId)>) {
        let edges = |table: &LockTable, out: &mut Vec<(TxnId, TxnId)>| {
            if reduced {
                table.reduced_waits_for_edges(out);
            } else {
                out.extend(table.waits_for_edges());
            }
        };
        match &self.locking {
            Locking::Glt(glt) => edges(glt.table(), out),
            Locking::Pcl(p) => {
                for g in &p.gla {
                    edges(g.table(), out);
                }
                for (&writer, pw) in &p.pending_writes {
                    for ra in &p.ra {
                        for reader in ra.readers(pw.ctx.page) {
                            if reader != writer {
                                out.push((writer, reader));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The holders of `page`'s lock and the length of its wait queue.
    pub(crate) fn lock_holders(&self, page: PageId) -> (Vec<(TxnId, LockMode)>, usize) {
        let table = match &self.locking {
            Locking::Glt(glt) => glt.table(),
            Locking::Pcl(p) => p.gla[p.gla_map.gla_of(page).index()].table(),
        };
        (table.holders(page), table.queue_len(page))
    }

    /// PCL's share of lock requests processed without a message (at the
    /// requester's own GLA or under a read authorization) over the
    /// measurement window `c`; `None` under GEM locking.
    pub(crate) fn local_lock_fraction(&self, c: &Counters) -> Option<f64> {
        let Locking::Pcl(_) = self.locking else {
            return None;
        };
        let local = c.ra_local_grants + c.gla_local_requests;
        let total = local + c.gla_remote_requests;
        Some(if total == 0 {
            1.0
        } else {
            local as f64 / total as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DebitCreditRun, RunLength, RunSpec};
    use dbshare_model::{
        CrashConfig, PageTransferMode, PartitionId, RoutingStrategy, UpdateStrategy,
    };
    use dbshare_node::BufferManager;
    use dbshare_workload::{DebitCredit, DebitCreditWorkload};

    /// A short debit-credit run of 4 nodes at 100 TPS each.
    fn dc(coupling: CouplingMode, update: UpdateStrategy) -> DebitCreditRun {
        let run = RunLength {
            warmup: 400,
            measured: 3_000,
        };
        DebitCreditRun {
            coupling,
            update,
            ..DebitCreditRun::baseline(4, run)
        }
    }

    /// `tests/failure_injection.rs`'s crash run: 4 nodes under random
    /// routing, node 1 down from 3 s to 5 s.
    fn crash_engine(coupling: CouplingMode) -> Engine {
        let mut cfg = SystemConfig::debit_credit(4);
        cfg.coupling = coupling;
        cfg.routing = RoutingStrategy::Random;
        cfg.crash = Some(CrashConfig {
            node: 1,
            at_secs: 3.0,
            recovery_secs: 2.0,
        });
        cfg.run.warmup_txns = 400;
        cfg.run.measured_txns = 4_000;
        let wl =
            DebitCreditWorkload::new(DebitCredit::new(4, 100.0), 100.0, RoutingStrategy::Random);
        cfg.partitions = Workload::partitions(&wl).to_vec();
        Engine::new(cfg, Box::new(wl)).expect("valid")
    }

    /// Small buffers under random routing: invalidations, page
    /// transfers, and dirty write-backs.
    fn churn(coupling: CouplingMode) -> DebitCreditRun {
        DebitCreditRun {
            routing: RoutingStrategy::Random,
            buffer: 50,
            ..dc(coupling, UpdateStrategy::NoForce)
        }
    }

    /// Runs `engine` and checks the lock state's copy counts against its
    /// buffers; returns the engine for further checks.
    fn checked(mut engine: Engine) -> Engine {
        engine.run_loop();
        assert!(engine.check_copy_counts() > 0, "nothing buffered to check");
        engine
    }

    #[test]
    fn glt_copy_counts_match_the_buffers() {
        let force = dc(CouplingMode::GemLocking, UpdateStrategy::Force);
        checked(RunSpec::DebitCredit(force).engine());

        let e = checked(RunSpec::DebitCredit(churn(CouplingMode::GemLocking)).engine());
        let c = &e.counters;
        assert!(c.buffer_total().invalidations > 0, "no invalidation");
        assert!(c.page_requests > 0, "no page request");
        assert!(c.evict_writes > 0, "no write-back");

        let via_gem = DebitCreditRun {
            transfer: PageTransferMode::Gem,
            ..churn(CouplingMode::GemLocking)
        };
        let e = checked(RunSpec::DebitCredit(via_gem).engine());
        assert!(e.counters.page_transfers > 0, "no page through GEM");

        let engine = RunSpec::LockEngine {
            params: dc(CouplingMode::LockEngine, UpdateStrategy::NoForce),
            op_service_us: 20.0,
        };
        checked(engine.engine());

        let e = checked(crash_engine(CouplingMode::GemLocking));
        assert!(e.counters.crash_aborts > 0, "the crash must bite");

        // The GLAs without the read optimization count the same way.
        let e = checked(RunSpec::DebitCredit(churn(CouplingMode::Pcl)).engine());
        let c = &e.counters;
        assert!(c.buffer_total().invalidations > 0, "no invalidation");
        assert!(c.page_transfers > 0, "no page shipped with a grant");
        assert!(c.evict_writes > 0, "no write-back");

        checked(RunSpec::DebitCredit(dc(CouplingMode::Pcl, UpdateStrategy::Force)).engine());

        let e = checked(crash_engine(CouplingMode::Pcl));
        assert!(e.counters.crash_aborts > 0, "the crash must bite");
    }

    #[test]
    #[should_panic(expected = "copy count")]
    fn copy_count_check_catches_a_lost_copy() {
        // Empty one buffer behind the lock state's back.
        let lose_a_buffer = |run: DebitCreditRun| {
            let mut e = RunSpec::DebitCredit(run).engine();
            e.run_loop();
            e.nodes[0].buffer = BufferManager::new(e.cfg.buffer_pages_per_node, e.part_names.len());
            e.check_copy_counts();
        };
        let pcl = churn(CouplingMode::Pcl);
        let caught = std::panic::catch_unwind(|| lose_a_buffer(pcl));
        assert!(caught.is_err(), "a GLA missed the lost copies");
        lose_a_buffer(dc(CouplingMode::GemLocking, UpdateStrategy::Force));
    }

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
        // The ack handler's exact arithmetic (`revoke_acked`).
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
