//! Record-access processing: lock acquisition (GEM locking or PCL),
//! buffer-invalidation detection, and page acquisition (buffer hit,
//! page request to the owner, or storage read).

use super::{Cont, Engine, Job, Msg, MsgBody, PendingWrite, Phase, ReqCtx};
use dbshare_lockmgr::{LockMode, LockReply};
use dbshare_model::{AccessMode, CouplingMode, NodeId, PageId, TxnId};
use desim::trace::TraceEventKind;
use desim::SimTime;

impl Engine {
    /// Starts the next record access, or commit when the program is done.
    pub(crate) fn begin_access(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        if t.step >= t.spec.refs().len() {
            self.commit_begin(now, id);
            return;
        }
        let node = t.node;
        let records = t.spec.refs()[t.step].records;
        // One exponentially distributed CPU service per *record* access
        // (§3.2); clustered pages carry several records.
        let svc = (0..records)
            .map(|_| self.sample(node, |c, r| c.access(r)))
            .sum();
        self.dispatch(
            now,
            node,
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: Some(id),
                cont: Cont::AccessCpuDone(id),
            },
        );
    }

    /// The access CPU slice is done: acquire the lock (protocol-specific)
    /// or go straight to the page phase for unlocked partitions.
    pub(crate) fn after_access_cpu(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let r = t.spec.refs()[t.step];
        let page = r.page;
        let mode = match r.mode {
            AccessMode::Read => LockMode::Read,
            AccessMode::Write => LockMode::Write,
        };
        if !self.locked_partition(page) {
            self.acquire_page(now, id, 0, None, false);
            return;
        }
        // Covering lock already held (trace transactions may touch a
        // page repeatedly): no new request.
        if let Some(held) = t.locks.get(&page).filter(|l| l.mode().covers(mode)) {
            let seqno = held.seqno();
            self.acquire_page(now, id, seqno, None, true);
            return;
        }
        self.counters.lock_requests += 1;
        let node = self.txn(id).node;
        self.emit(
            now,
            TraceEventKind::LockRequest,
            node,
            Some(id),
            Some(page),
            0,
        );
        match self.cfg.coupling {
            CouplingMode::GemLocking | CouplingMode::LockEngine => {
                let svc = self.fixed(self.cfg.gem.lock_op_instr);
                self.dispatch(
                    now,
                    self.txn(id).node,
                    Job {
                        service: svc,
                        gem_entries: dbshare_lockmgr::GemLockTable::ENTRY_OPS,
                        gem_pages: 0,
                        txn: Some(id),
                        cont: Cont::GemLockExec(id),
                    },
                );
            }
            CouplingMode::Pcl => self.pcl_request(now, id, page, mode),
        }
    }

    // ------------------------------------------------------------------
    // GEM locking
    // ------------------------------------------------------------------

    /// Executes the lock request against the global lock table (the
    /// synchronous entry accesses already elapsed inside the CPU job).
    pub(crate) fn gem_lock_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let r = t.spec.refs()[t.step];
        let page = r.page;
        let mode = if r.mode.is_write() {
            LockMode::Write
        } else {
            LockMode::Read
        };
        let rep = self.glt.request(id, page, mode);
        match rep.reply {
            LockReply::Granted | LockReply::AlreadyHeld => {
                let t = self.txn_mut(id);
                if t.note_grant(page, mode, rep.info.seqno, false) {
                    t.held_gem.push(page);
                }
                self.acquire_page(now, id, rep.info.seqno, rep.info.owner, true);
            }
            LockReply::Queued => {
                self.counters.lock_waits += 1;
                self.txn_mut(id)
                    .begin_wait(now, Phase::LockWait, Some(page));
                self.emit(now, TraceEventKind::LockWait, node, Some(id), Some(page), 0);
            }
        }
    }

    /// A queued GEM lock was granted and the waiter's grant-processing
    /// CPU slice (entry re-read) finished: resume the access.
    pub(crate) fn gem_grant_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let Some(page) = t.waiting_page else { return };
        let node = t.node;
        let waited = if t.phase == Phase::LockWait {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        t.end_lock_wait(now);
        let mode = if t.spec.refs()[t.step].mode.is_write() {
            LockMode::Write
        } else {
            LockMode::Read
        };
        let info = self.glt.info(page);
        if t.note_grant(page, mode, info.seqno, false) {
            t.held_gem.push(page);
        }
        self.emit(
            now,
            TraceEventKind::LockGrant,
            node,
            Some(id),
            Some(page),
            waited,
        );
        self.acquire_page(now, id, info.seqno, info.owner, true);
    }

    /// Schedules grant processing at each newly granted waiter's node.
    pub(crate) fn process_gem_grants(
        &mut self,
        now: SimTime,
        grants: Vec<(PageId, TxnId, LockMode)>,
    ) {
        for (_page, t2, _mode) in grants {
            let Some(t) = self.txns.get(&t2) else {
                continue;
            };
            let node = t.node;
            let svc = self.fixed(self.cfg.gem.lock_op_instr);
            self.dispatch(
                now,
                node,
                Job {
                    service: svc,
                    gem_entries: dbshare_lockmgr::GemLockTable::ENTRY_OPS,
                    gem_pages: 0,
                    txn: Some(t2),
                    cont: Cont::GemGrantExec(t2),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // PCL
    // ------------------------------------------------------------------

    fn pcl_request(&mut self, now: SimTime, id: TxnId, page: PageId, mode: LockMode) {
        let node = self.txn(id).node;
        let gla = self.gla_map.gla_of(page);
        if gla == node {
            let svc = self.fixed(self.cfg.pcl_local_lock_instr);
            self.dispatch(
                now,
                node,
                Job {
                    service: svc,
                    gem_entries: 0,
                    gem_pages: 0,
                    txn: Some(id),
                    cont: Cont::PclLocalLockExec(id),
                },
            );
            return;
        }
        // Read optimization: grant locally under a valid authorization,
        // provided a cached copy exists (the RA guarantees its currency).
        if self.cfg.pcl_read_optimization
            && mode == LockMode::Read
            && self.nodes[node.index()].ra.is_authorized(page)
            && self.nodes[node.index()].buffer.cached_seqno(page).is_some()
        {
            let svc = self.fixed(self.cfg.pcl_local_lock_instr);
            self.dispatch(
                now,
                node,
                Job {
                    service: svc,
                    gem_entries: 0,
                    gem_pages: 0,
                    txn: Some(id),
                    cont: Cont::PclRaLocalExec(id),
                },
            );
            return;
        }
        // Upgrading a locally granted read lock: give the RA lock back
        // first, otherwise the write's revocation would wait on
        // ourselves. The page stays in `held_ra`; dropping its index
        // entry marks it given back.
        if self.txn(id).holds_ra(page) {
            self.txn_mut(id).locks.remove(&page);
            if self.nodes[node.index()].ra.release(id, page) {
                self.send_deferred_ack(now, node, page);
            }
        }
        self.counters.remote_lock_requests += 1;
        let cached = self.nodes[node.index()].buffer.cached_seqno(page);
        self.txn_mut(id)
            .begin_wait(now, Phase::LockWait, Some(page));
        self.emit(now, TraceEventKind::LockWait, node, Some(id), Some(page), 0);
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

    /// Executes a lock request at the local GLA.
    pub(crate) fn pcl_local_lock_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let r = t.spec.refs()[t.step];
        let page = r.page;
        let mode = if r.mode.is_write() {
            LockMode::Write
        } else {
            LockMode::Read
        };
        let ro = self.cfg.pcl_read_optimization;
        let out = self.gla[node.index()].request(id, node, page, mode, true, ro);
        if !out.revoke.is_empty() {
            self.counters.revokes_sent += out.revoke.len() as u64;
            self.pending_writes.insert(
                id,
                PendingWrite {
                    gla: node,
                    acks_left: out.revoke.len() as u64,
                    granted: out.reply != LockReply::Queued,
                    ctx: ReqCtx {
                        from: node,
                        page,
                        mode,
                        cached: None,
                    },
                },
            );
            self.counters.lock_waits += 1;
            self.txn_mut(id)
                .begin_wait(now, Phase::LockWait, Some(page));
            self.emit(now, TraceEventKind::LockWait, node, Some(id), Some(page), 0);
            for target in out.revoke {
                self.send_msg(
                    now,
                    Msg {
                        from: node,
                        to: target,
                        body: MsgBody::Revoke { page, writer: id },
                    },
                    None,
                    None,
                );
            }
            return;
        }
        match out.reply {
            LockReply::Granted | LockReply::AlreadyHeld => {
                let t = self.txn_mut(id);
                if t.note_grant(page, mode, out.seqno, false) {
                    t.held_gla.push((node, page));
                }
                self.acquire_page(now, id, out.seqno, None, true);
            }
            LockReply::Queued => {
                self.counters.lock_waits += 1;
                self.txn_mut(id)
                    .begin_wait(now, Phase::LockWait, Some(page));
                self.emit(now, TraceEventKind::LockWait, node, Some(id), Some(page), 0);
            }
        }
    }

    /// A queued local-GLA lock was granted; the waiter resumes.
    pub(crate) fn pcl_local_grant_exec(&mut self, now: SimTime, id: TxnId, page: PageId) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let waited = if t.phase == Phase::LockWait {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        t.end_lock_wait(now);
        let node = t.node;
        let r = t.spec.refs()[t.step];
        let mode = if r.mode.is_write() {
            LockMode::Write
        } else {
            LockMode::Read
        };
        let seqno = self.gla[node.index()].seqno(page);
        if t.note_grant(page, mode, seqno, false) {
            t.held_gla.push((node, page));
        }
        self.emit(
            now,
            TraceEventKind::LockGrant,
            node,
            Some(id),
            Some(page),
            waited,
        );
        self.acquire_page(now, id, seqno, None, true);
    }

    /// Executes a locally authorized read grant (read optimization).
    pub(crate) fn pcl_ra_local_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let page = t.spec.refs()[t.step].page;
        // The authorization may have been revoked or the copy evicted
        // while this slice waited for the CPU: fall back to the remote
        // path in that case.
        let have_copy = self.nodes[node.index()].buffer.cached_seqno(page).is_some();
        if have_copy && self.nodes[node.index()].ra.try_local_read(id, page) {
            self.counters.ra_local_grants += 1;
            let seqno = self.nodes[node.index()]
                .buffer
                .cached_seqno(page)
                .expect("checked above");
            let t = self.txn_mut(id);
            if t.note_grant(page, LockMode::Read, seqno, true) {
                t.held_ra.push(page);
            }
            self.acquire_page(now, id, seqno, None, true);
        } else {
            self.pcl_request(now, id, page, LockMode::Read);
        }
    }

    // ------------------------------------------------------------------
    // Page acquisition (common)
    // ------------------------------------------------------------------

    /// With the lock held and the current version known, obtain the
    /// page: buffer hit, page request to the owner (GEM locking,
    /// NOFORCE), or storage read.
    pub(crate) fn acquire_page(
        &mut self,
        now: SimTime,
        id: TxnId,
        seqno: u64,
        owner: Option<NodeId>,
        versioned: bool,
    ) {
        use dbshare_node::Lookup;
        let t = self.txn(id);
        let node = t.node;
        let r = t.spec.refs()[t.step];
        let page = r.page;
        let lookup = if versioned {
            self.nodes[node.index()].buffer.lookup(page, seqno)
        } else {
            self.nodes[node.index()].buffer.lookup_unversioned(page)
        };
        match lookup {
            Lookup::Hit => self.finish_access(now, id),
            miss => {
                if miss == Lookup::Invalidated {
                    self.counters.invalidations += 1;
                }
                if r.append {
                    // Sequential insert: the page is created in the
                    // buffer; no read I/O is ever needed.
                    let evicted = self.nodes[node.index()].buffer.insert(page, seqno, false);
                    if let Some((p, _)) = evicted {
                        self.start_evict_write(now, node, p);
                    }
                    self.finish_access(now, id);
                } else if self.is_gem_coupling()
                    && self.is_noforce()
                    && owner.is_some()
                    && owner != Some(node)
                {
                    // Request the current version from its owner.
                    self.counters.page_requests += 1;
                    self.txn_mut(id)
                        .begin_wait(now, Phase::PageWait, Some(page));
                    self.send_msg(
                        now,
                        Msg {
                            from: node,
                            to: owner.expect("checked above"),
                            body: MsgBody::PageReq { txn: id, page },
                        },
                        Some(id),
                        None,
                    );
                } else {
                    self.start_storage_read(now, id, page);
                }
            }
        }
    }

    /// Starts a storage read for the current access: I/O-initiation CPU,
    /// then the device access (synchronously for GEM-resident pages).
    fn start_storage_read(&mut self, now: SimTime, id: TxnId, page: PageId) {
        let node = self.txn(id).node;
        if self.storage.is_gem_resident(page) {
            let svc = self.fixed(self.cfg.gem.io_init_instr);
            self.dispatch(
                now,
                node,
                Job {
                    service: svc,
                    gem_entries: 0,
                    gem_pages: 1,
                    txn: Some(id),
                    cont: Cont::GemPageAccessDone(id),
                },
            );
        } else {
            let svc = self.fixed(self.cfg.disk.io_instr_per_page);
            let now_ = now;
            self.txn_mut(id).begin_wait(now_, Phase::PageWait, None);
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

    /// The I/O-initiation CPU finished: issue the device read.
    pub(crate) fn storage_read_issue(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let page = t.spec.refs()[t.step].page;
        self.counters.storage_reads += 1;
        self.emit(now, TraceEventKind::PageRead, node, Some(id), Some(page), 0);
        let served = self.storage.read_page(now, page);
        self.cal.schedule(
            served.done,
            super::Event::IoDone {
                cont: Cont::StorageReadDone(id),
            },
        );
    }

    /// A page read completed (disk or synchronous GEM): install the
    /// copy and finish the access.
    pub(crate) fn storage_read_done(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let page = t.spec.refs()[t.step].page;
        let seqno = t.seqno(page);
        let waited = if matches!(t.phase, Phase::PageWait | Phase::CommitIo) && now >= t.wait_since
        {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        if self.storage.is_gem_resident(page) {
            // accounted as a storage read for statistics parity
            self.counters.storage_reads += 1;
            self.emit(now, TraceEventKind::PageRead, node, Some(id), Some(page), 0);
        }
        let evicted = self.nodes[node.index()].buffer.insert(page, seqno, false);
        if let Some((p, _)) = evicted {
            self.start_evict_write(now, node, p);
        }
        self.txn_mut(id).end_io_wait(now);
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

    /// Access complete: note modifications, advance to the next
    /// reference.
    pub(crate) fn finish_access(&mut self, now: SimTime, id: TxnId) {
        let t = self.txn_mut(id);
        let r = t.spec.refs()[t.step];
        if r.mode.is_write() {
            t.note_modified(r.page);
        }
        t.step += 1;
        t.phase = Phase::Running;
        self.begin_access(now, id);
    }
}
