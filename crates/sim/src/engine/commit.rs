//! Commit processing (§3.2): phase 1 writes log data (and, under
//! FORCE, all modified pages) to non-volatile storage; phase 2 releases
//! the transaction's locks and publishes its modifications.

use super::events::ReleasePages;
use super::txn::CommitWrite;
use super::{Cont, Engine, Job, Msg, MsgBody, Phase};
use dbshare_lockmgr::LockMode;
use dbshare_model::{NodeId, PageId, TxnId, UpdateStrategy};
use desim::trace::TraceEventKind;
use desim::SimTime;

impl Engine {
    /// Last access done: run the end-of-transaction CPU slice.
    pub(crate) fn commit_begin(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let svc = self.sample(node, |c, r| c.eot(r));
        self.dispatch(
            now,
            node,
            Job {
                service: svc,
                gem_entries: 0,
                gem_pages: 0,
                txn: Some(id),
                cont: Cont::CommitInit(id),
            },
        );
    }

    /// Builds the commit-write list (phase 1) and starts the write
    /// chain. Force-writes and the log write are performed one after
    /// another (sequential device operations, as in the paper's FORCE
    /// model — this is what makes the force-write latency of each
    /// individual file visible, §4.4).
    pub(crate) fn commit_init(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let force = self.cfg.update == UpdateStrategy::Force;
        t.commit_writes.clear();
        if force {
            for i in 0..t.modified.len() {
                let p = t.modified[i];
                t.commit_writes.push(CommitWrite { page: Some(p) });
            }
        }
        if !t.modified.is_empty() {
            // One log page per update transaction (§3.2), written after
            // the force-writes.
            t.commit_writes.push(CommitWrite { page: None });
        }
        if t.commit_writes.is_empty() {
            self.phase2_begin(now, id);
        } else {
            self.commit_write_init(now, id, 0);
        }
    }

    /// Initiates the `idx`-th commit write: CPU for the I/O initiation,
    /// performed synchronously for GEM-resident pages.
    pub(crate) fn commit_write_init(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        if idx >= t.commit_writes.len() {
            self.phase2_begin(now, id);
            return;
        }
        let node = t.node;
        let w = t.commit_writes[idx];
        match w.page {
            Some(p) if self.storage.is_gem_resident(p) => {
                // Synchronous force-write into GEM: CPU held for the
                // 50 µs page write; nothing asynchronous to wait for.
                self.counters.commit_writes += 1;
                let svc = self.fixed(self.cfg.gem.io_init_instr);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 1,
                        txn: Some(id),
                        cont: Cont::CommitWriteInit {
                            txn: id,
                            idx: idx + 1,
                        },
                    },
                );
            }
            _ => {
                // GEM-buffered targets (write-buffered partitions, GEM
                // log) have the cheap 300-instruction initiation.
                let gem_target = match w.page {
                    Some(p) => self.storage.write_goes_to_gem(p),
                    None => self.storage.log_is_gem(),
                };
                let instr = if gem_target {
                    self.cfg.gem.io_init_instr
                } else {
                    self.cfg.disk.io_instr_per_page
                };
                let svc = self.fixed(instr);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 0,
                        txn: Some(id),
                        cont: Cont::CommitWriteIssue { txn: id, idx },
                    },
                );
            }
        }
    }

    /// Issues the `idx`-th commit write to its device; the next write
    /// is initiated when this one completes (sequential chain).
    pub(crate) fn commit_write_issue(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let node = t.node;
        let w = t.commit_writes[idx];
        let served = match w.page {
            None => {
                self.counters.log_writes += 1;
                self.storage.write_log(now, node)
            }
            Some(p) => {
                self.counters.commit_writes += 1;
                self.storage.write_page(now, p)
            }
        };
        self.txn_mut(id).begin_wait(now, Phase::CommitIo, None);
        self.emit(now, TraceEventKind::CommitIo, node, Some(id), w.page, 0);
        self.cal.schedule(
            served.done,
            super::Event::IoDone {
                cont: Cont::CommitIoChain { txn: id, idx },
            },
        );
    }

    /// A commit write finished: initiate the next one (or phase 2).
    pub(crate) fn commit_io_chain(&mut self, now: SimTime, id: TxnId, idx: usize) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        let node = t.node;
        let waited = if t.phase == Phase::CommitIo && now >= t.wait_since {
            (now - t.wait_since).as_nanos()
        } else {
            0
        };
        t.end_io_wait(now);
        self.emit(
            now,
            TraceEventKind::CommitIoDone,
            node,
            Some(id),
            None,
            waited,
        );
        self.commit_write_init(now, id, idx + 1);
    }

    /// Begins phase 2: the lock-release CPU slice.
    fn phase2_begin(&mut self, now: SimTime, id: TxnId) {
        let t = self.txn_mut(id);
        t.phase = Phase::Running;
        let node = t.node;
        match self.cfg.coupling {
            dbshare_model::CouplingMode::GemLocking | dbshare_model::CouplingMode::LockEngine => {
                let k = self.txn(id).held_gem.len().max(1) as u32;
                let svc = self.fixed(self.cfg.gem.lock_op_instr * k as f64);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: dbshare_lockmgr::GemLockTable::ENTRY_OPS * k,
                        gem_pages: 0,
                        txn: Some(id),
                        cont: Cont::GemReleaseExec(id),
                    },
                );
            }
            dbshare_model::CouplingMode::Pcl => {
                let t = self.txn(id);
                let locals =
                    t.held_gla.iter().filter(|&&(g, _)| g == node).count() + t.ra_pages().count();
                let svc = self.fixed(self.cfg.pcl_local_lock_instr * locals.max(1) as f64);
                self.dispatch(
                    now,
                    node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 0,
                        txn: Some(id),
                        cont: Cont::PclReleaseExec(id),
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2 — GEM locking
    // ------------------------------------------------------------------

    /// Publishes modifications in the GLT and releases all locks.
    pub(crate) fn gem_release_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let force = self.cfg.update == UpdateStrategy::Force;
        // Publish new versions: sequence numbers bump; the owner is this
        // node (NOFORCE) or storage (FORCE). Indexed loop: the modified
        // list stays put while `&mut self` methods run.
        for i in 0..self.txn(id).modified.len() {
            let p = self.txn(id).modified[i];
            let new_seq = if self.locked_partition(p) {
                self.glt.record_modification(p, node, force);
                self.glt.info(p).seqno
            } else {
                0
            };
            let evicted = if force {
                self.nodes[node.index()].buffer.insert(p, new_seq, false)
            } else {
                self.nodes[node.index()].buffer.mark_dirty(p, new_seq)
            };
            if let Some((victim, _)) = evicted {
                self.start_evict_write(now, node, victim);
            }
        }
        let released = self.txn(id).held_gem.len() as u64;
        let grants = self.glt.release_all(id);
        self.txn_mut(id).held_gem.clear();
        self.emit(
            now,
            TraceEventKind::LockRelease,
            node,
            Some(id),
            None,
            released,
        );
        self.process_gem_grants(now, grants);
        self.txn_complete(now, id);
    }

    // ------------------------------------------------------------------
    // Phase 2 — PCL
    // ------------------------------------------------------------------

    /// Local releases, buffer publication, and release messages to
    /// remote authorities (modified pages ride along, §3.2).
    pub(crate) fn pcl_release_exec(&mut self, now: SimTime, id: TxnId) {
        let Some(t) = self.txns.get(&id) else { return };
        let node = t.node;
        let released = (t.held_gla.len() + t.ra_pages().count()) as u64;
        let noforce = self.is_noforce();

        // Publish modifications in the local buffer. Ownership of pages
        // with a remote authority transfers to the GLA node (the copy
        // here stays clean); locally-authorized pages stay dirty here
        // under NOFORCE. Indexed loop: the modified list stays put while
        // `&mut self` methods run.
        for i in 0..self.txn(id).modified.len() {
            let p = self.txn(id).modified[i];
            let local_authority = !self.locked_partition(p) // latched partitions are node-local
                || self.gla_map.gla_of(p) == node;
            let new_seq = if !self.locked_partition(p) {
                0
            } else if local_authority {
                self.gla[node.index()].record_modification(p)
            } else {
                self.txn(id).seqno(p) + 1
            };
            let keep_dirty = noforce && local_authority;
            let evicted = if keep_dirty {
                self.nodes[node.index()].buffer.mark_dirty(p, new_seq)
            } else {
                self.nodes[node.index()].buffer.insert(p, new_seq, false)
            };
            if let Some((victim, _)) = evicted {
                self.start_evict_write(now, node, victim);
            }
        }

        // Local lock releases. (These never touch this transaction's
        // held lists: grants go to *waiters* of the released locks.)
        let grants = self.gla[node.index()].release_all(id);
        self.process_gla_grants(now, node, grants);
        for i in 0..self.txn(id).held_ra.len() {
            let p = self.txn(id).held_ra[i];
            if !self.txn(id).holds_ra(p) {
                continue; // given back for a write upgrade
            }
            if self.nodes[node.index()].ra.release(id, p) {
                self.send_deferred_ack(now, node, p);
            }
        }
        self.txn_mut(id).held_ra.clear();
        self.emit(
            now,
            TraceEventKind::LockRelease,
            node,
            Some(id),
            None,
            released,
        );

        // Release messages to remote authorities, one per authority in
        // NodeId order, pages riding along in held-lock order. The
        // distinct-authority scratch is engine-owned and the page lists
        // are inline, so the steady state does not allocate. The last
        // send closes the transaction (no replies are needed).
        let mut authorities = std::mem::take(&mut self.scratch_nodes);
        authorities.clear();
        for &(g, _) in self.txn(id).held_gla.iter() {
            if g != node && !authorities.contains(&g) {
                authorities.push(g);
            }
        }
        if authorities.is_empty() {
            self.scratch_nodes = authorities;
            self.txn_mut(id).held_gla.clear();
            self.txn_complete(now, id);
            return;
        }
        authorities.sort_unstable();
        let last = authorities.len() - 1;
        for (i, &g) in authorities.iter().enumerate() {
            let mut pages: ReleasePages = self.release_pool.pop().unwrap_or_default();
            debug_assert!(pages.is_empty(), "pooled release buffer not cleared");
            let t = self.txn(id);
            for &(a, p) in t.held_gla.iter() {
                if a == g {
                    pages.push((p, t.modified.contains(&p)));
                }
            }
            let last_of = if i == last { Some(id) } else { None };
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
        self.txn_mut(id).held_gla.clear();
        self.scratch_nodes = authorities;
    }

    /// Processes grants produced at a GLA node: wake local waiters, send
    /// remote grant replies, and progress pending writes.
    pub(crate) fn process_gla_grants(
        &mut self,
        now: SimTime,
        gla_node: NodeId,
        grants: Vec<(PageId, TxnId, LockMode)>,
    ) {
        for (page, t2, _) in grants {
            if self.pending_writes.contains_key(&t2) {
                let ready = {
                    let pw = self.pending_writes.get_mut(&t2).expect("checked");
                    pw.granted = true;
                    pw.acks_left == 0
                };
                if ready {
                    self.finish_pending_write(now, t2);
                }
                continue;
            }
            if let Some(ctx) = self.remote_ctx.remove(&t2) {
                self.send_pcl_grant(now, gla_node, t2, ctx);
                continue;
            }
            // A local waiter at the GLA node.
            if self.txns.contains_key(&t2) {
                let svc = self.fixed(self.cfg.pcl_local_lock_instr);
                self.dispatch(
                    now,
                    gla_node,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 0,
                        txn: Some(t2),
                        cont: Cont::PclLocalGrantExec { txn: t2, page },
                    },
                );
            }
        }
    }

    /// A pending write has its lock and all revocation acks: grant it.
    pub(crate) fn finish_pending_write(&mut self, now: SimTime, writer: TxnId) {
        let Some(pw) = self.pending_writes.remove(&writer) else {
            return;
        };
        self.remote_ctx.remove(&writer);
        if pw.ctx.from == pw.gla {
            // Local writer at the GLA node.
            if self.txns.contains_key(&writer) {
                let svc = self.fixed(self.cfg.pcl_local_lock_instr);
                self.dispatch(
                    now,
                    pw.gla,
                    Job {
                        service: svc,
                        gem_entries: 0,
                        gem_pages: 0,
                        txn: Some(writer),
                        cont: Cont::PclLocalGrantExec {
                            txn: writer,
                            page: pw.ctx.page,
                        },
                    },
                );
            }
        } else {
            self.send_pcl_grant(now, pw.gla, writer, pw.ctx);
        }
    }

    /// Sends a lock grant from `gla_node` back to the requester,
    /// piggybacking the current page version when the requester's copy
    /// is stale and this node still buffers it (NOFORCE).
    pub(crate) fn send_pcl_grant(
        &mut self,
        now: SimTime,
        gla_node: NodeId,
        txn: TxnId,
        ctx: super::ReqCtx,
    ) {
        let seqno = self.gla[gla_node.index()].seqno(ctx.page);
        let requester_stale = ctx.cached.is_none_or(|c| c < seqno);
        let with_page = self.is_noforce()
            && requester_stale
            && self.nodes[gla_node.index()]
                .buffer
                .has_valid(ctx.page, seqno);
        let ra = self.cfg.pcl_read_optimization && ctx.mode == LockMode::Read;
        if ra {
            self.gla[gla_node.index()].grant_ra(ctx.page, ctx.from);
        }
        if with_page {
            self.counters.page_transfers += 1;
            self.emit(
                now,
                TraceEventKind::PageTransfer,
                gla_node,
                Some(txn),
                Some(ctx.page),
                u64::from(ctx.from.raw()),
            );
        }
        self.send_msg(
            now,
            Msg {
                from: gla_node,
                to: ctx.from,
                body: MsgBody::LockGrant {
                    txn,
                    page: ctx.page,
                    mode: ctx.mode,
                    seqno,
                    with_page,
                    ra,
                },
            },
            None,
            None,
        );
    }
}
