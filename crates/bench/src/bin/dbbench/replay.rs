//! Replays of one traced run through each layer's public API.
//!
//! [`decode`] turns the trace records (plus the specs the timing
//! decorator saw) into one operation stream per layer, untimed. Each
//! replay then builds fresh layer state and times only the loop of API
//! calls. A [`Probe`] wraps every call: [`Off`] compiles to nothing for
//! the timed rounds; the span recorder in `layers` timestamps each call
//! once, for the span file.
//!
//! The replays reproduce the layers' *operation mix and data shape*,
//! not the engine's exact interleaving: lock requests are replayed when
//! the trace records them (the engine executes them one CPU slice
//! later), and a transaction's page references are replayed at its
//! commit. The counts are exact; host nanoseconds per operation are an
//! estimate with warmer caches than the live loop.

use dbshare_lockmgr::pcl::{GlaState, RaTable};
use dbshare_lockmgr::{GemLockTable, LockMode, LockReply};
use dbshare_model::gla::GlaMap;
use dbshare_model::{
    CouplingMode, NodeId, PageId, PartitionId, SystemConfig, TxnId, TxnSpec, UpdateStrategy,
};
use dbshare_node::{BufferManager, Lookup};
use dbshare_storage::StorageSubsystem;
use desim::trace::{unpack_page, TraceEvent, TraceEventKind as K, NO_TXN};
use desim::{Calendar, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Wraps each replayed call.
pub trait Probe {
    fn start(&mut self) -> u64;
    fn stop(&mut self, start: u64, txn: u64, name: &'static str);
}

/// No probe: the timed rounds.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn start(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn stop(&mut self, _: u64, _: u64, _: &'static str) {}
}

/// One lock-manager call.
#[derive(Debug, Clone)]
pub enum LockOp {
    Request {
        txn: TxnId,
        node: NodeId,
        page: PageId,
        mode: LockMode,
    },
    /// Commit-time release or abort: everything `txn` holds or waits
    /// for, at every authority in `glas` (a node bit set; PCL) and the
    /// node's read authorizations of `ra` (indexes into `ra_pages`).
    Release {
        txn: TxnId,
        node: NodeId,
        glas: u64,
        ra: Range<usize>,
    },
}

/// One buffer-manager call on `node` for transaction `txn`.
#[derive(Debug, Clone, Copy)]
pub struct BufOp {
    pub txn: u64,
    pub node: u16,
    pub page: PageId,
    pub kind: BufKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufKind {
    /// Versioned lookup (locked partitions) of version `seqno`, insert
    /// on a miss.
    Lookup(u64),
    /// Unversioned lookup (unlocked partitions), insert on a miss.
    Unversioned,
    /// Commit of a write: the node's copy becomes version `seqno`.
    Dirty(u64),
}

/// One storage-subsystem call at its traced instant.
#[derive(Debug, Clone, Copy)]
pub struct StoreOp {
    pub at: SimTime,
    pub txn: u64,
    pub kind: StoreKind,
}

#[derive(Debug, Clone, Copy)]
pub enum StoreKind {
    Read(PageId),
    Write(PageId),
    Log(NodeId),
    Send,
}

/// Every layer's operation stream, decoded from one traced run.
#[derive(Debug, Default)]
pub struct Inputs {
    /// Spec index of every transaction id ([`pair_specs`]).
    pub pairing: Vec<Option<usize>>,
    pub lock: Vec<LockOp>,
    pub ra_pages: Vec<PageId>,
    pub buf: Vec<BufOp>,
    /// Index into `buf` of the first operation after warm-up, where the
    /// live engine restarts its buffer counters.
    pub buf_measured_from: usize,
    pub store: Vec<StoreOp>,
    /// Completion records as `(scheduled, due, txn)`, sorted by
    /// scheduling instant.
    pub cal: Vec<(SimTime, SimTime, u64)>,
    /// Lock requests whose page the transaction's spec does not
    /// reference (a spec paired with the wrong id); 0 on a sound trace.
    pub unmatched: u64,
    /// `TxnCommit` records.
    pub commits: u64,
}

impl Inputs {
    pub fn lookups(&self) -> u64 {
        self.buf
            .iter()
            .filter(|op| matches!(op.kind, BufKind::Lookup(_) | BufKind::Unversioned))
            .count() as u64
    }
}

/// Pairs every traced transaction id with the index of the spec it ran.
///
/// The engine hands out ids in admission order: an arrival takes the
/// next spec the workload drew; a restart re-runs its aborted victim's
/// spec under a new id and keeps the victim's arrival instant, which
/// is how it is recognized. An id never admitted before the run ended
/// leaves no record and is taken for an arrival.
pub fn pair_specs(trace: &[TraceEvent], drawn: usize) -> Vec<Option<usize>> {
    let Some(max) = trace
        .iter()
        .filter(|e| e.txn != NO_TXN)
        .map(|e| e.txn)
        .max()
    else {
        return Vec::new();
    };
    let ids = max as usize + 1;
    let mut arrival = vec![None; ids];
    let mut victims = Vec::new();
    for e in trace {
        match e.kind {
            K::TxnAdmit => arrival[e.txn as usize] = Some(e.at.as_nanos() - e.arg),
            K::TxnAbort => victims.push(e.txn as usize),
            _ => {}
        }
    }
    let mut restarting: HashMap<u64, Vec<usize>> = HashMap::new();
    for v in victims {
        if let Some(a) = arrival[v] {
            restarting.entry(a).or_default().push(v);
        }
    }
    let mut spec = vec![None; ids];
    let mut next = 0;
    for id in 0..ids {
        let restart_of = arrival[id]
            .and_then(|a| restarting.get_mut(&a))
            .and_then(|q| (q.first().is_some_and(|&v| v < id)).then(|| q.remove(0)));
        spec[id] = match restart_of {
            Some(victim) => spec[victim],
            None => {
                next += 1;
                (next <= drawn).then_some(next - 1)
            }
        };
    }
    spec
}

fn page_of(packed: u64) -> Option<PageId> {
    unpack_page(packed).map(|(part, n)| PageId::new(PartitionId::new(part), n))
}

fn lock_mode(write: bool) -> LockMode {
    if write {
        LockMode::Write
    } else {
        LockMode::Read
    }
}

/// Decode-time state of one live transaction.
#[derive(Default)]
struct Live {
    cursor: usize,
    held: Vec<(PageId, LockMode)>,
    glas: u64,
    ra: Vec<PageId>,
}

/// Decodes the per-layer operation streams of a traced run.
///
/// # Panics
///
/// Panics on more than 64 nodes (the PCL release set is a `u64`).
pub fn decode(trace: &[TraceEvent], specs: &[TxnSpec], cfg: &SystemConfig, gla: &GlaMap) -> Inputs {
    assert!(cfg.nodes <= 64, "PCL release sets hold at most 64 nodes");
    let pairing = pair_specs(trace, specs.len());
    let spec_of = |txn: u64| {
        pairing
            .get(txn as usize)
            .copied()
            .flatten()
            .map(|i| &specs[i])
    };
    let locked = |p: PageId| cfg.partitions[p.partition().index()].locking;
    let pcl = cfg.coupling == CouplingMode::Pcl;
    let ro = cfg.pcl_read_optimization && pcl;
    // PCL under NOFORCE: the lock authority owns its partition's pages,
    // so a committed remote write also lands in the authority's buffer.
    let owner_copies = pcl && cfg.update == UpdateStrategy::NoForce;
    let mut inp = Inputs::default();
    let mut live: HashMap<u64, Live> = HashMap::new();
    let mut seqno: HashMap<PageId, u64> = HashMap::new();
    for e in trace {
        let node = NodeId::new(e.node);
        match e.kind {
            K::LockRequest => {
                let page = page_of(e.page).expect("lock requests name a page");
                let t = live.entry(e.txn).or_default();
                // The next reference to `page` that the locks held so
                // far do not cover is the one this request is for.
                let refs = spec_of(e.txn).map_or(&[][..], |s| s.refs());
                let held = t.held.iter().find(|h| h.0 == page).map(|h| h.1);
                let found = refs.iter().enumerate().skip(t.cursor).find(|(_, r)| {
                    r.page == page && !held.is_some_and(|m| m.covers(lock_mode(r.mode.is_write())))
                });
                let mode = match found {
                    Some((i, r)) => {
                        t.cursor = i + 1;
                        lock_mode(r.mode.is_write())
                    }
                    None => {
                        inp.unmatched += 1;
                        LockMode::Read
                    }
                };
                match t.held.iter_mut().find(|h| h.0 == page) {
                    Some(h) => h.1 = mode,
                    None => t.held.push((page, mode)),
                }
                let g = gla.gla_of(page);
                t.glas |= 1 << g.index();
                if ro && mode == LockMode::Read && g != node {
                    t.ra.push(page);
                }
                inp.lock.push(LockOp::Request {
                    txn: TxnId::new(e.txn),
                    node,
                    page,
                    mode,
                });
            }
            K::LockRelease | K::TxnAbort => {
                let t = live.remove(&e.txn).unwrap_or_default();
                let start = inp.ra_pages.len();
                inp.ra_pages.extend(t.ra);
                inp.lock.push(LockOp::Release {
                    txn: TxnId::new(e.txn),
                    node,
                    glas: t.glas,
                    ra: start..inp.ra_pages.len(),
                });
            }
            K::TxnCommit => {
                inp.commits += 1;
                if let Some(spec) = spec_of(e.txn) {
                    for r in spec.refs() {
                        let kind = if locked(r.page) {
                            BufKind::Lookup(seqno.get(&r.page).copied().unwrap_or(0))
                        } else {
                            BufKind::Unversioned
                        };
                        inp.buf.push(BufOp {
                            txn: e.txn,
                            node: e.node,
                            page: r.page,
                            kind,
                        });
                    }
                    let mut written: Vec<PageId> = spec
                        .refs()
                        .iter()
                        .filter(|r| r.mode.is_write())
                        .map(|r| r.page)
                        .collect();
                    written.sort_unstable();
                    written.dedup();
                    for page in written {
                        let v = if locked(page) {
                            let v = seqno.entry(page).or_default();
                            *v += 1;
                            *v
                        } else {
                            0
                        };
                        inp.buf.push(BufOp {
                            txn: e.txn,
                            node: e.node,
                            page,
                            kind: BufKind::Dirty(v),
                        });
                        let g = gla.gla_of(page);
                        if owner_copies && locked(page) && g != node {
                            inp.buf.push(BufOp {
                                txn: e.txn,
                                node: g.raw(),
                                page,
                                kind: BufKind::Dirty(v),
                            });
                        }
                    }
                }
                if inp.commits == cfg.run.warmup_txns {
                    inp.buf_measured_from = inp.buf.len();
                }
            }
            K::PageRead | K::PageFlush | K::CommitIo | K::MsgSend => {
                let kind = match (e.kind, page_of(e.page)) {
                    (K::MsgSend, _) => StoreKind::Send,
                    (K::PageRead, Some(page)) => StoreKind::Read(page),
                    (_, Some(page)) => StoreKind::Write(page),
                    (_, None) => StoreKind::Log(node),
                };
                inp.store.push(StoreOp {
                    at: e.at,
                    txn: e.txn,
                    kind,
                });
            }
            _ => {}
        }
        // Completion records carry their duration: the calendar entry
        // was scheduled at `at - arg` and fired at `at`.
        if matches!(
            e.kind,
            K::TxnAdmit | K::TxnCommit | K::LockGrant | K::PageReadDone | K::CommitIoDone
        ) {
            let scheduled = SimTime::from_nanos(e.at.as_nanos().saturating_sub(e.arg));
            inp.cal.push((scheduled, e.at, e.txn));
        }
    }
    inp.cal.sort_by_key(|&(scheduled, _, _)| scheduled);
    inp.pairing = pairing;
    inp
}

/// Pre-sizing of the lock tables as `Engine::new` does it: pages of the
/// GEM table, pages per GLA, and live transactions.
fn table_sizes(cfg: &SystemConfig) -> (usize, usize, usize) {
    let nodes = cfg.nodes as usize;
    let hot = cfg.buffer_pages_per_node as usize * 2;
    let cap = |n: usize| cfg.page_metadata_budget.map_or(n, |b| n.min(b));
    (
        cap(hot * nodes),
        cap(hot),
        cfg.mpl_per_node as usize * nodes,
    )
}

/// Lock-manager replay result.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockStats {
    pub ns: u64,
    pub requests: u64,
    pub queued: u64,
    pub ra_local: u64,
}

/// Replays the lock stream through `GemLockTable`, or through one
/// `GlaState` and one `RaTable` per node under PCL.
pub fn lockmgr<P: Probe>(inp: &Inputs, cfg: &SystemConfig, gla: &GlaMap, p: &mut P) -> LockStats {
    let (glt_pages, gla_pages, live) = table_sizes(cfg);
    let nodes = cfg.nodes as usize;
    let ro = cfg.pcl_read_optimization;
    let pcl = cfg.coupling == CouplingMode::Pcl;
    let mut glt = GemLockTable::with_capacity(if pcl { 0 } else { glt_pages }, live);
    let mut glas: Vec<GlaState> = (0..if pcl { nodes } else { 0 })
        .map(|_| GlaState::with_capacity(gla_pages, live))
        .collect();
    let mut ras: Vec<RaTable> = (0..nodes).map(|_| RaTable::new()).collect();
    let mut s = LockStats::default();
    let t0 = Instant::now();
    for op in &inp.lock {
        match *op {
            LockOp::Request {
                txn,
                node,
                page,
                mode,
            } => {
                s.requests += 1;
                let c = p.start();
                let queued = if !pcl {
                    glt.request(txn, page, mode).reply == LockReply::Queued
                } else {
                    let g = gla.gla_of(page);
                    if g != node
                        && ro
                        && mode == LockMode::Read
                        && ras[node.index()].is_authorized(page)
                    {
                        s.ra_local += u64::from(ras[node.index()].try_local_read(txn, page));
                        false
                    } else {
                        let out = glas[g.index()].request(txn, node, page, mode, g == node, ro);
                        if out.ra_granted && g != node {
                            ras[node.index()].grant_authorization(page);
                        }
                        for n in &out.revoke {
                            black_box(ras[n.index()].revoke(page));
                        }
                        out.reply == LockReply::Queued
                    }
                };
                p.stop(c, txn.raw(), "request");
                s.queued += u64::from(queued);
            }
            LockOp::Release {
                txn,
                node,
                glas: mut set,
                ref ra,
            } => {
                let c = p.start();
                if !pcl {
                    black_box(glt.release_all(txn));
                } else {
                    while set != 0 {
                        let g = set.trailing_zeros() as usize;
                        set &= set - 1;
                        black_box(glas[g].release_all(txn));
                    }
                    for &page in &inp.ra_pages[ra.clone()] {
                        black_box(ras[node.index()].release(txn, page));
                    }
                }
                p.stop(c, txn.raw(), "release");
            }
        }
    }
    s.ns = t0.elapsed().as_nanos() as u64;
    s
}

/// Buffer replay result.
#[derive(Debug, Default, Clone)]
pub struct BufferStats {
    pub ns: u64,
    /// `(hits, lookups)` per partition after warm-up, over all nodes.
    pub per_partition: Vec<(u64, u64)>,
}

impl BufferStats {
    pub fn hit_ratio(&self) -> f64 {
        let (h, n) = self
            .per_partition
            .iter()
            .fold((0, 0), |(h, n), &(ph, pn)| (h + ph, n + pn));
        h as f64 / n.max(1) as f64
    }
}

/// Replays each committed transaction's references through one
/// `BufferManager` per node.
pub fn buffer<P: Probe>(inp: &Inputs, cfg: &SystemConfig, p: &mut P) -> BufferStats {
    let parts = cfg.partitions.len();
    let mut bufs: Vec<BufferManager> = (0..cfg.nodes)
        .map(|_| BufferManager::new(cfg.buffer_pages_per_node, parts))
        .collect();
    let t0 = Instant::now();
    for (i, op) in inp.buf.iter().enumerate() {
        if i == inp.buf_measured_from {
            bufs.iter_mut().for_each(BufferManager::reset_counters);
        }
        let b = &mut bufs[op.node as usize];
        let c = p.start();
        let name = match op.kind {
            BufKind::Lookup(seqno) => {
                if b.lookup(op.page, seqno) != Lookup::Hit {
                    black_box(b.insert(op.page, seqno, false));
                }
                "lookup"
            }
            BufKind::Unversioned => {
                if b.lookup_unversioned(op.page) != Lookup::Hit {
                    black_box(b.insert(op.page, 0, false));
                }
                "lookup"
            }
            BufKind::Dirty(seqno) => {
                black_box(b.mark_dirty(op.page, seqno));
                "mark_dirty"
            }
        };
        p.stop(c, op.txn, name);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let per_partition = (0..parts)
        .map(|pi| {
            bufs.iter().fold((0, 0), |(h, n), b| {
                let c = b.counters(pi);
                (h + c.hits, n + c.hits + c.misses + c.invalidations)
            })
        })
        .collect();
    BufferStats { ns, per_partition }
}

/// Replays reads, write-backs, commit writes and sends at their traced
/// instants through a `StorageSubsystem` built from the job's config.
/// Returns host nanoseconds.
pub fn storage<P: Probe>(inp: &Inputs, cfg: &SystemConfig, p: &mut P) -> u64 {
    let mut st = StorageSubsystem::new(cfg);
    let msg = cfg.comm.short_msg_bytes;
    let t0 = Instant::now();
    for op in &inp.store {
        let c = p.start();
        let name = match op.kind {
            StoreKind::Read(page) => {
                black_box(st.read_page(op.at, page));
                "read_page"
            }
            StoreKind::Write(page) => {
                black_box(st.write_page(op.at, page));
                "write_page"
            }
            StoreKind::Log(node) => {
                black_box(st.write_log(op.at, node));
                "write_log"
            }
            StoreKind::Send => {
                black_box(st.send(op.at, msg));
                "send"
            }
        };
        p.stop(c, op.txn, name);
    }
    t0.elapsed().as_nanos() as u64
}

/// Replays every completion's (scheduled, due) pair through a
/// `desim::Calendar` in scheduling order, popping all entries due by
/// each scheduling instant first. Returns host nanoseconds; the operation count
/// is two per completion (one schedule, one pop).
pub fn calendar<P: Probe>(inp: &Inputs, p: &mut P) -> u64 {
    let mut cal: Calendar<u64> = Calendar::new();
    let t0 = Instant::now();
    for &(scheduled, due, txn) in &inp.cal {
        while cal.peek_time().is_some_and(|t| t <= scheduled) {
            let c = p.start();
            let popped = cal.pop();
            p.stop(c, popped.map_or(NO_TXN, |(_, t)| t), "pop");
        }
        let c = p.start();
        cal.schedule(due, txn);
        p.stop(c, txn, "schedule");
    }
    while !cal.is_empty() {
        let c = p.start();
        let popped = cal.pop();
        p.stop(c, popped.map_or(NO_TXN, |(_, t)| t), "pop");
    }
    t0.elapsed().as_nanos() as u64
}
