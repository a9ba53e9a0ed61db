//! Model-based equivalence test: the production lock table (backed by
//! `desim::fxhash` hash maps for per-event speed) against an
//! independent reference implementation backed entirely by ordered
//! `BTreeMap`/`BTreeSet` structures. Every random op sequence must
//! produce identical replies, identical grant lists (in order),
//! identical holder/queue/edge observables, and identical counters —
//! proving the hash-map backing introduces no iteration-order
//! dependence anywhere in the table's observable behavior. After every
//! step the table's reduced waits-for graph is also checked against its
//! full one: same transitive closure, same cycle verdict, linear size.
//!
//! Cases are generated with desim's deterministic RNG (seeded,
//! reproducible) so the workspace tests without registry dependencies.

use dbshare_lockmgr::deadlock::{find_cycle, has_cycle};
use dbshare_lockmgr::{LockMode, LockReply, LockTable};
use dbshare_model::{PageId, PartitionId, TxnId};
use desim::Rng;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 128;
const OPS_PER_CASE: usize = 400;

fn page(p: u8) -> PageId {
    PageId::new(PartitionId::new(0), p as u64)
}
fn txn(t: u8) -> TxnId {
    TxnId::new(t as u64)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Request { txn: u8, page: u8, write: bool },
    Release { txn: u8, page: u8 },
    ReleaseAll { txn: u8 },
}

/// One random op. Requests are half the default mix, whose streams pile
/// up and mostly deadlock; `release_heavy` streams cut them to a third,
/// keeping waits-for graphs sparser and more often acyclic.
fn random_op(rng: &mut Rng, release_heavy: bool) -> Op {
    let kind = if release_heavy {
        [0, 2, 3][rng.below(3) as usize]
    } else {
        rng.below(4)
    };
    match kind {
        0 | 1 => Op::Request {
            txn: rng.below(10) as u8,
            page: rng.below(5) as u8,
            write: rng.chance(0.5),
        },
        2 => Op::Release {
            txn: rng.below(10) as u8,
            page: rng.below(5) as u8,
        },
        _ => Op::ReleaseAll {
            txn: rng.below(10) as u8,
        },
    }
}

// ---------------------------------------------------------------------
// Reference model: the same strict-2PL semantics, implemented on
// ordered containers only (BTreeMap keyed by page, BTreeSet held
// index). No hash map anywhere.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct RefWaiter {
    txn: TxnId,
    mode: LockMode,
    upgrade: bool,
}

#[derive(Debug, Default)]
struct RefState {
    holders: Vec<(TxnId, LockMode)>,
    queue: Vec<RefWaiter>,
}

#[derive(Debug, Default)]
struct RefTable {
    locks: BTreeMap<PageId, RefState>,
    held: BTreeMap<TxnId, BTreeSet<PageId>>,
    grants: u64,
    conflicts: u64,
}

impl RefTable {
    fn request(&mut self, t: TxnId, p: PageId, mode: LockMode) -> LockReply {
        let state = self.locks.entry(p).or_default();
        let held = state
            .holders
            .iter()
            .find(|&&(h, _)| h == t)
            .map(|&(_, m)| m);
        if let Some(h) = held {
            if h.covers(mode) {
                return LockReply::AlreadyHeld;
            }
            if state.holders.iter().all(|&(h2, _)| h2 == t) {
                for h2 in state.holders.iter_mut() {
                    if h2.0 == t {
                        h2.1 = LockMode::Write;
                    }
                }
                self.grants += 1;
                return LockReply::Granted;
            }
            self.conflicts += 1;
            let pos = state.queue.iter().take_while(|w| w.upgrade).count();
            state.queue.insert(
                pos,
                RefWaiter {
                    txn: t,
                    mode: LockMode::Write,
                    upgrade: true,
                },
            );
            return LockReply::Queued;
        }
        let compatible = state.holders.iter().all(|&(_, m)| m.compatible(mode));
        if state.queue.is_empty() && compatible {
            state.holders.push((t, mode));
            self.held.entry(t).or_default().insert(p);
            self.grants += 1;
            LockReply::Granted
        } else {
            self.conflicts += 1;
            state.queue.push(RefWaiter {
                txn: t,
                mode,
                upgrade: false,
            });
            LockReply::Queued
        }
    }

    fn promote(state: &mut RefState) -> Vec<(TxnId, LockMode)> {
        let mut granted = Vec::new();
        while let Some(w) = state.queue.first().copied() {
            if w.upgrade {
                let sole = state.holders.iter().all(|&(t, _)| t == w.txn);
                if sole {
                    state.queue.remove(0);
                    match state.holders.iter_mut().find(|(t, _)| *t == w.txn) {
                        Some(h) => h.1 = LockMode::Write,
                        None => state.holders.push((w.txn, LockMode::Write)),
                    }
                    granted.push((w.txn, LockMode::Write));
                    continue;
                }
                break;
            }
            let compatible = state.holders.iter().all(|&(_, m)| m.compatible(w.mode));
            if compatible {
                state.queue.remove(0);
                state.holders.push((w.txn, w.mode));
                granted.push((w.txn, w.mode));
            } else {
                break;
            }
        }
        granted
    }

    fn release(&mut self, t: TxnId, p: PageId) -> Vec<(TxnId, LockMode)> {
        let Some(state) = self.locks.get_mut(&p) else {
            return Vec::new();
        };
        state.holders.retain(|&(h, _)| h != t);
        state.queue.retain(|w| w.txn != t);
        if let Some(set) = self.held.get_mut(&t) {
            set.remove(&p);
        }
        let granted = Self::promote(state);
        for &(g, _) in &granted {
            self.held.entry(g).or_default().insert(p);
            self.grants += 1;
        }
        if state.holders.is_empty() && state.queue.is_empty() {
            self.locks.remove(&p);
        }
        granted
    }

    fn release_all(&mut self, t: TxnId) -> Vec<(PageId, TxnId, LockMode)> {
        // BTreeSet iterates in sorted order, matching the production
        // table's explicit sort of its hash-set pages.
        let pages: Vec<PageId> = self
            .held
            .remove(&t)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        let mut out = Vec::new();
        for p in pages {
            for (g, m) in self.release(t, p) {
                out.push((p, g, m));
            }
        }
        out
    }

    fn holders(&self, p: PageId) -> Vec<(TxnId, LockMode)> {
        self.locks
            .get(&p)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    fn queue_len(&self, p: PageId) -> usize {
        self.locks.get(&p).map(|s| s.queue.len()).unwrap_or(0)
    }

    fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for state in self.locks.values() {
            for (i, w) in state.queue.iter().enumerate() {
                for &(t, m) in &state.holders {
                    if t != w.txn && !m.compatible(w.mode) {
                        edges.push((w.txn, t));
                    }
                }
                for prior in state.queue.iter().take(i) {
                    if prior.txn != w.txn && !prior.mode.compatible(w.mode) {
                        edges.push((w.txn, prior.txn));
                    }
                }
            }
        }
        edges
    }

    fn is_quiescent(&self) -> bool {
        self.locks.is_empty()
    }
}

/// Compares every observable of the two tables. Waits-for edges are
/// compared sorted: the production table assembles them from hash-map
/// iteration, and its contract is that consumers sort (the engine's
/// deadlock scan does) — set equality is the specified behavior.
fn assert_same_observables(lt: &LockTable, model: &RefTable, ctx: &str) {
    for p in 0..5u8 {
        assert_eq!(
            lt.holders(page(p)),
            model.holders(page(p)),
            "{ctx}: holders of page {p} diverged"
        );
        assert_eq!(
            lt.queue_len(page(p)),
            model.queue_len(page(p)),
            "{ctx}: queue length of page {p} diverged"
        );
        for t in 0..10u8 {
            assert_eq!(
                lt.held_mode(txn(t), page(p)),
                model
                    .holders(page(p))
                    .iter()
                    .find(|&&(h, _)| h == txn(t))
                    .map(|&(_, m)| m),
                "{ctx}: held_mode({t},{p}) diverged"
            );
        }
    }
    let mut a = lt.waits_for_edges();
    let mut b = model.waits_for_edges();
    a.sort_unstable();
    a.dedup();
    b.sort_unstable();
    b.dedup();
    assert_eq!(a, b, "{ctx}: waits-for edges diverged");
    assert_eq!(lt.grants(), model.grants, "{ctx}: grant counters diverged");
    assert_eq!(
        lt.conflicts(),
        model.conflicts,
        "{ctx}: conflict counters diverged"
    );
}

/// Reachability over the ten test transactions: bit `b` of entry `a`
/// is set iff a non-empty path leads from `a` to `b`.
fn closure(edges: &[(TxnId, TxnId)]) -> [u16; 10] {
    let mut reach = [0u16; 10];
    for &(a, b) in edges {
        reach[a.raw() as usize] |= 1 << b.raw();
    }
    // Warshall: after round k, paths may pass through nodes 0..=k.
    for k in 0..10 {
        for i in 0..10 {
            if reach[i] & (1 << k) != 0 {
                reach[i] |= reach[k];
            }
        }
    }
    reach
}

/// Checks the reduced waits-for graph against the full one and returns
/// whether it has a cycle.
fn assert_reduction_holds(lt: &LockTable, model: &RefTable, ctx: &str) -> bool {
    let mut reduced = Vec::new();
    lt.reduced_waits_for_edges(&mut reduced);
    let mut full = lt.waits_for_edges();
    full.sort_unstable();
    full.dedup();
    assert_eq!(
        closure(&reduced),
        closure(&full),
        "{ctx}: reduced graph changed the transitive closure"
    );
    let cyclic = has_cycle(&reduced);
    assert_eq!(
        cyclic,
        find_cycle(&full).is_some(),
        "{ctx}: cycle verdicts diverged"
    );
    let bound: usize = model
        .locks
        .values()
        .map(|s| s.queue.len() * s.holders.len() + 2 * s.queue.len())
        .sum();
    assert!(
        reduced.len() <= bound,
        "{ctx}: {} reduced edges exceed the bound {bound}",
        reduced.len()
    );
    cyclic
}

#[test]
fn fxhash_table_matches_btree_reference_model() {
    let mut steps = 0;
    let mut cyclic_steps = 0;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF0C5 ^ case);
        let mut lt = LockTable::new();
        let mut model = RefTable::default();
        for step in 0..OPS_PER_CASE {
            let op = random_op(&mut rng, case % 2 == 1);
            let ctx = format!("case {case} step {step} op {op:?}");
            match op {
                Op::Request {
                    txn: t,
                    page: p,
                    write,
                } => {
                    let mode = if write {
                        LockMode::Write
                    } else {
                        LockMode::Read
                    };
                    let a = lt.request(txn(t), page(p), mode);
                    let b = model.request(txn(t), page(p), mode);
                    assert_eq!(a, b, "{ctx}: replies diverged");
                }
                Op::Release { txn: t, page: p } => {
                    let a = lt.release(txn(t), page(p));
                    let b = model.release(txn(t), page(p));
                    assert_eq!(a, b, "{ctx}: grant lists diverged");
                }
                Op::ReleaseAll { txn: t } => {
                    let a = lt.release_all(txn(t));
                    let b = model.release_all(txn(t));
                    assert_eq!(a, b, "{ctx}: release_all grants diverged");
                }
            }
            assert_same_observables(&lt, &model, &ctx);
            steps += 1;
            if assert_reduction_holds(&lt, &model, &ctx) {
                cyclic_steps += 1;
            }
        }
        // Drain: after releasing everyone, both must be quiescent.
        for t in 0..10u8 {
            let a = lt.release_all(txn(t));
            let b = model.release_all(txn(t));
            assert_eq!(a, b, "case {case} drain of txn {t} diverged");
            for p in 0..5u8 {
                // also clear any still-queued requests
                assert_eq!(lt.release(txn(t), page(p)), model.release(txn(t), page(p)));
            }
        }
        assert!(lt.is_quiescent(), "case {case}: table not quiescent");
        assert!(model.is_quiescent(), "case {case}: model not quiescent");
    }
    // Both verdicts must be exercised for the reduction check to bite.
    assert!(
        cyclic_steps > 0 && cyclic_steps < steps,
        "{cyclic_steps} of {steps} steps had a cycle"
    );
}
