//! Trace-driven workloads and the synthetic trace generator.
//!
//! The paper's §4.6 uses a proprietary database trace. Per the
//! substitution policy in `DESIGN.md`, [`Trace::synthesize`] generates
//! a workload matched to every summary statistic the paper reports:
//!
//! * more than 17,500 transactions of twelve types,
//! * about 1 million page references (the largest transaction — an
//!   ad-hoc query — performs more than 11,000),
//! * 13 files, ~66,000 distinct pages referenced out of a ~4 GB
//!   database (1M 4-KB pages),
//! * about 20% update transactions but only ~1.6% write references,
//! * highly non-uniform (Zipf) access distributions with *overlapping*
//!   hot sets across transaction types, which limits partitionability —
//!   the property that makes affinity routing hard for real workloads.

use crate::routing::{self, RoutingTable};
use crate::Workload;
use dbshare_model::gla::GlaMap;
use dbshare_model::{
    NodeId, PageId, PageRef, PartitionConfig, PartitionId, RoutingStrategy, StorageAllocation,
    TxnSpec, TxnTypeId,
};
use desim::dist::Zipf;
use desim::fxhash::FxHashSet;
use desim::Rng;
use std::collections::HashSet;

/// One recorded transaction of a trace: its type and ordered page
/// references with access modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTxn {
    /// Transaction type recorded in the trace.
    pub txn_type: TxnTypeId,
    /// Ordered page references.
    pub refs: Vec<PageRef>,
}

/// Per-type profile used by the synthetic generator.
#[derive(Debug, Clone)]
struct TypeProfile {
    /// Number of transactions of this type in the trace.
    count: u32,
    /// Mean references per transaction (exponentially distributed,
    /// which yields the "significant variations in transaction size").
    mean_refs: f64,
    /// Probability that a reference is a write.
    write_frac: f64,
    /// `(file, weight)` pairs: which files the type touches.
    files: Vec<(usize, f64)>,
    /// Fixed-size sequential scan instead of skewed sampling (the
    /// ad-hoc query).
    sequential_scan: Option<u32>,
}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Zipf skew of page selection inside each file's hot window.
    pub zipf_alpha: f64,
    /// Rotation step (pages) applied per transaction type inside a
    /// shared window; non-zero values give each type its own hot head
    /// while keeping overlap with other types (limited
    /// partitionability).
    pub type_rotation: u64,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            zipf_alpha: 1.0,
            type_rotation: 97,
        }
    }
}

/// File geometry of the synthetic database: `(total pages, hot-window pages)`.
/// Sizes sum to 1,048,576 pages ≈ 4 GB of 4-KB pages; windows sum to
/// ~70k pages so that ~66k distinct pages are referenced.
const FILES: [(u64, u64); 13] = [
    (30_000, 6_000),   // f0
    (20_000, 5_000),   // f1
    (25_000, 4_000),   // f2
    (30_000, 5_000),   // f3
    (50_000, 6_000),   // f4
    (15_000, 3_000),   // f5
    (10_000, 2_000),   // f6
    (60_000, 8_000),   // f7
    (80_000, 7_000),   // f8
    (40_000, 4_000),   // f9
    (100_000, 6_000),  // f10
    (448_576, 12_000), // f11 (the big file the ad-hoc query scans)
    (140_000, 2_000),  // f12
];

fn type_profiles() -> Vec<TypeProfile> {
    // Tuned so that totals match §4.6: see the module docs and tests.
    // The update files (f4, f5, f6) are referenced only by the *short*
    // updater types t2/t3: long read-only transactions sharing files
    // with updaters would create blocking convoys that the paper's
    // real-life trace demonstrably did not have ("lock conflicts had no
    // significant impact on performance").
    vec![
        TypeProfile {
            count: 4_000,
            mean_refs: 12.0,
            write_frac: 0.0,
            files: vec![(0, 0.7), (1, 0.3)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 3_500,
            mean_refs: 18.0,
            write_frac: 0.0,
            files: vec![(2, 0.6), (3, 0.4)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 2_000,
            mean_refs: 40.0,
            write_frac: 0.10,
            files: vec![(4, 0.6), (5, 0.4)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 1_500,
            mean_refs: 25.0,
            write_frac: 0.14,
            files: vec![(5, 0.5), (6, 0.5)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 1_800,
            mean_refs: 60.0,
            write_frac: 0.0,
            files: vec![(1, 0.4), (7, 0.6)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 1_200,
            mean_refs: 120.0,
            write_frac: 0.0,
            files: vec![(7, 0.5), (8, 0.5)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 1_000,
            mean_refs: 55.0,
            write_frac: 0.0,
            files: vec![(9, 0.5), (7, 0.5)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 1_400,
            mean_refs: 90.0,
            write_frac: 0.0,
            files: vec![(3, 0.5), (10, 0.5)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 500,
            mean_refs: 250.0,
            write_frac: 0.0,
            files: vec![(8, 0.6), (11, 0.4)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 400,
            mean_refs: 300.0,
            write_frac: 0.0,
            files: vec![(10, 0.6), (11, 0.4)],
            sequential_scan: None,
        },
        TypeProfile {
            count: 200,
            mean_refs: 180.0,
            write_frac: 0.0,
            files: vec![(12, 0.7), (0, 0.3)],
            sequential_scan: None,
        },
        // The ad-hoc query: three instances, each scanning >11,000
        // pages of the big file sequentially.
        TypeProfile {
            count: 3,
            mean_refs: 11_500.0,
            write_frac: 0.0,
            files: vec![(11, 1.0)],
            sequential_scan: Some(11_500),
        },
    ]
}

/// A complete trace: transactions in execution order plus the database
/// layout they reference.
///
/// ```rust
/// use dbshare_workload::trace::{Trace, TraceGenConfig};
/// let trace = Trace::synthesize(&TraceGenConfig::default(), 42);
/// let stats = trace.stats();
/// assert!(stats.txn_count > 17_500);
/// assert_eq!(stats.types, 12);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    txns: Vec<TraceTxn>,
    partitions: Vec<PartitionConfig>,
}

impl Trace {
    /// Builds a trace from externally captured transactions (e.g., a
    /// real database trace a downstream user owns) and the database
    /// layout they reference.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, a transaction has no references,
    /// or a reference points outside the declared partitions.
    pub fn from_txns(txns: Vec<TraceTxn>, partitions: Vec<PartitionConfig>) -> Trace {
        assert!(!txns.is_empty(), "empty trace");
        for (i, t) in txns.iter().enumerate() {
            assert!(!t.refs.is_empty(), "transaction {i} has no references");
            for r in &t.refs {
                let part = partitions
                    .get(r.page.partition().index())
                    .unwrap_or_else(|| panic!("transaction {i} references unknown partition"));
                assert!(
                    r.page.number() < part.pages,
                    "transaction {i} references page {} beyond partition size {}",
                    r.page,
                    part.pages
                );
            }
        }
        Trace { txns, partitions }
    }

    /// Generates the synthetic trace (deterministic for a given seed).
    pub fn synthesize(cfg: &TraceGenConfig, seed: u64) -> Trace {
        let profiles = type_profiles();
        let mut rng = Rng::seed_from_u64(seed ^ 0x7ace_7ace);
        let zipfs: Vec<Zipf> = FILES
            .iter()
            .map(|&(_, window)| Zipf::new(window, cfg.zipf_alpha))
            .collect();

        // Build the multiset of transaction instances, then shuffle to
        // interleave types as a real trace would.
        let mut order: Vec<u16> = profiles
            .iter()
            .enumerate()
            .flat_map(|(t, p)| std::iter::repeat_n(t as u16, p.count as usize))
            .collect();
        rng.shuffle(&mut order);

        let mut txns = Vec::with_capacity(order.len());
        for t in order {
            let p = &profiles[t as usize];
            let refs = if let Some(scan) = p.sequential_scan {
                let file = p.files[0].0;
                let window = FILES[file].1;
                let start = rng.below(window.saturating_sub(scan as u64).max(1));
                (0..scan as u64)
                    .map(|i| {
                        PageRef::read(PageId::new(
                            PartitionId::new(file as u16),
                            (start + i) % window,
                        ))
                    })
                    .collect()
            } else {
                // Read-only transactions have the heavy (exponential)
                // size tail the paper describes; update transactions
                // are bounded, as in production OLTP — an unbounded
                // updater would hold read locks for seconds before its
                // terminal writes and convoy the whole update file.
                let cap = if p.write_frac > 0.0 {
                    (p.mean_refs * 3.0) as usize
                } else {
                    4_000
                };
                let n = (rng.exp(p.mean_refs).round() as usize).clamp(2, cap);
                let weights: Vec<f64> = p.files.iter().map(|&(_, w)| w).collect();
                let mut refs: Vec<PageRef> = (0..n)
                    .map(|_| {
                        let fi = p.files[rng.discrete(&weights)].0;
                        let window = FILES[fi].1;
                        let write = p.write_frac > 0.0 && rng.chance(p.write_frac);
                        // Reads follow the Zipf-skewed hot head (rotated
                        // per type: shared window, type-specific head).
                        // Writes spread uniformly over the *cold* region
                        // beyond every type's hot head: in real OLTP
                        // traces the hottest pages are read-mostly
                        // (index roots, lookup tables) and updates
                        // scatter — §4.6 reports that lock conflicts had
                        // no significant performance impact even at
                        // 400 TPS aggregate. Writes on read-hot pages
                        // would convoy dozens of concurrent readers
                        // behind each FIFO-queued writer.
                        let page = if write {
                            let lo = window * 3 / 4;
                            let hi = (window * 2).min(FILES[fi].0);
                            lo + rng.below(hi - lo)
                        } else {
                            let rank = zipfs[fi].sample(&mut rng) - 1;
                            (rank + t as u64 * cfg.type_rotation) % window
                        };
                        let id = PageId::new(PartitionId::new(fi as u16), page);
                        if write {
                            PageRef::write(id)
                        } else {
                            PageRef::read(id)
                        }
                    })
                    .collect();
                // An update-type transaction updates *something*: if the
                // write coin never landed, it appends one update access
                // to a cold-region page of its primary file (flipping a
                // hot *read* page to a write would put write locks on
                // the most-shared pages).
                if p.write_frac > 0.0 && !refs.iter().any(|r| r.mode.is_write()) {
                    let fi = p.files[0].0;
                    let window = FILES[fi].1;
                    let lo = window * 3 / 4;
                    let hi = (window * 2).min(FILES[fi].0);
                    let page = lo + rng.below(hi - lo);
                    refs.push(PageRef::write(PageId::new(
                        PartitionId::new(fi as u16),
                        page,
                    )));
                }
                // Pages a transaction writes are written from their first
                // access on (update-mode locking discipline): read-then-
                // write lock upgrades are a classic deadlock source that
                // well-behaved OLTP applications avoid.
                if p.write_frac > 0.0 {
                    let written: HashSet<PageId> = refs
                        .iter()
                        .filter(|r| r.mode.is_write())
                        .map(|r| r.page)
                        .collect();
                    for r in refs.iter_mut() {
                        if written.contains(&r.page) {
                            *r = PageRef::write(r.page);
                        }
                    }
                    // Updates are performed at the end of the
                    // transaction, in canonical page order — exactly the
                    // discipline the paper's debit-credit model uses to
                    // keep write-lock holding times short (§3.1) and
                    // avoid write-write deadlocks.
                    let (mut reads, mut writes): (Vec<_>, Vec<_>) =
                        refs.into_iter().partition(|r| !r.mode.is_write());
                    writes.sort_by_key(|r| r.page);
                    writes.dedup_by_key(|r| r.page);
                    reads.extend(writes);
                    refs = reads;
                }
                refs
            };
            txns.push(TraceTxn {
                txn_type: TxnTypeId::new(t),
                refs,
            });
        }

        // Disk allocation: arrays sized by each file's share of the
        // reference volume ("sufficient disks", §4.2), floor of 2.
        let mut per_file_refs = vec![0u64; FILES.len()];
        for txn in &txns {
            for r in &txn.refs {
                per_file_refs[r.page.partition().index()] += 1;
            }
        }
        let total_refs: u64 = per_file_refs.iter().sum();
        let partitions = FILES
            .iter()
            .enumerate()
            .map(|(i, &(pages, _))| PartitionConfig {
                name: format!("F{i}"),
                pages,
                locking: true,
                storage: StorageAllocation::disk(
                    (per_file_refs[i] as f64 / total_refs as f64 * 320.0)
                        .ceil()
                        .max(2.0) as u32,
                ),
            })
            .collect();

        Trace { txns, partitions }
    }

    /// The transactions in execution order.
    pub fn txns(&self) -> &[TraceTxn] {
        &self.txns
    }

    /// The database layout.
    pub fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }

    /// Summary statistics (compare against §4.6's description).
    pub fn stats(&self) -> TraceStats {
        let mut distinct: FxHashSet<PageId> = FxHashSet::default();
        let mut total_refs = 0u64;
        let mut write_refs = 0u64;
        let mut update_txns = 0u64;
        let mut max_txn = 0usize;
        let mut types: FxHashSet<TxnTypeId> = FxHashSet::default();
        for t in &self.txns {
            types.insert(t.txn_type);
            max_txn = max_txn.max(t.refs.len());
            let mut wrote = false;
            for r in &t.refs {
                distinct.insert(r.page);
                total_refs += 1;
                if r.mode.is_write() {
                    write_refs += 1;
                    wrote = true;
                }
            }
            if wrote {
                update_txns += 1;
            }
        }
        TraceStats {
            txn_count: self.txns.len() as u64,
            types: types.len() as u32,
            total_refs,
            write_refs,
            update_txns,
            distinct_pages: distinct.len() as u64,
            max_txn_refs: max_txn as u64,
            db_pages: self.partitions.iter().map(|p| p.pages).sum(),
        }
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of transactions.
    pub txn_count: u64,
    /// Number of distinct transaction types.
    pub types: u32,
    /// Total page references.
    pub total_refs: u64,
    /// Write references.
    pub write_refs: u64,
    /// Transactions performing at least one write.
    pub update_txns: u64,
    /// Distinct pages referenced.
    pub distinct_pages: u64,
    /// References of the largest transaction.
    pub max_txn_refs: u64,
    /// Total database size in pages.
    pub db_pages: u64,
}

/// A trace-driven workload source: replays the trace in its original
/// execution order (cycling when exhausted), routing transactions
/// randomly or by the affinity routing table (§3.1).
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    trace: Trace,
    routing: RoutingStrategy,
    table: RoutingTable,
    gla: GlaMap,
    next_idx: usize,
    rr_next: u16,
    nodes: u16,
    mean_accesses: f64,
    /// §3.1: "There may be a common arrival rate for all transactions
    /// in the trace preserving the original execution order of the
    /// workload. Alternatively, we can specify a different arrival rate
    /// per transaction type." `None` = order-preserving replay;
    /// `Some` = per-type weights with per-type replay cursors.
    type_weights: Option<Vec<f64>>,
    per_type: Vec<Vec<usize>>,
    per_type_next: Vec<usize>,
}

impl TraceWorkload {
    /// Builds the workload for `nodes` nodes. For affinity routing, the
    /// routing table and GLA chunk map are computed with the iterative
    /// heuristics of [`crate::routing`]; for random routing the same
    /// GLA map is kept (the database partitioning is a property of the
    /// system, not of the routing), exactly as in §4.6.
    pub fn new(trace: Trace, nodes: u16, routing: RoutingStrategy) -> Self {
        assert!(nodes > 0, "need at least one node");
        let table = routing::affinity_table(&trace, nodes);
        let gla = routing::gla_chunks(&trace, &table, nodes, 512);
        // Type ids may be sparse, so the per-type index covers every id
        // up to the largest.
        let mut per_type: Vec<Vec<usize>> = Vec::new();
        let mut total_refs = 0u64;
        for (i, t) in trace.txns().iter().enumerate() {
            let ty = t.txn_type.index();
            if per_type.len() <= ty {
                per_type.resize_with(ty + 1, Vec::new);
            }
            per_type[ty].push(i);
            total_refs += t.refs.len() as u64;
        }
        let mean_accesses = total_refs as f64 / trace.txns().len() as f64;
        let types = per_type.len();
        TraceWorkload {
            trace,
            routing,
            table,
            gla,
            next_idx: 0,
            rr_next: 0,
            nodes,
            mean_accesses,
            type_weights: None,
            per_type,
            per_type_next: vec![0; types],
        }
    }

    /// Switches from order-preserving replay to per-type arrival rates
    /// (§3.1): arrivals draw a transaction *type* with probability
    /// proportional to `weights[type]`, then replay that type's
    /// instances in trace order (cycling).
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not cover every type, contains a
    /// negative weight, or assigns positive weight to a type with no
    /// instances.
    pub fn with_type_rates(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            self.per_type.len(),
            "one weight per transaction type"
        );
        for (t, &w) in weights.iter().enumerate() {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            assert!(
                w == 0.0 || !self.per_type[t].is_empty(),
                "type {t} has weight but no trace instances"
            );
        }
        assert!(weights.iter().sum::<f64>() > 0.0, "all-zero weights");
        self.type_weights = Some(weights);
        self
    }

    /// The routing table in use (node per transaction type).
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Workload for TraceWorkload {
    fn next(&mut self, rng: &mut Rng) -> (NodeId, TxnSpec) {
        self.next_with(rng, None)
    }

    fn next_with(&mut self, rng: &mut Rng, spare: Option<TxnSpec>) -> (NodeId, TxnSpec) {
        let idx = match &self.type_weights {
            None => {
                let i = self.next_idx;
                self.next_idx = (self.next_idx + 1) % self.trace.txns().len();
                i
            }
            Some(weights) => {
                let ty = rng.discrete(weights);
                let cursor = &mut self.per_type_next[ty];
                let list = &self.per_type[ty];
                let i = list[*cursor % list.len()];
                *cursor += 1;
                i
            }
        };
        let t = &self.trace.txns()[idx];
        let node = match self.routing {
            RoutingStrategy::Affinity => self.table.node_for(t.txn_type),
            RoutingStrategy::Random => {
                let n = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.nodes;
                NodeId::new(n)
            }
        };
        // Reuse a retired spec's reference buffer rather than cloning:
        // the largest trace transactions carry >10k references, so the
        // per-draw clone was the suite's heaviest remaining allocation.
        let mut refs = spare.map(TxnSpec::into_refs).unwrap_or_default();
        refs.extend_from_slice(&t.refs);
        (
            node,
            TxnSpec::new(t.txn_type, t.txn_type.index() as u64, refs),
        )
    }

    fn mean_accesses(&self) -> f64 {
        self.mean_accesses
    }

    fn partitions(&self) -> &[PartitionConfig] {
        self.trace.partitions()
    }

    fn gla_map(&self) -> GlaMap {
        self.gla.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::synthesize(&TraceGenConfig::default(), 7)
    }

    #[test]
    fn matches_paper_summary_statistics() {
        let stats = trace().stats();
        // §4.6: "more than 17.500 transactions of twelve transaction
        // types and about 1 million database accesses"
        assert!(stats.txn_count > 17_500, "{}", stats.txn_count);
        assert_eq!(stats.types, 12);
        assert!(
            (900_000..1_150_000).contains(&stats.total_refs),
            "{}",
            stats.total_refs
        );
        // "the largest transaction performs more than 11.000 accesses"
        assert!(stats.max_txn_refs > 11_000, "{}", stats.max_txn_refs);
        // "about 20% of the transactions perform updates, but only 1.6%
        // of all database accesses are writes"
        let update_frac = stats.update_txns as f64 / stats.txn_count as f64;
        assert!((0.17..0.23).contains(&update_frac), "{update_frac}");
        let write_frac = stats.write_refs as f64 / stats.total_refs as f64;
        assert!((0.012..0.020).contains(&write_frac), "{write_frac}");
        // "merely 66.000 different pages in 13 files were referenced"
        assert!(
            (50_000..80_000).contains(&stats.distinct_pages),
            "{}",
            stats.distinct_pages
        );
        // "database size is about 4 GB" (1M 4-KB pages)
        assert!((1_000_000..1_100_000).contains(&stats.db_pages));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Trace::synthesize(&TraceGenConfig::default(), 3);
        let b = Trace::synthesize(&TraceGenConfig::default(), 3);
        assert_eq!(a.txns().len(), b.txns().len());
        assert_eq!(a.txns()[0], b.txns()[0]);
        assert_eq!(a.txns()[100], b.txns()[100]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Trace::synthesize(&TraceGenConfig::default(), 3);
        let b = Trace::synthesize(&TraceGenConfig::default(), 4);
        assert_ne!(a.txns()[0], b.txns()[0]);
    }

    #[test]
    fn thirteen_files_with_disks() {
        let t = trace();
        assert_eq!(t.partitions().len(), 13);
        for p in t.partitions() {
            assert!(p.locking);
            match p.storage {
                StorageAllocation::Disk { disks } => assert!(disks >= 2),
                _ => panic!("trace files live on plain disks"),
            }
        }
    }

    #[test]
    fn access_is_skewed() {
        // The hottest 10% of referenced pages should absorb far more
        // than 10% of references (non-uniform distribution).
        use std::collections::HashMap;
        let t = trace();
        let mut counts: HashMap<PageId, u64> = HashMap::new();
        for txn in t.txns() {
            for r in &txn.refs {
                *counts.entry(r.page).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top10: u64 = freqs[..freqs.len() / 10].iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.4,
            "top-10% share {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn workload_replays_in_order_and_cycles() {
        let t = trace();
        let first = t.txns()[0].clone();
        let len = t.txns().len();
        let mut w = TraceWorkload::new(t, 2, RoutingStrategy::Random);
        let mut rng = Rng::seed_from_u64(1);
        let (_, s0) = w.next(&mut rng);
        assert_eq!(s0.txn_type(), first.txn_type);
        assert_eq!(s0.refs(), &first.refs[..]);
        for _ in 1..len {
            w.next(&mut rng);
        }
        let (_, again) = w.next(&mut rng);
        assert_eq!(again.txn_type(), first.txn_type); // cycled
    }

    #[test]
    fn random_routing_balanced() {
        let t = trace();
        let mut w = TraceWorkload::new(t, 4, RoutingStrategy::Random);
        let mut rng = Rng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..1_000 {
            counts[w.next(&mut rng).0.index()] += 1;
        }
        assert_eq!(counts, [250; 4]);
    }

    #[test]
    fn affinity_routing_follows_table() {
        let t = trace();
        let mut w = TraceWorkload::new(t, 4, RoutingStrategy::Affinity);
        let table = w.routing_table().clone();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..500 {
            let (node, spec) = w.next(&mut rng);
            assert_eq!(node, table.node_for(spec.txn_type()));
        }
    }
}

#[cfg(test)]
mod type_rate_tests {
    use super::*;

    #[test]
    fn per_type_rates_respect_weights() {
        let t = Trace::synthesize(&TraceGenConfig::default(), 7);
        let mut weights = vec![0.0; 12];
        weights[0] = 3.0;
        weights[4] = 1.0;
        let mut w = TraceWorkload::new(t, 2, RoutingStrategy::Random).with_type_rates(weights);
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0u32; 12];
        for _ in 0..8_000 {
            let (_, spec) = w.next(&mut rng);
            counts[spec.txn_type().index()] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), counts[0] + counts[4]);
        let ratio = counts[0] as f64 / counts[4] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn per_type_replay_preserves_within_type_order() {
        let t = Trace::synthesize(&TraceGenConfig::default(), 7);
        // expected: instances of type 2 in trace order
        let expected: Vec<&TraceTxn> = t
            .txns()
            .iter()
            .filter(|x| x.txn_type == TxnTypeId::new(2))
            .take(5)
            .collect();
        let expected: Vec<Vec<PageRef>> = expected.iter().map(|x| x.refs.clone()).collect();
        let mut weights = vec![0.0; 12];
        weights[2] = 1.0;
        let mut w = TraceWorkload::new(t, 1, RoutingStrategy::Random).with_type_rates(weights);
        let mut rng = Rng::seed_from_u64(1);
        for exp in expected {
            let (_, spec) = w.next(&mut rng);
            assert_eq!(spec.refs(), &exp[..]);
        }
    }

    #[test]
    #[should_panic(expected = "one weight per transaction type")]
    fn wrong_weight_count_panics() {
        let t = Trace::synthesize(&TraceGenConfig::default(), 7);
        let _ = TraceWorkload::new(t, 1, RoutingStrategy::Random).with_type_rates(vec![1.0]);
    }
}

#[cfg(test)]
mod from_txns_tests {
    use super::*;

    fn part(pages: u64) -> PartitionConfig {
        PartitionConfig {
            name: "U".into(),
            pages,
            locking: true,
            storage: StorageAllocation::disk(2),
        }
    }

    #[test]
    fn builds_user_supplied_trace() {
        let txns = vec![
            TraceTxn {
                txn_type: TxnTypeId::new(0),
                refs: vec![PageRef::read(PageId::new(PartitionId::new(0), 3))],
            },
            TraceTxn {
                txn_type: TxnTypeId::new(1),
                refs: vec![PageRef::write(PageId::new(PartitionId::new(0), 7))],
            },
        ];
        let t = Trace::from_txns(txns, vec![part(10)]);
        let s = t.stats();
        assert_eq!(s.txn_count, 2);
        assert_eq!(s.types, 2);
        assert_eq!(s.write_refs, 1);
        // and it drives the workload machinery
        let mut w = TraceWorkload::new(t, 2, RoutingStrategy::Affinity);
        let mut rng = Rng::seed_from_u64(1);
        let (_, spec) = w.next(&mut rng);
        assert_eq!(spec.refs().len(), 1);
    }

    /// Type ids need not be dense: ids {0, 3} size the per-type index
    /// by the largest id, under either routing and with per-type rates.
    #[test]
    fn sparse_type_ids_replay_under_both_routings() {
        let txn = |ty: u16, page: u64| TraceTxn {
            txn_type: TxnTypeId::new(ty),
            refs: vec![PageRef::read(PageId::new(PartitionId::new(0), page))],
        };
        let trace = Trace::from_txns(vec![txn(0, 1), txn(3, 2), txn(3, 5)], vec![part(10)]);
        for routing in [RoutingStrategy::Random, RoutingStrategy::Affinity] {
            let mut rng = Rng::seed_from_u64(1);
            let mut w = TraceWorkload::new(trace.clone(), 2, routing);
            let replayed: Vec<usize> = (0..3)
                .map(|_| w.next(&mut rng).1.txn_type().index())
                .collect();
            assert_eq!(replayed, [0, 3, 3], "{routing:?}");

            let mut w = w.with_type_rates(vec![1.0, 0.0, 0.0, 1.0]);
            let mut seen = [0u32; 4];
            for _ in 0..200 {
                let (node, spec) = w.next(&mut rng);
                assert!(node.index() < 2);
                seen[spec.txn_type().index()] += 1;
            }
            assert_eq!(seen[1] + seen[2], 0, "{routing:?}: {seen:?}");
            assert!(seen[0] > 0 && seen[3] > 0, "{routing:?}: {seen:?}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond partition size")]
    fn rejects_out_of_range_pages() {
        let txns = vec![TraceTxn {
            txn_type: TxnTypeId::new(0),
            refs: vec![PageRef::read(PageId::new(PartitionId::new(0), 99))],
        }];
        let _ = Trace::from_txns(txns, vec![part(10)]);
    }

    #[test]
    #[should_panic(expected = "unknown partition")]
    fn rejects_unknown_partitions() {
        let txns = vec![TraceTxn {
            txn_type: TxnTypeId::new(0),
            refs: vec![PageRef::read(PageId::new(PartitionId::new(5), 0))],
        }];
        let _ = Trace::from_txns(txns, vec![part(10)]);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn rejects_empty_trace() {
        let _ = Trace::from_txns(vec![], vec![part(10)]);
    }
}
