//! Affinity-based workload allocation for trace workloads.
//!
//! §3.1: *"workload allocation can be defined by a so-called routing
//! table [...] To determine the routing tables, we applied iterative
//! heuristics that use the reference distribution of the workload and
//! the number of nodes as input parameters"* (\[Ra92b\]). This module
//! implements those heuristics: a greedy assignment of transaction
//! types to nodes followed by iterative improvement, balancing load
//! while maximizing the co-location of types that reference the same
//! files; and the corresponding GLA assignment at page-chunk
//! granularity that maximizes local lock processing.

use crate::trace::Trace;
use dbshare_model::gla::{GlaMap, PartitionGla};
use dbshare_model::{NodeId, TxnTypeId};
use std::cmp::Reverse;

/// A routing table: the node each transaction type is routed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    nodes: Vec<NodeId>,
}

impl RoutingTable {
    /// Builds a table from an explicit assignment (indexed by type).
    pub fn new(nodes: Vec<NodeId>) -> Self {
        RoutingTable { nodes }
    }

    /// The node for `txn_type`.
    ///
    /// # Panics
    ///
    /// Panics if the type is not covered by the table.
    pub fn node_for(&self, txn_type: TxnTypeId) -> NodeId {
        self.nodes[txn_type.index()]
    }

    /// Number of transaction types covered.
    pub fn types(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over `(type, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TxnTypeId, NodeId)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(t, &n)| (TxnTypeId::new(t as u16), n))
    }
}

/// Reference profile extracted from a trace: per-type load and
/// per-type-per-file reference counts.
#[derive(Debug, Clone)]
struct Profile {
    /// load[t]: total references of type t (its share of the work).
    load: Vec<u64>,
    /// tf[t * files + f]: references of type t to file f.
    tf: Vec<u64>,
    files: usize,
}

impl Profile {
    /// The files type `t` references, with its reference counts, in
    /// ascending file order.
    fn files_of(&self, t: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tf[t * self.files..(t + 1) * self.files]
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0)
    }
}

fn profile(trace: &Trace) -> Profile {
    let mut types = 0usize;
    for t in trace.txns() {
        types = types.max(t.txn_type.index() + 1);
    }
    let files = trace.partitions().len();
    let mut load = vec![0; types];
    let mut tf = vec![0; types * files];
    for t in trace.txns() {
        let ty = t.txn_type.index();
        load[ty] += t.refs.len() as u64;
        let per_file = &mut tf[ty * files..(ty + 1) * files];
        for r in &t.refs {
            per_file[r.page.partition().index()] += 1;
        }
    }
    Profile { load, tf, files }
}

/// Computes an affinity routing table for `nodes` nodes with the
/// greedy + iterative-improvement heuristic.
///
/// The objective maximizes Σ_f max_n R(f, n) — the references that land
/// on the node holding the majority of their file's traffic — subject
/// to per-node load staying within 20% of the average.
///
/// ```rust
/// use dbshare_workload::{trace::{Trace, TraceGenConfig}, routing::affinity_table};
/// let trace = Trace::synthesize(&TraceGenConfig::default(), 1);
/// let table = affinity_table(&trace, 4);
/// assert_eq!(table.types(), 12);
/// ```
pub fn affinity_table(trace: &Trace, nodes: u16) -> RoutingTable {
    let p = profile(trace);
    let types = p.load.len();
    if nodes <= 1 {
        return RoutingTable::new(vec![NodeId::new(0); types]);
    }
    let n = nodes as usize;
    let total = p.load.iter().sum::<u64>() as f64;
    let cap = total / n as f64 * 1.2;

    // Greedy: heaviest types first; prefer the node with the largest
    // file-overlap with what is already placed there.
    let mut order: Vec<usize> = (0..types).collect();
    order.sort_by_key(|&t| Reverse(p.load[t]));
    let mut assign = vec![0usize; types];
    let mut node_load = vec![0u64; n];
    // node_files[ni * files + f]: references to file f of the types placed on ni.
    let mut node_files = vec![0u64; n * p.files];
    for &t in &order {
        let mut best = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        for ni in 0..n {
            if (node_load[ni] + p.load[t]) as f64 > cap && node_load[ni] > 0 {
                continue;
            }
            let placed = &node_files[ni * p.files..(ni + 1) * p.files];
            let overlap: f64 = p
                .files_of(t)
                .map(|(f, w)| w as f64 * (placed[f] as f64).sqrt())
                .sum();
            // Light load preference breaks ties toward balance.
            let score = overlap - node_load[ni] as f64 * 1e-3;
            if score > best_score {
                best_score = score;
                best = ni;
            }
        }
        let ni = if best == usize::MAX {
            // everything over cap: take the least loaded
            (0..n).min_by_key(|&a| node_load[a]).expect("n > 0")
        } else {
            best
        };
        assign[t] = ni;
        node_load[ni] += p.load[t];
        for (f, w) in p.files_of(t) {
            node_files[ni * p.files + f] += w;
        }
    }

    // Iterative improvement: move a type if it raises the majority
    // objective without violating the load cap. The objective counts
    // references, so it is compared exactly.
    let objective = |assign: &[usize]| -> u64 {
        // rf[f * n + ni]: references to file f routed to node ni.
        let mut rf = vec![0u64; p.files * n];
        for (t, &ni) in assign.iter().enumerate() {
            for (f, w) in p.files_of(t) {
                rf[f * n + ni] += w;
            }
        }
        rf.chunks(n)
            .map(|per_node| per_node.iter().copied().max().unwrap_or(0))
            .sum()
    };
    let mut best_obj = objective(&assign);
    for _pass in 0..8 {
        let mut improved = false;
        for t in 0..types {
            let from = assign[t];
            for to in 0..n {
                if to == from || (node_load[to] + p.load[t]) as f64 > cap {
                    continue;
                }
                assign[t] = to;
                let obj = objective(&assign);
                if obj > best_obj {
                    best_obj = obj;
                    node_load[from] -= p.load[t];
                    node_load[to] += p.load[t];
                    improved = true;
                    break;
                }
                assign[t] = from;
            }
        }
        if !improved {
            break;
        }
    }

    RoutingTable::new(
        assign
            .into_iter()
            .map(|ni| NodeId::new(ni as u16))
            .collect(),
    )
}

/// Computes the PCL GLA assignment for a trace workload at page-chunk
/// granularity: each file is split into contiguous chunks of
/// `chunk_pages`, and each chunk's lock authority goes to the node that
/// references it most under `table` (with load balancing so no node
/// holds more than ~1.4× the average lock traffic).
///
/// The chunk granularity is what makes locality imperfect and *decrease*
/// with more nodes, as the paper observes for its real-life workload
/// (§4.6: local lock shares fall from 63% at 2 nodes to 35% at 8).
pub fn gla_chunks(trace: &Trace, table: &RoutingTable, nodes: u16, chunk_pages: u64) -> GlaMap {
    assert!(chunk_pages > 0, "chunk size must be positive");
    let files = trace.partitions().len();
    if nodes <= 1 {
        return GlaMap::new(1, vec![PartitionGla::Hashed; files]);
    }
    let n = nodes as usize;

    // Each touched chunk gets a row of per-node reference counts,
    // counts[row * n + node], and keys[row] names it. row_of[file][chunk]
    // holds row + 1, or 0 while the chunk is untouched; it grows to the
    // file's largest touched chunk, the length of its slots below.
    let mut row_of: Vec<Vec<u32>> = vec![Vec::new(); files];
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for t in trace.txns() {
        let node = table.node_for(t.txn_type).index();
        for r in &t.refs {
            let file = r.page.partition().index();
            let chunk =
                usize::try_from(r.page.number() / chunk_pages).expect("chunk index fits in memory");
            let rows = &mut row_of[file];
            if rows.len() <= chunk {
                rows.resize(chunk + 1, 0);
            }
            if rows[chunk] == 0 {
                keys.push((file, chunk));
                counts.resize(counts.len() + n, 0);
                rows[chunk] = u32::try_from(keys.len()).expect("fewer than 2^32 touched chunks");
            }
            counts[(rows[chunk] - 1) as usize * n + node] += 1;
        }
    }

    // Assign chunks, heaviest first (ties by file, then chunk), to their
    // majority node unless that node is already overloaded with lock
    // traffic.
    let weights: Vec<u64> = counts.chunks(n).map(|row| row.iter().sum()).collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&row| (Reverse(weights[row]), keys[row]));
    let total = weights.iter().sum::<u64>() as f64;
    let cap = total / n as f64 * 1.4;
    let mut node_traffic = vec![0u64; n];
    let mut per_file_chunks: Vec<Vec<Option<NodeId>>> =
        row_of.iter().map(|rows| vec![None; rows.len()]).collect();
    for row in order {
        let per_node = &counts[row * n..(row + 1) * n];
        let weight = weights[row];
        let mut prefs: Vec<usize> = (0..n).collect();
        prefs.sort_by_key(|&ni| Reverse(per_node[ni]));
        let target = prefs
            .iter()
            .copied()
            .find(|&ni| (node_traffic[ni] + weight) as f64 <= cap)
            .unwrap_or_else(|| (0..n).min_by_key(|&ni| node_traffic[ni]).expect("n > 0"));
        node_traffic[target] += weight;
        let (file, chunk) = keys[row];
        per_file_chunks[file][chunk] = Some(NodeId::new(target as u16));
    }

    GlaMap::new(
        nodes,
        per_file_chunks
            .into_iter()
            .map(|nodes| PartitionGla::Chunked { chunk_pages, nodes })
            .collect(),
    )
}

/// Fraction of references that land on the node holding their page's
/// GLA, under a given routing table — the *upper bound* on local lock
/// processing for PCL (protocol effects like read authorizations can
/// only add to it).
pub fn local_lock_share(trace: &Trace, table: &RoutingTable, gla: &GlaMap) -> f64 {
    let mut local = 0u64;
    let mut total = 0u64;
    for t in trace.txns() {
        let node = table.node_for(t.txn_type);
        for r in &t.refs {
            total += 1;
            if gla.gla_of(r.page) == node {
                local += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        local as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceGenConfig};

    fn trace() -> Trace {
        Trace::synthesize(&TraceGenConfig::default(), 7)
    }

    #[test]
    fn single_node_all_zero() {
        let t = trace();
        let table = affinity_table(&t, 1);
        for (_, n) in table.iter() {
            assert_eq!(n, NodeId::new(0));
        }
    }

    #[test]
    fn load_is_balanced() {
        let t = trace();
        for nodes in [2u16, 4, 8] {
            let table = affinity_table(&t, nodes);
            let mut load = vec![0u64; nodes as usize];
            for txn in t.txns() {
                load[table.node_for(txn.txn_type).index()] += txn.refs.len() as u64;
            }
            let total: u64 = load.iter().sum();
            let avg = total as f64 / nodes as f64;
            for (i, &l) in load.iter().enumerate() {
                assert!(
                    (l as f64) < avg * 1.6,
                    "{nodes} nodes: node {i} overloaded: {l} vs avg {avg}"
                );
                assert!(
                    (l as f64) > avg * 0.3,
                    "{nodes} nodes: node {i} starved: {l} vs avg {avg}"
                );
            }
        }
    }

    #[test]
    fn affinity_beats_random_gla_locality() {
        let t = trace();
        for nodes in [2u16, 4, 8] {
            let table = affinity_table(&t, nodes);
            let gla = gla_chunks(&t, &table, nodes, 512);
            let affinity_share = local_lock_share(&t, &table, &gla);
            // Random routing spreads each type round-robin; its local
            // share is ~1/N by symmetry.
            let random = 1.0 / nodes as f64;
            assert!(
                affinity_share > random + 0.1,
                "{nodes} nodes: affinity {affinity_share} vs random {random}"
            );
        }
    }

    #[test]
    fn locality_decreases_with_nodes() {
        // §4.6: raw local share falls from ~63% (2 nodes) to ~35% (8).
        let t = trace();
        let share = |nodes: u16| {
            let table = affinity_table(&t, nodes);
            let gla = gla_chunks(&t, &table, nodes, 512);
            local_lock_share(&t, &table, &gla)
        };
        let s2 = share(2);
        let s8 = share(8);
        assert!(s2 > s8, "s2={s2} s8={s8}");
        assert!((0.45..0.98).contains(&s2), "s2={s2}");
        assert!((0.25..0.75).contains(&s8), "s8={s8}");
    }

    #[test]
    fn gla_chunks_balance_lock_traffic() {
        let t = trace();
        let nodes = 4u16;
        let table = affinity_table(&t, nodes);
        let gla = gla_chunks(&t, &table, nodes, 512);
        let mut traffic = vec![0u64; nodes as usize];
        for txn in t.txns() {
            for r in &txn.refs {
                traffic[gla.gla_of(r.page).index()] += 1;
            }
        }
        let total: u64 = traffic.iter().sum();
        let avg = total as f64 / nodes as f64;
        for (i, &tr) in traffic.iter().enumerate() {
            assert!(
                (tr as f64) < avg * 1.6 && (tr as f64) > avg * 0.4,
                "node {i}: {tr} vs avg {avg}"
            );
        }
    }

    #[test]
    fn routing_table_iter_and_accessors() {
        let table = RoutingTable::new(vec![NodeId::new(1), NodeId::new(0)]);
        assert_eq!(table.types(), 2);
        assert_eq!(table.node_for(TxnTypeId::new(0)), NodeId::new(1));
        let pairs: Vec<_> = table.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], (TxnTypeId::new(1), NodeId::new(0)));
    }
}
