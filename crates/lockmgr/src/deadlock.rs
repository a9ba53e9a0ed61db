//! Deadlock detection over waits-for graphs (§3.2).
//!
//! The debit-credit workload is deadlock-free by construction (all
//! transactions reference the record types in the same order), but the
//! simulator supports arbitrary reference strings, so a detector is
//! required. The engine's scan runs in two stages: [`has_cycle`] checks
//! a reduced graph (see
//! [`LockTable::reduced_waits_for_edges`](crate::LockTable::reduced_waits_for_edges))
//! in linear time, and only when it reports a cycle does [`find_cycle`]
//! search the full, sorted edge list by depth-first search. The victim
//! is the youngest transaction in the cycle found (highest id), which
//! restarts after a delay.

use dbshare_model::TxnId;
use desim::fxhash::{self, FxHashMap, FxHashSet};

/// True if the waits-for graph has a cycle. Ids are mapped to dense
/// indices, the adjacency is laid out as compressed sparse rows, and
/// Kahn's algorithm peels off nodes without incoming edges: a cycle
/// exists iff some node is never peeled. O(V + E); duplicate edges are
/// harmless.
///
/// ```rust
/// use dbshare_lockmgr::deadlock::has_cycle;
/// use dbshare_model::TxnId;
/// let t = TxnId::new;
/// assert!(has_cycle(&[(t(1), t(2)), (t(2), t(3)), (t(3), t(1))]));
/// assert!(!has_cycle(&[(t(1), t(2)), (t(2), t(3)), (t(1), t(3))]));
/// ```
pub fn has_cycle(edges: &[(TxnId, TxnId)]) -> bool {
    if edges.is_empty() {
        return false; // the usual scan: nothing waits, nothing to allocate
    }
    let mut index: FxHashMap<TxnId, u32> = fxhash::map_with_capacity(edges.len());
    let mut dense = |t: TxnId| {
        let next = index.len() as u32;
        *index.entry(t).or_insert(next)
    };
    let arcs: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (dense(a), dense(b))).collect();
    let nodes = index.len();
    // Compressed adjacency: row `n` is `succ[start[n]..start[n + 1]]`.
    // `start` first holds each row's end; filling rows back to front
    // moves it to the row's start.
    let mut start = vec![0u32; nodes + 1];
    let mut indegree = vec![0u32; nodes];
    for &(a, b) in &arcs {
        start[a as usize] += 1;
        indegree[b as usize] += 1;
    }
    for i in 1..=nodes {
        start[i] += start[i - 1];
    }
    let mut succ = vec![0u32; arcs.len()];
    for &(a, b) in &arcs {
        start[a as usize] -= 1;
        succ[start[a as usize] as usize] = b;
    }
    let mut ready: Vec<u32> = (0..nodes as u32)
        .filter(|&n| indegree[n as usize] == 0)
        .collect();
    let mut peeled = 0;
    while let Some(n) = ready.pop() {
        peeled += 1;
        for &s in &succ[start[n as usize] as usize..start[n as usize + 1] as usize] {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                ready.push(s);
            }
        }
    }
    peeled < nodes
}

/// Finds one cycle in the waits-for graph, if any, returning the
/// transactions on it. Roots are tried in id order and successors in
/// edge order, so a sorted edge list gives a reproducible cycle.
///
/// ```rust
/// use dbshare_lockmgr::deadlock::find_cycle;
/// use dbshare_model::TxnId;
/// let t = TxnId::new;
/// // 1 -> 2 -> 1 deadlock
/// let cycle = find_cycle(&[(t(1), t(2)), (t(2), t(1))]).unwrap();
/// assert_eq!(cycle.len(), 2);
/// ```
pub fn find_cycle(edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
    let mut adj: FxHashMap<TxnId, Vec<TxnId>> = FxHashMap::default();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut visited: FxHashSet<TxnId> = FxHashSet::default();
    let mut nodes: Vec<TxnId> = adj.keys().copied().collect();
    nodes.sort_unstable();
    // Iterative DFS with an explicit path for cycle extraction. The
    // stack, path and on-path set are empty again whenever a root
    // finishes, so one set of buffers serves every root.
    let mut stack: Vec<(TxnId, usize)> = Vec::new();
    let mut path: Vec<TxnId> = Vec::new();
    let mut on_path: FxHashSet<TxnId> = FxHashSet::default();
    for start in nodes {
        if visited.contains(&start) {
            continue;
        }
        stack.push((start, 0));
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx == 0 {
                path.push(node);
                on_path.insert(node);
            }
            let next = adj.get(&node).and_then(|v| v.get(*idx)).copied();
            match next {
                Some(succ) => {
                    *idx += 1;
                    if on_path.contains(&succ) {
                        let pos = path
                            .iter()
                            .position(|&t| t == succ)
                            .expect("on_path implies in path");
                        return Some(path[pos..].to_vec());
                    }
                    if !visited.contains(&succ) {
                        stack.push((succ, 0));
                    }
                }
                None => {
                    visited.insert(node);
                    on_path.remove(&node);
                    path.pop();
                    stack.pop();
                }
            }
        }
    }
    None
}

/// Selects the victim of a deadlock: the youngest transaction (highest
/// id — ids are assigned in arrival order), so older work is preserved.
///
/// # Panics
///
/// Panics if `cycle` is empty.
pub fn choose_victim(cycle: &[TxnId]) -> TxnId {
    *cycle.iter().max().expect("cycle is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn no_cycle_in_dag() {
        let edges = vec![(t(1), t(2)), (t(2), t(3)), (t(1), t(3))];
        assert_eq!(find_cycle(&edges), None);
        assert!(!has_cycle(&edges));
    }

    #[test]
    fn finds_two_cycle() {
        let edges = vec![(t(1), t(2)), (t(2), t(1))];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
        assert!(has_cycle(&edges));
    }

    #[test]
    fn finds_longer_cycle_among_noise() {
        let edges = vec![
            (t(9), t(1)),
            (t(1), t(2)),
            (t(2), t(3)),
            (t(3), t(4)),
            (t(4), t(2)), // cycle 2-3-4
            (t(5), t(6)),
        ];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c.len(), 3);
        for x in [2, 3, 4] {
            assert!(c.contains(&t(x)), "{c:?}");
        }
        assert!(has_cycle(&edges));
    }

    #[test]
    fn self_wait_is_a_cycle() {
        // should not occur in practice, but must not hang
        let edges = vec![(t(1), t(1))];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c, vec![t(1)]);
        assert!(has_cycle(&edges));
    }

    #[test]
    fn empty_graph_no_cycle() {
        assert_eq!(find_cycle(&[]), None);
        assert!(!has_cycle(&[]));
    }

    #[test]
    fn duplicate_edges_are_not_a_cycle() {
        let edges = vec![(t(1), t(2)), (t(1), t(2)), (t(2), t(3)), (t(1), t(2))];
        assert!(!has_cycle(&edges));
    }

    #[test]
    fn victim_is_youngest() {
        assert_eq!(choose_victim(&[t(3), t(7), t(5)]), t(7));
    }

    #[test]
    fn deterministic_on_disjoint_cycles() {
        // two disjoint cycles: detector returns one deterministically
        let edges = vec![(t(10), t(11)), (t(11), t(10)), (t(2), t(3)), (t(3), t(2))];
        let c1 = find_cycle(&edges).unwrap();
        let c2 = find_cycle(&edges).unwrap();
        assert_eq!(c1, c2);
        // starts from the smallest id: finds the 2-3 cycle
        assert!(c1.contains(&t(2)));
    }

    #[test]
    fn later_roots_still_find_cycles() {
        // Root 1 finishes acyclic; the cycle hangs off root 5 and reuses
        // the DFS buffers root 1 left empty.
        let edges = vec![(t(1), t(2)), (t(5), t(6)), (t(6), t(7)), (t(7), t(6))];
        assert_eq!(find_cycle(&edges), Some(vec![t(6), t(7)]));
    }
}
