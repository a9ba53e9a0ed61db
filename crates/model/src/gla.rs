//! Global Lock Authority (GLA) maps for primary copy locking.
//!
//! PCL logically partitions the database and assigns each node the
//! synchronization responsibility (GLA) for one partition (\[Ra86\],
//! §3.2 of the paper). The map from page to GLA node is computed by the
//! workload builders (which know the reference distribution) and
//! consumed by the lock manager, so it lives here in the shared model.

use crate::{NodeId, PageId};

/// Per-partition GLA assignment rule.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionGla {
    /// Pages are grouped into `units` equal blocks of `unit_pages`
    /// pages each (debit-credit: one unit per branch), and unit `u` is
    /// assigned to node `u * nodes / units` — contiguous ranges, as in
    /// the paper's branch-based GLA allocation.
    Ranged {
        /// Number of logical units (branches) in the partition.
        units: u64,
        /// Pages per unit.
        unit_pages: u64,
    },
    /// Pages are grouped into chunks of `chunk_pages` pages, and chunk
    /// `c` (pages `c * chunk_pages ..`) is assigned to `nodes[c]`
    /// (trace workloads: the routing heuristics assign lock authority
    /// per chunk). A `None` slot, or a chunk past the end of `nodes`,
    /// falls back to hashing.
    Chunked {
        /// Pages per chunk (positive).
        chunk_pages: u64,
        /// GLA node per chunk, indexed by chunk number.
        nodes: Vec<Option<NodeId>>,
    },
    /// Pages of this partition are hashed across nodes.
    Hashed,
    /// Every page of this partition is assigned to one fixed node
    /// (central lock manager configurations).
    Fixed(NodeId),
}

/// Maps every page to the node holding its global lock authority.
///
/// ```rust
/// use dbshare_model::{gla::{GlaMap, PartitionGla}, PageId, PartitionId, NodeId};
/// // 100 branches of 1 page each over 4 nodes: branch 0 -> N0, branch 99 -> N3
/// let map = GlaMap::new(4, vec![PartitionGla::Ranged { units: 100, unit_pages: 1 }]);
/// assert_eq!(map.gla_of(PageId::new(PartitionId::new(0), 0)), NodeId::new(0));
/// assert_eq!(map.gla_of(PageId::new(PartitionId::new(0), 99)), NodeId::new(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlaMap {
    nodes: u16,
    rules: Vec<PartitionGla>,
}

impl GlaMap {
    /// Creates a map over `nodes` nodes with one rule per partition
    /// (indexed by partition id).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u16, rules: Vec<PartitionGla>) -> Self {
        assert!(nodes > 0, "GLA map needs at least one node");
        GlaMap { nodes, rules }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// A map assigning *every* page of `partitions` partitions to node
    /// 0: the classic central lock manager, where one node processes
    /// the whole system's lock traffic by messages (\[Ra91b\] surveys
    /// this baseline).
    pub fn central(nodes: u16, partitions: usize) -> Self {
        GlaMap::new(nodes, vec![PartitionGla::Fixed(NodeId::new(0)); partitions])
    }

    /// The GLA node of `page`. Partitions without a rule fall back to
    /// hashing.
    pub fn gla_of(&self, page: PageId) -> NodeId {
        let rule = self.rules.get(page.partition().index());
        match rule {
            Some(PartitionGla::Ranged { units, unit_pages }) => {
                let unit = (page.number() / unit_pages).min(units - 1);
                NodeId::new((unit as u128 * self.nodes as u128 / *units as u128) as u16)
            }
            Some(PartitionGla::Chunked { chunk_pages, nodes }) => {
                usize::try_from(page.number() / chunk_pages)
                    .ok()
                    .and_then(|chunk| nodes.get(chunk).copied().flatten())
                    .unwrap_or_else(|| self.hash_node(page))
            }
            Some(PartitionGla::Fixed(node)) => *node,
            Some(PartitionGla::Hashed) | None => self.hash_node(page),
        }
    }

    fn hash_node(&self, page: PageId) -> NodeId {
        // FNV-1a over (partition, number) for a stable spread.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in page
            .partition()
            .raw()
            .to_le_bytes()
            .into_iter()
            .chain(page.number().to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        NodeId::new((h % self.nodes as u64) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionId;

    fn page(p: u16, n: u64) -> PageId {
        PageId::new(PartitionId::new(p), n)
    }

    #[test]
    fn ranged_assignment_contiguous_and_balanced() {
        // 100 units, 10 pages each, 4 nodes: each node owns 25 units.
        let map = GlaMap::new(
            4,
            vec![PartitionGla::Ranged {
                units: 100,
                unit_pages: 10,
            }],
        );
        let mut counts = [0u32; 4];
        for unit in 0..100u64 {
            let n = map.gla_of(page(0, unit * 10 + 3));
            counts[n.index()] += 1;
            // all pages of one unit map to the same node
            assert_eq!(n, map.gla_of(page(0, unit * 10)));
            assert_eq!(n, map.gla_of(page(0, unit * 10 + 9)));
        }
        assert_eq!(counts, [25, 25, 25, 25]);
        // contiguity: units 0..24 on node 0
        assert_eq!(map.gla_of(page(0, 0)), NodeId::new(0));
        assert_eq!(map.gla_of(page(0, 249)), NodeId::new(0));
        assert_eq!(map.gla_of(page(0, 250)), NodeId::new(1));
    }

    #[test]
    fn ranged_clamps_overflow_pages() {
        let map = GlaMap::new(
            2,
            vec![PartitionGla::Ranged {
                units: 10,
                unit_pages: 1,
            }],
        );
        // page beyond the nominal units clamps to the last unit
        assert_eq!(map.gla_of(page(0, 500)), NodeId::new(1));
    }

    #[test]
    fn chunked_with_hash_fallback() {
        let map = GlaMap::new(
            3,
            vec![PartitionGla::Chunked {
                chunk_pages: 4,
                nodes: vec![None, Some(NodeId::new(2))],
            }],
        );
        for n in 4..8 {
            assert_eq!(map.gla_of(page(0, n)), NodeId::new(2));
        }
        // an empty slot and a chunk past the end both hash
        for n in [0, 3, 8, 1 << 40] {
            assert_eq!(map.gla_of(page(0, n)), map.hash_node(page(0, n)));
        }
    }

    /// The chunk rule answers exactly like a per-page reference: every
    /// page of an assigned chunk expanded into a `HashMap`, and every
    /// other page hashed. Seeded random assignments leave some chunks
    /// unreferenced, and the probes run past the last chunk.
    #[test]
    fn chunked_matches_a_per_page_reference() {
        use desim::Rng;
        use std::collections::HashMap;
        let mut rng = Rng::seed_from_u64(0x61A);
        for _ in 0..40 {
            let nodes = 2 + rng.below(7) as u16;
            let files = 1 + rng.below(3) as usize;
            let chunk_pages = 1 + rng.below(16);
            let mut rules = Vec::new();
            let mut reference: Vec<HashMap<u64, NodeId>> = Vec::new();
            for _ in 0..files {
                let chunks = rng.below(12) as usize;
                let mut slots = vec![None; chunks];
                let mut per_page = HashMap::new();
                for (chunk, slot) in slots.iter_mut().enumerate() {
                    if rng.below(3) == 0 {
                        continue; // unreferenced chunk
                    }
                    let node = NodeId::new(rng.below(u64::from(nodes)) as u16);
                    *slot = Some(node);
                    let first = chunk as u64 * chunk_pages;
                    for p in first..first + chunk_pages {
                        per_page.insert(p, node);
                    }
                }
                rules.push(PartitionGla::Chunked {
                    chunk_pages,
                    nodes: slots,
                });
                reference.push(per_page);
            }
            let map = GlaMap::new(nodes, rules);
            for (file, per_page) in reference.iter().enumerate() {
                let end = 14 * chunk_pages;
                for n in (0..end).chain([1 << 47, (1 << 48) - 1]) {
                    let p = page(file as u16, n);
                    let want = per_page
                        .get(&n)
                        .copied()
                        .unwrap_or_else(|| map.hash_node(p));
                    assert_eq!(map.gla_of(p), want, "file {file} page {n}");
                }
            }
        }
    }

    #[test]
    fn hashed_spread_is_roughly_uniform() {
        let map = GlaMap::new(4, vec![PartitionGla::Hashed]);
        let mut counts = [0u32; 4];
        for n in 0..10_000u64 {
            counts[map.gla_of(page(0, n)).index()] += 1;
        }
        for c in counts {
            assert!((2_000..3_000).contains(&c), "{c}");
        }
    }

    #[test]
    fn missing_rule_falls_back_to_hash() {
        let map = GlaMap::new(2, vec![]);
        let n = map.gla_of(page(9, 1234));
        assert!(n.index() < 2);
    }

    #[test]
    fn central_map_sends_everything_to_node_zero() {
        let map = GlaMap::central(4, 3);
        for part in 0..3u16 {
            for n in [0u64, 17, 9999] {
                assert_eq!(
                    map.gla_of(PageId::new(PartitionId::new(part), n)),
                    NodeId::new(0)
                );
            }
        }
    }

    #[test]
    fn single_node_everything_local() {
        let map = GlaMap::new(
            1,
            vec![PartitionGla::Ranged {
                units: 100,
                unit_pages: 1,
            }],
        );
        for i in 0..100 {
            assert_eq!(map.gla_of(page(0, i)), NodeId::new(0));
        }
    }
}
