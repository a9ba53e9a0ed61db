//! The per-node main-memory database buffer (§3.2).
//!
//! An LRU-managed page buffer with dirty tracking and sequence-number
//! based invalidation detection. Page copies remain cached beyond the
//! end of the accessing transaction, which is what makes them
//! susceptible to invalidation by other nodes — detected here by
//! comparing the cached copy's sequence number against the current one
//! from the lock table (no extra communication, §3.2).

use dbshare_model::PageId;
use desim::lru::LruCache;

/// A buffered page copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Version of the cached copy.
    pub seqno: u64,
    /// Modified since it was last written to external storage.
    pub dirty: bool,
}

/// What putting a page copy in the buffer did to its set of copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// The buffer held no copy of the page before.
    pub added: bool,
    /// The copy evicted to make room, clean or dirty.
    pub evicted: Option<(PageId, Frame)>,
}

/// Outcome of a buffer lookup against the current version number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Valid copy cached.
    Hit,
    /// A copy was cached but is obsolete (buffer invalidation); it has
    /// been dropped from the buffer.
    Invalidated,
    /// No copy cached.
    Miss,
}

/// Per-partition buffer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferCounters {
    /// Valid-copy hits.
    pub hits: u64,
    /// Lookups that found no copy.
    pub misses: u64,
    /// Lookups that found an obsolete copy.
    pub invalidations: u64,
}

impl BufferCounters {
    /// Hit ratio over all lookups (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidations;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The LRU database buffer of one processing node.
///
/// ```rust
/// use dbshare_node::buffer::{BufferManager, Lookup};
/// use dbshare_model::{PageId, PartitionId};
/// let mut buf = BufferManager::new(2, 1);
/// let p = PageId::new(PartitionId::new(0), 7);
/// assert_eq!(buf.lookup(p, 0), Lookup::Miss);
/// buf.insert(p, 0, false);
/// assert_eq!(buf.lookup(p, 0), Lookup::Hit);
/// assert_eq!(buf.lookup(p, 1), Lookup::Invalidated); // newer version exists
/// ```
#[derive(Debug)]
pub struct BufferManager {
    lru: LruCache<PageId, Frame>,
    counters: Vec<BufferCounters>,
}

impl BufferManager {
    /// Creates a buffer of `capacity` page frames for a database of
    /// `partitions` partitions (statistics are kept per partition).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `partitions == 0`.
    pub fn new(capacity: u64, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        BufferManager {
            lru: LruCache::new(capacity as usize),
            counters: vec![BufferCounters::default(); partitions],
        }
    }

    /// Looks `page` up and validates it against `current_seqno` (from
    /// the global lock table / GLA). Invalidated copies are dropped.
    pub fn lookup(&mut self, page: PageId, current_seqno: u64) -> Lookup {
        let c = &mut self.counters[page.partition().index()];
        match self.lru.get(&page) {
            Some(frame) if frame.seqno >= current_seqno => {
                c.hits += 1;
                Lookup::Hit
            }
            Some(_) => {
                c.invalidations += 1;
                self.lru.remove(&page);
                Lookup::Invalidated
            }
            None => {
                c.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Looks `page` up without version validation (partitions not under
    /// lock-based coherency, e.g. the latched HISTORY tail).
    pub fn lookup_unversioned(&mut self, page: PageId) -> Lookup {
        let c = &mut self.counters[page.partition().index()];
        if self.lru.get(&page).is_some() {
            c.hits += 1;
            Lookup::Hit
        } else {
            c.misses += 1;
            Lookup::Miss
        }
    }

    /// Inserts (or refreshes) a page copy. Reports whether the buffer
    /// held no copy of the page before, and the copy evicted to make
    /// room, clean or dirty (a dirty one must be written back).
    pub fn insert(&mut self, page: PageId, seqno: u64, dirty: bool) -> Placed {
        let len = self.lru.len();
        let evicted = self.lru.insert(page, Frame { seqno, dirty });
        Placed {
            added: evicted.is_some() || self.lru.len() > len,
            evicted,
        }
    }

    /// Marks a cached page as modified with its new version number
    /// (commit time). If the page was meanwhile replaced, it is
    /// re-inserted dirty — the transaction's copy still exists
    /// conceptually. Reports what [`insert`](Self::insert) reports.
    pub fn mark_dirty(&mut self, page: PageId, new_seqno: u64) -> Placed {
        if let Some(f) = self.lru.get_mut(&page) {
            f.seqno = new_seqno;
            f.dirty = true;
            Placed {
                added: false,
                evicted: None,
            }
        } else {
            self.insert(page, new_seqno, true)
        }
    }

    /// The cached copy's version, if present (does not touch recency).
    pub fn cached_seqno(&self, page: PageId) -> Option<u64> {
        self.lru.peek(&page).map(|f| f.seqno)
    }

    /// True if a dirty copy of `page` is buffered (does not touch
    /// recency). Used to avoid clearing global ownership while a newer
    /// modification is still unwritten.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.lru.peek(&page).map(|f| f.dirty).unwrap_or(false)
    }

    /// True if a valid copy (at least `current_seqno`) is cached; does
    /// not touch recency or statistics.
    pub fn has_valid(&self, page: PageId, current_seqno: u64) -> bool {
        self.lru
            .peek(&page)
            .map(|f| f.seqno >= current_seqno)
            .unwrap_or(false)
    }

    /// The buffered pages, most recently used first (does not touch
    /// recency).
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.lru.iter_mru().map(|(&page, _)| page)
    }

    /// Pages currently buffered.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Per-partition counters.
    pub fn counters(&self, partition: usize) -> BufferCounters {
        self.counters[partition]
    }

    /// Resets all counters (end of warm-up).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = BufferCounters::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::PartitionId;

    fn page(p: u16, n: u64) -> PageId {
        PageId::new(PartitionId::new(p), n)
    }

    #[test]
    fn miss_then_hit() {
        let mut b = BufferManager::new(4, 1);
        assert_eq!(b.lookup(page(0, 1), 0), Lookup::Miss);
        b.insert(page(0, 1), 0, false);
        assert_eq!(b.lookup(page(0, 1), 0), Lookup::Hit);
        let c = b.counters(0);
        assert_eq!((c.hits, c.misses, c.invalidations), (1, 1, 0));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidation_detected_and_dropped() {
        let mut b = BufferManager::new(4, 1);
        b.insert(page(0, 1), 3, false);
        assert_eq!(b.lookup(page(0, 1), 5), Lookup::Invalidated);
        // the obsolete copy is gone
        assert_eq!(b.lookup(page(0, 1), 5), Lookup::Miss);
        assert_eq!(b.counters(0).invalidations, 1);
    }

    #[test]
    fn newer_cached_copy_is_valid() {
        // the local copy may be newer than the requester's knowledge
        let mut b = BufferManager::new(4, 1);
        b.insert(page(0, 1), 7, true);
        assert_eq!(b.lookup(page(0, 1), 5), Lookup::Hit);
    }

    #[test]
    fn dirty_eviction_surfaces() {
        let mut b = BufferManager::new(2, 1);
        b.insert(page(0, 1), 0, true);
        b.insert(page(0, 2), 0, false);
        let placed = b.insert(page(0, 3), 0, false);
        assert_eq!(
            placed,
            Placed {
                added: true,
                evicted: Some((
                    page(0, 1),
                    Frame {
                        seqno: 0,
                        dirty: true
                    }
                )),
            }
        );
    }

    #[test]
    fn clean_eviction_is_reported() {
        let mut b = BufferManager::new(1, 1);
        assert_eq!(
            b.insert(page(0, 1), 3, false),
            Placed {
                added: true,
                evicted: None,
            }
        );
        let placed = b.insert(page(0, 2), 0, false);
        assert!(placed.added);
        assert_eq!(
            placed.evicted,
            Some((
                page(0, 1),
                Frame {
                    seqno: 3,
                    dirty: false
                }
            ))
        );
    }

    #[test]
    fn refresh_adds_no_copy() {
        let mut b = BufferManager::new(1, 1);
        b.insert(page(0, 1), 0, false);
        assert_eq!(
            b.insert(page(0, 1), 2, true),
            Placed {
                added: false,
                evicted: None,
            }
        );
        assert!(b.is_dirty(page(0, 1)));
        assert_eq!(b.pages().collect::<Vec<_>>(), vec![page(0, 1)]);
    }

    #[test]
    fn mark_dirty_updates_version() {
        let mut b = BufferManager::new(2, 1);
        b.insert(page(0, 1), 0, false);
        let placed = b.mark_dirty(page(0, 1), 1);
        assert_eq!(
            placed,
            Placed {
                added: false,
                evicted: None,
            }
        );
        assert_eq!(b.cached_seqno(page(0, 1)), Some(1));
        assert!(b.has_valid(page(0, 1), 1));
        assert!(!b.has_valid(page(0, 1), 2));
    }

    #[test]
    fn mark_dirty_reinserts_if_replaced() {
        let mut b = BufferManager::new(1, 1);
        b.insert(page(0, 1), 0, false);
        b.insert(page(0, 2), 0, false); // 1 evicted (clean)
        let placed = b.mark_dirty(page(0, 1), 4); // 2 evicted, clean
        assert!(placed.added);
        assert_eq!(
            placed.evicted.map(|(p, f)| (p, f.dirty)),
            Some((page(0, 2), false))
        );
        assert_eq!(b.cached_seqno(page(0, 1)), Some(4));
        assert!(b.is_dirty(page(0, 1)));
    }

    #[test]
    fn unversioned_lookup() {
        let mut b = BufferManager::new(2, 2);
        assert_eq!(b.lookup_unversioned(page(1, 5)), Lookup::Miss);
        b.insert(page(1, 5), 0, true);
        assert_eq!(b.lookup_unversioned(page(1, 5)), Lookup::Hit);
        assert_eq!(b.counters(1).hits, 1);
        assert_eq!(b.counters(0).hits, 0);
    }

    #[test]
    fn per_partition_counters_and_reset() {
        let mut b = BufferManager::new(4, 2);
        b.lookup(page(0, 1), 0);
        b.lookup(page(1, 1), 0);
        assert_eq!(b.counters(0).misses, 1);
        assert_eq!(b.counters(1).misses, 1);
        b.reset_counters();
        assert_eq!(b.counters(0), BufferCounters::default());
    }

    #[test]
    fn lru_capacity_respected() {
        let mut b = BufferManager::new(3, 1);
        for i in 0..10 {
            b.insert(page(0, i), 0, false);
        }
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(b.has_valid(page(0, 9), 0));
        assert!(!b.has_valid(page(0, 0), 0));
    }
}
