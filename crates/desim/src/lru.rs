//! A generic O(1) LRU cache used by the storage and buffer-manager
//! models (both the paper's disk caches and its database buffers are
//! managed LRU, §3.2/§3.3).

use crate::fxhash;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// A fixed-capacity least-recently-used cache with O(1) lookup, insert
/// and eviction.
///
/// Layout: an intrusive doubly-linked recency list over a slab of
/// slots, indexed by an open-addressed hash table (linear probing with
/// backward-shift deletion, [`fxhash`]-hashed). Each key is stored
/// exactly once — in its slab slot; the index holds only `u32` slot
/// numbers and borrows the key through them for comparisons. Keys are
/// cloned solely when an eviction returns the owned `(K, V)` pair.
///
/// ```rust
/// use desim::lru::LruCache;
/// let mut c = LruCache::new(2);
/// assert_eq!(c.insert(1, "a"), None);
/// assert_eq!(c.insert(2, "b"), None);
/// c.get(&1);                                  // 1 becomes most recent
/// let evicted = c.insert(3, "c");             // 2 is evicted
/// assert_eq!(evicted, Some((2, "b")));
/// assert!(c.contains(&1) && c.contains(&3));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    /// Open-addressed buckets holding slot numbers (`NIL` = empty).
    /// Power-of-two sized, load factor kept at or below 1/2.
    index: Vec<u32>,
    len: usize,
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache needs capacity >= 1");
        // Pre-size the bucket array for the full capacity (bounded, so
        // huge nominal capacities don't allocate up front; the table
        // grows on demand past the bound).
        let buckets = (capacity.min(1 << 20) * 2).next_power_of_two().max(8);
        LruCache {
            index: vec![NIL; buckets],
            len: 0,
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if `key` is cached (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.find_bucket(key).is_some()
    }

    // ------------------------------------------------------------------
    // Hash index (open addressing, linear probing)
    // ------------------------------------------------------------------

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    #[inline]
    fn home_bucket(&self, key: &K) -> usize {
        fxhash::hash_one(key) as usize & self.mask()
    }

    /// The bucket currently holding `key`, if cached.
    #[inline]
    fn find_bucket(&self, key: &K) -> Option<usize> {
        let mask = self.mask();
        let mut b = self.home_bucket(key);
        loop {
            let slot = self.index[b];
            if slot == NIL {
                return None;
            }
            if self.slots[slot as usize].key == *key {
                return Some(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Records `slot` (whose key is already stored in the slab) in the
    /// index, growing the table if the load factor would exceed 1/2.
    fn index_insert(&mut self, slot: u32) {
        if (self.len + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut b = self.home_bucket(&self.slots[slot as usize].key);
        while self.index[b] != NIL {
            b = (b + 1) & mask;
        }
        self.index[b] = slot;
    }

    /// Empties `bucket`, restoring the probe invariant by backward
    /// shifting: any displaced entry whose home lies at or before the
    /// freed hole moves into it.
    fn index_remove_bucket(&mut self, bucket: usize) {
        let mask = self.mask();
        let mut hole = bucket;
        let mut b = (bucket + 1) & mask;
        loop {
            let slot = self.index[b];
            if slot == NIL {
                break;
            }
            let home = self.home_bucket(&self.slots[slot as usize].key);
            // Distance from home to candidate vs. from hole to candidate
            // (circular): if the hole lies within the entry's probe
            // path, the entry can — and must — move back into it.
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.index[hole] = NIL;
    }

    /// Doubles the bucket array and reinserts every live slot.
    fn grow(&mut self) {
        let new_len = self.index.len() * 2;
        self.index.clear();
        self.index.resize(new_len, NIL);
        let mask = new_len - 1;
        let mut cur = self.head;
        while cur != NIL {
            let mut b = fxhash::hash_one(&self.slots[cur as usize].key) as usize & mask;
            while self.index[b] != NIL {
                b = (b + 1) & mask;
            }
            self.index[b] = cur;
            cur = self.slots[cur as usize].next;
        }
    }

    // ------------------------------------------------------------------
    // Recency list
    // ------------------------------------------------------------------

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: u32) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = self.index[self.find_bucket(key)?];
        self.touch(idx);
        self.slots[idx as usize].value.as_ref()
    }

    /// Looks up `key` mutably, marking it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.index[self.find_bucket(key)?];
        self.touch(idx);
        self.slots[idx as usize].value.as_mut()
    }

    /// Looks up `key` *without* touching recency (for inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = self.index[self.find_bucket(key)?];
        self.slots[idx as usize].value.as_ref()
    }

    /// Inserts or updates `key`, marking it most recently used. If the
    /// cache was full and a *different* key had to make room, the
    /// evicted `(key, value)` pair is returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(b) = self.find_bucket(&key) {
            let idx = self.index[b];
            self.slots[idx as usize].value = Some(value);
            self.touch(idx);
            return None;
        }
        let evicted = if self.len == self.capacity {
            self.pop_lru_inner()
        } else {
            None
        };
        let idx = if let Some(i) = self.free.pop() {
            let slot = &mut self.slots[i as usize];
            slot.key = key;
            slot.value = Some(value);
            i
        } else {
            self.slots.push(Slot {
                key,
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.push_front(idx);
        self.index_insert(idx);
        self.len += 1;
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let b = self.find_bucket(key)?;
        let idx = self.index[b];
        self.index_remove_bucket(b);
        self.unlink(idx);
        self.free.push(idx);
        self.len -= 1;
        self.slots[idx as usize].value.take()
    }

    fn pop_lru_inner(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let b = self
            .find_bucket(&self.slots[idx as usize].key)
            .expect("tail slot must be indexed");
        self.index_remove_bucket(b);
        let key = self.slots[idx as usize].key.clone();
        let value = self.slots[idx as usize].value.take();
        self.unlink(idx);
        self.free.push(idx);
        self.len -= 1;
        value.map(|v| (key, v))
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        self.pop_lru_inner()
    }

    /// Iterates from most to least recently used (O(n), for tests and
    /// statistics).
    pub fn iter_mru(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            while cur != NIL {
                let s = &self.slots[cur as usize];
                cur = s.next;
                if let Some(v) = s.value.as_ref() {
                    return Some((&s.key, v));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_basics() {
        let mut c = LruCache::new(3);
        assert!(c.is_empty());
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"z"), None);
        assert!(c.contains(&"b"));
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.get(&1);
        let ev = c.insert(3, 'c');
        assert_eq!(ev, Some((2, 'b')));
        assert!(c.contains(&1) && c.contains(&3) && !c.contains(&2));
    }

    #[test]
    fn update_existing_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        let ev = c.insert(1, 'x');
        assert_eq!(ev, None);
        assert_eq!(c.get(&1), Some(&'x'));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_mut_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        *c.get_mut(&1).unwrap() += 5;
        c.insert(3, 30); // evicts 2, not 1
        assert_eq!(c.peek(&1), Some(&15));
        assert!(!c.contains(&2));
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.peek(&1);
        let ev = c.insert(3, 'c');
        assert_eq!(ev, Some((1, 'a'))); // 1 stayed LRU despite the peek
    }

    #[test]
    fn remove_frees_capacity() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        assert_eq!(c.remove(&1), Some('a'));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        let ev = c.insert(3, 'c');
        assert_eq!(ev, None); // room was available
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.insert(3, 'c');
        c.get(&1);
        assert_eq!(c.pop_lru(), Some((2, 'b')));
        assert_eq!(c.pop_lru(), Some((3, 'c')));
        assert_eq!(c.pop_lru(), Some((1, 'a')));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_mru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&2);
        let order: Vec<i32> = c.iter_mru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for i in 0..100 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&99), Some(&990));
        assert_eq!(c.peek(&98), Some(&980));
        // slab did not grow beyond capacity (+1 transient)
        assert!(c.slots.len() <= 3, "{}", c.slots.len());
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1, 'a'), None);
        assert_eq!(c.insert(2, 'b'), Some((1, 'a')));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn interleaved_remove_insert_consistency() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        c.remove(&2);
        c.insert(10, 10);
        c.insert(11, 11); // evicts 0 (LRU)
        assert!(!c.contains(&0));
        let keys: Vec<i32> = c.iter_mru().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![11, 10, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u8, u8>::new(0);
    }

    /// Churn far past the initial bucket-array bound to exercise probe
    /// wraparound, backward-shift deletion, and table growth together,
    /// cross-checked against a naive model.
    #[test]
    fn index_matches_model_under_churn() {
        let mut c: LruCache<u64, u64> = LruCache::new(64);
        let mut model: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut order: std::collections::VecDeque<u64> = Default::default(); // LRU..MRU
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 257; // collide-heavy key space
            match x % 10 {
                0..=6 => {
                    let ev = c.insert(key, step);
                    if model.insert(key, step).is_some() {
                        order.retain(|&k| k != key);
                        assert_eq!(ev, None);
                    } else if model.len() > 64 {
                        let lru = order.pop_front().unwrap();
                        let gone = model.remove(&lru).unwrap();
                        assert_eq!(ev, Some((lru, gone)));
                    } else {
                        assert_eq!(ev, None);
                    }
                    order.push_back(key);
                }
                7 | 8 => {
                    let got = c.get(&key).copied();
                    assert_eq!(got, model.get(&key).copied());
                    if got.is_some() {
                        order.retain(|&k| k != key);
                        order.push_back(key);
                    }
                }
                _ => {
                    let got = c.remove(&key);
                    assert_eq!(got, model.remove(&key));
                    order.retain(|&k| k != key);
                }
            }
            assert_eq!(c.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(c.peek(k), Some(v), "key {k} lost");
        }
    }
}
