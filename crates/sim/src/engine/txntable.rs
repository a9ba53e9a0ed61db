//! Slab storage for live transactions.
//!
//! `TxnId`s are allocated densely (a monotonically increasing counter,
//! never reused — deadlock victim selection depends on that ordering),
//! so the per-event transaction lookup does not need a hash map at
//! all: a flat `index` vector maps `TxnId::raw()` to a slot in a slab
//! of `Option<Txn>`, making `get`/`get_mut` two array indexes. Slots
//! are recycled through a free list.
//!
//! The API mirrors the `HashMap<TxnId, Txn>` it replaced, so call
//! sites read identically. Iteration is in slot order — deterministic
//! (unlike the randomly seeded `std` map it replaced), but *not* id
//! order; callers that feed iteration into output sort first, exactly
//! as they had to before.
//!
//! The index is a *sliding window*: ids are monotonic and the live set
//! is bounded by the MPL, so once the all-`NIL` prefix of completed
//! transactions dominates the vector it is drained and `base` advanced
//! ([`TxnTable::compact`]). Lookups below `base` resolve to `None` —
//! exactly what the retained `NIL` entries resolved to — so compaction
//! is invisible to every caller while bounding index memory to the
//! live id *span* instead of 4 bytes per transaction ever admitted
//! (hundreds of megabytes on billion-event scale runs).

use super::Txn;
use dbshare_model::{NodeId, TxnId, TxnSpec};
use desim::SimTime;

const NIL: u32 = u32::MAX;

/// The index's initial capacity. Compaction is attempted only when the
/// index is full, so the paper-scale runs, which stay under it, keep
/// their exact historical allocation profile; scale runs fill it
/// within the first second of sim time.
const COMPACT_MIN: usize = 1 << 14;

/// Converts a slab position to its `u32` slot index, refusing to wrap
/// into the `NIL` sentinel: at 2^32-1 concurrently live transactions
/// the table fails loudly instead of silently aliasing slot `NIL`
/// (which every lookup treats as "completed").
fn checked_slot(pos: usize) -> u32 {
    match u32::try_from(pos) {
        Ok(s) if s != NIL => s,
        _ => panic!(
            "TxnTable slab overflow: {pos} concurrent transactions exceed the u32 slot range"
        ),
    }
}

#[derive(Debug)]
pub(crate) struct TxnTable {
    /// A slot holds either a live transaction, a *retired* one
    /// ([`Self::retire`]) whose storage waits in place for the next
    /// admission, or `None` after an abort ([`Self::remove`]). Retired
    /// slots are distinguished by their id mapping to `NIL` in `index`.
    slots: Vec<Option<Txn>>,
    free: Vec<u32>,
    /// `TxnId::raw() - base → slot`, `NIL` once completed/aborted.
    index: Vec<u32>,
    /// First id still covered by `index`; every id below it completed.
    base: u64,
    live: usize,
}

impl TxnTable {
    /// Creates a table pre-sized for `live` concurrently active
    /// transactions (the MPL bound) and one compaction window of
    /// index entries, whatever the run length.
    pub fn with_capacity(live: usize) -> Self {
        TxnTable {
            slots: Vec::with_capacity(live),
            free: Vec::new(),
            index: Vec::with_capacity(COMPACT_MIN),
            base: 0,
            live: 0,
        }
    }

    /// Drops the all-`NIL` prefix when the index is full and the prefix
    /// is at least half of it, so the index keeps its capacity. A scan
    /// that finds less lets the index grow; either way the next scan is
    /// at least half a capacity of admissions away, so the cost is
    /// amortized constant.
    fn compact(&mut self) {
        if self.index.len() < self.index.capacity() {
            return;
        }
        let nil_prefix = self.index.iter().take_while(|&&s| s == NIL).count();
        if nil_prefix * 2 >= self.index.len() {
            self.index.drain(..nil_prefix);
            self.base += nil_prefix as u64;
        }
    }

    /// `TxnId::raw() → index position`, `None` for ids already slid
    /// out of the window (always completed ones).
    #[inline]
    fn pos_of(&self, raw: u64) -> Option<usize> {
        raw.checked_sub(self.base).map(|p| p as usize)
    }

    /// Admits a transaction, reusing a freed slot when one exists. A
    /// retired predecessor in that slot is renewed *in place*
    /// ([`Txn::renew`]), so its list buffers and hash-map storage —
    /// and the slot's bytes themselves — are recycled without either
    /// an allocation or a `Txn`-sized move through the stack. `id`
    /// must be fresh (higher than every id ever admitted) —
    /// guaranteed by the engine's monotonic id allocation.
    pub fn admit(
        &mut self,
        id: TxnId,
        node: NodeId,
        spec: TxnSpec,
        arrival: SimTime,
        restarts: u32,
    ) {
        self.compact();
        let raw = self
            .pos_of(id.raw())
            .expect("TxnId below the slid-out window — ids must be fresh");
        debug_assert!(
            raw >= self.index.len(),
            "TxnId {raw} reused — ids must be fresh"
        );
        if raw >= self.index.len() {
            self.index.resize(raw + 1, NIL);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                match &mut self.slots[s as usize] {
                    Some(t) => t.renew(id, node, spec, arrival, restarts),
                    empty => *empty = Some(Txn::new(id, node, spec, arrival, restarts)),
                }
                s
            }
            None => {
                self.slots
                    .push(Some(Txn::new(id, node, spec, arrival, restarts)));
                checked_slot(self.slots.len() - 1)
            }
        };
        self.index[raw] = slot;
        self.live += 1;
    }

    /// Ends a transaction but leaves its storage in the slot for the
    /// next [`Self::admit`] to renew. The slot joins the same free
    /// list as [`Self::remove`] uses, so slot-assignment order — and
    /// with it every iteration order — is identical either way.
    pub fn retire(&mut self, id: &TxnId) {
        let Some(s) = self.slot_of(*id) else {
            return;
        };
        let pos = self.pos_of(id.raw()).expect("slot_of checked the window");
        self.index[pos] = NIL;
        self.free.push(s as u32);
        self.live -= 1;
    }

    #[inline]
    fn slot_of(&self, id: TxnId) -> Option<usize> {
        match self.index.get(self.pos_of(id.raw())?) {
            Some(&s) if s != NIL => Some(s as usize),
            _ => None,
        }
    }

    #[inline]
    pub fn get(&self, id: &TxnId) -> Option<&Txn> {
        self.slots[self.slot_of(*id)?].as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, id: &TxnId) -> Option<&mut Txn> {
        let s = self.slot_of(*id)?;
        self.slots[s].as_mut()
    }

    #[inline]
    pub fn contains_key(&self, id: &TxnId) -> bool {
        self.slot_of(*id).is_some()
    }

    pub fn remove(&mut self, id: &TxnId) -> Option<Txn> {
        let s = self.slot_of(*id)?;
        let pos = self.pos_of(id.raw()).expect("slot_of checked the window");
        self.index[pos] = NIL;
        self.free.push(s as u32);
        self.live -= 1;
        self.slots[s].take()
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live transactions in slot order (deterministic; not id order).
    /// Retired storage waiting in a slot is skipped: its id maps to
    /// `NIL`, exactly like a removed one's.
    pub fn values(&self) -> impl Iterator<Item = &Txn> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref())
            .filter(|t| self.slot_of(t.id).is_some())
    }

    /// `(id, txn)` pairs in slot order (deterministic; not id order).
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &Txn)> {
        self.values().map(|t| (t.id, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::{NodeId, TxnSpec, TxnTypeId};
    use desim::SimTime;

    /// Admits transaction `id` with an empty program on node 0.
    fn admit(t: &mut TxnTable, id: u64) {
        t.admit(
            TxnId::new(id),
            NodeId::new(0),
            TxnSpec::new(TxnTypeId::new(0), 0, Vec::new()),
            SimTime::ZERO,
            0,
        );
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = TxnTable::with_capacity(4);
        admit(&mut t, 0);
        admit(&mut t, 1);
        assert_eq!(t.len(), 2);
        assert!(t.contains_key(&TxnId::new(0)));
        assert_eq!(t.get(&TxnId::new(1)).unwrap().id, TxnId::new(1));
        assert!(t.get(&TxnId::new(7)).is_none());
        let gone = t.remove(&TxnId::new(0)).unwrap();
        assert_eq!(gone.id, TxnId::new(0));
        assert!(t.remove(&TxnId::new(0)).is_none());
        assert!(!t.contains_key(&TxnId::new(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn slots_recycle_but_ids_do_not() {
        let mut t = TxnTable::with_capacity(2);
        for id in 0..50u64 {
            admit(&mut t, id);
            if id >= 2 {
                t.remove(&TxnId::new(id - 2));
            }
        }
        assert_eq!(t.len(), 2);
        // slab stayed at the live bound, index covers every id ever used
        assert!(t.slots.len() <= 3, "slab grew to {}", t.slots.len());
        assert_eq!(t.index.len(), 50);
        let mut ids: Vec<u64> = t.iter().map(|(id, _)| id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![48, 49]);
    }

    #[test]
    fn retire_keeps_storage_for_renewal_in_place() {
        let mut t = TxnTable::with_capacity(2);
        admit(&mut t, 0);
        t.get_mut(&TxnId::new(0)).unwrap().step = 9;
        t.retire(&TxnId::new(0));
        // the corpse is unreachable and invisible to iteration...
        assert_eq!(t.len(), 0);
        assert!(!t.contains_key(&TxnId::new(0)));
        assert_eq!(t.values().count(), 0);
        // ...but its slot (and storage) is renewed by the next admit
        admit(&mut t, 1);
        assert_eq!(t.len(), 1);
        assert!(t.slots.len() <= 1, "slot was not reused");
        let renewed = t.get(&TxnId::new(1)).unwrap();
        assert_eq!(renewed.id, TxnId::new(1));
        assert_eq!(renewed.step, 0, "renew did not reset state");
        // removal (abort path) empties the slot instead
        t.remove(&TxnId::new(1)).unwrap();
        assert_eq!(t.values().count(), 0);
    }

    #[test]
    fn index_window_slides_and_lookups_survive() {
        let mut t = TxnTable::with_capacity(2);
        // Drive far past COMPACT_MIN with a bounded live set.
        let total = (COMPACT_MIN * 3) as u64;
        for id in 0..total {
            admit(&mut t, id);
            if id >= 2 {
                t.remove(&TxnId::new(id - 2));
            }
        }
        assert_eq!(t.len(), 2);
        // The index slid: it holds a window, not 4 bytes per id ever,
        // and compacting when full kept it in its first allocation.
        assert!(t.base > 0, "index never compacted");
        assert!(
            t.index.len() < COMPACT_MIN * 2,
            "index grew unboundedly: {}",
            t.index.len()
        );
        assert_eq!(t.index.capacity(), COMPACT_MIN, "index reallocated");
        // Live ids still resolve; slid-out (completed) ids resolve to
        // None — exactly as their retained NIL entries did.
        assert!(t.contains_key(&TxnId::new(total - 1)));
        assert!(t.contains_key(&TxnId::new(total - 2)));
        assert!(t.get(&TxnId::new(0)).is_none());
        assert!(!t.contains_key(&TxnId::new(t.base - 1)));
        let mut ids: Vec<u64> = t.iter().map(|(id, _)| id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![total - 2, total - 1]);
    }

    #[test]
    fn slot_indices_are_checked_against_the_nil_sentinel() {
        assert_eq!(checked_slot(0), 0);
        assert_eq!(checked_slot(7), 7);
    }

    #[test]
    #[should_panic(expected = "TxnTable slab overflow")]
    fn slot_index_overflow_fails_loudly_instead_of_wrapping() {
        checked_slot(NIL as usize);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = TxnTable::with_capacity(1);
        admit(&mut t, 0);
        t.get_mut(&TxnId::new(0)).unwrap().step = 7;
        assert_eq!(t.get(&TxnId::new(0)).unwrap().step, 7);
    }
}
