//! Identifier newtypes for the simulated system.
//!
//! Newtypes (rather than raw integers) prevent mixing up node indices,
//! partition indices, and page numbers — bugs that are otherwise easy
//! to introduce in a simulator that shuffles all three constantly.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a processing node (0-based).
///
/// ```rust
/// use dbshare_model::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a 0-based index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }
    /// The 0-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
    /// The raw value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifies a database partition (a file, in the paper's terms:
/// BRANCH/TELLER, ACCOUNT, HISTORY, or one of the trace's files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(u16);

impl PartitionId {
    /// Creates a partition id from a 0-based index.
    pub const fn new(index: u16) -> Self {
        PartitionId(index)
    }
    /// The 0-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
    /// The raw value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Bits of a [`PageId`] that hold the page number; the partition takes
/// the 16 above them.
pub(crate) const PAGE_NUMBER_BITS: u32 = 48;
const PAGE_NUMBER_MASK: u64 = (1 << PAGE_NUMBER_BITS) - 1;

/// Identifies a database page: a partition plus the page number inside
/// that partition.
///
/// Both share one `u64`, the partition in the top 16 bits and the page
/// number in the low 48 (the layout of `desim::trace::pack_page`), so a
/// page reference, a lock-table key or a calendar event carrying one
/// pays a single word. The derived order on the word is the
/// (partition, number) order.
///
/// ```rust
/// use dbshare_model::{PageId, PartitionId};
/// let p = PageId::new(PartitionId::new(1), 42);
/// assert_eq!(p.partition(), PartitionId::new(1));
/// assert_eq!(p.number(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id.
    ///
    /// # Panics
    ///
    /// If `number` does not fit in 48 bits. `SystemConfig::validate`
    /// rejects a partition with more pages than that.
    pub const fn new(partition: PartitionId, number: u64) -> Self {
        assert!(
            number <= PAGE_NUMBER_MASK,
            "page number does not fit in 48 bits"
        );
        PageId(((partition.0 as u64) << PAGE_NUMBER_BITS) | number)
    }
    /// The partition (file) this page belongs to.
    pub const fn partition(self) -> PartitionId {
        PartitionId((self.0 >> PAGE_NUMBER_BITS) as u16)
    }
    /// The page number within the partition.
    pub const fn number(self) -> u64 {
        self.0 & PAGE_NUMBER_MASK
    }
}

/// Feeds the hasher the partition and then the number, as a hash
/// derived on the two fields would: FxHash keeps the partition of a
/// single word only in the high bits, which a table's bucket index
/// ignores.
impl Hash for PageId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.partition().hash(state);
        self.number().hash(state);
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageId")
            .field("partition", &self.partition())
            .field("number", &self.number())
            .finish()
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.partition(), self.number())
    }
}

/// Identifies a transaction instance (unique over a simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(u64);

impl TxnId {
    /// Creates a transaction id from a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        TxnId(raw)
    }
    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a transaction *type* (debit-credit has one; the trace
/// workload has twelve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnTypeId(u16);

impl TxnTypeId {
    /// Creates a type id from a 0-based index.
    pub const fn new(index: u16) -> Self {
        TxnTypeId(index)
    }
    /// The 0-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TxnTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TT{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        // This test is mostly a compile-time statement; runtime checks
        // confirm accessor behaviour.
        assert_eq!(NodeId::new(2).index(), 2);
        assert_eq!(PartitionId::new(7).index(), 7);
        assert_eq!(TxnId::new(9).raw(), 9);
        assert_eq!(TxnTypeId::new(4).index(), 4);
    }

    #[test]
    fn page_id_hash_and_eq() {
        let a = PageId::new(PartitionId::new(0), 5);
        let b = PageId::new(PartitionId::new(0), 5);
        let c = PageId::new(PartitionId::new(1), 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<PageId> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(1).to_string(), "N1");
        assert_eq!(PageId::new(PartitionId::new(2), 30).to_string(), "P2:30");
        assert_eq!(TxnId::new(12).to_string(), "T12");
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        let a = PageId::new(PartitionId::new(0), 9);
        let b = PageId::new(PartitionId::new(1), 0);
        assert!(a < b);
    }

    /// A page reference is two words: the one-word page id and its
    /// access flags.
    #[test]
    fn page_ids_take_one_word() {
        assert_eq!(std::mem::size_of::<PageId>(), 8);
        assert_eq!(std::mem::size_of::<crate::PageRef>(), 16);
    }

    /// Seeded (partition, number) pairs, extremes included, often
    /// sharing a partition so that the number decides the order.
    fn sample_pairs() -> Vec<(u16, u64)> {
        let mut rng = desim::Rng::seed_from_u64(0x1D5);
        let max_number = PAGE_NUMBER_MASK;
        let mut pairs = vec![
            (0, 0),
            (0, max_number),
            (u16::MAX, 0),
            (u16::MAX, max_number),
        ];
        for _ in 0..200 {
            let partition = match rng.below(3) {
                0 => rng.below(4) as u16,
                1 => u16::MAX - rng.below(2) as u16,
                _ => rng.next_u64() as u16,
            };
            let number = match rng.below(3) {
                0 => rng.below(16),
                1 => max_number - rng.below(16),
                _ => rng.below(max_number + 1),
            };
            pairs.push((partition, number));
        }
        pairs
    }

    /// The one-word id keeps the (partition, number) pair's order, the
    /// values a hash derived on the two fields fed its hasher, and the
    /// derived `Debug` text.
    #[test]
    fn page_id_keeps_the_two_field_contract() {
        use desim::fxhash::FxHasher;
        let pairs = sample_pairs();
        let id = |&(p, n): &(u16, u64)| PageId::new(PartitionId::new(p), n);
        for a in &pairs {
            let page = id(a);
            let (p, n) = *a;
            assert_eq!((page.partition().raw(), page.number()), (p, n));
            for b in &pairs {
                assert_eq!(page.cmp(&id(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
            let mut fed_id = FxHasher::default();
            page.hash(&mut fed_id);
            let mut fed_fields = FxHasher::default();
            p.hash(&mut fed_fields);
            n.hash(&mut fed_fields);
            assert_eq!(fed_id.finish(), fed_fields.finish(), "{a:?}");
            let derived = format!("PageId {{ partition: PartitionId({p}), number: {n} }}");
            assert_eq!(format!("{page:?}"), derived);
        }
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn page_id_rejects_a_number_past_48_bits() {
        PageId::new(PartitionId::new(0), 1 << 48);
    }
}
