//! Golden values for the trace routing heuristics of §3.1: the affinity
//! routing table, the GLA chunk map and the local lock share for four
//! seeds × four node counts, and one synthetic trace's summary
//! statistics. The values were captured from the hash-map
//! implementation the index-addressed counts replaced, so they pin the
//! outputs bit for bit: a change here moves a transaction type to
//! another node or a chunk's lock authority to another node.

use dbshare_model::{PageId, PageRef, PartitionConfig, PartitionId, StorageAllocation, TxnTypeId};
use dbshare_workload::routing::{affinity_table, gla_chunks, local_lock_share};
use dbshare_workload::trace::{Trace, TraceGenConfig, TraceStats, TraceTxn};

const SEEDS: [u64; 4] = [1, 7, 11, 0xDB5_4A6E];
const NODES: [u16; 4] = [2, 3, 4, 8];

/// `(seed, nodes, FNV-1a of the Debug text of (table, GLA map), bits of
/// the local lock share)`.
const GOLDEN: [(u64, u16, u64, u64); 16] = [
    (0x1, 2, 0x1ced27bdccf46371, 0x3fee5585d312094f),
    (0x1, 3, 0x88eb54abd5882088, 0x3fecf3465ceaae95),
    (0x1, 4, 0xeb862d52e1b6958f, 0x3febb95f633fd72e),
    (0x1, 8, 0xe940d47622efc87d, 0x3fe6ea28c398354a),
    (0x7, 2, 0xf65cfd0881c0fb11, 0x3fee7c1269c4be9d),
    (0x7, 3, 0x88eb54abd5882088, 0x3fed2287bc08b853),
    (0x7, 4, 0xeb862d52e1b6958f, 0x3febd9902668d331),
    (0x7, 8, 0x92ad0233b71175a1, 0x3fe711cbd7627950),
    (0xb, 2, 0x9fc787f2daaf6042, 0x3fee6b0dd26231b4),
    (0xb, 3, 0x844edae795a6c9df, 0x3fed048086c60e7f),
    (0xb, 4, 0x599607608cd83fdf, 0x3febc215d8282333),
    (0xb, 8, 0x55f65e36b79375b4, 0x3fe6dc7420be08ed),
    (0xDB5_4A6E, 2, 0x535ab1a7aa6867bc, 0x3fee6853dd98890b),
    (0xDB5_4A6E, 3, 0x66ee109e7a9677a7, 0x3fed035ad0db7d57),
    (0xDB5_4A6E, 4, 0x9cc22d5c8a4b65f0, 0x3febc5113a66f908),
    (0xDB5_4A6E, 8, 0x3181c0280abbfa5f, 0x3fe6e5d8c211a80e),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn routing_tables_and_gla_maps_match_their_goldens() {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let trace = Trace::synthesize(&TraceGenConfig::default(), seed);
        for nodes in NODES {
            let table = affinity_table(&trace, nodes);
            let gla = gla_chunks(&trace, &table, nodes, 512);
            let digest = fnv1a(format!("{:?}", (&table, &gla)).as_bytes());
            let share = local_lock_share(&trace, &table, &gla).to_bits();
            actual.push((seed, nodes, digest, share));
        }
    }
    let text: Vec<String> = actual
        .iter()
        .map(|(s, n, d, b)| format!("({s:#x}, {n}, {d:#018x}, {b:#018x}),"))
        .collect();
    assert_eq!(actual, GOLDEN, "actual:\n{}", text.join("\n"));
}

#[test]
fn trace_stats_match_their_golden() {
    let stats = Trace::synthesize(&TraceGenConfig::default(), 7).stats();
    assert_eq!(
        stats,
        TraceStats {
            txn_count: 17_503,
            types: 12,
            total_refs: 970_214,
            write_refs: 13_445,
            update_txns: 3_500,
            distinct_pages: 71_496,
            max_txn_refs: 11_500,
            db_pages: 1_048_576,
        }
    );
}

fn refs(file_counts: [u64; 3]) -> Vec<PageRef> {
    file_counts
        .iter()
        .enumerate()
        .flat_map(|(f, &count)| {
            (0..count).map(move |p| PageRef::read(PageId::new(PartitionId::new(f as u16), p)))
        })
        .collect()
}

/// Type 2 references three files and fits on either of two nodes whose
/// per-file counts are mirror images, so both placements score the same
/// real number; only the order in which the three overlaps are summed
/// can tell the floating-point scores apart. Summing them in a hash
/// map's per-instance iteration order let the choice vary between
/// calls; ascending file order makes it a function of the trace.
#[test]
fn a_type_over_three_files_routes_the_same_on_every_call() {
    let txn = |ty: u16, counts: [u64; 3]| TraceTxn {
        txn_type: TxnTypeId::new(ty),
        refs: refs(counts),
    };
    let part = |name: &str| PartitionConfig {
        name: name.into(),
        pages: 16,
        locking: true,
        storage: StorageAllocation::disk(2),
    };
    let trace = Trace::from_txns(
        vec![txn(0, [1, 2, 10]), txn(1, [10, 2, 1]), txn(2, [1, 1, 1])],
        vec![part("F0"), part("F1"), part("F2")],
    );
    let first = affinity_table(&trace, 2);
    for call in 1..20 {
        assert_eq!(affinity_table(&trace, 2), first, "call {call}");
    }
}
