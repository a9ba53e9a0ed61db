//! Focused end-to-end tests of the PCL protocol mechanics: grant
//! piggybacking of page versions (NOFORCE update propagation without
//! extra messages, §3.2) and the read-authorization lifecycle of the
//! read optimization ([Ra86]).

use dbshare::desim::Rng;
use dbshare::model::gla::GlaMap;
use dbshare::model::{NodeId, PageId, PartitionId, TxnTypeId};
use dbshare::prelude::*;
use dbshare::workload::Workload;

/// A two-node ping-pong workload: every transaction writes one page of
/// a tiny hot set whose lock authority is entirely on node 0, while
/// transactions alternate between nodes — maximal cross-node update
/// propagation.
struct PingPong {
    partitions: Vec<PartitionConfig>,
    pages: u64,
    cursor: u64,
    rr: u16,
    nodes: u16,
}

impl PingPong {
    fn new(nodes: u16, pages: u64) -> Self {
        PingPong {
            partitions: vec![PartitionConfig {
                name: "HOT".into(),
                pages,
                locking: true,
                storage: StorageAllocation::disk(4),
            }],
            pages,
            cursor: 0,
            rr: 0,
            nodes,
        }
    }
}

impl Workload for PingPong {
    fn next(&mut self, _rng: &mut Rng) -> (NodeId, TxnSpec) {
        let node = NodeId::new(self.rr);
        self.rr = (self.rr + 1) % self.nodes;
        let page = PageId::new(PartitionId::new(0), self.cursor);
        self.cursor = (self.cursor + 1) % self.pages;
        (
            node,
            TxnSpec::new(TxnTypeId::new(0), 0, vec![PageRef::write(page)]),
        )
    }
    fn mean_accesses(&self) -> f64 {
        1.0
    }
    fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }
    fn gla_map(&self) -> GlaMap {
        // Node 0 owns everything: node 1's requests are always remote.
        GlaMap::central(self.nodes, 1)
    }
}

fn run_pingpong(update: UpdateStrategy) -> RunReport {
    let mut cfg = SystemConfig::debit_credit(2);
    cfg.coupling = CouplingMode::Pcl;
    cfg.update = update;
    cfg.arrival_tps_per_node = 25.0;
    cfg.buffer_pages_per_node = 256; // hot set fits everywhere
    cfg.run.warmup_txns = 300;
    cfg.run.measured_txns = 2_000;
    // Odd page count: the round-robin cursor and the alternating node
    // de-correlate, so every page is written by both nodes in turn.
    let wl = PingPong::new(2, 17);
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid").run()
}

#[test]
fn noforce_grants_piggyback_pages_instead_of_disk_reads() {
    // §3.2: "the current version of a page can be supplied by the GLA
    // node together with the lock grant message, thereby avoiding extra
    // messages and delays for page requests."
    let r = run_pingpong(UpdateStrategy::NoForce);
    // node 1's copies are invalidated by node 0's writes (and vice
    // versa through the GLA), yet almost nothing is read from disk:
    assert!(r.reads_per_txn < 0.05, "disk reads {}", r.reads_per_txn);
    assert!(
        r.page_transfers_per_txn > 0.3,
        "grant piggybacks {}",
        r.page_transfers_per_txn
    );
    // and never through separate page-request messages (a GEM-locking
    // mechanism):
    assert_eq!(r.page_requests_per_txn, 0.0);
}

#[test]
fn force_needs_no_page_transfers_at_all() {
    // Under FORCE the permanent database is always current: grants stay
    // short and misses read storage.
    let r = run_pingpong(UpdateStrategy::Force);
    assert_eq!(r.page_transfers_per_txn, 0.0, "no piggybacks under FORCE");
    assert!(
        r.reads_per_txn > 0.3,
        "storage serves misses: {}",
        r.reads_per_txn
    );
}

/// Read-heavy workload on a remote authority: node 1 reads a small hot
/// set whose GLA is node 0; occasional writers force revocations, and
/// occasional node-1 readers go on to write the page they read.
struct RemoteReaders {
    partitions: Vec<PartitionConfig>,
    pages: u64,
    write_every: u64,
    upgrade_every: u64,
    count: u64,
}

impl Workload for RemoteReaders {
    fn next(&mut self, rng: &mut Rng) -> (NodeId, TxnSpec) {
        self.count += 1;
        let page = PageId::new(PartitionId::new(0), rng.below(self.pages));
        if self.write_every > 0 && self.count.is_multiple_of(self.write_every) {
            // a writer on node 0 (the authority)
            (
                NodeId::new(0),
                TxnSpec::new(TxnTypeId::new(1), 0, vec![PageRef::write(page)]),
            )
        } else if self.upgrade_every > 0 && self.count.is_multiple_of(self.upgrade_every) {
            // a node-1 reader of two pages that then writes the first
            let next = PageId::new(PartitionId::new(0), (page.number() + 1) % self.pages);
            (
                NodeId::new(1),
                TxnSpec::new(
                    TxnTypeId::new(2),
                    0,
                    vec![
                        PageRef::read(page),
                        PageRef::read(next),
                        PageRef::write(page),
                    ],
                ),
            )
        } else {
            // readers on node 1 (always remote without an RA)
            (
                NodeId::new(1),
                TxnSpec::new(TxnTypeId::new(0), 0, vec![PageRef::read(page)]),
            )
        }
    }
    fn mean_accesses(&self) -> f64 {
        1.0
    }
    fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }
    fn gla_map(&self) -> GlaMap {
        GlaMap::central(2, 1)
    }
}

fn run_readers(write_every: u64, upgrade_every: u64, read_optimization: bool) -> RunReport {
    let mut cfg = SystemConfig::debit_credit(2);
    cfg.coupling = CouplingMode::Pcl;
    cfg.update = UpdateStrategy::NoForce;
    cfg.pcl_read_optimization = read_optimization;
    cfg.arrival_tps_per_node = 25.0;
    cfg.buffer_pages_per_node = 256;
    cfg.run.warmup_txns = 300;
    cfg.run.measured_txns = 2_000;
    let wl = RemoteReaders {
        partitions: vec![PartitionConfig {
            name: "HOT".into(),
            pages: 8,
            locking: true,
            storage: StorageAllocation::disk(4),
        }],
        pages: 8,
        write_every,
        upgrade_every,
        count: 0,
    };
    cfg.partitions = Workload::partitions(&wl).to_vec();
    Engine::new(cfg, Box::new(wl)).expect("valid").run()
}

#[test]
fn read_authorizations_make_repeated_remote_reads_local() {
    // Pure readers: after the first remote lock per page, node 1 holds
    // read authorizations and processes everything locally.
    let without = run_readers(0, 0, false);
    let with = run_readers(0, 0, true);
    let l_without = without.local_lock_fraction.expect("PCL");
    let l_with = with.local_lock_fraction.expect("PCL");
    assert!(l_without < 0.05, "no RA: everything remote ({l_without})");
    assert!(l_with > 0.9, "with RA: almost everything local ({l_with})");
    // which is also visible in messages and response time
    assert!(with.messages_per_txn < without.messages_per_txn * 0.2);
    assert!(with.mean_response_ms < without.mean_response_ms);
}

#[test]
fn writers_revoke_authorizations_and_correctness_survives() {
    // One writer per 20 transactions: revocation messages flow, the
    // system stays live, and the local share settles between the
    // extremes.
    let r = run_readers(20, 0, true);
    assert!(r.revokes_per_txn > 0.01, "revokes {}", r.revokes_per_txn);
    let local = r.local_lock_fraction.expect("PCL");
    assert!(
        (0.2..0.98).contains(&local),
        "revocations limit locality: {local}"
    );
    assert_eq!(r.timeout_aborts, 0, "no stuck revocations");
    assert_eq!(r.deadlock_aborts, 0);
}

#[test]
fn read_locks_under_an_authorization_upgrade_through_the_authority() {
    // Every 7th node-1 transaction reads two pages, mostly under RAs,
    // then writes the first: that local read lock is given back, the
    // write goes to the authority, and commit releases only the other
    // one locally. Writers on node 0 keep revoking. The run
    // stays live, and its metrics are pinned (captured before the
    // per-transaction lock index replaced the held-list scans).
    let r = run_readers(20, 7, true);
    assert_eq!(r.timeout_aborts, 0, "no stuck revocations");
    assert_eq!(r.deadlock_aborts, 0);
    assert!(r.local_lock_fraction.expect("PCL") > 0.2);
    assert_eq!(r.metric_fingerprint(), "f6b9b32e993c4834");
}
