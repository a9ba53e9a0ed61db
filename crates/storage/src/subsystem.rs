//! The storage subsystem facade: every external device of one
//! simulated configuration.

use dbshare_model::{NodeId, PageId, StorageAllocation, SystemConfig};
use desim::lru::LruCache;
use desim::{MultiServer, SimDuration, SimTime};

/// How a page I/O runs (§2, Table 4.1): what its initiation costs the
/// CPU, and whether the CPU waits out the device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPath {
    /// A synchronous GEM page access: the initiating CPU stays busy for
    /// its 50 µs (GEM-resident partitions).
    GemSync,
    /// An asynchronous access with GEM's 300-instruction initiation: a
    /// write into a GEM write buffer, or a log write to GEM.
    GemAsync,
    /// An asynchronous disk access with the 3,000-instruction
    /// initiation (disk caches included).
    Disk,
}

/// What a page I/O reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoTarget {
    /// A read of a database page.
    Read(PageId),
    /// A write of a database page.
    Write(PageId),
    /// A commit-log write.
    Log,
}

/// One partition's backing store.
///
/// Pages are striped across the array *page-affinely* (`page % disks`),
/// so accesses to the same page serialize on the same device — exactly
/// as on real hardware. This matters for correctness: a read issued
/// while a write-back of the same page is in flight queues behind it
/// and therefore observes the new version.
#[derive(Debug)]
struct PartStore {
    alloc: StorageAllocation,
    /// Disk array, one single-server station per disk (absent for
    /// GEM-resident partitions).
    disks: Vec<MultiServer>,
    /// Controller path for cached arrays (serves cache hits).
    controller: Option<MultiServer>,
    /// Cache directory: page number -> () (contents are irrelevant to
    /// timing; presence is what matters).
    cache: Option<LruCache<u64, ()>>,
    nonvolatile: bool,
}

impl PartStore {
    fn disk_for(&mut self, page: PageId) -> &mut MultiServer {
        let n = self.disks.len() as u64;
        debug_assert!(n > 0, "disk access on diskless partition");
        let idx = (page.number() % n) as usize;
        &mut self.disks[idx]
    }
}

fn disk_array(disks: u32) -> Vec<MultiServer> {
    (0..disks).map(|_| MultiServer::new(1)).collect()
}

/// All external devices of one configuration (§3.3).
///
/// The engine asks [`io_path`](StorageSubsystem::io_path) how an I/O
/// runs, and calls the device methods while processing an event at
/// `now`; each returns the completion instant for the caller to
/// schedule a follow-up event. Device statistics accumulate internally.
#[derive(Debug)]
pub struct StorageSubsystem {
    parts: Vec<PartStore>,
    /// Per-node log disk groups.
    log: Vec<MultiServer>,
    gem: MultiServer,
    lock_engine: MultiServer,
    lock_engine_time: SimDuration,
    /// The central lock engine, not GEM, holds the global lock table.
    lock_engine_holds_locks: bool,
    network: MultiServer,
    db_disk_time: SimDuration,
    cache_hit_time: SimDuration,
    log_time: SimDuration,
    gem_page_time: SimDuration,
    gem_entry_time: SimDuration,
    bandwidth_mb_s: f64,
    log_in_gem: bool,
    stats_since: SimTime,
}

impl StorageSubsystem {
    /// Builds every device from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (callers run
    /// [`SystemConfig::validate`] first).
    pub fn new(cfg: &SystemConfig) -> Self {
        let d = &cfg.disk;
        let parts = cfg
            .partitions
            .iter()
            .map(|p| match p.storage {
                StorageAllocation::Disk { disks } => PartStore {
                    alloc: p.storage.clone(),
                    disks: disk_array(disks),
                    controller: None,
                    cache: None,
                    nonvolatile: false,
                },
                StorageAllocation::CachedDisk {
                    disks,
                    cache_pages,
                    nonvolatile,
                } => PartStore {
                    alloc: p.storage.clone(),
                    disks: disk_array(disks),
                    // The controller path is wide: hits cost 1.4 ms of
                    // service but several can overlap (one port per
                    // 2 disks, at least 2).
                    controller: Some(MultiServer::new((disks / 2).max(2))),
                    cache: Some(LruCache::new(cache_pages as usize)),
                    nonvolatile,
                },
                StorageAllocation::Gem => PartStore {
                    alloc: p.storage.clone(),
                    disks: Vec::new(),
                    controller: None,
                    cache: None,
                    nonvolatile: true,
                },
                StorageAllocation::WriteBufferedDisk {
                    disks,
                    buffer_pages,
                } => PartStore {
                    alloc: p.storage.clone(),
                    disks: disk_array(disks),
                    controller: None,
                    cache: Some(LruCache::new(buffer_pages as usize)),
                    nonvolatile: true,
                },
            })
            .collect();
        StorageSubsystem {
            parts,
            log: (0..cfg.nodes)
                .map(|_| MultiServer::new(d.log_disks_per_node))
                .collect(),
            gem: MultiServer::new(cfg.gem.servers),
            lock_engine: MultiServer::new(cfg.lock_engine.servers),
            lock_engine_time: SimDuration::from_micros_f64(cfg.lock_engine.op_service_us),
            lock_engine_holds_locks: cfg.coupling == dbshare_model::CouplingMode::LockEngine,
            network: MultiServer::new(1),
            db_disk_time: SimDuration::from_millis_f64(
                d.db_disk_ms + d.controller_ms + d.transfer_ms,
            ),
            cache_hit_time: SimDuration::from_millis_f64(d.controller_ms + d.transfer_ms),
            log_time: SimDuration::from_millis_f64(d.log_disk_ms + d.controller_ms + d.transfer_ms),
            gem_page_time: cfg.gem_page_time(),
            gem_entry_time: cfg.gem_entry_time(),
            bandwidth_mb_s: cfg.comm.bandwidth_mb_per_s,
            log_in_gem: cfg.log_storage == dbshare_model::LogStorage::Gem,
            stats_since: SimTime::ZERO,
        }
    }

    /// Reads `page` from its backing store.
    ///
    /// For cached arrays the cache directory decides hit or miss (the
    /// page is staged into the cache on a miss, per \[Gr89\]).
    pub fn read_page(&mut self, now: SimTime, page: PageId) -> SimTime {
        let part = &mut self.parts[page.partition().index()];
        match part.alloc {
            StorageAllocation::Gem => self.gem.offer(now, self.gem_page_time),
            StorageAllocation::Disk { .. } => part.disk_for(page).offer(now, self.db_disk_time),
            StorageAllocation::CachedDisk { .. } => {
                let cache = part.cache.as_mut().expect("cached allocation has cache");
                if cache.get(&page.number()).is_some() {
                    part.controller
                        .as_mut()
                        .expect("cached allocation has controller")
                        .offer(now, self.cache_hit_time)
                } else {
                    // Stage the page into the cache; a dirty NV page
                    // never gets evicted un-destaged because destaging
                    // is immediate (see `write_page`).
                    cache.insert(page.number(), ());
                    part.disk_for(page).offer(now, self.db_disk_time)
                }
            }
            StorageAllocation::WriteBufferedDisk { .. } => {
                let cache = part.cache.as_mut().expect("write buffer exists");
                if cache.get(&page.number()).is_some() {
                    // Recently written: served from the GEM write buffer.
                    self.gem.offer(now, self.gem_page_time)
                } else {
                    part.disk_for(page).offer(now, self.db_disk_time)
                }
            }
        }
    }

    /// Writes `page` to its backing store, returning when the write is
    /// *visible* (durable for FORCE purposes).
    ///
    /// * GEM-resident partitions: 50 µs synchronous GEM page write.
    /// * Non-volatile caches: 1.4 ms into the cache; the disk copy is
    ///   updated asynchronously (the destage I/O is accounted on the
    ///   array but does not delay the caller).
    /// * Volatile caches: the disk write is synchronous (only reads can
    ///   be served from a volatile cache), but the cache copy is
    ///   refreshed so later readers of any node hit.
    /// * Plain disks: a 16.4 ms disk write.
    pub fn write_page(&mut self, now: SimTime, page: PageId) -> SimTime {
        let part = &mut self.parts[page.partition().index()];
        match part.alloc {
            StorageAllocation::Gem => self.gem.offer(now, self.gem_page_time),
            StorageAllocation::Disk { .. } => part.disk_for(page).offer(now, self.db_disk_time),
            StorageAllocation::CachedDisk { .. } => {
                let nonvolatile = part.nonvolatile;
                let cache = part.cache.as_mut().expect("cached allocation has cache");
                cache.insert(page.number(), ());
                if nonvolatile {
                    let done = part
                        .controller
                        .as_mut()
                        .expect("cached allocation has controller")
                        .offer(now, self.cache_hit_time);
                    // Asynchronous destage: occupies the array but the
                    // caller does not wait.
                    part.disk_for(page).offer(now, self.db_disk_time);
                    done
                } else {
                    part.disk_for(page).offer(now, self.db_disk_time)
                }
            }
            StorageAllocation::WriteBufferedDisk { .. } => {
                // §2 usage form 2: the write lands in the non-volatile
                // GEM buffer (~50 µs) and destages asynchronously. The
                // short CPU-held window is folded into the queued GEM
                // access (its 50 µs is negligible against the 300-
                // instruction initiation).
                let cache = part.cache.as_mut().expect("write buffer exists");
                cache.insert(page.number(), ());
                let done = self.gem.offer(now, self.gem_page_time);
                part.disk_for(page).offer(now, self.db_disk_time); // async destage
                done
            }
        }
    }

    /// Appends one page to `node`'s log (commit phase 1, §3.2). With
    /// [`LogStorage::Gem`](dbshare_model::LogStorage) the record goes to
    /// GEM instead of the node's log disks (§2 extension).
    pub fn write_log(&mut self, now: SimTime, node: NodeId) -> SimTime {
        if self.log_in_gem {
            return self.gem.offer(now, self.gem_page_time);
        }
        self.log[node.index()].offer(now, self.log_time)
    }

    /// The path an I/O on `target` takes: synchronous in GEM for
    /// GEM-resident pages; GEM-initiated for writes into a GEM write
    /// buffer and for a GEM log; a disk I/O otherwise.
    pub fn io_path(&self, target: IoTarget) -> IoPath {
        let (page, write) = match target {
            IoTarget::Read(page) => (page, false),
            IoTarget::Write(page) => (page, true),
            IoTarget::Log if self.log_in_gem => return IoPath::GemAsync,
            IoTarget::Log => return IoPath::Disk,
        };
        match self.parts[page.partition().index()].alloc {
            StorageAllocation::Gem => IoPath::GemSync,
            StorageAllocation::WriteBufferedDisk { .. } if write => IoPath::GemAsync,
            _ => IoPath::Disk,
        }
    }

    /// Performs `count` synchronous GEM *entry* accesses (global lock
    /// table reads and Compare&Swap writes). The accesses are issued
    /// back-to-back, which on the FIFO GEM server is equivalent to one
    /// request of `count ×` the entry time.
    pub fn gem_entries(&mut self, now: SimTime, count: u32) -> SimTime {
        self.gem.offer(now, self.gem_entry_time * count as u64)
    }

    /// Performs `count` synchronous GEM *page* accesses back-to-back
    /// (equivalent to one request of `count ×` the page time).
    pub fn gem_pages(&mut self, now: SimTime, count: u32) -> SimTime {
        self.gem.offer(now, self.gem_page_time * count as u64)
    }

    /// Performs the `entries` synchronous global-lock-table entry
    /// accesses of one CPU job: on the GEM server, or, when the central
    /// lock engine holds the table (\[Yu87\] comparison, §5), as one
    /// lock-engine operation per two entry accesses (a read plus a
    /// Compare&Swap make one lock operation) — the same protocol at
    /// 100–500 µs per operation instead of 2 µs per entry. Returns the
    /// completion instant and the number of GEM entry accesses made.
    pub fn lock_table_entries(&mut self, now: SimTime, entries: u32) -> (SimTime, u32) {
        if self.lock_engine_holds_locks {
            let op = self.lock_engine_time * (entries / 2) as u64;
            (self.lock_engine.offer(now, op), 0)
        } else {
            (self.gem_entries(now, entries), entries)
        }
    }

    /// Sends `bytes` over the interconnection network; returns delivery
    /// time (transmission only — CPU send/receive overhead is charged
    /// by the engine on the nodes' CPUs).
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let wire = SimDuration::from_secs_f64(bytes as f64 / (self.bandwidth_mb_s * 1e6));
        self.network.offer(now, wire)
    }

    /// Restarts device statistics windows (end of warm-up).
    pub fn reset_stats(&mut self, now: SimTime) {
        for p in &mut self.parts {
            for d in &mut p.disks {
                d.reset_stats(now);
            }
            if let Some(c) = p.controller.as_mut() {
                c.reset_stats(now);
            }
        }
        for l in &mut self.log {
            l.reset_stats(now);
        }
        self.gem.reset_stats(now);
        self.lock_engine.reset_stats(now);
        self.network.reset_stats(now);
        self.stats_since = now;
    }

    /// Cumulative busy-time snapshot of every device class, for
    /// windowed utilization sampling: difference two snapshots and
    /// divide by `window × servers`. Busy time accrues at *issue* time
    /// (see [`MultiServer::offer`]), so a request is attributed to the
    /// window it was issued in.
    pub fn busy_snapshot(&self) -> DeviceBusySnapshot {
        let mut disk_busy = SimDuration::ZERO;
        let mut disk_servers = 0u32;
        for p in &self.parts {
            for d in &p.disks {
                disk_busy += d.busy_time();
                disk_servers += d.servers();
            }
            if let Some(c) = p.controller.as_ref() {
                disk_busy += c.busy_time();
                disk_servers += c.servers();
            }
        }
        let mut log_busy = SimDuration::ZERO;
        let mut log_servers = 0u32;
        for l in &self.log {
            log_busy += l.busy_time();
            log_servers += l.servers();
        }
        DeviceBusySnapshot {
            gem_busy: self.gem.busy_time(),
            gem_servers: self.gem.servers(),
            network_busy: self.network.busy_time(),
            network_servers: self.network.servers(),
            log_busy,
            log_servers,
            disk_busy,
            disk_servers,
        }
    }

    /// Device utilization report over the statistics window.
    pub fn report(&self, now: SimTime) -> DeviceReport {
        let since = self.stats_since;
        DeviceReport {
            gem_utilization: self.gem.utilization_since(since, now),
            lock_engine_utilization: self.lock_engine.utilization_since(since, now),
            network_utilization: self.network.utilization_since(since, now),
            disk_utilization: self
                .parts
                .iter()
                .map(|p| {
                    if p.disks.is_empty() {
                        0.0
                    } else {
                        p.disks
                            .iter()
                            .map(|d| d.utilization_since(since, now))
                            .sum::<f64>()
                            / p.disks.len() as f64
                    }
                })
                .collect(),
            log_utilization: self
                .log
                .iter()
                .map(|l| l.utilization_since(since, now))
                .collect(),
        }
    }
}

/// Cumulative busy-time totals per device class (see
/// [`StorageSubsystem::busy_snapshot`]). Durations are exact integer
/// nanoseconds, so differencing snapshots is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceBusySnapshot {
    /// GEM server busy time.
    pub gem_busy: SimDuration,
    /// GEM server count.
    pub gem_servers: u32,
    /// Network busy time.
    pub network_busy: SimDuration,
    /// Network server count.
    pub network_servers: u32,
    /// Summed log-disk busy time across nodes.
    pub log_busy: SimDuration,
    /// Total log-disk servers across nodes.
    pub log_servers: u32,
    /// Summed database-disk (and cache-controller) busy time.
    pub disk_busy: SimDuration,
    /// Total database-disk (and controller) servers.
    pub disk_servers: u32,
}

/// Snapshot of device statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// GEM server utilization (the paper reports <2% at 1000 TPS).
    pub gem_utilization: f64,
    /// Lock-engine utilization (0 unless `CouplingMode::LockEngine`).
    pub lock_engine_utilization: f64,
    /// Network utilization.
    pub network_utilization: f64,
    /// Per-partition disk-array utilization.
    pub disk_utilization: Vec<f64>,
    /// Per-node log-disk utilization.
    pub log_utilization: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_model::{PartitionConfig, PartitionId};

    fn cfg_with(storage: StorageAllocation) -> SystemConfig {
        let mut cfg = SystemConfig::debit_credit(2);
        cfg.partitions.push(PartitionConfig {
            name: "P".into(),
            pages: 1_000,
            locking: true,
            storage,
        });
        cfg
    }

    fn page(n: u64) -> PageId {
        PageId::new(PartitionId::new(0), n)
    }

    const DISK: SimDuration = SimDuration::from_micros(16_400);
    const CACHE: SimDuration = SimDuration::from_micros(1_400);
    const GEM: SimDuration = SimDuration::from_micros(50);

    #[test]
    fn disk_read_takes_16_4_ms() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(2)));
        assert_eq!(s.io_path(IoTarget::Read(page(1))), IoPath::Disk);
        assert_eq!(s.read_page(SimTime::ZERO, page(1)), SimTime::ZERO + DISK);
    }

    #[test]
    fn disk_array_queues_when_busy() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(1)));
        let a = s.read_page(SimTime::ZERO, page(1));
        let b = s.read_page(SimTime::ZERO, page(2));
        assert_eq!(b, a + DISK);
    }

    #[test]
    fn gem_resident_read_takes_50_us_sync() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::Gem));
        assert_eq!(s.read_page(SimTime::ZERO, page(1)), SimTime::ZERO + GEM);
        assert_eq!(s.io_path(IoTarget::Read(page(0))), IoPath::GemSync);
        assert_eq!(s.io_path(IoTarget::Write(page(0))), IoPath::GemSync);
    }

    #[test]
    fn cache_miss_then_hit() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::CachedDisk {
            disks: 2,
            cache_pages: 10,
            nonvolatile: false,
        }));
        let miss = s.read_page(SimTime::ZERO, page(1));
        assert_eq!(miss, SimTime::ZERO + DISK);
        let hit = s.read_page(miss, page(1));
        assert_eq!(hit, miss + CACHE);
    }

    #[test]
    fn cache_lru_eviction() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::CachedDisk {
            disks: 2,
            cache_pages: 2,
            nonvolatile: false,
        }));
        let mut t = SimTime::ZERO;
        for n in [1u64, 2, 3] {
            t = s.read_page(t, page(n));
        }
        // page 1 was evicted by page 3
        let r = s.read_page(t, page(1));
        assert_eq!(r, t + DISK);
        // page 3 still cached
        assert_eq!(s.read_page(r, page(3)), r + CACHE);
    }

    #[test]
    fn nv_cache_absorbs_writes() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::CachedDisk {
            disks: 2,
            cache_pages: 10,
            nonvolatile: true,
        }));
        assert_eq!(s.io_path(IoTarget::Write(page(5))), IoPath::Disk);
        let w = s.write_page(SimTime::ZERO, page(5));
        assert_eq!(w, SimTime::ZERO + CACHE);
        // subsequent read hits the cache
        assert_eq!(s.read_page(w, page(5)), w + CACHE);
        // the destage occupied the array
        let rep = s.report(SimTime::from_millis(100));
        assert!(rep.disk_utilization[0] > 0.0);
    }

    #[test]
    fn volatile_cache_write_goes_to_disk_but_updates_cache() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::CachedDisk {
            disks: 2,
            cache_pages: 10,
            nonvolatile: false,
        }));
        let w = s.write_page(SimTime::ZERO, page(5));
        assert_eq!(w, SimTime::ZERO + DISK); // full disk latency
        assert_eq!(s.read_page(w, page(5)), w + CACHE); // global buffer effect
    }

    #[test]
    fn log_write_takes_6_4_ms_per_node() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(1)));
        assert_eq!(s.io_path(IoTarget::Log), IoPath::Disk);
        let w = s.write_log(SimTime::ZERO, NodeId::new(1));
        assert_eq!(w, SimTime::from_micros(6_400));
    }

    #[test]
    fn gem_entries_serialize_on_server() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(1)));
        let (done, in_gem) = s.lock_table_entries(SimTime::ZERO, 2);
        assert_eq!((done, in_gem), (SimTime::from_micros(4), 2));
        // utilization visible
        let rep = s.report(SimTime::from_micros(400));
        assert!(
            (rep.gem_utilization - 0.01).abs() < 1e-6,
            "{}",
            rep.gem_utilization
        );
    }

    #[test]
    fn lock_engine_runs_entries_off_gem() {
        let mut cfg = cfg_with(StorageAllocation::disk(1));
        cfg.coupling = dbshare_model::CouplingMode::LockEngine;
        cfg.lock_engine.op_service_us = 100.0;
        let mut s = StorageSubsystem::new(&cfg);
        // Four entry accesses are two lock-engine operations, none in GEM.
        let (done, in_gem) = s.lock_table_entries(SimTime::ZERO, 4);
        assert_eq!((done, in_gem), (SimTime::from_micros(200), 0));
        let rep = s.report(SimTime::from_micros(400));
        assert_eq!(rep.gem_utilization, 0.0);
        assert!((rep.lock_engine_utilization - 0.5).abs() < 1e-6);
    }

    #[test]
    fn network_transmission_times() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(1)));
        // 100 B at 10 MB/s = 10 µs
        assert_eq!(s.send(SimTime::ZERO, 100), SimTime::from_micros(10));
        // 4 KB queued behind it: 10 µs + 409.6 µs
        assert_eq!(s.send(SimTime::ZERO, 4096).as_nanos(), 10_000 + 409_600);
    }

    #[test]
    fn write_buffered_disk_absorbs_writes_in_gem() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::WriteBufferedDisk {
            disks: 2,
            buffer_pages: 8,
        }));
        assert_eq!(s.io_path(IoTarget::Write(page(1))), IoPath::GemAsync);
        assert_eq!(s.io_path(IoTarget::Read(page(1))), IoPath::Disk);
        let w = s.write_page(SimTime::ZERO, page(1));
        assert_eq!(w, SimTime::ZERO + GEM);
        // a read of the recently written page hits the buffer
        let r = s.read_page(w, page(1));
        assert_eq!(r, w + GEM);
        // an unrelated page reads from disk
        assert_eq!(s.read_page(r, page(2)), r + DISK);
        // the destage occupied the disk array
        let rep = s.report(SimTime::from_millis(100));
        assert!(rep.disk_utilization[0] > 0.0);
    }

    #[test]
    fn write_buffer_evicts_lru_entries() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::WriteBufferedDisk {
            disks: 2,
            buffer_pages: 2,
        }));
        let mut t = SimTime::ZERO;
        for n in [1u64, 3, 5] {
            t = s.write_page(t, page(n));
        }
        // page 1 fell out of the (destaged) buffer: the read goes to
        // the disk, queued behind the destages
        assert!(s.read_page(t, page(1)) >= t + DISK);
        assert_eq!(s.read_page(t, page(5)), t + GEM);
    }

    #[test]
    fn gem_log_replaces_log_disks() {
        let mut cfg = cfg_with(StorageAllocation::disk(1));
        cfg.log_storage = dbshare_model::LogStorage::Gem;
        let mut s = StorageSubsystem::new(&cfg);
        assert_eq!(s.io_path(IoTarget::Log), IoPath::GemAsync);
        let w = s.write_log(SimTime::ZERO, NodeId::new(0));
        assert_eq!(w, SimTime::ZERO + GEM);
        let rep = s.report(SimTime::from_millis(1));
        assert_eq!(rep.log_utilization[0], 0.0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut s = StorageSubsystem::new(&cfg_with(StorageAllocation::disk(1)));
        s.read_page(SimTime::ZERO, page(1));
        s.gem_entries(SimTime::ZERO, 2);
        s.send(SimTime::ZERO, 100);
        s.reset_stats(SimTime::from_millis(50));
        let rep = s.report(SimTime::from_millis(100));
        assert_eq!(rep.disk_utilization[0], 0.0);
        assert_eq!((rep.gem_utilization, rep.network_utilization), (0.0, 0.0));
    }
}
