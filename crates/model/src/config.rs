//! System configuration, mirroring Table 4.1 of the paper.
//!
//! [`SystemConfig`] is a passive parameter record: every knob of the
//! simulation model is a public field with a documented default. The
//! defaults reproduce the debit-credit settings of Table 4.1; the
//! experiment presets in `dbshare-sim` adjust only the parameters each
//! figure varies.

use crate::ids::PAGE_NUMBER_BITS;
use desim::SimDuration;
use std::fmt;

/// Update propagation strategy between main memory and external
/// storage (\[HR83\], §2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateStrategy {
    /// All pages modified by a transaction are written to the permanent
    /// database before commit.
    Force,
    /// Only log data is written at commit; dirty pages are written back
    /// on replacement.
    NoForce,
}

/// Which concurrency/coherency protocol couples the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplingMode {
    /// Close coupling: global lock table in GEM, synchronous entry
    /// accesses (§3.2).
    GemLocking,
    /// Loose coupling: primary copy locking with distributed lock
    /// authority and message passing (\[Ra86\]).
    Pcl,
    /// A central special-purpose *lock engine* (\[Yu87\], discussed in
    /// §5): same global-lock-table protocol as GEM locking, but lock
    /// operations are served by a dedicated processor with service
    /// times of 100–500 µs instead of 2 µs entry accesses — the paper
    /// notes this supports "much smaller transaction rates".
    LockEngine,
}

/// Parameters of the [`CouplingMode::LockEngine`] comparison point.
#[derive(Debug, Clone, PartialEq)]
pub struct LockEngineConfig {
    /// Lock-engine processors.
    pub servers: u32,
    /// Service time per lock operation (\[Yu87\]: 100–500 µs).
    pub op_service_us: f64,
}

impl Default for LockEngineConfig {
    fn default() -> Self {
        LockEngineConfig {
            servers: 1,
            op_service_us: 300.0,
        }
    }
}

/// Workload allocation strategy (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingStrategy {
    /// Balanced random routing.
    Random,
    /// Affinity-based routing (branch partitioning for debit-credit, a
    /// routing table for traces).
    Affinity,
}

/// How NOFORCE page transfers between nodes are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageTransferMode {
    /// Page request + page transfer messages across the network
    /// (the paper's default for GEM locking).
    Network,
    /// Pages exchanged through GEM (the §6 suggestion; an extension
    /// experiment in this reproduction).
    Gem,
}

/// CPU capacity and transaction path-length parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Processors per node (Table 4.1: 4).
    pub cpus_per_node: u32,
    /// Capacity per processor in MIPS (Table 4.1: 10).
    pub mips_per_cpu: f64,
    /// Mean instructions for begin-of-transaction processing.
    pub bot_instr: f64,
    /// Mean instructions for end-of-transaction (commit) processing.
    pub eot_instr: f64,
    /// Mean instructions per record access. All three are sampled from
    /// exponential distributions, as in §3.2.
    pub per_access_instr: f64,
}

impl Default for CpuConfig {
    /// Debit-credit defaults: 4 × 10 MIPS; 250 000 instructions per
    /// transaction split as 20k BOT + 4 × 50k accesses + 30k EOT.
    fn default() -> Self {
        CpuConfig {
            cpus_per_node: 4,
            mips_per_cpu: 10.0,
            bot_instr: 20_000.0,
            eot_instr: 30_000.0,
            per_access_instr: 50_000.0,
        }
    }
}

impl CpuConfig {
    /// Aggregate node capacity in instructions per second.
    pub fn node_ips(&self) -> f64 {
        self.cpus_per_node as f64 * self.mips_per_cpu * 1e6
    }

    /// Time to execute `instr` instructions on one processor.
    pub fn exec_time(&self, instr: f64) -> SimDuration {
        SimDuration::from_secs_f64(instr / (self.mips_per_cpu * 1e6))
    }
}

/// Global Extended Memory parameters (Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GemConfig {
    /// Number of GEM servers (Table 4.1: 1).
    pub servers: u32,
    /// Average access time per page (Table 4.1: 50 µs).
    pub page_access_us: f64,
    /// Average access time per entry (Table 4.1: 2 µs).
    pub entry_access_us: f64,
    /// CPU instructions to initiate a GEM page I/O (Table 4.1: 300,
    /// versus 3000 for disk I/O).
    pub io_init_instr: f64,
    /// CPU instructions to process one lock or unlock against the
    /// global lock table (excluding the synchronous entry-access time).
    pub lock_op_instr: f64,
}

impl Default for GemConfig {
    fn default() -> Self {
        GemConfig {
            servers: 1,
            page_access_us: 50.0,
            entry_access_us: 2.0,
            io_init_instr: 300.0,
            lock_op_instr: 300.0,
        }
    }
}

/// Communication system parameters (Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CommConfig {
    /// Network bandwidth in MB/s (Table 4.1: 10).
    pub bandwidth_mb_per_s: f64,
    /// Size of a "short" (control) message in bytes (Table 4.1: 100 B).
    pub short_msg_bytes: u64,
    /// Size of a "long" (page transfer) message in bytes (Table 4.1: 4 KB).
    pub long_msg_bytes: u64,
    /// CPU instructions per send *or* receive of a short message
    /// (Table 4.1: 5000).
    pub short_msg_instr: f64,
    /// CPU instructions per send *or* receive of a long message
    /// (Table 4.1: 8000).
    pub long_msg_instr: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            bandwidth_mb_per_s: 10.0,
            short_msg_bytes: 100,
            long_msg_bytes: 4096,
            short_msg_instr: 5_000.0,
            long_msg_instr: 8_000.0,
        }
    }
}

impl CommConfig {
    /// Wire time of a message of `bytes` at the configured bandwidth.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / (self.bandwidth_mb_per_s * 1e6))
    }
}

/// Disk subsystem parameters (Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Average disk access time for database disks (Table 4.1: 15 ms).
    pub db_disk_ms: f64,
    /// Average disk access time for log disks (Table 4.1: 5 ms —
    /// sequential access shortens seeks).
    pub log_disk_ms: f64,
    /// Average controller service time (Table 4.1: 1 ms).
    pub controller_ms: f64,
    /// Average page transfer time between main memory and controller
    /// (Table 4.1: 0.4 ms).
    pub transfer_ms: f64,
    /// CPU instructions per disk page I/O (Table 4.1: 3000).
    pub io_instr_per_page: f64,
    /// Log disks per node (the paper allocates enough devices to avoid
    /// I/O bottlenecks; logging is per node).
    pub log_disks_per_node: u32,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            db_disk_ms: 15.0,
            log_disk_ms: 5.0,
            controller_ms: 1.0,
            transfer_ms: 0.4,
            io_instr_per_page: 3_000.0,
            log_disks_per_node: 2,
        }
    }
}

/// Where a database partition's pages live (§3.3 / §4.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StorageAllocation {
    /// Conventional magnetic disks (an array of `disks` devices,
    /// pages striped across them).
    Disk {
        /// Number of disks the partition is striped over.
        disks: u32,
    },
    /// Disks fronted by a shared controller cache implementing a
    /// global database buffer (§4.4, Fig. 4.4).
    CachedDisk {
        /// Number of disks behind the cache.
        disks: u32,
        /// Cache capacity in pages.
        cache_pages: u64,
        /// Non-volatile caches absorb writes too; volatile ones only
        /// serve read hits.
        nonvolatile: bool,
    },
    /// Partition resident in GEM (§4.4, Fig. 4.3): 50 µs synchronous
    /// page accesses, no disk involved.
    Gem,
    /// Disks fronted by a small *non-volatile GEM write buffer* (§2
    /// usage form 2): writes complete in GEM (~50 µs) and are destaged
    /// to disk asynchronously; reads of recently written pages are
    /// served from the buffer.
    WriteBufferedDisk {
        /// Number of disks behind the write buffer.
        disks: u32,
        /// Write-buffer capacity in pages (small by design).
        buffer_pages: u64,
    },
}

impl StorageAllocation {
    /// Convenience: a plain disk array.
    pub const fn disk(disks: u32) -> Self {
        StorageAllocation::Disk { disks }
    }
}

/// Static description of one database partition (file).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Human-readable name ("BRANCH/TELLER", "ACCOUNT", ...).
    pub name: String,
    /// Partition size in pages.
    pub pages: u64,
    /// Whether page locks are acquired for this partition (Table 4.1
    /// switches locking off for HISTORY, whose tail is latched).
    pub locking: bool,
    /// Storage device allocation.
    pub storage: StorageAllocation,
}

/// Where commit log records are written (§2: keeping log files
/// resident in GEM avoids the log-disk delay entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogStorage {
    /// Per-node log disks (Table 4.1: 5 ms + controller + transfer).
    Disk,
    /// Log records written to GEM (~50 µs page writes).
    Gem,
}

/// A node-failure injection (reproduction extension, motivated by the
/// paper's §1 availability discussion): the node crashes, loses its
/// volatile state (buffer, and under PCL its lock-authority tables),
/// and rejoins after `recovery_secs` of log-based recovery. GEM's
/// non-volatility preserves the global lock table across the crash —
/// the close coupling's availability advantage, made measurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashConfig {
    /// The node that fails (0-based).
    pub node: u16,
    /// Crash instant in simulated seconds.
    pub at_secs: f64,
    /// Recovery duration in simulated seconds; afterwards the node
    /// rejoins with a cold buffer.
    pub recovery_secs: f64,
}

/// Run-control parameters: seeding and run length.
#[derive(Debug, Clone, PartialEq)]
pub struct RunControl {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Transactions completed (system-wide) before statistics start.
    pub warmup_txns: u64,
    /// Transactions measured after warm-up; the run ends when this
    /// many measured transactions have committed.
    pub measured_txns: u64,
    /// Optional hard stop in simulated seconds. An overloaded (open)
    /// system never reaches its measured-transaction target — this cap
    /// ends the run anyway and the report is flagged as truncated.
    pub max_sim_secs: Option<f64>,
    /// Optional no-progress watchdog threshold in simulated seconds.
    /// When set and no transaction commits for this long while some
    /// are live, the engine dumps diagnostic state to stderr (and
    /// emits a `Watchdog` trace event if tracing is on). `None`
    /// disables the watchdog entirely.
    pub watchdog_secs: Option<f64>,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl {
            seed: 0xDB5_4A6E,
            warmup_txns: 2_000,
            measured_txns: 20_000,
            max_sim_secs: None,
            watchdog_secs: None,
        }
    }
}

/// The complete parameter record for one simulation run.
///
/// Construct with [`SystemConfig::debit_credit`] (Table 4.1 defaults)
/// and adjust fields, then pass to the engine. The engine calls
/// [`validate`](SystemConfig::validate) before running.
///
/// ```rust
/// use dbshare_model::{SystemConfig, CouplingMode, UpdateStrategy,
///                     PartitionConfig, StorageAllocation};
/// let mut cfg = SystemConfig::debit_credit(4);
/// cfg.coupling = CouplingMode::Pcl;
/// cfg.update = UpdateStrategy::NoForce;
/// // The workload builders normally fill in the database layout:
/// cfg.partitions.push(PartitionConfig {
///     name: "ACCOUNT".into(),
///     pages: 1_000_000,
///     locking: true,
///     storage: StorageAllocation::disk(5),
/// });
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of processing nodes (Table 4.1: 1–10).
    pub nodes: u16,
    /// Transaction arrival rate per node in TPS (Table 4.1: 100).
    pub arrival_tps_per_node: f64,
    /// Multiprogramming level per node; chosen high enough that no
    /// input queuing occurs, as in §4.1.
    pub mpl_per_node: u32,
    /// Concurrency/coherency protocol.
    pub coupling: CouplingMode,
    /// FORCE or NOFORCE update propagation.
    pub update: UpdateStrategy,
    /// Random or affinity-based transaction routing.
    pub routing: RoutingStrategy,
    /// Page-transfer channel for NOFORCE misses under GEM locking.
    pub page_transfer: PageTransferMode,
    /// Database buffer frames per node (Table 4.1: 200 or 1000).
    pub buffer_pages_per_node: u64,
    /// CPU parameters.
    pub cpu: CpuConfig,
    /// GEM parameters.
    pub gem: GemConfig,
    /// Communication parameters.
    pub comm: CommConfig,
    /// Disk parameters.
    pub disk: DiskConfig,
    /// The database layout (filled in by the workload builders).
    pub partitions: Vec<PartitionConfig>,
    /// CPU instructions for locally processing a PCL lock or unlock.
    pub pcl_local_lock_instr: f64,
    /// Enables the PCL read optimization (\[Ra86\]): read locks on pages
    /// with a valid local copy and an outstanding read authorization
    /// are processed without messages. Used for the §4.6 trace runs.
    pub pcl_read_optimization: bool,
    /// Where commit log records go (§2 extension; Table 4.1 uses log
    /// disks).
    pub log_storage: LogStorage,
    /// Lock-engine parameters (only used with
    /// [`CouplingMode::LockEngine`]).
    pub lock_engine: LockEngineConfig,
    /// Optional node-failure injection.
    pub crash: Option<CrashConfig>,
    /// Pre-size budget (entries) for each page-metadata structure —
    /// lock tables, GLA page maps, read-authorization tables. `None`
    /// keeps the historical dense pre-sizing (twice the buffer
    /// capacity per node); `Some(n)` caps every such pre-allocation at
    /// `n` entries, with entries past the budget materialized lazily
    /// on first touch. Purely a memory/allocation knob: results are
    /// bit-identical at every setting (no hash-map iteration order
    /// escapes into outputs), which the scale scenarios rely on to
    /// keep 200-node configs from pre-allocating
    /// `buffer × nodes`-sized tables up front.
    pub page_metadata_budget: Option<usize>,
    /// Run length and seeding.
    pub run: RunControl,
}

impl SystemConfig {
    /// Table 4.1 defaults for `nodes` nodes *without* the database
    /// layout (partitions are added by the workload builders in
    /// `dbshare-workload`).
    pub fn debit_credit(nodes: u16) -> Self {
        SystemConfig {
            nodes,
            arrival_tps_per_node: 100.0,
            mpl_per_node: 64,
            coupling: CouplingMode::GemLocking,
            update: UpdateStrategy::NoForce,
            routing: RoutingStrategy::Affinity,
            page_transfer: PageTransferMode::Network,
            buffer_pages_per_node: 200,
            cpu: CpuConfig::default(),
            gem: GemConfig::default(),
            comm: CommConfig::default(),
            disk: DiskConfig::default(),
            partitions: Vec::new(),
            pcl_local_lock_instr: 300.0,
            pcl_read_optimization: false,
            log_storage: LogStorage::Disk,
            lock_engine: LockEngineConfig::default(),
            crash: None,
            page_metadata_budget: None,
            run: RunControl::default(),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated
    /// constraint (zero nodes, empty database, non-positive rates...).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new("nodes must be >= 1"));
        }
        if self.arrival_tps_per_node <= 0.0 || !self.arrival_tps_per_node.is_finite() {
            return Err(ConfigError::new("arrival rate must be positive"));
        }
        if self.mpl_per_node == 0 {
            return Err(ConfigError::new("MPL must be >= 1"));
        }
        if self.buffer_pages_per_node == 0 {
            return Err(ConfigError::new("buffer must hold at least one page"));
        }
        if self.partitions.is_empty() {
            return Err(ConfigError::new(
                "no partitions: use a workload builder to populate the database layout",
            ));
        }
        if self.cpu.cpus_per_node == 0 || self.cpu.mips_per_cpu <= 0.0 {
            return Err(ConfigError::new("CPU configuration must be positive"));
        }
        if self.gem.servers == 0 {
            return Err(ConfigError::new("GEM needs at least one server"));
        }
        if self.lock_engine.servers == 0 || self.lock_engine.op_service_us <= 0.0 {
            return Err(ConfigError::new(
                "lock engine needs servers and service time",
            ));
        }
        if self.comm.bandwidth_mb_per_s <= 0.0 {
            return Err(ConfigError::new("network bandwidth must be positive"));
        }
        for p in &self.partitions {
            if p.pages == 0 {
                return Err(ConfigError::new("partition with zero pages"));
            }
            if p.pages > 1 << PAGE_NUMBER_BITS {
                return Err(ConfigError::new(
                    "partition with more than 2^48 pages: a page number has 48 bits",
                ));
            }
            match p.storage {
                StorageAllocation::Disk { disks: 0 } => {
                    return Err(ConfigError::new("disk array with zero disks"));
                }
                StorageAllocation::CachedDisk {
                    disks, cache_pages, ..
                } if disks == 0 || cache_pages == 0 => {
                    return Err(ConfigError::new("cached disk array needs disks and cache"));
                }
                StorageAllocation::WriteBufferedDisk {
                    disks,
                    buffer_pages,
                } if disks == 0 || buffer_pages == 0 => {
                    return Err(ConfigError::new(
                        "write-buffered disk array needs disks and a buffer",
                    ));
                }
                _ => {}
            }
        }
        if self.run.measured_txns == 0 {
            return Err(ConfigError::new("measured_txns must be positive"));
        }
        if let Some(c) = self.crash {
            if c.node >= self.nodes {
                return Err(ConfigError::new("crash node out of range"));
            }
            if self.nodes < 2 {
                return Err(ConfigError::new("crashing the only node halts the system"));
            }
            if c.at_secs < 0.0 || c.recovery_secs <= 0.0 {
                return Err(ConfigError::new("crash times must be positive"));
            }
        }
        Ok(())
    }

    /// Offered CPU utilization from pure transaction path length (not
    /// counting I/O and message overhead): `rate × pathlength / capacity`.
    ///
    /// For Table 4.1 (100 TPS, 250k instructions, 40 MIPS) this is the
    /// paper's "at least 62.5%".
    pub fn base_cpu_utilization(&self, accesses_per_txn: f64) -> f64 {
        let path =
            self.cpu.bot_instr + self.cpu.eot_instr + accesses_per_txn * self.cpu.per_access_instr;
        self.arrival_tps_per_node * path / self.cpu.node_ips()
    }

    /// GEM page access time as a duration.
    pub fn gem_page_time(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.gem.page_access_us)
    }

    /// GEM entry access time as a duration.
    pub fn gem_entry_time(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.gem.entry_access_us)
    }
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_partition(mut cfg: SystemConfig) -> SystemConfig {
        cfg.partitions.push(PartitionConfig {
            name: "X".into(),
            pages: 10,
            locking: true,
            storage: StorageAllocation::disk(1),
        });
        cfg
    }

    #[test]
    fn table_4_1_defaults() {
        let cfg = SystemConfig::debit_credit(10);
        assert_eq!(cfg.nodes, 10);
        assert_eq!(cfg.arrival_tps_per_node, 100.0);
        assert_eq!(cfg.cpu.cpus_per_node, 4);
        assert_eq!(cfg.cpu.mips_per_cpu, 10.0);
        assert_eq!(cfg.buffer_pages_per_node, 200);
        assert_eq!(cfg.gem.page_access_us, 50.0);
        assert_eq!(cfg.gem.entry_access_us, 2.0);
        assert_eq!(cfg.comm.short_msg_instr, 5_000.0);
        assert_eq!(cfg.comm.long_msg_instr, 8_000.0);
        assert_eq!(cfg.disk.db_disk_ms, 15.0);
        assert_eq!(cfg.disk.log_disk_ms, 5.0);
        assert_eq!(cfg.disk.io_instr_per_page, 3_000.0);
    }

    #[test]
    fn pathlength_is_250k() {
        let cpu = CpuConfig::default();
        let total = cpu.bot_instr + cpu.eot_instr + 4.0 * cpu.per_access_instr;
        assert_eq!(total, 250_000.0);
    }

    #[test]
    fn base_utilization_matches_paper() {
        let cfg = with_partition(SystemConfig::debit_credit(1));
        // 100 TPS × 250k instr / 40 MIPS = 62.5%
        let u = cfg.base_cpu_utilization(4.0);
        assert!((u - 0.625).abs() < 1e-9, "{u}");
    }

    #[test]
    fn disk_access_time_components() {
        let d = DiskConfig::default();
        // §4.1: average access time per page without queueing is
        // 16.4 ms for DB disks, 6.4 ms for log disks, 1.4 ms for cache hits.
        assert_eq!(d.db_disk_ms + d.controller_ms + d.transfer_ms, 16.4);
        assert_eq!(d.log_disk_ms + d.controller_ms + d.transfer_ms, 6.4);
        assert!((d.controller_ms + d.transfer_ms - 1.4).abs() < 1e-12);
    }

    #[test]
    fn exec_time_and_wire_time() {
        let cpu = CpuConfig::default();
        // 10k instructions at 10 MIPS = 1 ms
        assert_eq!(cpu.exec_time(10_000.0), SimDuration::from_millis(1));
        let comm = CommConfig::default();
        // 100 B at 10 MB/s = 10 µs; 4 KB = 409.6 µs
        assert_eq!(comm.wire_time(100), SimDuration::from_micros(10));
        assert_eq!(comm.wire_time(4096).as_nanos(), 409_600);
    }

    #[test]
    fn validate_accepts_good_config() {
        let cfg = with_partition(SystemConfig::debit_credit(2));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let good = with_partition(SystemConfig::debit_credit(2));

        let mut c = good.clone();
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.arrival_tps_per_node = 0.0;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.partitions.clear();
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.partitions[0].pages = 0;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.partitions[0].pages = (1 << 48) + 1;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("2^48 pages"), "{err}");
        c.partitions[0].pages = 1 << 48;
        assert!(c.validate().is_ok());

        let mut c = good.clone();
        c.partitions[0].storage = StorageAllocation::disk(0);
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.buffer_pages_per_node = 0;
        assert!(c.validate().is_err());

        let mut c = good;
        c.run.measured_txns = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_error_displays() {
        let cfg = SystemConfig::debit_credit(0);
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("nodes"));
    }
}
