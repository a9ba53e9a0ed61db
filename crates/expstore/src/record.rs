//! The store's row type: one executed job, fully provenance-stamped.
//!
//! A [`Record`] is the unit the append-only log persists and the gate
//! compares: which figure/curve/point ran, under which configuration
//! (the config fingerprint covers every parameter including seed and
//! run length), what it produced (the metric fingerprint pins every
//! headline metric bit-exactly), which build produced it (git
//! revision, rustc, profile), and what it cost on the host (wall
//! seconds, events, allocations). Records serialize to one compact
//! JSON line each ([`Record::to_line`]) and parse back losslessly
//! ([`Record::from_line`]); the field order is fixed so re-rendering a
//! record this version wrote is byte-identical. Keys of older layouts
//! that no field holds any more (the engine thread count) are ignored
//! on parse and dropped on re-render.
//!
//! A record is also one row of the `BENCH_repro.json` artifact: the
//! harness renders each job's record with [`Record::to_json`], and the
//! optional [`JobDetail`] trailer carries the figures the artifact
//! reports beyond what the gate and the trend tables read.

use crate::json::Json;

/// Store schema version, embedded in every row as `"v"`. Bumped on
/// incompatible layout changes; readers reject rows they don't know.
pub const SCHEMA_VERSION: u64 = 1;

/// Build/run provenance shared by every record of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD` at build time (`-dirty` suffix when the
    /// tree had uncommitted changes); `"unknown"` without a checkout.
    pub git_revision: String,
    /// `rustc -V` of the compiler that built the binary.
    pub rustc_version: String,
    /// Cargo build profile (`release`, `debug`, ...).
    pub build_profile: String,
}

/// One persisted job result: a single row of the experiment store.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Opaque run id grouping the rows appended by one harness run.
    pub run: String,
    /// Unix timestamp of the run (0 when the clock was unreadable).
    pub created_unix: u64,
    /// Build provenance of the binary that executed the job.
    pub provenance: Provenance,
    /// Figure key, e.g. `"fig41"`.
    pub figure: String,
    /// Curve label as in the paper's legend.
    pub curve: String,
    /// Swept node count (the x-axis value).
    pub nodes: u16,
    /// The run's master seed.
    pub seed: u64,
    /// Logical CPUs of the host that executed the job (0 when unknown
    /// or on rows written before this field existed). Host provenance
    /// for reading wall-clock numbers.
    pub host_cpus: u32,
    /// FNV-1a hash of the job's complete configuration.
    pub config_fingerprint: String,
    /// FNV-1a hash over the bits of every headline metric — equal iff
    /// the simulation produced bit-identical results.
    pub metric_fingerprint: String,
    /// Host wall-clock seconds the job took.
    pub wall_secs: f64,
    /// Calendar events the job processed.
    pub events_processed: u64,
    /// Host heap allocations per processed event.
    pub allocs_per_event: f64,
    /// Headline simulated metric: mean response time in ms.
    pub mean_response_ms: f64,
    /// Headline simulated metric: system throughput in TPS.
    pub throughput_tps: f64,
    /// Process peak RSS in MiB sampled after the job (an upper-bound
    /// estimate — the high-water mark is process-wide). `None` on
    /// platforms without the figure and on rows written before the
    /// field existed; rendered only when present so legacy rows
    /// re-serialize byte-identically.
    pub peak_rss_mb: Option<f64>,
    /// Binding constraint of the run — the most-utilized resource
    /// (`"cpu"`, `"network"`, `"disk:<group>"`, ...), as attributed by
    /// `sim::explain`. `None` on rows written before attribution
    /// existed; rendered only when present.
    pub binding: Option<String>,
    /// The binding constraint's utilization in `[0, 1]`.
    pub binding_utilization: Option<f64>,
    /// The runner-up resource (what would bind after fixing the
    /// first).
    pub next_constraint: Option<String>,
    /// The runner-up's utilization in `[0, 1]`.
    pub next_utilization: Option<f64>,
    /// Compact utilization stack for report rendering.
    pub utils: Option<ResourceUtils>,
    /// The artifact's report-only figures. `None` on rows written
    /// before artifact rows were store records; rendered only when
    /// present.
    pub detail: Option<JobDetail>,
}

/// Per-job figures a record carries for readers of the artifact:
/// host allocation totals and peak heap, and the run's simulated
/// headline numbers.
/// Neither the gate nor the trend tables read them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDetail {
    /// Host heap allocations the job performed.
    pub host_allocs: u64,
    /// Bytes those allocations requested.
    pub host_alloc_bytes: u64,
    /// Peak heap bytes the job held live. `None` on rows written before
    /// the peak was counted; rendered only when present.
    pub peak_heap_bytes: Option<u64>,
    /// Length of the measurement window in simulated seconds.
    pub sim_seconds: f64,
    /// Committed transactions in the measurement window.
    pub measured_txns: u64,
    /// Response time normalized to a transaction of average size.
    pub norm_response_ms: f64,
    /// Throughput per node at 80% CPU utilization (the Fig. 4.6
    /// metric).
    pub tps_per_node_at_80pct_cpu: f64,
    /// Average CPU utilization across nodes.
    pub cpu_utilization: f64,
    /// GEM server utilization.
    pub gem_utilization: f64,
    /// Per-partition disk-array utilization `(name, utilization)`.
    pub disk_utilizations: Vec<(String, f64)>,
}

/// A row's compact per-resource utilization stack: the handful of
/// numbers the HTML report draws. Coarser than the full
/// `sim::explain` attribution — coupled resources (GEM, lock engine)
/// and disk groups each fold to their maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUtils {
    /// Hottest node's CPU utilization.
    pub cpu: f64,
    /// Coupling facility: max of GEM and lock-engine utilization.
    pub coupling: f64,
    /// Network utilization.
    pub network: f64,
    /// Hottest disk group's utilization.
    pub disk: f64,
    /// Hottest log disk's utilization.
    pub log: f64,
}

impl Record {
    /// Host event rate of the job — the store's perf trend metric.
    pub fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.wall_secs.max(1e-9)
    }

    /// The record as a [`Json`] object with the store's fixed key
    /// order.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj(vec![
            ("v", Json::Num(SCHEMA_VERSION as f64)),
            ("run", Json::Str(self.run.clone())),
            ("created_unix", Json::Num(self.created_unix as f64)),
            (
                "git_revision",
                Json::Str(self.provenance.git_revision.clone()),
            ),
            (
                "rustc_version",
                Json::Str(self.provenance.rustc_version.clone()),
            ),
            (
                "build_profile",
                Json::Str(self.provenance.build_profile.clone()),
            ),
            ("figure", Json::Str(self.figure.clone())),
            ("curve", Json::Str(self.curve.clone())),
            ("nodes", Json::Num(f64::from(self.nodes))),
            ("seed", Json::Num(self.seed as f64)),
            ("host_cpus", Json::Num(f64::from(self.host_cpus))),
            (
                "config_fingerprint",
                Json::Str(self.config_fingerprint.clone()),
            ),
            (
                "metric_fingerprint",
                Json::Str(self.metric_fingerprint.clone()),
            ),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("events_processed", Json::Num(self.events_processed as f64)),
            ("allocs_per_event", Json::Num(self.allocs_per_event)),
            ("mean_response_ms", Json::Num(self.mean_response_ms)),
            ("throughput_tps", Json::Num(self.throughput_tps)),
        ]);
        // Optional trailer: present only when sampled, so rows without
        // it (legacy rows, non-Linux hosts) re-render byte-identically.
        if let Some(mb) = self.peak_rss_mb {
            doc.set("peak_rss_mb", Json::Num(mb));
        }
        if let Some(b) = &self.binding {
            doc.set("binding", Json::Str(b.clone()));
        }
        if let Some(u) = self.binding_utilization {
            doc.set("binding_utilization", Json::Num(u));
        }
        if let Some(n) = &self.next_constraint {
            doc.set("next_constraint", Json::Str(n.clone()));
        }
        if let Some(u) = self.next_utilization {
            doc.set("next_utilization", Json::Num(u));
        }
        if let Some(us) = &self.utils {
            doc.set(
                "utilizations",
                Json::obj(vec![
                    ("cpu", Json::Num(us.cpu)),
                    ("coupling", Json::Num(us.coupling)),
                    ("network", Json::Num(us.network)),
                    ("disk", Json::Num(us.disk)),
                    ("log", Json::Num(us.log)),
                ]),
            );
        }
        if let Some(d) = &self.detail {
            doc.set("events_per_sec", Json::Num(self.events_per_sec()));
            doc.set("host_allocs", Json::Num(d.host_allocs as f64));
            doc.set("host_alloc_bytes", Json::Num(d.host_alloc_bytes as f64));
            if let Some(bytes) = d.peak_heap_bytes {
                doc.set("peak_heap_bytes", Json::Num(bytes as f64));
            }
            doc.set("sim_seconds", Json::Num(d.sim_seconds));
            doc.set("measured_txns", Json::Num(d.measured_txns as f64));
            doc.set("norm_response_ms", Json::Num(d.norm_response_ms));
            doc.set(
                "tps_per_node_at_80pct_cpu",
                Json::Num(d.tps_per_node_at_80pct_cpu),
            );
            doc.set("cpu_utilization", Json::Num(d.cpu_utilization));
            doc.set("gem_utilization", Json::Num(d.gem_utilization));
            doc.set(
                "disk_utilizations",
                Json::Obj(
                    d.disk_utilizations
                        .iter()
                        .map(|(name, util)| (name.clone(), Json::Num(*util)))
                        .collect(),
                ),
            );
        }
        doc
    }

    /// Renders the record as one store line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render_line()
    }

    /// Reads a record back from a parsed store row.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let version = num_field("v")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported record version {version} (this reader knows {SCHEMA_VERSION})"
            ));
        }
        // `host_allocs` marks the report-only group; `events_per_sec`
        // is derived, so it is re-rendered rather than read.
        let detail = match doc.get("host_allocs") {
            None => None,
            Some(_) => Some(JobDetail {
                host_allocs: num_field("host_allocs")? as u64,
                host_alloc_bytes: num_field("host_alloc_bytes")? as u64,
                peak_heap_bytes: match doc.get("peak_heap_bytes") {
                    None => None,
                    Some(_) => Some(num_field("peak_heap_bytes")? as u64),
                },
                sim_seconds: num_field("sim_seconds")?,
                measured_txns: num_field("measured_txns")? as u64,
                norm_response_ms: num_field("norm_response_ms")?,
                tps_per_node_at_80pct_cpu: num_field("tps_per_node_at_80pct_cpu")?,
                cpu_utilization: num_field("cpu_utilization")?,
                gem_utilization: num_field("gem_utilization")?,
                disk_utilizations: match doc.get("disk_utilizations") {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .map(|(name, util)| {
                            util.as_f64()
                                .map(|u| (name.clone(), u))
                                .ok_or_else(|| format!("disk utilization {name:?} is not a number"))
                        })
                        .collect::<Result<_, _>>()?,
                    _ => return Err("missing object field \"disk_utilizations\"".into()),
                },
            }),
        };
        Ok(Record {
            run: str_field("run")?,
            created_unix: num_field("created_unix")? as u64,
            provenance: Provenance {
                git_revision: str_field("git_revision")?,
                rustc_version: str_field("rustc_version")?,
                build_profile: str_field("build_profile")?,
            },
            figure: str_field("figure")?,
            curve: str_field("curve")?,
            nodes: num_field("nodes")? as u16,
            seed: num_field("seed")? as u64,
            // Optional with a default: older rows carry no host CPU
            // count and stay readable (still schema v1). Keys this
            // reader does not know, such as the engine thread count
            // legacy rows recorded, are ignored.
            host_cpus: doc.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            config_fingerprint: str_field("config_fingerprint")?,
            metric_fingerprint: str_field("metric_fingerprint")?,
            wall_secs: num_field("wall_secs")?,
            events_processed: num_field("events_processed")? as u64,
            allocs_per_event: num_field("allocs_per_event")?,
            mean_response_ms: num_field("mean_response_ms")?,
            throughput_tps: num_field("throughput_tps")?,
            peak_rss_mb: doc.get("peak_rss_mb").and_then(Json::as_f64),
            binding: doc
                .get("binding")
                .and_then(Json::as_str)
                .map(str::to_string),
            binding_utilization: doc.get("binding_utilization").and_then(Json::as_f64),
            next_constraint: doc
                .get("next_constraint")
                .and_then(Json::as_str)
                .map(str::to_string),
            next_utilization: doc.get("next_utilization").and_then(Json::as_f64),
            utils: doc.get("utilizations").map(|us| {
                let f = |key: &str| us.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                ResourceUtils {
                    cpu: f("cpu"),
                    coupling: f("coupling"),
                    network: f("network"),
                    disk: f("disk"),
                    log: f("log"),
                }
            }),
            detail,
        })
    }

    /// Parses one store line.
    pub fn from_line(line: &str) -> Result<Record, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        Record::from_json(&doc)
    }
}

/// A 64-bit FNV-1a hash of `text`, as 16 hex digits. The harness's
/// config fingerprints and the config-set fingerprints of
/// [`figure_runs`](crate::figure_runs) both use it, so every layer
/// derives identifiers identically.
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(figure: &str, nodes: u16, seed: u64) -> Record {
        Record {
            run: "r100-1-0".into(),
            created_unix: 1_760_000_000,
            provenance: Provenance {
                git_revision: "abc123".into(),
                rustc_version: "rustc 1.80.0".into(),
                build_profile: "release".into(),
            },
            figure: figure.into(),
            curve: "GEM, NOFORCE".into(),
            nodes,
            seed,
            host_cpus: 8,
            config_fingerprint: format!("cfg{figure}{nodes}"),
            metric_fingerprint: format!("met{figure}{nodes}"),
            wall_secs: 0.5,
            events_processed: 70_000,
            allocs_per_event: 0.0625,
            mean_response_ms: 71.7,
            throughput_tps: 197.0,
            peak_rss_mb: None,
            binding: None,
            binding_utilization: None,
            next_constraint: None,
            next_utilization: None,
            utils: None,
            detail: None,
        }
    }

    #[test]
    fn line_round_trip_is_lossless() {
        let rec = sample("fig41", 4, 42);
        let line = rec.to_line();
        assert!(!line.contains('\n'));
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back, rec);
        // Re-serialization of the parsed record is byte-identical.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn peak_rss_round_trips_and_stays_optional() {
        let mut rec = sample("fig41", 2, 9);
        // Absent: the rendered line must not mention the key at all,
        // so rows written before the field existed stay byte-stable.
        assert!(!rec.to_line().contains("peak_rss_mb"));
        rec.peak_rss_mb = Some(512.25);
        let line = rec.to_line();
        assert!(line.contains("peak_rss_mb"));
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back.peak_rss_mb, Some(512.25));
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn explain_trailer_round_trips_and_stays_optional() {
        let mut rec = sample("fig41", 2, 9);
        // Absent: no attribution keys in the rendered line, so rows
        // written before the fields existed stay byte-stable.
        let bare = rec.to_line();
        assert!(!bare.contains("binding"));
        assert!(!bare.contains("utilizations"));
        rec.binding = Some("network".into());
        rec.binding_utilization = Some(0.71);
        rec.next_constraint = Some("cpu".into());
        rec.next_utilization = Some(0.644);
        rec.utils = Some(ResourceUtils {
            cpu: 0.644,
            coupling: 0.31,
            network: 0.71,
            disk: 0.39,
            log: 0.1,
        });
        let line = rec.to_line();
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);
        assert_eq!(back.binding.as_deref(), Some("network"));
        assert_eq!(back.utils.unwrap().network, 0.71);
    }

    #[test]
    fn detail_trailer_round_trips_and_stays_optional() {
        let mut rec = sample("fig41", 2, 9);
        let bare = rec.to_line();
        assert!(!bare.contains("host_allocs") && !bare.contains("events_per_sec"));
        rec.detail = Some(JobDetail {
            host_allocs: 4_375,
            host_alloc_bytes: 1_048_576,
            peak_heap_bytes: Some(524_288),
            sim_seconds: 12.5,
            measured_txns: 2_500,
            norm_response_ms: 71.7,
            tps_per_node_at_80pct_cpu: 128.25,
            cpu_utilization: 0.644,
            gem_utilization: 0.31,
            disk_utilizations: vec![("ACCOUNT".into(), 0.39), ("HISTORY".into(), 0.05)],
        });
        let doc = rec.to_json();
        // The derived event rate is rendered beside the stored fields.
        assert_eq!(
            doc.get("events_per_sec").and_then(Json::as_f64),
            Some(140_000.0)
        );
        let line = rec.to_line();
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);

        // A trailer written before the peak heap was counted parses
        // without it and re-renders unchanged.
        let mut older = doc.clone();
        older.remove("peak_heap_bytes");
        let back = Record::from_json(&older).expect("older trailer parses");
        assert_eq!(back.detail.as_ref().unwrap().peak_heap_bytes, None);
        assert_eq!(back.to_json(), older);

        let mut partial = doc;
        partial.remove("sim_seconds");
        let err = Record::from_json(&partial).expect_err("incomplete trailer");
        assert!(err.contains("sim_seconds"), "unhelpful error: {err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut doc = sample("fig41", 1, 7).to_json();
        doc.set("v", Json::Num(99.0));
        let err = Record::from_json(&doc).expect_err("version 99 must be rejected");
        assert!(err.contains("version 99"), "unhelpful error: {err}");
    }

    #[test]
    fn missing_fields_name_the_field() {
        let err = Record::from_line("{\"v\":1.0,\"run\":\"r\"}").expect_err("incomplete row");
        assert!(err.contains("created_unix"), "unhelpful error: {err}");
    }

    #[test]
    fn legacy_rows_with_and_without_cores_parse() {
        // The committed baseline history holds rows that recorded an
        // engine thread count (`cores`) and older rows that carry
        // neither it nor `host_cpus`. Both must stay readable; the
        // `cores` key is ignored and dropped on re-render.
        let rec = sample("fig41", 2, 7);
        let mut with_cores = rec.to_json();
        with_cores.set("cores", Json::Num(2.0));
        let back = Record::from_json(&with_cores).expect("row with cores parses");
        assert_eq!(back, rec);
        assert_eq!(back.host_cpus, 8);
        assert_eq!(back.to_line(), rec.to_line());

        let mut without = rec.to_json();
        without.remove("host_cpus");
        let back = Record::from_json(&without).expect("row without cores parses");
        assert_eq!(back.host_cpus, 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }
}
