//! The store's row type: one executed job, fully provenance-stamped.
//!
//! A [`Record`] is the unit the append-only log persists and the gate
//! compares: which figure/curve/point ran, under which configuration
//! (the config fingerprint covers every parameter including seed and
//! run length), what it produced (the metric fingerprint pins every
//! headline metric bit-exactly), which build produced it (git
//! revision, rustc, profile), and what it cost on the host (wall
//! seconds, events, allocations, peak heap). Records serialize to one
//! compact JSON line each ([`Record::to_line`]) and parse back
//! losslessly ([`Record::from_line`]); the field order is fixed so
//! re-rendering a record is byte-identical. Every field is required
//! except the peak-RSS sample, which only Linux hosts take: a row
//! missing any other key is refused, naming the key.
//!
//! Each record is the one home of its job's bottleneck attribution:
//! the per-resource utilizations in a fixed order and the
//! response-time waits, from which [`Record::constraints`] ranks the
//! binding and the next constraint. The `--explain` table and sidecar,
//! the `--knee` verdicts, the trend tables and the HTML report all
//! render from these fields ([`explain`](crate::explain)).
//!
//! A run file (`repro --json`) holds one invocation's records in the
//! same line format as the store.

use crate::json::Json;

/// Store schema version, embedded in every row as `"v"`. Bumped on
/// incompatible layout changes; readers reject rows they don't know.
/// Version 3 stores the whole attribution (every resource's
/// utilization and the response-time waits) in place of version 2's
/// folded utilizations and stored binding.
pub const SCHEMA_VERSION: u64 = 3;

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
    /// Logical CPUs of the host that executed the job (0 when
    /// unknown). Host provenance for reading wall-clock numbers.
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
    /// platforms without the figure; rendered only when present.
    pub peak_rss_mb: Option<f64>,
    /// Every resource's utilization in `[0, 1]`, in the fixed order
    /// `cpu` (the hottest node's), `gem`, `lock-engine`, `network`, one
    /// `disk:<group>` per disk group, and `log` (the hottest log
    /// disk's). [`Record::constraints`] ranks them.
    pub resources: Vec<(String, f64)>,
    /// The mean response time decomposed into its waits.
    pub waits: Waits,
    /// Host allocation totals and peak heap, and the run's simulated
    /// headline numbers.
    pub detail: JobDetail,
}

/// A run's mean response time decomposed, in ms per committed
/// transaction. The components sum to (approximately) the record's
/// `mean_response_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waits {
    /// Input-queue (MPL) wait.
    pub input_ms: f64,
    /// Lock wait.
    pub lock_ms: f64,
    /// I/O wait.
    pub io_ms: f64,
    /// CPU queueing wait.
    pub cpu_wait_ms: f64,
    /// CPU service.
    pub cpu_service_ms: f64,
}

/// The resources every record names, in order, before its disk groups.
const FIXED_RESOURCES: [&str; 4] = ["cpu", "gem", "lock-engine", "network"];

/// Per-job figures a record carries for readers of the row:
/// host allocation totals and peak heap, and the run's simulated
/// headline numbers. The gate reads the peak heap; the trend tables
/// read the allocation count and the peak heap.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDetail {
    /// Host heap allocations the job performed.
    pub host_allocs: u64,
    /// Bytes those allocations requested.
    pub host_alloc_bytes: u64,
    /// Peak heap bytes the job held live (0 when the binary installed
    /// no counting allocator).
    pub peak_heap_bytes: u64,
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
}

impl Record {
    /// Host event rate of the job — the store's perf trend metric.
    pub fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.wall_secs.max(1e-9)
    }

    /// The binding constraint (the most-utilized resource) and the next
    /// constraint (the runner-up: what would bind after fixing the
    /// first), as `(name, utilization)`. Of equal utilizations the
    /// earlier resource ranks higher. Panics on fewer than two
    /// resources, which no readable row has.
    pub fn constraints(&self) -> [(&str, f64); 2] {
        let rank = |skip: Option<usize>| {
            let mut best: Option<usize> = None;
            for (i, (_, util)) in self.resources.iter().enumerate() {
                match best {
                    _ if Some(i) == skip => {}
                    Some(b) if self.resources[b].1 >= *util => {}
                    _ => best = Some(i),
                }
            }
            best.expect("a record holds at least two resources")
        };
        let binding = rank(None);
        let next = rank(Some(binding));
        [binding, next].map(|i| (self.resources[i].0.as_str(), self.resources[i].1))
    }

    /// The record as a [`Json`] object with the store's fixed key
    /// order.
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let num = Json::Num;
        let mut fields = vec![
            ("v", num(SCHEMA_VERSION as f64)),
            ("run", text(&self.run)),
            ("created_unix", num(self.created_unix as f64)),
            ("git_revision", text(&self.provenance.git_revision)),
            ("rustc_version", text(&self.provenance.rustc_version)),
            ("build_profile", text(&self.provenance.build_profile)),
            ("figure", text(&self.figure)),
            ("curve", text(&self.curve)),
            ("nodes", num(f64::from(self.nodes))),
            ("seed", num(self.seed as f64)),
            ("host_cpus", num(f64::from(self.host_cpus))),
            ("config_fingerprint", text(&self.config_fingerprint)),
            ("metric_fingerprint", text(&self.metric_fingerprint)),
            ("wall_secs", num(self.wall_secs)),
            ("events_processed", num(self.events_processed as f64)),
            ("allocs_per_event", num(self.allocs_per_event)),
            ("mean_response_ms", num(self.mean_response_ms)),
            ("throughput_tps", num(self.throughput_tps)),
        ];
        if let Some(mb) = self.peak_rss_mb {
            fields.push(("peak_rss_mb", num(mb)));
        }
        let (w, d) = (&self.waits, &self.detail);
        let utilizations = self
            .resources
            .iter()
            .map(|(name, util)| (name.clone(), num(*util)))
            .collect();
        let waits = Json::obj(vec![
            ("input", num(w.input_ms)),
            ("lock", num(w.lock_ms)),
            ("io", num(w.io_ms)),
            ("cpu_wait", num(w.cpu_wait_ms)),
            ("cpu_service", num(w.cpu_service_ms)),
        ]);
        let [binding, next] = self.constraints();
        fields.extend([
            ("utilizations", Json::Obj(utilizations)),
            ("waits_ms", waits),
            // Derived, so rendered for readers but never read back.
            ("binding", text(binding.0)),
            ("next_constraint", text(next.0)),
            ("events_per_sec", num(self.events_per_sec())),
            ("host_allocs", num(d.host_allocs as f64)),
            ("host_alloc_bytes", num(d.host_alloc_bytes as f64)),
            ("peak_heap_bytes", num(d.peak_heap_bytes as f64)),
            ("sim_seconds", num(d.sim_seconds)),
            ("measured_txns", num(d.measured_txns as f64)),
            ("norm_response_ms", num(d.norm_response_ms)),
            (
                "tps_per_node_at_80pct_cpu",
                num(d.tps_per_node_at_80pct_cpu),
            ),
            ("cpu_utilization", num(d.cpu_utilization)),
        ]);
        Json::obj(fields)
    }

    /// Renders the record as one store line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render_line()
    }

    /// Reads a record back from a parsed store row.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let num_in = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let num = |key: &str| num_in(doc, key);
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let version = num("v")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported record version {version} (this reader knows {SCHEMA_VERSION})"
            ));
        }
        Ok(Record {
            run: text("run")?,
            created_unix: num("created_unix")? as u64,
            provenance: Provenance {
                git_revision: text("git_revision")?,
                rustc_version: text("rustc_version")?,
                build_profile: text("build_profile")?,
            },
            figure: text("figure")?,
            curve: text("curve")?,
            nodes: num("nodes")? as u16,
            seed: num("seed")? as u64,
            host_cpus: num("host_cpus")? as u32,
            config_fingerprint: text("config_fingerprint")?,
            metric_fingerprint: text("metric_fingerprint")?,
            wall_secs: num("wall_secs")?,
            events_processed: num("events_processed")? as u64,
            allocs_per_event: num("allocs_per_event")?,
            mean_response_ms: num("mean_response_ms")?,
            throughput_tps: num("throughput_tps")?,
            peak_rss_mb: doc.get("peak_rss_mb").and_then(Json::as_f64),
            resources: resources(doc.get("utilizations"))?,
            waits: {
                let w = doc
                    .get("waits_ms")
                    .ok_or("missing object field \"waits_ms\"")?;
                Waits {
                    input_ms: num_in(w, "input")?,
                    lock_ms: num_in(w, "lock")?,
                    io_ms: num_in(w, "io")?,
                    cpu_wait_ms: num_in(w, "cpu_wait")?,
                    cpu_service_ms: num_in(w, "cpu_service")?,
                }
            },
            detail: JobDetail {
                host_allocs: num("host_allocs")? as u64,
                host_alloc_bytes: num("host_alloc_bytes")? as u64,
                peak_heap_bytes: num("peak_heap_bytes")? as u64,
                sim_seconds: num("sim_seconds")?,
                measured_txns: num("measured_txns")? as u64,
                norm_response_ms: num("norm_response_ms")?,
                tps_per_node_at_80pct_cpu: num("tps_per_node_at_80pct_cpu")?,
                cpu_utilization: num("cpu_utilization")?,
            },
        })
    }

    /// Parses one store line.
    pub fn from_line(line: &str) -> Result<Record, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        Record::from_json(&doc)
    }
}

/// Reads a row's `utilizations` object back into the resource list,
/// refusing one that breaks the fixed order: the four fixed resources,
/// then `disk:<group>` entries, then `log`.
fn resources(utilizations: Option<&Json>) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Obj(fields)) = utilizations else {
        return Err("missing object field \"utilizations\"".into());
    };
    let list = fields
        .iter()
        .map(|(name, util)| {
            util.as_f64()
                .map(|u| (name.clone(), u))
                .ok_or_else(|| format!("utilization {name:?} is not a number"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let names: Vec<&str> = list.iter().map(|(name, _)| name.as_str()).collect();
    for (i, want) in FIXED_RESOURCES.iter().enumerate() {
        if names.get(i) != Some(want) {
            return Err(format!("utilizations lack {want:?} at position {i}"));
        }
    }
    if names.last() != Some(&"log") {
        return Err("utilizations do not end with \"log\"".into());
    }
    match names[4..names.len() - 1]
        .iter()
        .find(|name| !name.starts_with("disk:"))
    {
        Some(name) => Err(format!("utilization {name:?} is out of order")),
        None => Ok(list),
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
pub(crate) mod tests {
    use super::*;

    /// A complete record as the harness writes it; other modules'
    /// tests override the fields they exercise.
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
            resources: [
                ("cpu", 0.644),
                ("gem", 0.31),
                ("lock-engine", 0.0),
                ("network", 0.71),
                ("disk:ACCOUNT", 0.39),
                ("disk:HISTORY", 0.05),
                ("log", 0.1),
            ]
            .map(|(name, util)| (name.to_string(), util))
            .to_vec(),
            waits: Waits {
                input_ms: 0.5,
                lock_ms: 40.2,
                io_ms: 18.0,
                cpu_wait_ms: 1.5,
                cpu_service_ms: 11.5,
            },
            detail: JobDetail {
                host_allocs: 4_375,
                host_alloc_bytes: 1_048_576,
                peak_heap_bytes: 524_288,
                sim_seconds: 12.5,
                measured_txns: 2_500,
                norm_response_ms: 71.7,
                tps_per_node_at_80pct_cpu: 128.25,
                cpu_utilization: 0.644,
            },
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
    fn explain_trailer_round_trips() {
        let mut rec = sample("fig41", 2, 9);
        rec.resources[1].1 = 0.48;
        rec.resources[4].1 = 0.93;
        let line = rec.to_line();
        assert!(line.contains("\"binding\":\"disk:ACCOUNT\""), "{line}");
        assert!(line.contains("\"next_constraint\":\"network\""), "{line}");
        assert!(line.contains("\"waits_ms\":{\"input\":0.5,"), "{line}");
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);
        assert_eq!(
            back.constraints(),
            [("disk:ACCOUNT", 0.93), ("network", 0.71)]
        );
    }

    #[test]
    fn peak_rss_round_trips_and_stays_optional() {
        let mut rec = sample("fig41", 2, 9);
        // Absent: the rendered line must not mention the key at all
        // (hosts without the figure write no placeholder).
        assert!(!rec.to_line().contains("peak_rss_mb"));
        rec.peak_rss_mb = Some(512.25);
        let line = rec.to_line();
        assert!(line.contains("peak_rss_mb"));
        let back = Record::from_line(&line).expect("parses back");
        assert_eq!(back.peak_rss_mb, Some(512.25));
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn detail_trailer_renders_the_event_rate() {
        let doc = sample("fig41", 2, 9).to_json();
        // The derived event rate and constraints are rendered beside
        // the stored fields and ignored on read.
        assert_eq!(
            doc.get("events_per_sec").and_then(Json::as_f64),
            Some(140_000.0)
        );
        let mut doctored = doc.clone();
        doctored.set("events_per_sec", Json::Num(1.0));
        doctored.set("binding", Json::Str("log".into()));
        doctored.set("next_constraint", Json::Str("gem".into()));
        let back = Record::from_json(&doctored).expect("parses");
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn every_field_but_peak_rss_is_required() {
        let doc = sample("fig41", 2, 9).to_json();
        let Json::Obj(fields) = &doc else {
            unreachable!("a record renders as an object")
        };
        for (key, _) in fields {
            if matches!(
                key.as_str(),
                "events_per_sec" | "binding" | "next_constraint"
            ) {
                continue; // derived, never read
            }
            let mut partial = doc.clone();
            partial.remove(key);
            let err = Record::from_json(&partial)
                .expect_err(&format!("a row without {key:?} must be refused"));
            assert!(err.contains(key.as_str()), "unhelpful error: {err}");
        }
        // Inside the two nested objects, every wait and every resource
        // but the disk groups is required too.
        let nested = [
            (
                "utilizations",
                &["cpu", "gem", "lock-engine", "network", "log"][..],
            ),
            (
                "waits_ms",
                &["input", "lock", "io", "cpu_wait", "cpu_service"][..],
            ),
        ];
        for (object, keys) in nested {
            for key in keys {
                let mut partial = doc.clone();
                let mut inner = partial.remove(object).expect("rendered");
                inner.remove(key);
                partial.set(object, inner);
                let err = Record::from_json(&partial)
                    .expect_err(&format!("{object} without {key:?} must be refused"));
                assert!(err.contains(&format!("{key:?}")), "unhelpful error: {err}");
            }
        }
        // A resource out of the fixed order is refused by name.
        let mut doctored = doc;
        let mut us = doctored.remove("utilizations").expect("rendered");
        us.remove("disk:ACCOUNT");
        us.remove("log");
        us.set("ACCOUNT", Json::Num(0.39));
        us.set("log", Json::Num(0.1));
        doctored.set("utilizations", us);
        let err = Record::from_json(&doctored).expect_err("unordered utilizations");
        assert!(err.contains("\"ACCOUNT\""), "unhelpful error: {err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut doc = sample("fig41", 1, 7).to_json();
        doc.set("v", Json::Num(99.0));
        let err = Record::from_json(&doc).expect_err("version 99 must be rejected");
        assert!(err.contains("version 99"), "unhelpful error: {err}");
        // Rows of the previous layout are refused the same way.
        doc.set("v", Json::Num(2.0));
        let err = Record::from_json(&doc).expect_err("version 2 must be rejected");
        assert!(err.contains("version 2 "), "unhelpful error: {err}");
    }

    #[test]
    fn missing_fields_name_the_field() {
        let line = format!("{{\"v\":{SCHEMA_VERSION},\"run\":\"r\"}}");
        let err = Record::from_line(&line).expect_err("incomplete row");
        assert!(err.contains("created_unix"), "unhelpful error: {err}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }
}
