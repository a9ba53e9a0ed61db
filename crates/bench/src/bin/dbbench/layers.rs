//! `dbbench trace`: the per-layer metrics of one workload.
//!
//! The traced job is the workload's first job at a quarter of its
//! measured length. It runs once with the engine's `Observe { trace }`
//! and a timing decorator around `Workload::next_with`; its records
//! are then decoded and replayed through each layer's public API
//! ([`crate::replay`]). Timed rounds — the same job untraced and traced,
//! then one replay of every layer — repeat until at least three are
//! done and `--seconds` have elapsed; host-time metrics are medians over
//! rounds.
//!
//! Each layer's `est_share` is its replay's ns per operation × the live
//! operation count ÷ the job's untraced run time. Spans of the traced
//! run and of one recorded replay per layer (calls of one transaction
//! in K, to bound the file) are kept in memory and written as JSON
//! lines to `DIR/spans-<workload>.jsonl` at the end.

use crate::passes::{execute, guarded, Checker, JobRun, MIN_PASSES};
use crate::replay::{self, BufferStats, Inputs, LockStats, Off, Probe};
use crate::workloads::{Built, WorkloadDef};
use crate::{fail, Metric, Outcome, Spread};
use dbshare_model::gla::GlaMap;
use dbshare_model::{NodeId, PartitionConfig, SystemConfig, TxnSpec};
use dbshare_sim::{Observe, RunReport};
use dbshare_workload::Workload;
use desim::trace::{TraceEvent, NO_TXN};
use desim::Rng;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the decorator saw: every `next_with` call's span (ns since the
/// span epoch) and the spec it returned, in draw order.
#[derive(Default)]
struct Drawn {
    calls: Vec<(u64, u64)>,
    specs: Vec<TxnSpec>,
}

/// Times `Workload::next_with` and keeps a copy of each drawn spec. It
/// passes spares and the RNG straight through, so the simulation is
/// bit-identical with and without it. Its log reaches `out` when the
/// engine drops it at the end of the run.
struct Timed {
    inner: Box<dyn Workload + Send>,
    epoch: Instant,
    drawn: Drawn,
    out: Arc<Mutex<Drawn>>,
}

impl Workload for Timed {
    fn next(&mut self, rng: &mut Rng) -> (NodeId, TxnSpec) {
        self.next_with(rng, None)
    }

    fn next_with(&mut self, rng: &mut Rng, spare: Option<TxnSpec>) -> (NodeId, TxnSpec) {
        let t0 = Instant::now();
        let next = self.inner.next_with(rng, spare);
        let t1 = Instant::now();
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.drawn.calls.push((ns(t0), ns(t1)));
        self.drawn.specs.push(next.1.clone());
        next
    }

    fn mean_accesses(&self) -> f64 {
        self.inner.mean_accesses()
    }

    fn partitions(&self) -> &[PartitionConfig] {
        self.inner.partitions()
    }

    fn gla_map(&self) -> GlaMap {
        self.inner.gla_map()
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned lock means the run panicked; the log is moot then.
        if let Ok(mut out) = self.out.lock() {
            *out = std::mem::take(&mut self.drawn);
        }
    }
}

/// One recorded span; `parent` and `txn` use 0 and `NO_TXN` for none.
struct Span {
    parent: u64,
    txn: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans the span file holds, about: replayed calls are recorded for
/// one transaction id in `every`, with `every` chosen to fit.
const SPAN_BUDGET: u64 = 200_000;

/// Spans in memory, ids = index + 1, times in ns since `epoch`.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    every: u64,
}

impl SpanLog {
    /// Whether spans of `txn` are recorded (calls without one always are).
    fn keeps(&self, txn: u64) -> bool {
        txn == NO_TXN || txn.is_multiple_of(self.every)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u64 {
        self.spans.push(span);
        self.spans.len() as u64
    }

    /// Runs `f` under a `replay.<layer>` span whose children are its
    /// probed calls.
    fn replay<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let start_ns = self.now();
        let id = self.push(Span {
            parent: 0,
            txn: NO_TXN,
            layer: "replay",
            name: layer,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(&mut Recorder {
            log: self,
            parent: id,
            layer,
        });
        self.spans[id as usize - 1].end_ns = self.now();
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let opt = |x: u64, none: u64| {
            if x == none {
                "null".to_string()
            } else {
                x.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"txn\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                opt(s.parent, 0),
                opt(s.txn, NO_TXN),
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Records every replayed call as a child span.
struct Recorder<'a> {
    log: &'a mut SpanLog,
    parent: u64,
    layer: &'static str,
}

impl Probe for Recorder<'_> {
    fn start(&mut self) -> u64 {
        self.log.now()
    }

    fn stop(&mut self, start_ns: u64, txn: u64, name: &'static str) {
        if !self.log.keeps(txn) {
            return;
        }
        let end_ns = self.log.now();
        self.log.push(Span {
            parent: self.parent,
            txn,
            layer: self.layer,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// The traced run of one job.
pub struct Traced {
    pub report: RunReport,
    pub trace: Vec<TraceEvent>,
    pub cfg: SystemConfig,
    pub gla: GlaMap,
    drawn: Drawn,
    start_ns: u64,
    end_ns: u64,
}

/// Runs job 0 of `def` at `measured` transactions with tracing on and
/// the timing decorator around the workload.
pub fn traced_run(def: &WorkloadDef, seed: u64, measured: u64, epoch: Instant) -> Traced {
    let out = Arc::new(Mutex::new(Drawn::default()));
    let Built {
        mut engine,
        cfg,
        gla,
        ..
    } = def.build(0, seed, measured, |inner| {
        Box::new(Timed {
            inner,
            epoch,
            drawn: Drawn::default(),
            out: Arc::clone(&out),
        })
    });
    engine.set_observe(Observe {
        trace: true,
        timeline_every: None,
    });
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let (report, obs) = engine.run_observed();
    let end_ns = epoch.elapsed().as_nanos() as u64;
    let drawn = std::mem::take(&mut *out.lock().expect("decorator log intact after the run"));
    Traced {
        report,
        trace: obs.trace,
        cfg,
        gla,
        drawn,
        start_ns,
        end_ns,
    }
}

/// The traced job's measured length: a quarter of a benchmark job.
pub fn traced_length(def: &WorkloadDef) -> u64 {
    def.measured / 4
}

/// Host cost of an empty `Instant::now()` pair, subtracted from each
/// decorated call (median of 1001 samples).
fn timer_floor_ns() -> f64 {
    let samples: Vec<f64> = (0..1001)
        .map(|_| {
            let a = Instant::now();
            (Instant::now() - a).as_nanos() as f64
        })
        .collect();
    Spread::of(&samples).median
}

/// One timed round: the job untraced and traced, then every layer's
/// replay.
struct Round {
    run: JobRun,
    traced_s: f64,
    lock: LockStats,
    buffer: BufferStats,
    storage_ns: u64,
    calendar_ns: u64,
}

fn replay_round(inp: &Inputs, t: &Traced, run: JobRun, traced_s: f64) -> Round {
    Round {
        run,
        traced_s,
        lock: replay::lockmgr(inp, &t.cfg, &t.gla, &mut Off),
        buffer: replay::buffer(inp, &t.cfg, &mut Off),
        storage_ns: replay::storage(inp, &t.cfg, &mut Off),
        calendar_ns: replay::calendar(inp, &mut Off),
    }
}

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("sim.events_per_txn", "events/txn"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.allocs_per_txn", "allocs/txn"),
    ("sim.cpu_done_per_txn", "events/txn"),
    ("sim.io_done_per_txn", "events/txn"),
    ("sim.delivered_per_txn", "events/txn"),
    ("sim.gem_held_per_txn", "events/txn"),
    ("sim.cont_locking_per_txn", "conts/txn"),
    ("sim.cont_messaging_per_txn", "conts/txn"),
    ("sim.cont_storage_per_txn", "conts/txn"),
    ("sim.engine_new_s", "s"),
    ("workload.build_s", "s"),
    ("workload.ns_per_call", "ns/call"),
    ("workload.share", "fraction"),
    ("lockmgr.ops_per_txn", "ops/txn"),
    ("lockmgr.ns_per_op", "ns/op"),
    ("lockmgr.queued_ratio", "fraction"),
    ("lockmgr.ra_local_ratio", "fraction"),
    ("lockmgr.est_share", "fraction"),
    ("buffer.lookups_per_txn", "lookups/txn"),
    ("buffer.ns_per_lookup", "ns/lookup"),
    ("buffer.hit_ratio", "fraction"),
    ("buffer.est_share", "fraction"),
    ("storage.ops_per_txn", "ops/txn"),
    ("storage.ns_per_op", "ns/op"),
    ("storage.est_share", "fraction"),
    ("calendar.ops_per_txn", "ops/txn"),
    ("calendar.ns_per_op", "ns/op"),
    ("calendar.est_share", "fraction"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "fraction"),
];

/// Computes the per-layer values, in [`PER_LAYER`] order.
fn per_layer(t: &Traced, inp: &Inputs, rounds: &[Round], floor_ns: f64) -> [f64; PER_LAYER.len()] {
    let med =
        |f: &dyn Fn(&Round) -> f64| Spread::of(&rounds.iter().map(f).collect::<Vec<_>>()).median;
    let p = &t.report.profile;
    let txns = p.arrivals.max(1) as f64;
    let per_txn = |n: u64| n as f64 / txns;
    let run_ns = med(&|r| r.run.run_s * 1e9);
    let calls = t.drawn.calls.len().max(1) as f64;
    let call_ns = t
        .drawn
        .calls
        .iter()
        .map(|&(a, b)| ((b - a) as f64 - floor_ns).max(0.0))
        .sum::<f64>();
    let lock_ops = inp.lock.len() as u64;
    let lookups = inp.lookups();
    let store_ops = inp.store.len() as u64;
    let cal_ops = 2 * inp.cal.len() as u64;
    // Live calendar operations: every event is scheduled and popped.
    let live_cal_ops = t.report.events_processed + p.events_total();
    let lock_ns_op = med(&|r| r.lock.ns as f64) / lock_ops.max(1) as f64;
    let buf_ns = med(&|r| r.buffer.ns as f64) / lookups.max(1) as f64;
    let store_ns_op = med(&|r| r.storage_ns as f64) / store_ops.max(1) as f64;
    let cal_ns_op = med(&|r| r.calendar_ns as f64) / cal_ops.max(1) as f64;
    let share = |ns_per_op: f64, ops: u64| ns_per_op * ops as f64 / run_ns;
    // Replayed counts are identical every round.
    let (lock, buffer) = (&rounds[0].lock, &rounds[0].buffer);
    let shares = [
        share(lock_ns_op, lock_ops),
        share(buf_ns, lookups),
        share(store_ns_op, store_ops),
        share(cal_ns_op, live_cal_ops),
    ];
    let workload_share = call_ns / run_ns;
    [
        per_txn(p.events_total()),
        run_ns / p.events_total().max(1) as f64,
        med(&|r| r.run.allocs as f64) / txns,
        per_txn(p.cpu_done),
        per_txn(p.io_done),
        per_txn(p.delivered),
        per_txn(p.gem_held_done),
        per_txn(p.cont_locking),
        per_txn(p.cont_messaging),
        per_txn(p.cont_storage),
        med(&|r| r.run.engine_new_s),
        med(&|r| r.run.build_s),
        call_ns / calls,
        workload_share,
        per_txn(lock_ops),
        lock_ns_op,
        lock.queued as f64 / lock.requests.max(1) as f64,
        lock.ra_local as f64 / lock.requests.max(1) as f64,
        shares[0],
        per_txn(lookups),
        buf_ns,
        buffer.hit_ratio(),
        shares[1],
        per_txn(store_ops),
        store_ns_op,
        shares[2],
        per_txn(cal_ops),
        cal_ns_op,
        shares[3],
        med(&|r| r.traced_s * 1e9) / run_ns,
        1.0 - shares.iter().sum::<f64>() - workload_share,
    ]
}

/// Traces `def` and measures its per-layer metrics.
pub fn trace(def: &'static WorkloadDef, seed: u64, seconds: f64, out: &Path) -> Outcome {
    let measured = traced_length(def);
    let mut checker = Checker::new(def, seed);
    let mut outcome = Outcome {
        workload: def.name,
        seed,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let epoch = Instant::now();
    let floor_ns = timer_floor_ns();
    // Untimed: warms the process before the traced and timed runs.
    let warm = execute(def, 0, seed, measured);
    checker.check(0, measured, &warm, |r| &r.report);
    // Every traced run must match the untraced fingerprint exactly.
    let traced = guarded(|| traced_run(def, seed, measured, epoch));
    let Some(t) = checker.check(0, measured, &traced, |t| &t.report) else {
        (outcome.attempted, outcome.failed) = (checker.attempted, checker.failed);
        return outcome;
    };
    let inp = replay::decode(&t.trace, &t.drawn.specs, &t.cfg, &t.gla);
    if inp.unmatched > 0 {
        eprintln!(
            "dbbench: {}: {} lock requests not in their transaction's spec",
            def.name, inp.unmatched
        );
        checker.failed += 1;
    }
    let log = record_spans(t, &inp, epoch);

    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut tries = 0;
    while tries < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        tries += 1;
        let run = execute(def, 0, seed, measured);
        let again = guarded(|| traced_run(def, seed, measured, epoch));
        let run_ok = checker.check(0, measured, &run, |r| &r.report).is_some();
        let traced_s = checker
            .check(0, measured, &again, |t| &t.report)
            .map(|t| (t.end_ns - t.start_ns) as f64 / 1e9);
        drop(again);
        if let (true, Some(traced_s)) = (run_ok, traced_s) {
            rounds.push(replay_round(&inp, t, run.expect("checked"), traced_s));
        }
    }
    (outcome.attempted, outcome.failed) = (checker.attempted, checker.failed);
    if rounds.is_empty() {
        return outcome;
    }
    let values = per_layer(t, &inp, &rounds, floor_ns);
    outcome.metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect();
    let path = out.join(format!("spans-{}.jsonl", def.name));
    if let Err(e) = log.write(&path) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!(
        "dbbench: {}: {} spans (replayed calls of one transaction in {}) in {}",
        def.name,
        log.spans.len(),
        log.every,
        path.display()
    );
    outcome
}

/// The span tree of the traced run: `sim.run` with its decorated
/// `next_with` calls, then one recorded replay per layer.
fn record_spans(t: &Traced, inp: &Inputs, epoch: Instant) -> SpanLog {
    let calls =
        t.drawn.calls.len() + inp.lock.len() + inp.buf.len() + inp.store.len() + 2 * inp.cal.len();
    let mut log = SpanLog {
        epoch,
        spans: Vec::new(),
        every: (calls as u64).div_ceil(SPAN_BUDGET).max(1),
    };
    let root = log.push(Span {
        parent: 0,
        txn: NO_TXN,
        layer: "sim",
        name: "run",
        start_ns: t.start_ns,
        end_ns: t.end_ns,
    });
    // The k-th draw is the spec of the k-th arrival's transaction id.
    let mut first_txn = vec![NO_TXN; t.drawn.specs.len()];
    for (txn, spec) in inp.pairing.iter().enumerate().rev() {
        if let Some(s) = *spec {
            first_txn[s] = txn as u64;
        }
    }
    for (&(start_ns, end_ns), &txn) in t.drawn.calls.iter().zip(&first_txn) {
        if txn != NO_TXN && log.keeps(txn) {
            log.push(Span {
                parent: root,
                txn,
                layer: "workload",
                name: "next_with",
                start_ns,
                end_ns,
            });
        }
    }
    log.replay("lockmgr", |p| replay::lockmgr(inp, &t.cfg, &t.gla, p));
    log.replay("buffer", |p| replay::buffer(inp, &t.cfg, p));
    log.replay("storage", |p| replay::storage(inp, &t.cfg, p));
    log.replay("calendar", |p| replay::calendar(inp, p));
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// A workload shortened for tests: the traced job is 1,200
    /// measured transactions (a quarter of 4,800) after 1,000 warm-up
    /// transactions, enough for the buffers to fill.
    fn short(def: &WorkloadDef) -> WorkloadDef {
        WorkloadDef {
            warmup: 1_000,
            measured: 4_800,
            ..*def
        }
    }

    #[test]
    fn decorator_and_tracing_leave_results_bit_identical() {
        for def in WORKLOADS.iter().map(short) {
            let n = traced_length(&def);
            let plain = def.build(0, 3, n, |w| w).engine.run();
            let out = Arc::new(Mutex::new(Drawn::default()));
            let decorated = def
                .build(0, 3, n, |inner| {
                    Box::new(Timed {
                        inner,
                        epoch: Instant::now(),
                        drawn: Drawn::default(),
                        out: Arc::clone(&out),
                    })
                })
                .engine
                .run();
            let traced = traced_run(&def, 3, n, Instant::now());
            assert_eq!(
                plain.metric_fingerprint(),
                decorated.metric_fingerprint(),
                "{}",
                def.name
            );
            assert_eq!(
                plain.metric_fingerprint(),
                traced.report.metric_fingerprint(),
                "{}",
                def.name
            );
            let drawn = out.lock().unwrap();
            assert_eq!(
                drawn.specs.len() as u64,
                plain.profile.arrivals,
                "{}",
                def.name
            );
            assert!(!traced.trace.is_empty());
        }
    }

    #[test]
    fn replays_cover_every_record_and_track_the_live_hit_ratio() {
        use desim::trace::TraceEventKind as K;
        for def in WORKLOADS.iter().map(short) {
            let t = traced_run(&def, 5, traced_length(&def), Instant::now());
            let inp = replay::decode(&t.trace, &t.drawn.specs, &t.cfg, &t.gla);
            let count =
                |kinds: &[K]| t.trace.iter().filter(|e| kinds.contains(&e.kind)).count() as u64;
            assert_eq!(inp.unmatched, 0, "{}", def.name);
            let lock = replay::lockmgr(&inp, &t.cfg, &t.gla, &mut Off);
            let lock_records = count(&[K::LockRequest, K::LockRelease, K::TxnAbort]);
            assert_eq!(inp.lock.len() as u64, lock_records, "{}", def.name);
            assert_eq!(lock.requests, count(&[K::LockRequest]), "{}", def.name);
            let store = count(&[K::PageRead, K::PageFlush, K::CommitIo, K::MsgSend]);
            assert_eq!(inp.store.len() as u64, store, "{}", def.name);
            let completions = count(&[
                K::TxnAdmit,
                K::TxnCommit,
                K::LockGrant,
                K::PageReadDone,
                K::CommitIoDone,
            ]);
            assert_eq!(inp.cal.len() as u64, completions, "{}", def.name);
            assert_eq!(inp.commits, count(&[K::TxnCommit]), "{}", def.name);
            let refs: u64 = t
                .trace
                .iter()
                .filter(|e| e.kind == K::TxnCommit)
                .map(|e| {
                    t.drawn.specs[inp.pairing[e.txn as usize].unwrap()]
                        .refs()
                        .len() as u64
                })
                .sum();
            assert_eq!(inp.lookups(), refs, "{}", def.name);
            // The live ratio over all partitions, weighted by lookups.
            let buffer = replay::buffer(&inp, &t.cfg, &mut Off);
            let lookups: u64 = buffer.per_partition.iter().map(|p| p.1).sum();
            let live = t
                .report
                .hit_ratios
                .iter()
                .zip(&buffer.per_partition)
                .map(|((_, ratio), p)| ratio * p.1 as f64)
                .sum::<f64>()
                / lookups as f64;
            let replayed = buffer.hit_ratio();
            assert!(
                (replayed - live).abs() <= 0.02,
                "{}: replayed hit ratio {replayed:.4}, live {live:.4}",
                def.name
            );
        }
    }
}
