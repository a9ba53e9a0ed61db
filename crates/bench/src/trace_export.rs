//! Exporters for observation data: Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`) and per-figure timeline CSV.
//!
//! Both exporters are pure functions from in-memory observations to a
//! `String`, built with integer-only timestamp formatting, so the
//! rendered bytes are identical across runs, hosts, and worker counts
//! whenever the input observations are — the determinism tests pin
//! exactly that.
//!
//! The trace exporter renders *derived* slices rather than every raw
//! record: wait durations are carried on the `*Done`/`Grant` events
//! (see [`desim::trace::TraceEventKind`]), so each completed wait
//! becomes one complete (`"ph":"X"`) slice placed retroactively at
//! `[end - wait, end]`. Request/queue/message markers are subsumed by
//! those slices and skipped, keeping files small enough to load
//! comfortably.

use dbshare_harness::{Observations, TimelineWindow};
use dbshare_node::buffer::BufferCounters;
use desim::trace::{unpack_page, TraceEvent, TraceEventKind, NO_TXN};

/// Formats a nanosecond count as a microsecond JSON number with three
/// decimals (`1234567` → `"1234.567"`). Integer arithmetic only, so the
/// text is bit-stable everywhere.
fn us3(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Human label for a packed page id, e.g. `"p2:817"`.
fn page_label(packed: u64) -> Option<String> {
    unpack_page(packed).map(|(part, number)| format!("p{part}:{number}"))
}

fn push_event(out: &mut String, body: &str) {
    if out.ends_with('}') {
        out.push_str(",\n");
    }
    out.push_str(body);
}

/// One complete (`"X"`) slice covering `[end - dur_ns, end]`.
#[allow(clippy::too_many_arguments)] // one positional field per JSON key
fn slice(
    out: &mut String,
    name: &str,
    cat: &str,
    node: u16,
    txn: u64,
    end_ns: u64,
    dur_ns: u64,
    args: &str,
) {
    let start = end_ns.saturating_sub(dur_ns);
    push_event(
        out,
        &format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
             \"pid\":{node},\"tid\":{txn},\"ts\":{},\"dur\":{}{args}}}",
            us3(start),
            us3(dur_ns),
        ),
    );
}

/// One thread-scoped instant (`"i"`) event.
fn instant(out: &mut String, name: &str, cat: &str, node: u16, tid: u64, at_ns: u64, args: &str) {
    push_event(
        out,
        &format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":{node},\"tid\":{tid},\"ts\":{}{args}}}",
            us3(at_ns),
        ),
    );
}

/// Renders a trace-event stream as Chrome trace-event JSON.
///
/// Layout: one Perfetto *process* per simulated node (`pid` = node),
/// one *thread* per transaction (`tid` = transaction sequence number),
/// so a node's track shows its transactions as rows with the `txn`
/// span on each row and the wait slices nested inside it. Node-scoped
/// events without a transaction (evictions, the watchdog) land on
/// `tid` 0. All timestamps are simulated time in microseconds.
pub fn chrome_trace(events: &[TraceEvent], nodes: u16) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for node in 0..nodes {
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ),
        );
    }
    for ev in events {
        let ns = ev.at.as_nanos();
        let page = page_label(ev.page);
        let page_arg = page
            .as_deref()
            .map(|p| format!(",\"args\":{{\"page\":\"{p}\"}}"))
            .unwrap_or_default();
        match ev.kind {
            TraceEventKind::TxnCommit => {
                slice(&mut out, "txn", "txn", ev.node, ev.txn, ns, ev.arg, "");
            }
            TraceEventKind::TxnAdmit if ev.arg > 0 => {
                slice(
                    &mut out,
                    "input wait",
                    "wait",
                    ev.node,
                    ev.txn,
                    ns,
                    ev.arg,
                    "",
                );
            }
            TraceEventKind::LockGrant if ev.arg > 0 => {
                slice(
                    &mut out,
                    "lock wait",
                    "wait",
                    ev.node,
                    ev.txn,
                    ns,
                    ev.arg,
                    &page_arg,
                );
            }
            TraceEventKind::PageReadDone if ev.arg > 0 => {
                slice(
                    &mut out, "page io", "io", ev.node, ev.txn, ns, ev.arg, &page_arg,
                );
            }
            TraceEventKind::CommitIoDone if ev.arg > 0 => {
                slice(&mut out, "commit io", "io", ev.node, ev.txn, ns, ev.arg, "");
            }
            TraceEventKind::TxnAbort => {
                let reason = match ev.arg {
                    0 => "deadlock",
                    1 => "timeout",
                    _ => "crash",
                };
                let args = format!(",\"args\":{{\"reason\":\"{reason}\"}}");
                instant(&mut out, "abort", "txn", ev.node, ev.txn, ns, &args);
            }
            TraceEventKind::PageTransfer => {
                let p = page.as_deref().unwrap_or("?");
                let args = format!(",\"args\":{{\"page\":\"{p}\",\"to\":{}}}", ev.arg);
                instant(&mut out, "page transfer", "io", ev.node, ev.txn, ns, &args);
            }
            TraceEventKind::PageFlush => {
                let tid = if ev.txn == NO_TXN { 0 } else { ev.txn };
                instant(&mut out, "page flush", "io", ev.node, tid, ns, &page_arg);
            }
            TraceEventKind::Watchdog => {
                let args = format!(",\"args\":{{\"live_txns\":{}}}", ev.arg);
                instant(&mut out, "watchdog", "ctrl", ev.node, 0, ns, &args);
            }
            // Request, queue, release and message markers are covered
            // by the derived slices above; keep the file lean.
            _ => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One curve point's timeline, labelled for the per-figure CSV.
#[derive(Debug, Clone, Copy)]
pub struct TimelineRows<'a> {
    /// Curve label as in the figure legend.
    pub curve: &'a str,
    /// Node count of the run (the x-axis value).
    pub nodes: u16,
    /// The run's timeline windows, in order.
    pub windows: &'a [TimelineWindow],
}

/// CSV header for [`timeline_csv`], one column per exported field.
pub const TIMELINE_HEADER: &str = "curve,nodes,window,start_s,width_s,committed,throughput_tps,\
mean_resp_ms,input_ms,lock_ms,io_ms,cpu_wait_ms,cpu_service_ms,\
lock_requests,lock_waits,storage_reads,commit_writes,log_writes,evict_writes,\
page_transfers,aborts,buffer_hit_rate,mpl_in_use,mpl_queue,lock_wait_depth,\
cpu_util_mean,cpu_util_per_node,gem_util,disk_util,net_util,log_util";

/// Renders a figure's timelines as one CSV: every window of every
/// curve point, labelled by curve and node count. Per-commit response
/// components are window means in milliseconds; `buffer_hit_rate` is
/// the report's hit ratio, hits over all lookups; `cpu_util_per_node`
/// joins the per-node utilizations with `;` so the column count stays
/// fixed across node counts.
pub fn timeline_csv(rows: &[TimelineRows<'_>]) -> String {
    let mut out = String::new();
    out.push_str(TIMELINE_HEADER);
    out.push('\n');
    for tl in rows {
        for (i, w) in tl.windows.iter().enumerate() {
            let span = w.width.as_secs_f64();
            let tps = if span > 0.0 {
                w.committed as f64 / span
            } else {
                0.0
            };
            let per_commit_ms = |ns: u64| {
                if w.committed > 0 {
                    ns as f64 / w.committed as f64 / 1e6
                } else {
                    0.0
                }
            };
            let hit_rate = BufferCounters {
                hits: w.buffer_hits,
                misses: w.buffer_misses,
                invalidations: w.buffer_invalidations,
            }
            .hit_ratio();
            let cpu_mean = if w.cpu_util.is_empty() {
                0.0
            } else {
                w.cpu_util.iter().sum::<f64>() / w.cpu_util.len() as f64
            };
            let cpu_each = w
                .cpu_util
                .iter()
                .map(|u| format!("{u:.6}"))
                .collect::<Vec<_>>()
                .join(";");
            out.push_str(&format!(
                "{curve},{nodes},{i},{start:.6},{width:.6},{committed},{tps:.6},\
                 {resp:.6},{input:.6},{lock:.6},{io:.6},{cpu_wait:.6},{cpu_service:.6},\
                 {lock_requests},{lock_waits},{storage_reads},{commit_writes},{log_writes},\
                 {evict_writes},{page_transfers},{aborts},{hit_rate:.6},{mpl_in_use},\
                 {mpl_queue},{lock_wait_depth},{cpu_mean:.6},{cpu_each},{gem:.6},{disk:.6},\
                 {net:.6},{log:.6}\n",
                curve = tl.curve,
                nodes = tl.nodes,
                start = w.start.as_secs_f64(),
                width = span,
                committed = w.committed,
                resp = per_commit_ms(w.resp_ns),
                input = per_commit_ms(w.input_ns),
                lock = per_commit_ms(w.lock_ns),
                io = per_commit_ms(w.io_ns),
                cpu_wait = per_commit_ms(w.cpu_wait_ns),
                cpu_service = per_commit_ms(w.cpu_service_ns),
                lock_requests = w.lock_requests,
                lock_waits = w.lock_waits,
                storage_reads = w.storage_reads,
                commit_writes = w.commit_writes,
                log_writes = w.log_writes,
                evict_writes = w.evict_writes,
                page_transfers = w.page_transfers,
                aborts = w.aborts,
                mpl_in_use = w.mpl_in_use,
                mpl_queue = w.mpl_queue,
                lock_wait_depth = w.lock_wait_depth,
                gem = w.gem_util,
                disk = w.disk_util,
                net = w.net_util,
                log = w.log_util,
            ));
        }
    }
    out
}

/// Index of the first differing trace event between two runs that
/// should be identical, or `None` when the streams match. The returned
/// index localizes a determinism divergence to a single record —
/// far more useful than "the files differ".
pub fn first_divergence(a: &Observations, b: &Observations) -> Option<usize> {
    let n = a.trace.len().min(b.trace.len());
    (0..n)
        .find(|&i| a.trace[i] != b.trace[i])
        .or((a.trace.len() != b.trace.len()).then_some(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::{pack_page, NO_PAGE};
    use desim::SimTime;

    fn ev(at_us: u64, kind: TraceEventKind, txn: u64, page: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(at_us),
            kind,
            node: 1,
            txn,
            page,
            arg,
        }
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_rerender_identical() {
        let events = vec![
            ev(100, TraceEventKind::TxnAdmit, 7, NO_PAGE, 5_000),
            ev(150, TraceEventKind::LockGrant, 7, pack_page(0, 42), 20_000),
            ev(
                300,
                TraceEventKind::PageReadDone,
                7,
                pack_page(0, 42),
                80_000,
            ),
            ev(400, TraceEventKind::TxnCommit, 7, NO_PAGE, 300_000),
            ev(450, TraceEventKind::TxnAbort, 8, NO_PAGE, 0),
            ev(500, TraceEventKind::PageTransfer, 9, pack_page(1, 3), 2),
            ev(600, TraceEventKind::Watchdog, NO_TXN, NO_PAGE, 4),
        ];
        let a = chrome_trace(&events, 2);
        let b = chrome_trace(&events, 2);
        assert_eq!(a, b, "re-render must be byte-identical");
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"name\":\"txn\""));
        assert!(a.contains("\"name\":\"lock wait\""));
        assert!(a.contains("\"page\":\"p0:42\""));
        assert!(a.contains("\"reason\":\"deadlock\""));
        assert!(a.contains("\"name\":\"node 1\""));
        // The txn slice ends at 400us having lasted 300us.
        assert!(a.contains("\"ts\":100.000,\"dur\":300.000"));
    }

    #[test]
    fn request_markers_are_skipped() {
        let events = vec![
            ev(10, TraceEventKind::LockRequest, 1, pack_page(0, 1), 0),
            ev(11, TraceEventKind::MsgSend, 1, NO_PAGE, 2),
        ];
        let out = chrome_trace(&events, 1);
        assert!(!out.contains("LockRequest"));
        assert!(!out.contains("MsgSend"));
    }

    #[test]
    fn us3_formats_with_integer_arithmetic() {
        assert_eq!(us3(0), "0.000");
        assert_eq!(us3(1_234_567), "1234.567");
        assert_eq!(us3(999), "0.999");
    }

    #[test]
    fn timeline_csv_has_header_and_one_row_per_window() {
        let w = TimelineWindow {
            committed: 4,
            resp_ns: 8_000_000,
            buffer_hits: 3,
            buffer_misses: 1,
            buffer_invalidations: 4,
            cpu_util: vec![0.5, 0.25],
            ..TimelineWindow::default()
        };
        let rows = [TimelineRows {
            curve: "2 CPUs",
            nodes: 4,
            windows: std::slice::from_ref(&w),
        }];
        let csv = timeline_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(TIMELINE_HEADER));
        let row = lines.next().expect("data row");
        assert!(row.starts_with("2 CPUs,4,0,"));
        assert!(row.contains("0.375000")); // hits over all 8 lookups
        assert!(row.contains("0.500000;0.250000")); // per-node cpu util
        assert_eq!(
            row.split(',').count(),
            TIMELINE_HEADER.split(',').count(),
            "column count matches header"
        );
        assert_eq!(timeline_csv(&rows), csv, "re-render must be byte-identical");
    }

    #[test]
    fn first_divergence_localizes_mismatch() {
        let mk = |arg| Observations {
            timeline: Vec::new(),
            trace: vec![
                ev(1, TraceEventKind::TxnAdmit, 1, NO_PAGE, 0),
                ev(2, TraceEventKind::TxnCommit, 1, NO_PAGE, arg),
            ],
        };
        assert_eq!(first_divergence(&mk(5), &mk(5)), None);
        assert_eq!(first_divergence(&mk(5), &mk(6)), Some(1));
        let mut longer = mk(5);
        longer
            .trace
            .push(ev(3, TraceEventKind::TxnAbort, 1, NO_PAGE, 0));
        assert_eq!(first_divergence(&mk(5), &longer), Some(2));
    }
}
