//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, name, start, end and parent; every span of
//! one op carries that op's id. Spans stay in memory while the benchmark
//! runs and are written out once at exit, as Chrome trace events
//! (`mcds_analysis::ChromeTrace`, opens in Perfetto) plus a per-layer
//! table of span time and self time. A disabled tracer records nothing
//! and costs one branch per call.

use mcds_analysis::chrome::{ChromeEvent, ChromeTrace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer label (`soc`, `psi`, `host`, `farm.sched`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Client thread (Chrome `tid`).
    pub thread: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until finished"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    layer: &'static str,
    name: String,
    thread: u32,
    start_ns: u64,
}

impl Open {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh op id.
    pub fn new_op(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span.
    pub fn start(
        &self,
        op: u64,
        parent: Option<&Open>,
        layer: &'static str,
        name: &str,
        thread: u32,
    ) -> Open {
        Open {
            id: if self.enabled { self.new_op() } else { 0 },
            parent: parent.map(Open::id),
            op,
            layer,
            name: if self.enabled {
                name.to_string()
            } else {
                String::new()
            },
            thread,
            start_ns: if self.enabled { self.now_ns() } else { 0 },
        }
    }

    /// Closes a span and keeps it.
    pub fn finish(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            layer: open.layer,
            name: open.name,
            thread: open.thread,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(
        &self,
        op: u64,
        parent: Option<&Open>,
        layer: &'static str,
        name: &str,
        thread: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.start(op, parent, layer, name, thread);
        let out = f();
        self.finish(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Span count, span time and self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub spans: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus the part children cover), ns.
    pub self_ns: u64,
}

/// Per-layer span and self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let row = out.entry(s.layer).or_default();
        row.spans += 1;
        row.total_ns += dur;
        row.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `lo..hi`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders the per-layer table.
pub fn layer_table(times: &BTreeMap<&'static str, LayerTime>) -> String {
    let mut out = format!(
        "{:<14} {:>8} {:>12} {:>12}\n",
        "layer", "spans", "span ms", "self ms"
    );
    for (layer, t) in times {
        out.push_str(&format!(
            "{:<14} {:>8} {:>12.3} {:>12.3}\n",
            layer,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

/// The spans as Chrome trace events: one complete (`X`) event per span,
/// its layer as category, its op/span/parent ids as arguments.
pub fn chrome_trace(spans: &[Span]) -> ChromeTrace {
    let int = |v: u64| serde::Value::Int(i128::from(v));
    ChromeTrace {
        events: spans
            .iter()
            .map(|s| ChromeEvent {
                name: s.name.clone(),
                cat: s.layer.to_string(),
                ph: "X".to_string(),
                ts: s.start_ns as f64 / 1e3,
                dur: (s.end_ns - s.start_ns) as f64 / 1e3,
                pid: 1,
                tid: s.thread,
                args: serde::Value::Map(vec![
                    ("op".to_string(), int(s.op)),
                    ("span".to_string(), int(s.id)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(serde::Value::Null, int),
                    ),
                ]),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            name: layer.to_string(),
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench", 0, 100),
            span(2, Some(1), "farm.server", 10, 40),
            span(3, Some(1), "farm.server", 30, 60),
            span(4, Some(1), "farm.server", 90, 120),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["bench"].total_ns, 100);
        assert_eq!(t["bench"].self_ns, 100 - 50 - 10);
        assert_eq!(t["farm.server"].spans, 3);
        assert_eq!(t["farm.server"].self_ns, 30 + 30 + 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let op = t.new_op();
        t.leaf(op, None, "soc", "run", 0, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_of_one_op_share_its_id_and_export_as_chrome_events() {
        let t = Tracer::new(true);
        let op = t.new_op();
        let outer = t.start(op, None, "bench", "op", 0);
        t.leaf(op, Some(&outer), "farm.server", "session.run", 0, || ());
        let outer_id = outer.id();
        t.finish(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == op));
        assert_eq!(spans[1].parent, Some(outer_id));
        let json = chrome_trace(&spans).to_json();
        let back = ChromeTrace::from_json(&json).expect("round trip");
        assert_eq!(back.len(), 2);
        assert_eq!(back.events[1].cat, "farm.server");
    }
}
