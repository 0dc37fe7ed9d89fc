//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, id, parent)` plus the round and client
//! it belongs to. Spans are recorded only by benchmark code, around
//! calls into the program's public functions; they are kept in memory
//! and written out as JSON lines when the workload ends.
//!
//! The parent of a new span is the innermost span still open *on the
//! same thread*. Work that fans out to the `rte_tensor::parallel` pool
//! names its parent explicitly ([`Tracer::span_under`]), because a
//! worker thread has no open span of its own.
//!
//! A span's **self time** is its duration minus the part of that
//! interval its children cover. Children may overlap each other (two
//! clients training on two threads), so coverage is the length of the
//! *union* of the child intervals, clipped to the parent.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::clock::now_ns;
use crate::json::Value;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Metric-style name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds on the process clock.
    pub start_ns: u64,
    /// End, nanoseconds on the process clock.
    pub end_ns: u64,
    /// Communication round, 0 when not inside one.
    pub round: u32,
    /// Fleet index of the client, -1 when not client-specific.
    pub client: i32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Collects spans from every thread of one traced iteration.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn fresh_id(&self) -> u32 {
        // A statistic-free counter: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_under(CURRENT.with(Cell::get), name)
    }

    /// Opens a span under an explicit parent — for work running on a
    /// pool thread on behalf of a span opened elsewhere.
    pub fn span_under(&self, parent: u32, name: &'static str) -> SpanGuard<'_> {
        let id = self.fresh_id();
        let outer = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            tracer: self,
            outer,
            span: Span {
                id,
                parent,
                name,
                start_ns: now_ns(),
                end_ns: 0,
                round: 0,
                client: -1,
            },
        }
    }

    /// Records an interval observed after the fact (the gap between two
    /// seams), under this thread's innermost open span.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        round: usize,
        client: Option<usize>,
    ) {
        if end_ns <= start_ns {
            return;
        }
        self.push(Span {
            id: self.fresh_id(),
            parent: CURRENT.with(Cell::get),
            name,
            start_ns,
            end_ns,
            round: round as u32,
            client: client.map_or(-1, |k| k as i32),
        });
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; closes (and is recorded) when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    outer: u32,
    span: Span,
}

impl SpanGuard<'_> {
    /// This span's id, to hand to [`Tracer::span_under`].
    pub fn id(&self) -> u32 {
        self.span.id
    }

    /// Tags the span with its communication round.
    pub fn round(mut self, round: usize) -> Self {
        self.span.round = round as u32;
        self
    }

    /// Tags the span with the fleet index of its client.
    pub fn client(mut self, client: usize) -> Self {
        self.span.client = client as i32;
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = now_ns();
        CURRENT.with(|c| c.set(self.outer));
        self.tracer.push(self.span.clone());
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: `id → duration − child coverage`.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Totals of one span name across a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// How many spans carry the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in nanoseconds (0 when the name never occurred).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals, keyed in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Renders a trace as JSON lines, one span per line, self time
/// included so the file answers "where did the time go" on its own.
pub fn to_json_lines(spans: &[Span], workload: &str, iteration: usize) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let line = Value::obj([
            ("name", Value::str(s.name)),
            ("id", Value::Num(f64::from(s.id))),
            ("parent", Value::Num(f64::from(s.parent))),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            (
                "self_ns",
                Value::Num(selfs.get(&s.id).copied().unwrap_or(0) as f64),
            ),
            ("workload", Value::str(workload)),
            ("iteration", Value::Num(iteration as f64)),
            ("round", Value::Num(f64::from(s.round))),
            ("client", Value::Num(f64::from(s.client))),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            round: 0,
            client: -1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]; root also ⊃ c [70,90].
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 2, "b", 20, 30),
            span(4, 1, "c", 70, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 20);
        assert_eq!(selfs[&2], 50 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 20);
        // Self times partition the root exactly.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two pool threads: [10,50] and [30,80] overlap by 20; a third
        // child [85,120] runs past the parent and is clipped at 100.
        let spans = vec![
            span(1, 0, "phase", 0, 100),
            span(2, 1, "slot", 10, 50),
            span(3, 1, "slot", 30, 80),
            span(4, 1, "slot", 85, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (70 + 15));
        let totals = totals_by_name(&spans);
        assert_eq!(totals["slot"].count, 3);
        assert_eq!(totals["slot"].total_ns, 40 + 50 + 35);
        assert_eq!(totals["phase"].self_ns, 15);
    }

    #[test]
    fn contained_and_identical_children_do_not_double_count() {
        let mut kids = vec![(10, 40), (10, 40), (15, 20), (0, 5)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 30 + 5);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }

    #[test]
    fn guards_nest_on_a_thread_and_adopt_across_threads() {
        let tracer = Tracer::new();
        let parent_id;
        {
            let root = tracer.span("root").round(3);
            parent_id = root.id();
            {
                let _inner = tracer.span("inner").client(2);
            }
            // What a pool worker does: it has no open span of its own.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _slot = tracer.span_under(parent_id, "slot");
                    let _nested = tracer.span("read");
                });
            });
            tracer.record("gap", 1, 2, 3, Some(0));
        }
        let spans = tracer.finish();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("root").round, 3);
        assert_eq!(by_name("inner").parent, parent_id);
        assert_eq!(by_name("inner").client, 2);
        assert_eq!(by_name("slot").parent, parent_id);
        assert_eq!(by_name("read").parent, by_name("slot").id);
        assert_eq!(by_name("gap").parent, parent_id);
        // After the root closed, new spans are roots again.
        let after = tracer.span("after");
        assert_eq!(after.span.parent, 0);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let spans = vec![
            span(1, 0, "fed.round", 5, 25),
            span(2, 1, "net.send", 10, 15),
        ];
        let text = to_json_lines(&spans, "wire_uds_2proc", 4);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("fed.round"));
        assert_eq!(first.get("self_ns").unwrap().as_f64(), Some(15.0));
        assert_eq!(
            first.get("workload").unwrap().as_str(),
            Some("wire_uds_2proc")
        );
        assert_eq!(first.get("iteration").unwrap().as_f64(), Some(4.0));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(1.0));
        for key in ["id", "start_ns", "end_ns", "round", "client"] {
            assert!(second.get(key).is_some(), "{key}");
        }
    }
}
