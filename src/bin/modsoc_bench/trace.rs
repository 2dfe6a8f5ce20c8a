//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a named interval with a layer (the module it times), a
//! parent, the thread it ran on and a request id shared by every span of
//! one operation. Spans stay in memory and are written out once, as
//! Chrome trace-event JSON through `metrics::json`. Nothing here reaches
//! inside the program: where a phase runs inside a single public call,
//! its interval is placed from the program's own phase timings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use modsoc::metrics::json::JsonValue;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-tracer thread index (0 = first thread seen).
    pub tid: usize,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer runs the timed closures untouched
/// and never reads the clock, so one code path serves both the timed and
/// the traced iterations.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<ThreadId>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        }
    }

    /// Reserve a span id ahead of recording, so spans that finish first
    /// can name a parent whose interval is only known later.
    pub fn reserve(&self) -> Option<usize> {
        self.enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Run `f` inside a span; `f` receives the span's id to pass on as
    /// its children's parent.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let Some(id) = self.reserve() else {
            return f(None);
        };
        let start = self.now_ns();
        let out = f(Some(id));
        self.record(Some(id), layer, name, parent, request, start, self.now_ns());
        out
    }

    /// Record an interval measured elsewhere. `id` comes from
    /// [`Tracer::reserve`] (a fresh one is taken when `None`); nothing
    /// is recorded when the tracer is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: Option<usize>,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let Some(id) = id.or_else(|| self.reserve()) else {
            return;
        };
        let tid = self.thread_index();
        self.spans
            .lock()
            .expect("span list lock is never poisoned")
            .push(Span {
                id,
                parent,
                layer,
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                tid,
                request,
            });
    }

    fn thread_index(&self) -> usize {
        let me = std::thread::current().id();
        let mut threads = self
            .threads
            .lock()
            .expect("thread list lock is never poisoned");
        threads.iter().position(|t| *t == me).unwrap_or_else(|| {
            threads.push(me);
            threads.len() - 1
        })
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock is never poisoned")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (a pool's parallel
/// workers) are counted once.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    span.dur_ns() - covered_ns(span.start_ns, span.end_ns, &children)
}

/// Self time summed per layer, in milliseconds, in first-seen order.
pub fn self_ms_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let ms = self_time_ns(s, spans) as f64 / 1e6;
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += ms,
            None => out.push((s.layer, ms)),
        }
    }
    out
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph": "X"`) event per span, microseconds.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    let num = |v: f64| JsonValue::Number(v);
    let events = spans
        .iter()
        .map(|s| {
            JsonValue::Object(vec![
                ("name".to_string(), JsonValue::String(s.name.clone())),
                ("cat".to_string(), JsonValue::String(s.layer.to_string())),
                ("ph".to_string(), JsonValue::String("X".to_string())),
                ("ts".to_string(), num(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), num(s.dur_ns() as f64 / 1e3)),
                ("pid".to_string(), num(1.0)),
                ("tid".to_string(), num(s.tid as f64)),
                (
                    "args".to_string(),
                    JsonValue::Object(vec![
                        ("span".to_string(), num(s.id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(JsonValue::Null, |p| num(p as f64)),
                        ),
                        ("request".to_string(), num(s.request as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("traceEvents".to_string(), JsonValue::Array(events)),
        (
            "displayTimeUnit".to_string(),
            JsonValue::String("ms".to_string()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "test",
            name: format!("s{id}"),
            start_ns,
            end_ns,
            tid: 0,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > child [10,40] > grandchild [20,30]; child2 [50,70].
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 30 - 20);
        // Only direct children count: the grandchild is the child's.
        assert_eq!(self_time_ns(&spans[1], &spans), 30 - 10);
        assert_eq!(self_time_ns(&spans[2], &spans), 10);
        assert_eq!(self_time_ns(&spans[3], &spans), 20);
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer.len(), 1);
        assert!((by_layer[0].1 - 100.0 / 1e6).abs() < 1e-12, "{by_layer:?}");
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // A pool span [0,100] with two workers busy [5,80] and [10,95]:
        // covered is the union [5,95], not the 155 ns sum.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 5, 80),
            span(2, Some(0), 10, 95),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 10);
        // A child sticking out of its parent is clipped to the parent.
        let spans = vec![span(0, None, 0, 50), span(1, Some(0), 40, 90)];
        assert_eq!(self_time_ns(&spans[0], &spans), 40);
        assert_eq!(covered_ns(0, 10, &[]), 0);
        assert_eq!(covered_ns(0, 10, &[(3, 3), (8, 2)]), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        let got = off.span("test", "x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(got, 7);
        assert!(off.spans().is_empty());
        assert_eq!(off.reserve(), None);
    }

    #[test]
    fn spans_nest_across_threads_and_export() {
        let tracer = Tracer::new(true);
        tracer.span("bench", "root", None, 1, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| tracer.span("work", "leaf", root, 1, |_| ()));
                }
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.parent.is_none()).expect("root");
        assert_eq!(
            spans.iter().filter(|s| s.parent == Some(root.id)).count(),
            2
        );
        let tids: std::collections::BTreeSet<usize> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3, "main thread plus two workers");
        let doc = chrome_trace(&spans).to_compact();
        let back = modsoc::metrics::json::parse(&doc).expect("valid JSON");
        let events = back
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")));
    }
}
