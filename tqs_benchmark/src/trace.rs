//! The benchmark's own tracer: spans recorded in memory around each call
//! into a layer's public function, written out when the run ends.
//!
//! Nothing here touches the program under test — no span is added inside a
//! crate. A [`Tracer`] that is not recording costs one branch per call site,
//! so the same driver code runs the untraced end-to-end repetitions and the
//! traced one, and the difference between the two is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use tqs_telemetry::Json;

/// One recorded span. `parent` indexes into the same span list; spans of one
/// query (or DML program, or campaign statement) share `query`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u32,
}

#[derive(Debug)]
struct Inner {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    query: u32,
}

/// Cheap to clone (one `Rc`); every connector decorator holds a clone, and
/// the driver switches recording on for the traced repetition only.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

/// Closes its span on drop.
pub struct SpanGuard(Option<(Rc<RefCell<Inner>>, usize)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.0.take() {
            let mut t = inner.borrow_mut();
            t.spans[idx].end_ns = t.origin.elapsed().as_nanos() as u64;
            let top = t.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    /// Summed duration of the spans with this name.
    pub total_s: f64,
    /// `total_s` minus the part covered by child spans.
    pub self_s: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`start`](Self::start).
    pub fn new() -> Tracer {
        Tracer(Rc::new(RefCell::new(Inner {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            query: 0,
        })))
    }

    /// Begin a fresh recording.
    pub fn start(&self) {
        let mut t = self.0.borrow_mut();
        assert!(t.stack.is_empty(), "start() inside an open span");
        t.on = true;
        t.origin = Instant::now();
        t.spans.clear();
        t.query = 0;
    }

    /// Stop recording and hand back the spans.
    pub fn finish(&self) -> Vec<Span> {
        let mut t = self.0.borrow_mut();
        assert!(t.stack.is_empty(), "finish() inside an open span");
        t.on = false;
        std::mem::take(&mut t.spans)
    }

    /// The identifier stamped on every span opened from now on.
    pub fn set_query(&self, query: u32) {
        self.0.borrow_mut().query = query;
    }

    pub fn span(&self, name: &'static str) -> SpanGuard {
        let mut t = self.0.borrow_mut();
        if !t.on {
            return SpanGuard(None);
        }
        let idx = t.spans.len();
        let span = Span {
            name,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.stack.last().copied(),
            query: t.query,
        };
        t.spans.push(span);
        t.stack.push(idx);
        SpanGuard(Some((Rc::clone(&self.0), idx)))
    }
}

/// Self and total time per span name. When `under` is given, only spans with
/// an ancestor of that name are counted (e.g. engine time spent on behalf of
/// the minimizer).
pub fn layer_times(spans: &[Span], under: Option<&str>) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let has_ancestor = |mut idx: usize, name: &str| -> bool {
        while let Some(p) = spans[idx].parent {
            if spans[p].name == name {
                return true;
            }
            idx = p;
        }
        false
    };
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if under.is_some_and(|name| !has_ancestor(i, name)) {
            continue;
        }
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += dur as f64 / 1e9;
        e.self_s += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
    }
    out
}

/// Chrome trace-event JSON (complete events, microseconds) — opens in
/// Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::str(s.name)),
                    ("ph".to_string(), Json::str("X")),
                    ("pid".to_string(), Json::count(1)),
                    ("tid".to_string(), Json::count(1)),
                    ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".to_string(),
                        Json::Obj(vec![
                            ("query".to_string(), Json::count(s.query as usize)),
                            (
                                "parent".to_string(),
                                s.parent.map(Json::count).unwrap_or(Json::Null),
                            ),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}

/// The per-layer table: one row per span name, self times summing to the
/// root span's duration.
pub fn layer_table(spans: &[Span]) -> String {
    let times = layer_times(spans, None);
    let wall: f64 = times.values().map(|t| t.self_s).sum();
    let mut rows: Vec<_> = times.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = format!(
        "{:<28} {:>8} {:>11} {:>11} {:>7}\n",
        "layer", "calls", "total_s", "self_s", "self%"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>11.6} {:>11.6} {:>6.1}%\n",
            name,
            t.calls,
            t.total_s,
            t.self_s,
            100.0 * t.self_s / wall.max(1e-12)
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>8} {:>11} {:>11.6}\n",
        "sum", "", "", wall
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_and_filter_by_ancestor() {
        let t = Tracer::new();
        drop(t.span("before start"));
        t.start();
        {
            let _root = t.span("driver");
            t.set_query(7);
            {
                let _a = t.span("a");
                let _b = t.span("b");
            }
            let _b2 = t.span("b");
        }
        let spans = t.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].query, 7);
        let all = layer_times(&spans, None);
        let root = spans[0].end_ns - spans[0].start_ns;
        let self_sum: f64 = all.values().map(|l| l.self_s).sum();
        assert!((self_sum - root as f64 / 1e9).abs() < 1e-9);
        assert_eq!(all["b"].calls, 2);
        assert_eq!(layer_times(&spans, Some("a"))["b"].calls, 1);
        assert!(layer_table(&spans).contains("driver"));
        assert_eq!(chrome_trace(&spans).as_arr().unwrap().len(), 4);
        // Nothing is recorded once the recording is finished.
        drop(t.span("after finish"));
        assert!(t.finish().is_empty());
    }
}
