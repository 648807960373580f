//! Structured spans and events on a thread-local span stack, exported in
//! Chrome trace-event format (one JSON event object per line — a JSONL body
//! wrapped in a top-level array, which Perfetto and `chrome://tracing` open
//! directly).
//!
//! Spans are RAII: [`span`] pushes onto the current thread's stack and the
//! returned guard records a complete (`"ph": "X"`) event on drop. Nesting
//! needs no parent ids — Perfetto nests complete events on the same thread
//! lane by time containment, which the stack discipline guarantees. While
//! telemetry is disabled a span is one atomic load and no allocation.
//!
//! The collector is process-wide and capped: a multi-hour campaign cannot
//! OOM the process by tracing; overflow is dropped and counted in the
//! `telemetry.trace.dropped_events` metric instead.

use crate::enabled;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered trace events (complete spans + instants).
const MAX_EVENTS: usize = 250_000;

/// One Chrome trace event: a completed span (`ph == "X"`, with duration) or
/// an instant event (`ph == "i"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// Category — by convention the emitting layer (`engine`, `pager`,
    /// `optimizer`, `campaign`).
    pub cat: &'static str,
    /// `'X'` complete span, `'i'` instant event.
    pub ph: char,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (complete spans only).
    pub dur_us: u64,
    /// Trace lane: a small dense per-thread id.
    pub tid: u64,
    /// Structured arguments, rendered into the event's `args` object.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    /// The Chrome trace-event object for this entry.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".to_string(), Json::str(self.name.clone())),
            ("cat".to_string(), Json::str(self.cat)),
            ("ph".to_string(), Json::str(self.ph.to_string())),
            ("ts".to_string(), Json::count(self.ts_us as usize)),
            ("pid".to_string(), Json::count(1)),
            ("tid".to_string(), Json::count(self.tid as usize)),
        ];
        if self.ph == 'X' {
            members.insert(4, ("dur".to_string(), Json::count(self.dur_us as usize)));
        }
        if !self.args.is_empty() {
            members.push(("args".to_string(), Json::Obj(self.args.clone())));
        }
        Json::Obj(members)
    }
}

struct Collector {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    next_tid: AtomicU64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    /// Dense per-thread lane id, assigned on first use.
    static TID: u64 = collector().next_tid.fetch_add(1, Ordering::Relaxed);
    /// The thread-local span stack: (name, cat, start). Only depth and pop
    /// order matter — nesting in the export falls out of time containment.
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn push_event(ev: TraceEvent) {
    let c = collector();
    let mut events = c.events.lock().expect("trace collector poisoned");
    if events.len() >= MAX_EVENTS {
        drop(events);
        crate::counter!("telemetry.trace.dropped_events").incr();
        return;
    }
    events.push(ev);
}

fn now_us() -> u64 {
    collector().epoch.elapsed().as_micros() as u64
}

/// RAII span guard: records a complete trace event on drop. Inactive (and
/// allocation-free) while telemetry is disabled.
pub struct SpanGuard {
    name: Option<String>,
    cat: &'static str,
    start_us: u64,
    args: Vec<(String, Json)>,
}

impl SpanGuard {
    /// Attach a structured argument to the span (no-op on inactive spans).
    pub fn arg(&mut self, key: &str, value: Json) {
        if self.name.is_some() {
            self.args.push((key.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let end = now_us();
        push_event(TraceEvent {
            name,
            cat: self.cat,
            ph: 'X',
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            tid: TID.with(|t| *t),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Enter a span with a static name: `let _s = span("campaign", "run");`.
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_with(cat, || name.to_string())
}

/// Enter a span whose name is built lazily — the closure only runs while
/// telemetry is enabled, so dynamic names cost nothing when disabled:
/// `let _s = span_with("campaign", || format!("cell-{id}"));`.
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name: None,
            cat,
            start_us: 0,
            args: Vec::new(),
        };
    }
    SPAN_STACK.with(|s| {
        s.borrow_mut().push(cat);
    });
    SpanGuard {
        name: Some(name()),
        cat,
        start_us: now_us(),
        args: Vec::new(),
    }
}

/// Current depth of this thread's span stack (0 outside any span).
#[cfg(test)]
fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Emit an instant event (`ph: "i"`), e.g. a torn-tail repair or an oracle
/// verdict worth pinning to the timeline. The closure building `(name,
/// args)` only runs while telemetry is enabled.
pub fn event_with(cat: &'static str, build: impl FnOnce() -> (String, Vec<(String, Json)>)) {
    if !enabled() {
        return;
    }
    let (name, args) = build();
    push_event(TraceEvent {
        name,
        cat,
        ph: 'i',
        ts_us: now_us(),
        dur_us: 0,
        tid: TID.with(|t| *t),
        args,
    });
}

/// Emit an instant event with a static name and no arguments.
pub fn event(cat: &'static str, name: &'static str) {
    event_with(cat, || (name.to_string(), Vec::new()));
}

/// Drain the collected trace events (export consumes; tests inspect).
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *collector().events.lock().expect("trace collector poisoned"))
}

/// Render events as a Chrome trace document: a JSON array with one event
/// object per line. Perfetto and `chrome://tracing` open it as-is, and each
/// body line is itself a complete JSON object (JSONL-greppable).
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&ev.to_json().to_string());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Drain the collector and write a Chrome trace file to `path`.
pub fn export_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let events = take_events();
    std::fs::write(path, render_chrome_trace(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;

    #[test]
    fn disabled_spans_record_nothing_and_skip_name_construction() {
        let _g = test_guard();
        crate::set_enabled(false);
        take_events();
        {
            let _s = span_with("bench", || panic!("name built while disabled"));
            assert_eq!(span_depth(), 0);
        }
        event_with("bench", || panic!("event built while disabled"));
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_nest_on_the_thread_local_stack() {
        let _g = test_guard();
        crate::set_enabled(true);
        take_events();
        {
            let _outer = span("bench", "outer");
            assert_eq!(span_depth(), 1);
            {
                let _inner = span("bench", "inner");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        crate::set_enabled(false);
        let evs: Vec<TraceEvent> = take_events()
            .into_iter()
            .filter(|e| e.name == "outer" || e.name == "inner")
            .collect();
        // Inner drops (and records) first; the outer span must contain it.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "outer");
        assert!(evs[1].ts_us <= evs[0].ts_us);
        assert!(evs[1].ts_us + evs[1].dur_us >= evs[0].ts_us + evs[0].dur_us);
        assert_eq!(evs[0].tid, evs[1].tid);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_json_module() {
        let _g = test_guard();
        crate::set_enabled(true);
        take_events();
        {
            let mut s = span("campaign", "cell-7");
            s.arg("queries", Json::count(42));
        }
        event_with("campaign", || {
            (
                "torn_tail_dropped".to_string(),
                vec![("file".to_string(), Json::str("corpus.jsonl"))],
            )
        });
        crate::set_enabled(false);
        let events: Vec<TraceEvent> = take_events()
            .into_iter()
            .filter(|e| e.cat == "campaign")
            .collect();
        assert_eq!(events.len(), 2);
        let text = render_chrome_trace(&events);
        // Every body line is a complete JSON object (strip the array comma).
        for line in text.lines().filter(|l| l.starts_with('{')) {
            Json::parse(line.trim_end_matches(',')).expect("JSONL body line");
        }
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed,
            Json::Arr(events.iter().map(TraceEvent::to_json).collect())
        );
    }
}
