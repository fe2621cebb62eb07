//! In-memory span log around every call the benchmark makes into a layer,
//! written out in Chrome trace-event format when the run ends. Spans are
//! recorded from outside the program; spans inside it are a later change.

use gunrock_engine::json::JsonBuilder;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    layer: &'static str,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    /// One id per query or request; 0 for set-up and probes.
    op: u64,
    thread: u64,
}

pub struct Tracer {
    /// `None` on the untraced pass: calls are still timed, nothing is kept.
    spans: Option<Mutex<Vec<Span>>>,
    epoch: Instant,
    next_op: AtomicU64,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            // ORDERING: Relaxed — only uniqueness matters.
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            spans: on.then(|| Mutex::new(Vec::new())),
            epoch: Instant::now(),
            next_op: AtomicU64::new(1),
        }
    }

    pub fn next_op(&self) -> u64 {
        // ORDERING: Relaxed — only uniqueness matters.
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f`, returning its result and wall time; on the traced pass
    /// also records a span whose parent is the span open on this thread.
    pub fn timed<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let Some(spans) = &self.spans else {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        };
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = spans.lock().expect("no span holder panics");
            spans.push(Span {
                layer,
                name,
                start_us: 0.0,
                dur_us: 0.0,
                parent,
                op,
                thread: thread_id(),
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        OPEN.with(|o| o.borrow_mut().pop());
        let mut spans = spans.lock().expect("no span holder panics");
        spans[id].start_us = (start - self.epoch).as_secs_f64() * 1e6;
        spans[id].dur_us = dur.as_secs_f64() * 1e6;
        (out, dur)
    }

    /// The span log as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto); `None` on the untraced pass.
    pub fn to_json(&self) -> Option<String> {
        let spans = self.spans.as_ref()?.lock().expect("no span holder panics");
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.field_str("displayTimeUnit", "ms");
        j.key("traceEvents");
        j.begin_array();
        for (id, s) in spans.iter().enumerate() {
            j.begin_object();
            j.field_str("name", s.name);
            j.field_str("cat", s.layer);
            j.field_str("ph", "X");
            j.field_f64("ts", s.start_us);
            j.field_f64("dur", s.dur_us);
            j.field_u64("pid", 1);
            j.field_u64("tid", s.thread);
            j.key("args");
            j.begin_object();
            j.field_u64("id", id as u64);
            match s.parent {
                Some(p) => j.field_u64("parent", p as u64),
                None => j.field_null("parent"),
            }
            j.field_u64("op", s.op);
            j.end_object();
            j.end_object();
        }
        j.end_array();
        j.end_object();
        Some(j.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::json::JsonValue;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        let op = t.next_op();
        t.timed("algos", "outer", op, || {
            t.timed("core", "inner", op, || ());
        });
        let doc = JsonValue::parse(&t.to_json().unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let arg =
            |e: &JsonValue, k: &str| e.get("args").unwrap().get(k).and_then(JsonValue::as_u64);
        assert_eq!(arg(&events[0], "parent"), None);
        assert_eq!(arg(&events[1], "parent"), arg(&events[0], "id"));
        assert_eq!(arg(&events[1], "op"), Some(op));
        assert!(
            events[0].get("dur").and_then(JsonValue::as_f64)
                >= events[1].get("dur").and_then(JsonValue::as_f64)
        );
    }

    #[test]
    fn the_untraced_pass_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.timed("algos", "x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        assert!(t.to_json().is_none());
    }
}
