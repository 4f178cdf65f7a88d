//! Harness-side spans: recorded around each call into a layer, kept in
//! memory, written out once when the run ends.
//!
//! A span has a name, a start and an end (µs from the run's epoch), the
//! span that caused it, and an id that all spans of one request or delta
//! share. A span's self time is its duration minus the part its children
//! cover. Span trees the program itself returns (`BootstrapStats::trace`,
//! `DeltaStats::trace`) carry durations but no clock, so they are attached
//! to the harness span that covers them, as read.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use lids_obs::SpanSnapshot;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct SpanRec {
    name: String,
    parent: Option<usize>,
    id: u64,
    start_us: u64,
    end_us: u64,
    program: Option<String>,
}

/// The span store of one run. With tracing off every call is a no-op.
pub struct Trace {
    epoch: Instant,
    spans: Option<Mutex<Vec<SpanRec>>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans
            .lock()
            .expect("no thread panics while recording a span");
        spans.push(SpanRec {
            name: name.to_string(),
            parent: parent.map(|p| p.0),
            id,
            start_us: self.us(start),
            end_us: self.us(end),
            program: None,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled() {
            return f(None);
        }
        // reserve the slot first so children can name their parent
        let start = Instant::now();
        let me = self.record(name, parent, id, start, start);
        let out = f(me);
        let end = self.us(Instant::now());
        if let (Some(spans), Some(me)) = (&self.spans, me) {
            spans
                .lock()
                .expect("no thread panics while recording a span")[me.0]
                .end_us = end;
        }
        out
    }

    /// Attach a span tree the program returned to the harness span that
    /// covers the call.
    pub fn attach_program(&self, span: Option<SpanId>, tree: Option<&SpanSnapshot>) {
        if let (Some(spans), Some(span), Some(tree)) = (&self.spans, span, tree) {
            let mut json = String::new();
            program_json(tree, &mut json);
            spans
                .lock()
                .expect("no thread panics while recording a span")[span.0]
                .program = Some(json);
        }
    }

    /// Render every span as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let Some(spans) = &self.spans else {
            return String::new();
        };
        let spans = spans
            .lock()
            .expect("no thread panics while recording a span");
        // self time: duration minus the union of the children's intervals
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_us(&mut children[i], s.start_us, s.end_us);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"id\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{}",
                s.name,
                s.id,
                s.start_us,
                s.end_us,
                (s.end_us - s.start_us).saturating_sub(covered),
            );
            if let Some(program) = &s.program {
                let _ = write!(out, ",\"program\":{program}");
            }
            out.push_str(if i + 1 == spans.len() { "}\n" } else { "},\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_us(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

fn program_json(span: &SpanSnapshot, out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"us\":{}",
        span.name,
        (span.wall_secs * 1e6).round() as u64
    );
    for (key, count) in &span.counts {
        let _ = write!(out, ",\"{key}\":{count}");
    }
    if !span.children.is_empty() {
        out.push_str(",\"children\":[");
        for (i, child) in span.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            program_json(child, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = Trace::new(true);
        let t0 = trace.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = trace.record("request", None, 7, at(0), at(10));
        trace.record("parse", root, 7, at(1), at(3));
        // overlapping children are not counted twice
        trace.record("execute", root, 7, at(2), at(6));
        let json = trace.to_json("w", 1);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("trace is JSON");
        let serde_json::Value::Object(doc) = doc else {
            panic!("object")
        };
        let Some(serde_json::Value::Array(spans)) = doc.get("spans") else {
            panic!("spans")
        };
        assert_eq!(spans.len(), 3);
        let field = |i: usize, key: &str| match &spans[i] {
            serde_json::Value::Object(m) => m.get(key).cloned(),
            _ => None,
        };
        let num = |v: Option<serde_json::Value>| match v {
            Some(serde_json::Value::Number(n)) => n.as_i64().unwrap(),
            other => panic!("number expected, got {other:?}"),
        };
        assert_eq!(num(field(0, "self_us")), 5_000);
        assert_eq!(num(field(1, "self_us")), 2_000);
        assert_eq!(num(field(1, "parent")), 0);
        assert_eq!(num(field(2, "id")), 7);
        assert_eq!(field(0, "parent"), Some(serde_json::Value::Null));
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let trace = Trace::new(false);
        let now = Instant::now();
        assert_eq!(trace.record("x", None, 0, now, now), None);
        assert_eq!(trace.span("y", None, 0, |me| me), None);
        assert_eq!(trace.to_json("w", 1), "");
    }
}
