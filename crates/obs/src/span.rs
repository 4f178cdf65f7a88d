//! Hierarchical span tracer.
//!
//! Spans are explicit-parent rather than thread-local: callers hold a
//! [`SpanId`] and open children under it, so spans started on one
//! thread can be closed or annotated from another. All state lives
//! behind one mutex in the [`Tracer`]; the hot paths (evaluator inner
//! loops) never touch spans — they use atomic counters and fold the
//! totals into span attributes once at stage end.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn write_json(&self, buf: &mut String) {
        match self {
            AttrValue::Str(s) => json::push_str(buf, s),
            AttrValue::U64(v) => buf.push_str(&v.to_string()),
            AttrValue::I64(v) => buf.push_str(&v.to_string()),
            AttrValue::F64(v) => json::push_f64(buf, *v),
            AttrValue::Bool(v) => buf.push_str(if *v { "true" } else { "false" }),
        }
    }
}

/// Handle to a span inside one [`Tracer`]. Cheap to copy; only
/// meaningful for the tracer that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

/// Errors from span lifecycle misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// `close` was called on a span that is already closed.
    DoubleClose { span: String },
    /// The [`SpanId`] does not belong to this tracer.
    UnknownSpan,
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::DoubleClose { span } => write!(f, "span `{span}` closed twice"),
            ObsError::UnknownSpan => write!(f, "span id does not belong to this tracer"),
        }
    }
}

impl std::error::Error for ObsError {}

#[derive(Debug)]
struct SpanRec {
    name: String,
    started: Instant,
    /// Elapsed seconds, fixed at close; `None` while open.
    wall_secs: Option<f64>,
    attrs: Vec<(String, AttrValue)>,
    counts: Vec<(String, u64)>,
    children: Vec<usize>,
}

impl SpanRec {
    fn new(name: &str) -> Self {
        SpanRec {
            name: name.to_string(),
            started: Instant::now(),
            wall_secs: None,
            attrs: Vec::new(),
            counts: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// Thread-safe hierarchical span tracer.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

#[derive(Debug, Default)]
struct TracerInner {
    /// Live spans by id. Ids are never reused, so a handle to a span that
    /// [`Tracer::retain_roots`] dropped resolves to nothing.
    spans: HashMap<usize, SpanRec>,
    next_id: usize,
    roots: Vec<usize>,
}

impl TracerInner {
    fn open(&mut self, name: &str) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.insert(id, SpanRec::new(name));
        id
    }

    fn drop_tree(&mut self, id: usize) {
        if let Some(rec) = self.spans.remove(&id) {
            for child in rec.children {
                self.drop_tree(child);
            }
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        // A poisoned tracer mutex means a panic mid-record; the data is
        // still structurally sound (every mutation is a single push),
        // so keep tracing rather than cascading the panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a top-level span.
    pub fn root(&self, name: &str) -> SpanId {
        let mut inner = self.lock();
        let id = inner.open(name);
        inner.roots.push(id);
        SpanId(id)
    }

    /// Open a span nested under `parent`. An id this tracer does not
    /// hold (another tracer's, or a dropped span's) falls back to opening
    /// a root span (never panics).
    pub fn child(&self, parent: SpanId, name: &str) -> SpanId {
        let mut inner = self.lock();
        let id = inner.open(name);
        if let Some(p) = inner.spans.get_mut(&parent.0) {
            p.children.push(id);
        } else {
            inner.roots.push(id);
        }
        SpanId(id)
    }

    /// Attach (or overwrite) a key/value attribute on `span`.
    pub fn set_attr(&self, span: SpanId, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        let mut inner = self.lock();
        let Some(rec) = inner.spans.get_mut(&span.0) else { return };
        if let Some(slot) = rec.attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            rec.attrs.push((key.to_string(), value));
        }
    }

    /// Add `delta` to the named counter on `span` (created at 0).
    pub fn add_count(&self, span: SpanId, key: &str, delta: u64) {
        let mut inner = self.lock();
        let Some(rec) = inner.spans.get_mut(&span.0) else { return };
        if let Some(slot) = rec.counts.iter_mut().find(|(k, _)| k == key) {
            slot.1 += delta;
        } else {
            rec.counts.push((key.to_string(), delta));
        }
    }

    /// Close `span`, fixing its wall time, and return that time in
    /// seconds. Closing twice is an error — it almost always means two
    /// owners think they hold the span.
    pub fn close(&self, span: SpanId) -> Result<f64, ObsError> {
        let mut inner = self.lock();
        let Some(rec) = inner.spans.get_mut(&span.0) else {
            return Err(ObsError::UnknownSpan);
        };
        if rec.wall_secs.is_some() {
            return Err(ObsError::DoubleClose { span: rec.name.clone() });
        }
        let secs = rec.started.elapsed().as_secs_f64();
        rec.wall_secs = Some(secs);
        Ok(secs)
    }

    /// Snapshot the span forest. Open spans report elapsed-so-far with
    /// `closed: false`.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.lock();
        let roots =
            inner.roots.iter().filter_map(|&id| snapshot_rec(&inner.spans, id)).collect();
        TraceSnapshot { roots }
    }

    /// Snapshot one span and its subtree; `None` once the span is dropped.
    pub fn snapshot_span(&self, span: SpanId) -> Option<SpanSnapshot> {
        snapshot_rec(&self.lock().spans, span.0)
    }

    /// Keep the `head` oldest and the `tail` newest root spans and drop
    /// every root in between with its subtree — what bounds a tracer that
    /// opens one root per unit of work for the life of the process.
    pub fn retain_roots(&self, head: usize, tail: usize) {
        let mut inner = self.lock();
        let end = inner.roots.len().saturating_sub(tail);
        if head >= end {
            return;
        }
        let dropped: Vec<usize> = inner.roots.drain(head..end).collect();
        for id in dropped {
            inner.drop_tree(id);
        }
    }
}

fn snapshot_rec(spans: &HashMap<usize, SpanRec>, id: usize) -> Option<SpanSnapshot> {
    let rec = spans.get(&id)?;
    Some(SpanSnapshot {
        name: rec.name.clone(),
        wall_secs: rec.wall_secs.unwrap_or_else(|| rec.started.elapsed().as_secs_f64()),
        closed: rec.wall_secs.is_some(),
        attrs: rec.attrs.clone(),
        counts: rec.counts.clone(),
        children: rec.children.iter().filter_map(|&c| snapshot_rec(spans, c)).collect(),
    })
}

/// Immutable copy of one span and its subtree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSnapshot {
    pub name: String,
    pub wall_secs: f64,
    pub closed: bool,
    pub attrs: Vec<(String, AttrValue)>,
    pub counts: Vec<(String, u64)>,
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// First direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&SpanSnapshot> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Attribute lookup by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn write_json(&self, buf: &mut String) {
        buf.push('{');
        json::push_key(buf, "name");
        json::push_str(buf, &self.name);
        buf.push(',');
        json::push_key(buf, "wall_us");
        buf.push_str(&((self.wall_secs * 1e6).round().max(0.0) as u64).to_string());
        buf.push(',');
        json::push_key(buf, "closed");
        buf.push_str(if self.closed { "true" } else { "false" });
        buf.push(',');
        json::push_key(buf, "attrs");
        buf.push('{');
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            json::push_key(buf, k);
            v.write_json(buf);
        }
        buf.push_str("},");
        json::push_key(buf, "counts");
        buf.push('{');
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            json::push_key(buf, k);
            buf.push_str(&v.to_string());
        }
        buf.push_str("},");
        json::push_key(buf, "children");
        buf.push('[');
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            c.write_json(buf);
        }
        buf.push_str("]}");
    }

    fn render_into(&self, buf: &mut String, depth: usize) {
        for _ in 0..depth {
            buf.push_str("  ");
        }
        buf.push_str(&self.name);
        buf.push_str(&format!(" {:.3}ms", self.wall_secs * 1e3));
        if !self.closed {
            buf.push_str(" (open)");
        }
        for (k, v) in &self.counts {
            buf.push_str(&format!(" {k}={v}"));
        }
        buf.push('\n');
        for c in &self.children {
            c.render_into(buf, depth + 1);
        }
    }

    /// Indented human-readable tree.
    pub fn render(&self) -> String {
        let mut buf = String::new();
        self.render_into(&mut buf, 0);
        buf
    }
}

/// Snapshot of every root span in a tracer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    pub roots: Vec<SpanSnapshot>,
}

impl TraceSnapshot {
    /// First root with the given name.
    pub fn root(&self, name: &str) -> Option<&SpanSnapshot> {
        self.roots.iter().find(|r| r.name == name)
    }

    pub(crate) fn write_json(&self, buf: &mut String) {
        buf.push('[');
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            r.write_json(buf);
        }
        buf.push(']');
    }

    pub fn to_json(&self) -> String {
        let mut buf = String::new();
        self.write_json(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nesting() {
        let t = Tracer::new();
        let root = t.root("bootstrap");
        let parse = t.child(root, "parse");
        let inner = t.child(parse, "csv");
        t.add_count(inner, "rows", 10);
        t.add_count(inner, "rows", 5);
        t.set_attr(parse, "tables", 3usize);
        let profile = t.child(root, "profile");
        t.close(inner).unwrap();
        t.close(parse).unwrap();
        t.close(profile).unwrap();
        t.close(root).unwrap();

        let snap = t.snapshot();
        assert_eq!(snap.roots.len(), 1);
        let root = snap.root("bootstrap").unwrap();
        assert!(root.closed);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "parse");
        assert_eq!(root.children[1].name, "profile");
        let parse = root.child("parse").unwrap();
        assert_eq!(parse.attr("tables"), Some(&AttrValue::U64(3)));
        let csv = parse.child("csv").unwrap();
        assert_eq!(csv.counts, vec![("rows".to_string(), 15)]);
        // parent spans run at least as long as their children
        assert!(root.wall_secs >= parse.wall_secs);
        assert!(parse.wall_secs >= csv.wall_secs);
    }

    #[test]
    fn retain_roots_drops_the_middle_and_its_handles() {
        let t = Tracer::new();
        let first = t.root("bootstrap");
        let ids: Vec<SpanId> = (0..10)
            .map(|i| {
                let root = t.root("delta");
                t.set_attr(root, "seq", i as u64);
                let _ = t.close(t.child(root, "stage"));
                root
            })
            .collect();
        t.retain_roots(1, 3);
        let snap = t.snapshot();
        let seqs: Vec<_> = snap.roots.iter().filter_map(|r| r.attr("seq").cloned()).collect();
        assert_eq!(snap.roots[0].name, "bootstrap");
        assert_eq!(seqs, vec![AttrValue::U64(7), AttrValue::U64(8), AttrValue::U64(9)]);
        assert!(t.snapshot_span(first).is_some());
        assert!(t.snapshot_span(ids[0]).is_none(), "dropped root still resolves");
        assert_eq!(t.close(ids[0]), Err(ObsError::UnknownSpan));
        assert_eq!(t.snapshot_span(ids[9]).map(|s| s.children.len()), Some(1));
        // nothing to drop: a no-op
        t.retain_roots(1, 3);
        assert_eq!(t.snapshot().roots.len(), 4);
    }

    #[test]
    fn double_close_is_error() {
        let t = Tracer::new();
        let s = t.root("stage");
        // the first close fixes the wall time the snapshot reports
        let secs = t.close(s).unwrap();
        assert_eq!(t.snapshot().root("stage").map(|r| r.wall_secs), Some(secs));
        assert_eq!(
            t.close(s),
            Err(ObsError::DoubleClose { span: "stage".to_string() })
        );
    }

    #[test]
    fn open_span_snapshots_as_open() {
        let t = Tracer::new();
        let s = t.root("long-running");
        let _child = t.child(s, "inner");
        let snap = t.snapshot();
        let root = snap.root("long-running").unwrap();
        assert!(!root.closed);
        assert!(root.wall_secs >= 0.0);
        assert!(!root.children[0].closed);
    }

    #[test]
    fn attrs_overwrite_counts_accumulate() {
        let t = Tracer::new();
        let s = t.root("r");
        t.set_attr(s, "mode", "exact");
        t.set_attr(s, "mode", "pruned");
        t.add_count(s, "pairs", 7);
        let snap = t.snapshot();
        let r = snap.root("r").unwrap();
        assert_eq!(r.attr("mode"), Some(&AttrValue::Str("pruned".to_string())));
        assert_eq!(r.counts, vec![("pairs".to_string(), 7)]);
    }

    #[test]
    fn cross_thread_close() {
        use std::sync::Arc;
        let t = Arc::new(Tracer::new());
        let root = t.root("par");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let c = t.child(root, &format!("w{i}"));
                    t.add_count(c, "items", i + 1);
                    t.close(c).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        t.close(root).unwrap();
        let snap = t.snapshot();
        let root = snap.root("par").unwrap();
        assert_eq!(root.children.len(), 4);
        let total: u64 =
            root.children.iter().flat_map(|c| c.counts.iter().map(|(_, v)| *v)).sum();
        assert_eq!(total, 1 + 2 + 3 + 4);
    }

    #[test]
    fn json_escapes_and_parses() {
        use serde_json::Value;
        let t = Tracer::new();
        let s = t.root("needs \"escaping\"\n");
        t.set_attr(s, "path", "a\\b\tc");
        t.close(s).unwrap();
        let json = t.snapshot().to_json();
        let v: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(roots) = &v else { panic!("trace is not an array") };
        let Value::Object(root) = &roots[0] else { panic!("span is not an object") };
        assert_eq!(root.get("name"), Some(&Value::String("needs \"escaping\"\n".into())));
        assert_eq!(root.get("closed"), Some(&Value::Bool(true)));
        let Some(Value::Object(attrs)) = root.get("attrs") else { panic!("no attrs") };
        assert_eq!(attrs.get("path"), Some(&Value::String("a\\b\tc".into())));
    }
}
