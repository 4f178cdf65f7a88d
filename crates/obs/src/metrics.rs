//! Metrics registry: named counters, gauges, and histograms.
//!
//! Histograms use fixed log₂ buckets: value `v` lands in bucket
//! `64 - v.leading_zeros()`, i.e. bucket 0 holds exactly `v == 0` and
//! bucket `i ≥ 1` holds `2^(i-1) ..= 2^i - 1` (upper bound `2^i - 1`).
//! Fixed buckets mean two snapshots are always mergeable and the JSON
//! schema never depends on observed data.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Mutex;
use std::time::Duration;

use crate::json;

/// Number of independently locked registry shards. Metric names are
/// spread across shards by hash, so concurrent reader threads updating
/// different metrics rarely contend on the same lock.
const REGISTRY_SHARDS: usize = 8;

/// Number of log₂ buckets: one for zero plus one per bit of u64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`, saturating at
/// `u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram of u64 samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: vec![0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_upper_bound(i), c))
                .collect(),
        }
    }
}

/// Immutable histogram state; `buckets` holds `(le, count)` pairs for
/// non-empty buckets only, with strictly increasing `le`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn write_json(&self, buf: &mut String) {
        buf.push('{');
        json::push_key(buf, "count");
        buf.push_str(&self.count.to_string());
        buf.push(',');
        json::push_key(buf, "sum");
        buf.push_str(&self.sum.to_string());
        buf.push(',');
        json::push_key(buf, "min");
        buf.push_str(&self.min.to_string());
        buf.push(',');
        json::push_key(buf, "max");
        buf.push_str(&self.max.to_string());
        buf.push(',');
        json::push_key(buf, "buckets");
        buf.push('[');
        for (i, (le, count)) in self.buckets.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push('{');
            json::push_key(buf, "le");
            buf.push_str(&le.to_string());
            buf.push(',');
            json::push_key(buf, "count");
            buf.push_str(&count.to_string());
            buf.push('}');
        }
        buf.push_str("]}");
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of named metrics.
///
/// Internally sharded: each metric name hashes to one of
/// `REGISTRY_SHARDS` independently locked shards, so concurrent
/// threads recording different metrics (the serving-bench reader pool,
/// for instance) don't serialize on a single registry lock.
/// [`Self::snapshot`] takes all shard locks *simultaneously* before
/// reading any of them, so a snapshot is a consistent point-in-time
/// view — never a mix of states from different moments.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<RegistryInner>>,
    hasher: RandomState,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: (0..REGISTRY_SHARDS).map(|_| Mutex::new(RegistryInner::default())).collect(),
            hasher: RandomState::new(),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn shard(&self, name: &str) -> std::sync::MutexGuard<'_, RegistryInner> {
        let idx = self.hasher.hash_one(name) as usize % self.shards.len();
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to a monotone counter (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.shard(name);
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.shard(name);
        inner.gauges.insert(name.to_string(), value);
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.shard(name);
        inner.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Record a duration, in microseconds, into the named histogram.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Consistent point-in-time view: all shard locks are held at once
    /// while the state is copied out (shards are always acquired in
    /// index order, which also makes the multi-lock deadlock-free).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for inner in &guards {
            for (k, &v) in &inner.counters {
                counters.insert(k.clone(), v);
            }
            for (k, &v) in &inner.gauges {
                gauges.insert(k.clone(), v);
            }
            for (k, h) in &inner.histograms {
                histograms.insert(k.clone(), h.snapshot());
            }
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }
}

/// Immutable registry state, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Fold in the metrics of another registry whose names are disjoint
    /// from this one's, keeping each family sorted by name.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    pub(crate) fn write_json(&self, buf: &mut String) {
        buf.push('{');
        json::push_key(buf, "counters");
        buf.push('{');
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            json::push_key(buf, k);
            buf.push_str(&v.to_string());
        }
        buf.push_str("},");
        json::push_key(buf, "gauges");
        buf.push('{');
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            json::push_key(buf, k);
            json::push_f64(buf, *v);
        }
        buf.push_str("},");
        json::push_key(buf, "histograms");
        buf.push('{');
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            json::push_key(buf, k);
            h.write_json(buf);
        }
        buf.push_str("}}");
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
    fn bucket_boundaries() {
        // bucket 0: exactly zero
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper_bound(0), 0);
        // bucket i (i >= 1) covers 2^(i-1) ..= 2^i - 1
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            assert_eq!(bucket_upper_bound(i), hi);
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // upper bounds are strictly monotone
        for i in 1..HIST_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn histogram_stats_and_snapshot() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1034);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        // buckets: 0 -> {0}, 1 -> {1}, 2 -> {2,3}, 3 -> {4}, 11 -> {1024}
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (2047, 1)]);
        let les: Vec<u64> = s.buckets.iter().map(|(le, _)| *le).collect();
        let mut sorted = les.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(les, sorted, "le values strictly increasing");
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 1_000;
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    // a shared metric (all threads contend) plus a
                    // per-thread one (lands on different shards)
                    for i in 0..PER_THREAD {
                        r.counter_add("shared.count", 1);
                        r.counter_add(&format!("thread.{t}.count"), 1);
                        r.observe("shared.lat_us", i);
                        r.gauge_set(&format!("thread.{t}.gauge"), i as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counter("shared.count"), Some(THREADS as u64 * PER_THREAD));
        let hist = s.histogram("shared.lat_us").unwrap();
        assert_eq!(hist.count, THREADS as u64 * PER_THREAD);
        let per_bucket: u64 = hist.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(per_bucket, hist.count, "bucket counts must add up");
        for t in 0..THREADS {
            assert_eq!(s.counter(&format!("thread.{t}.count")), Some(PER_THREAD));
            assert_eq!(s.gauge(&format!("thread.{t}.gauge")), Some((PER_THREAD - 1) as f64));
        }
    }

    #[test]
    fn snapshot_is_consistent_under_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let r = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        // writer keeps two counters in lockstep; they live on whatever
        // shards their names hash to, so a snapshot that didn't hold all
        // shard locks at once could observe them out of sync
        let writer = {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    r.counter_add("pair.a", 1);
                    r.counter_add("pair.b", 1);
                }
            })
        };
        for _ in 0..200 {
            let s = r.snapshot();
            let a = s.counter("pair.a").unwrap_or(0);
            let b = s.counter("pair.b").unwrap_or(0);
            // `a` is incremented first, so a consistent view allows
            // a == b or a == b + 1, never anything else
            assert!(a == b || a == b + 1, "torn snapshot: a={a} b={b}");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn registry_roundtrip() {
        let r = MetricsRegistry::new();
        r.counter_add("query.count", 2);
        r.counter_add("query.count", 3);
        r.gauge_set("memory.peak_bytes", 1.5e6);
        r.observe("query.wall_us", 100);
        r.observe("query.wall_us", 200);
        r.observe_duration("stage_us", Duration::from_micros(50));
        let s = r.snapshot();
        assert_eq!(s.counter("query.count"), Some(5));
        assert_eq!(s.gauge("memory.peak_bytes"), Some(1.5e6));
        assert_eq!(s.histogram("query.wall_us").unwrap().count, 2);
        assert_eq!(s.histogram("stage_us").unwrap().sum, 50);

        use serde_json::Value;
        fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
            match v {
                Value::Object(m) => m.get(key).unwrap_or(&Value::Null),
                _ => panic!("expected object while reading `{key}`"),
            }
        }
        fn as_int(v: &Value) -> i64 {
            match v {
                Value::Number(n) => n.as_i64().expect("integral number"),
                other => panic!("not a number: {other:?}"),
            }
        }
        let v: Value = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(as_int(field(field(&v, "counters"), "query.count")), 5);
        // 1.5e6 renders as the integer literal 1500000; compare numerically
        match field(field(&v, "gauges"), "memory.peak_bytes") {
            Value::Number(n) => assert_eq!(n.as_f64(), Some(1.5e6)),
            other => panic!("gauge is not a number: {other:?}"),
        }
        let hist = field(field(&v, "histograms"), "query.wall_us");
        assert_eq!(as_int(field(hist, "count")), 2);
        let Value::Array(buckets) = field(hist, "buckets") else { panic!("no buckets") };
        assert!(!buckets.is_empty());
        let les: Vec<i64> = buckets.iter().map(|b| as_int(field(b, "le"))).collect();
        for pair in les.windows(2) {
            assert!(pair[0] < pair[1], "le values must be strictly increasing");
        }
    }
}
