//! Prepared queries and the plan cache.
//!
//! The discovery interfaces in `lids-core` issue the same handful of
//! SPARQL texts over and over (`SEARCH_TABLES_QUERY` and friends), and
//! until now every call re-lexed, re-parsed, and re-compiled the query
//! against the store dictionary. [`PlanCache`] memoizes that work in
//! two tiers:
//!
//! 1. **text tier** — exact query string → [`PreparedQuery`]. A repeat
//!    call with byte-identical text does zero lexing, parsing, or
//!    planning.
//! 2. **shape tier** — on a text miss, the query is lexed once and
//!    normalized to a *shape*: the token stream with every constant
//!    (IRI, prefixed name, string, number) parameterized to a slot,
//!    plus the vector of slot values. Texts that differ only in
//!    whitespace, comments, or formatting share a shape and value
//!    vector and reuse the cached parse; texts that differ in constants
//!    share the shape but parse once per distinct value vector.
//!
//! A [`PreparedQuery`] additionally caches its *compiled* form (the
//! dictionary-encoded pattern tree) keyed on the store's
//! `(store_id, generation)` pair, so repeat executions against an
//! unchanged store skip term interning and join-estimate lookups too.
//! Any store mutation bumps the generation and transparently triggers
//! a recompile on next use.
//!
//! Cache-effectiveness counters ([`PlanCacheStats`]) are exported
//! through the `lids-obs` registry by `lids-core`, and back the
//! "second execution of an identical query does zero parse/plan work"
//! regression tests.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lids_exec::{Clock, QueryGovernor, SystemClock};
use lids_rdf::StoreSnapshot;

use crate::ast::Query;
use crate::eval::{eval_compiled, Compiler, EncGroup, EvalOptions, ExecStats};
use crate::lexer::{tokenize, TokenKind};
use crate::parser::parse_query;
use crate::results::{Solutions, SparqlError};

/// Default maximum distinct query texts kept (LRU-evicted beyond this).
const MAX_TEXTS: usize = 512;
/// Default maximum distinct shapes kept (LRU-evicted beyond this).
const MAX_SHAPES: usize = 256;
/// Maximum constant-vector variants kept per shape.
const MAX_VARIANTS: usize = 8;

/// Recover a mutex guard even if a panicking holder poisoned it — the
/// caches hold plain data, so the worst a mid-panic writer leaves behind
/// is a stale-but-consistent entry.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

// --------------------------------------------------------------- prepared

/// Plan compiled against one store snapshot.
struct CachedPlan {
    store_id: u64,
    generation: u64,
    group: Arc<EncGroup>,
}

struct PreparedInner {
    query: Query,
    plan: Mutex<Option<CachedPlan>>,
    /// Shared with the owning [`PlanCache`] so compiles are observable.
    compiles: Arc<AtomicU64>,
}

/// A parsed query whose compiled plan is cached per store snapshot.
///
/// Cheap to clone (shared behind an `Arc`); safe to hold across store
/// mutations — the plan recompiles automatically when the store's
/// generation moves.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

impl PreparedQuery {
    /// Parse `text` into a standalone prepared query (not cached — use
    /// [`PlanCache::prepare`] to share parses across calls).
    pub fn parse(text: &str) -> Result<PreparedQuery, SparqlError> {
        Ok(PreparedQuery::from_query(parse_query(text)?, Arc::new(AtomicU64::new(0))))
    }

    fn from_query(query: Query, compiles: Arc<AtomicU64>) -> PreparedQuery {
        PreparedQuery {
            inner: Arc::new(PreparedInner { query, plan: Mutex::new(None), compiles }),
        }
    }

    /// The parsed form.
    pub fn query(&self) -> &Query {
        &self.inner.query
    }

    /// Execute against `store` with default options.
    pub fn execute<'a>(&self, store: &'a StoreSnapshot) -> Result<Solutions<'a>, SparqlError> {
        self.execute_with(store, EvalOptions::default())
    }

    /// Execute against `store` with explicit options.
    pub fn execute_with<'a>(
        &self,
        store: &'a StoreSnapshot,
        options: EvalOptions,
    ) -> Result<Solutions<'a>, SparqlError> {
        let group = self.plan_for(store);
        eval_compiled(store, &self.inner.query, options, &group, None, None, None)
    }

    /// Execute, filling `stats` with per-operator execution counts.
    pub fn execute_with_stats<'a>(
        &self,
        store: &'a StoreSnapshot,
        options: EvalOptions,
        stats: &ExecStats,
    ) -> Result<Solutions<'a>, SparqlError> {
        let group = self.plan_for(store);
        eval_compiled(store, &self.inner.query, options, &group, None, Some(stats), None)
    }

    /// Execute under an externally armed [`QueryGovernor`]: deadline,
    /// cancellation, and memory budget are enforced at batch/row
    /// boundaries, sharing the governor's accounting with any other
    /// work charged against it.
    pub fn execute_governed<'a>(
        &self,
        store: &'a StoreSnapshot,
        options: EvalOptions,
        governor: Option<&QueryGovernor>,
        stats: Option<&ExecStats>,
    ) -> Result<Solutions<'a>, SparqlError> {
        let group = self.plan_for(store);
        eval_compiled(store, &self.inner.query, options, &group, None, stats, governor)
    }

    /// Compiled plan for this store snapshot, reusing the cached one
    /// when `(store_id, generation)` still matches.
    fn plan_for(&self, store: &StoreSnapshot) -> Arc<EncGroup> {
        let mut slot = relock(&self.inner.plan);
        if let Some(plan) = slot.as_ref() {
            if plan.store_id == store.store_id() && plan.generation == store.generation() {
                return Arc::clone(&plan.group);
            }
        }
        let mut compiler = Compiler::new(store, &self.inner.query.variables, false);
        let group = Arc::new(compiler.compile_query(&self.inner.query));
        self.inner.compiles.fetch_add(1, Relaxed);
        *slot = Some(CachedPlan {
            store_id: store.store_id(),
            generation: store.generation(),
            group: Arc::clone(&group),
        });
        group
    }
}

// ------------------------------------------------------------ shape keys

/// Normalized token-stream shape plus the constants it parameterized
/// out, in token order.
struct Shape {
    key: String,
    values: Vec<String>,
}

/// Lex `text` and split it into a constant-free shape string and the
/// slot-value vector. Errors propagate (the caller would fail the same
/// way parsing).
fn shape_of(text: &str) -> Result<Shape, SparqlError> {
    let tokens = tokenize(text)?;
    let mut key = String::with_capacity(text.len() / 2);
    let mut values = Vec::new();
    for token in &tokens {
        match &token.kind {
            // constants → slots (the value participates in the variant
            // key, so any classification here is correctness-neutral)
            TokenKind::Iri(iri) => {
                key.push_str("<>·");
                values.push(format!("<{iri}>"));
            }
            TokenKind::PName(prefix, local) => {
                key.push_str("pn·");
                values.push(format!("{prefix}:{local}"));
            }
            TokenKind::String(s) => {
                key.push_str("\"\"·");
                values.push(s.clone());
            }
            TokenKind::Number(n) => {
                key.push_str("#·");
                values.push(n.clone());
            }
            // structure → verbatim
            TokenKind::Var(v) => {
                let _ = write!(key, "?{v}·");
            }
            TokenKind::Word(w) => {
                // keywords are case-insensitive; normalize
                let _ = write!(key, "{}·", w.to_ascii_lowercase());
            }
            TokenKind::LangTag(l) => {
                let _ = write!(key, "@{l}·");
            }
            TokenKind::BNode(b) => {
                let _ = write!(key, "_:{b}·");
            }
            other => {
                let _ = write!(key, "{other:?}·");
            }
        }
    }
    Ok(Shape { key, values })
}

// ------------------------------------------------------------- the cache

/// One cached entry plus its last-touch tick for LRU eviction.
struct Stamped<T> {
    tick: u64,
    value: T,
}

/// Constant-vector variants cached under one shape key.
type ShapeVariants = Vec<(Vec<String>, PreparedQuery)>;

#[derive(Default)]
struct CacheMaps {
    by_text: HashMap<String, Stamped<PreparedQuery>>,
    by_shape: HashMap<String, Stamped<ShapeVariants>>,
    /// Monotonic touch counter; bumped on every hit or insert.
    tick: u64,
}

impl CacheMaps {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Evict the least-recently-touched entry from `map` if it is at or
/// over `capacity`. O(len) scan — capacities are small (hundreds) and
/// eviction only runs on insert past capacity.
fn evict_lru<T>(map: &mut HashMap<String, Stamped<T>>, capacity: usize, evictions: &AtomicU64) {
    while map.len() >= capacity.max(1) {
        let oldest = map
            .iter()
            .min_by_key(|(_, stamped)| stamped.tick)
            .map(|(key, _)| key.clone());
        match oldest {
            Some(key) => {
                map.remove(&key);
                evictions.fetch_add(1, Relaxed);
            }
            None => break,
        }
    }
}

/// A query shape with a bad resource-governance record. Shapes whose
/// queries repeatedly trip the governor get quarantined: the platform
/// can fail them fast instead of burning a full deadline every time.
struct PoisonEntry {
    offenses: u32,
    poisoned_until: Option<Instant>,
}

/// Cache-effectiveness counters, snapshot by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Exact-text hits (no lexing at all).
    pub hits_text: u64,
    /// Shape-tier hits (lexed once, parse reused).
    pub hits_shape: u64,
    /// Full misses.
    pub misses: u64,
    /// Queries actually parsed.
    pub parses: u64,
    /// Plans compiled against a store snapshot.
    pub compiles: u64,
    /// Entries dropped by LRU eviction (text + shape tiers combined).
    pub evictions: u64,
    /// Distinct query texts currently cached.
    pub texts_len: usize,
    /// Distinct query shapes currently cached.
    pub shapes_len: usize,
}

impl PlanCacheStats {
    /// Total cache hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.hits_text + self.hits_shape
    }
}

/// Two-tier prepared-query cache. Thread-safe; share one per platform.
///
/// Both tiers are bounded: inserts past capacity evict the
/// least-recently-used entry (exact LRU via per-entry touch ticks), and
/// the eviction count is exported through [`PlanCacheStats`]. The cache
/// also tracks *poisoned shapes* — query shapes whose executions keep
/// tripping the resource governor — so callers can fail repeat
/// offenders fast instead of re-burning a deadline on every arrival.
pub struct PlanCache {
    maps: Mutex<CacheMaps>,
    max_texts: usize,
    max_shapes: usize,
    poisoned: Mutex<HashMap<String, PoisonEntry>>,
    clock: Arc<dyn Clock>,
    hits_text: AtomicU64,
    hits_shape: AtomicU64,
    misses: AtomicU64,
    parses: AtomicU64,
    compiles: Arc<AtomicU64>,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("max_texts", &self.max_texts)
            .field("max_shapes", &self.max_shapes)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(MAX_TEXTS, MAX_SHAPES)
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cache bounded to `max_texts` exact-text entries and `max_shapes`
    /// shape entries (each clamped to at least 1).
    pub fn with_capacity(max_texts: usize, max_shapes: usize) -> PlanCache {
        PlanCache {
            maps: Mutex::new(CacheMaps::default()),
            max_texts: max_texts.max(1),
            max_shapes: max_shapes.max(1),
            poisoned: Mutex::new(HashMap::new()),
            clock: Arc::new(SystemClock),
            hits_text: AtomicU64::new(0),
            hits_shape: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            parses: AtomicU64::new(0),
            compiles: Arc::new(AtomicU64::new(0)),
            evictions: AtomicU64::new(0),
        }
    }

    /// Replace the clock used for poison TTLs (tests inject a virtual
    /// clock so quarantine expiry is deterministic).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> PlanCache {
        self.clock = clock;
        self
    }

    /// Prepared query for `text`, parsing at most once per distinct
    /// normalized shape + constant vector.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, SparqlError> {
        let mut maps = relock(&self.maps);
        let tick = maps.next_tick();
        if let Some(entry) = maps.by_text.get_mut(text) {
            entry.tick = tick;
            self.hits_text.fetch_add(1, Relaxed);
            return Ok(entry.value.clone());
        }
        let shape = shape_of(text)?;
        if let Some(entry) = maps.by_shape.get_mut(&shape.key) {
            entry.tick = tick;
            if let Some((_, prepared)) =
                entry.value.iter().find(|(vals, _)| *vals == shape.values)
            {
                self.hits_shape.fetch_add(1, Relaxed);
                let prepared = prepared.clone();
                self.remember_text(&mut maps, tick, text, &prepared);
                return Ok(prepared);
            }
        }
        // full miss: parse once and remember under both tiers
        self.misses.fetch_add(1, Relaxed);
        let query = parse_query(text)?;
        self.parses.fetch_add(1, Relaxed);
        let prepared = PreparedQuery::from_query(query, Arc::clone(&self.compiles));
        if !maps.by_shape.contains_key(&shape.key) {
            evict_lru(&mut maps.by_shape, self.max_shapes, &self.evictions);
        }
        let entry = maps
            .by_shape
            .entry(shape.key)
            .or_insert_with(|| Stamped { tick, value: Vec::new() });
        entry.tick = tick;
        if entry.value.len() >= MAX_VARIANTS {
            entry.value.remove(0);
        }
        entry.value.push((shape.values, prepared.clone()));
        self.remember_text(&mut maps, tick, text, &prepared);
        Ok(prepared)
    }

    fn remember_text(&self, maps: &mut CacheMaps, tick: u64, text: &str, prepared: &PreparedQuery) {
        if !maps.by_text.contains_key(text) {
            evict_lru(&mut maps.by_text, self.max_texts, &self.evictions);
        }
        maps.by_text
            .insert(text.to_string(), Stamped { tick, value: prepared.clone() });
    }

    /// Prepare and execute in one call (the drop-in replacement for
    /// [`crate::query`]).
    pub fn query<'a>(
        &self,
        store: &'a StoreSnapshot,
        text: &str,
    ) -> Result<Solutions<'a>, SparqlError> {
        self.prepare(text)?.execute(store)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let (texts_len, shapes_len) = {
            let maps = relock(&self.maps);
            (maps.by_text.len(), maps.by_shape.len())
        };
        PlanCacheStats {
            hits_text: self.hits_text.load(Relaxed),
            hits_shape: self.hits_shape.load(Relaxed),
            misses: self.misses.load(Relaxed),
            parses: self.parses.load(Relaxed),
            compiles: self.compiles.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            texts_len,
            shapes_len,
        }
    }

    /// Number of distinct prepared shapes currently cached.
    pub fn len(&self) -> usize {
        relock(&self.maps).by_shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached entries and quarantine records (counters are
    /// preserved).
    pub fn clear(&self) {
        let mut maps = relock(&self.maps);
        maps.by_text.clear();
        maps.by_shape.clear();
        relock(&self.poisoned).clear();
    }

    // ------------------------------------------------- shape quarantine

    /// Record that a query of this text's shape tripped the resource
    /// governor. After `threshold` offenses the shape is quarantined for
    /// `ttl`; returns `true` when this call crossed the threshold.
    /// Unlexable texts are never quarantined (they fail at parse anyway).
    pub fn record_offense(&self, text: &str, threshold: u32, ttl: Duration) -> bool {
        let Ok(shape) = shape_of(text) else { return false };
        let mut poisoned = relock(&self.poisoned);
        let entry = poisoned
            .entry(shape.key)
            .or_insert(PoisonEntry { offenses: 0, poisoned_until: None });
        entry.offenses = entry.offenses.saturating_add(1);
        if entry.offenses >= threshold.max(1) {
            entry.poisoned_until = Some(self.clock.now() + ttl);
            true
        } else {
            false
        }
    }

    /// Is this text's shape currently quarantined? Expired quarantines
    /// are cleared on observation (offense count resets — the shape gets
    /// a clean slate after serving its TTL).
    pub fn is_poisoned(&self, text: &str) -> bool {
        let Ok(shape) = shape_of(text) else { return false };
        let mut poisoned = relock(&self.poisoned);
        match poisoned.get(&shape.key).and_then(|e| e.poisoned_until) {
            Some(until) if self.clock.now() < until => true,
            Some(_) => {
                poisoned.remove(&shape.key);
                false
            }
            None => false,
        }
    }

    /// Number of shapes with at least one recorded offense.
    pub fn poisoned_len(&self) -> usize {
        relock(&self.poisoned).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_rdf::{Quad, Term};

    fn store() -> lids_rdf::QuadStore {
        let mut store = lids_rdf::QuadStore::default();
        for i in 0..5 {
            store.insert(&Quad::new(
                Term::iri(format!("urn:t{i}")),
                Term::iri("urn:type"),
                Term::iri("urn:Table"),
            ));
            store.insert(&Quad::new(
                Term::iri(format!("urn:t{i}")),
                Term::iri("urn:name"),
                Term::string(format!("table-{i}")),
            ));
        }
        store
    }

    const Q: &str = "SELECT ?t ?n WHERE { ?t <urn:type> <urn:Table> . ?t <urn:name> ?n }";

    #[test]
    fn identical_text_parses_once() {
        let cache = PlanCache::new();
        let store = store();
        let a = cache.query(&store, Q).unwrap();
        let b = cache.query(&store, Q).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.len(), b.len());
        let stats = cache.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.hits_text, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn whitespace_and_case_variants_share_a_shape() {
        let cache = PlanCache::new();
        let variant = "select ?t ?n\nwhere {\n  ?t <urn:type> <urn:Table> .\n  # lookup\n  ?t <urn:name> ?n\n}";
        cache.prepare(Q).unwrap();
        cache.prepare(variant).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.parses, 1, "formatting variant must not re-parse");
        assert_eq!(stats.hits_shape, 1);
    }

    #[test]
    fn different_constants_parse_separately_then_hit() {
        let cache = PlanCache::new();
        let other = Q.replace("urn:Table", "urn:Column");
        cache.prepare(Q).unwrap();
        cache.prepare(&other).unwrap();
        cache.prepare(&other).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.parses, 2);
        assert_eq!(stats.hits_text, 1);
    }

    #[test]
    fn compiled_plan_survives_until_store_mutates() {
        let cache = PlanCache::new();
        let mut store = store();
        let prepared = cache.prepare(Q).unwrap();
        prepared.execute(&store).unwrap();
        prepared.execute(&store).unwrap();
        assert_eq!(cache.stats().compiles, 1, "unchanged store must reuse the plan");
        store.insert(&Quad::new(
            Term::iri("urn:t9"),
            Term::iri("urn:type"),
            Term::iri("urn:Table"),
        ));
        let rows = prepared.execute(&store).unwrap();
        assert_eq!(cache.stats().compiles, 2, "generation bump must recompile");
        // the new row is only visible with a fresh compile
        assert!(rows.len() >= 5);
    }

    #[test]
    fn prepared_results_match_direct_query() {
        let cache = PlanCache::new();
        let store = store();
        let direct = crate::query(&store, Q).unwrap();
        let prepared = cache.query(&store, Q).unwrap();
        let norm = |s: &Solutions| {
            let mut rows: Vec<String> = s.to_terms().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(norm(&direct), norm(&prepared));
    }

    #[test]
    fn standalone_prepared_query_works() {
        let store = store();
        let prepared = PreparedQuery::parse(Q).unwrap();
        assert_eq!(prepared.execute(&store).unwrap().len(), 5);
    }

    #[test]
    fn lru_evicts_least_recently_used_shape() {
        let cache = PlanCache::with_capacity(2, 2);
        let q = |n: usize| format!("SELECT ?s{n} WHERE {{ ?s{n} <urn:p{n}> ?o{n} }}");
        cache.prepare(&q(0)).unwrap();
        cache.prepare(&q(1)).unwrap();
        // touch q0 so q1 is now the LRU shape
        cache.prepare(&q(0)).unwrap();
        cache.prepare(&q(2)).unwrap();
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "over-capacity insert must evict");
        assert_eq!(stats.shapes_len, 2);
        assert!(stats.texts_len <= 2);
        // q0 was kept: preparing it again is a hit, not a parse
        let parses_before = cache.stats().parses;
        cache.prepare(&q(0)).unwrap();
        assert_eq!(cache.stats().parses, parses_before, "retained entry must hit");
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let cache = PlanCache::with_capacity(4, 4);
        for i in 0..64 {
            let text = format!("SELECT ?a WHERE {{ ?a <urn:churn{i}> ?b{i} }}");
            cache.prepare(&text).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.texts_len <= 4);
        assert!(stats.shapes_len <= 4);
        assert!(stats.evictions >= 60);
    }

    #[test]
    fn repeat_offender_shape_is_quarantined_until_ttl() {
        use lids_exec::TestClock;
        let clock = TestClock::new();
        let cache =
            PlanCache::with_capacity(8, 8).with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let ttl = Duration::from_secs(30);
        assert!(!cache.record_offense(Q, 3, ttl));
        assert!(!cache.is_poisoned(Q), "below threshold: not quarantined");
        assert!(!cache.record_offense(Q, 3, ttl));
        assert!(cache.record_offense(Q, 3, ttl), "third offense crosses threshold");
        assert!(cache.is_poisoned(Q));
        // formatting variant shares the shape, so it is quarantined too
        let variant = Q.to_lowercase().replace(' ', "  ");
        assert!(cache.is_poisoned(&variant));
        // a different shape is unaffected
        assert!(!cache.is_poisoned("SELECT ?x WHERE { ?x <urn:other> ?y }"));
        clock.advance(Duration::from_secs(31));
        assert!(!cache.is_poisoned(Q), "quarantine expires after TTL");
        assert!(!cache.is_poisoned(Q), "expiry clears the record");
    }
}
