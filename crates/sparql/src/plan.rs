//! Prepared queries, the parse cache and the shape quarantine.
//!
//! The discovery interfaces in `lids-core` issue the same SPARQL texts
//! over and over (`SEARCH_TABLES_QUERY`, the per-table similarity texts),
//! and [`PlanCache`] keeps them from being parsed each time: one LRU map,
//! exact query text → shared parse. That is all it caches. Measured on a
//! 0.93 M-quad lake, a parse is 1.8–4.6 µs and a hit 0.12 µs; *compiling*
//! a parse against a snapshot's dictionary is 0.3–0.6 µs, so every
//! [`PreparedQuery::execute`] compiles against the snapshot it is handed
//! and no compiled plan is kept — a plan cannot be stale, whichever
//! generations its executions pin. A formatting variant of a cached text
//! is a different text and parses again.
//!
//! The cache also holds the *shape quarantine*: query shapes (the token
//! stream with every constant replaced by a slot) whose executions keep
//! tripping the resource governor fail fast for a TTL. A text is lexed
//! into its shape only when that can matter — after a trip, and at
//! admission only while some shape is quarantined.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lids_exec::{Clock, QueryGovernor, SystemClock};
use lids_rdf::StoreSnapshot;

use crate::ast::Query;
use crate::eval::{evaluate_explained, evaluate_governed, EvalOptions, ExecStats};
use crate::explain::ExplainReport;
use crate::lexer::{tokenize, TokenKind};
use crate::parser::parse_query;
use crate::results::{Solutions, SparqlError};

/// Default maximum distinct query texts kept (LRU-evicted beyond this).
const MAX_TEXTS: usize = 512;
/// Most shapes the quarantine keeps a record of. A client sending distinct
/// slow shapes pushes out the oldest records below the threshold first.
const MAX_OFFENSE_RECORDS: usize = 1024;

/// Recover a mutex guard even if a panicking holder poisoned it — the
/// caches hold plain data, so the worst a mid-panic writer leaves behind
/// is a stale-but-consistent entry.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Remove the entry ranked lowest. An O(len) scan: both tables are capped
/// at about a thousand entries and this runs only on an insert past the cap.
fn evict_min<V, R: Ord>(map: &mut HashMap<String, V>, rank: impl Fn(&V) -> R) -> bool {
    let lowest = map.iter().min_by_key(|(_, v)| rank(v)).map(|(k, _)| k.clone());
    lowest.is_some_and(|key| map.remove(&key).is_some())
}

// --------------------------------------------------------------- prepared

/// A parsed query, shared behind an `Arc` (cheap to clone).
///
/// It holds the parse and nothing else: each execution compiles it against
/// the snapshot it is handed, so one `PreparedQuery` is safe to hold across
/// store mutations and to run from several threads on different pinned
/// generations at once.
#[derive(Clone)]
pub struct PreparedQuery {
    query: Arc<Query>,
}

impl PreparedQuery {
    /// Parse `text` into a standalone prepared query (not cached — use
    /// [`PlanCache::prepare`] to share parses across calls).
    pub fn parse(text: &str) -> Result<PreparedQuery, SparqlError> {
        Ok(PreparedQuery { query: Arc::new(parse_query(text)?) })
    }

    /// The parsed form.
    pub fn query(&self) -> &Query {
        &self.query
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
        self.execute_governed(store, options, None, None)
    }

    /// Execute under an externally armed [`QueryGovernor`]: deadline,
    /// cancellation, and memory budget are enforced at batch/row
    /// boundaries, sharing the governor's accounting with any other
    /// work charged against it. `stats` is filled with per-operator
    /// execution counts.
    pub fn execute_governed<'a>(
        &self,
        store: &'a StoreSnapshot,
        options: EvalOptions,
        governor: Option<&QueryGovernor>,
        stats: Option<&ExecStats>,
    ) -> Result<Solutions<'a>, SparqlError> {
        evaluate_governed(store, &self.query, options, governor, stats)
    }

    /// Execute with per-pattern instrumentation, returning the solutions
    /// plus an [`ExplainReport`] of the executed plan.
    pub fn execute_explained<'a>(
        &self,
        store: &'a StoreSnapshot,
        options: EvalOptions,
    ) -> Result<(Solutions<'a>, ExplainReport), SparqlError> {
        evaluate_explained(store, &self.query, options)
    }
}

// ------------------------------------------------------------- shape key

/// Lex `text` into its *shape*: the token stream with every constant (IRI,
/// prefixed name, string, number) replaced by a slot, keywords lowercased.
/// Texts that differ only in whitespace, comments, formatting or constants
/// share a shape. The quarantine's key, and nothing else.
fn shape_of(text: &str) -> Result<String, SparqlError> {
    let tokens = tokenize(text)?;
    let mut key = String::with_capacity(text.len() / 2);
    for token in &tokens {
        match &token.kind {
            TokenKind::Iri(_) => key.push_str("<>·"),
            TokenKind::PName(..) => key.push_str("pn·"),
            TokenKind::String(_) => key.push_str("\"\"·"),
            TokenKind::Number(_) => key.push_str("#·"),
            // keywords are case-insensitive
            TokenKind::Word(w) => {
                let _ = write!(key, "{}·", w.to_ascii_lowercase());
            }
            // variables, blank nodes, language tags, punctuation: verbatim
            other => {
                let _ = write!(key, "{other:?}·");
            }
        }
    }
    Ok(key)
}

// ------------------------------------------------------------- the cache

/// One cached parse plus its last-touch tick for LRU eviction.
struct Stamped {
    tick: u64,
    prepared: PreparedQuery,
}

#[derive(Default)]
struct Texts {
    by_text: HashMap<String, Stamped>,
    /// Monotonic touch counter; bumped on every lookup.
    tick: u64,
    /// Every lookup counts here, under the lock it already holds
    /// (`texts_len` is filled in by [`PlanCache::stats`]).
    stats: PlanCacheStats,
}

/// One shape's resource-governance record. Shapes whose queries repeatedly
/// trip the governor get quarantined: the platform can fail them fast
/// instead of burning a full deadline every time.
struct OffenseRecord {
    offenses: u32,
    /// Set once `offenses` reaches the threshold.
    quarantined: bool,
    /// The last offense plus the TTL; past it the record — quarantine
    /// included — no longer counts.
    expires: Instant,
}

/// Cache-effectiveness counters, snapshot by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Exact-text hits (no lexing, no parsing).
    pub hits_text: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Queries actually parsed.
    pub parses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Distinct query texts currently cached.
    pub texts_len: usize,
}

impl PlanCacheStats {
    /// Total cache hits.
    pub fn hits(&self) -> u64 {
        self.hits_text
    }
}

/// Parse cache: exact query text → [`PreparedQuery`]. Thread-safe; share
/// one per platform.
///
/// Bounded: an insert past capacity evicts the least-recently-used text
/// (exact LRU via per-entry touch ticks), and the eviction count is
/// exported through [`PlanCacheStats`]. The cache also tracks *poisoned
/// shapes* — query shapes whose executions keep tripping the resource
/// governor — so callers can fail repeat offenders fast instead of
/// re-burning a deadline on every arrival.
pub struct PlanCache {
    texts: Mutex<Texts>,
    max_texts: usize,
    offenders: Mutex<HashMap<String, OffenseRecord>>,
    /// Records in `offenders` with `quarantined` set, written under its
    /// lock: while it is zero admission reads this and lexes nothing.
    quarantined: AtomicUsize,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("max_texts", &self.max_texts)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(MAX_TEXTS)
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cache bounded to `max_texts` entries (clamped to at least 1).
    pub fn with_capacity(max_texts: usize) -> PlanCache {
        PlanCache {
            texts: Mutex::new(Texts::default()),
            max_texts: max_texts.max(1),
            offenders: Mutex::new(HashMap::new()),
            quarantined: AtomicUsize::new(0),
            clock: Arc::new(SystemClock),
        }
    }

    /// Replace the clock used for poison TTLs (tests inject a virtual
    /// clock so quarantine expiry is deterministic).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> PlanCache {
        self.clock = clock;
        self
    }

    /// Prepared query for `text`, parsing at most once while the text
    /// stays cached.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, SparqlError> {
        let mut guard = relock(&self.texts);
        let texts = &mut *guard;
        texts.tick += 1;
        let tick = texts.tick;
        if let Some(entry) = texts.by_text.get_mut(text) {
            entry.tick = tick;
            texts.stats.hits_text += 1;
            return Ok(entry.prepared.clone());
        }
        texts.stats.misses += 1;
        let prepared = PreparedQuery::parse(text)?;
        texts.stats.parses += 1;
        if texts.by_text.len() >= self.max_texts && evict_min(&mut texts.by_text, |e| e.tick) {
            texts.stats.evictions += 1;
        }
        texts.by_text.insert(text.to_string(), Stamped { tick, prepared: prepared.clone() });
        Ok(prepared)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let texts = relock(&self.texts);
        PlanCacheStats { texts_len: texts.by_text.len(), ..texts.stats }
    }

    // ------------------------------------------------- shape quarantine

    /// Record that a query of this text's shape tripped the resource
    /// governor. After `threshold` offenses the shape is quarantined for
    /// `ttl`; returns `true` when this call reached the threshold.
    /// Unlexable texts are never quarantined (they fail at parse anyway).
    ///
    /// A trip already cost a deadline or a budget, so this is where the
    /// table is kept bounded: records whose last offense is older than
    /// their TTL are dropped, and past `MAX_OFFENSE_RECORDS` the record
    /// soonest to expire goes — one below the threshold before any
    /// quarantined one.
    pub fn record_offense(&self, text: &str, threshold: u32, ttl: Duration) -> bool {
        let Ok(shape) = shape_of(text) else { return false };
        let now = self.clock.now();
        let mut offenders = relock(&self.offenders);
        offenders.retain(|_, record| now < record.expires);
        if !offenders.contains_key(&shape) && offenders.len() >= MAX_OFFENSE_RECORDS {
            evict_min(&mut offenders, |record| (record.quarantined, record.expires));
        }
        let record = offenders
            .entry(shape)
            .or_insert(OffenseRecord { offenses: 0, quarantined: false, expires: now });
        record.offenses = record.offenses.saturating_add(1);
        record.expires = now + ttl;
        record.quarantined = record.offenses >= threshold.max(1);
        let crossed = record.quarantined;
        self.quarantined.store(offenders.values().filter(|r| r.quarantined).count(), Relaxed);
        crossed
    }

    /// Is this text's shape currently quarantined? Expired quarantines
    /// are cleared on observation (offense count resets — the shape gets
    /// a clean slate after serving its TTL). While no shape is quarantined
    /// this is one atomic load: the text is not lexed.
    pub fn is_poisoned(&self, text: &str) -> bool {
        if self.quarantined.load(Relaxed) == 0 {
            return false;
        }
        let Ok(shape) = shape_of(text) else { return false };
        let mut offenders = relock(&self.offenders);
        let Some(record) = offenders.get(&shape).filter(|r| r.quarantined) else { return false };
        if self.clock.now() < record.expires {
            return true;
        }
        offenders.remove(&shape);
        self.quarantined.fetch_sub(1, Relaxed);
        false
    }

    /// Number of shapes with at least one recorded offense.
    pub fn poisoned_len(&self) -> usize {
        relock(&self.offenders).len()
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
        let a = cache.prepare(Q).unwrap().execute(&store).unwrap();
        let b = cache.prepare(Q).unwrap().execute(&store).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.len(), b.len());
        let stats = cache.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.hits_text, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn formatting_variant_is_another_text_with_the_same_answer() {
        let cache = PlanCache::new();
        let store = store();
        let variant = "select ?t ?n\nwhere {\n  ?t <urn:type> <urn:Table> .\n  # lookup\n  ?t <urn:name> ?n\n}";
        let a = cache.prepare(Q).unwrap().execute(&store).unwrap();
        let b = cache.prepare(variant).unwrap().execute(&store).unwrap();
        assert_eq!(a.to_terms(), b.to_terms());
        assert_eq!(cache.stats().parses, 2, "one tier: a variant parses for itself");
        assert_eq!(shape_of(Q).unwrap(), shape_of(variant).unwrap(), "but shares the shape");
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
    fn every_execution_sees_the_store_it_is_handed() {
        let cache = PlanCache::new();
        let mut store = store();
        let prepared = cache.prepare(Q).unwrap();
        assert_eq!(prepared.execute(&store).unwrap().len(), 5);
        assert_eq!(prepared.execute(&store).unwrap().len(), 5);
        let t9 = Term::iri("urn:t9");
        store.insert(&Quad::new(t9.clone(), Term::iri("urn:type"), Term::iri("urn:Table")));
        store.insert(&Quad::new(t9, Term::iri("urn:name"), Term::string("table-9")));
        assert_eq!(prepared.execute(&store).unwrap().len(), 6);
        assert_eq!(cache.stats().parses, 1);
    }

    #[test]
    fn prepared_results_match_direct_query() {
        let cache = PlanCache::new();
        let store = store();
        let direct = crate::query(&store, Q).unwrap();
        let prepared = cache.prepare(Q).unwrap().execute(&store).unwrap();
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
    fn lru_evicts_least_recently_used_text() {
        let cache = PlanCache::with_capacity(2);
        let q = |n: usize| format!("SELECT ?s{n} WHERE {{ ?s{n} <urn:p{n}> ?o{n} }}");
        cache.prepare(&q(0)).unwrap();
        cache.prepare(&q(1)).unwrap();
        // touch q0 so q1 is now the LRU text
        cache.prepare(&q(0)).unwrap();
        cache.prepare(&q(2)).unwrap();
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "over-capacity insert must evict");
        assert!(stats.texts_len <= 2);
        // q0 was kept: preparing it again is a hit, not a parse
        let parses_before = cache.stats().parses;
        cache.prepare(&q(0)).unwrap();
        assert_eq!(cache.stats().parses, parses_before, "retained entry must hit");
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let cache = PlanCache::with_capacity(4);
        for i in 0..64 {
            let text = format!("SELECT ?a WHERE {{ ?a <urn:churn{i}> ?b{i} }}");
            cache.prepare(&text).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.texts_len <= 4);
        assert!(stats.evictions >= 60);
    }

    #[test]
    fn repeat_offender_shape_is_quarantined_until_ttl() {
        use lids_exec::TestClock;
        let clock = TestClock::new();
        let cache = PlanCache::with_capacity(8).with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
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

    #[test]
    fn offense_table_is_bounded_and_keeps_the_quarantined() {
        use lids_exec::TestClock;
        let clock = TestClock::new();
        let cache = PlanCache::new().with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let ttl = Duration::from_secs(30);
        let shape = |i: usize| format!("SELECT ?v{i} WHERE {{ ?v{i} <urn:p> ?o }}");
        for i in 0..10_000 {
            if i == 5_000 {
                assert!(cache.record_offense(Q, 1, ttl));
            }
            assert!(!cache.record_offense(&shape(i), 3, ttl));
        }
        assert!(cache.poisoned_len() <= MAX_OFFENSE_RECORDS, "{}", cache.poisoned_len());
        assert!(cache.is_poisoned(Q), "a full table evicts records below the threshold first");
        assert!(!cache.is_poisoned(&shape(9_999)));
        // records older than the TTL go at the next offense, quarantined or not
        clock.advance(Duration::from_secs(31));
        assert!(!cache.record_offense(&shape(0), 3, ttl));
        assert_eq!(cache.poisoned_len(), 1);
        assert!(!cache.is_poisoned(Q), "quarantine expires after TTL");
    }
}
