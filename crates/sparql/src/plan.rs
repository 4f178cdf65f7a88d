//! Prepared queries and the parse cache.
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

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use lids_exec::QueryGovernor;
use lids_rdf::StoreSnapshot;

use crate::ast::Query;
use crate::eval::{evaluate_explained, evaluate_governed, EvalOptions, ExecStats};
use crate::explain::ExplainReport;
use crate::parser::parse_query;
use crate::results::{Solutions, SparqlError};

/// Default maximum distinct query texts kept (LRU-evicted beyond this).
const MAX_TEXTS: usize = 512;

/// Recover a mutex guard even if a panicking holder poisoned it — the
/// caches hold plain data, so the worst a mid-panic writer leaves behind
/// is a stale-but-consistent entry.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
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
/// exported through [`PlanCacheStats`].
pub struct PlanCache {
    texts: Mutex<Texts>,
    max_texts: usize,
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
        }
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
        if texts.by_text.len() >= self.max_texts {
            // An O(len) scan for the least recently used text: the map is
            // capped and this runs only on an insert past the cap.
            let lru = texts.by_text.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k.clone());
            if lru.is_some_and(|key| texts.by_text.remove(&key).is_some()) {
                texts.stats.evictions += 1;
            }
        }
        texts.by_text.insert(text.to_string(), Stamped { tick, prepared: prepared.clone() });
        Ok(prepared)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let texts = relock(&self.texts);
        PlanCacheStats { texts_len: texts.by_text.len(), ..texts.stats }
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
}
