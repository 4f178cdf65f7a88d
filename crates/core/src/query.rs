//! The one governed query path.
//!
//! Every SPARQL query — ad hoc, discovery, over the wire — runs through
//! `QueryEnv::query` against one [`StoreSnapshot`]: [`KgLids`] passes its
//! own store, a detached [`LidsReader`] the latest published snapshot, and
//! both carry the same environment (plan cache, [`QueryGuardrails`],
//! metrics registry), so a query text parses once, trips the same
//! quarantine and counts in the same registry whichever handle ran it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lids_exec::{ErrorKind, LidsError, LidsResult, QueryLimits, TripReason};
use lids_kg::schema::SchemaConfig;
use lids_obs::Obs;
use lids_rdf::{QuadStore, StoreReader, StoreSnapshot};
use lids_sparql::{
    EvalOptions, ExecStats, ExplainReport, PlanCache, PlanCacheStats, Solutions, SparqlError,
};

use crate::dataframe::DataFrame;
use crate::platform::KgLids;

/// Platform-wide resource-governance defaults for the query path.
///
/// Per-call [`EvalOptions`] win when set; these fill the gaps so every
/// ad-hoc and discovery query runs under the same deadline/budget policy
/// without callers having to thread options everywhere. Shapes that keep
/// tripping the governor are quarantined in the plan cache and fail fast
/// (typed `QueryBudgetExceeded`) until their TTL expires.
#[derive(Debug, Clone)]
pub struct QueryGuardrails {
    /// Default wall-clock deadline per query (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Default logical memory budget per query in bytes (`None` = unlimited).
    pub memory_budget: Option<u64>,
    /// Row cap applied when a budget trip degrades a query: the retry runs
    /// the same executor with this cap in place of the byte budget, and the
    /// partial result is marked truncated.
    pub degraded_row_cap: usize,
    /// Governor trips of the same query shape before it is quarantined.
    pub poison_threshold: u32,
    /// How long a quarantined shape keeps failing fast.
    pub poison_ttl: Duration,
}

impl Default for QueryGuardrails {
    fn default() -> Self {
        QueryGuardrails {
            deadline: None,
            memory_budget: None,
            degraded_row_cap: 100_000,
            poison_threshold: 3,
            poison_ttl: Duration::from_secs(60),
        }
    }
}

/// What a governed query needs besides the snapshot it runs on. One per
/// platform, shared by value (two `Arc` clones) with every [`LidsReader`]
/// it hands out.
#[derive(Debug, Clone)]
pub(crate) struct QueryEnv {
    /// Parse cache: a query text is parsed once while it stays cached
    /// (each execution compiles it against its own snapshot). Also holds
    /// the shape quarantine.
    pub(crate) plan_cache: Arc<PlanCache>,
    pub(crate) guardrails: QueryGuardrails,
    pub(crate) obs: Arc<Obs>,
    /// The `α` and `θ` the lake is linked under: discovery ranks an edge
    /// by how far its score clears them.
    pub(crate) alpha: f64,
    pub(crate) theta: f64,
}

impl QueryEnv {
    pub(crate) fn new(guardrails: QueryGuardrails, schema: &SchemaConfig) -> Self {
        QueryEnv {
            plan_cache: Arc::new(PlanCache::new()),
            guardrails,
            obs: Arc::new(Obs::new()),
            alpha: schema.alpha as f64,
            theta: schema.theta as f64,
        }
    }

    /// Admission, the same for [`Self::query`] and [`Self::explain`]: a
    /// quarantined shape fails fast (the text is lexed into its shape only
    /// while some shape is quarantined), everything else gets its limits.
    ///
    /// Limit precedence: per-call [`EvalOptions`] win, then `extra` fills
    /// deadline/budget, then the [`QueryGuardrails`] fill whatever is
    /// still unset.
    fn admit(
        &self,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
    ) -> LidsResult<EvalOptions> {
        non_empty(sparql)?;
        if self.plan_cache.is_poisoned(sparql) {
            self.obs.metrics.counter_add("query.quarantine_denials", 1);
            return Err(LidsError::new(
                ErrorKind::QueryBudgetExceeded,
                "query shape quarantined after repeated resource-limit violations",
            ));
        }
        let g = &self.guardrails;
        let mut effective = options;
        effective.deadline =
            effective.deadline.or(extra.and_then(|e| e.deadline)).or(g.deadline);
        effective.memory_budget = effective
            .memory_budget
            .or(extra.and_then(|e| e.memory_budget_bytes))
            .or(g.memory_budget);
        Ok(effective)
    }

    /// Count a governor trip under `query.*` and hold it against the
    /// query's shape, which is quarantined once it has tripped too often.
    fn record_trip(&self, sparql: &str, reason: TripReason) {
        let g = &self.guardrails;
        let metrics = &self.obs.metrics;
        match reason {
            TripReason::Timeout => metrics.counter_add("query.timeouts", 1),
            TripReason::Cancelled => metrics.counter_add("query.cancelled", 1),
            TripReason::BudgetExceeded => metrics.counter_add("query.budget_denials", 1),
        }
        if self.plan_cache.record_offense(sparql, g.poison_threshold, g.poison_ttl) {
            metrics.counter_add("query.shapes_poisoned", 1);
        }
    }

    /// The governed query path: quarantine fail-fast → governed execution
    /// → graceful degradation on budget pressure, with `query.*`
    /// governance counters throughout.
    ///
    /// Limits are filled as [`Self::admit`] describes. The extra limits
    /// also contribute cancellation (token, fault-injection checkpoint,
    /// clock) to the armed governor, which plain `EvalOptions` cannot carry.
    pub(crate) fn query<'s>(
        &self,
        snapshot: &'s StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
    ) -> LidsResult<Solutions<'s>> {
        let effective = self.admit(sparql, options, extra)?;
        let metrics = &self.obs.metrics;
        self.timed(|| {
            let prepared = self.plan_cache.prepare(sparql)?;
            let stats = ExecStats::default();
            let governor = merged_limits(&effective, extra).arm();
            let mut result =
                prepared.execute_governed(snapshot, effective, governor.as_ref(), Some(&stats));
            if let Some(headroom) = governor.as_ref().and_then(|gov| gov.headroom_bytes()) {
                metrics.gauge_set("query.budget_headroom_bytes", headroom as f64);
            }
            if let Err(SparqlError::Governed(trip)) = &result {
                self.record_trip(sparql, trip.reason);
                // graceful degradation: budget pressure → the same
                // executor once more, with a row cap in place of the byte
                // budget as the memory bound (operators stop producing at
                // the cap; the deadline still applies); partial results
                // beat no results
                if trip.reason == TripReason::BudgetExceeded {
                    metrics.counter_add("query.degraded", 1);
                    let row_cap = effective.row_cap.unwrap_or(self.guardrails.degraded_row_cap);
                    let degraded =
                        EvalOptions { memory_budget: None, row_cap: Some(row_cap), ..effective };
                    let governor = merged_limits(&degraded, extra).arm();
                    result = prepared.execute_governed(
                        snapshot,
                        degraded,
                        governor.as_ref(),
                        Some(&stats),
                    );
                }
            }
            self.record_query_obs(&stats);
            if result.as_ref().is_ok_and(|solutions| solutions.truncated) {
                metrics.counter_add("query.truncated", 1);
            }
            result
        })
    }

    /// Evaluate `sparql` with per-pattern instrumentation and return the
    /// executed plan. Explaining a query runs it, so it is admitted and
    /// governed as [`Self::query`] is — quarantine, guardrail deadline and
    /// budget, trip accounting — short of the degraded retry: a plan of a
    /// different run would explain nothing.
    pub(crate) fn explain(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
    ) -> LidsResult<ExplainReport> {
        let effective = self.admit(sparql, EvalOptions::default(), None)?;
        let (_, report) = self.timed(|| {
            let result = self.plan_cache.prepare(sparql)?.execute_explained(snapshot, effective);
            if let Err(SparqlError::Governed(trip)) = &result {
                self.record_trip(sparql, trip.reason);
            }
            result
        })?;
        Ok(report)
    }

    /// Fold per-query operator counts and the current plan-cache
    /// counters into the obs registry: `query.ops.*` counters accumulate
    /// operator executions, `sparql.plan_cache.*` gauges carry the
    /// cache's monotonic totals.
    fn record_query_obs(&self, stats: &ExecStats) {
        let metrics = &self.obs.metrics;
        metrics.counter_add("query.ops.merge", stats.merge_joins());
        metrics.counter_add("query.ops.probe", stats.probe_joins());
        metrics.counter_add("query.ops.leapfrog", stats.leapfrog_joins());
        let cache = self.plan_cache.stats();
        metrics.gauge_set("sparql.plan_cache.hits", cache.hits() as f64);
        metrics.gauge_set("sparql.plan_cache.misses", cache.misses as f64);
        metrics.gauge_set("sparql.plan_cache.parses", cache.parses as f64);
        metrics.gauge_set("sparql.plan_cache.evictions", cache.evictions as f64);
        metrics.gauge_set("sparql.plan_cache.texts", cache.texts_len as f64);
    }

    /// Run a query closure under the `query.*` metrics: every call counts
    /// and records wall time; failures also bump `query.errors`.
    fn timed<T>(&self, run: impl FnOnce() -> Result<T, SparqlError>) -> LidsResult<T> {
        let metrics = &self.obs.metrics;
        let start = Instant::now();
        metrics.counter_add("query.count", 1);
        let result = run();
        metrics.observe_duration("query.wall_us", start.elapsed());
        result.map_err(|e| {
            metrics.counter_add("query.errors", 1);
            LidsError::from(e)
        })
    }
}

/// An empty query can never be meant: fail typed (→ HTTP 400) before
/// touching the plan cache, whose tokenizer would otherwise report it as
/// a bare parse failure.
fn non_empty(sparql: &str) -> LidsResult<()> {
    if sparql.trim().is_empty() {
        return Err(LidsError::new(
            ErrorKind::InvalidArgument,
            "empty SPARQL query (no patterns to evaluate)",
        ));
    }
    Ok(())
}

/// The [`QueryLimits`] to arm for one governed execution: deadline and
/// budget come from the (already-merged) [`EvalOptions`]; the extra limits
/// contribute what options cannot carry — the cancellation token, the
/// fault-injection checkpoint, and the clock.
fn merged_limits(options: &EvalOptions, extra: Option<&QueryLimits>) -> QueryLimits {
    let mut limits = options.limits();
    if let Some(extra) = extra {
        limits.cancel = extra.cancel.clone();
        limits.cancel_after_checks = extra.cancel_after_checks;
        limits.clock = extra.clock.clone();
    }
    limits
}

impl KgLids {
    /// A detached query handle over the LiDS graph, safe to move to
    /// other threads while a writer keeps mutating the platform's
    /// store. The handle shares the platform's query environment: a
    /// query text parses once across all readers and the platform
    /// itself, runs under the same [`QueryGuardrails`] and shape
    /// quarantine, and counts in the same `query.*` metrics.
    ///
    /// Use this when one thread owns the `KgLids` mutably (live
    /// ingest); for a read-only platform, sharing `Arc<KgLids>` across
    /// threads and calling [`KgLids::query`] directly works too.
    pub fn reader(&self) -> LidsReader {
        LidsReader { store: self.store.reader(), env: self.env.clone() }
    }

    /// Ad-hoc SPARQL query returning a [`DataFrame`] (§5, Ad-hoc Queries).
    /// Failures surface as the platform-wide [`LidsError`] taxonomy
    /// (`ErrorKind::SparqlError`).
    pub fn query(&self, sparql: &str) -> LidsResult<DataFrame> {
        self.query_with(sparql, EvalOptions::default())
    }

    /// [`Self::query`] with explicit evaluation options, e.g.
    /// `EvalOptions { deadline: Some(..), memory_budget: Some(..), ..EvalOptions::default() }`.
    ///
    /// Runs under the platform's [`QueryGuardrails`]: per-call options
    /// win, guardrails fill unset limits. On a budget trip the query is
    /// retried once under a row cap instead of the byte budget and the
    /// partial result is surfaced with [`DataFrame::truncated`] set;
    /// shapes that keep tripping are quarantined and fail fast.
    pub fn query_with(&self, sparql: &str, options: EvalOptions) -> LidsResult<DataFrame> {
        let solutions = self.env.query(&self.store, sparql, options, None)?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// Evaluate `sparql` with per-pattern instrumentation and return the
    /// executed plan: join order, estimated vs actual rows and the join
    /// operator per triple pattern, decode counts. Governed like
    /// [`Self::query`] (explaining a query runs it), without the degraded
    /// retry.
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        self.env.explain(&self.store, sparql)
    }

    /// Ask query (governed like [`Self::query`]).
    pub fn ask(&self, sparql: &str) -> LidsResult<bool> {
        let solutions = self.env.query(&self.store, sparql, EvalOptions::default(), None)?;
        Ok(solutions.ask.unwrap_or(false))
    }

    /// Parse-cache counters (hits, misses, parses, evictions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.env.plan_cache.stats()
    }

    /// Run one of the platform's own insight queries. These are
    /// compile-time constants (modulo IRI interpolation), so a parse error
    /// is a platform bug, not an input error.
    #[allow(clippy::expect_used)]
    pub(crate) fn internal_query(&self, sparql: &str) -> DataFrame {
        self.query(sparql).expect("well-formed internal query")
    }
}

/// A detached, thread-safe query handle over the LiDS graph.
///
/// Obtained from [`KgLids::reader`]. Each call to [`Self::snapshot`]
/// observes the store's latest *published* state — the store publishes
/// after every committed mutation, so a reader sees whole batches or
/// nothing, never a torn intermediate. Queries run through the platform's
/// own governed path and environment: the shared [`PlanCache`] (a query
/// text parses once across every reader and the platform itself), its
/// [`QueryGuardrails`] and shape quarantine, and its metrics registry.
///
/// The handle is `Clone + Send + Sync`: clone it once per serving
/// thread.
#[derive(Debug, Clone)]
pub struct LidsReader {
    pub(crate) store: StoreReader,
    pub(crate) env: QueryEnv,
}

impl LidsReader {
    /// A reader over a bare [`QuadStore`] (no platform), with a query
    /// environment of its own at default settings. For serving a store
    /// that is being written by a non-platform writer — benches, tests,
    /// replication receivers.
    pub fn for_store(store: &QuadStore) -> LidsReader {
        LidsReader {
            store: store.reader(),
            env: QueryEnv::new(QueryGuardrails::default(), &SchemaConfig::default()),
        }
    }

    /// The latest published store snapshot: O(1), no index copy.
    ///
    /// Hold the returned `Arc` to pin a consistent view across several
    /// queries; call again to observe newer writes.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.store.snapshot()
    }

    /// Ad-hoc SPARQL query against the latest published snapshot.
    pub fn query(&self, sparql: &str) -> LidsResult<DataFrame> {
        self.query_with(sparql, EvalOptions::default())
    }

    /// [`Self::query`] with explicit evaluation options.
    pub fn query_with(&self, sparql: &str, options: EvalOptions) -> LidsResult<DataFrame> {
        self.query_at(&self.store.snapshot(), sparql, options)
    }

    /// Run `sparql` against a pinned snapshot (from [`Self::snapshot`]).
    /// The query runs to completion on that consistent view even while
    /// the writer publishes newer generations.
    pub fn query_at(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
    ) -> LidsResult<DataFrame> {
        let solutions = self.solutions_at(snapshot, sparql, options)?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// [`Self::query_at`] without the [`DataFrame`]: the answer as the
    /// executor left it, ids over `snapshot`'s dictionary, for a caller that
    /// writes cells somewhere itself (the server's response body).
    pub fn solutions_at<'s>(
        &self,
        snapshot: &'s StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
    ) -> LidsResult<Solutions<'s>> {
        self.env.query(snapshot, sparql, options, None)
    }

    /// Evaluate `sparql` against the latest published snapshot with
    /// per-pattern instrumentation (the reader-side [`KgLids::explain`]).
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        self.explain_at(&self.store.snapshot(), sparql)
    }

    /// [`Self::explain`] against a pinned snapshot.
    pub fn explain_at(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
    ) -> LidsResult<ExplainReport> {
        self.env.explain(snapshot, sparql)
    }

    /// Shared parse-cache counters (hits, misses, parses, evictions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.env.plan_cache.stats()
    }

    /// The observability handle this reader's queries count in — the
    /// platform's own when the reader came from [`KgLids::reader`].
    pub fn obs(&self) -> &Obs {
        &self.env.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::tests::{script, titanic};
    use crate::platform::KgLidsBuilder;

    #[test]
    fn adhoc_sparql_works() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_pipelines([script()])
            .bootstrap();
        let df = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?t WHERE { ?t a k:Table . }",
            )
            .unwrap();
        assert_eq!(df.len(), 1);
        assert!(df.get(0, "t").unwrap().contains("titanic/train"));
        assert!(platform
            .ask("PREFIX k: <http://kglids.org/ontology/> ASK { ?p a k:Pipeline . }")
            .unwrap());
    }

    #[test]
    fn query_errors_are_lids_errors_and_counted() {
        let platform = KgLids::empty();
        let err = platform.query("SELECT broken {{{").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::SparqlError);
        let metrics = platform.obs().metrics.snapshot();
        assert_eq!(metrics.counter("query.errors"), Some(1));
    }

    #[test]
    fn query_with_and_explain() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let q = "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }";
        let opts = EvalOptions { reorder_joins: false, ..EvalOptions::default() };
        let df = platform.query_with(q, opts).unwrap();
        assert_eq!(df.len(), 3);
        let report = platform.explain(q).unwrap();
        assert_eq!(report.rows, 3);
        assert_eq!(report.patterns.len(), 2);
        assert!(report.patterns.iter().all(|p| p.satisfiable && p.order.is_some()));
    }

    #[test]
    fn deadline_guardrail_times_out_queries() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::ZERO),
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let err = platform.query(COLUMNS_QUERY).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        // explaining a query runs it: same guardrail, same refusal
        let err = platform.explain(COLUMNS_QUERY).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        let metrics = platform.obs().metrics.snapshot();
        assert_eq!(metrics.counter("query.timeouts"), Some(2));
        assert!(metrics.counter("query.errors").unwrap_or(0) >= 2);
    }

    const COLUMNS_QUERY: &str = "PREFIX k: <http://kglids.org/ontology/> \
                                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }";

    /// Run `check` over both handles of the one query path — the platform
    /// itself, then a detached reader — each on a platform of its own
    /// (quarantine state and metrics are shared between a platform and its
    /// readers).
    fn on_both_handles(
        guardrails: QueryGuardrails,
        check: impl Fn(&dyn Fn(&str) -> LidsResult<DataFrame>, &KgLids),
    ) {
        for detached in [false, true] {
            let (platform, _) = KgLidsBuilder::new()
                .with_dataset(titanic())
                .with_query_guardrails(guardrails.clone())
                .bootstrap();
            let reader = platform.reader();
            if detached {
                check(&|q| reader.query(q), &platform);
            } else {
                check(&|q| platform.query(q), &platform);
            }
        }
    }

    #[test]
    fn budget_trip_degrades_to_truncated_partial_result() {
        // three rows of two variables bind 36 logical bytes
        let guardrails = QueryGuardrails {
            memory_budget: Some(16),
            degraded_row_cap: 1,
            ..QueryGuardrails::default()
        };
        on_both_handles(guardrails, |query, platform| {
            let df = query(COLUMNS_QUERY).unwrap();
            assert!(df.truncated, "degraded result must be marked truncated");
            assert!(df.len() <= 1, "degraded result must respect the row cap");
            let metrics = platform.obs().metrics.snapshot();
            assert!(metrics.counter("query.budget_denials").unwrap_or(0) >= 1);
            assert!(metrics.counter("query.degraded").unwrap_or(0) >= 1);
            assert!(metrics.counter("query.truncated").unwrap_or(0) >= 1);
        });
    }

    #[test]
    fn repeat_offender_shapes_fail_fast() {
        let guardrails = QueryGuardrails {
            deadline: Some(Duration::ZERO),
            poison_threshold: 2,
            poison_ttl: Duration::from_secs(3600),
            ..QueryGuardrails::default()
        };
        on_both_handles(guardrails, |query, platform| {
            assert_eq!(query(COLUMNS_QUERY).unwrap_err().kind(), ErrorKind::QueryTimeout);
            assert_eq!(query(COLUMNS_QUERY).unwrap_err().kind(), ErrorKind::QueryTimeout);
            // two trips crossed the threshold: the shape now fails fast
            let err = query(COLUMNS_QUERY).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded);
            assert!(err.to_string().contains("quarantined"), "err: {err}");
            let metrics = platform.obs().metrics.snapshot();
            assert!(metrics.counter("query.shapes_poisoned").unwrap_or(0) >= 1);
            assert!(metrics.counter("query.quarantine_denials").unwrap_or(0) >= 1);
            // a different, well-behaved shape still runs normally
            // (deadline 0 still times it out, but NOT as a quarantine)
            let err = query(
                "PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }",
            )
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        });
    }

    #[test]
    fn generous_guardrails_leave_queries_exact() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::from_secs(60)),
                memory_budget: Some(256 << 20),
                ..QueryGuardrails::default()
            })
            .bootstrap();
        let df = platform
            .query(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }",
            )
            .unwrap();
        assert_eq!(df.len(), 3);
        assert!(!df.truncated);
        let metrics = platform.obs().metrics.snapshot();
        assert_eq!(metrics.counter("query.degraded").unwrap_or(0), 0);
        // headroom gauge was exported for the governed run
        assert!(metrics.gauge("query.budget_headroom_bytes").is_some());
    }

    #[test]
    fn platform_and_reader_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KgLids>();
        assert_send_sync::<LidsReader>();
        assert_send_sync::<Arc<KgLids>>();
    }

    #[test]
    fn shared_platform_queries_from_many_threads() {
        let platform = Arc::new(KgLids::empty());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&platform);
                std::thread::spawn(move || {
                    let df = p
                        .query(
                            "PREFIX k: <http://kglids.org/ontology/> \
                             SELECT ?t WHERE { ?t a k:Table . }",
                        )
                        .unwrap();
                    df.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0);
        }
        // all four queries hit the same cache: one parse, three text hits
        let stats = platform.plan_cache_stats();
        assert_eq!(stats.parses, 1);
    }

    #[test]
    fn reader_sees_writes_published_after_acquisition() {
        use lids_rdf::{Quad, Term};
        let mut platform = KgLids::empty();
        let reader = platform.reader();
        let before = reader.snapshot().len();
        platform.store.insert(&Quad::new(
            Term::iri("urn:ex:s"),
            Term::iri("urn:ex:p"),
            Term::iri("urn:ex:o"),
        ));
        // a fresh snapshot observes the committed write...
        assert_eq!(reader.snapshot().len(), before + 1);
        let df = reader
            .query("SELECT ?o WHERE { <urn:ex:s> <urn:ex:p> ?o . }")
            .unwrap();
        assert_eq!(df.len(), 1);
        // ...while a snapshot pinned before the write stays frozen
        let pinned = reader.snapshot();
        platform.store.insert(&Quad::new(
            Term::iri("urn:ex:s2"),
            Term::iri("urn:ex:p"),
            Term::iri("urn:ex:o"),
        ));
        assert_eq!(pinned.len(), before + 1);
        assert_eq!(reader.snapshot().len(), before + 2);
    }
}
