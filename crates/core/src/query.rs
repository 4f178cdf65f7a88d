//! The one governed query path.
//!
//! Every SPARQL query — ad hoc, discovery, over the wire, and every explain,
//! which is a query that keeps its plan — runs through `QueryEnv::query`
//! against one [`StoreSnapshot`]: [`KgLids`] passes its own store, a
//! detached [`LidsReader`] the latest published snapshot, and both carry
//! the same environment (plan cache, [`QueryGuardrails`], metrics
//! registry), so a query text parses once and counts in the same registry
//! whichever handle ran it. A query runs once, under the limits
//! its caller set and the guardrails fill; a trip is the caller's typed
//! error and leaves nothing behind for the next query.

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
/// without callers having to thread options everywhere. A query that
/// trips either limit fails with its typed error.
#[derive(Debug, Clone, Default)]
pub struct QueryGuardrails {
    /// Default wall-clock deadline per query (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Default logical memory budget per query in bytes (`None` = unlimited).
    pub memory_budget: Option<u64>,
}

/// What a governed query needs besides the snapshot it runs on. One per
/// platform, shared by value (two `Arc` clones) with every [`LidsReader`]
/// it hands out.
#[derive(Debug, Clone)]
pub(crate) struct QueryEnv {
    /// Parse cache: a query text is parsed once while it stays cached
    /// (each execution compiles it against its own snapshot).
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

    /// Admission: an empty text is refused, then the limits are filled
    /// once. Per-call [`EvalOptions`] win, then `extra` (a discovery's or a
    /// wire request's limits) fills deadline and budget, then the
    /// [`QueryGuardrails`] fill whatever is still unset.
    ///
    /// Returns the options with those limits in place and the
    /// [`QueryLimits`] to arm, which add what options cannot carry: the
    /// extra limits' cancellation token, fault-injection checkpoint and
    /// clock.
    fn admit(
        &self,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
    ) -> LidsResult<(EvalOptions, QueryLimits)> {
        if sparql.trim().is_empty() {
            // fail typed (→ HTTP 400) before the plan cache, whose
            // tokenizer would report it as a bare parse failure
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "empty SPARQL query (no patterns to evaluate)",
            ));
        }
        let g = &self.guardrails;
        let mut limits = extra.cloned().unwrap_or_default();
        limits.deadline = options.deadline.or(limits.deadline).or(g.deadline);
        limits.memory_budget_bytes =
            options.memory_budget.or(limits.memory_budget_bytes).or(g.memory_budget);
        let options = EvalOptions {
            deadline: limits.deadline,
            memory_budget: limits.memory_budget_bytes,
            ..options
        };
        Ok((options, limits))
    }

    /// The governed query path, for answers and explains alike: admission,
    /// then one run under one armed governor. A trip is returned as its
    /// typed error (`QueryTimeout`, `QueryCancelled`,
    /// `QueryBudgetExceeded`); only an explicit [`EvalOptions::row_cap`]
    /// yields a partial answer, flagged [`Solutions::truncated`]. With
    /// `report`, the executed plan of that same run is written there.
    ///
    /// Every call counts under the `query.*` metrics: `query.count` and
    /// `query.wall_us`, the `query.ops.*` operator counts, and on failure
    /// `query.errors` plus `query.timeouts`, `query.cancelled` or
    /// `query.budget_denials` for a governor trip.
    pub(crate) fn query<'s>(
        &self,
        snapshot: &'s StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
        extra: Option<&QueryLimits>,
        report: Option<&mut ExplainReport>,
    ) -> LidsResult<Solutions<'s>> {
        let (options, limits) = self.admit(sparql, options, extra)?;
        let metrics = &self.obs.metrics;
        let start = Instant::now();
        metrics.counter_add("query.count", 1);
        let result = self.plan_cache.prepare(sparql).and_then(|prepared| {
            let stats = ExecStats::default();
            let governor = limits.arm();
            let result = prepared.execute_governed(
                snapshot,
                options,
                governor.as_ref(),
                Some(&stats),
                report,
            );
            if let Some(headroom) = governor.as_ref().and_then(|gov| gov.headroom_bytes()) {
                metrics.gauge_set("query.budget_headroom_bytes", headroom as f64);
            }
            self.record_query_obs(&stats);
            if result.as_ref().is_ok_and(|solutions| solutions.truncated) {
                metrics.counter_add("query.truncated", 1);
            }
            result
        });
        metrics.observe_duration("query.wall_us", start.elapsed());
        result.map_err(|e| {
            metrics.counter_add("query.errors", 1);
            if let SparqlError::Governed(trip) = &e {
                metrics.counter_add(
                    match trip.reason {
                        TripReason::Timeout => "query.timeouts",
                        TripReason::Cancelled => "query.cancelled",
                        TripReason::BudgetExceeded => "query.budget_denials",
                    },
                    1,
                );
            }
            LidsError::from(e)
        })
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
}

impl KgLids {
    /// A detached query handle over the LiDS graph, safe to move to
    /// other threads while a writer keeps mutating the platform's
    /// store. The handle shares the platform's query environment: a
    /// query text parses once across all readers and the platform
    /// itself, runs under the same [`QueryGuardrails`], and counts in the
    /// same `query.*` metrics.
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
    /// win, guardrails fill unset limits. A trip fails the query with its
    /// typed error; only an explicit [`EvalOptions::row_cap`] yields a
    /// partial answer, with [`DataFrame::truncated`] set.
    pub fn query_with(&self, sparql: &str, options: EvalOptions) -> LidsResult<DataFrame> {
        let solutions = self.env.query(&self.store, sparql, options, None, None)?;
        Ok(DataFrame::from_solutions(&solutions))
    }

    /// Evaluate `sparql` with per-pattern instrumentation and return the
    /// executed plan: join order, estimated vs actual rows and the join
    /// operator per triple pattern, decode counts. Explaining a query runs
    /// it: it is one [`Self::query`], admitted, governed and counted alike.
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        let mut report = ExplainReport::default();
        self.env.query(&self.store, sparql, EvalOptions::default(), None, Some(&mut report))?;
        Ok(report)
    }

    /// Ask query (governed like [`Self::query`]).
    pub fn ask(&self, sparql: &str) -> LidsResult<bool> {
        let solutions =
            self.env.query(&self.store, sparql, EvalOptions::default(), None, None)?;
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
/// [`QueryGuardrails`], and its metrics registry.
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
        self.env.query(snapshot, sparql, options, None, None)
    }

    /// Evaluate `sparql` against the latest published snapshot with
    /// per-pattern instrumentation (the reader-side [`KgLids::explain`]).
    pub fn explain(&self, sparql: &str) -> LidsResult<ExplainReport> {
        self.explain_at(&self.store.snapshot(), sparql, EvalOptions::default())
    }

    /// [`Self::explain`] against a pinned snapshot with explicit options:
    /// the run [`Self::solutions_at`] makes with the same arguments, its
    /// executed plan returned instead of its answer.
    pub fn explain_at(
        &self,
        snapshot: &StoreSnapshot,
        sparql: &str,
        options: EvalOptions,
    ) -> LidsResult<ExplainReport> {
        let mut report = ExplainReport::default();
        self.env.query(snapshot, sparql, options, None, Some(&mut report))?;
        Ok(report)
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
    /// (metrics are shared between a platform and its readers).
    fn on_both_handles(
        guardrails: QueryGuardrails,
        check: impl Fn(&dyn Fn(&str, EvalOptions) -> LidsResult<DataFrame>, &KgLids),
    ) {
        for detached in [false, true] {
            let (platform, _) = KgLidsBuilder::new()
                .with_dataset(titanic())
                .with_query_guardrails(guardrails.clone())
                .bootstrap();
            let reader = platform.reader();
            if detached {
                check(&|q, options| reader.query_with(q, options), &platform);
            } else {
                check(&|q, options| platform.query_with(q, options), &platform);
            }
        }
    }

    /// A budget trip is the caller's typed error after one run — no retry
    /// under other limits, no partial answer passed off as whole — whether
    /// the budget came with the call or from the guardrails.
    #[test]
    fn budget_trip_is_a_typed_error_after_one_run() {
        // three rows of two variables bind 36 logical bytes
        let per_call = EvalOptions { memory_budget: Some(16), ..EvalOptions::default() };
        let guardrail = QueryGuardrails { memory_budget: Some(16), ..QueryGuardrails::default() };
        for (guardrails, options) in
            [(QueryGuardrails::default(), per_call), (guardrail, EvalOptions::default())]
        {
            on_both_handles(guardrails, |query, platform| {
                let counter = |name| platform.obs().metrics.snapshot().counter(name).unwrap_or(0);
                let (count, denials) = (counter("query.count"), counter("query.budget_denials"));
                let err = query(COLUMNS_QUERY, options).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded, "{err}");
                assert_eq!(counter("query.count"), count + 1, "one call, one run");
                assert_eq!(counter("query.budget_denials"), denials + 1);
                assert_eq!(counter("query.truncated"), 0);
            });
        }
    }

    /// Explaining a query is one run of it under the caller's options: a
    /// 16-byte budget refuses it typed, the ablation arm and an explicit
    /// row cap show in the plan, and the trip and the truncation count as
    /// they would for the query.
    #[test]
    fn explain_runs_under_its_callers_options() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let reader = platform.reader();
        let snapshot = reader.snapshot();
        let counter = |name| platform.obs().metrics.snapshot().counter(name).unwrap_or(0);
        let tight = EvalOptions { memory_budget: Some(16), ..EvalOptions::default() };
        let err = reader.explain_at(&snapshot, COLUMNS_QUERY, tight).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded, "{err}");
        assert_eq!(counter("query.budget_denials"), 1);
        let textual = EvalOptions { reorder_joins: false, ..EvalOptions::default() };
        let report = reader.explain_at(&snapshot, COLUMNS_QUERY, textual).unwrap();
        assert!(!report.reorder_joins);
        assert_eq!(report.rows, 3);
        let capped = EvalOptions { row_cap: Some(1), ..EvalOptions::default() };
        let report = reader.explain_at(&snapshot, COLUMNS_QUERY, capped).unwrap();
        assert!(report.truncated && report.rows <= 1, "{report}");
        assert_eq!(counter("query.truncated"), 1);
    }

    /// An explain advances the operator counters exactly as the same query
    /// does: it is that query's run.
    #[test]
    fn explain_counts_operators_as_its_query_does() {
        let (platform, _) = KgLidsBuilder::new().with_dataset(titanic()).bootstrap();
        let ops = || {
            let metrics = platform.obs().metrics.snapshot();
            ["query.ops.merge", "query.ops.probe", "query.ops.leapfrog"]
                .map(|name| metrics.counter(name).unwrap_or(0))
        };
        let delta = |before: [u64; 3], after: [u64; 3]| [0, 1, 2].map(|i| after[i] - before[i]);
        let start = ops();
        platform.query(COLUMNS_QUERY).unwrap();
        let queried = ops();
        let report = platform.explain(COLUMNS_QUERY).unwrap();
        let by_query = delta(start, queried);
        assert!(by_query.iter().sum::<u64>() > 0, "the query joins: {by_query:?}");
        assert_eq!(delta(queried, ops()), by_query);
        assert_eq!([report.merge_joins, report.probe_joins, report.leapfrog_joins], by_query);
    }

    #[test]
    fn generous_guardrails_leave_queries_exact() {
        let (platform, _) = KgLidsBuilder::new()
            .with_dataset(titanic())
            .with_query_guardrails(QueryGuardrails {
                deadline: Some(Duration::from_secs(60)),
                memory_budget: Some(256 << 20),
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
