//! Query-governance chaos suite: run seeded adversarial SPARQL workloads
//! (cross-product stars, unbound-everything scans, deep OPTIONAL towers)
//! against a governed platform and assert the robustness contract:
//!
//! - every adversarial query terminates within its deadline with a typed
//!   resource error — never a panic, abort, hang, or a partial answer
//!   passed off as whole;
//! - the store and plan cache are left untouched (read path has no
//!   side effects on data);
//! - a concurrent stream of well-behaved queries completes with exact
//!   results while the adversarial load runs;
//! - `explain` runs the query it explains, so it is held to the same
//!   contract, in process and over the socket;
//! - (proptest) cancelling at a random governor checkpoint is safe: the
//!   interrupted query either errors `QueryCancelled` or completes, and a
//!   re-run without the governor reproduces the ungoverned baseline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kglids_repro::datagen::{AdversarialSuite, LakeSpec};
use kglids_repro::exec::{ErrorKind, LidsError, QueryLimits, TripReason};
use kglids_repro::kglids::{KgLids, KgLidsBuilder, QueryGuardrails};
use kglids_repro::profiler::table::Dataset;
use kglids_repro::rdf::{QuadStore, Term};
use kglids_repro::sparql::{EvalOptions, PlanCache, SparqlError};
use lids_server::{Backend, Client, ClientError, ErrorResponse, LidsServer, ServerConfig};
use proptest::prelude::*;

const SEED: u64 = 41;
/// Wall-clock ceiling per adversarial query: guardrail deadline (250ms)
/// plus generous slack for checkpoint granularity and CI jitter. This
/// guards against *hangs*, not latency — on a loaded 1-core container
/// the worst adversarial shape has been observed needing >10s of wall
/// time to reach its next checkpoint, so the ceiling is generous.
const HARD_WALL: Duration = Duration::from_secs(60);

fn governed_platform() -> KgLids {
    let lake = LakeSpec::tus_small().scaled(0.15).generate();
    let (platform, _) = KgLidsBuilder::new()
        .with_dataset(Dataset::new(lake.name.clone(), lake.tables))
        .with_query_guardrails(QueryGuardrails {
            deadline: Some(Duration::from_millis(250)),
            memory_budget: Some(1 << 20),
        })
        .bootstrap();
    platform
}

fn is_governed_kind(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::QueryTimeout | ErrorKind::QueryCancelled | ErrorKind::QueryBudgetExceeded
    )
}

#[test]
fn adversarial_queries_terminate_with_typed_errors() {
    let platform = governed_platform();
    let gen_before = platform.store().generation();
    let len_before = platform.store().len();

    let queries = AdversarialSuite::new(SEED).generate(9);
    for q in &queries {
        let start = Instant::now();
        let result = platform.query(&q.text);
        let elapsed = start.elapsed();
        assert!(
            elapsed < HARD_WALL,
            "{} ran {elapsed:?}, past the hard wall",
            q.name
        );
        // a full answer would be astronomically large for these shapes,
        // and nothing retries a trip under other limits: every one of
        // them stops at the guardrails with a typed error
        match result {
            Ok(df) => panic!("{} ran ungoverned: {} rows", q.name, df.len()),
            Err(e) => assert!(
                is_governed_kind(e.kind()),
                "{} failed with untyped error: {e}",
                q.name
            ),
        }
    }

    // the read path must not have mutated the store
    assert_eq!(platform.store().generation(), gen_before);
    assert_eq!(platform.store().len(), len_before);

    // governance was exercised and exported through obs
    let metrics = platform.obs().metrics.snapshot();
    let trips = metrics.counter("query.timeouts").unwrap_or(0)
        + metrics.counter("query.budget_denials").unwrap_or(0)
        + metrics.counter("query.cancelled").unwrap_or(0);
    assert_eq!(trips, queries.len() as u64, "every trip is counted");
    assert_eq!(metrics.counter("query.count"), Some(queries.len() as u64), "one run each");

    // the platform still answers well-behaved queries exactly afterwards
    let benign = platform
        .query(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT (COUNT(?t) AS ?n) WHERE { ?t a k:Table . }",
        )
        .expect("benign query after chaos");
    assert!(!benign.truncated);
    assert!(benign.get_f64(0, "n").unwrap_or(0.0) > 10.0);
}

/// Explaining a query runs it: every hostile query through `explain` — the
/// platform's and a detached reader's by turns, one path behind both — stops
/// at the guardrails with a typed error, and the trips count where
/// `query`'s do.
#[test]
fn explain_of_adversarial_queries_terminates_typed_in_process() {
    let platform = governed_platform();
    let reader = platform.reader();
    let gen_before = platform.store().generation();
    let queries = AdversarialSuite::new(SEED).generate(9);
    for (i, q) in queries.iter().enumerate() {
        let start = Instant::now();
        let result = if i % 2 == 0 { platform.explain(&q.text) } else { reader.explain(&q.text) };
        let elapsed = start.elapsed();
        assert!(elapsed < HARD_WALL, "explain of {} ran {elapsed:?}", q.name);
        match result {
            Ok(report) => panic!("explain of {} ran ungoverned: {} rows", q.name, report.rows),
            Err(e) => assert!(
                is_governed_kind(e.kind()),
                "explain of {} failed with untyped error: {e}",
                q.name
            ),
        }
    }
    assert_eq!(platform.store().generation(), gen_before);
    let metrics = platform.obs().metrics.snapshot();
    let trips = metrics.counter("query.timeouts").unwrap_or(0)
        + metrics.counter("query.budget_denials").unwrap_or(0);
    assert_eq!(trips, queries.len() as u64, "every explain trip is counted");
}

/// The same over the socket: `POST /v1/explain` answers every hostile
/// query, offence after offence, with the typed 503 that `/v1/query`
/// answers it with, and a trip leaves nothing behind that would turn the
/// next request's answer into something else.
#[test]
fn explain_of_adversarial_queries_terminates_typed_over_the_socket() {
    let platform = Arc::new(governed_platform());
    let server = LidsServer::start(
        Backend::Platform(Arc::clone(&platform)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server binds an ephemeral port");
    let mut client = Client::connect(server.addr().to_string());
    fn refusal<T>(result: Result<T, ClientError>, what: &str) -> ErrorResponse {
        match result.map(|_| ()) {
            Err(ClientError::Api(e)) => e,
            other => panic!("{what}: expected a typed API error, got {other:?}"),
        }
    }

    let queries = AdversarialSuite::new(SEED).generate(9);
    for q in &queries {
        for offence in 1..=2 {
            let start = Instant::now();
            let by_explain = refusal(client.explain(&q.text), &q.name);
            let by_query = refusal(client.query(&q.text, None), &q.name);
            assert!(start.elapsed() < 2 * HARD_WALL, "{} ran {:?}", q.name, start.elapsed());
            // which guardrail trips first is a race between the deadline
            // and the budget, and explain's instrumented run is the slower
            // one, so the two may name different limits
            for e in [&by_explain, &by_query] {
                assert_eq!(e.status, 503, "{} offence {offence}: {e:?}", q.name);
                assert!(
                    matches!(e.error.as_str(), "QueryTimeout" | "QueryBudgetExceeded"),
                    "{} offence {offence}: {e:?}",
                    q.name
                );
            }
        }
    }
    client.healthz().expect("the connection survived every refusal");
    let metrics = platform.obs().metrics.snapshot();
    let trips = metrics.counter("query.timeouts").unwrap_or(0)
        + metrics.counter("query.budget_denials").unwrap_or(0);
    assert_eq!(trips, 4 * queries.len() as u64, "every request ran and tripped");
}

#[test]
fn concurrent_benign_stream_is_unaffected_by_adversarial_load() {
    let platform = governed_platform();
    let benign_q = "PREFIX k: <http://kglids.org/ontology/> \
                    SELECT (COUNT(?t) AS ?n) WHERE { ?t a k:Table . }";
    let expected = platform
        .query(benign_q)
        .expect("benign baseline")
        .get_f64(0, "n")
        .expect("count column");

    std::thread::scope(|scope| {
        let adversary = scope.spawn(|| {
            let queries = AdversarialSuite::new(SEED + 1).generate(6);
            for q in &queries {
                // a typed error is the expected outcome; a panic here
                // fails the test via the join below
                let _ = platform.query(&q.text);
            }
        });
        for _ in 0..20 {
            let start = Instant::now();
            let df = platform.query(benign_q).expect("benign stream query");
            // starvation bound: a ~ms query must stay interactive even
            // while the adversarial stream burns its budgets next door
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "benign query starved under adversarial load ({:?})",
                start.elapsed()
            );
            assert!(!df.truncated, "well-behaved query answered in part");
            assert_eq!(df.get_f64(0, "n"), Some(expected));
        }
        adversary.join().expect("adversarial thread panicked");
    });
}

/// Small dense store for the proptest: adversarial shapes stay tractable
/// ungoverned (the baseline run must finish) while still crossing many
/// governor checkpoints.
fn proptest_store() -> QuadStore {
    let mut store = QuadStore::new();
    for (s, p, o) in AdversarialSuite::new(SEED).dense_triples(3, 1) {
        store.insert_triple(Term::iri(&s), Term::iri(&p), Term::iri(&o));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: cancellation safety. Interrupting a query at the Nth
    /// governor checkpoint (fault injection via `cancel_after_checks`)
    /// must yield either a typed `Cancelled` error or — when N exceeds
    /// the query's checkpoint count — the exact result; afterwards the
    /// store generation and plan cache are consistent and a governor-free
    /// re-run reproduces the ungoverned baseline bit for bit.
    #[test]
    fn random_checkpoint_interrupt_is_safe(n in 1u64..64, pick in 0usize..9) {
        let store = proptest_store();
        let gen_before = store.generation();
        let cache = PlanCache::with_capacity(8);

        let queries = AdversarialSuite::new(SEED + 2).generate(9);
        let text = &queries[pick].text;
        let prepared = cache.prepare(text).expect("adversarial query parses");
        let baseline = prepared
            .execute(&store)
            .expect("ungoverned baseline terminates on the small store");

        let limits = QueryLimits { cancel_after_checks: Some(n), ..QueryLimits::default() };
        let governor = limits.arm().expect("fault injection arms the governor");
        let governed =
            prepared.execute_governed(&store, EvalOptions::default(), Some(&governor), None);
        match governed {
            Err(SparqlError::Governed(trip)) => {
                prop_assert_eq!(trip.reason, TripReason::Cancelled);
                let typed: LidsError = SparqlError::Governed(trip).into();
                prop_assert_eq!(typed.kind(), ErrorKind::QueryCancelled);
            }
            Err(other) => prop_assert!(false, "untyped failure: {}", other),
            Ok(s) => {
                // interrupt landed after the last checkpoint: exact result
                prop_assert_eq!(&s.columns, &baseline.columns);
                prop_assert_eq!(s.rows.len(), baseline.rows.len());
                prop_assert!(!s.truncated);
            }
        }

        // no side effects on the store or the cache's integrity
        prop_assert_eq!(store.generation(), gen_before);
        let stats = cache.stats();
        prop_assert!(stats.texts_len <= 8);

        // a clean re-run through the same cached plan is still exact
        let rerun = prepared.execute(&store).expect("re-run after interrupt");
        prop_assert_eq!(rerun.rows.len(), baseline.rows.len());
        prop_assert_eq!(rerun.rows, baseline.rows);
    }
}
