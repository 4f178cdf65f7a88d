//! End-to-end tests for `lids-server`: a real socket on an ephemeral
//! port, the typed blocking client, and the platform underneath.
//!
//! The contract under test, per endpoint family:
//! - answers over HTTP are *identical* to the in-process API on the same
//!   store (parity);
//! - every failure is a typed JSON error with the platform's own
//!   `ErrorKind` name and the right 4xx/5xx status — malformed bytes,
//!   oversized bodies, bad SPARQL, and mid-shutdown requests never hang
//!   a connection;
//! - under a live writer, clients observe whole ingest batches or
//!   nothing (snapshot isolation over the wire).

use kglids::{DeltaBatch, KgLids, KgLidsBuilder};
use lids_profiler::table::{Column, Dataset, Table};
use lids_rdf::{Quad, QuadStore, Term};
use lids_server::{
    Backend, Client, ClientError, LidsServer, PathsRequest, SearchRequest, ServerConfig,
    TableHitsRequest, API_VERSION,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Three tables: patients/people share `age`, people/trips share `city`
/// — the same shape the in-process discovery tests use, so the HTTP
/// answers can be checked against known structure.
fn platform() -> Arc<KgLids> {
    let ages: Vec<String> = (20..60).map(|i| i.to_string()).collect();
    let cities: Vec<String> = (0..40)
        .map(|i| ["London", "Paris", "Tokyo", "Cairo"][i % 4].to_string())
        .collect();
    let salaries: Vec<String> = (0..40).map(|i| (30_000 + i * 500).to_string()).collect();
    let ds = |name: &str, table: &str, cols: Vec<Column>| {
        Dataset::new(name, vec![Table::new(table, cols)])
    };
    Arc::new(
        KgLidsBuilder::new()
            .with_datasets([
                ds(
                    "health",
                    "patients",
                    vec![Column::new("age", ages.clone()), Column::new("salary", salaries)],
                ),
                ds(
                    "census",
                    "people",
                    vec![Column::new("age", ages), Column::new("city", cities.clone())],
                ),
                ds("travel", "trips", vec![Column::new("city", cities)]),
            ])
            .bootstrap()
            .0,
    )
}

fn start(platform: &Arc<KgLids>) -> LidsServer {
    LidsServer::start(
        Backend::Platform(Arc::clone(platform)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server binds an ephemeral port")
}

const TABLES_QUERY: &str = "PREFIX k: <http://kglids.org/ontology/> \
    SELECT ?t ?c WHERE { ?t a k:Table . ?t k:hasColumn ?c . }";

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

#[test]
fn query_over_http_matches_in_process() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    let wire = client.query(TABLES_QUERY, None).expect("query over http");
    let local = p.query(TABLES_QUERY).expect("query in process");
    assert_eq!(wire.api, API_VERSION);
    assert!(wire.request_id.starts_with("req-"));
    let df = wire.to_dataframe();
    assert_eq!(df.columns, local.columns);
    assert_eq!(sorted(df.rows), sorted(local.rows), "wire rows must be byte-equal");
    assert!(!wire.truncated);
    assert!(wire.generation > 0);

    // explain rides the same socket and reports the same result size
    let explain = client.explain(TABLES_QUERY, None).expect("explain over http");
    assert_eq!(explain.rows as usize, wire.rows.len());
    assert!(!explain.patterns.is_empty());
}

#[test]
fn discovery_over_http_matches_in_process() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    // unionable tables
    let wire = client
        .unionable_tables(&TableHitsRequest {
            dataset: "health".into(),
            table: "patients".into(),
            k: Some(5),
            ..TableHitsRequest::default()
        })
        .expect("unionable over http");
    let local = p.discovery().k(5).unionable_tables("health", "patients").expect("in process");
    assert_eq!(wire.hits.len(), local.len());
    for (w, l) in wire.hits.iter().zip(&local) {
        assert_eq!((w.dataset.as_str(), w.table.as_str()), (l.dataset.as_str(), l.table.as_str()));
        assert!((w.score - l.score).abs() < 1e-12);
    }
    assert_eq!(wire.hits[0].table, "people");

    // join paths, plain and shortest
    let req = PathsRequest {
        from_dataset: "health".into(),
        from_table: "patients".into(),
        to_dataset: "travel".into(),
        to_table: "trips".into(),
        hops: Some(2),
        ..PathsRequest::default()
    };
    let wire_paths = client.paths(&req).expect("paths over http");
    let local_paths = p
        .discovery()
        .hops(2)
        .paths(("health", "patients"), ("travel", "trips"))
        .expect("in process");
    assert_eq!(
        wire_paths.paths.iter().map(|p| p.tables.clone()).collect::<Vec<_>>(),
        local_paths.iter().map(|p| p.tables.clone()).collect::<Vec<_>>()
    );
    let shortest = client
        .paths(&PathsRequest { shortest: Some(true), ..req })
        .expect("shortest over http");
    assert_eq!(shortest.paths.len(), 1);
    assert_eq!(shortest.paths[0].tables, vec!["patients", "people", "trips"]);

    // keyword search answers the DataFrame shape
    let search = client
        .search(&SearchRequest {
            conditions: vec![vec!["age".into(), "city".into()], vec!["travel".into()]],
            limits: None,
        })
        .expect("search over http");
    let local = p
        .discovery()
        .search(&[&["age", "city"], &["travel"]])
        .expect("in process search");
    assert_eq!(sorted(search.to_dataframe().rows), sorted(local.rows));
}

#[test]
fn health_and_metrics_report_the_server() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    let health = client.healthz().expect("healthz");
    assert_eq!(health.status, "ok");
    assert!(health.triples > 0);
    assert_eq!(health.generation, p.store().generation());

    const QUERIES: i64 = 3;
    for _ in 0..QUERIES {
        client.query(TABLES_QUERY, None).expect("query");
    }
    let metrics = client.metrics_json().expect("metrics");
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics is JSON");
    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        match v {
            serde_json::Value::Object(m) => {
                m.get(key).unwrap_or_else(|| panic!("missing field `{key}`"))
            }
            other => panic!("expected object at `{key}`, got {other:?}"),
        }
    }
    fn as_i64(v: &serde_json::Value) -> i64 {
        match v {
            serde_json::Value::Number(n) => n.as_i64().expect("integral number"),
            other => panic!("not a number: {other:?}"),
        }
    }
    assert_eq!(field(&v, "schema"), &serde_json::Value::String("lids-obs/v1".into()));
    let counters = field(field(&v, "metrics"), "counters");
    assert!(
        as_i64(field(counters, "server.requests")) >= 2,
        "healthz + query must be counted: {counters:?}"
    );
    let latency = field(
        field(field(&v, "metrics"), "histograms"),
        "server.latency_us.query",
    );
    assert!(as_i64(field(latency, "count")) >= 1, "query latency histogram missing");
    // the platform's own registry rides along: what ran behind the socket
    // is visible from outside the process
    assert!(
        as_i64(field(counters, "query.count")) >= QUERIES,
        "platform query counters missing from /metrics: {counters:?}"
    );
    let gauges = field(field(&v, "metrics"), "gauges");
    assert!(as_i64(field(gauges, "sparql.plan_cache.parses")) >= 1);
    field(counters, "ingest.delta.datasets_added");
}

/// Satellite regression: error taxonomy over the wire. Bad requests are
/// 400s with the platform's `ErrorKind` name — including the empty-query
/// case, which used to panic deep in the platform as an internal error.
#[test]
fn typed_errors_over_the_wire() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    // malformed JSON body → 400 JsonMalformed
    let (status, body) = client
        .request_raw("POST", "/v1/query", "{not json")
        .expect("request completes");
    assert_eq!(status, 400);
    assert!(body.contains("JsonMalformed"), "{body}");

    // schema-violating body (no `query` field) → 400 JsonMalformed
    let (status, body) = client.request_raw("POST", "/v1/query", "{}").expect("completes");
    assert_eq!(status, 400);
    assert!(body.contains("JsonMalformed"), "{body}");

    // unparseable SPARQL → 400 SparqlError
    match client.query("SELEKT nonsense", None) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 400);
            assert_eq!(e.error, "SparqlError");
        }
        other => panic!("expected typed API error, got {other:?}"),
    }

    // empty SPARQL → 400 InvalidArgument (not a 500): the regression
    match client.query("   ", None) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 400, "empty query must be a client error: {e:?}");
            assert_eq!(e.error, "InvalidArgument");
        }
        other => panic!("expected typed API error, got {other:?}"),
    }

    // out-of-domain discovery options → 400 InvalidArgument
    match client.unionable_tables(&TableHitsRequest {
        dataset: "health".into(),
        table: "patients".into(),
        mode: Some("psychic".into()),
        ..TableHitsRequest::default()
    }) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 400);
            assert_eq!(e.error, "InvalidArgument");
        }
        other => panic!("expected typed API error, got {other:?}"),
    }

    // a row cap on discovery → 400 InvalidArgument: a ranking over a
    // truncated answer would pass for a whole one; without it, 200
    let capped = TableHitsRequest {
        dataset: "health".into(),
        table: "patients".into(),
        limits: Some(lids_server::WireLimits { row_cap: Some(1), ..Default::default() }),
        ..TableHitsRequest::default()
    };
    match client.unionable_tables(&capped) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 400);
            assert_eq!(e.error, "InvalidArgument");
        }
        other => panic!("expected typed API error, got {other:?}"),
    }
    let uncapped = TableHitsRequest { limits: None, ..capped };
    assert!(!client.unionable_tables(&uncapped).expect("answers 200").hits.is_empty());

    // impossible deadline → 503 QueryTimeout (governance, not failure)
    match client.query(
        TABLES_QUERY,
        Some(lids_server::WireLimits { deadline_ms: Some(0), ..Default::default() }),
    ) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 503);
            assert_eq!(e.error, "QueryTimeout");
        }
        other => panic!("expected typed API error, got {other:?}"),
    }

    // unknown route → 404 NotFound
    let (status, body) = client.request_raw("POST", "/v1/nope", "{}").expect("completes");
    assert_eq!(status, 404);
    assert!(body.contains("NotFound"), "{body}");

    // the connection survived every typed error above
    client.healthz().expect("keep-alive connection still healthy");
}

/// A caller's limits stay with the caller over the wire too: a budget a
/// request sets trips that request alone, typed, and requests whose own
/// deadline expired leave the next unlimited request answering what a
/// fresh server answers.
#[test]
fn caller_limits_stay_with_the_caller_over_the_wire() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    let tight =
        Some(lids_server::WireLimits { memory_budget_bytes: Some(16), ..Default::default() });
    match client.query(TABLES_QUERY, tight) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 503, "{e:?}");
            assert_eq!(e.error, "QueryBudgetExceeded");
        }
        other => panic!("expected a typed 503, got {other:?}"),
    }
    let whole = client.query(TABLES_QUERY, None).expect("the same body without limits");
    assert!(!whole.truncated && whole.rows.len() >= 2, "{whole:?}");

    let request = TableHitsRequest {
        dataset: "health".into(),
        table: "patients".into(),
        ..TableHitsRequest::default()
    };
    let baseline = client.unionable_tables(&request).expect("baseline").hits;
    assert!(!baseline.is_empty());
    let expired = TableHitsRequest {
        limits: Some(lids_server::WireLimits { deadline_ms: Some(0), ..Default::default() }),
        ..request.clone()
    };
    for _ in 0..3 {
        match client.unionable_tables(&expired) {
            Err(ClientError::Api(e)) => {
                assert_eq!((e.status, e.error.as_str()), (503, "QueryTimeout"), "{e:?}")
            }
            other => panic!("expected a typed 503, got {other:?}"),
        }
    }
    assert_eq!(client.unionable_tables(&request).expect("after the trips").hits, baseline);
}

/// `/v1/explain` takes the body `/v1/query` takes and makes the same run:
/// an expired deadline and a 16-byte budget are the typed 503s a query gets,
/// and the same body without limits explains the whole answer.
#[test]
fn explain_takes_the_query_body_and_its_limits() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());
    let mut explain = |limits: Option<lids_server::WireLimits>| {
        let request = lids_server::QueryRequest { query: TABLES_QUERY.to_string(), limits };
        let body = serde_json::to_string(&request).expect("serializes");
        client.request_raw("POST", "/v1/explain", &body).expect("explain over http")
    };
    for (limits, kind) in [
        (lids_server::WireLimits { deadline_ms: Some(0), ..Default::default() }, "QueryTimeout"),
        (
            lids_server::WireLimits { memory_budget_bytes: Some(16), ..Default::default() },
            "QueryBudgetExceeded",
        ),
    ] {
        let (status, body) = explain(Some(limits));
        assert_eq!(status, 503, "{kind}: {body}");
        let error: lids_server::ErrorResponse =
            serde_json::from_str(&body).expect("a typed error");
        assert_eq!(error.error, kind, "{body}");
    }
    let (status, body) = explain(None);
    assert_eq!(status, 200, "{body}");
    let plan: lids_server::ExplainResponse = serde_json::from_str(&body).expect("a plan");
    let rows = client.query(TABLES_QUERY, None).expect("the same query").rows.len();
    assert_eq!(plan.rows as usize, rows);
    assert!(!plan.truncated && rows >= 2, "{plan:?}");
}

/// Nesting bombs cost their request a typed 400, not the process: a FILTER
/// of a thousand parentheses is a SPARQL parse error and a body of ten
/// thousand `[` a JSON one, and the same server then answers.
#[test]
fn nesting_bombs_get_typed_400s_and_the_server_lives() {
    let p = platform();
    let server = start(&p);
    let mut client = Client::connect(server.addr().to_string());

    let deep = format!(
        "SELECT ?t WHERE {{ ?t ?p ?o FILTER({}?o{}) }}",
        "(".repeat(1000),
        ")".repeat(1000)
    );
    match client.query(&deep, None) {
        Err(ClientError::Api(e)) => {
            assert_eq!((e.status, e.error.as_str()), (400, "SparqlError"), "{e:?}")
        }
        other => panic!("expected a typed 400, got {other:?}"),
    }
    let (status, body) =
        client.request_raw("POST", "/v1/query", &"[".repeat(10_000)).expect("answered");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("JsonMalformed"), "{body}");

    let mut client = Client::connect(server.addr().to_string());
    assert_eq!(client.healthz().expect("healthz after the bombs").status, "ok");
    let wire = client.query(TABLES_QUERY, None).expect("query after the bombs");
    let local = p.query(TABLES_QUERY).expect("query in process");
    assert_eq!(sorted(wire.to_dataframe().rows), sorted(local.rows));
}

/// A panicking handler costs its request a 500, not its worker: after
/// more injected panics than the server has workers, `/healthz` and a
/// query still answer.
#[test]
fn handler_panics_answer_500_and_keep_every_worker() {
    let p = platform();
    let server = start(&p);
    let panics = ServerConfig::default().workers as u64 + 1;
    server.inject_handler_panics(panics);
    for _ in 0..panics {
        // a connection each: whichever worker takes it panics
        let mut client = Client::connect(server.addr().to_string());
        let (status, body) = client.request_raw("GET", "/healthz", "").expect("request completes");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("Internal"), "{body}");
    }
    let mut client = Client::connect(server.addr().to_string());
    assert_eq!(client.healthz().expect("healthz after the panics").status, "ok");
    let wire = client.query(TABLES_QUERY, None).expect("query after the panics");
    let local = p.query(TABLES_QUERY).expect("query in process");
    assert_eq!(sorted(wire.to_dataframe().rows), sorted(local.rows));
    assert_eq!(server.obs().metrics.snapshot().counter("server.handler_panics"), Some(panics));
}

#[test]
fn oversized_and_malformed_requests_close_without_hanging() {
    let p = platform();
    let server = LidsServer::start(
        Backend::Platform(Arc::clone(&p)),
        "127.0.0.1:0",
        ServerConfig { max_body_bytes: 512, ..ServerConfig::default() },
    )
    .expect("server binds");
    let addr = server.addr().to_string();

    // a body over the cap → 413, connection closed by the server
    let mut client = Client::connect(addr.clone());
    let big = format!("{{\"query\": \"{}\"}}", "x".repeat(2048));
    let (status, body) = client.request_raw("POST", "/v1/query", &big).expect("413 answered");
    assert_eq!(status, 413);
    assert!(body.contains("PayloadTooLarge"), "{body}");

    // raw garbage that is not HTTP → 400, then the server closes; the
    // whole exchange must finish quickly rather than hang
    use std::io::{BufReader, Write};
    let start = Instant::now();
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"this is not http\r\n\r\n").expect("write");
    let mut reader = BufReader::new(raw);
    let (status, body, keep_alive) =
        lids_server::http::read_response(&mut reader).expect("400 answered");
    assert_eq!(status, 400);
    assert!(body.contains("Malformed"), "{body}");
    assert!(!keep_alive, "framing errors must close the connection");
    assert!(start.elapsed() < Duration::from_secs(5), "malformed request hung");
}

#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let p = platform();
    let server = start(&p);
    let addr = server.addr().to_string();

    let mut client = Client::connect(addr.clone());
    client.query(TABLES_QUERY, None).expect("pre-shutdown query");

    let start = Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10), "shutdown must not hang");

    // new work is refused once the server is gone — as a fast error,
    // never a hang
    let mut late = Client::connect(addr);
    match late.query(TABLES_QUERY, None) {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Ok(_) => panic!("query succeeded after shutdown"),
        Err(ClientError::Api(e)) => panic!("unexpected typed answer after shutdown: {e:?}"),
    }
}

/// Snapshot isolation over the wire: while a writer commits fixed-size
/// batches, every HTTP response must reflect a whole number of batches —
/// and per connection, generations and results only move forward.
#[test]
fn concurrent_clients_observe_whole_batches_during_ingest() {
    const BATCH: usize = 5;
    const BATCHES: usize = 12;
    const BASE: usize = 8;

    let pred = || Term::iri("http://x/p");
    let mut store = QuadStore::new();
    store.extend((0..BASE).map(|i| {
        Quad::new(Term::iri(format!("http://x/base{i}")), pred(), Term::integer(i as i64))
    }));
    let reader = kglids::LidsReader::for_store(&store);
    let server = LidsServer::start(
        Backend::Reader(reader),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("server binds");
    let addr = server.addr().to_string();

    let query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }";
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut last_rows = 0usize;
                    let mut last_gen = 0u64;
                    loop {
                        let resp = client.query(query, None).expect("query during ingest");
                        let rows = resp.rows.len();
                        assert!(
                            rows >= BASE && (rows - BASE).is_multiple_of(BATCH),
                            "torn read: {rows} rows is not base + whole batches"
                        );
                        assert!(rows >= last_rows, "result set went backwards");
                        assert!(resp.generation >= last_gen, "generation went backwards");
                        last_rows = rows;
                        last_gen = resp.generation;
                        if rows == BASE + BATCHES * BATCH {
                            return;
                        }
                    }
                })
            })
            .collect();

        // one extend() call per batch = one atomic publish per batch
        for b in 0..BATCHES {
            store.extend((0..BATCH).map(|i| {
                Quad::new(
                    Term::iri(format!("http://x/b{b}c{i}")),
                    pred(),
                    Term::integer((1000 + b * BATCH + i) as i64),
                )
            }));
            std::thread::sleep(Duration::from_millis(2));
        }

        for c in clients {
            c.join().expect("client thread");
        }
    });
    server.shutdown();
}

/// Discovery over `Backend::Reader` under a live writer: while one dataset
/// is added and removed in turn, every `unionable-tables` and `search`
/// response equals the in-process answer of the lake state its
/// `generation` names — with the dataset or without it, never a mix of
/// the two SPARQL queries a union search runs — and generations only move
/// forward on a connection.
#[test]
fn reader_backend_answers_discovery_under_live_deltas() {
    const DELTAS: usize = 24;
    type Hits = Vec<(String, String, f64)>;
    type Rows = Vec<Vec<String>>;
    enum Payload {
        Hits(Hits),
        Rows(Rows),
    }

    let mut platform = Arc::try_unwrap(platform()).ok().expect("sole owner");
    let guest = || {
        let ages = (20..60).map(|i| i.to_string()).collect();
        Dataset::new("guest", vec![Table::new("visitors", vec![Column::new("age", ages)])])
    };
    let in_process = |p: &KgLids| -> (Hits, Rows) {
        let hits = p.discovery().unionable_tables("health", "patients").expect("in process");
        let search = p.discovery().search(&[&["age"]]).expect("in process");
        (hits.into_iter().map(|h| (h.dataset, h.table, h.score)).collect(), sorted(search.rows))
    };
    let without = in_process(&platform);
    platform.apply_delta(DeltaBatch::new().add_dataset(guest()));
    let with = in_process(&platform);
    platform.apply_delta(DeltaBatch::new().remove_dataset("guest"));
    assert_eq!(without, in_process(&platform));
    assert_eq!(with.0.len(), without.0.len() + 1, "the guest table is unionable");
    assert_eq!(with.1.len(), without.1.len() + 1, "the guest table matches the keyword");

    let server = LidsServer::start(
        Backend::Reader(platform.reader()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("server binds");
    let addr = server.addr().to_string();

    // which lake state each generation is; responses are judged once the
    // writer is done and the map is complete
    let mut guest_at: HashMap<u64, bool> = HashMap::from([(platform.store().generation(), false)]);
    let answered = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let responses = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut client = Client::connect(addr.clone());
            let mut seen: Vec<(u64, Payload)> = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let hits = client
                    .unionable_tables(&TableHitsRequest {
                        dataset: "health".into(),
                        table: "patients".into(),
                        ..TableHitsRequest::default()
                    })
                    .expect("unionable-tables on a reader backend");
                let hit_rows = hits.hits.into_iter().map(|h| (h.dataset, h.table, h.score));
                seen.push((hits.generation, Payload::Hits(hit_rows.collect())));
                let search = client
                    .search(&SearchRequest { conditions: vec![vec!["age".into()]], limits: None })
                    .expect("search on a reader backend");
                let rows = sorted(search.to_dataframe().rows);
                seen.push((search.generation, Payload::Rows(rows)));
                answered.fetch_add(1, Ordering::SeqCst);
            }
            seen
        });
        // the writer waits for a full exchange between deltas, so every
        // generation is served at least once while it is the latest
        for i in 0..DELTAS {
            let add = i % 2 == 0;
            let stats = platform.apply_delta(if add {
                DeltaBatch::new().add_dataset(guest())
            } else {
                DeltaBatch::new().remove_dataset("guest")
            });
            guest_at.insert(stats.generation, add);
            let before = answered.load(Ordering::SeqCst);
            let waited = Instant::now();
            while answered.load(Ordering::SeqCst) < before + 2 {
                assert!(waited.elapsed() < Duration::from_secs(60), "client stalled");
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::SeqCst);
        client.join().expect("client thread")
    });
    server.shutdown();

    let mut last_generation = 0;
    let mut states = [0usize; 2];
    for (generation, payload) in responses {
        assert!(generation >= last_generation, "generation went backwards");
        last_generation = generation;
        let has_guest = *guest_at.get(&generation).expect("a committed generation");
        states[usize::from(has_guest)] += 1;
        let want = if has_guest { &with } else { &without };
        match payload {
            Payload::Hits(hits) => {
                assert_eq!(hits.len(), want.0.len(), "generation {generation}: mixed union search");
                for (got, want) in hits.iter().zip(&want.0) {
                    assert_eq!((&got.0, &got.1), (&want.0, &want.1), "generation {generation}");
                    assert!((got.2 - want.2).abs() < 1e-12, "generation {generation}");
                }
            }
            Payload::Rows(rows) => assert_eq!(&rows, &want.1, "generation {generation}"),
        }
    }
    assert!(states[0] > 0 && states[1] > 0, "both lake states were served: {states:?}");
}

// ------------------------------------------------------------ wire parity
//
// The server writes a query answer's cells straight from ids into the
// response body. The contract it keeps: the bytes are those of
// `serde_json::to_string` of the `QueryResponse` built from the in-process
// `DataFrame` of the same query on the same generation.

/// The generated lake `tests/end_to_end.rs` bootstraps.
fn lake_platform() -> (kglids_repro::datagen::Lake, KgLids) {
    let lake = kglids_repro::datagen::LakeSpec::tus_small().scaled(0.25).generate();
    let (platform, _) = KgLidsBuilder::new()
        .with_dataset(Dataset::new(lake.name.clone(), lake.tables.clone()))
        .bootstrap();
    (lake, platform)
}

/// POST `text` to `/v1/query` and require the body read off the socket to
/// be, byte for byte, the serialized response of `local` (the in-process
/// answer) — `request_id` and `elapsed_us` are the server's to choose and
/// are taken from the body, which is returned.
fn assert_query_bytes(
    client: &mut Client,
    text: &str,
    limits: Option<lids_server::WireLimits>,
    local: kglids::DataFrame,
    generation: u64,
) -> String {
    let request = lids_server::QueryRequest { query: text.to_string(), limits };
    let (status, body) = client
        .request_raw("POST", "/v1/query", &serde_json::to_string(&request).expect("serializes"))
        .expect("query over http");
    assert_eq!(status, 200, "{body}");
    let wire: lids_server::QueryResponse = serde_json::from_str(&body).expect("body decodes");
    assert!(wire.request_id.starts_with("req-"));
    let expected = lids_server::QueryResponse {
        api: API_VERSION.to_string(),
        request_id: wire.request_id.clone(),
        columns: local.columns,
        rows: local.rows,
        truncated: local.truncated,
        generation,
        elapsed_us: wire.elapsed_us,
    };
    assert_eq!(body, serde_json::to_string(&expected).expect("serializes"), "query: {text}");
    body
}

#[test]
fn query_bodies_are_the_serialized_in_process_answers() {
    let (lake, platform) = lake_platform();
    let platform = Arc::new(platform);
    let table = kglids_repro::kg::ontology::res::table(&lake.name, &lake.query_tables[0]);
    let point = format!(
        "PREFIX k: <http://kglids.org/ontology/> \
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
         SELECT ?c ?l WHERE {{ <{table}> k:hasColumn ?c . ?c rdfs:label ?l . }}"
    );
    let union2hop = format!(
        "PREFIX k: <http://kglids.org/ontology/> \
         SELECT ?other ?s WHERE {{ \
            <{table}> k:hasColumn ?ca . ?ca k:hasContentSimilarity ?cb . \
            ?cb k:isPartOf ?other . \
            << ?ca k:hasContentSimilarity ?cb >> k:withCertainty ?s . }}"
    );
    let empty = "SELECT ?x ?y WHERE { ?x <urn:never:asserted> ?y }";
    let unbound = "PREFIX k: <http://kglids.org/ontology/> \
         SELECT ?t ?missing WHERE { ?t a k:Table . OPTIONAL { ?t k:neverAsserted ?missing } }";
    let texts = [kglids::SEARCH_TABLES_QUERY, &union2hop, &point, empty, unbound];
    let cap = lids_server::WireLimits { row_cap: Some(3), ..Default::default() };

    let reader = platform.reader();
    let snapshot = reader.snapshot();
    for backend in [Backend::Platform(Arc::clone(&platform)), Backend::Reader(reader.clone())] {
        let on_platform = matches!(backend, Backend::Platform(_));
        let server = LidsServer::start(backend, "127.0.0.1:0", ServerConfig::default())
            .expect("server binds");
        let mut client = Client::connect(server.addr().to_string());
        for text in texts {
            let local = if on_platform {
                platform.query(text)
            } else {
                reader.query_at(&snapshot, text, kglids::EvalOptions::default())
            }
            .expect("in process");
            assert_query_bytes(&mut client, text, None, local, snapshot.generation());
        }
        // a row cap that bites: the truncated marker and the rows that
        // survived it are the in-process ones
        let local = reader
            .query_at(&snapshot, kglids::SEARCH_TABLES_QUERY, cap.to_eval_options())
            .expect("in process");
        assert!(local.truncated && local.len() <= 3);
        let limits = Some(cap.clone());
        let text = kglids::SEARCH_TABLES_QUERY;
        assert_query_bytes(&mut client, text, limits, local, snapshot.generation());
        server.shutdown();
    }
    // the answers above were not vacuous
    assert!(platform.query(kglids::SEARCH_TABLES_QUERY).expect("star").len() > 10);
    assert!(!platform.query(&union2hop).expect("union2hop").is_empty());
    assert!(platform.query(unbound).expect("optional").rows.iter().all(|r| r[1].is_empty()));
}

/// Terms that need every branch of the body writer: each JSON escape, text
/// that needs none, and the two term kinds whose text is built, not held.
#[test]
fn hostile_terms_cross_the_wire_byte_for_byte() {
    let mut store = QuadStore::new();
    let p = Term::iri("http://x/says");
    let objects = [
        Term::string("a \"quoted\" word"),
        Term::string("back\\slash"),
        Term::string("line\nfeed\rreturn\ttab"),
        Term::string("bell \u{7} escape \u{1b} unit \u{1f}"),
        Term::string("naïve café — 数据湖 😀"),
        Term::BNode("b0".into()),
        Term::quoted(Term::iri("http://x/a"), Term::iri("http://x/sim"), Term::string("o\"o")),
        Term::string(""),
    ];
    for (i, object) in objects.iter().enumerate() {
        store.insert(&Quad::new(Term::iri(format!("http://x/s{i}")), p.clone(), object.clone()));
    }
    // a quoted triple in subject position, and a blank node as subject
    store.insert(&Quad::new(objects[6].clone(), Term::iri("http://x/score"), Term::double(0.5)));
    store.insert(&Quad::new(objects[5].clone(), p.clone(), Term::boolean(true)));

    let reader = kglids::LidsReader::for_store(&store);
    let server =
        LidsServer::start(Backend::Reader(reader.clone()), "127.0.0.1:0", ServerConfig::default())
            .expect("server binds");
    let mut client = Client::connect(server.addr().to_string());
    let snapshot = reader.snapshot();
    for text in [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT ?o ?v WHERE { ?s <http://x/says> ?o . OPTIONAL { ?o <http://x/score> ?v } } ORDER BY ?o",
    ] {
        let local =
            reader.query_at(&snapshot, text, kglids::EvalOptions::default()).expect("in process");
        assert_eq!(local.len(), if text.contains("OPTIONAL") { 9 } else { 10 });
        let body = assert_query_bytes(&mut client, text, None, local, snapshot.generation());
        // parity holds the body to the serializer; these hold both to JSON
        for escaped in [
            r#"a \"quoted\" word"#,
            r"back\\slash",
            r"line\nfeed\rreturn\ttab",
            r"bell \u0007 escape \u001b unit \u001f",
            "naïve café — 数据湖 😀",
            "_:b0",
            r#"<< http://x/a http://x/sim o\"o >>"#,
        ] {
            assert!(body.contains(escaped), "{escaped} missing from {body}");
        }
        assert!(!body.contains("null"), "an unbound cell is an empty string: {body}");
    }
    server.shutdown();
}

/// Discovery answers over the wire are the in-process `Discovery` answers
/// field for field — ranked hits with their exact scores, search rows in
/// order — before a delta and after it.
#[test]
fn discovery_answers_match_in_process_before_and_after_a_delta() {
    let (lake, mut platform) = lake_platform();
    let server = LidsServer::start(
        Backend::Reader(platform.reader()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server binds");
    let mut client = Client::connect(server.addr().to_string());

    let mut check = |platform: &KgLids| {
        let generation = platform.store().generation();
        for table in lake.query_tables.iter().take(4) {
            let req = TableHitsRequest {
                dataset: lake.name.clone(),
                table: table.clone(),
                ..TableHitsRequest::default()
            };
            let d = platform.discovery();
            for (wire, local) in [
                (client.unionable_tables(&req), d.unionable_tables(&lake.name, table)),
                (client.joinable_tables(&req), d.joinable_tables(&lake.name, table)),
            ] {
                let (wire, local) = (wire.expect("over http"), local.expect("in process"));
                assert_eq!(wire.generation, generation);
                let wire: Vec<_> =
                    wire.hits.into_iter().map(|h| (h.dataset, h.table, h.score)).collect();
                let local: Vec<_> =
                    local.into_iter().map(|h| (h.dataset, h.table, h.score)).collect();
                assert!(!local.is_empty(), "no hits for {table}");
                assert_eq!(wire, local, "hits for {table}");
            }
        }
        for keyword in ["a", "id", "zzz-no-such-label"] {
            let wire = client
                .search(&SearchRequest { conditions: vec![vec![keyword.into()]], limits: None })
                .expect("search over http");
            let local = platform.discovery().search(&[&[keyword]]).expect("in process");
            assert_eq!(wire.generation, generation);
            assert_eq!(wire.to_dataframe(), local, "search for {keyword}");
        }
    };
    check(&platform);
    // a re-upload of one query table under another dataset name: a new
    // unionable twin for it, and one more table for every search
    let twin = lake.tables.iter().find(|t| t.name == lake.query_tables[0]).expect("in the lake");
    let before = platform.store().generation();
    platform.apply_delta(DeltaBatch::new().add_dataset(Dataset::new("reupload", vec![twin.clone()])));
    assert!(platform.store().generation() > before);
    check(&platform);
    let hits = platform
        .discovery()
        .unionable_tables(&lake.name, &lake.query_tables[0])
        .expect("in process");
    assert!(hits.iter().any(|h| h.dataset == "reupload"), "the delta is visible: {hits:?}");
    server.shutdown();
}
