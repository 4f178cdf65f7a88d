//! Per-layer metrics of the traced run (layer = crate).
//!
//! Time is attributed to layers *from outside*: the harness calls each
//! crate's public functions on the run's own lake and reads the stats the
//! program already returns. Wire requests are replayed in process, step by
//! step (`http::read_request` → JSON decode → handler → JSON encode →
//! `write_response`), and the sum of the steps is set against what a client
//! observed: the budget-closure line of each class.

use std::collections::HashMap;
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kglids::{BootstrapStats, EvalOptions, KgLids};
use lids_embed::{ColrModels, FineGrainedType, WordEmbeddings};
use lids_kg::{
    abstract_pipeline, data_global_schema_quads_seeded, retraction_quads, AbstractionStats,
    LibraryDocs, LinkIndex, SchemaConfig,
};
use lids_obs::MetricsSnapshot;
use lids_profiler::{
    parse_csv_bytes, profile_table, ColumnProfile, CsvMode, ProfilerConfig, Table,
};
use lids_rdf::store::IndexOrder;
use lids_rdf::{Quad, QuadPattern, QuadStore, StoreSnapshot, Term};
use lids_server::{http, Backend, Client, QueryRequest, TableHitsRequest};
use lids_sparql::PlanCache;
use lids_vector::{HnswConfig, HnswIndex, SearchStats, VectorIndex};

use crate::deck::{split_body, Answer, Call, Class, Deck, Request, Source, SERVE_MIX};
use crate::inputs::{DatasetInput, Inputs};
use crate::report::{Metrics, Outcome, REPLAYED, SPARQL};
use crate::stats::median;
use crate::trace::{SpanId, Trace};
use crate::workloads::start_server;

/// Requests of each class that are replayed, and repetitions of a
/// measurement that has only one input.
const REPLAYS: usize = 20;
/// Typed decodes per class (the decode of a star answer takes ~0.4 s).
const DECODES: usize = 3;

pub struct Context<'a> {
    pub inputs: &'a Inputs,
    pub platform: &'a Arc<KgLids>,
    pub seed: u64,
    pub bootstrap: &'a BootstrapStats,
    /// The workload server's own counters.
    pub served: &'a MetricsSnapshot,
    /// Client-observed p50 per class under the workload's load, in µs.
    pub observed: &'a HashMap<Class, f64>,
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, s) = secs(f);
    (out, s * 1e6)
}

/// Measure every per-layer metric that the workload itself did not.
pub fn measure(cx: &Context<'_>, trace: &Trace, root: Option<SpanId>, out: &mut Outcome) {
    // the workload's plan cache, before the replays below add to it
    let cache = cx.platform.plan_cache_stats();
    let lookups = (cache.hits() + cache.misses).max(1);
    let m = &mut out.metrics;
    m.set(
        "sparql.plan_cache_hit_ratio",
        cache.hits() as f64 / lookups as f64,
        lookups as usize,
    );
    m.set("sparql.plan_cache_evictions", cache.evictions as f64, 1);
    let denials = cx
        .platform
        .obs()
        .snapshot()
        .metrics
        .counter("query.budget_denials");
    m.set("exec.budget_denials", denials.unwrap_or(0) as f64, 1);
    m.set(
        "server.rejected_503",
        cx.served.counter("server.rejected_queue_full").unwrap_or(0) as f64,
        1,
    );
    m.set(
        "server.responses_5xx",
        cx.served.counter("server.responses_5xx").unwrap_or(0) as f64,
        1,
    );
    let b = cx.bootstrap;
    for (name, value) in [
        ("ingestion_s", b.ingestion_secs),
        ("profiling_s", b.profiling_secs),
        ("schema_s", b.schema_secs),
        ("abstraction_s", b.abstraction_secs),
        ("linking_s", b.linking_secs),
    ] {
        m.set(&format!("core.bootstrap.{name}"), value, 1);
    }

    trace.span("replay.ingest", root, 0, |me| {
        ingest_layers(cx, trace, me, m)
    });
    trace.span("replay.vector", root, 0, |_| vector_layers(cx, m));
    let generations = trace.span("replay.rdf", root, 0, |_| rdf_layers(cx, m));
    // a small deck of every class over the first tables, for both workloads
    let tables = &cx.inputs.tables[..REPLAYS.min(cx.inputs.tables.len())];
    let deck = Deck::build(cx.inputs, tables, SERVE_MIX, cx.seed);
    trace.span("replay.query", root, 0, |_| {
        query_layers(cx, &deck, &generations, m)
    });
    drop(generations);
    trace.span("replay.wire", root, 0, |me| {
        wire_layers(cx, &deck, trace, me, out)
    });
}

// ------------------------------------------------- profiler, embed, pyast, kg

fn parse_tables(dataset: &DatasetInput) -> Vec<Table> {
    dataset
        .raw
        .tables
        .iter()
        .map(|t| {
            parse_csv_bytes(&t.name, &t.bytes, CsvMode::default()).expect("generated CSV parses")
        })
        .collect()
}

fn profile(dataset: &str, tables: &[Table], we: &WordEmbeddings) -> Vec<ColumnProfile> {
    let config = ProfilerConfig::default();
    tables
        .iter()
        .flat_map(|t| profile_table(dataset, t, ColrModels::pretrained(), we, &config, None))
        .collect()
}

fn ingest_layers(cx: &Context<'_>, trace: &Trace, me: Option<SpanId>, m: &mut Metrics) {
    let inputs = cx.inputs;
    let we = WordEmbeddings::new();

    // profiler: CSV bytes → tables → column profiles
    let (tables, s) = trace.span("profiler.parse_csv_bytes", me, 0, |_| {
        secs(|| {
            inputs
                .base
                .iter()
                .map(parse_tables)
                .collect::<Vec<Vec<Table>>>()
        })
    });
    let bytes = inputs.base_csv_bytes();
    m.set("profiler.csv_parse_mb_per_s", bytes as f64 / 1e6 / s, bytes);
    let (profiles, s) = trace.span("profiler.profile_table", me, 0, |_| {
        secs(|| {
            inputs
                .base
                .iter()
                .zip(&tables)
                .flat_map(|(d, t)| profile(&d.raw.name, t, &we))
                .collect::<Vec<ColumnProfile>>()
        })
    });
    m.set(
        "profiler.profile_cols_per_s",
        profiles.len() as f64 / s,
        profiles.len(),
    );

    // embed: the CoLR column embedding alone, over the same columns
    let columns: Vec<(FineGrainedType, &lids_profiler::Column)> = profiles
        .iter()
        .zip(tables.iter().flatten().flat_map(|t| t.columns.iter()))
        .filter(|(p, _)| p.fgt != FineGrainedType::Boolean)
        .map(|(p, c)| (p.fgt, c))
        .collect();
    let (_, s) = trace.span("embed.embed_column", me, 0, |_| {
        secs(|| {
            let models = ColrModels::pretrained();
            for (fgt, column) in &columns {
                std::hint::black_box(models.embed_column(*fgt, column.non_null()));
            }
        })
    });
    m.set(
        "embed.colr_cols_per_s",
        columns.len() as f64 / s,
        columns.len(),
    );

    // pyast and kg abstraction over the base scripts
    let scripts: Vec<&kglids::PipelineScript> =
        inputs.base.iter().flat_map(|d| d.scripts.iter()).collect();
    let source_bytes: usize = scripts.iter().map(|p| p.source.len()).sum();
    let (_, s) = trace.span("pyast.parse_module", me, 0, |_| {
        secs(|| {
            for p in &scripts {
                std::hint::black_box(lids_py::parse_module(&p.source).expect("script parses"));
            }
        })
    });
    m.set(
        "pyast.parse_scripts_per_s",
        scripts.len() as f64 / s,
        scripts.len(),
    );
    m.set(
        "pyast.parse_mb_per_s",
        source_bytes as f64 / 1e6 / s,
        source_bytes,
    );
    let (_, s) = trace.span("kg.abstract_pipeline", me, 0, |_| {
        secs(|| {
            let mut store = QuadStore::new();
            let mut stats = AbstractionStats::default();
            let docs = LibraryDocs::builtin();
            for p in &scripts {
                abstract_pipeline(&mut store, &mut stats, &docs, &p.metadata, &p.source)
                    .expect("script parses");
            }
        })
    });
    m.set(
        "kg.abstract_scripts_per_s",
        scripts.len() as f64 / s,
        scripts.len(),
    );

    // kg linking: the batch schema pass over the lake's own profiles, then
    // the persistent index the deltas link against
    let lake = cx.platform.profiles();
    let config = SchemaConfig::default();
    let ((stats, seed), s) = trace.span("kg.data_global_schema_quads", me, 0, |_| {
        secs(|| data_global_schema_quads_seeded(&mut Vec::new(), lake, &config, &we))
    });
    m.set(
        "kg.schema_link_cols_per_s",
        lake.len() as f64 / s,
        lake.len(),
    );
    m.set("kg.pairs_compared", stats.pairs_compared as f64, 1);
    m.set(
        "kg.candidates_generated",
        stats.candidates_generated as f64,
        1,
    );
    m.set(
        "kg.pruned_ratio",
        stats.pairs_pruned as f64 / stats.pairs_compared.max(1) as f64,
        stats.pairs_compared,
    );
    m.set(
        "kg.edges_per_candidate",
        stats.content_edges as f64 / stats.candidates_generated.max(1) as f64,
        stats.candidates_generated,
    );
    let mut index = LinkIndex::from_seed(seed, lake, config);
    let (mut adds, mut removes) = (Vec::new(), Vec::new());
    for d in &inputs.churn {
        let new = profile(&d.raw.name, &parse_tables(d), &we);
        let (_, s) = trace.span("kg.link_index.add_columns", me, 0, |_| {
            secs(|| index.add_columns(&mut Vec::new(), &new, &we))
        });
        adds.push(s * 1e3);
        let (_, s) = trace.span("kg.link_index.remove_dataset", me, 0, |_| {
            secs(|| index.remove_dataset(&d.raw.name))
        });
        removes.push(s * 1e3);
    }
    m.set("kg.link_index_add_ms", median(&adds), adds.len());
    m.set("kg.link_index_remove_ms", median(&removes), removes.len());

    // what a removal must scan for: everything a dataset contributed
    let snapshot = cx.platform.store_snapshot();
    let scans: Vec<f64> = inputs
        .base
        .iter()
        .take(inputs.churn.len())
        .map(|d| {
            let own: Vec<ColumnProfile> = lake
                .iter()
                .filter(|p| p.meta.dataset == d.raw.name)
                .cloned()
                .collect();
            let (_, s) = trace.span("kg.retraction_quads", me, 0, |_| {
                secs(|| retraction_quads(&snapshot, &d.raw.name, &own))
            });
            s * 1e3
        })
        .collect();
    m.set("kg.retraction_scan_ms", median(&scans), scans.len());
}

// ---------------------------------------------------------------- vector

fn vector_layers(cx: &Context<'_>, m: &mut Metrics) {
    let embeddings: Vec<&[f32]> = cx
        .platform
        .profiles()
        .iter()
        .filter(|p| !p.embedding.is_empty())
        .map(|p| p.embedding.as_slice())
        .collect();
    let Some(first) = embeddings.first() else {
        return;
    };
    let mut index = HnswIndex::new(first.len(), HnswConfig::default());
    for (id, e) in embeddings.iter().enumerate() {
        index.add(id as u64, e);
    }
    // the radius the linking pass searches with: 1 − θ
    let radius = 1.0 - SchemaConfig::default().theta;
    let queries = &embeddings[..embeddings.len().min(10 * REPLAYS)];
    let mut stats = SearchStats::default();
    let times: Vec<f64> = queries
        .iter()
        .map(|q| us(|| index.search_radius_with_stats(q, radius, 10, &mut stats)).1)
        .collect();
    m.set("vector.hnsw_search_us", median(&times), times.len());
    m.set(
        "vector.hnsw_dist_evals_per_search",
        stats.dist_evals as f64 / queries.len() as f64,
        queries.len(),
    );
    let times: Vec<f64> = queries
        .iter()
        .map(|q| us(|| cx.platform.similar_columns(q, 10)).1)
        .collect();
    m.set("vector.similar_columns_us", median(&times), times.len());
}

// ---------------------------------------------------------------- rdf

/// Two snapshots of one scratch store, one generation apart.
struct Generations {
    before: Arc<StoreSnapshot>,
    after: Arc<StoreSnapshot>,
}

fn rdf_layers(cx: &Context<'_>, m: &mut Metrics) -> Generations {
    let lake = cx.platform.store();
    m.set(
        "rdf.approx_bytes_per_quad",
        lake.approx_bytes() as f64 / lake.len() as f64,
        lake.len(),
    );
    m.set("rdf.dict_terms", lake.term_count() as f64, 1);

    // a scratch copy of the lake's store, and a delta-sized batch of it
    let mut store = QuadStore::new();
    store.extend(lake.iter());
    let batch: Vec<Quad> = lake.iter().step_by(25).collect();
    // mutate in place (no snapshot outstanding), then copy on write (one
    // pinned, as under a reader); each pair leaves the store as it was
    let (mut retract, mut extend) = (Vec::new(), Vec::new());
    for pinned in [false, true] {
        let mut retracts = Vec::new();
        let mut extends = Vec::new();
        for _ in 0..3 {
            let pin = pinned.then(|| store.snapshot());
            retracts.push(secs(|| store.retract(batch.iter().cloned())).1);
            drop(pin);
            let pin = pinned.then(|| store.snapshot());
            extends.push(secs(|| store.extend(batch.iter().cloned())).1);
            drop(pin);
        }
        retract.push(batch.len() as f64 / median(&retracts));
        extend.push(batch.len() as f64 / median(&extends));
    }
    m.set("rdf.retract_quads_per_s", retract[0], batch.len());
    m.set("rdf.extend_quads_per_s", extend[0], batch.len());
    m.set("rdf.retract_cow_quads_per_s", retract[1], batch.len());
    m.set("rdf.extend_cow_quads_per_s", extend[1], batch.len());

    const SNAPSHOTS: usize = 10_000;
    let (_, s) = secs(|| {
        for _ in 0..SNAPSHOTS {
            std::hint::black_box(store.snapshot());
        }
    });
    m.set("rdf.snapshot_ns", s * 1e9 / SNAPSHOTS as f64, SNAPSHOTS);

    let before = store.snapshot();
    // a range scan with the predicate bound
    let labels =
        QuadPattern::any().with_predicate(Term::iri("http://www.w3.org/2000/01/rdf-schema#label"));
    let (quads, s) = secs(|| before.match_encoded(&labels).count());
    m.set("rdf.scan_ns_per_quad", s * 1e9 / quads.max(1) as f64, quads);
    // forward seeks over the SPOG run, 50 keys apart
    let mut targets = Vec::new();
    let mut cursor = before.run_cursor(IndexOrder::Spog);
    while let Some(key) = cursor.current() {
        targets.push(key);
        for _ in 0..50 {
            cursor.advance();
        }
    }
    let mut cursor = before.run_cursor(IndexOrder::Spog);
    let (_, s) = secs(|| {
        for target in &targets {
            cursor.seek_ge(*target);
        }
        std::hint::black_box(cursor.current());
    });
    m.set(
        "rdf.seek_ge_ns",
        s * 1e9 / targets.len().max(1) as f64,
        targets.len(),
    );

    // one more quad: the same content, one generation later
    store.insert(&Quad::new(
        Term::iri("http://kglids.org/benchmark/generation"),
        Term::iri("http://www.w3.org/2000/01/rdf-schema#comment"),
        Term::string("bumped"),
    ));
    Generations {
        before,
        after: store.snapshot(),
    }
}

// ------------------------------------------------------- sparql, core, exec

fn sparql_texts(deck: &Deck, class: Class) -> Vec<&str> {
    deck.requests
        .iter()
        .filter(|r| r.class == class)
        .filter_map(|r| match &r.call {
            Call::Sparql(q) => Some(q.as_str()),
            _ => None,
        })
        .collect()
}

fn query_layers(cx: &Context<'_>, deck: &Deck, generations: &Generations, m: &mut Metrics) {
    let snapshot = cx.platform.store_snapshot();
    let points = sparql_texts(deck, Class::Point);

    // sparql: the three ways a text meets the plan cache
    let cold: Vec<f64> = points
        .iter()
        .map(|q| {
            let cache = PlanCache::new();
            us(|| cache.prepare(q).expect("query parses")).1
        })
        .collect();
    m.set("sparql.prepare_cold_us", median(&cold), cold.len());
    let cache = PlanCache::new();
    cache.prepare(points[0]).expect("query parses");
    let shape: Vec<f64> = points[1..]
        .iter()
        .map(|q| us(|| cache.prepare(q).expect("query parses")).1)
        .collect();
    m.set("sparql.prepare_shape_hit_us", median(&shape), shape.len());
    let text: Vec<f64> = points
        .iter()
        .map(|q| us(|| cache.prepare(q).expect("query parses")).1)
        .collect();
    m.set("sparql.prepare_text_hit_us", median(&text), text.len());

    // the same text one generation later: compiled again, not parsed again
    let recompile: Vec<f64> = points
        .iter()
        .map(|q| {
            let prepared = cache.prepare(q).expect("query parses");
            prepared.execute(&generations.before).expect("query runs");
            let (_, hot) = us(|| prepared.execute(&generations.before).expect("query runs"));
            let (_, new) = us(|| prepared.execute(&generations.after).expect("query runs"));
            new - hot
        })
        .collect();
    m.set("sparql.recompile_us", median(&recompile), recompile.len());

    // sparql execution and core's share on top of it, per class
    let (mut merge, mut probe, mut leapfrog) = (0, 0, 0);
    let mut execute_us: HashMap<Class, f64> = HashMap::new();
    for class in SPARQL {
        let texts = sparql_texts(deck, class);
        let mut times = Vec::new();
        let (mut scans, mut rows) = (0u64, 0u64);
        for q in &texts {
            let prepared = cache.prepare(q).expect("query parses");
            prepared.execute(&snapshot).expect("query runs");
            // the star class has one text: repeat it
            for _ in 0..REPLAYS.div_ceil(texts.len()) {
                times.push(us(|| prepared.execute(&snapshot).expect("query runs")).1);
            }
            let explain = cx.platform.explain(q).expect("query explains");
            scans += explain.patterns.iter().map(|p| p.scans).sum::<u64>();
            rows += explain.rows as u64;
            if std::ptr::eq(*q, texts[0]) {
                merge += explain.merge_joins;
                probe += explain.probe_joins;
                leapfrog += explain.leapfrog_joins;
            }
        }
        let name = class.name();
        m.set(
            &format!("sparql.execute_us.{name}"),
            median(&times),
            times.len(),
        );
        m.set(
            &format!("sparql.scans_per_row_out.{name}"),
            scans as f64 / rows.max(1) as f64,
            rows as usize,
        );
        execute_us.insert(class, median(&times));
    }
    // join operators one request of each SPARQL class executes (exact)
    m.set("sparql.ops.merge", merge as f64, 1);
    m.set("sparql.ops.probe", probe as f64, 1);
    m.set("sparql.ops.leapfrog", leapfrog as f64, 1);

    let source = Source::Platform(cx.platform);
    for class in [
        Class::Point,
        Class::Star,
        Class::Unionable,
        Class::Joinable,
        Class::Search,
    ] {
        let requests: Vec<&Request> = deck.requests.iter().filter(|r| r.class == class).collect();
        let mut times = Vec::new();
        for r in &requests {
            source.answer(r).expect("request answers");
            for _ in 0..REPLAYS.div_ceil(requests.len()) {
                times.push(us(|| source.answer(r).expect("request answers")).1);
            }
        }
        let name = class.name();
        match execute_us.get(&class) {
            Some(execute) => {
                m.set(
                    &format!("core.query_us.{name}"),
                    median(&times),
                    times.len(),
                );
                // prepare, frame and governance: what core adds to sparql
                m.set(
                    &format!("core.frame_overhead_us.{name}"),
                    median(&times) - execute,
                    times.len(),
                );
            }
            None => m.set(
                &format!("core.discovery_us.{name}"),
                median(&times),
                times.len(),
            ),
        }
    }

    // exec: the star query with a governor armed against an unarmed run
    let star = cache
        .prepare(sparql_texts(deck, Class::Star)[0])
        .expect("query parses");
    let armed = EvalOptions {
        deadline: Some(Duration::from_secs(60)),
        memory_budget: Some(1 << 40),
        ..EvalOptions::default()
    };
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        without.push(us(|| star.execute(&snapshot).expect("query runs")).1);
        with.push(us(|| star.execute_with(&snapshot, armed).expect("query runs")).1);
    }
    m.set(
        "exec.governor_overhead_ratio",
        median(&with) / median(&without),
        REPLAYS,
    );
}

// ---------------------------------------------------------------- server

/// The bytes the blocking client puts on the wire for one request.
fn wire_bytes(request: &Request) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        request.class.path(),
        request.body.len(),
        request.body
    )
    .into_bytes()
}

fn wire_layers(
    cx: &Context<'_>,
    deck: &Deck,
    trace: &Trace,
    me: Option<SpanId>,
    out: &mut Outcome,
) {
    let server = start_server(Backend::Platform(Arc::clone(cx.platform)));
    let mut client = Client::connect(server.addr().to_string());
    let source = Source::Platform(cx.platform);
    let (mut parses, mut decodes, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    let mut id = 0;
    for class in REPLAYED {
        let name = class.name();
        let requests: Vec<&Request> = deck.requests.iter().filter(|r| r.class == class).collect();
        let (mut round_trips, mut handlers, mut client_decodes) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut class_parses, mut class_decodes, mut class_writes) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut cores, mut encodes, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..REPLAYS {
            let request = requests[k % requests.len()];
            id += 1;
            trace.span(&format!("replay.{name}"), me, id, |span| {
                // over the wire, unloaded: round trip and the server's own time
                let path = request.class.path();
                let _ = client.request_raw("POST", path, &request.body);
                let (reply, rt) = trace.span("wire.round_trip", span, id, |_| {
                    us(|| client.request_raw("POST", path, &request.body))
                });
                let served = reply.ok().filter(|(status, _)| *status == 200);
                out.check(served.is_some(), || {
                    format!("replay of a {name} request failed")
                });
                let Some((_, body)) = served else { return };
                let Some(parts) = split_body(&body) else {
                    return;
                };
                round_trips.push(rt);
                handlers.push(parts.elapsed_us as f64);

                // in process, step by step
                let raw = wire_bytes(request);
                let (parsed, t) = trace.span("server.http.read_request", span, id, |_| {
                    us(|| http::read_request(&mut BufReader::new(raw.as_slice()), 1 << 20))
                });
                class_parses.push(t);
                let text =
                    String::from_utf8(parsed.expect("request parses").body).expect("body is UTF-8");
                let (_, t) = trace.span("server.json.decode_request", span, id, |_| {
                    us(|| match request.call {
                        Call::Sparql(_) => serde_json::from_str::<QueryRequest>(&text).map(|_| ()),
                        _ => serde_json::from_str::<TableHitsRequest>(&text).map(|_| ()),
                    })
                });
                class_decodes.push(t);
                let (answer, t) = trace.span("core.answer", span, id, |_| {
                    us(|| source.answer(request).expect("request answers"))
                });
                cores.push(t);
                let response = Answer::into_wire(answer);
                let (encoded, t) = trace.span("server.json.encode_response", span, id, |_| {
                    us(|| response.to_json())
                });
                encodes.push(t);
                bytes.push(encoded.len() as f64);
                let (_, t) = trace.span("server.http.write_response", span, id, |_| {
                    us(|| {
                        let mut sink = Vec::with_capacity(encoded.len() + 128);
                        http::write_response(&mut sink, 200, &encoded, true)
                    })
                });
                class_writes.push(t);
                // what the typed client adds on its side, outside any loop
                if k < DECODES {
                    let (decoded, t) = us(|| response.decode_like(&body));
                    out.check(decoded.is_ok(), || {
                        format!("typed decode of a {name} body failed")
                    });
                    client_decodes.push(t);
                }
            });
        }
        let m = &mut out.metrics;
        let handler = median(&handlers);
        let round_trip = median(&round_trips);
        m.set(
            &format!("server.handler_us.{name}"),
            handler,
            handlers.len(),
        );
        m.set(
            &format!("server.wire_overhead_us.{name}"),
            round_trip - handler,
            round_trips.len(),
        );
        m.set(
            &format!("server.json_encode_resp_us.{name}"),
            median(&encodes),
            encodes.len(),
        );
        m.set(
            &format!("server.resp_bytes.{name}"),
            median(&bytes),
            bytes.len(),
        );
        m.set(
            &format!("server.client_decode_us.{name}"),
            median(&client_decodes),
            client_decodes.len(),
        );
        // budget closure: the in-process steps against the unloaded round trip
        let steps = [
            ("http parse", median(&class_parses)),
            ("json decode", median(&class_decodes)),
            ("handler core", median(&cores)),
            ("json encode", median(&encodes)),
            ("http write", median(&class_writes)),
        ];
        let sum: f64 = steps.iter().map(|(_, t)| t).sum();
        m.set(
            &format!("server.unattributed_us.{name}"),
            round_trip - sum,
            round_trips.len(),
        );
        let parts: Vec<String> = steps
            .iter()
            .map(|(what, t)| format!("{what} {t:.0}"))
            .collect();
        println!(
            "budget {name}: {} = {sum:.0} us in process; client saw {round_trip:.0} us unloaded \
             (server's own time {handler:.0}, unattributed {:.0}), {:.0} us under the workload's \
             load; the typed client's decode adds {:.0} us",
            parts.join(" + "),
            round_trip - sum,
            cx.observed.get(&class).copied().unwrap_or(0.0),
            median(&client_decodes),
        );
        parses.extend(class_parses);
        decodes.extend(class_decodes);
        writes.extend(class_writes);
    }
    let m = &mut out.metrics;
    m.set("server.http_parse_us", median(&parses), parses.len());
    m.set("server.json_decode_req_us", median(&decodes), decodes.len());
    m.set("server.http_write_us", median(&writes), writes.len());
    server.shutdown();
}
