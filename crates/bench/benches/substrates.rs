//! Microbenchmarks on the platform substrates: the RDF store, the SPARQL
//! engine, the HNSW index, and the CoLR encoders.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lids_embed::{ColrModels, FineGrainedType};
use lids_rdf::{Quad, QuadPattern, QuadStore, Term};
use lids_vector::{BruteForceIndex, HnswConfig, HnswIndex, Metric, VectorIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn store_with(n: usize) -> QuadStore {
    let mut store = QuadStore::new();
    for i in 0..n {
        store.insert(&Quad::new(
            Term::iri(format!("http://s/{}", i % (n / 10 + 1))),
            Term::iri(format!("http://p/{}", i % 16)),
            Term::iri(format!("http://o/{i}")),
        ));
    }
    store
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdf_store");
    group.bench_function("insert_10k", |b| {
        b.iter(|| black_box(store_with(10_000)))
    });
    let store = store_with(50_000);
    group.bench_function("predicate_scan", |b| {
        b.iter(|| {
            let n = store
                .match_encoded(&QuadPattern::any().with_predicate(Term::iri("http://p/3")))
                .count();
            black_box(n)
        })
    });
    group.bench_function("subject_lookup", |b| {
        b.iter(|| {
            let n = store
                .match_encoded(&QuadPattern::any().with_subject(Term::iri("http://s/7")))
                .count();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_sparql(c: &mut Criterion) {
    let store = store_with(50_000);
    let mut group = c.benchmark_group("sparql");
    group.bench_function("bgp_join", |b| {
        b.iter(|| {
            let r = lids_sparql::query(
                &store,
                "SELECT ?s ?o WHERE { ?s <http://p/3> ?o . ?s <http://p/4> ?o2 . } LIMIT 50",
            )
            .unwrap();
            black_box(r.len())
        })
    });
    group.bench_function("count_group", |b| {
        b.iter(|| {
            let r = lids_sparql::query(
                &store,
                "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n) LIMIT 5",
            )
            .unwrap();
            black_box(r.len())
        })
    });
    group.finish();
}

fn bench_vector(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let dim = 300;
    let vectors: Vec<Vec<f32>> = (0..2000)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mut group = c.benchmark_group("vector_index");
    for (name, k) in [("hnsw", 10usize)] {
        let mut hnsw = HnswIndex::new(dim, HnswConfig::default());
        let mut brute = BruteForceIndex::new(dim, Metric::Cosine);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u64, v);
            brute.add(i as u64, v);
        }
        let query = &vectors[0];
        group.bench_with_input(BenchmarkId::new(name, "query"), &k, |b, &k| {
            b.iter(|| black_box(hnsw.search(query, k)))
        });
        group.bench_with_input(BenchmarkId::new("brute", "query"), &k, |b, &k| {
            b.iter(|| black_box(brute.search(query, k)))
        });
    }
    group.finish();
}

fn bench_colr(c: &mut Criterion) {
    let models = ColrModels::pretrained();
    let values: Vec<String> = (0..500).map(|i| format!("{}", i * 37 % 1000)).collect();
    let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
    c.bench_function("colr_embed_column_500_values", |b| {
        b.iter(|| {
            black_box(models.embed_column(FineGrainedType::Int, refs.iter().copied()))
        })
    });
}

/// Ablation: cardinality-based join ordering vs textual order. The query
/// lists an unselective pattern first; the planner must move the selective
/// one ahead of it.
fn bench_join_ordering(c: &mut Criterion) {
    let store = store_with(50_000);
    let query = lids_sparql::parse_query(
        "SELECT ?s ?o2 WHERE { ?s ?p ?o . ?s <http://p/3> ?o2 . ?o2 <http://p/4> ?o3 . } LIMIT 20",
    )
    .unwrap();
    let mut group = c.benchmark_group("sparql_join_ordering");
    group.bench_function("greedy_reordering", |b| {
        b.iter(|| {
            black_box(
                lids_sparql::evaluate_with(
                    &store,
                    &query,
                    lids_sparql::EvalOptions { reorder_joins: true, ..Default::default() },
                )
                .unwrap()
                .len(),
            )
        })
    });
    group.bench_function("textual_order", |b| {
        b.iter(|| {
            black_box(
                lids_sparql::evaluate_with(
                    &store,
                    &query,
                    lids_sparql::EvalOptions { reorder_joins: false, ..Default::default() },
                )
                .unwrap()
                .len(),
            )
        })
    });
    group.finish();
}

/// Discovery-shaped star join over column profiles (the access pattern of
/// `KgLids::search_tables`): a hub column variable fanning out to several
/// property patterns, a join up to the table level, and a numeric filter.
/// The executor is compared against the retained decoded reference
/// evaluator on the same parsed query.
fn bench_discovery_star_join(c: &mut Criterion) {
    let mut store = QuadStore::new();
    let pred = |p: &str| Term::iri(format!("http://kglids/{p}"));
    for t in 0..200usize {
        let table = Term::iri(format!("http://table/{t}"));
        store.insert(&Quad::new(
            table.clone(),
            pred("dataset"),
            Term::iri(format!("http://dataset/{}", t % 10)),
        ));
        for col in 0..25usize {
            let column = Term::iri(format!("http://table/{t}/col/{col}"));
            store.insert(&Quad::new(column.clone(), pred("type"), pred("Column")));
            store.insert(&Quad::new(
                column.clone(),
                pred("name"),
                Term::string(format!("col_{col}")),
            ));
            store.insert(&Quad::new(
                column.clone(),
                pred("dtype"),
                Term::iri(format!("http://kglids/dt/{}", col % 5)),
            ));
            store.insert(&Quad::new(column.clone(), pred("table"), table.clone()));
            store.insert(&Quad::new(
                column,
                pred("distinct"),
                Term::integer(((t * 25 + col) % 1000) as i64),
            ));
        }
    }
    let query_text = "SELECT ?c ?n ?tbl ?d WHERE { \
           ?c <http://kglids/type> <http://kglids/Column> . \
           ?c <http://kglids/name> ?n . \
           ?c <http://kglids/dtype> <http://kglids/dt/2> . \
           ?c <http://kglids/table> ?tbl . \
           ?tbl <http://kglids/dataset> ?d . \
           ?c <http://kglids/distinct> ?dc . FILTER(?dc > 900) }";
    let query = lids_sparql::parse_query(query_text).unwrap();
    let mut group = c.benchmark_group("sparql_discovery_star_join");
    // the executor (merge/probe/leapfrog) on the pre-parsed query
    group.bench_function("executor", |b| {
        b.iter(|| black_box(lids_sparql::evaluate(&store, &query).unwrap().len()))
    });
    // full end-to-end path through the plan cache: text hit, compiled
    // plan reused, execution
    group.bench_function("cached_plan", |b| {
        let cache = lids_sparql::PlanCache::new();
        cache.prepare(query_text).unwrap();
        b.iter(|| {
            let prepared = cache.prepare(query_text).unwrap();
            black_box(prepared.execute(&store).unwrap().len())
        })
    });
    group.bench_function("reference_decoded", |b| {
        b.iter(|| {
            black_box(lids_sparql::reference::evaluate(&store, &query).unwrap().len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_sparql,
    bench_vector,
    bench_colr,
    bench_join_ordering,
    bench_discovery_star_join
);
criterion_main!(benches);
