//! SPARQL engine conformance: evaluator results cross-checked against a
//! naive reference evaluation on randomly generated graphs.

use kglids_repro::rdf::{GraphName, Quad, QuadStore, Term};
use kglids_repro::sparql;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small graph: subjects s0..s5, predicates p0..p3, objects o0..o5.
fn random_store(seed: u64, quads: usize) -> QuadStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = QuadStore::new();
    for _ in 0..quads {
        store.insert(&Quad::new(
            Term::iri(format!("s{}", rng.gen_range(0..6))),
            Term::iri(format!("p{}", rng.gen_range(0..4))),
            Term::iri(format!("o{}", rng.gen_range(0..6))),
        ));
    }
    store
}

/// Naive reference: `?x p0 ?y . ?y p1 ?z` by double loop.
fn naive_two_hop(store: &QuadStore) -> usize {
    let all: Vec<Quad> = store.iter().collect();
    let mut count = 0;
    for a in &all {
        if a.predicate != Term::iri("p0") {
            continue;
        }
        for b in &all {
            if b.predicate == Term::iri("p1") && b.subject == a.object {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_two_hop_join_matches_naive(seed in 0u64..500, quads in 5usize..60) {
        let store = random_store(seed, quads);
        let solutions = sparql::query(
            &store,
            "SELECT ?x ?y ?z WHERE { ?x <p0> ?y . ?y <p1> ?z . }",
        ).unwrap();
        prop_assert_eq!(solutions.len(), naive_two_hop(&store));
    }

    #[test]
    fn prop_distinct_never_exceeds_plain(seed in 0u64..200) {
        let store = random_store(seed, 40);
        let plain = sparql::query(&store, "SELECT ?x WHERE { ?x ?p ?o . }").unwrap();
        let distinct = sparql::query(&store, "SELECT DISTINCT ?x WHERE { ?x ?p ?o . }").unwrap();
        prop_assert!(distinct.len() <= plain.len());
        prop_assert_eq!(plain.len(), store.len());
    }

    #[test]
    fn prop_count_matches_row_count(seed in 0u64..200) {
        let store = random_store(seed, 30);
        let rows = sparql::query(&store, "SELECT ?x ?o WHERE { ?x <p2> ?o . }").unwrap();
        let count = sparql::query(
            &store,
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x <p2> ?o . }",
        ).unwrap();
        prop_assert_eq!(count.get_f64(0, "n").unwrap() as usize, rows.len());
    }

    #[test]
    fn prop_union_is_sum_when_branches_disjoint(seed in 0u64..200) {
        let store = random_store(seed, 40);
        let a = sparql::query(&store, "SELECT ?x WHERE { ?x <p0> ?o . }").unwrap();
        let b = sparql::query(&store, "SELECT ?x WHERE { ?x <p1> ?o . }").unwrap();
        let u = sparql::query(
            &store,
            "SELECT ?x WHERE { { ?x <p0> ?o . } UNION { ?x <p1> ?o . } }",
        ).unwrap();
        prop_assert_eq!(u.len(), a.len() + b.len());
    }

    #[test]
    fn prop_limit_truncates(seed in 0u64..100, limit in 1usize..10) {
        let store = random_store(seed, 50);
        let all = sparql::query(&store, "SELECT ?x WHERE { ?x ?p ?o . }").unwrap();
        let limited = sparql::query(
            &store,
            &format!("SELECT ?x WHERE {{ ?x ?p ?o . }} LIMIT {limit}"),
        ).unwrap();
        prop_assert_eq!(limited.len(), all.len().min(limit));
    }

    #[test]
    fn prop_filter_partition(seed in 0u64..100) {
        // FILTER(c) + FILTER(!c) partition the solutions
        let store = random_store(seed, 40);
        let all = sparql::query(&store, "SELECT ?x ?o WHERE { ?x <p0> ?o . }").unwrap();
        let yes = sparql::query(
            &store,
            r#"SELECT ?x ?o WHERE { ?x <p0> ?o . FILTER(CONTAINS(STR(?o), "o1")) }"#,
        ).unwrap();
        let no = sparql::query(
            &store,
            r#"SELECT ?x ?o WHERE { ?x <p0> ?o . FILTER(!CONTAINS(STR(?o), "o1")) }"#,
        ).unwrap();
        prop_assert_eq!(yes.len() + no.len(), all.len());
    }
}

#[test]
fn optional_left_join_semantics() {
    let mut store = QuadStore::new();
    store.insert(&Quad::new(Term::iri("a"), Term::iri("p"), Term::iri("x")));
    store.insert(&Quad::new(Term::iri("b"), Term::iri("p"), Term::iri("y")));
    store.insert(&Quad::new(Term::iri("x"), Term::iri("q"), Term::integer(1)));
    let s = sparql::query(
        &store,
        "SELECT ?s ?v WHERE { ?s <p> ?o . OPTIONAL { ?o <q> ?v . } } ORDER BY ?s",
    )
    .unwrap();
    assert_eq!(s.len(), 2);
    assert_eq!(s.get_f64(0, "v"), Some(1.0)); // a→x→1
    assert!(s.get(1, "v").is_none()); // b→y has no q
}

#[test]
fn named_graph_isolation() {
    let mut store = QuadStore::new();
    for g in ["g1", "g2", "g3"] {
        store.insert(&Quad::in_graph(
            Term::iri(format!("{g}-s")),
            Term::iri("p"),
            Term::iri("o"),
            GraphName::named(g),
        ));
    }
    let per_graph = sparql::query(
        &store,
        "SELECT ?s WHERE { GRAPH <g2> { ?s <p> ?o . } }",
    )
    .unwrap();
    assert_eq!(per_graph.len(), 1);
    assert_eq!(per_graph.get_str(0, "s").as_deref(), Some("g2-s"));

    let graphs = sparql::query(
        &store,
        "SELECT DISTINCT ?g WHERE { GRAPH ?g { ?s <p> ?o . } } ORDER BY ?g",
    )
    .unwrap();
    assert_eq!(graphs.len(), 3);
}

/// `GRAPH ?g { ?g <p> ?o }`: a quad that binds `?g` in its subject
/// matches only when that subject is the quad's own graph — on the
/// executor and on the reference alike.
#[test]
fn graph_variable_agrees_with_its_node_binding() {
    let mut store = QuadStore::new();
    for (g, s, o) in [("g1", "g2", "o"), ("g3", "g3", "o3")] {
        store.insert(&Quad::in_graph(
            Term::iri(s),
            Term::iri("p"),
            Term::iri(o),
            GraphName::named(g),
        ));
    }
    let text = "SELECT ?g ?o WHERE { GRAPH ?g { ?g <p> ?o } }";
    let rows = |s: &sparql::Solutions| -> Vec<(String, String)> {
        (0..s.len())
            .map(|i| {
                let cell = |name| s.get_str(i, name).unwrap_or_default().into_owned();
                (cell("g"), cell("o"))
            })
            .collect()
    };
    let expected = vec![("g3".to_string(), "o3".to_string())];
    assert_eq!(rows(&sparql::query(&store, text).unwrap()), expected);
    let oracle =
        sparql::reference::evaluate(&store, &sparql::parse_query(text).unwrap()).unwrap();
    assert_eq!(rows(&oracle), expected);
}

#[test]
fn aggregate_group_ordering() {
    let mut store = QuadStore::new();
    for (s, lib) in [("a", "pandas"), ("b", "pandas"), ("c", "numpy"), ("d", "pandas"), ("e", "numpy"), ("f", "scipy")] {
        store.insert(&Quad::new(Term::iri(s), Term::iri("calls"), Term::iri(lib)));
    }
    let s = sparql::query(
        &store,
        "SELECT ?lib (COUNT(?s) AS ?n) WHERE { ?s <calls> ?lib . } \
         GROUP BY ?lib ORDER BY DESC(?n) LIMIT 2",
    )
    .unwrap();
    assert_eq!(s.len(), 2);
    assert_eq!(s.get_str(0, "lib").as_deref(), Some("pandas"));
    assert_eq!(s.get_f64(0, "n"), Some(3.0));
    assert_eq!(s.get_f64(1, "n"), Some(2.0));
}
