//! SPARQL evaluator edge cases beyond the unit suite: nested OPTIONALs,
//! filters inside optional groups, unions with shared variables, and
//! aggregate/modifier interactions.

use lids_rdf::{GraphName, Quad, QuadStore, Term};
use lids_sparql::query;

fn store() -> QuadStore {
    let mut s = QuadStore::new();
    let t = |a: &str, p: &str, b: &str| Quad::new(Term::iri(a), Term::iri(p), Term::iri(b));
    s.insert(&t("a", "knows", "b"));
    s.insert(&t("b", "knows", "c"));
    s.insert(&t("c", "knows", "a"));
    s.insert(&Quad::new(Term::iri("a"), Term::iri("age"), Term::integer(30)));
    s.insert(&Quad::new(Term::iri("b"), Term::iri("age"), Term::integer(40)));
    s.insert(&Quad::new(Term::iri("a"), Term::iri("name"), Term::string("alice")));
    s
}

#[test]
fn nested_optionals() {
    let s = store();
    let r = query(
        &s,
        "SELECT ?x ?age ?name WHERE { \
            ?x <knows> ?y . \
            OPTIONAL { ?x <age> ?age . OPTIONAL { ?x <name> ?name . } } \
         } ORDER BY ?x",
    )
    .unwrap();
    assert_eq!(r.len(), 3);
    // a: age + name; b: age only; c: neither
    assert_eq!(r.get_f64(0, "age"), Some(30.0));
    assert_eq!(r.get_str(0, "name").as_deref(), Some("alice"));
    assert_eq!(r.get_f64(1, "age"), Some(40.0));
    assert!(r.get(1, "name").is_none());
    assert!(r.get(2, "age").is_none());
    assert!(r.get(2, "name").is_none());
}

#[test]
fn filter_inside_optional_scopes_locally() {
    let s = store();
    // the filter only constrains the optional part: rows keep their base
    // bindings even when the optional fails the filter
    let r = query(
        &s,
        "SELECT ?x ?age WHERE { \
            ?x <knows> ?y . \
            OPTIONAL { ?x <age> ?age . FILTER(?age > 35) } \
         } ORDER BY ?x",
    )
    .unwrap();
    assert_eq!(r.len(), 3);
    assert!(r.get(0, "age").is_none()); // a's age 30 fails the filter
    assert_eq!(r.get_f64(1, "age"), Some(40.0));
}

#[test]
fn union_branches_share_variables() {
    let s = store();
    let r = query(
        &s,
        "SELECT ?x ?v WHERE { \
            ?x <knows> ?y . \
            { ?x <age> ?v . } UNION { ?x <name> ?v . } \
         } ORDER BY ?x",
    )
    .unwrap();
    // a: age + name = 2 rows; b: age = 1 row; c: none
    assert_eq!(r.len(), 3);
}

#[test]
fn aggregates_with_order_and_offset() {
    let s = store();
    let r = query(
        &s,
        "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <knows> ?y . } \
         GROUP BY ?x ORDER BY ?x LIMIT 2 OFFSET 1",
    )
    .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.get_str(0, "x").as_deref(), Some("b"));
}

#[test]
fn cyclic_joins_terminate() {
    let s = store();
    // the knows-relation is a 3-cycle; a triangle query finds it 3 times
    let r = query(
        &s,
        "SELECT ?a ?b ?c WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?a . }",
    )
    .unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn graph_and_default_interplay() {
    let mut s = store();
    s.insert(&Quad::in_graph(
        Term::iri("stmt"),
        Term::iri("calls"),
        Term::iri("lib"),
        GraphName::named("pipe1"),
    ));
    // join a named-graph pattern with a default-graph pattern
    s.insert(&Quad::new(Term::iri("pipe1"), Term::iri("votes"), Term::integer(9)));
    let r = query(
        &s,
        "SELECT ?g ?v WHERE { GRAPH ?g { ?s <calls> ?lib . } ?g <votes> ?v . }",
    )
    .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.get_f64(0, "v"), Some(9.0));
}

#[test]
fn empty_group_yields_unit_solution() {
    let s = store();
    let r = query(&s, "SELECT (COUNT(*) AS ?n) WHERE { }").unwrap();
    // empty BGP = one empty solution; COUNT(*) = 1
    assert_eq!(r.get_f64(0, "n"), Some(1.0));
}

#[test]
fn select_star_projects_all_variables() {
    let s = store();
    let r = query(&s, "SELECT * WHERE { ?x <knows> ?y . }").unwrap();
    assert_eq!(r.columns, vec!["x".to_string(), "y".to_string()]);
    assert_eq!(r.len(), 3);
}

#[test]
fn ask_with_filter() {
    let s = store();
    assert!(query(&s, "ASK { ?x <age> ?a . FILTER(?a > 35) }").unwrap().ask.unwrap());
    assert!(!query(&s, "ASK { ?x <age> ?a . FILTER(?a > 99) }").unwrap().ask.unwrap());
}

#[test]
fn numeric_comparison_across_datatypes() {
    let mut s = store();
    s.insert(&Quad::new(Term::iri("d"), Term::iri("age"), Term::double(35.5)));
    // integer and double literals compare numerically
    let r = query(&s, "SELECT ?x WHERE { ?x <age> ?a . FILTER(?a >= 35.5) } ORDER BY ?x").unwrap();
    assert_eq!(r.len(), 2); // b (40 int) and d (35.5 double)
}

/// Five subjects inserted in an order that is not their age order.
fn ages() -> QuadStore {
    let mut s = QuadStore::new();
    for (i, age) in [50, 10, 30, 20, 40].into_iter().enumerate() {
        s.insert(&Quad::new(
            Term::iri(format!("x{}", i + 1)),
            Term::iri("age"),
            Term::integer(age),
        ));
    }
    s
}

fn xs(r: &lids_sparql::Solutions) -> Vec<String> {
    (0..r.len()).map(|i| r.get_str(i, "x").unwrap().into_owned()).collect()
}

#[test]
fn order_by_an_unprojected_variable_sorts() {
    let s = ages();
    // ORDER BY comes before projection: ?a orders the rows although only
    // ?x leaves
    let r = query(&s, "SELECT ?x WHERE { ?x <age> ?a } ORDER BY ?a").unwrap();
    assert_eq!(xs(&r), ["x2", "x4", "x3", "x5", "x1"]);
    let both = query(&s, "SELECT ?x ?a WHERE { ?x <age> ?a } ORDER BY ?a").unwrap();
    assert_eq!(xs(&both), xs(&r));
    let oracle = lids_sparql::reference::evaluate(
        &s,
        &lids_sparql::parse_query("SELECT ?x WHERE { ?x <age> ?a } ORDER BY ?a").unwrap(),
    )
    .unwrap();
    assert_eq!(xs(&oracle), xs(&r));
}

#[test]
fn order_by_an_unprojected_variable_picks_the_limit() {
    let s = ages();
    let text = "SELECT ?x WHERE { ?x <age> ?a } ORDER BY DESC(?a) LIMIT 2";
    let r = query(&s, text).unwrap();
    assert_eq!(xs(&r), ["x1", "x5"]);
    let oracle =
        lids_sparql::reference::evaluate(&s, &lids_sparql::parse_query(text).unwrap()).unwrap();
    assert_eq!(xs(&oracle), ["x1", "x5"]);
}
