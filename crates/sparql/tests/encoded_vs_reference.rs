//! Differential property tests: the executor must agree with the naive
//! decoded reference engine on randomly generated stores and queries.
//!
//! Per case, with join reordering on and off (the two plans over the same
//! operators):
//! - exact evaluation returns the reference's rows as a multiset (row
//!   order is the operators' business, not the query's);
//! - under a row cap `k` the rows are a sub-multiset of the exact answer
//!   and at most `k`, `truncated` is set whenever rows are missing, and an
//!   unset `truncated` means the exact multiset.
//!
//! Queries avoid DISTINCT/ORDER BY/LIMIT/OFFSET so the raw row stream is
//! comparable; those modifiers run in code shared by both engines anyway.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use lids_exec::QueryLimits;
use lids_rdf::{GraphName, Quad, QuadStore, Term};
use lids_sparql::{evaluate_with, parse_query, reference, EvalOptions, Solutions};

/// Release runs (`scripts/check.sh`) are an order of magnitude faster per
/// case, so they draw that many more.
const CASES: u32 = if cfg!(debug_assertions) { 192 } else { 20_000 };

/// Logical bytes the reference engine may bind per case; a query that
/// needs more (a cartesian product over a large store) is skipped, not run.
const REFERENCE_BUDGET: u64 = 4 << 20;

/// `(subject, predicate, object-kind, object-index, graph)` — rendered as
/// `node(s) p{p} (node(oi) | int oi)` in the default graph or `g{g}`.
type QuadSpec = (u8, u8, u8, u8, u8);

/// `(a, b, score, extras)` — `<< node(a) <sim> node(b) >> <score> {score}`,
/// and by `extras` the plain edge `node(a) <sim> node(b)`, a nested
/// annotation `<< << a <sim> b >> <by> node(extras) >> <conf> {score}` and
/// the quoted triple in object position, `node(extras) <about> << … >>`.
type EdgeSpec = (u8, u8, u8, u8);

/// `(subject, predicate, object)` node selectors for one triple pattern.
#[derive(Debug, Clone, Copy)]
struct TripleSpec {
    s: (u8, u8),
    p: (u8, u8),
    o: (u8, u8),
}

#[derive(Debug, Clone)]
enum ElemSpec {
    Triple(TripleSpec),
    /// `?a <sim> ?b .` — the plain edge beside its annotation, so a quoted
    /// pattern can arrive with both constituents bound.
    Sim(u8, u8),
    /// Quoted-subject annotation pattern; `a`/`b` select const-or-var
    /// inner nodes, the score is always a variable.
    Quoted(u8, u8, u8),
    /// `<< << a <sim> b >> <by> c >> <conf> ?v .`
    Nested(u8, u8, u8, u8),
    /// `?x <about> << a <sim> b >> .` — quoted pattern in object position.
    About(u8, u8, u8),
    /// `(kind, var, operand)`.
    Filter(u8, u8, u8),
    Optional(Vec<ElemSpec>),
    /// `(scope selector, inner group)`.
    Graph(u8, Vec<ElemSpec>),
    Union(Vec<Vec<ElemSpec>>),
}

/// Node IRIs: six plain nodes and the two graph names, so a variable bound
/// by a triple pattern can arrive at `GRAPH ?g` naming a graph.
fn node(idx: u8) -> String {
    match idx % 8 {
        6 => "g1".to_string(),
        7 => "g2".to_string(),
        i => format!("n{i}"),
    }
}

fn object_term(okind: u8, oidx: u8) -> Term {
    if okind == 0 {
        Term::iri(node(oidx))
    } else {
        Term::integer(i64::from(oidx % 6))
    }
}

fn build_store(quads: &[QuadSpec], edges: &[EdgeSpec]) -> QuadStore {
    let mut store = QuadStore::new();
    for &(s, p, okind, oidx, g) in quads {
        let graph = match g % 3 {
            0 => GraphName::Default,
            gi => GraphName::named(format!("g{gi}")),
        };
        store.insert(&Quad::in_graph(
            Term::iri(node(s)),
            Term::iri(format!("p{}", p % 4)),
            object_term(okind, oidx),
            graph,
        ));
    }
    for &(a, b, v, extras) in edges {
        let edge = Term::quoted(Term::iri(node(a)), Term::iri("sim"), Term::iri(node(b)));
        let score = Term::integer(i64::from(v % 8));
        store.insert(&Quad::new(edge.clone(), Term::iri("score"), score.clone()));
        if extras % 2 == 0 {
            store.insert(&Quad::new(Term::iri(node(a)), Term::iri("sim"), Term::iri(node(b))));
        }
        if extras % 3 == 0 {
            store.insert(&Quad::new(
                Term::quoted(edge.clone(), Term::iri("by"), Term::iri(node(extras))),
                Term::iri("conf"),
                score,
            ));
        }
        if extras % 5 == 0 {
            store.insert(&Quad::new(Term::iri(node(extras)), Term::iri("about"), edge));
        }
    }
    store
}

fn var(idx: u8) -> String {
    format!("?v{}", idx % 4)
}

/// Renders query text. Inside `GRAPH ?g { … }` the node positions of
/// patterns keep clear of `?g`: the reference (and the executor, which
/// mirrors it) binds `?g` from the quad's graph *after* its node positions,
/// overwriting what they bound, so a multi-pattern group that also uses `?g`
/// as a node answers by pattern order — nothing to hold a second plan to.
#[derive(Clone, Copy)]
struct Render {
    /// Variable index of the enclosing `GRAPH ?g` scope, if any.
    scope: Option<u8>,
}

impl Render {
    /// A variable for a pattern's node position.
    fn node_var(self, idx: u8) -> String {
        match self.scope {
            Some(g) if idx % 4 == g % 4 => var(idx + 1),
            _ => var(idx),
        }
    }

    fn subject_node(self, (kind, idx): (u8, u8)) -> String {
        match kind % 3 {
            0 | 1 => self.node_var(idx),
            _ => format!("<{}>", node(idx)),
        }
    }

    fn predicate_node(self, (kind, idx): (u8, u8)) -> String {
        match kind % 3 {
            0 | 1 => format!("<p{}>", idx % 4),
            _ => self.node_var(idx),
        }
    }

    fn object_node(self, (kind, idx): (u8, u8)) -> String {
        match kind % 4 {
            0 | 1 => self.node_var(idx),
            2 => format!("<{}>", node(idx)),
            _ => format!("{}", idx % 6),
        }
    }

    /// Const-or-var selector for quoted inner nodes: 0..8 a constant, 8..12
    /// a variable.
    fn inner_node(self, sel: u8) -> String {
        let sel = sel % 12;
        if sel < 8 {
            format!("<{}>", node(sel))
        } else {
            self.node_var(sel)
        }
    }

    fn triple(self, t: &TripleSpec) -> String {
        format!(
            "{} {} {} .",
            self.subject_node(t.s),
            self.predicate_node(t.p),
            self.object_node(t.o)
        )
    }

    fn group(self, elems: &[ElemSpec]) -> String {
        elems.iter().map(|e| self.elem(e)).collect::<Vec<_>>().join(" ")
    }

    fn elem(self, elem: &ElemSpec) -> String {
        let edge =
            |a: u8, b: u8| format!("<< {} <sim> {} >>", self.inner_node(a), self.inner_node(b));
        let v = |idx: &u8| self.node_var(*idx);
        match elem {
            ElemSpec::Triple(t) => self.triple(t),
            ElemSpec::Sim(a, b) => format!("{} <sim> {} .", v(a), v(b)),
            ElemSpec::Quoted(a, b, x) => format!("{} <score> {} .", edge(*a, *b), v(x)),
            ElemSpec::Nested(a, b, c, x) => {
                format!("<< {} <by> {} >> <conf> {} .", edge(*a, *b), self.inner_node(*c), v(x))
            }
            ElemSpec::About(x, a, b) => format!("{} <about> {} .", v(x), edge(*a, *b)),
            ElemSpec::Filter(kind, x, k) => match kind % 4 {
                0 => format!("FILTER({} = {})", var(*x), var(*k)),
                1 => format!("FILTER({} > {})", var(*x), k % 8),
                2 => format!("FILTER(BOUND({}))", var(*x)),
                _ => format!("FILTER(CONTAINS(STR({}), \"{}\"))", var(*x), k % 6),
            },
            ElemSpec::Optional(inner) => format!("OPTIONAL {{ {} }}", self.group(inner)),
            ElemSpec::Graph(sel, inner) => match sel % 6 {
                0 => format!("GRAPH <g1> {{ {} }}", self.group(inner)),
                1 => format!("GRAPH <g2> {{ {} }}", self.group(inner)),
                // No such graph: the executor answers nothing (SPARQL 18.5),
                // the reference scopes each inner pattern to the missing
                // graph and would keep a row through a group of OPTIONALs
                // alone — so a pattern that must match comes first.
                2 => format!("GRAPH <g9> {{ ?v0 ?v1 ?v2 . {} }}", self.group(inner)),
                s => {
                    let scoped = Render { scope: Some(s - 3) };
                    format!("GRAPH {} {{ {} }}", var(s - 3), scoped.group(inner))
                }
            },
            ElemSpec::Union(branches) => branches
                .iter()
                .map(|b| format!("{{ {} }}", self.group(b)))
                .collect::<Vec<_>>()
                .join(" UNION "),
        }
    }
}

fn render_triple(t: &TripleSpec) -> String {
    Render { scope: None }.triple(t)
}

fn render_query(elems: &[ElemSpec]) -> String {
    format!("SELECT * WHERE {{ {} }}", Render { scope: None }.group(elems))
}

fn triple_spec() -> impl Strategy<Value = TripleSpec> {
    ((0..3u8, 0..8u8), (0..3u8, 0..8u8), (0..4u8, 0..8u8))
        .prop_map(|(s, p, o)| TripleSpec { s, p, o })
}

fn leaf_spec() -> BoxedStrategy<ElemSpec> {
    prop_oneof![
        6 => triple_spec().prop_map(ElemSpec::Triple),
        1 => (0..4u8, 0..4u8).prop_map(|(a, b)| ElemSpec::Sim(a, b)),
        2 => (0..12u8, 0..12u8, 0..4u8).prop_map(|(a, b, v)| ElemSpec::Quoted(a, b, v)),
        1 => (0..12u8, 0..12u8, 0..12u8, 0..4u8)
            .prop_map(|(a, b, c, v)| ElemSpec::Nested(a, b, c, v)),
        1 => (0..4u8, 0..12u8, 0..12u8).prop_map(|(x, a, b)| ElemSpec::About(x, a, b)),
        2 => (0..4u8, 0..4u8, 0..8u8).prop_map(|(kind, x, k)| ElemSpec::Filter(kind, x, k)),
    ]
    .boxed()
}

/// One group element; `depth` bounds how far OPTIONAL, GRAPH and UNION
/// nest inside each other.
fn elem_spec(depth: u32) -> BoxedStrategy<ElemSpec> {
    if depth == 0 {
        return leaf_spec();
    }
    let group = || proptest::collection::vec(elem_spec(depth - 1), 1..4);
    prop_oneof![
        8 => leaf_spec(),
        2 => group().prop_map(ElemSpec::Optional),
        1 => (0..6u8, group()).prop_map(|(sel, inner)| ElemSpec::Graph(sel, inner)),
        1 => proptest::collection::vec(group(), 2..4).prop_map(ElemSpec::Union),
    ]
    .boxed()
}

fn sorted_rows(solutions: &Solutions) -> Vec<String> {
    let mut rows: Vec<String> = solutions.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Whether sorted `part` is a sub-multiset of sorted `whole`.
fn is_sub_multiset(part: &[String], whole: &[String]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|row| rest.any(|candidate| candidate == row))
}

/// The properties of the module doc for one store and query text.
fn check_against_reference(
    store: &QuadStore,
    text: &str,
    cap: usize,
) -> Result<(), TestCaseError> {
    let query = parse_query(text).unwrap();
    let limits =
        QueryLimits { memory_budget_bytes: Some(REFERENCE_BUDGET), ..QueryLimits::default() };
    let Ok(reference) = reference::evaluate_governed(store, &query, limits.arm().as_ref()) else {
        return Err(TestCaseError::reject("reference answer over budget"));
    };
    let exact = sorted_rows(&reference);
    for reorder_joins in [false, true] {
        let options = EvalOptions { reorder_joins, ..EvalOptions::default() };
        let full = evaluate_with(store, &query, options).unwrap();
        prop_assert!(!full.truncated, "uncapped run flagged truncated for {}", text);
        prop_assert_eq!(
            sorted_rows(&full),
            exact.clone(),
            "row multiset differs (reorder_joins {}) for {}",
            reorder_joins,
            text
        );

        let capped =
            evaluate_with(store, &query, EvalOptions { row_cap: Some(cap), ..options }).unwrap();
        let rows = sorted_rows(&capped);
        prop_assert!(rows.len() <= cap, "{} rows past cap {} for {}", rows.len(), cap, text);
        prop_assert!(
            is_sub_multiset(&rows, &exact),
            "rows under cap {} (reorder_joins {}) are not a sub-multiset of the exact answer for {}",
            cap,
            reorder_joins,
            text
        );
        prop_assert!(
            capped.truncated || rows.len() == exact.len(),
            "rows missing under cap {} without the truncated flag for {}",
            cap,
            text
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn encoded_agrees_with_reference(
        // sizes on both sides of the sort-merge threshold (32 rows)
        quads in proptest::collection::vec((0..8u8, 0..4u8, 0..2u8, 0..8u8, 0..3u8), 0..120),
        edges in proptest::collection::vec((0..8u8, 0..8u8, 0..8u8, 0..30u8), 0..48),
        elems in proptest::collection::vec(elem_spec(2), 1..5),
        cap in 0..48usize,
    ) {
        let store = build_store(&quads, &edges);
        check_against_reference(&store, &render_query(&elems), cap)?;
    }
}

// ---------------------------------------------------------------- stars
//
// The executor special-cases multi-pattern star shapes (leapfrog
// intersection) and large batches (sort-merge), so this second suite
// biases generation toward exactly those: star BGPs over a shared subject
// variable, duplicate-heavy stores (every quad inserted in several named
// graphs so subjects carry many quads per predicate), and OPTIONAL blocks
// layered over the star.

/// One star leg: `?s <p{p}> (const | ?var)`.
type LegSpec = (u8, u8, u8);

fn render_star(legs: &[LegSpec], tail: &Option<TripleSpec>, optional: &Option<LegSpec>) -> String {
    let mut body = String::new();
    for &(p, okind, oidx) in legs {
        let object = if okind % 3 == 0 {
            format!("<{}>", node(oidx))
        } else {
            // distinct object variables per predicate keep the star
            // leapfrog-eligible; colliding ones exercise the pipeline
            var(oidx)
        };
        body.push_str(&format!("?s <p{}> {} . ", p % 4, object));
    }
    if let Some(t) = tail {
        body.push_str(&render_triple(t));
        body.push(' ');
    }
    if let Some(&(p, okind, oidx)) = optional.as_ref() {
        let object = if okind % 2 == 0 {
            format!("<{}>", node(oidx))
        } else {
            var(oidx)
        };
        body.push_str(&format!("OPTIONAL {{ ?s <p{}> {} }} ", p % 4, object));
    }
    format!("SELECT * WHERE {{ {body}}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn vectorized_star_shapes_agree_with_reference(
        quads in proptest::collection::vec((0..8u8, 0..4u8, 0..2u8, 0..8u8, 0..3u8), 4..40),
        dup_graphs in 1..4u8,
        legs in proptest::collection::vec((0..4u8, 0..3u8, 0..8u8), 2..5),
        tail_sel in (0..2u8, triple_spec()),
        opt_sel in (0..2u8, (0..4u8, 0..2u8, 0..8u8)),
        cap in 0..48usize,
    ) {
        let tail = (tail_sel.0 == 1).then_some(tail_sel.1);
        let optional = (opt_sel.0 == 1).then_some(opt_sel.1);
        // duplicate-heavy store: the same triples across several named
        // graphs, so each subject holds runs of quads per predicate
        let mut store = build_store(&quads, &[]);
        for g in 0..dup_graphs {
            for &(s, p, okind, oidx, _) in &quads {
                store.insert(&Quad::in_graph(
                    Term::iri(node(s)),
                    Term::iri(format!("p{}", p % 4)),
                    object_term(okind, oidx),
                    GraphName::named(format!("dup{g}")),
                ));
            }
        }
        check_against_reference(&store, &render_star(&legs, &tail, &optional), cap)?;
    }
}
