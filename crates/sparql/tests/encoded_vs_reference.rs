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
//! Each WHERE clause is then run once more under generated solution
//! modifiers — a projection or GROUP BY with aggregates, DISTINCT, a
//! multi-key ORDER BY (plain, `STR(..)` and arithmetic keys, either
//! direction), OFFSET/LIMIT — and held to the reference again:
//! - without OFFSET/LIMIT the rows agree as a multiset;
//! - under ORDER BY the sort keys read off the rows are non-decreasing and
//!   the same sequence as the reference's (rows tying on every key may
//!   permute: the two engines feed the sort in different orders);
//! - under OFFSET/LIMIT the count is what slicing the unsliced answer
//!   gives and the rows are a sub-multiset of it.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use lids_exec::QueryLimits;
use lids_rdf::{GraphName, Quad, QuadStore, Term};
use lids_sparql::results::term_text;
use lids_sparql::{evaluate_with, parse_query, reference, EvalOptions, Solutions};

/// Release runs (`scripts/check.sh`) are an order of magnitude faster per
/// case, so they draw that many more.
const CASES: u32 = if cfg!(debug_assertions) { 192 } else { 20_000 };

/// Logical bytes the reference engine may bind per case; a query that
/// needs more (a cartesian product over a large store) is skipped, not run.
const REFERENCE_BUDGET: u64 = 4 << 20;

/// `(subject, predicate, object-kind, object-index, graph)` — rendered as
/// `node(s) p{p} object_term(kind, oi)` in the default graph or `g{g}`.
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
    /// `?x <score> ?v .` or `?x <conf> ?v .` — a variable subject that meets
    /// annotations, bound to their quoted triples (interned ones included:
    /// `About` objects).
    Annotated(u8, u8, u8),
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

/// Objects are IRIs, integers, doubles of the same values (distinct terms
/// that compare equal, so sort keys tie across them) and plain strings.
fn object_term(okind: u8, oidx: u8) -> Term {
    match okind % 4 {
        0 => Term::iri(node(oidx)),
        1 => Term::integer(i64::from(oidx % 6)),
        2 => Term::double(f64::from(oidx % 6)),
        _ => Term::string(format!("s{}", oidx % 6)),
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
            ElemSpec::Annotated(kind, x, y) => {
                format!("{} <{}> {} .", v(x), ["score", "conf"][usize::from(kind % 2)], v(y))
            }
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

fn render_where(elems: &[ElemSpec]) -> String {
    Render { scope: None }.group(elems)
}

// ------------------------------------------------------------- modifiers

/// Solution modifiers laid over a generated WHERE clause.
#[derive(Debug, Clone)]
struct ModSpec {
    /// 0: `SELECT *`; 1: a projection of `vars`; 2: `GROUP BY vars` with
    /// `aggs`.
    shape: u8,
    vars: (u8, u8),
    /// `(function, input variable)` per aggregate.
    aggs: Vec<(u8, u8)>,
    distinct: bool,
    /// `(key kind, column selector, descending)` per ORDER BY key.
    order: Vec<(u8, u8, bool)>,
    offset: Option<usize>,
    limit: Option<usize>,
}

fn mod_spec() -> impl Strategy<Value = ModSpec> {
    (
        (0..3u8, (0..4u8, 0..4u8), 0..2u8),
        proptest::collection::vec((0..7u8, 0..4u8), 1..4),
        proptest::collection::vec((0..3u8, 0..8u8, 0..2u8), 0..4),
        (0..8usize, 0..10usize),
    )
        .prop_map(|((shape, vars, distinct), aggs, order, (offset, limit))| ModSpec {
            shape,
            vars,
            aggs,
            distinct: distinct == 1,
            order: order.into_iter().map(|(kind, sel, desc)| (kind, sel, desc == 1)).collect(),
            // the low draws leave the slice off
            offset: offset.checked_sub(4),
            limit: limit.checked_sub(4),
        })
}

/// One ORDER BY key as the test reads it back off a result row.
#[derive(Debug, Clone)]
struct SortKey {
    /// 0: `?c`; 1: `STR(?c)`; 2: `?c + 1`.
    kind: u8,
    /// Result column the key is computed from (always projected).
    column: String,
    descending: bool,
}

impl ModSpec {
    fn aggregated(&self) -> bool {
        self.shape == 2
    }

    /// Result columns other than aggregate aliases, without the `?`.
    fn plain_columns(&self) -> Vec<String> {
        let name = |idx: u8| format!("v{}", idx % 4);
        match self.shape {
            0 => (0..4).map(name).collect(),
            _ if self.vars.0 % 4 == self.vars.1 % 4 => vec![name(self.vars.0)],
            _ => vec![name(self.vars.0), name(self.vars.1)],
        }
    }

    fn sort_keys(&self) -> Vec<SortKey> {
        let mut columns = self.plain_columns();
        if self.aggregated() {
            columns.extend((0..self.aggs.len()).map(|i| format!("a{i}")));
        }
        self.order
            .iter()
            .map(|&(kind, sel, descending)| SortKey {
                kind,
                column: columns[sel as usize % columns.len()].clone(),
                descending,
            })
            .collect()
    }

    /// The query text; `sliced: false` leaves OFFSET/LIMIT off.
    fn render(&self, pattern: &str, sliced: bool) -> String {
        let vars = |names: &[String]| {
            names.iter().map(|n| format!("?{n}")).collect::<Vec<_>>().join(" ")
        };
        let plain = self.plain_columns();
        let mut text = String::from("SELECT ");
        if self.distinct {
            text.push_str("DISTINCT ");
        }
        match self.shape {
            0 => text.push('*'),
            1 => text.push_str(&vars(&plain)),
            _ => {
                text.push_str(&vars(&plain));
                for (i, &(func, input)) in self.aggs.iter().enumerate() {
                    let input = var(input);
                    let call = match func {
                        0 => "COUNT(*)".to_string(),
                        1 => format!("COUNT({input})"),
                        2 => format!("COUNT(DISTINCT {input})"),
                        3 => format!("SUM({input})"),
                        4 => format!("AVG({input})"),
                        5 => format!("MIN({input})"),
                        _ => format!("MAX({input})"),
                    };
                    text.push_str(&format!(" ({call} AS ?a{i})"));
                }
            }
        }
        text.push_str(&format!(" WHERE {{ {pattern} }}"));
        if self.aggregated() {
            text.push_str(&format!(" GROUP BY {}", vars(&plain)));
        }
        let keys = self.sort_keys();
        if !keys.is_empty() {
            text.push_str(" ORDER BY");
            for key in &keys {
                let expr = match key.kind {
                    0 => format!("?{}", key.column),
                    1 => format!("STR(?{})", key.column),
                    _ => format!("?{} + 1", key.column),
                };
                text.push_str(&match (key.kind, key.descending) {
                    (0, false) => format!(" {expr}"),
                    (_, false) => format!(" ASC({expr})"),
                    (_, true) => format!(" DESC({expr})"),
                });
            }
        }
        if sliced {
            if let Some(offset) = self.offset {
                text.push_str(&format!(" OFFSET {offset}"));
            }
            if let Some(limit) = self.limit {
                text.push_str(&format!(" LIMIT {limit}"));
            }
        }
        text
    }
}

/// A term as ORDER BY ranks it — unbound, then numbers by value, strings,
/// IRIs, everything else by text (the derived order is that ranking).
#[derive(Debug, Clone, PartialEq, PartialOrd)]
enum KeyVal {
    Unbound,
    Num(f64),
    Str(String),
    Iri(String),
    Other(String),
}

fn key_val(term: Option<&Term>) -> KeyVal {
    match term {
        None => KeyVal::Unbound,
        Some(Term::Literal(l)) => match l.as_f64() {
            Some(n) => KeyVal::Num(n),
            None => KeyVal::Str(l.lexical.clone()),
        },
        Some(Term::Iri(iri)) => KeyVal::Iri(iri.clone()),
        Some(other) => KeyVal::Other(term_text(other)),
    }
}

/// The sort-key tuple of every row, in row order. An expression key that
/// errors (unbound input, `+` on a non-number) sorts as unbound.
fn key_sequence(solutions: &Solutions, keys: &[SortKey]) -> Vec<Vec<KeyVal>> {
    let columns: Vec<usize> = keys
        .iter()
        .map(|k| solutions.column_index(&k.column).expect("sort keys are projected"))
        .collect();
    rows_of(solutions)
        .iter()
        .map(|row| {
            keys.iter()
                .zip(&columns)
                .map(|(key, &c)| {
                    let term = row[c].as_ref();
                    match (key.kind, key_val(term)) {
                        (0, val) => val,
                        (1, KeyVal::Unbound) => KeyVal::Unbound,
                        (1, _) => KeyVal::Str(term.map(term_text).unwrap_or_default()),
                        (_, KeyVal::Num(n)) => KeyVal::Num(n + 1.0),
                        _ => KeyVal::Unbound,
                    }
                })
                .collect()
        })
        .collect()
}

/// Whether `b` may follow `a` under the keys' directions.
fn in_order(a: &[KeyVal], b: &[KeyVal], keys: &[SortKey]) -> bool {
    for ((x, y), key) in a.iter().zip(b).zip(keys) {
        let ord = x.partial_cmp(y).expect("no NaN keys");
        let ord = if key.descending { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord == std::cmp::Ordering::Less;
        }
    }
    true
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
        1 => (0..2u8, 0..4u8, 0..4u8).prop_map(|(k, x, y)| ElemSpec::Annotated(k, x, y)),
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

fn rows_of(solutions: &Solutions) -> Vec<Vec<Option<Term>>> {
    solutions.to_terms()
}

fn sorted_rows(solutions: &Solutions) -> Vec<String> {
    let mut rows: Vec<String> = rows_of(solutions).iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Rows of an aggregated answer, each cell as ORDER BY ranks it: MIN and
/// MAX keep whichever of several equal-comparing terms (`3`, `3.0`) they
/// met first, and the two engines meet them in different orders.
fn sorted_ranked_rows(solutions: &Solutions) -> Vec<String> {
    let mut rows: Vec<String> = rows_of(solutions)
        .iter()
        .map(|r| format!("{:?}", r.iter().map(|t| key_val(t.as_ref())).collect::<Vec<_>>()))
        .collect();
    rows.sort();
    rows
}

/// Whether sorted `part` is a sub-multiset of sorted `whole`.
fn is_sub_multiset(part: &[String], whole: &[String]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|row| rest.any(|candidate| candidate == row))
}

/// The properties of the module doc for one store and WHERE clause.
fn check_against_reference(
    store: &QuadStore,
    pattern: &str,
    cap: usize,
    mods: &ModSpec,
) -> Result<(), TestCaseError> {
    check_plain(store, &format!("SELECT * WHERE {{ {pattern} }}"), cap)?;
    check_modifiers(store, pattern, mods)
}

/// The modifier properties of the module doc.
fn check_modifiers(store: &QuadStore, pattern: &str, mods: &ModSpec) -> Result<(), TestCaseError> {
    let keys = mods.sort_keys();
    let render_rows = if mods.aggregated() { sorted_ranked_rows } else { sorted_rows };
    let unsliced_text = mods.render(pattern, false);
    let sliced_text = mods.render(pattern, true);
    let unsliced = parse_query(&unsliced_text).unwrap();
    let sliced = parse_query(&sliced_text).unwrap();
    // the unsliced reference answer fitted the budget in `check_plain`
    let oracle = reference::evaluate(store, &unsliced).unwrap();
    let oracle_sliced = reference::evaluate(store, &sliced).unwrap();
    for reorder_joins in [false, true] {
        let options = EvalOptions { reorder_joins, ..EvalOptions::default() };
        let full = evaluate_with(store, &unsliced, options).unwrap();
        prop_assert_eq!(&full.columns, &oracle.columns, "columns differ for {}", unsliced_text);
        prop_assert_eq!(
            render_rows(&full),
            render_rows(&oracle),
            "row multiset differs (reorder_joins {}) for {}",
            reorder_joins,
            unsliced_text
        );
        let sequence = key_sequence(&full, &keys);
        prop_assert!(
            sequence.windows(2).all(|w| in_order(&w[0], &w[1], &keys)),
            "rows out of order (reorder_joins {}) for {}",
            reorder_joins,
            unsliced_text
        );
        prop_assert_eq!(
            &sequence,
            &key_sequence(&oracle, &keys),
            "sort keys differ from the reference's (reorder_joins {}) for {}",
            reorder_joins,
            unsliced_text
        );

        let part = evaluate_with(store, &sliced, options).unwrap();
        let expected = full
            .len()
            .saturating_sub(mods.offset.unwrap_or(0))
            .min(mods.limit.unwrap_or(usize::MAX));
        prop_assert_eq!(part.len(), expected, "wrong slice length for {}", sliced_text);
        prop_assert!(
            is_sub_multiset(&render_rows(&part), &render_rows(&full)),
            "sliced rows are not a sub-multiset of the unsliced answer for {}",
            sliced_text
        );
        prop_assert_eq!(
            key_sequence(&part, &keys),
            key_sequence(&oracle_sliced, &keys),
            "sliced sort keys differ from the reference's (reorder_joins {}) for {}",
            reorder_joins,
            sliced_text
        );
    }
    Ok(())
}

/// The exact and row-capped properties of the module doc for a
/// modifier-free query text.
fn check_plain(store: &QuadStore, text: &str, cap: usize) -> Result<(), TestCaseError> {
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
        quads in proptest::collection::vec((0..8u8, 0..4u8, 0..4u8, 0..8u8, 0..3u8), 0..120),
        edges in proptest::collection::vec((0..8u8, 0..8u8, 0..8u8, 0..30u8), 0..48),
        elems in proptest::collection::vec(elem_spec(2), 1..5),
        cap in 0..48usize,
        mods in mod_spec(),
    ) {
        let store = build_store(&quads, &edges);
        check_against_reference(&store, &render_where(&elems), cap, &mods)?;
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
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn vectorized_star_shapes_agree_with_reference(
        quads in proptest::collection::vec((0..8u8, 0..4u8, 0..4u8, 0..8u8, 0..3u8), 4..40),
        dup_graphs in 1..4u8,
        legs in proptest::collection::vec((0..4u8, 0..3u8, 0..8u8), 2..5),
        tail_sel in (0..2u8, triple_spec()),
        opt_sel in (0..2u8, (0..4u8, 0..2u8, 0..8u8)),
        cap in 0..48usize,
        mods in mod_spec(),
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
        check_against_reference(&store, &render_star(&legs, &tail, &optional), cap, &mods)?;
    }
}
