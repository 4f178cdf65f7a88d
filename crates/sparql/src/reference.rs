//! Naive decoded reference evaluator.
//!
//! This is the original binding-at-a-time engine: every intermediate
//! binding holds cloned [`Term`]s, patterns are matched through the store's
//! decoding [`StoreSnapshot::match_pattern`] scan, and BGPs are evaluated in
//! textual order with no join reordering. It is deliberately simple and
//! kept as the semantic oracle for the executor in [`crate::eval`] — the
//! `encoded_vs_reference` property tests require the two to produce the
//! same solutions, as a multiset. The solution modifiers (`project`, below) are
//! the oracle's own too, over whole decoded rows: the executor's run on ids
//! (`crate::project`), and the same suite holds one to the other.
//!
//! Like the executor, it honours an optional [`QueryGovernor`]:
//! the row loops call a boundary check per element and per scanned
//! binding row, so even this worst-case engine terminates within a
//! deadline or budget.

use lids_exec::QueryGovernor;
use lids_rdf::{GraphName, QuadPattern, StoreSnapshot, Term};

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

use crate::ast::*;
use crate::expr::{compare_terms, eval_expr, filter_passes, numeric};
use crate::results::{Solutions, SparqlError};

/// A decoded partial solution: one optional term per query variable.
type Binding = Vec<Option<Term>>;

/// The term `row` binds `v` to, lent to the expression evaluator.
fn lend(row: &[Option<Term>], v: VarId) -> Option<Cow<'_, Term>> {
    row[v.0 as usize].as_ref().map(Cow::Borrowed)
}

/// Evaluate a parsed query with the reference engine, ungoverned.
pub fn evaluate(
    store: &StoreSnapshot,
    query: &Query,
) -> Result<Solutions<'static>, SparqlError> {
    evaluate_governed(store, query, None)
}

/// Evaluate under an optional resource governor: row loops observe
/// deadlines, cancellation, and memory budgets at binding granularity.
pub fn evaluate_governed(
    store: &StoreSnapshot,
    query: &Query,
    governor: Option<&QueryGovernor>,
) -> Result<Solutions<'static>, SparqlError> {
    let nvars = query.variables.len();
    match &query.form {
        QueryForm::Ask(pattern) => {
            let bindings = eval_group(store, pattern, vec![vec![None; nvars]], None, governor)?;
            Ok(Solutions::ask(!bindings.is_empty()))
        }
        QueryForm::Select(select) => {
            let bindings =
                eval_group(store, &select.pattern, vec![vec![None; nvars]], None, governor)?;
            Ok(project(query, select, bindings))
        }
    }
}

/// Boundary check: a no-op when ungoverned.
fn guard(governor: Option<&QueryGovernor>) -> Result<(), SparqlError> {
    match governor {
        Some(gov) => gov.check().map_err(SparqlError::Governed),
        None => Ok(()),
    }
}

/// Logical bytes of one decoded binding row (terms are heap-heavy;
/// this deliberately over-counts relative to the encoded engine).
fn row_bytes(nvars: usize) -> u64 {
    (nvars as u64) * 48
}

fn eval_group(
    store: &StoreSnapshot,
    group: &GroupPattern,
    mut bindings: Vec<Binding>,
    graph_ctx: Option<&NodePattern>,
    governor: Option<&QueryGovernor>,
) -> Result<Vec<Binding>, SparqlError> {
    for element in &group.elements {
        if bindings.is_empty() {
            return Ok(bindings);
        }
        guard(governor)?;
        bindings = match element {
            PatternElement::Triples(patterns) => {
                let mut current = bindings;
                for pattern in patterns {
                    let mut next = Vec::new();
                    for binding in &current {
                        guard(governor)?;
                        match_one(store, pattern, binding, graph_ctx, &mut next);
                    }
                    if let Some(gov) = governor {
                        let produced = next.len() as u64;
                        gov.charge(produced * row_bytes(next.first().map_or(0, Vec::len)))
                            .map_err(SparqlError::Governed)?;
                    }
                    current = next;
                    if current.is_empty() {
                        break;
                    }
                }
                current
            }
            PatternElement::Filter(expr) => bindings
                .into_iter()
                .filter(|b| filter_passes(&|v| lend(b, v), expr))
                .collect(),
            PatternElement::Optional(inner) => {
                let mut next = Vec::new();
                for binding in bindings {
                    guard(governor)?;
                    let extended =
                        eval_group(store, inner, vec![binding.clone()], graph_ctx, governor)?;
                    if extended.is_empty() {
                        next.push(binding);
                    } else {
                        next.extend(extended);
                    }
                }
                next
            }
            PatternElement::Graph(node, inner) => {
                eval_group(store, inner, bindings, Some(node), governor)?
            }
            PatternElement::Union(branches) => {
                let mut next = Vec::new();
                for branch in branches {
                    next.extend(eval_group(store, branch, bindings.clone(), graph_ctx, governor)?);
                }
                next
            }
        };
    }
    Ok(bindings)
}

/// Resolve a node pattern against a binding: a concrete term, or None (free).
fn resolve(node: &NodePattern, binding: &Binding) -> Option<Term> {
    match node {
        NodePattern::Term(t) => Some(t.clone()),
        NodePattern::Var(v) => binding[v.0 as usize].clone(),
        NodePattern::Quoted(q) => {
            let s = resolve(&q.subject, binding)?;
            let p = resolve(&q.predicate, binding)?;
            let o = resolve(&q.object, binding)?;
            Some(Term::quoted(s, p, o))
        }
    }
}

fn match_one(
    store: &StoreSnapshot,
    pattern: &TriplePattern,
    binding: &Binding,
    graph_ctx: Option<&NodePattern>,
    out: &mut Vec<Binding>,
) {
    let s = resolve(&pattern.subject, binding);
    let p = resolve(&pattern.predicate, binding);
    let o = resolve(&pattern.object, binding);

    let mut qp = QuadPattern::any();
    if let Some(t) = &s {
        qp = qp.with_subject(t.clone());
    }
    if let Some(t) = &p {
        qp = qp.with_predicate(t.clone());
    }
    if let Some(t) = &o {
        qp = qp.with_object(t.clone());
    }

    // Graph scoping
    let mut graph_var: Option<VarId> = None;
    match graph_ctx {
        None => {}
        Some(NodePattern::Term(Term::Iri(iri))) => {
            qp = qp.with_graph(GraphName::named(iri.clone()));
        }
        Some(NodePattern::Var(v)) => match &binding[v.0 as usize] {
            Some(Term::Iri(iri)) => qp = qp.with_graph(GraphName::named(iri.clone())),
            Some(_) => return,
            None => graph_var = Some(*v),
        },
        Some(_) => return,
    }

    for quad in store.match_pattern(&qp) {
        let mut candidate = binding.clone();
        if !unify(&pattern.subject, &quad.subject, &mut candidate) {
            continue;
        }
        if !unify(&pattern.predicate, &quad.predicate, &mut candidate) {
            continue;
        }
        if !unify(&pattern.object, &quad.object, &mut candidate) {
            continue;
        }
        if let Some(v) = graph_var {
            match &quad.graph {
                // a ?g this quad bound in a node position must be its graph
                GraphName::Named(iri) => {
                    if !unify(&NodePattern::Var(v), &Term::iri(iri.clone()), &mut candidate) {
                        continue;
                    }
                }
                // GRAPH ?g ranges over named graphs only
                GraphName::Default => continue,
            }
        }
        out.push(candidate);
    }
}

/// Unify a node pattern with a concrete term under a binding.
fn unify(node: &NodePattern, term: &Term, binding: &mut Binding) -> bool {
    match node {
        NodePattern::Term(t) => t == term,
        NodePattern::Var(v) => {
            let slot = &mut binding[v.0 as usize];
            match slot {
                Some(existing) => existing == term,
                None => {
                    *slot = Some(term.clone());
                    true
                }
            }
        }
        NodePattern::Quoted(q) => match term {
            Term::Quoted(t) => {
                unify(&q.subject, &t.subject, binding)
                    && unify(&q.predicate, &t.predicate, binding)
                    && unify(&q.object, &t.object, binding)
            }
            _ => false,
        },
    }
}

// -------------------------------------------------------------- modifiers

/// The solution modifiers over decoded rows, in SPARQL's order: GROUP BY /
/// aggregates, ORDER BY, projection, DISTINCT, OFFSET/LIMIT.
fn project(query: &Query, select: &SelectQuery, bindings: Vec<Binding>) -> Solutions<'static> {
    let items: Vec<SelectItem> = match &select.projection {
        Projection::Star => (0..query.variables.len())
            .map(|i| SelectItem::Var(VarId(i as u16)))
            .collect(),
        Projection::Items(items) => items.clone(),
    };
    let projected: Vec<usize> = items
        .iter()
        .map(|i| match i {
            SelectItem::Var(v) | SelectItem::Aggregate { alias: v, .. } => v.0 as usize,
        })
        .collect();
    let columns = projected.iter().map(|&v| query.variables[v].clone()).collect();
    let aggregated = items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }));

    // whole rows, one slot per query variable: an aggregate's result goes
    // into its alias's slot, so ORDER BY sees it like any other variable
    let mut rows = if aggregated || !select.group_by.is_empty() {
        aggregate_rows(select, &items, query.variables.len(), bindings)
    } else {
        bindings
    };

    // ORDER BY comes before projection: a key need not be projected
    if !select.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for key in &select.order_by {
                let va = eval_expr(&|v| lend(a, v), &key.expr);
                let vb = eval_expr(&|v| lend(b, v), &key.expr);
                let ord = compare_terms(va.as_deref().ok(), vb.as_deref().ok());
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    let mut rows: Vec<Vec<Option<Term>>> = rows
        .iter()
        .map(|row| projected.iter().map(|&v| row[v].clone()).collect())
        .collect();

    if select.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }

    let offset = select.offset.unwrap_or(0);
    rows.drain(..offset.min(rows.len()));
    if let Some(limit) = select.limit {
        rows.truncate(limit);
    }

    Solutions::from_terms(columns, rows)
}

/// One whole row per group: the group's first binding, with every
/// aggregate's result in its alias's slot.
fn aggregate_rows(
    select: &SelectQuery,
    items: &[SelectItem],
    nvars: usize,
    bindings: Vec<Binding>,
) -> Vec<Binding> {
    // Group key: rendered group-by values (terms compare via Debug ordering;
    // BTreeMap keeps output deterministic).
    let mut groups: BTreeMap<String, Vec<Binding>> = BTreeMap::new();
    for b in bindings {
        let key: String = select
            .group_by
            .iter()
            .map(|v| format!("{:?}|", b[v.0 as usize]))
            .collect();
        groups.entry(key).or_default().push(b);
    }
    // no solutions: one group over nothing (COUNT = 0, the rest unbound)
    if groups.is_empty() {
        let mut row = vec![None; nvars];
        for item in items {
            if let SelectItem::Aggregate { agg: Aggregate::Count { .. }, alias } = item {
                row[alias.0 as usize] = Some(Term::integer(0));
            }
        }
        return vec![row];
    }

    groups
        .into_values()
        .map(|members| {
            let mut row = members[0].clone();
            for item in items {
                if let SelectItem::Aggregate { agg, alias } = item {
                    row[alias.0 as usize] = eval_aggregate(agg, &members);
                }
            }
            row
        })
        .collect()
}

fn eval_aggregate(agg: &Aggregate, members: &[Binding]) -> Option<Term> {
    match agg {
        Aggregate::Count { distinct, var } => {
            let n = match var {
                None => members.len(),
                Some(v) => {
                    let iter = members.iter().filter_map(|b| b[v.0 as usize].as_ref());
                    if *distinct {
                        iter.collect::<HashSet<_>>().len()
                    } else {
                        iter.count()
                    }
                }
            };
            Some(Term::integer(n as i64))
        }
        Aggregate::Sum(v) | Aggregate::Avg(v) => {
            let values: Vec<f64> = members
                .iter()
                .filter_map(|b| b[v.0 as usize].as_ref())
                .filter_map(numeric)
                .collect();
            if values.is_empty() {
                return Some(Term::double(0.0));
            }
            let sum: f64 = values.iter().sum();
            Some(Term::double(if matches!(agg, Aggregate::Avg(_)) {
                sum / values.len() as f64
            } else {
                sum
            }))
        }
        Aggregate::Min(v) | Aggregate::Max(v) => {
            let wanted = if matches!(agg, Aggregate::Min(_)) {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best: Option<&Term> = None;
            for t in members.iter().filter_map(|b| b[v.0 as usize].as_ref()) {
                if best.is_none_or(|cur| compare_terms(Some(t), Some(cur)) == wanted) {
                    best = Some(t);
                }
            }
            best.cloned()
        }
    }
}
