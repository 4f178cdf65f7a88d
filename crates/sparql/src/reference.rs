//! Naive decoded reference evaluator.
//!
//! This is the original binding-at-a-time engine: every intermediate
//! binding holds cloned [`Term`]s, patterns are matched through the store's
//! decoding [`StoreSnapshot::match_pattern`] scan, and BGPs are evaluated in
//! textual order with no join reordering. It is deliberately simple and
//! kept as the semantic oracle for the executor in [`crate::eval`] — the
//! `encoded_vs_reference` property tests require the two to produce the
//! same solutions, as a multiset — and as the baseline arm of the query
//! benchmarks.
//!
//! Like the executor, it honours an optional [`QueryGovernor`]:
//! the row loops call a boundary check per element and per scanned
//! binding row, so even this worst-case engine terminates within a
//! deadline or budget.

use lids_exec::QueryGovernor;
use lids_rdf::{GraphName, QuadPattern, StoreSnapshot, Term};

use crate::ast::*;
use crate::expr::filter_passes;
use crate::project::{project, Binding};
use crate::results::{Solutions, SparqlError};

/// Evaluate a parsed query with the reference engine, ungoverned.
pub fn evaluate(store: &StoreSnapshot, query: &Query) -> Result<Solutions, SparqlError> {
    evaluate_governed(store, query, None)
}

/// Evaluate under an optional resource governor: row loops observe
/// deadlines, cancellation, and memory budgets at binding granularity.
pub fn evaluate_governed(
    store: &StoreSnapshot,
    query: &Query,
    governor: Option<&QueryGovernor>,
) -> Result<Solutions, SparqlError> {
    let nvars = query.variables.len();
    match &query.form {
        QueryForm::Ask(pattern) => {
            let bindings = eval_group(store, pattern, vec![vec![None; nvars]], None, governor)?;
            Ok(Solutions {
                columns: Vec::new(),
                rows: Vec::new(),
                ask: Some(!bindings.is_empty()),
                truncated: false,
            })
        }
        QueryForm::Select(select) => {
            let bindings =
                eval_group(store, &select.pattern, vec![vec![None; nvars]], None, governor)?;
            project(query, select, bindings)
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
                .filter(|b| filter_passes(&|v: VarId| b[v.0 as usize].clone(), expr))
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
                GraphName::Named(iri) => candidate[v.0 as usize] = Some(Term::iri(iri.clone())),
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
