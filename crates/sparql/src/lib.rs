//! `lids-sparql` — a SPARQL engine for the LiDS graph.
//!
//! The paper implements most of the KGLiDS interfaces as SPARQL queries
//! against GraphDB and credits the engine's built-in indexes for its query
//! speed (Section 6.1.2). This crate implements the subset those interfaces
//! need, evaluated over [`lids_rdf::QuadStore`]:
//!
//! - `SELECT` / `ASK`, `DISTINCT`, projection, `PREFIX`
//! - basic graph patterns with `;`/`,` abbreviations and `a` for `rdf:type`
//! - RDF-star quoted triple patterns (`<< ?a :sim ?b >> :score ?s`)
//! - `FILTER` expressions (comparisons, boolean ops, arithmetic, `REGEX`,
//!   `CONTAINS`, `STRSTARTS`, `STR`, `BOUND`, `LCASE`/`UCASE`)
//! - `OPTIONAL`, `UNION`, `GRAPH` (named-graph scoping, variable graphs)
//! - `GROUP BY` with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, `ORDER BY`,
//!   `LIMIT`/`OFFSET`
//!
//! There is one executor ([`eval`]): a query compiled to dictionary ids flows
//! as columnar binding batches from its root row through the solution
//! modifiers and leaves as [`Solutions`] — still ids, decoded by whoever
//! reads them — BGPs joined by the merge / probe / leapfrog operators, with
//! [`PlanCache`] in front so a repeated query text parses once (it is compiled
//! against the snapshot it runs on every time: under a microsecond, and never
//! stale). [`mod@reference`] is the naive decoded evaluator it is
//! property-tested against, not a second way to run a query.
//!
//! Scoping note: patterns outside `GRAPH` match the union of the default and
//! all named graphs (the GraphDB-style dataset the paper queries, where each
//! pipeline lives in its own named graph but discovery queries span all of
//! them). `GRAPH ?g` ranges over named graphs only, per the SPARQL spec.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
mod batch;
pub mod eval;
pub mod explain;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
mod project;
pub mod reference;
pub mod results;

pub use ast::Query;
pub use eval::{evaluate, evaluate_governed, evaluate_with, EvalOptions, ExecStats};
pub use explain::{ExplainReport, PatternPlan};
pub use parser::parse_query;
pub use plan::{PlanCache, PlanCacheStats, PreparedQuery};
pub use results::{Solutions, SparqlError};

use lids_rdf::StoreSnapshot;

/// Parse and evaluate `query` against `store` in one call.
pub fn query<'a>(store: &'a StoreSnapshot, query: &str) -> Result<Solutions<'a>, SparqlError> {
    let parsed = parse_query(query)?;
    evaluate(store, &parsed)
}
