//! Encoded query evaluation over a [`StoreSnapshot`].
//!
//! The engine never joins over decoded [`Term`]s. A query is *compiled*
//! once against the store — every constant node is resolved to its
//! dictionary [`TermId`] up front (a constant the store has never interned
//! short-circuits its whole BGP to empty) — and evaluation then runs
//! binding-at-a-time nested-loop joins where a binding is a
//! `Vec<Option<TermId>>`: four-byte slots, integer comparisons, no decoding.
//!
//! Terms are materialised only at the solution-modifier boundary
//! (`crate::project`) and, lazily per referenced variable, inside FILTER
//! expressions. Join ordering is cardinality-based: each candidate pattern
//! is costed with [`StoreSnapshot::estimate_pattern`], which answers from the
//! store's B-tree range bounds. Large intermediate binding sets are joined
//! in parallel chunks via [`lids_exec::parallel_map`].
//!
//! The naive decoded engine survives as [`crate::reference`]; the
//! `encoded_vs_reference` property tests hold this engine to its semantics.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use lids_exec::{parallel_map, QueryGovernor, QueryLimits};
use lids_rdf::{EncodedPattern, GraphName, StoreSnapshot, Term, TermId, Triple};

use crate::ast::*;
use crate::explain::{ExplainReport, PatternPlan};
use crate::project::{project, used_variables};
use crate::results::{Solutions, SparqlError};

pub use crate::expr::simple_regex;

/// Evaluate a parsed query against the store.
pub fn evaluate(store: &StoreSnapshot, query: &Query) -> Result<Solutions, SparqlError> {
    evaluate_with(store, query, EvalOptions::default())
}

/// Evaluation knobs (benchmarking/ablation).
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Cardinality-based join ordering. Disabling it evaluates patterns in
    /// textual order — the ablation arm of the `sparql/join_ordering`
    /// bench, and the mode whose row order matches [`crate::reference`]
    /// exactly.
    pub reorder_joins: bool,
    /// Intermediate binding sets at least this large are joined in
    /// parallel chunks. `usize::MAX` disables parallelism.
    pub parallel_threshold: usize,
    /// Vectorized execution: batched columnar joins over sorted index
    /// runs (sort-merge, leapfrog star intersection) where the BGP shape
    /// allows, with the row-at-a-time nested loop as the fallback.
    /// Disabling it forces the PR 1 row engine everywhere — the ablation
    /// arm of the `sparql` bench, and the mode whose row order matches
    /// [`crate::reference`] exactly.
    pub vectorize: bool,
    /// Wall-clock ceiling for one evaluation. When set (and no external
    /// governor is supplied) a local [`QueryGovernor`] is armed; past
    /// the deadline the query returns [`SparqlError::Governed`] with
    /// [`TripReason::Timeout`](lids_exec::TripReason::Timeout).
    pub deadline: Option<Duration>,
    /// Ceiling on cumulative binding-table / decode allocations in
    /// logical bytes. Exceeding it returns [`SparqlError::Governed`]
    /// instead of allocating without bound.
    pub memory_budget: Option<u64>,
    /// Graceful-degradation row cap: intermediate binding sets larger
    /// than this are truncated (and the result marked
    /// [`Solutions::truncated`]) rather than failed. `None` = exact.
    pub row_cap: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            reorder_joins: true,
            parallel_threshold: 1024,
            vectorize: true,
            deadline: None,
            memory_budget: None,
            row_cap: None,
        }
    }
}

impl EvalOptions {
    /// Fluent construction; the struct-literal form keeps working.
    pub fn builder() -> EvalOptionsBuilder {
        EvalOptionsBuilder { inner: EvalOptions::default() }
    }

    /// The [`QueryLimits`] these options imply (deadline and memory
    /// budget; cancellation comes only from an external governor).
    pub fn limits(&self) -> QueryLimits {
        QueryLimits {
            deadline: self.deadline,
            memory_budget_bytes: self.memory_budget,
            ..QueryLimits::default()
        }
    }
}

/// Builder for [`EvalOptions`] (`EvalOptions::builder()`).
#[derive(Debug, Clone, Copy)]
pub struct EvalOptionsBuilder {
    inner: EvalOptions,
}

impl EvalOptionsBuilder {
    /// Enable/disable cardinality-based join reordering.
    pub fn reorder_joins(mut self, on: bool) -> Self {
        self.inner.reorder_joins = on;
        self
    }

    /// Minimum intermediate binding-set size for parallel join/decode.
    pub fn parallel_threshold(mut self, threshold: usize) -> Self {
        self.inner.parallel_threshold = threshold;
        self
    }

    /// Enable/disable vectorized (batched columnar) join execution.
    pub fn vectorize(mut self, on: bool) -> Self {
        self.inner.vectorize = on;
        self
    }

    /// Wall-clock ceiling for the evaluation.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.inner.deadline = Some(limit);
        self
    }

    /// Ceiling on cumulative binding-table / decode allocation bytes.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.inner.memory_budget = Some(bytes);
        self
    }

    /// Truncate intermediate binding sets to this many rows, marking
    /// the result [`Solutions::truncated`] when the cap bites.
    pub fn row_cap(mut self, rows: usize) -> Self {
        self.inner.row_cap = Some(rows);
        self
    }

    pub fn build(self) -> EvalOptions {
        self.inner
    }
}

/// A partial solution: one optional term *id* per query variable.
pub(crate) type IdBinding = Vec<Option<TermId>>;

/// Always-on per-evaluation operator counters (relaxed atomics, added
/// once per operator execution — never per row). [`evaluate_with_stats`]
/// and the prepared-query path fill one in so callers (the platform's
/// obs registry) can attribute work to merge / probe / leapfrog
/// operators without paying for full explain instrumentation.
#[derive(Debug, Default)]
pub struct ExecStats {
    merge_joins: AtomicU64,
    probe_joins: AtomicU64,
    leapfrog_joins: AtomicU64,
}

impl ExecStats {
    /// Sort-merge join executions.
    pub fn merge_joins(&self) -> u64 {
        self.merge_joins.load(Relaxed)
    }

    /// Per-row probe join executions.
    pub fn probe_joins(&self) -> u64 {
        self.probe_joins.load(Relaxed)
    }

    /// Leapfrog star-intersection executions.
    pub fn leapfrog_joins(&self) -> u64 {
        self.leapfrog_joins.load(Relaxed)
    }

    pub(crate) fn count(&self, op: Operator) {
        match op {
            // the row engine is visible through explain's per-pattern
            // operator labels; these counters track vectorized ops only
            Operator::NestedLoop => return,
            Operator::Probe => &self.probe_joins,
            Operator::Merge => &self.merge_joins,
            Operator::Leapfrog => &self.leapfrog_joins,
        }
        .fetch_add(1, Relaxed);
    }
}

/// Which join operator executed a pattern. `NestedLoop` is the row
/// engine; the rest are the vectorized operators in [`crate::batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operator {
    NestedLoop,
    Probe,
    Merge,
    Leapfrog,
}

impl Operator {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Operator::NestedLoop => "nested-loop",
            Operator::Probe => "probe",
            Operator::Merge => "merge",
            Operator::Leapfrog => "leapfrog",
        }
    }

    fn code(self) -> u8 {
        match self {
            Operator::NestedLoop => 1,
            Operator::Probe => 2,
            Operator::Merge => 3,
            Operator::Leapfrog => 4,
        }
    }

    fn from_code(code: u8) -> Option<Operator> {
        match code {
            1 => Some(Operator::NestedLoop),
            2 => Some(Operator::Probe),
            3 => Some(Operator::Merge),
            4 => Some(Operator::Leapfrog),
            _ => None,
        }
    }
}

/// Evaluate with explicit options.
pub fn evaluate_with(
    store: &StoreSnapshot,
    query: &Query,
    options: EvalOptions,
) -> Result<Solutions, SparqlError> {
    evaluate_governed(store, query, options, None)
}

/// Evaluate under an externally armed [`QueryGovernor`] (shared
/// cancellation, cross-engine budgets). With `governor: None`, a local
/// governor is armed from the options' deadline/budget fields when set.
pub fn evaluate_governed(
    store: &StoreSnapshot,
    query: &Query,
    options: EvalOptions,
    governor: Option<&QueryGovernor>,
) -> Result<Solutions, SparqlError> {
    let mut compiler = Compiler::new(store, &query.variables, false);
    let compiled = compiler.compile_query(query);
    eval_compiled(store, query, options, &compiled, None, None, governor)
}

/// Evaluate with explicit options, filling `stats` with per-operator
/// execution counts.
pub fn evaluate_with_stats(
    store: &StoreSnapshot,
    query: &Query,
    options: EvalOptions,
    stats: &ExecStats,
) -> Result<Solutions, SparqlError> {
    let mut compiler = Compiler::new(store, &query.variables, false);
    let compiled = compiler.compile_query(query);
    eval_compiled(store, query, options, &compiled, None, Some(stats), None)
}

/// Evaluate with per-pattern instrumentation, returning the solutions
/// plus an [`ExplainReport`] of the executed plan.
pub fn evaluate_explained(
    store: &StoreSnapshot,
    query: &Query,
    options: EvalOptions,
) -> Result<(Solutions, ExplainReport), SparqlError> {
    let start = Instant::now();
    let mut compiler = Compiler::new(store, &query.variables, true);
    let compiled = compiler.compile_query(query);
    let metas = compiler.metas;
    let instr = Instr::new(metas.len());
    let stats = ExecStats::default();
    let solutions =
        eval_compiled(store, query, options, &compiled, Some(&instr), Some(&stats), None)?;
    let wall_secs = start.elapsed().as_secs_f64();
    let patterns = metas
        .into_iter()
        .enumerate()
        .map(|(i, meta)| {
            let cell = &instr.cells[i];
            let order = cell.order.load(Relaxed);
            PatternPlan {
                pattern: meta.text,
                estimated_rows: meta.estimated,
                actual_rows: cell.actual.load(Relaxed),
                scans: cell.scans.load(Relaxed),
                order: (order != usize::MAX).then_some(order),
                satisfiable: meta.satisfiable,
                operator: Operator::from_code(cell.operator.load(Relaxed)).map(Operator::label),
            }
        })
        .collect();
    let report = ExplainReport {
        reorder_joins: options.reorder_joins,
        rows: solutions.len(),
        wall_secs,
        patterns,
        decoded_terms: instr.decoded.load(Relaxed),
        parallel_joins: instr.parallel_joins.load(Relaxed),
        serial_joins: instr.serial_joins.load(Relaxed),
        merge_joins: stats.merge_joins(),
        probe_joins: stats.probe_joins(),
        leapfrog_joins: stats.leapfrog_joins(),
        truncated: solutions.truncated,
    };
    Ok((solutions, report))
}

pub(crate) fn eval_compiled(
    store: &StoreSnapshot,
    query: &Query,
    options: EvalOptions,
    compiled: &EncGroup,
    instr: Option<&Instr>,
    stats: Option<&ExecStats>,
    governor: Option<&QueryGovernor>,
) -> Result<Solutions, SparqlError> {
    // With no external governor, arm a local one from the options'
    // deadline/budget. All-`None` limits arm nothing: the ungoverned
    // fast path pays a single never-taken branch per checkpoint site.
    let local = match governor {
        Some(_) => None,
        None => options.limits().arm(),
    };
    let governor = governor.or(local.as_ref());
    let ev = Evaluator { store, options, instr, stats, governor, truncated: AtomicBool::new(false) };
    let nvars = query.variables.len();
    let root = vec![vec![None; nvars]];
    match &query.form {
        QueryForm::Ask(_) => {
            let bindings = ev.eval_group(compiled, root, GraphCtx::Default)?;
            Ok(Solutions {
                columns: Vec::new(),
                rows: Vec::new(),
                ask: Some(!bindings.is_empty()),
                truncated: ev.truncated.load(Relaxed),
            })
        }
        QueryForm::Select(select) => {
            let bindings = ev.eval_group(compiled, root, GraphCtx::Default)?;
            let decoded = ev.decode_bindings(query, select, bindings)?;
            let mut solutions = project(query, select, decoded)?;
            solutions.truncated = ev.truncated.load(Relaxed);
            Ok(solutions)
        }
    }
}

// -------------------------------------------------------- instrumentation

/// Per-pattern atomic counters, written on the evaluator's hot path
/// with relaxed ordering: one add per `match_rows` *call* (never per
/// row), so instrumented evaluation stays within a few percent of
/// uninstrumented.
pub(crate) struct Instr {
    cells: Vec<InstrCell>,
    decoded: AtomicU64,
    parallel_joins: AtomicU64,
    serial_joins: AtomicU64,
}

struct InstrCell {
    /// Position in the executed join order; `usize::MAX` = never
    /// joined. First recording wins — nested re-evaluations (OPTIONAL
    /// per-row seeding) keep the plan of their first execution.
    order: AtomicUsize,
    actual: AtomicU64,
    scans: AtomicU64,
    /// [`Operator::code`] of the operator that joined this pattern
    /// (first execution wins); 0 = never executed.
    operator: AtomicU8,
}

impl Instr {
    fn new(n: usize) -> Self {
        Instr {
            cells: (0..n)
                .map(|_| InstrCell {
                    order: AtomicUsize::new(usize::MAX),
                    actual: AtomicU64::new(0),
                    scans: AtomicU64::new(0),
                    operator: AtomicU8::new(0),
                })
                .collect(),
            decoded: AtomicU64::new(0),
            parallel_joins: AtomicU64::new(0),
            serial_joins: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_order(&self, pid: u32, position: usize) {
        if let Some(cell) = self.cells.get(pid as usize) {
            let _ = cell.order.compare_exchange(usize::MAX, position, Relaxed, Relaxed);
        }
    }

    pub(crate) fn record_match(&self, pid: u32, produced: usize) {
        if let Some(cell) = self.cells.get(pid as usize) {
            cell.scans.fetch_add(1, Relaxed);
            cell.actual.fetch_add(produced as u64, Relaxed);
        }
    }

    pub(crate) fn record_operator(&self, pid: u32, op: Operator) {
        if let Some(cell) = self.cells.get(pid as usize) {
            let _ = cell.operator.compare_exchange(0, op.code(), Relaxed, Relaxed);
        }
    }
}

/// Pattern id inside a compiled query, indexing [`Instr::cells`].
/// Nested quoted-triple patterns are not scanned on their own and get
/// [`NO_PID`].
const NO_PID: u32 = u32::MAX;

/// Compile-time record of one triple pattern, kept only in explain
/// mode.
struct PatternMeta {
    text: String,
    estimated: usize,
    satisfiable: bool,
}

// ------------------------------------------------------------ compiled form

/// A node pattern with constants already resolved to ids.
pub(crate) enum EncNode {
    Const(TermId),
    Var(VarId),
    /// Quoted pattern containing at least one variable (ground quoted
    /// patterns compile to `Const`).
    Quoted(Box<EncTriple>),
}

pub(crate) struct EncTriple {
    /// Index into the explain-mode pattern table ([`NO_PID`] for
    /// nested quoted patterns, which are never scanned directly).
    pub(crate) pid: u32,
    pub(crate) subject: EncNode,
    pub(crate) predicate: EncNode,
    pub(crate) object: EncNode,
}

pub(crate) enum GraphSpec {
    Fixed(TermId),
    Var(VarId),
}

pub(crate) enum EncElement {
    Triples(Vec<EncTriple>),
    /// A pattern that cannot match anything in this store (it references a
    /// constant the dictionary has never interned).
    Empty,
    Filter(Expr),
    Optional(EncGroup),
    Graph(GraphSpec, EncGroup),
    Union(Vec<EncGroup>),
}

pub(crate) struct EncGroup {
    pub(crate) elements: Vec<EncElement>,
}

/// Graph scope during evaluation. The default scope spans all graphs;
/// `GRAPH` narrows it to one fixed graph id or a variable ranging over
/// named graphs.
#[derive(Clone, Copy)]
pub(crate) enum GraphCtx {
    Default,
    Fixed(TermId),
    Var(VarId),
}

/// Outcome of resolving a node under a binding before a scan.
enum Resolved {
    Bound(TermId),
    Unbound,
    /// The node denotes a term the store cannot contain — no quad matches.
    Dead,
}

impl Resolved {
    fn id(&self) -> Option<TermId> {
        match self {
            Resolved::Bound(id) => Some(*id),
            _ => None,
        }
    }
}

// --------------------------------------------------------------- compile

/// Compiles a query's patterns against the store, assigning each triple
/// pattern a dense pattern id. In explain mode it additionally records
/// per-pattern text and the constants-only `estimate_pattern` guess —
/// the same number join ordering starts from.
pub(crate) struct Compiler<'a> {
    store: &'a StoreSnapshot,
    vars: &'a [String],
    collect: bool,
    metas: Vec<PatternMeta>,
    next_pid: u32,
}

impl<'a> Compiler<'a> {
    pub(crate) fn new(store: &'a StoreSnapshot, vars: &'a [String], collect: bool) -> Self {
        Compiler { store, vars, collect, metas: Vec::new(), next_pid: 0 }
    }

    pub(crate) fn compile_query(&mut self, query: &Query) -> EncGroup {
        match &query.form {
            QueryForm::Ask(pattern) => self.compile_group(pattern),
            QueryForm::Select(select) => self.compile_group(&select.pattern),
        }
    }

    fn compile_group(&mut self, group: &GroupPattern) -> EncGroup {
        let elements = group
            .elements
            .iter()
            .map(|element| match element {
                PatternElement::Triples(patterns) => {
                    let compiled: Option<Vec<EncTriple>> =
                        patterns.iter().map(|p| self.compile_triple(p)).collect();
                    match compiled {
                        Some(triples) => EncElement::Triples(triples),
                        None => EncElement::Empty,
                    }
                }
                PatternElement::Filter(expr) => EncElement::Filter(expr.clone()),
                PatternElement::Optional(inner) => {
                    EncElement::Optional(self.compile_group(inner))
                }
                PatternElement::Graph(node, inner) => match node {
                    NodePattern::Var(v) => {
                        EncElement::Graph(GraphSpec::Var(*v), self.compile_group(inner))
                    }
                    NodePattern::Term(Term::Iri(iri)) => {
                        match self.store.graph_id(&GraphName::named(iri.clone())) {
                            Some(id) => {
                                EncElement::Graph(GraphSpec::Fixed(id), self.compile_group(inner))
                            }
                            None => EncElement::Empty,
                        }
                    }
                    // non-IRI graph names match nothing
                    _ => EncElement::Empty,
                },
                PatternElement::Union(branches) => {
                    EncElement::Union(branches.iter().map(|b| self.compile_group(b)).collect())
                }
            })
            .collect();
        EncGroup { elements }
    }

    fn compile_triple(&mut self, pattern: &TriplePattern) -> Option<EncTriple> {
        let pid = self.next_pid;
        self.next_pid += 1;
        if self.collect {
            self.metas.push(PatternMeta {
                text: triple_text(pattern, self.vars),
                estimated: 0,
                satisfiable: true,
            });
        }
        let compiled = self.compile_node(&pattern.subject).and_then(|subject| {
            let predicate = self.compile_node(&pattern.predicate)?;
            let object = self.compile_node(&pattern.object)?;
            Some(EncTriple { pid, subject, predicate, object })
        });
        if self.collect {
            match &compiled {
                Some(t) => {
                    let enc = EncodedPattern {
                        subject: const_of(&t.subject),
                        predicate: const_of(&t.predicate),
                        object: const_of(&t.object),
                        graph: None,
                    };
                    self.metas[pid as usize].estimated = self.store.estimate_pattern(&enc);
                }
                None => self.metas[pid as usize].satisfiable = false,
            }
        }
        compiled
    }

    /// Like [`Compiler::compile_triple`] for a pattern nested inside a
    /// quoted triple: it is matched by unification, never scanned, so
    /// it gets no pattern id or plan line of its own.
    fn compile_quoted(&mut self, pattern: &TriplePattern) -> Option<EncTriple> {
        Some(EncTriple {
            pid: NO_PID,
            subject: self.compile_node(&pattern.subject)?,
            predicate: self.compile_node(&pattern.predicate)?,
            object: self.compile_node(&pattern.object)?,
        })
    }

    /// `None` means the node requires a term the dictionary does not hold,
    /// so the enclosing BGP can never match. (For constants inside quoted
    /// patterns this relies on the dictionary interning quoted
    /// constituents recursively.)
    fn compile_node(&mut self, node: &NodePattern) -> Option<EncNode> {
        match node {
            NodePattern::Term(t) => self.store.id_of(t).map(EncNode::Const),
            NodePattern::Var(v) => Some(EncNode::Var(*v)),
            NodePattern::Quoted(q) => match ground_term(node) {
                Some(term) => self.store.id_of(&term).map(EncNode::Const),
                None => Some(EncNode::Quoted(Box::new(self.compile_quoted(q)?))),
            },
        }
    }
}

/// Plan text of a node pattern: `?name` for variables, N-Triples
/// rendering for constants.
fn node_text(node: &NodePattern, vars: &[String]) -> String {
    match node {
        NodePattern::Var(v) => match vars.get(v.0 as usize) {
            Some(name) => format!("?{name}"),
            None => format!("?_{}", v.0),
        },
        NodePattern::Term(t) => t.to_string(),
        NodePattern::Quoted(q) => format!("<< {} >>", triple_text(q, vars)),
    }
}

fn triple_text(pattern: &TriplePattern, vars: &[String]) -> String {
    format!(
        "{} {} {}",
        node_text(&pattern.subject, vars),
        node_text(&pattern.predicate, vars),
        node_text(&pattern.object, vars),
    )
}

pub(crate) struct Evaluator<'a> {
    pub(crate) store: &'a StoreSnapshot,
    pub(crate) options: EvalOptions,
    /// Present only under [`evaluate_explained`]; `None` costs one
    /// predictable branch per counter site.
    pub(crate) instr: Option<&'a Instr>,
    /// Per-operator execution counters, when the caller asked for them.
    pub(crate) stats: Option<&'a ExecStats>,
    /// Resource governor for this evaluation; `None` skips every
    /// checkpoint with one predictable branch.
    pub(crate) governor: Option<&'a QueryGovernor>,
    /// Latched when a row cap truncated an intermediate binding set.
    pub(crate) truncated: AtomicBool,
}

/// Logical bytes of an encoded binding row: one `Option<TermId>` slot
/// per variable (8 bytes with niche-free accounting).
const ID_SLOT_BYTES: u64 = 8;

/// Governed row loops run a boundary check every this many input rows,
/// bounding the window between a trip and the loop observing it without
/// paying an atomic read per row.
pub(crate) const GOVERNOR_ROW_INTERVAL: usize = 1024;

impl<'a> Evaluator<'a> {
    // ----------------------------------------------------------- governance

    /// Batch-boundary checkpoint; no-op when ungoverned.
    pub(crate) fn guard(&self) -> Result<(), SparqlError> {
        match self.governor {
            Some(gov) => gov.check().map_err(SparqlError::Governed),
            None => Ok(()),
        }
    }

    /// Charge binding-table bytes against the budget; no-op when
    /// ungoverned.
    pub(crate) fn charge(&self, bytes: u64) -> Result<(), SparqlError> {
        match self.governor {
            Some(gov) => gov.charge(bytes).map_err(SparqlError::Governed),
            None => Ok(()),
        }
    }

    fn charge_rows(&self, rows: &[IdBinding]) -> Result<(), SparqlError> {
        if self.governor.is_some() && !rows.is_empty() {
            self.charge(rows.len() as u64 * rows[0].len() as u64 * ID_SLOT_BYTES)?;
        }
        Ok(())
    }

    /// Apply the graceful-degradation row cap, latching the truncated
    /// flag when it bites.
    pub(crate) fn cap_rows(&self, rows: &mut Vec<IdBinding>) {
        if let Some(cap) = self.options.row_cap {
            if rows.len() > cap {
                rows.truncate(cap);
                self.truncated.store(true, Relaxed);
            }
        }
    }

    // ------------------------------------------------------------- evaluate

    fn eval_group(
        &self,
        group: &EncGroup,
        mut bindings: Vec<IdBinding>,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        for element in &group.elements {
            if bindings.is_empty() {
                return Ok(bindings);
            }
            self.guard()?;
            bindings = self.apply_element(element, bindings, ctx)?;
            self.cap_rows(&mut bindings);
        }
        Ok(bindings)
    }

    fn apply_element(
        &self,
        element: &EncElement,
        bindings: Vec<IdBinding>,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        Ok(match element {
            EncElement::Triples(patterns) => self.eval_triples(patterns, bindings, ctx)?,
            EncElement::Empty => Vec::new(),
            EncElement::Filter(expr) => {
                let mut bindings = bindings;
                bindings.retain(|b| self.filter_passes(b, expr));
                bindings
            }
            EncElement::Optional(inner) => {
                if self.options.vectorize {
                    if let Some(done) = crate::batch::try_vectorized_optional(
                        self, inner, &bindings, ctx,
                    )? {
                        return Ok(done);
                    }
                }
                let mut next = Vec::new();
                for binding in bindings {
                    self.guard()?;
                    let extended = self.eval_group_seeded(inner, &binding, ctx)?;
                    if extended.is_empty() {
                        // inner group matched nothing: the row survives
                        // unchanged, moved rather than cloned
                        next.push(binding);
                    } else {
                        next.extend(extended);
                    }
                }
                next
            }
            EncElement::Graph(spec, inner) => {
                let inner_ctx = match spec {
                    GraphSpec::Fixed(id) => GraphCtx::Fixed(*id),
                    GraphSpec::Var(v) => GraphCtx::Var(*v),
                };
                self.eval_group(inner, bindings, inner_ctx)?
            }
            EncElement::Union(branches) => {
                let mut next = Vec::new();
                if let Some((last, init)) = branches.split_last() {
                    for branch in init {
                        next.extend(self.eval_group(branch, bindings.clone(), ctx)?);
                    }
                    next.extend(self.eval_group(last, bindings, ctx)?);
                }
                next
            }
        })
    }

    /// Evaluate a group for a single input row without cloning it up
    /// front: the first element matches `seed` by reference, so OPTIONAL
    /// only pays for rows its inner group actually produces.
    fn eval_group_seeded(
        &self,
        group: &EncGroup,
        seed: &IdBinding,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        let Some((first, rest)) = group.elements.split_first() else {
            return Ok(vec![seed.clone()]);
        };
        let mut bindings = match first {
            EncElement::Triples(patterns) => self.eval_triples_seeded(patterns, seed, ctx)?,
            EncElement::Empty => Vec::new(),
            EncElement::Filter(expr) => {
                if self.filter_passes(seed, expr) {
                    vec![seed.clone()]
                } else {
                    Vec::new()
                }
            }
            EncElement::Optional(inner) => {
                let extended = self.eval_group_seeded(inner, seed, ctx)?;
                if extended.is_empty() {
                    vec![seed.clone()]
                } else {
                    extended
                }
            }
            EncElement::Graph(spec, inner) => {
                let inner_ctx = match spec {
                    GraphSpec::Fixed(id) => GraphCtx::Fixed(*id),
                    GraphSpec::Var(v) => GraphCtx::Var(*v),
                };
                self.eval_group_seeded(inner, seed, inner_ctx)?
            }
            EncElement::Union(branches) => {
                let mut out = Vec::new();
                for branch in branches {
                    out.extend(self.eval_group_seeded(branch, seed, ctx)?);
                }
                out
            }
        };
        for element in rest {
            if bindings.is_empty() {
                break;
            }
            bindings = self.apply_element(element, bindings, ctx)?;
        }
        Ok(bindings)
    }

    fn eval_triples(
        &self,
        patterns: &[EncTriple],
        bindings: Vec<IdBinding>,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        if self.options.vectorize {
            if let Some(result) = crate::batch::try_vectorized(self, patterns, &bindings, ctx)? {
                return Ok(result);
            }
        }
        let order = self.join_order(patterns, bindings.first(), ctx);
        let mut current = bindings;
        for &idx in &order {
            current = self.join_step(&patterns[idx], current, ctx)?;
            self.cap_rows(&mut current);
            if current.is_empty() {
                break;
            }
        }
        Ok(current)
    }

    /// Like [`Evaluator::eval_triples`] for a single borrowed input row.
    fn eval_triples_seeded(
        &self,
        patterns: &[EncTriple],
        seed: &IdBinding,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        let order = self.join_order(patterns, Some(seed), ctx);
        let Some((&head, tail)) = order.split_first() else {
            return Ok(vec![seed.clone()]);
        };
        let mut current = Vec::new();
        self.match_rows(&patterns[head], seed, ctx, &mut current);
        for &idx in tail {
            if current.is_empty() {
                break;
            }
            current = self.join_step(&patterns[idx], current, ctx)?;
            self.cap_rows(&mut current);
        }
        Ok(current)
    }

    /// Extend every binding in `current` with matches of `pattern`,
    /// parallelising over rows when the set is large enough. Governed:
    /// one checkpoint at entry, binding-table bytes charged on exit.
    fn join_step(
        &self,
        pattern: &EncTriple,
        current: Vec<IdBinding>,
        ctx: GraphCtx,
    ) -> Result<Vec<IdBinding>, SparqlError> {
        self.guard()?;
        let next = if current.len() >= self.options.parallel_threshold {
            if let Some(instr) = self.instr {
                instr.parallel_joins.fetch_add(1, Relaxed);
            }
            parallel_map(&current, |b| {
                let mut out = Vec::new();
                self.match_rows(pattern, b, ctx, &mut out);
                out
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            if let Some(instr) = self.instr {
                instr.serial_joins.fetch_add(1, Relaxed);
            }
            let mut next = Vec::new();
            for (i, b) in current.iter().enumerate() {
                if self.governor.is_some() && i % GOVERNOR_ROW_INTERVAL == GOVERNOR_ROW_INTERVAL - 1
                {
                    self.guard()?;
                }
                self.match_rows(pattern, b, ctx, &mut next);
            }
            next
        };
        self.charge_rows(&next)?;
        Ok(next)
    }

    // --------------------------------------------------------- join ordering

    /// Decide the order in which a BGP's patterns are joined.
    ///
    /// Greedy cardinality-based ordering: at each step pick the cheapest
    /// remaining pattern, where cost is the store's index-range estimate of
    /// the pattern's constants, discounted for positions whose variables
    /// are already bound (they act as extra constraints once joined) and
    /// heavily penalised when the pattern shares no variable with the
    /// bound set (a cartesian product).
    fn join_order(
        &self,
        patterns: &[EncTriple],
        first: Option<&IdBinding>,
        ctx: GraphCtx,
    ) -> Vec<usize> {
        if !self.options.reorder_joins || patterns.len() <= 1 {
            let order: Vec<usize> = (0..patterns.len()).collect();
            self.record_order(patterns, &order);
            return order;
        }
        let mut bound: HashSet<VarId> = HashSet::new();
        if let Some(b) = first {
            for (i, slot) in b.iter().enumerate() {
                if slot.is_some() {
                    bound.insert(VarId(i as u16));
                }
            }
        }
        let graph_slot = match ctx {
            GraphCtx::Fixed(id) => Some(id),
            _ => None,
        };
        let mut remaining: Vec<usize> = (0..patterns.len()).collect();
        let mut order = Vec::with_capacity(patterns.len());
        while remaining.len() > 1 {
            let mut best_pos = 0;
            let mut best_cost = f64::INFINITY;
            for (pos, &idx) in remaining.iter().enumerate() {
                let cost = self.pattern_cost(&patterns[idx], &bound, graph_slot);
                // strict `<`: ties go to the textually earlier pattern
                if cost < best_cost {
                    best_cost = cost;
                    best_pos = pos;
                }
            }
            let idx = remaining.remove(best_pos);
            collect_triple_vars(&patterns[idx], &mut bound);
            order.push(idx);
        }
        order.push(remaining[0]);
        self.record_order(patterns, &order);
        order
    }

    /// Record each pattern's executed join position (first execution of
    /// its BGP wins). Row-engine call sites; also marks the operator.
    fn record_order(&self, patterns: &[EncTriple], order: &[usize]) {
        if let Some(instr) = self.instr {
            for (position, &idx) in order.iter().enumerate() {
                instr.record_order(patterns[idx].pid, position);
                instr.record_operator(patterns[idx].pid, Operator::NestedLoop);
            }
        }
    }

    pub(crate) fn pattern_cost(
        &self,
        pattern: &EncTriple,
        bound: &HashSet<VarId>,
        graph_slot: Option<TermId>,
    ) -> f64 {
        let enc = EncodedPattern {
            subject: const_of(&pattern.subject),
            predicate: const_of(&pattern.predicate),
            object: const_of(&pattern.object),
            graph: graph_slot,
        };
        let base = self.store.estimate_pattern(&enc) as f64;
        let mut bound_positions = 0i32;
        let mut vars: HashSet<VarId> = HashSet::new();
        for node in [&pattern.subject, &pattern.predicate, &pattern.object] {
            let mut node_vars = HashSet::new();
            collect_node_vars(node, &mut node_vars);
            if !node_vars.is_empty() && node_vars.iter().all(|v| bound.contains(v)) {
                bound_positions += 1;
            }
            vars.extend(node_vars);
        }
        // each position fully determined by already-bound variables acts
        // like one more index constraint on top of the constant estimate
        let mut cost = base / 8f64.powi(bound_positions);
        if !bound.is_empty() && !vars.is_empty() && vars.is_disjoint(bound) {
            cost *= 1e3;
        }
        cost
    }

    // --------------------------------------------------------------- matching

    /// Extend `binding` with every quad matching `pattern` under the graph
    /// context. Runs entirely in the id domain: the scan pattern is built
    /// from ids, candidates come back as `[u32; 4]`, and unification
    /// compares/binds ids.
    fn match_rows(
        &self,
        pattern: &EncTriple,
        binding: &IdBinding,
        ctx: GraphCtx,
        out: &mut Vec<IdBinding>,
    ) {
        let s = self.resolve_node(&pattern.subject, binding);
        let p = self.resolve_node(&pattern.predicate, binding);
        let o = self.resolve_node(&pattern.object, binding);
        if matches!(s, Resolved::Dead) || matches!(p, Resolved::Dead) || matches!(o, Resolved::Dead)
        {
            return;
        }

        // Graph scoping
        let mut graph_var: Option<VarId> = None;
        let graph = match ctx {
            GraphCtx::Default => None,
            GraphCtx::Fixed(id) => Some(id),
            GraphCtx::Var(v) => match binding[v.0 as usize] {
                Some(id) => {
                    if !matches!(self.store.term(id), Term::Iri(_)) {
                        return;
                    }
                    Some(id)
                }
                None => {
                    graph_var = Some(v);
                    None
                }
            },
        };

        let produced_before = out.len();
        let scan = EncodedPattern { subject: s.id(), predicate: p.id(), object: o.id(), graph };
        let default_graph = self.store.default_graph_id();
        for [qs, qp, qo, qg] in self.store.match_ids(&scan) {
            let mut candidate = binding.clone();
            if !self.unify_node(&pattern.subject, TermId(qs), &mut candidate) {
                continue;
            }
            if !self.unify_node(&pattern.predicate, TermId(qp), &mut candidate) {
                continue;
            }
            if !self.unify_node(&pattern.object, TermId(qo), &mut candidate) {
                continue;
            }
            if let Some(v) = graph_var {
                // GRAPH ?g ranges over named graphs only
                if Some(TermId(qg)) == default_graph {
                    continue;
                }
                candidate[v.0 as usize] = Some(TermId(qg));
            }
            out.push(candidate);
        }
        if let Some(instr) = self.instr {
            instr.record_match(pattern.pid, out.len() - produced_before);
        }
    }

    fn resolve_node(&self, node: &EncNode, binding: &IdBinding) -> Resolved {
        match node {
            EncNode::Const(id) => Resolved::Bound(*id),
            EncNode::Var(v) => match binding[v.0 as usize] {
                Some(id) => Resolved::Bound(id),
                None => Resolved::Unbound,
            },
            EncNode::Quoted(q) => {
                let s = self.resolve_node(&q.subject, binding);
                let p = self.resolve_node(&q.predicate, binding);
                let o = self.resolve_node(&q.object, binding);
                match (s, p, o) {
                    (Resolved::Dead, _, _)
                    | (_, Resolved::Dead, _)
                    | (_, _, Resolved::Dead) => Resolved::Dead,
                    (Resolved::Bound(s), Resolved::Bound(p), Resolved::Bound(o)) => {
                        // every constituent is known: the quoted term
                        // matches iff it is itself interned
                        let term = Term::quoted(
                            self.store.term(s).clone(),
                            self.store.term(p).clone(),
                            self.store.term(o).clone(),
                        );
                        match self.store.id_of(&term) {
                            Some(id) => Resolved::Bound(id),
                            None => Resolved::Dead,
                        }
                    }
                    _ => Resolved::Unbound,
                }
            }
        }
    }

    /// Unify a compiled node with a candidate quad position, purely by id.
    fn unify_node(&self, node: &EncNode, id: TermId, binding: &mut IdBinding) -> bool {
        match node {
            EncNode::Const(c) => *c == id,
            EncNode::Var(v) => {
                let slot = &mut binding[v.0 as usize];
                match slot {
                    Some(existing) => *existing == id,
                    None => {
                        *slot = Some(id);
                        true
                    }
                }
            }
            EncNode::Quoted(q) => match self.store.term(id) {
                Term::Quoted(t) => self.unify_quoted(q, t, binding),
                _ => false,
            },
        }
    }

    fn unify_quoted(&self, pattern: &EncTriple, triple: &Triple, binding: &mut IdBinding) -> bool {
        self.unify_term(&pattern.subject, &triple.subject, binding)
            && self.unify_term(&pattern.predicate, &triple.predicate, binding)
            && self.unify_term(&pattern.object, &triple.object, binding)
    }

    /// Unify an encoded node against a decoded term (the inside of a
    /// stored quoted triple). The dictionary interns quoted constituents,
    /// so variable bindings still land in the id domain.
    fn unify_term(&self, node: &EncNode, term: &Term, binding: &mut IdBinding) -> bool {
        match node {
            EncNode::Const(c) => self.store.term(*c) == term,
            EncNode::Var(v) => {
                let Some(id) = self.store.id_of(term) else {
                    return false;
                };
                let slot = &mut binding[v.0 as usize];
                match slot {
                    Some(existing) => *existing == id,
                    None => {
                        *slot = Some(id);
                        true
                    }
                }
            }
            EncNode::Quoted(q) => match term {
                Term::Quoted(t) => self.unify_quoted(q, t, binding),
                _ => false,
            },
        }
    }

    // -------------------------------------------------------------- boundary

    /// Lazy per-variable decoding for FILTER: only variables the
    /// expression actually references are materialised.
    fn filter_passes(&self, binding: &IdBinding, expr: &Expr) -> bool {
        match self.instr {
            None => crate::expr::filter_passes(
                &|v: VarId| binding[v.0 as usize].map(|id| self.store.term(id).clone()),
                expr,
            ),
            Some(instr) => {
                let decoded = Cell::new(0u64);
                let passes = crate::expr::filter_passes(
                    &|v: VarId| {
                        binding[v.0 as usize].map(|id| {
                            decoded.set(decoded.get() + 1);
                            self.store.term(id).clone()
                        })
                    },
                    expr,
                );
                instr.decoded.fetch_add(decoded.get(), Relaxed);
                passes
            }
        }
    }

    /// Decode id bindings into term rows for the solution modifiers. Only
    /// variables the modifiers can observe are materialised; the rest stay
    /// `None`. Governed: decoded terms are charged against the memory
    /// budget (48 logical bytes per materialised term) before decoding.
    fn decode_bindings(
        &self,
        query: &Query,
        select: &SelectQuery,
        bindings: Vec<IdBinding>,
    ) -> Result<Vec<Vec<Option<Term>>>, SparqlError> {
        let used = used_variables(query, select);
        if self.governor.is_some() {
            self.guard()?;
            let used_count = used.iter().filter(|&&u| u).count() as u64;
            self.charge(bindings.len() as u64 * used_count * 48)?;
        }
        let decode_row = |b: &IdBinding| -> Vec<Option<Term>> {
            b.iter()
                .zip(&used)
                .map(|(slot, &u)| {
                    if u {
                        slot.map(|id| self.store.term(id).clone())
                    } else {
                        None
                    }
                })
                .collect()
        };
        let decoded = if bindings.len() >= self.options.parallel_threshold {
            parallel_map(&bindings, decode_row)
        } else {
            bindings.iter().map(decode_row).collect()
        };
        if let Some(instr) = self.instr {
            let terms: u64 = decoded
                .iter()
                .map(|row| row.iter().filter(|slot| slot.is_some()).count() as u64)
                .sum();
            instr.decoded.fetch_add(terms, Relaxed);
        }
        Ok(decoded)
    }
}

pub(crate) fn const_of(node: &EncNode) -> Option<TermId> {
    match node {
        EncNode::Const(id) => Some(*id),
        _ => None,
    }
}

pub(crate) fn collect_triple_vars(t: &EncTriple, out: &mut HashSet<VarId>) {
    for n in [&t.subject, &t.predicate, &t.object] {
        collect_node_vars(n, out);
    }
}

fn collect_node_vars(n: &EncNode, out: &mut HashSet<VarId>) {
    match n {
        EncNode::Var(v) => {
            out.insert(*v);
        }
        EncNode::Quoted(q) => collect_triple_vars(q, out),
        EncNode::Const(_) => {}
    }
}

/// The concrete term a ground node pattern denotes, or `None` if it
/// contains a variable.
fn ground_term(node: &NodePattern) -> Option<Term> {
    match node {
        NodePattern::Term(t) => Some(t.clone()),
        NodePattern::Var(_) => None,
        NodePattern::Quoted(q) => Some(Term::quoted(
            ground_term(&q.subject)?,
            ground_term(&q.predicate)?,
            ground_term(&q.object)?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use lids_rdf::Quad;

    fn store() -> lids_rdf::QuadStore {
        let mut s = lids_rdf::QuadStore::new();
        let tr = |a: &str, p: &str, b: &str| Quad::new(Term::iri(a), Term::iri(p), Term::iri(b));
        s.insert(&tr("t1", "type", "Table"));
        s.insert(&tr("t2", "type", "Table"));
        s.insert(&tr("c1", "type", "Column"));
        s.insert(&Quad::new(Term::iri("t1"), Term::iri("name"), Term::string("titanic")));
        s.insert(&Quad::new(Term::iri("t2"), Term::iri("name"), Term::string("heart_failure")));
        s.insert(&Quad::new(Term::iri("t1"), Term::iri("rows"), Term::integer(891)));
        s.insert(&Quad::new(Term::iri("t2"), Term::iri("rows"), Term::integer(300)));
        s.insert(&tr("t1", "hasColumn", "c1"));
        // RDF-star similarity edge
        s.insert(&Quad::new(
            Term::quoted(Term::iri("c1"), Term::iri("sim"), Term::iri("c2")),
            Term::iri("score"),
            Term::double(0.91),
        ));
        // named graph content
        s.insert(&Quad::in_graph(
            Term::iri("p1s1"),
            Term::iri("calls"),
            Term::iri("pandas.read_csv"),
            GraphName::named("http://pipeline/1"),
        ));
        s.insert(&Quad::in_graph(
            Term::iri("p2s1"),
            Term::iri("calls"),
            Term::iri("pandas.read_csv"),
            GraphName::named("http://pipeline/2"),
        ));
        s
    }

    fn run(q: &str) -> Solutions {
        let store = store();
        evaluate(&store, &parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn bgp_join() {
        let s = run("SELECT ?t ?n WHERE { ?t <type> <Table> . ?t <name> ?n . }");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filter_numeric() {
        let s = run("SELECT ?t WHERE { ?t <rows> ?r . FILTER(?r > 500) }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_str(0, "t").as_deref(), Some("t1"));
    }

    #[test]
    fn filter_string_functions() {
        let s = run(
            r#"SELECT ?t WHERE { ?t <name> ?n . FILTER(CONTAINS(?n, "heart") || STRSTARTS(?n, "tit")) }"#,
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filter_regex() {
        let s = run(r#"SELECT ?t WHERE { ?t <name> ?n . FILTER(REGEX(?n, "^tit.*c$")) }"#);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let s = run(
            "SELECT ?t ?c WHERE { ?t <type> <Table> . OPTIONAL { ?t <hasColumn> ?c . } } ORDER BY ?t",
        );
        assert_eq!(s.len(), 2);
        assert!(s.get(0, "c").is_some()); // t1 has a column
        assert!(s.get(1, "c").is_none()); // t2 does not
    }

    #[test]
    fn union_concatenates() {
        let s = run("SELECT ?x WHERE { { ?x <type> <Table> . } UNION { ?x <type> <Column> . } }");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn graph_variable_binds_named_graphs_only() {
        let s = run("SELECT DISTINCT ?g WHERE { GRAPH ?g { ?s <calls> ?lib . } }");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn graph_fixed() {
        let s = run("SELECT ?s WHERE { GRAPH <http://pipeline/1> { ?s <calls> ?lib . } }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_str(0, "s").as_deref(), Some("p1s1"));
    }

    #[test]
    fn default_scope_spans_all_graphs() {
        let s = run("SELECT ?s WHERE { ?s <calls> <pandas.read_csv> . }");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn quoted_pattern_matching() {
        let s = run("SELECT ?a ?b ?v WHERE { << ?a <sim> ?b >> <score> ?v . }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_str(0, "a").as_deref(), Some("c1"));
        assert_eq!(s.get_f64(0, "v"), Some(0.91));
    }

    #[test]
    fn count_group_order_limit() {
        let s = run(
            "SELECT ?lib (COUNT(?s) AS ?n) WHERE { ?s <calls> ?lib . } \
             GROUP BY ?lib ORDER BY DESC(?n) LIMIT 5",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_f64(0, "n"), Some(2.0));
    }

    #[test]
    fn count_star_without_group() {
        let s = run("SELECT (COUNT(*) AS ?n) WHERE { ?t <type> <Table> . }");
        assert_eq!(s.get_f64(0, "n"), Some(2.0));
    }

    #[test]
    fn count_empty_is_zero() {
        let s = run("SELECT (COUNT(*) AS ?n) WHERE { ?t <type> <Nonexistent> . }");
        assert_eq!(s.get_f64(0, "n"), Some(0.0));
    }

    #[test]
    fn sum_avg_min_max() {
        let s = run(
            "SELECT (SUM(?r) AS ?s) (AVG(?r) AS ?a) (MIN(?r) AS ?mn) (MAX(?r) AS ?mx) \
             WHERE { ?t <rows> ?r . }",
        );
        assert_eq!(s.get_f64(0, "s"), Some(1191.0));
        assert_eq!(s.get_f64(0, "a"), Some(595.5));
        assert_eq!(s.get_f64(0, "mn"), Some(300.0));
        assert_eq!(s.get_f64(0, "mx"), Some(891.0));
    }

    #[test]
    fn ask_true_false() {
        let store = store();
        let yes = evaluate(&store, &parse_query("ASK { <t1> <type> <Table> . }").unwrap()).unwrap();
        assert_eq!(yes.ask, Some(true));
        let no = evaluate(&store, &parse_query("ASK { <t9> <type> <Table> . }").unwrap()).unwrap();
        assert_eq!(no.ask, Some(false));
    }

    #[test]
    fn distinct_dedups() {
        let s = run("SELECT DISTINCT ?lib WHERE { ?s <calls> ?lib . }");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn order_by_ascending_variable() {
        let s = run("SELECT ?t ?r WHERE { ?t <rows> ?r . } ORDER BY ?r");
        assert_eq!(s.get_f64(0, "r"), Some(300.0));
        assert_eq!(s.get_f64(1, "r"), Some(891.0));
    }

    #[test]
    fn offset_skips() {
        let s = run("SELECT ?t WHERE { ?t <type> <Table> . } ORDER BY ?t LIMIT 1 OFFSET 1");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_str(0, "t").as_deref(), Some("t2"));
    }

    #[test]
    fn arithmetic_in_filter() {
        let s = run("SELECT ?t WHERE { ?t <rows> ?r . FILTER(?r * 2 - 100 > 1000) }");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bound_function() {
        let s = run(
            "SELECT ?t WHERE { ?t <type> <Table> . OPTIONAL { ?t <hasColumn> ?c . } FILTER(!BOUND(?c)) }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get_str(0, "t").as_deref(), Some("t2"));
    }

    #[test]
    fn filter_error_is_false() {
        // comparing an unbound var: row dropped, not an error
        let s = run(
            "SELECT ?t WHERE { ?t <type> <Table> . OPTIONAL { ?t <hasColumn> ?c . } FILTER(?c = <c1>) }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unknown_constant_short_circuits() {
        // <never-seen> is not in the dictionary: the BGP compiles to Empty
        let s = run("SELECT ?x WHERE { ?x <type> <Table> . ?x <never-seen> ?y . }");
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let store = store();
        let query = parse_query(
            "SELECT ?t ?n ?r WHERE { ?t <type> <Table> . ?t <name> ?n . ?t <rows> ?r . }",
        )
        .unwrap();
        let sequential = evaluate_with(
            &store,
            &query,
            EvalOptions {
                reorder_joins: true,
                parallel_threshold: usize::MAX,
                vectorize: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        // threshold 1: every join step takes the parallel path
        let parallel = evaluate_with(
            &store,
            &query,
            EvalOptions {
                reorder_joins: true,
                parallel_threshold: 1,
                vectorize: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.rows, parallel.rows);
    }

    #[test]
    fn options_builder_matches_literal() {
        let built = EvalOptions::builder().reorder_joins(false).parallel_threshold(7).build();
        assert!(!built.reorder_joins);
        assert_eq!(built.parallel_threshold, 7);
        // defaults flow through untouched knobs
        let default_built = EvalOptions::builder().build();
        assert!(default_built.reorder_joins);
        assert_eq!(default_built.parallel_threshold, EvalOptions::default().parallel_threshold);
    }

    #[test]
    fn explain_reports_est_and_actual_per_pattern() {
        let store = store();
        let query = parse_query(
            "SELECT ?t ?n ?r WHERE { ?t <type> <Table> . ?t <name> ?n . ?t <rows> ?r . }",
        )
        .unwrap();
        // row engine: the parallel/serial join counters below only move
        // on the per-row path
        let options = EvalOptions { vectorize: false, ..EvalOptions::default() };
        let (sols, report) = evaluate_explained(&store, &query, options).unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(report.rows, 2);
        assert_eq!(report.patterns.len(), 3);
        for p in &report.patterns {
            assert!(p.satisfiable, "{}", p.pattern);
            assert!(p.order.is_some(), "{} was never joined", p.pattern);
            assert!(p.estimated_rows > 0, "{} has no estimate", p.pattern);
            assert!(p.actual_rows > 0, "{} matched nothing", p.pattern);
            assert!(p.scans > 0, "{} was never scanned", p.pattern);
        }
        // every join-order position 0..n assigned exactly once
        let mut positions: Vec<usize> = report.patterns.iter().filter_map(|p| p.order).collect();
        positions.sort_unstable();
        assert_eq!(positions, vec![0, 1, 2]);
        assert!(report.decoded_terms > 0);
        assert_eq!(report.parallel_joins + report.serial_joins, 3);
        // instrumentation must not change the answer
        let plain = evaluate(&store, &query).unwrap();
        assert_eq!(sols.rows, plain.rows);
    }

    #[test]
    fn explain_labels_vectorized_operators() {
        let store = store();
        let query = parse_query(
            "SELECT ?t ?n ?r WHERE { ?t <type> <Table> . ?t <name> ?n . ?t <rows> ?r . }",
        )
        .unwrap();
        let (sols, report) = evaluate_explained(&store, &query, EvalOptions::default()).unwrap();
        assert_eq!(sols.len(), 2);
        // a root star over ?t with constant predicates runs leapfrog
        assert_eq!(report.leapfrog_joins, 1);
        for p in &report.patterns {
            assert_eq!(p.operator, Some("leapfrog"), "{}", p.pattern);
            assert!(p.actual_rows > 0, "{} matched nothing", p.pattern);
        }
        // same answer as the row engine
        let row = evaluate_with(
            &store,
            &query,
            EvalOptions { vectorize: false, ..EvalOptions::default() },
        )
        .unwrap();
        let norm = |s: &Solutions| {
            let mut rows: Vec<String> = s.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(norm(&sols), norm(&row));
    }

    #[test]
    fn explain_marks_unsatisfiable_patterns() {
        let store = store();
        let query =
            parse_query("SELECT ?x WHERE { ?x <type> <Table> . ?x <never-seen> ?y . }").unwrap();
        let (sols, report) = evaluate_explained(&store, &query, EvalOptions::default()).unwrap();
        assert_eq!(sols.len(), 0);
        assert_eq!(report.patterns.len(), 2);
        let dead: Vec<_> = report.patterns.iter().filter(|p| !p.satisfiable).collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].pattern.contains("never-seen"));
        assert_eq!(dead[0].order, None);
        let text = report.to_string();
        assert!(text.contains("unsatisfiable"));
    }

    #[test]
    fn explain_counts_optional_and_filter_decodes() {
        let store = store();
        let query = parse_query(
            "SELECT ?t WHERE { ?t <type> <Table> . OPTIONAL { ?t <hasColumn> ?c . } \
             FILTER(BOUND(?c)) }",
        )
        .unwrap();
        let (sols, report) = evaluate_explained(&store, &query, EvalOptions::default()).unwrap();
        assert_eq!(sols.len(), 1);
        // both the outer and the OPTIONAL pattern appear in the plan
        assert_eq!(report.patterns.len(), 2);
        assert!(report.patterns.iter().all(|p| p.order.is_some()));
    }

    #[test]
    fn matches_reference_on_fixture_queries() {
        let store = store();
        for q in [
            "SELECT ?t ?n WHERE { ?t <type> <Table> . ?t <name> ?n . }",
            "SELECT ?t ?c WHERE { ?t <type> <Table> . OPTIONAL { ?t <hasColumn> ?c . } }",
            "SELECT ?a ?b ?v WHERE { << ?a <sim> ?b >> <score> ?v . }",
            "SELECT ?g ?s WHERE { GRAPH ?g { ?s <calls> ?lib . } }",
        ] {
            let query = parse_query(q).unwrap();
            let encoded = evaluate_with(
                &store,
                &query,
                EvalOptions {
                    reorder_joins: false,
                    parallel_threshold: usize::MAX,
                    vectorize: false,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            let reference = crate::reference::evaluate(&store, &query).unwrap();
            assert_eq!(encoded.rows, reference.rows, "query: {q}");
        }
    }

    // ----------------------------------------------------- governance

    use lids_exec::{CancelToken, ErrorKind, LidsError, QueryLimits, TestClock, TripReason};
    use std::sync::Arc as StdArc;

    fn trip_of(err: SparqlError) -> TripReason {
        match err {
            SparqlError::Governed(trip) => trip.reason,
            other => panic!("expected governed error, got {other}"),
        }
    }

    const JOIN_Q: &str = "SELECT ?t ?n WHERE { ?t <type> <Table> . ?t <name> ?n . }";

    #[test]
    fn expired_deadline_trips_timeout() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let clock = TestClock::new();
        let limits = QueryLimits {
            deadline: Some(Duration::from_millis(50)),
            clock: Some(StdArc::clone(&clock) as StdArc<dyn lids_exec::Clock>),
            ..QueryLimits::default()
        };
        let governor = limits.arm().unwrap();
        clock.advance(Duration::from_millis(51));
        for vectorize in [false, true] {
            let opts = EvalOptions { vectorize, ..EvalOptions::default() };
            let err = evaluate_governed(&store, &query, opts, Some(&governor)).unwrap_err();
            assert_eq!(trip_of(err), TripReason::Timeout);
        }
    }

    #[test]
    fn tiny_memory_budget_trips_budget_exceeded() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        for vectorize in [false, true] {
            let opts = EvalOptions::builder().memory_budget(8).vectorize(vectorize).build();
            let err = evaluate_with(&store, &query, opts).unwrap_err();
            assert_eq!(trip_of(err), TripReason::BudgetExceeded);
        }
    }

    #[test]
    fn cancelled_token_trips_cancelled() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let limits = QueryLimits { cancel: Some(token), ..QueryLimits::default() };
        let governor = limits.arm().unwrap();
        let err = evaluate_governed(&store, &query, EvalOptions::default(), Some(&governor))
            .unwrap_err();
        assert_eq!(trip_of(err), TripReason::Cancelled);
    }

    #[test]
    fn governed_error_converts_to_typed_lids_error() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions::builder().memory_budget(8).build();
        let err: LidsError = evaluate_with(&store, &query, opts).unwrap_err().into();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded);
    }

    #[test]
    fn row_cap_truncates_and_flags() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        for vectorize in [false, true] {
            let opts = EvalOptions::builder().row_cap(1).vectorize(vectorize).build();
            let sols = evaluate_with(&store, &query, opts).unwrap();
            assert!(sols.truncated, "cap must latch the truncated flag");
            assert!(sols.len() <= 1, "capped run must not exceed the cap");
        }
        // uncapped control: exact result, flag clear
        let sols = evaluate_with(&store, &query, EvalOptions::default()).unwrap();
        assert!(!sols.truncated);
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn cancel_after_checks_fault_injection_trips() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let limits =
            QueryLimits { cancel_after_checks: Some(1), ..QueryLimits::default() };
        let governor = limits.arm().unwrap();
        let err = evaluate_governed(&store, &query, EvalOptions::default(), Some(&governor))
            .unwrap_err();
        assert_eq!(trip_of(err), TripReason::Cancelled);
    }

    #[test]
    fn generous_limits_leave_results_exact() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions::builder()
            .deadline(Duration::from_secs(60))
            .memory_budget(64 << 20)
            .build();
        let governed = evaluate_with(&store, &query, opts).unwrap();
        let plain = evaluate(&store, &query).unwrap();
        assert_eq!(governed.rows, plain.rows);
        assert!(!governed.truncated);
    }
}

