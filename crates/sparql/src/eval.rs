//! Query compilation and evaluation over a [`StoreSnapshot`].
//!
//! One executor, never joining over decoded [`Term`]s. A query is
//! *compiled* once against the store — every constant node is resolved to
//! its dictionary [`TermId`] up front (a constant the store has never
//! interned short-circuits its whole BGP to empty) — and evaluated as a
//! flow of columnar binding batches (`batch.rs`): from the single
//! all-unbound root row, each group element maps a batch to a batch. A basic
//! graph pattern is joined in by the batch operators (leapfrog, merge,
//! probe), OPTIONAL is one left-outer join by row provenance over whatever
//! its inner group holds, UNION concatenates its branches' batches, FILTER
//! retains rows, GRAPH narrows the scope its inner group scans under.
//!
//! No term is materialised here. FILTER expressions, sort keys and aggregate
//! inputs look dictionary terms up by reference; the solution modifiers
//! (`crate::project`) run on ids and the answer leaves as a [`Solutions`] of
//! ids, decoded by whoever reads it. Join ordering is cardinality-based: each
//! candidate pattern is costed with [`StoreSnapshot::estimate_pattern`],
//! which answers from the store's index range bounds.
//!
//! The naive decoded engine survives as [`crate::reference`], the oracle:
//! the `encoded_vs_reference` property tests hold this executor to its
//! semantics.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use lids_exec::{QueryGovernor, QueryLimits};
use lids_rdf::{EncodedPattern, GraphName, StoreSnapshot, Term, TermId};

use crate::ast::*;
use crate::batch::{join_pipeline, Batch};
use crate::explain::{ExplainReport, PatternPlan};
use crate::project::project;
use crate::results::{Solutions, SparqlError, UNBOUND};

pub use crate::expr::simple_regex;

/// Evaluate a parsed query against the store.
pub fn evaluate<'a>(
    store: &'a StoreSnapshot,
    query: &Query,
) -> Result<Solutions<'a>, SparqlError> {
    evaluate_with(store, query, EvalOptions::default())
}

/// Evaluation knobs: one planning ablation and the resource limits.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Cardinality-based join ordering. Disabling it joins each BGP's
    /// patterns in textual order over the same operators — the ablation
    /// arm of the `sparql/join_ordering` bench, and the second plan the
    /// differential suites hold to [`crate::reference`].
    pub reorder_joins: bool,
    /// Wall-clock ceiling for one evaluation. When set (and no external
    /// governor is supplied) a local [`QueryGovernor`] is armed; past
    /// the deadline the query returns [`SparqlError::Governed`] with
    /// [`TripReason::Timeout`](lids_exec::TripReason::Timeout).
    pub deadline: Option<Duration>,
    /// Ceiling on cumulative binding-table / answer allocations in
    /// logical bytes. Exceeding it returns [`SparqlError::Governed`]
    /// instead of allocating without bound.
    pub memory_budget: Option<u64>,
    /// An explicit row cap: intermediate binding sets larger
    /// than this are truncated (and the result marked
    /// [`Solutions::truncated`]) rather than failed. `None` = exact.
    pub row_cap: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            reorder_joins: true,
            deadline: None,
            memory_budget: None,
            row_cap: None,
        }
    }
}

impl EvalOptions {
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

/// Always-on per-evaluation operator counters (added once per operator
/// execution — never per row; one evaluation runs on one thread).
/// [`evaluate_governed`] fills one in so callers (the platform's obs
/// registry) can attribute work to merge / probe / leapfrog operators
/// without paying for full explain instrumentation.
#[derive(Debug, Default)]
pub struct ExecStats {
    merge_joins: Cell<u64>,
    probe_joins: Cell<u64>,
    leapfrog_joins: Cell<u64>,
}

impl ExecStats {
    /// Sort-merge join executions.
    pub fn merge_joins(&self) -> u64 {
        self.merge_joins.get()
    }

    /// Per-row probe join executions.
    pub fn probe_joins(&self) -> u64 {
        self.probe_joins.get()
    }

    /// Leapfrog star-intersection executions.
    pub fn leapfrog_joins(&self) -> u64 {
        self.leapfrog_joins.get()
    }

    pub(crate) fn count(&self, op: Operator) {
        let counter = match op {
            Operator::Probe => &self.probe_joins,
            Operator::Merge => &self.merge_joins,
            Operator::Leapfrog => &self.leapfrog_joins,
        };
        counter.set(counter.get() + 1);
    }
}

/// Which of the join operators in [`crate::batch`] executed a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operator {
    Probe,
    Merge,
    Leapfrog,
}

impl Operator {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Operator::Probe => "probe",
            Operator::Merge => "merge",
            Operator::Leapfrog => "leapfrog",
        }
    }
}

/// Evaluate with explicit options.
pub fn evaluate_with<'a>(
    store: &'a StoreSnapshot,
    query: &Query,
    options: EvalOptions,
) -> Result<Solutions<'a>, SparqlError> {
    evaluate_governed(store, query, options, None, None)
}

/// Evaluate under an externally armed [`QueryGovernor`] (shared
/// cancellation, cross-engine budgets), filling `stats` with per-operator
/// execution counts. With `governor: None`, a local governor is armed from
/// the options' deadline/budget fields when set.
///
/// The query is compiled against `store` here, on every call (0.3–0.6 µs
/// on the lake's discovery texts): no plan outlives the snapshot it was
/// compiled for. [`crate::PreparedQuery`]'s `execute*` are this function.
pub fn evaluate_governed<'a>(
    store: &'a StoreSnapshot,
    query: &Query,
    options: EvalOptions,
    governor: Option<&QueryGovernor>,
    stats: Option<&ExecStats>,
) -> Result<Solutions<'a>, SparqlError> {
    let mut compiler = Compiler::new(store, &query.variables, false);
    let compiled = compiler.compile_query(query);
    eval_compiled(store, query, options, &compiled, None, stats, governor)
}

/// Evaluate with per-pattern instrumentation, returning the solutions
/// plus an [`ExplainReport`] of the executed plan.
pub fn evaluate_explained<'a>(
    store: &'a StoreSnapshot,
    query: &Query,
    options: EvalOptions,
) -> Result<(Solutions<'a>, ExplainReport), SparqlError> {
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
            PatternPlan {
                pattern: meta.text,
                estimated_rows: meta.estimated,
                actual_rows: cell.actual.get(),
                scans: cell.scans.get(),
                order: cell.order.get(),
                satisfiable: meta.satisfiable,
                operator: cell.operator.get().map(Operator::label),
            }
        })
        .collect();
    let report = ExplainReport {
        reorder_joins: options.reorder_joins,
        rows: solutions.len(),
        wall_secs,
        patterns,
        decoded_terms: instr.decoded.get(),
        merge_joins: stats.merge_joins(),
        probe_joins: stats.probe_joins(),
        leapfrog_joins: stats.leapfrog_joins(),
        truncated: solutions.truncated,
    };
    Ok((solutions, report))
}

fn eval_compiled<'a>(
    store: &'a StoreSnapshot,
    query: &Query,
    options: EvalOptions,
    compiled: &EncGroup,
    instr: Option<&Instr>,
    stats: Option<&ExecStats>,
    governor: Option<&QueryGovernor>,
) -> Result<Solutions<'a>, SparqlError> {
    // With no external governor, arm a local one from the options'
    // deadline/budget. All-`None` limits arm nothing: the ungoverned
    // fast path pays a single never-taken branch per checkpoint site.
    let local = match governor {
        Some(_) => None,
        None => options.limits().arm(),
    };
    let governor = governor.or(local.as_ref());
    let ev = Evaluator {
        store,
        options,
        instr,
        stats,
        governor,
        truncated: Cell::new(false),
        decoded: Cell::new(0),
        quoted: RefCell::default(),
    };
    let root = Batch::root(query.variables.len());
    let bindings = ev.eval_group(compiled, root, GraphCtx::Default)?;
    let mut solutions = match &query.form {
        QueryForm::Ask(_) => Solutions::ask(!bindings.is_empty()),
        QueryForm::Select(select) => project(&ev, store, query, select, &bindings)?,
    };
    solutions.truncated = ev.truncated.get();
    if let Some(instr) = instr {
        instr.decoded.set(instr.decoded.get() + ev.decoded.get());
    }
    Ok(solutions)
}

// -------------------------------------------------------- instrumentation

/// Per-pattern counters, written on the evaluator's hot path: one add per
/// operator execution (never per row), so instrumented evaluation stays
/// within a few percent of uninstrumented.
pub(crate) struct Instr {
    cells: Vec<InstrCell>,
    decoded: Cell<u64>,
}

#[derive(Default)]
struct InstrCell {
    /// Position in the executed join order; `None` = never joined. First
    /// recording wins — a BGP evaluated again (once per UNION branch
    /// input, say) keeps the plan of its first execution.
    order: Cell<Option<usize>>,
    actual: Cell<u64>,
    scans: Cell<u64>,
    /// The operator that joined this pattern (first execution wins).
    operator: Cell<Option<Operator>>,
}

impl Instr {
    fn new(n: usize) -> Self {
        Instr { cells: (0..n).map(|_| InstrCell::default()).collect(), decoded: Cell::new(0) }
    }

    pub(crate) fn record_order(&self, pid: u32, position: usize) {
        if let Some(cell) = self.cells.get(pid as usize) {
            cell.order.set(cell.order.get().or(Some(position)));
        }
    }

    pub(crate) fn record_match(&self, pid: u32, produced: usize) {
        if let Some(cell) = self.cells.get(pid as usize) {
            cell.scans.set(cell.scans.get() + 1);
            cell.actual.set(cell.actual.get() + produced as u64);
        }
    }

    pub(crate) fn record_operator(&self, pid: u32, op: Operator) {
        if let Some(cell) = self.cells.get(pid as usize) {
            cell.operator.set(cell.operator.get().or(Some(op)));
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

// --------------------------------------------------------------- compile

/// Compiles a query's patterns against the store, assigning each triple
/// pattern a dense pattern id. In explain mode it additionally records
/// per-pattern text and the constants-only `estimate_pattern` guess —
/// the same number join ordering starts from.
struct Compiler<'a> {
    store: &'a StoreSnapshot,
    vars: &'a [String],
    collect: bool,
    metas: Vec<PatternMeta>,
    next_pid: u32,
}

impl<'a> Compiler<'a> {
    fn new(store: &'a StoreSnapshot, vars: &'a [String], collect: bool) -> Self {
        Compiler { store, vars, collect, metas: Vec::new(), next_pid: 0 }
    }

    fn compile_query(&mut self, query: &Query) -> EncGroup {
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
        // a quoted subject is an annotation's, matched by its constituents:
        // it need not be interned
        let quoted = match &pattern.subject {
            NodePattern::Quoted(q) => Some(Cow::Borrowed(&**q)),
            NodePattern::Term(Term::Quoted(t)) => Some(Cow::Owned(TriplePattern {
                subject: NodePattern::Term(t.subject.clone()),
                predicate: NodePattern::Term(t.predicate.clone()),
                object: NodePattern::Term(t.object.clone()),
            })),
            _ => None,
        };
        let subject = match quoted {
            Some(q) => self.compile_quoted(&q).map(|q| EncNode::Quoted(Box::new(q))),
            None => self.compile_node(&pattern.subject),
        };
        let compiled = subject.and_then(|subject| {
            let predicate = self.compile_node(&pattern.predicate)?;
            let object = self.compile_node(&pattern.object)?;
            Some(EncTriple { pid, subject, predicate, object })
        });
        if self.collect {
            match &compiled {
                Some(t) => self.metas[pid as usize].estimated = estimate(self.store, t, None),
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
    /// Latched when a row cap truncated a binding table.
    truncated: Cell<bool>,
    /// Dictionary terms looked at so far (FILTER operands, sort keys,
    /// aggregate inputs).
    decoded: Cell<u64>,
    /// Annotated triples bound to a variable that the dictionary does not
    /// hold: the `i`-th has cell `term_count() + i`.
    quoted: RefCell<QuotedCells>,
}

/// Cells past the dictionary, in order, and the map that finds them.
type QuotedCells = (Vec<[u32; 3]>, HashMap<[u32; 3], u32>);

/// Where the quads a pattern can match live: in the four runs, in the
/// annotation run (a quoted-triple subject), or either.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    Quads,
    Notes,
    Both,
}

impl Reach {
    pub(crate) fn of(store: &StoreSnapshot, pattern: &EncTriple) -> Reach {
        match &pattern.subject {
            EncNode::Quoted(_) => Reach::Notes,
            EncNode::Const(id) if store.dictionary().quoted(*id).is_some() => Reach::Notes,
            EncNode::Var(_) if store.estimate_annotations(const_of(&pattern.predicate)) > 0 => {
                Reach::Both
            }
            _ => Reach::Quads,
        }
    }
}

/// The store's estimate for a pattern's constants, over the runs it can
/// reach.
fn estimate(store: &StoreSnapshot, pattern: &EncTriple, graph: Option<TermId>) -> usize {
    let enc = EncodedPattern {
        subject: const_of(&pattern.subject),
        predicate: const_of(&pattern.predicate),
        object: const_of(&pattern.object),
        graph,
    };
    match Reach::of(store, pattern) {
        Reach::Quads => store.estimate_pattern(&enc),
        Reach::Notes => store.estimate_annotations(enc.predicate),
        Reach::Both => store.estimate_pattern(&enc) + store.estimate_annotations(enc.predicate),
    }
}

/// Governed row loops run a boundary check every this many rows,
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

    /// Apply an explicit row cap, latching the truncated
    /// flag when it bites.
    pub(crate) fn cap(&self, batch: &mut Batch) {
        if let Some(cap) = self.options.row_cap {
            if batch.len() > cap {
                batch.truncate(cap);
                self.truncated.set(true);
            }
        }
    }

    // ------------------------------------------------------------- evaluate

    fn eval_group(
        &self,
        group: &EncGroup,
        mut batch: Batch,
        ctx: GraphCtx,
    ) -> Result<Batch, SparqlError> {
        for element in &group.elements {
            if batch.is_empty() {
                break;
            }
            self.guard()?;
            batch = match element {
                EncElement::Triples(patterns) => join_pipeline(self, patterns, batch, ctx)?,
                EncElement::Empty => batch.empty_like(),
                EncElement::Filter(expr) => {
                    let keep: Vec<bool> =
                        (0..batch.len()).map(|i| self.filter_passes(&batch, i, expr)).collect();
                    batch.retain(&keep);
                    batch
                }
                EncElement::Optional(inner) => self.eval_optional(inner, batch, ctx)?,
                EncElement::Graph(spec, inner) => {
                    let inner_ctx = match spec {
                        GraphSpec::Fixed(id) => GraphCtx::Fixed(*id),
                        GraphSpec::Var(v) => GraphCtx::Var(*v),
                    };
                    self.eval_group(inner, batch, inner_ctx)?
                }
                EncElement::Union(branches) => {
                    let mut all = batch.empty_like();
                    if let Some((last, init)) = branches.split_last() {
                        for branch in init {
                            all.append(self.eval_group(branch, batch.clone(), ctx)?);
                        }
                        all.append(self.eval_group(last, batch, ctx)?);
                    }
                    all
                }
            };
            self.cap(&mut batch);
        }
        Ok(batch)
    }

    /// OPTIONAL as one left-outer join: the inner group runs once over the
    /// whole batch, every row tagged with the input row it descends from,
    /// and input rows nothing descends from survive as they came.
    fn eval_optional(
        &self,
        inner: &EncGroup,
        mut input: Batch,
        ctx: GraphCtx,
    ) -> Result<Batch, SparqlError> {
        let outer_tags = input.tag_rows();
        let cut_before = self.truncated.replace(false);
        let mut joined = self.eval_group(inner, input.clone(), ctx)?;
        let cut = self.truncated.get();
        self.truncated.set(cut_before || cut);
        // A row cap that bit inside the inner group may have cut every
        // extension of some input row: restoring that row unextended would
        // report a solution the exact answer does not contain.
        if !cut {
            joined.append_unmatched(&input);
        }
        joined.untag_rows(outer_tags);
        Ok(joined)
    }

    // --------------------------------------------------------- join ordering

    /// Cost of joining `pattern` next, for the greedy cardinality-based
    /// ordering in [`join_pipeline`]: the store's index-range estimate of
    /// the pattern's constants, discounted for positions whose variables
    /// are already bound (they act as extra constraints once joined) and
    /// heavily penalised when the pattern shares no variable with the
    /// bound set (a cartesian product).
    pub(crate) fn pattern_cost(
        &self,
        pattern: &EncTriple,
        bound: &HashSet<VarId>,
        graph_slot: Option<TermId>,
    ) -> f64 {
        let base = estimate(self.store, pattern, graph_slot) as f64;
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

    // -------------------------------------------------------------- boundary

    /// Count `n` dictionary terms looked at during evaluation.
    pub(crate) fn count_decoded(&self, n: u64) {
        self.decoded.set(self.decoded.get() + n);
    }

    /// The term row `i` binds `var` to, lent by the dictionary (and counted).
    fn term_at(&self, batch: &Batch, var: VarId, i: usize) -> Option<Cow<'a, Term>> {
        let id = batch.get(var, i);
        (id != UNBOUND).then(|| {
            self.count_decoded(1);
            self.term(id)
        })
    }

    /// The term behind a cell: a dictionary term, or an annotated triple
    /// this evaluation gave a cell of its own.
    pub(crate) fn term(&self, cell: u32) -> Cow<'a, Term> {
        let store: &'a StoreSnapshot = self.store;
        let Some(i) = (cell as usize).checked_sub(store.term_count()) else {
            return store.term(TermId(cell));
        };
        let spo = self.quoted.borrow().0[i];
        let [s, p, o] = spo.map(|id| store.term(TermId(id)).into_owned());
        Cow::Owned(Term::quoted(s, p, o))
    }

    /// The cell of the quoted triple `<< s p o >>`: its dictionary id when
    /// interned, else one this evaluation assigns past the dictionary.
    pub(crate) fn quoted_cell(&self, spo: [u32; 3]) -> u32 {
        let [s, p, o] = spo.map(TermId);
        if let Some(id) = self.store.dictionary().id_of_quoted(s, p, o) {
            return id.0;
        }
        let (triples, cells) = &mut *self.quoted.borrow_mut();
        *cells.entry(spo).or_insert_with(|| {
            let cell = self.store.term_count() + triples.len();
            assert!(cell < UNBOUND as usize, "dictionary and minted terms fit the u32 cell space");
            triples.push(spo);
            cell as u32
        })
    }

    /// The constituents of the quoted triple behind a cell, if it is one.
    pub(crate) fn quoted_parts(&self, cell: u32) -> Option<[u32; 3]> {
        let dict = self.store.dictionary();
        match cell.checked_sub(dict.len() as u32) {
            None => dict.quoted(TermId(cell)).map(|ids| ids.map(|id| id.0)),
            Some(i) => self.quoted.borrow().0.get(i as usize).copied(),
        }
    }

    /// The quoted triples given cells of their own, in cell order.
    pub(crate) fn minted_quoted(&self) -> Vec<Term> {
        let (base, minted) = (self.store.term_count() as u32, self.quoted.borrow().0.len() as u32);
        (base..base + minted).map(|cell| self.term(cell).into_owned()).collect()
    }

    /// FILTER looks up only the variables the expression references.
    fn filter_passes(&self, batch: &Batch, i: usize, expr: &Expr) -> bool {
        crate::expr::filter_passes(&|v: VarId| self.term_at(batch, v, i), expr)
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

    /// The answer to `q` over the fixture, as terms (it outlives the store).
    fn run(q: &str) -> Solutions<'static> {
        let store = store();
        let answer = evaluate(&store, &parse_query(q).unwrap()).unwrap();
        let mut owned = Solutions::from_terms(answer.columns.clone(), answer.to_terms());
        owned.ask = answer.ask;
        owned
    }

    /// Row order is the operators' business: compare answers as multisets.
    fn sorted_rows(s: &Solutions) -> Vec<String> {
        let mut rows: Vec<String> = s.to_terms().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
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
    fn explain_reports_est_and_actual_per_pattern() {
        let store = store();
        let query = parse_query(
            "SELECT ?t ?n ?r WHERE { ?t <type> <Table> . ?t <name> ?n . ?t <rows> ?r . }",
        )
        .unwrap();
        let (sols, report) = evaluate_explained(&store, &query, EvalOptions::default()).unwrap();
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
        // joins and projection run on ids: no term was looked at
        assert_eq!(report.decoded_terms, 0);
        // instrumentation must not change the answer
        let plain = evaluate(&store, &query).unwrap();
        assert_eq!(sols.rows, plain.rows);
    }

    #[test]
    fn explain_labels_operators() {
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
        // same answer as the oracle
        let reference = crate::reference::evaluate(&store, &query).unwrap();
        assert_eq!(sorted_rows(&sols), sorted_rows(&reference));
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
        // the FILTER looked ?c up where it was bound
        assert!(report.decoded_terms > 0);
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
            let reference = crate::reference::evaluate(&store, &query).unwrap();
            for reorder_joins in [false, true] {
                let options = EvalOptions { reorder_joins, ..EvalOptions::default() };
                let encoded = evaluate_with(&store, &query, options).unwrap();
                assert_eq!(sorted_rows(&encoded), sorted_rows(&reference), "query: {q}");
            }
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
        let err = evaluate_governed(&store, &query, EvalOptions::default(), Some(&governor), None)
            .unwrap_err();
        assert_eq!(trip_of(err), TripReason::Timeout);
    }

    #[test]
    fn tiny_memory_budget_trips_budget_exceeded() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions { memory_budget: Some(8), ..EvalOptions::default() };
        let err = evaluate_with(&store, &query, opts).unwrap_err();
        assert_eq!(trip_of(err), TripReason::BudgetExceeded);
    }

    #[test]
    fn cancelled_token_trips_cancelled() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let limits = QueryLimits { cancel: Some(token), ..QueryLimits::default() };
        let governor = limits.arm().unwrap();
        let err = evaluate_governed(&store, &query, EvalOptions::default(), Some(&governor), None)
            .unwrap_err();
        assert_eq!(trip_of(err), TripReason::Cancelled);
    }

    #[test]
    fn governed_error_converts_to_typed_lids_error() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions { memory_budget: Some(8), ..EvalOptions::default() };
        let err: LidsError = evaluate_with(&store, &query, opts).unwrap_err().into();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded);
    }

    #[test]
    fn row_cap_truncates_and_flags() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions { row_cap: Some(1), ..EvalOptions::default() };
        let sols = evaluate_with(&store, &query, opts).unwrap();
        assert!(sols.truncated, "cap must latch the truncated flag");
        assert!(sols.len() <= 1, "capped run must not exceed the cap");
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
        let err = evaluate_governed(&store, &query, EvalOptions::default(), Some(&governor), None)
            .unwrap_err();
        assert_eq!(trip_of(err), TripReason::Cancelled);
    }

    #[test]
    fn generous_limits_leave_results_exact() {
        let store = store();
        let query = parse_query(JOIN_Q).unwrap();
        let opts = EvalOptions {
            deadline: Some(Duration::from_secs(60)),
            memory_budget: Some(64 << 20),
            ..EvalOptions::default()
        };
        let governed = evaluate_with(&store, &query, opts).unwrap();
        let plain = evaluate(&store, &query).unwrap();
        assert_eq!(governed.rows, plain.rows);
        assert!(!governed.truncated);
    }
}

