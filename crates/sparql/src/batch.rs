//! Columnar binding batches and the join operators over them.
//!
//! [`Batch`] is the executor's only binding table: a struct-of-arrays with
//! one `Vec<u32>` column per query variable, unbound slots holding the
//! [`UNBOUND`] sentinel. [`crate::eval`] carries one from the query's
//! all-unbound root row through every group element to the solution
//! modifiers; this
//! module joins a basic graph pattern into it ([`join_pipeline`]), one
//! pattern at a time, cheapest first, with three operators:
//! - **leapfrog** — worst-case-optimal star intersection for the
//!   root-level multi-pattern star shapes that dominate discovery
//!   queries: all patterns sharing one subject variable advance
//!   seekable [`RunCursor`]s in lockstep, so subjects failing any
//!   pattern are skipped without enumerating a single join row.
//! - **merge** — sort-merge join for batches of at least [`MERGE_MIN`]
//!   rows with a join key that lands inside an index prefix: the batch
//!   is sorted by the key column and one forward cursor sweeps the
//!   sorted run, scanning each distinct key's range exactly once
//!   (galloping over the gaps) instead of once per row.
//! - **probe** — one index scan per row, pinned by everything the row
//!   binds; for small batches, keyless patterns, and mixed-boundness
//!   columns.
//!
//! Merge and probe share one unifier ([`Matcher`]), which covers every
//! pattern shape the compiler emits: quoted-triple patterns and `GRAPH ?g`
//! scopes (bound: the graph is pinned; unbound: bound from the quad, named
//! graphs only). A pattern whose subject can be a quoted triple also reads
//! the store's annotation run ([`Reach`]), by probe only: seeking it by
//! the constituents the row binds, or binding a variable to each annotated
//! triple's cell ([`Evaluator::quoted_cell`]). A quoted object is pinned
//! by one dictionary probe when the row binds its constituents, else
//! unified through the stored triple's constituent ids. Operator choice
//! is recorded per pattern in the explain instrumentation and counted in
//! [`ExecStats`](crate::eval::ExecStats); exact-result parity against
//! [`crate::reference`] is held by the differential property suite.

use std::collections::HashSet;

use lids_rdf::{
    EncodedAnnotation, EncodedPattern, IndexOrder, RunCursor, StoreSnapshot, Term, TermId,
};

use crate::ast::VarId;
use crate::eval::{
    collect_triple_vars, const_of, EncNode, EncTriple, Evaluator, GraphCtx, Operator, Reach,
    GOVERNOR_ROW_INTERVAL,
};
use crate::results::{SparqlError, UNBOUND};

/// Minimum batch size for a sort-merge join; smaller batches probe
/// (sorting and cursor setup don't pay for themselves below this).
pub(crate) const MERGE_MIN: usize = 32;

// ------------------------------------------------------------------ batch

/// Columnar binding table: `cols[v][i]` is the binding of variable `v`
/// in row `i`, or [`UNBOUND`].
#[derive(Clone)]
pub(crate) struct Batch {
    cols: Vec<Vec<u32>>,
    /// Inside an OPTIONAL: the index of the OPTIONAL's input row each row
    /// descends from (left-outer join by provenance).
    prov: Option<Vec<u32>>,
    len: usize,
}

impl Batch {
    /// The single all-unbound row a query starts from.
    pub(crate) fn root(nvars: usize) -> Batch {
        Batch { cols: vec![vec![UNBOUND]; nvars], prov: None, len: 1 }
    }

    pub(crate) fn empty_like(&self) -> Batch {
        Batch {
            cols: vec![Vec::new(); self.cols.len()],
            prov: self.prov.as_ref().map(|_| Vec::new()),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn get(&self, var: VarId, row: usize) -> u32 {
        self.cols[var.0 as usize][row]
    }

    /// Every row's binding of `var`.
    pub(crate) fn col(&self, var: VarId) -> &[u32] {
        &self.cols[var.0 as usize]
    }

    /// Append a copy of `src` row `i`, with `updates` overwriting the
    /// named variable slots.
    fn push_row(&mut self, src: &Batch, i: usize, updates: &[(VarId, u32)]) {
        for (v, col) in self.cols.iter_mut().enumerate() {
            let update = updates.iter().find(|(u, _)| u.0 as usize == v);
            col.push(match update {
                Some(&(_, id)) => id,
                None => src.cols[v][i],
            });
        }
        if let (Some(prov), Some(src_prov)) = (&mut self.prov, &src.prov) {
            prov.push(src_prov[i]);
        }
        self.len += 1;
    }

    /// Append every row of `other` (UNION's branch concatenation).
    pub(crate) fn append(&mut self, other: Batch) {
        for (col, tail) in self.cols.iter_mut().zip(other.cols) {
            col.extend(tail);
        }
        if let (Some(prov), Some(tail)) = (&mut self.prov, other.prov) {
            prov.extend(tail);
        }
        self.len += other.len;
    }

    /// Keep the rows whose `keep` flag is set (FILTER).
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        for col in self.cols.iter_mut().chain(&mut self.prov) {
            let mut flags = keep.iter();
            col.retain(|_| flags.next().copied().unwrap_or(false));
        }
        self.len = keep.iter().filter(|&&k| k).count();
    }

    /// Tag every row with its own index — the provenance an OPTIONAL's
    /// inner group carries — and hand back the enclosing OPTIONAL's tags.
    pub(crate) fn tag_rows(&mut self) -> Option<Vec<u32>> {
        self.prov.replace((0..self.len as u32).collect())
    }

    /// Left-outer completion: append the rows of `input` (tagged by
    /// [`Batch::tag_rows`]) that no row of `self` descends from.
    pub(crate) fn append_unmatched(&mut self, input: &Batch) {
        let mut matched = vec![false; input.len];
        for &p in self.prov.iter().flatten() {
            matched[p as usize] = true;
        }
        for i in (0..input.len).filter(|&i| !matched[i]) {
            self.push_row(input, i, &[]);
        }
    }

    /// Leave an OPTIONAL: translate each row's tag into the tag its input
    /// row carried for the enclosing OPTIONAL (`None` outside any).
    pub(crate) fn untag_rows(&mut self, outer: Option<Vec<u32>>) {
        self.prov = match (self.prov.take(), outer) {
            (Some(prov), Some(outer)) => Some(prov.iter().map(|&p| outer[p as usize]).collect()),
            _ => None,
        };
    }

    /// True for the single all-unbound row a query root starts from.
    fn is_root(&self) -> bool {
        self.len == 1 && self.cols.iter().all(|col| col[0] == UNBOUND)
    }

    /// Whether `var` is bound in every row (merge-key precondition).
    fn fully_bound(&self, var: VarId) -> bool {
        self.cols[var.0 as usize].iter().all(|&v| v != UNBOUND)
    }

    /// Logical bytes of this batch's binding table: one `u32` per
    /// column slot plus the provenance column.
    fn logical_bytes(&self) -> u64 {
        ((self.cols.len() as u64) + 1) * (self.len as u64) * 4
    }

    /// Keep only the first `cap` rows (graceful-degradation row cap).
    pub(crate) fn truncate(&mut self, cap: usize) {
        for col in self.cols.iter_mut().chain(&mut self.prov) {
            col.truncate(cap);
        }
        self.len = self.len.min(cap);
    }
}

/// Streaming governance over a growing output batch: every
/// [`GOVERNOR_ROW_INTERVAL`] produced rows, charge the bytes accrued
/// since the last checkpoint and run a boundary check — so a cartesian
/// blowup trips the budget/deadline *while* it materializes, not after.
/// Returns `true` when the row cap is exceeded and the producer should
/// stop emitting (the caller truncates and latches the flag).
fn governed_progress(
    ev: &Evaluator<'_>,
    out: &Batch,
    since_check: &mut usize,
    charged: &mut u64,
) -> Result<bool, SparqlError> {
    if let Some(cap) = ev.options.row_cap {
        if out.len() > cap {
            return Ok(true);
        }
    }
    if ev.governor.is_some() {
        *since_check += 1;
        if *since_check >= GOVERNOR_ROW_INTERVAL {
            *since_check = 0;
            let bytes = out.logical_bytes();
            ev.charge(bytes.saturating_sub(*charged))?;
            *charged = bytes;
            ev.guard()?;
        }
    }
    Ok(false)
}

/// A run cursor wired to the governor's interrupt flag when governed,
/// so mid-gallop scans wind down as soon as a trip or cancel lands.
fn governed_cursor<'s>(ev: &Evaluator<'s>, order: IndexOrder) -> RunCursor<'s> {
    let cursor = ev.store.run_cursor(order);
    match ev.governor {
        Some(gov) => cursor.with_interrupt(gov.interrupt_flag()),
        None => cursor,
    }
}

// ---------------------------------------------------------------- pipeline

/// Join a basic graph pattern into the batch: a root-level star by
/// leapfrog intersection, then every remaining pattern cheapest first
/// (greedy on [`Evaluator::pattern_cost`]; textual order with
/// `reorder_joins` off), merge or probe per step.
pub(crate) fn join_pipeline(
    ev: &Evaluator<'_>,
    patterns: &[EncTriple],
    mut batch: Batch,
    ctx: GraphCtx,
) -> Result<Batch, SparqlError> {
    let mut done = vec![false; patterns.len()];
    let mut position = 0usize;

    // worst-case-optimal star intersection at the query root
    if batch.is_root() && matches!(ctx, GraphCtx::Default) {
        if let Some(star) = detect_star(ev.store, patterns) {
            batch = leapfrog_star(ev, patterns, &star, &batch)?;
            for &idx in &star.patterns {
                done[idx] = true;
                record(ev, &patterns[idx], position, Operator::Leapfrog);
                position += 1;
            }
            if let Some(stats) = ev.stats {
                stats.count(Operator::Leapfrog);
            }
        }
    }

    let graph_slot = match ctx {
        GraphCtx::Fixed(id) => Some(id),
        _ => None,
    };
    // variables bound so far, seeded from the first row (a heuristic: rows
    // past an OPTIONAL or UNION may bind fewer)
    let mut bound: HashSet<VarId> = HashSet::new();
    if !batch.is_empty() {
        for v in 0..batch.cols.len() {
            if batch.cols[v][0] != UNBOUND {
                bound.insert(VarId(v as u16));
            }
        }
    }
    for (idx, pattern) in patterns.iter().enumerate() {
        if done[idx] {
            collect_triple_vars(pattern, &mut bound);
        }
    }
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (idx, pattern) in patterns.iter().enumerate() {
            if done[idx] {
                continue;
            }
            let cost = if ev.options.reorder_joins {
                ev.pattern_cost(pattern, &bound, graph_slot)
            } else {
                idx as f64 // textual order
            };
            // strict `<`: ties go to the textually earlier pattern
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((idx, cost));
            }
        }
        let Some((idx, _)) = best else {
            break;
        };
        done[idx] = true;
        let pattern = &patterns[idx];
        if !batch.is_empty() {
            ev.guard()?;
            let (mut next, op, precharged) = execute_pattern(ev, pattern, &batch, ctx)?;
            // budget: the new binding table's logical bytes, charged
            // before the old batch is dropped (cumulative accounting);
            // the operator already charged `precharged` while producing
            ev.charge(next.logical_bytes().saturating_sub(precharged))?;
            ev.cap(&mut next);
            record(ev, pattern, position, op);
            if let Some(stats) = ev.stats {
                stats.count(op);
            }
            if let Some(instr) = ev.instr {
                instr.record_match(pattern.pid, next.len());
            }
            batch = next;
        }
        position += 1;
        collect_triple_vars(pattern, &mut bound);
    }
    ev.guard()?;
    Ok(batch)
}

fn record(ev: &Evaluator<'_>, pattern: &EncTriple, position: usize, op: Operator) {
    if let Some(instr) = ev.instr {
        instr.record_order(pattern.pid, position);
        instr.record_operator(pattern.pid, op);
    }
}

/// Run one pattern against the batch with the best applicable operator.
fn execute_pattern(
    ev: &Evaluator<'_>,
    pattern: &EncTriple,
    batch: &Batch,
    ctx: GraphCtx,
) -> Result<(Batch, Operator, u64), SparqlError> {
    // only an unbound `GRAPH ?g` asks which id is the default graph's
    let graph_var = matches!(ctx, GraphCtx::Var(_));
    let default_graph = graph_var.then(|| ev.store.default_graph_id()).flatten().map(|id| id.0);
    let reach = Reach::of(ev.store, pattern);
    let matcher = Matcher { ev, pattern, ctx, default_graph, reach };
    if batch.len() >= MERGE_MIN && reach == Reach::Quads {
        if let Some(plan) = merge_plan(pattern, batch, ctx) {
            let (out, charged) = merge_join(ev, &matcher, batch, &plan)?;
            return Ok((out, Operator::Merge, charged));
        }
    }
    let (out, charged) = probe_join(ev, &matcher, batch)?;
    Ok((out, Operator::Probe, charged))
}

// ------------------------------------------------------------- unification

/// Joins the quads of one pattern onto batch rows, entirely in the id
/// domain. Shared by probe and merge.
struct Matcher<'a> {
    ev: &'a Evaluator<'a>,
    pattern: &'a EncTriple,
    ctx: GraphCtx,
    default_graph: Option<u32>,
    reach: Reach,
}

/// What one row fixes of a pattern's quad before any quad is seen.
struct Pins {
    /// Ids the row pins at `[s, p, o, g]`: constants, bound variables,
    /// quoted patterns whose constituents are all bound, the GRAPH scope.
    /// `None` positions are open and bind from the quad.
    ids: [Option<u32>; 4],
    /// `GRAPH ?g` with `?g` unbound in this row: bind it from the quad.
    graph_var: Option<VarId>,
    /// Scan the four runs.
    quads: bool,
    /// Scan the annotation run, the subject's constituents pinned so.
    notes: Option<[Option<u32>; 3]>,
}

impl Pins {
    fn scan(&self) -> EncodedPattern {
        let [subject, predicate, object, graph] = self.ids.map(|id| id.map(TermId));
        EncodedPattern { subject, predicate, object, graph }
    }
}

impl Matcher<'_> {
    /// The pins of row `i`, or `None` when the row cannot match: its
    /// bindings spell a quoted object the store never interned, or bind a
    /// `GRAPH ?g` to something other than an IRI.
    fn pins(&self, batch: &Batch, i: usize) -> Option<Pins> {
        let mut graph_var = None;
        let graph = match self.ctx {
            GraphCtx::Default => None,
            GraphCtx::Fixed(id) => Some(id.0),
            GraphCtx::Var(v) => match batch.get(v, i) {
                UNBOUND => {
                    graph_var = Some(v);
                    None
                }
                id if matches!(*self.ev.term(id), Term::Iri(_)) => Some(id),
                _ => return None,
            },
        };
        let pin = |node| self.pin(node, batch, i);
        let (p, o) = (pin(&self.pattern.predicate)?, pin(&self.pattern.object)?);
        if self.reach == Reach::Quads {
            let ids = [pin(&self.pattern.subject)?, p, o, graph];
            return Some(Pins { ids, graph_var, quads: true, notes: None });
        }
        let (subject, quads, notes) = match &self.pattern.subject {
            EncNode::Quoted(q) => {
                (None, false, Some([pin(&q.subject)?, pin(&q.predicate)?, pin(&q.object)?]))
            }
            node => match pin(node)? {
                None => (None, true, Some([None; 3])),
                Some(id) => match self.ev.quoted_parts(id) {
                    Some(spo) => (None, false, Some(spo.map(Some))),
                    None => (Some(id), true, None),
                },
            },
        };
        let ids = [subject, p, o, graph];
        // a row-bound predicate that annotates nothing skips the run
        let annotates = |q: u32| self.ev.store.estimate_annotations(Some(TermId(q))) > 0;
        let notes = notes.filter(|_| ids[1].is_none_or(annotates));
        Some(Pins { ids, graph_var, quads, notes })
    }

    /// The id row `i` fixes for `node`; `Some(None)` when a variable of it
    /// is still unbound, `None` when it denotes a term the store lacks.
    fn pin(&self, node: &EncNode, batch: &Batch, i: usize) -> Option<Option<u32>> {
        Some(match node {
            EncNode::Const(id) => Some(id.0),
            EncNode::Var(v) => Some(batch.get(*v, i)).filter(|&id| id != UNBOUND),
            EncNode::Quoted(q) => {
                let s = self.pin(&q.subject, batch, i)?;
                let p = self.pin(&q.predicate, batch, i)?;
                let o = self.pin(&q.object, batch, i)?;
                match (s, p, o) {
                    // every constituent is known: the quoted term matches
                    // iff it is itself interned
                    (Some(s), Some(p), Some(o)) => {
                        let dict = self.ev.store.dictionary();
                        Some(dict.id_of_quoted(TermId(s), TermId(p), TermId(o))?.0)
                    }
                    _ => None,
                }
            }
        })
    }

    /// Join `quad` onto row `i`: `true` with the variable bindings it adds
    /// left in `updates`, `false` when a pinned or repeated position
    /// disagrees.
    fn unify(
        &self,
        pins: &Pins,
        batch: &Batch,
        i: usize,
        quad: [u32; 4],
        updates: &mut Vec<(VarId, u32)>,
    ) -> bool {
        updates.clear();
        let [s, p, o, g] = quad;
        let agrees = match pins.ids[0] {
            Some(id) => id == s,
            None => self.unify_id(&self.pattern.subject, s, batch, i, updates),
        };
        agrees && self.unify_rest(pins, batch, i, [p, o, g], updates)
    }

    /// [`Matcher::unify`] for an annotation the row's pins found: its
    /// subject is the triple of its first three ids.
    fn unify_note(
        &self,
        pins: &Pins,
        batch: &Batch,
        i: usize,
        [s, p, o, q, v, g]: EncodedAnnotation,
        updates: &mut Vec<(VarId, u32)>,
    ) -> bool {
        updates.clear();
        let agrees = match &self.pattern.subject {
            EncNode::Quoted(t) => [(&t.subject, s), (&t.predicate, p), (&t.object, o)]
                .into_iter()
                .all(|(node, id)| self.unify_id(node, id, batch, i, updates)),
            EncNode::Var(var) if batch.get(*var, i) == UNBOUND => {
                bind(*var, self.ev.quoted_cell([s, p, o]), batch, i, updates)
            }
            // a bound subject pinned the scan to its constituents
            _ => true,
        };
        agrees && self.unify_rest(pins, batch, i, [q, v, g], updates)
    }

    /// The predicate, object and graph of a unification.
    #[inline]
    fn unify_rest(
        &self,
        pins: &Pins,
        batch: &Batch,
        i: usize,
        [p, o, g]: [u32; 3],
        updates: &mut Vec<(VarId, u32)>,
    ) -> bool {
        for (slot, node, id) in [(1, &self.pattern.predicate, p), (2, &self.pattern.object, o)] {
            let agrees = match pins.ids[slot] {
                Some(pin) => pin == id,
                None => self.unify_id(node, id, batch, i, updates),
            };
            if !agrees {
                return false;
            }
        }
        if pins.ids[3].is_some_and(|pin| pin != g) {
            return false;
        }
        if let Some(v) = pins.graph_var {
            // GRAPH ?g ranges over named graphs only
            if Some(g) == self.default_graph {
                return false;
            }
            // as in `reference`, the graph wins over a binding the same
            // quad gave ?g in another position
            updates.retain(|(u, _)| *u != v);
            updates.push((v, g));
        }
        true
    }

    /// Unify an open node with the id a quad holds in its position. A
    /// quoted pattern descends into the stored triple's constituent ids,
    /// which the dictionary keeps as the triple itself, so its bindings
    /// stay in the id domain and nothing is hashed or decoded.
    fn unify_id(
        &self,
        node: &EncNode,
        id: u32,
        batch: &Batch,
        i: usize,
        updates: &mut Vec<(VarId, u32)>,
    ) -> bool {
        match node {
            EncNode::Const(c) => c.0 == id,
            EncNode::Var(v) => bind(*v, id, batch, i, updates),
            EncNode::Quoted(q) => match self.ev.quoted_parts(id) {
                Some([s, p, o]) => [(&q.subject, s), (&q.predicate, p), (&q.object, o)]
                    .into_iter()
                    .all(|(inner, id)| self.unify_id(inner, id, batch, i, updates)),
                None => false,
            },
        }
    }
}

/// Bind `var` to `id` for row `i`, or check it against the binding the row
/// or an earlier position of the same quad already gave it.
fn bind(var: VarId, id: u32, batch: &Batch, i: usize, updates: &mut Vec<(VarId, u32)>) -> bool {
    let existing = batch.get(var, i);
    if existing != UNBOUND {
        return existing == id;
    }
    match updates.iter().find(|(u, _)| *u == var) {
        Some(&(_, prev)) => prev == id,
        None => {
            updates.push((var, id));
            true
        }
    }
}

// ------------------------------------------------------------------- probe

/// Per-row index probe: scan the index with everything the row pins, emit
/// the matches into fresh columns.
fn probe_join(
    ev: &Evaluator<'_>,
    matcher: &Matcher<'_>,
    batch: &Batch,
) -> Result<(Batch, u64), SparqlError> {
    let mut out = batch.empty_like();
    let mut updates = Vec::new();
    let mut since_check = 0usize;
    let mut charged = 0u64;
    'rows: for i in 0..batch.len() {
        if ev.governor.is_some() {
            since_check += 1;
            if since_check >= GOVERNOR_ROW_INTERVAL {
                since_check = 0;
                ev.guard()?;
            }
        }
        let Some(pins) = matcher.pins(batch, i) else {
            continue;
        };
        if pins.quads {
            for quad in ev.store.match_ids(&pins.scan()) {
                if matcher.unify(&pins, batch, i, quad, &mut updates) {
                    out.push_row(batch, i, &updates);
                    // a low-selectivity pattern (worst case: a cartesian
                    // product) explodes in this inner loop — govern the
                    // *output* as it grows, not just the outer sweep
                    if governed_progress(ev, &out, &mut since_check, &mut charged)? {
                        break 'rows;
                    }
                }
            }
        }
        if let Some([s, p, o]) = pins.notes {
            let [_, q, v, g] = pins.ids;
            for note in ev.store.match_annotations([s, p, o, q, v, g]) {
                if matcher.unify_note(&pins, batch, i, note, &mut updates) {
                    out.push_row(batch, i, &updates);
                    if governed_progress(ev, &out, &mut since_check, &mut charged)? {
                        break 'rows;
                    }
                }
            }
        }
    }
    Ok((out, charged))
}

// ------------------------------------------------------------------- merge

/// Where a merge join places the join key inside an index: the chosen
/// ordering, the pinned prefix (constants and the key), and any
/// constants that fall outside it (residual-filtered per key).
struct MergePlan {
    key: VarId,
    order: IndexOrder,
    /// Key-position of the join key inside the index ordering.
    key_pos: usize,
    prefix_len: usize,
    /// Constants by index key position (inside and outside the prefix).
    consts: [Option<u32>; 4],
}

/// Choose a join key and index ordering such that the pattern's
/// constants plus the key form the longest possible index prefix.
/// `None` when no pattern variable is fully bound across the batch (or
/// a candidate key repeats inside the pattern) — probe territory.
fn merge_plan(pattern: &EncTriple, batch: &Batch, ctx: GraphCtx) -> Option<MergePlan> {
    // constants in [s, p, o, g] slot order
    let mut slot_const: [Option<u32>; 4] = [
        const_of(&pattern.subject).map(|t| t.0),
        const_of(&pattern.predicate).map(|t| t.0),
        const_of(&pattern.object).map(|t| t.0),
        None,
    ];
    if let GraphCtx::Fixed(id) = ctx {
        slot_const[3] = Some(id.0);
    }
    let slot_var = |slot: usize| -> Option<VarId> {
        let node = match slot {
            0 => &pattern.subject,
            1 => &pattern.predicate,
            _ => &pattern.object,
        };
        match node {
            EncNode::Var(v) => Some(*v),
            _ => None,
        }
    };
    let mut best: Option<MergePlan> = None;
    for key in [slot_var(0), slot_var(1), slot_var(2)].into_iter().flatten() {
        // the key must appear in exactly one position and be bound in
        // every row of the batch
        let occurrences = (0..3).filter(|&s| slot_var(s) == Some(key)).count();
        if occurrences != 1 || !batch.fully_bound(key) {
            continue;
        }
        let key_slot = (0..3).find(|&s| slot_var(s) == Some(key)).unwrap_or(0);
        for order in IndexOrder::ALL {
            let positions = order.positions();
            // longest run of leading key positions that are constants
            // or the key itself; the key must land inside it
            let mut prefix_len = 0;
            let mut key_pos = None;
            for (pos, &slot) in positions.iter().enumerate() {
                if slot == key_slot {
                    key_pos = Some(pos);
                    prefix_len = pos + 1;
                } else if slot_const[slot].is_some() {
                    prefix_len = pos + 1;
                } else {
                    break;
                }
            }
            let Some(key_pos) = key_pos else {
                continue;
            };
            if key_pos >= prefix_len {
                continue;
            }
            let mut consts = [None; 4];
            for (pos, &slot) in positions.iter().enumerate() {
                if slot != key_slot {
                    consts[pos] = slot_const[slot];
                }
            }
            let better = match &best {
                None => true,
                Some(b) => prefix_len > b.prefix_len,
            };
            if better {
                best = Some(MergePlan { key, order, key_pos, prefix_len, consts });
            }
        }
    }
    best
}

/// Sort-merge join: sort the batch by the key column, then sweep one
/// forward cursor over the chosen index run, scanning each distinct
/// key's range once and cross-joining it with the key's row group.
fn merge_join(
    ev: &Evaluator<'_>,
    matcher: &Matcher<'_>,
    batch: &Batch,
    plan: &MergePlan,
) -> Result<(Batch, u64), SparqlError> {
    let key_col = &batch.cols[plan.key.0 as usize];
    let mut rows: Vec<u32> = (0..batch.len() as u32).collect();
    rows.sort_unstable_by_key(|&i| key_col[i as usize]);

    let mut out = batch.empty_like();
    let mut cursor = governed_cursor(ev, plan.order);
    let mut scratch: Vec<[u32; 4]> = Vec::new();
    let mut updates = Vec::new();
    let mut g = 0usize;
    let mut groups_since_check = 0usize;
    let mut charged = 0u64;
    'sweep: while g < rows.len() {
        if ev.governor.is_some() {
            groups_since_check += 1;
            if groups_since_check >= GOVERNOR_ROW_INTERVAL {
                groups_since_check = 0;
                ev.guard()?;
            }
        }
        let key_val = key_col[rows[g] as usize];
        let mut g_end = g + 1;
        while g_end < rows.len() && key_col[rows[g_end] as usize] == key_val {
            g_end += 1;
        }
        // range bounds for this key: prefix pinned, tail open
        let mut lo = [0u32; 4];
        let mut hi = [u32::MAX; 4];
        for pos in 0..plan.prefix_len {
            let v = if pos == plan.key_pos { key_val } else { plan.consts[pos].unwrap_or(0) };
            lo[pos] = v;
            hi[pos] = v;
        }
        scratch.clear();
        cursor.seek_ge(lo);
        while let Some(k) = cursor.current() {
            if k > hi {
                break;
            }
            // residual constants outside the prefix
            let residual_ok = (plan.prefix_len..4)
                .all(|pos| plan.consts[pos].is_none_or(|v| k[pos] == v));
            if residual_ok {
                scratch.push(plan.order.decode(k));
            }
            cursor.advance();
        }
        if !scratch.is_empty() {
            for &row in &rows[g..g_end] {
                // the sweep pinned the key and the constants only: the rest
                // of what the row pins is checked per quad
                let Some(pins) = matcher.pins(batch, row as usize) else {
                    continue;
                };
                for &quad in &scratch {
                    if matcher.unify(&pins, batch, row as usize, quad, &mut updates) {
                        out.push_row(batch, row as usize, &updates);
                        // many-to-many keys explode here: govern the
                        // output as it grows
                        if governed_progress(ev, &out, &mut groups_since_check, &mut charged)? {
                            break 'sweep;
                        }
                    }
                }
            }
        }
        g = g_end;
    }
    // a tripped governor exhausts the interrupt-wired cursor mid-sweep;
    // surface the typed error instead of a silently partial batch
    ev.guard()?;
    Ok((out, charged))
}

// ---------------------------------------------------------------- leapfrog

/// A star detected at the query root: ≥ 2 patterns sharing one subject
/// variable, with constant predicates and constant-or-distinct-variable
/// objects.
struct Star {
    subject: VarId,
    patterns: Vec<usize>,
}

/// One star pattern's contribution: predicate id plus object shape.
enum StarLeg {
    /// `?s <p> <o>` — subjects sorted at posg key position 2.
    ConstObj { p: u32, o: u32 },
    /// `?s <p> ?x` — subjects at spog key position 0, objects bound
    /// per matching quad.
    VarObj { p: u32, var: VarId },
}

fn detect_star(store: &StoreSnapshot, patterns: &[EncTriple]) -> Option<Star> {
    // count eligible patterns per subject variable
    let eligible = |p: &EncTriple, subject: VarId| -> bool {
        if !matches!(&p.subject, EncNode::Var(v) if *v == subject) {
            return false;
        }
        // a leg walks the four runs: its predicate must annotate nothing
        if !matches!(&p.predicate, EncNode::Const(q) if store.estimate_annotations(Some(*q)) == 0) {
            return false;
        }
        match &p.object {
            EncNode::Const(_) => true,
            EncNode::Var(v) => *v != subject,
            EncNode::Quoted(_) => false,
        }
    };
    let mut best: Option<Star> = None;
    let mut seen: HashSet<VarId> = HashSet::new();
    for pattern in patterns {
        let EncNode::Var(subject) = &pattern.subject else {
            continue;
        };
        if !seen.insert(*subject) {
            continue;
        }
        let mut members = Vec::new();
        let mut object_vars: HashSet<VarId> = HashSet::new();
        for (idx, member) in patterns.iter().enumerate() {
            if !eligible(member, *subject) {
                continue;
            }
            // object variables must be pairwise distinct so the
            // cross-product emission never equates two of them
            if let EncNode::Var(v) = &member.object {
                if !object_vars.insert(*v) {
                    continue;
                }
            }
            members.push(idx);
        }
        if members.len() >= 2
            && best.as_ref().is_none_or(|b| members.len() > b.patterns.len())
        {
            best = Some(Star { subject: *subject, patterns: members });
        }
    }
    best
}

/// Cursor state for one star leg, advancing through subjects that
/// satisfy the leg. Forward-only; every seek strictly advances.
struct StarIter<'a> {
    leg: StarLeg,
    cursor: lids_rdf::RunCursor<'a>,
}

impl StarIter<'_> {
    /// Smallest subject `>= t` this leg matches, positioning the cursor
    /// on the subject's first quad.
    fn next_ge(&mut self, t: u32) -> Option<u32> {
        match self.leg {
            StarLeg::ConstObj { p, o } => {
                self.cursor.seek_ge([p, o, t, 0]);
                match self.cursor.current() {
                    Some(k) if k[0] == p && k[1] == o => Some(k[2]),
                    _ => None,
                }
            }
            StarLeg::VarObj { p, .. } => {
                let mut t = t;
                loop {
                    self.cursor.seek_ge([t, p, 0, 0]);
                    let k = self.cursor.current()?;
                    if k[0] == t {
                        if k[1] == p {
                            return Some(t);
                        }
                        // subject t lacks p entirely (keys >= [t,p,..]
                        // with k[0]==t have k[1] > p): next subject
                        t = t.checked_add(1)?;
                    } else {
                        // jumped to a later subject's first quad
                        t = k[0];
                        if k[1] == p {
                            return Some(t);
                        }
                        if k[1] > p {
                            t = t.checked_add(1)?;
                        }
                        // k[1] < p: re-seek [t, p, 0, 0] on this subject
                    }
                }
            }
        }
    }

    /// With the cursor on subject `t`'s first quad for this leg,
    /// collect the object binding of every matching quad (one entry per
    /// quad — graph multiplicity preserved), advancing past them.
    fn collect(&mut self, t: u32) -> Vec<u32> {
        let mut vals = Vec::new();
        match self.leg {
            StarLeg::ConstObj { p, o } => {
                while let Some(k) = self.cursor.current() {
                    if k[0] != p || k[1] != o || k[2] != t {
                        break;
                    }
                    vals.push(UNBOUND); // multiplicity only, no binding
                    self.cursor.advance();
                }
            }
            StarLeg::VarObj { p, .. } => {
                while let Some(k) = self.cursor.current() {
                    if k[0] != t || k[1] != p {
                        break;
                    }
                    vals.push(k[2]);
                    self.cursor.advance();
                }
            }
        }
        vals
    }
}

/// Leapfrog star intersection over the store's sorted runs. Every leg
/// proposes its smallest subject ≥ the current candidate; subjects all
/// legs agree on are emitted with the cross product of their per-leg
/// quads (so quad multiplicity across graphs matches a per-pattern join).
fn leapfrog_star(
    ev: &Evaluator<'_>,
    patterns: &[EncTriple],
    star: &Star,
    batch: &Batch,
) -> Result<Batch, SparqlError> {
    let mut iters: Vec<StarIter<'_>> = star
        .patterns
        .iter()
        .map(|&idx| {
            let pattern = &patterns[idx];
            let p = const_of(&pattern.predicate).map_or(0, |t| t.0);
            match &pattern.object {
                EncNode::Const(o) => StarIter {
                    leg: StarLeg::ConstObj { p, o: o.0 },
                    cursor: governed_cursor(ev, IndexOrder::Posg),
                },
                _ => {
                    let var = match &pattern.object {
                        EncNode::Var(v) => *v,
                        _ => unreachable!("detect_star admits const or var objects"),
                    };
                    StarIter {
                        leg: StarLeg::VarObj { p, var },
                        cursor: governed_cursor(ev, IndexOrder::Spog),
                    }
                }
            }
        })
        .collect();

    let mut out = batch.empty_like();
    let mut t = 0u32;
    let mut subjects_since_check = 0usize;
    let mut charged = 0u64;
    'leapfrog: loop {
        if ev.governor.is_some() {
            subjects_since_check += 1;
            if subjects_since_check >= GOVERNOR_ROW_INTERVAL {
                subjects_since_check = 0;
                ev.guard()?;
            }
        }
        // advance all legs to agreement on t
        loop {
            let mut agreed = true;
            for iter in iters.iter_mut() {
                match iter.next_ge(t) {
                    None => break 'leapfrog,
                    Some(s) if s == t => {}
                    Some(s) => {
                        t = s;
                        agreed = false;
                    }
                }
            }
            if agreed {
                break;
            }
        }
        // emit the cross product of the per-leg quads for subject t
        let legs: Vec<Vec<u32>> = iters.iter_mut().map(|it| it.collect(t)).collect();
        if let Some(instr) = ev.instr {
            for (leg, &idx) in legs.iter().zip(&star.patterns) {
                instr.record_match(patterns[idx].pid, leg.len());
            }
        }
        let mut updates: Vec<(VarId, u32)> = vec![(star.subject, t)];
        emit_cross(&mut out, batch, &iters, &legs, 0, &mut updates);
        // govern the accumulated output (per-subject granularity); a
        // row-cap hit truncates here because this batch does not pass
        // through the pipeline's cap site
        if governed_progress(ev, &out, &mut subjects_since_check, &mut charged)? {
            ev.cap(&mut out);
            break 'leapfrog;
        }
        match t.checked_add(1) {
            Some(next) => t = next,
            None => break,
        }
    }
    // interrupted cursors exhaust silently; convert to the typed trip
    ev.guard()?;
    // the star result enters the pipeline as its base batch, so charge
    // the un-precharged remainder here
    ev.charge(out.logical_bytes().saturating_sub(charged))?;
    Ok(out)
}

/// Recursive odometer over per-leg quad lists, pushing one copy of the
/// root row per combination.
fn emit_cross(
    out: &mut Batch,
    root: &Batch,
    iters: &[StarIter<'_>],
    legs: &[Vec<u32>],
    depth: usize,
    updates: &mut Vec<(VarId, u32)>,
) {
    if depth == legs.len() {
        out.push_row(root, 0, updates);
        return;
    }
    for &val in &legs[depth] {
        let pushed = match iters[depth].leg {
            StarLeg::VarObj { var, .. } => {
                updates.push((var, val));
                true
            }
            StarLeg::ConstObj { .. } => false,
        };
        emit_cross(out, root, iters, legs, depth + 1, updates);
        if pushed {
            updates.pop();
        }
    }
}
