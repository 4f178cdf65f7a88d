//! The executor's solution modifiers, over ids.
//!
//! The last batch out of the joins is never decoded wholesale. In SPARQL's
//! order — GROUP BY / aggregates, ORDER BY, projection, DISTINCT,
//! OFFSET/LIMIT — every step works on `u32` cells: grouping and DISTINCT
//! compare id tuples (interning is injective, so id equality is term
//! equality), ORDER BY ranks each key once per row (a plain-variable key
//! once per *distinct* id, comparing dictionary terms by reference) and
//! sorts row numbers by rank, projection selects columns, the slice cuts
//! rows. The only terms created are aggregate results, minted into the
//! answer's side table. What leaves is a [`Solutions`]: its sink — a
//! `DataFrame`, a typed hit, a response buffer — decodes what it reads.
//!
//! [`crate::reference`] keeps the same modifiers over decoded rows, and the
//! differential suite holds this module to them.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use lids_rdf::{StoreSnapshot, Term};

use crate::ast::*;
use crate::batch::Batch;
use crate::eval::Evaluator;
use crate::expr::{compare_terms, eval_expr, numeric};
use crate::results::{cell_term, IdRows, Solutions, SparqlError, UNBOUND};

/// The answer's cell space: dictionary ids, then the terms minted for this
/// answer, numbered from the dictionary's length.
struct Cells<'a> {
    store: &'a StoreSnapshot,
    minted: Vec<Term>,
    minted_cell: HashMap<Term, u32>,
}

impl<'a> Cells<'a> {
    fn term(&self, cell: u32) -> Option<Cow<'_, Term>> {
        cell_term(Some(self.store.dictionary()), &self.minted, cell)
    }

    /// The cell of a computed term: its dictionary id when the store holds
    /// it, else its place among the minted terms — one cell per term either
    /// way, so DISTINCT over aggregate results stays an id comparison.
    fn mint(&mut self, term: Term) -> u32 {
        if let Some(id) = self.store.id_of(&term) {
            return id.0;
        }
        if let Some(&cell) = self.minted_cell.get(&term) {
            return cell;
        }
        let cell = self.store.term_count() + self.minted.len();
        assert!(cell < UNBOUND as usize, "dictionary and minted terms fit the u32 cell space");
        let cell = cell as u32;
        // once per distinct minted term: the table indexes it, the map finds it
        self.minted.push(term.clone());
        self.minted_cell.insert(term, cell);
        cell
    }
}

/// Apply `select`'s solution modifiers to the batch the joins produced over
/// `store` (the evaluator's own, under the lifetime the answer borrows).
pub(crate) fn project<'s>(
    ev: &Evaluator<'_>,
    store: &'s StoreSnapshot,
    query: &Query,
    select: &SelectQuery,
    batch: &Batch,
) -> Result<Solutions<'s>, SparqlError> {
    let nvars = query.variables.len();
    let items: Vec<SelectItem> = match &select.projection {
        Projection::Star => (0..nvars).map(|i| SelectItem::Var(VarId(i as u16))).collect(),
        Projection::Items(items) => items.clone(),
    };
    let projected: Vec<usize> = items
        .iter()
        .map(|i| match i {
            SelectItem::Var(v) | SelectItem::Aggregate { alias: v, .. } => v.0 as usize,
        })
        .collect();
    let columns: Vec<String> = projected.iter().map(|&v| query.variables[v].clone()).collect();
    let aggregated = items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }));
    let mut cells = Cells { store, minted: Vec::new(), minted_cell: HashMap::new() };
    // the joins' own cells past the dictionary keep their numbers
    for term in ev.minted_quoted() {
        cells.mint(term);
    }

    // the table the modifiers run over, one column per query variable: the
    // batch itself, or one row per group with each aggregate's result in
    // its alias's column (so ORDER BY sees it like any other variable)
    let grouped;
    let (table, len): (Vec<&[u32]>, usize) = if aggregated || !select.group_by.is_empty() {
        let groups;
        (grouped, groups) = aggregate_rows(ev, &mut cells, select, &items, nvars, batch);
        (grouped.iter().map(Vec::as_slice).collect(), groups)
    } else {
        ((0..nvars).map(|v| batch.col(VarId(v as u16))).collect(), batch.len())
    };

    // ORDER BY comes before projection: a key need not be projected
    let mut order: Vec<u32> = (0..len as u32).collect();
    if !select.order_by.is_empty() {
        ev.guard()?;
        let ranks: Vec<Vec<u32>> =
            select.order_by.iter().map(|key| key_ranks(ev, &cells, key, &table, len)).collect();
        // stable: rows tying on every key keep the order the joins gave them
        order.sort_by(|&a, &b| {
            for (key, ranks) in select.order_by.iter().zip(&ranks) {
                let ord = ranks[a as usize].cmp(&ranks[b as usize]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    let offset = select.offset.unwrap_or(0);
    let limit = select.limit.unwrap_or(usize::MAX);
    // without DISTINCT the slice is known before a cell is copied
    if !select.distinct {
        order.drain(..offset.min(order.len()));
        order.truncate(limit);
    }

    let width = projected.len();
    ev.guard()?;
    ev.charge((order.len() * width * 4) as u64)?;
    let mut out = Vec::with_capacity(order.len() * width);
    for &row in &order {
        out.extend(projected.iter().map(|&v| table[v][row as usize]));
    }
    let mut rows = order.len();

    if select.distinct {
        if width == 0 {
            rows = rows.min(1);
        } else {
            let mut kept = Vec::with_capacity(out.len());
            let mut seen: HashSet<&[u32]> = HashSet::with_capacity(rows);
            for row in out.chunks_exact(width) {
                if seen.insert(row) {
                    kept.extend_from_slice(row);
                }
            }
            out = kept;
            rows = out.len() / width;
        }
        let start = offset.min(rows);
        rows = (rows - start).min(limit);
        out.drain(..start * width);
        out.truncate(rows * width);
    }

    let rows = IdRows::new(width, rows, out);
    Ok(Solutions::new(columns, rows, store.dictionary(), cells.minted))
}

/// Per-row rank of one ORDER BY key: rows compare under the key as their
/// ranks do. A plain variable is ranked per distinct cell of its column;
/// any other expression is evaluated once per row.
fn key_ranks(
    ev: &Evaluator<'_>,
    cells: &Cells<'_>,
    key: &OrderKey,
    table: &[&[u32]],
    len: usize,
) -> Vec<u32> {
    if let Expr::Var(v) = &key.expr {
        let column = table[v.0 as usize];
        let mut distinct = column.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        ev.count_decoded(distinct.len() as u64);
        let terms: Vec<Option<Cow<Term>>> = distinct.iter().map(|&c| cells.term(c)).collect();
        let ranks = dense_ranks(&terms, |a, b| compare_terms(a.as_deref(), b.as_deref()));
        // every cell of the column is in `distinct`, which is sorted
        return column.iter().map(|c| ranks[distinct.partition_point(|d| d < c)]).collect();
    }
    let values: Vec<_> = (0..len)
        .map(|row| {
            let resolver = |v: VarId| {
                ev.count_decoded(1);
                cells.term(table[v.0 as usize][row])
            };
            eval_expr(&resolver, &key.expr).ok()
        })
        .collect();
    dense_ranks(&values, |a, b| compare_terms(a.as_deref(), b.as_deref()))
}

/// The rank of each item under `compare`, equal items sharing one: sorting
/// by rank is sorting by `compare`, ties included.
fn dense_ranks<T>(items: &[T], compare: impl Fn(&T, &T) -> Ordering) -> Vec<u32> {
    let mut sorted: Vec<usize> = (0..items.len()).collect();
    sorted.sort_by(|&a, &b| compare(&items[a], &items[b]));
    let mut ranks = vec![0; items.len()];
    let mut rank = 0;
    for pair in sorted.windows(2) {
        if compare(&items[pair[0]], &items[pair[1]]) != Ordering::Equal {
            rank += 1;
        }
        ranks[pair[1]] = rank;
    }
    ranks
}

/// One row per group, as columns over every query variable — the cells of
/// the group's first row, with each aggregate's result under its alias —
/// and the number of groups. Groups come out ordered by their rendered
/// keys, as the reference's do.
fn aggregate_rows(
    ev: &Evaluator<'_>,
    cells: &mut Cells<'_>,
    select: &SelectQuery,
    items: &[SelectItem],
    nvars: usize,
    batch: &Batch,
) -> (Vec<Vec<u32>>, usize) {
    let mut table: Vec<Vec<u32>> = vec![Vec::new(); nvars];
    // no solutions: one group over nothing (COUNT = 0, the rest unbound)
    if batch.is_empty() {
        for column in &mut table {
            column.push(UNBOUND);
        }
        for item in items {
            if let SelectItem::Aggregate { agg: Aggregate::Count { .. }, alias } = item {
                table[alias.0 as usize][0] = cells.mint(Term::integer(0));
            }
        }
        return (table, 1);
    }

    // rows sorted by their group-by cells (stably: members stay in row
    // order, the first is the group's representative), then cut into runs
    let keys: Vec<&[u32]> = select.group_by.iter().map(|v| batch.col(*v)).collect();
    let same_group = |a: u32, b: u32| keys.iter().all(|k| k[a as usize] == k[b as usize]);
    let mut rows: Vec<u32> = (0..batch.len() as u32).collect();
    rows.sort_by(|&a, &b| {
        keys.iter()
            .map(|k| k[a as usize].cmp(&k[b as usize]))
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let mut groups: Vec<(String, &[u32])> = rows
        .chunk_by(|&a, &b| same_group(a, b))
        .map(|members| {
            // rendered once per group, for the output order only
            ev.count_decoded(keys.len() as u64);
            let rendered = keys
                .iter()
                .map(|k| format!("{:?}|", cells.term(k[members[0] as usize])))
                .collect();
            (rendered, members)
        })
        .collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));

    for (_, members) in &groups {
        let first = members[0] as usize;
        for (v, column) in table.iter_mut().enumerate() {
            column.push(batch.col(VarId(v as u16))[first]);
        }
        for item in items {
            if let SelectItem::Aggregate { agg, alias } = item {
                let cell = eval_aggregate(ev, cells, agg, members, batch);
                if let Some(last) = table[alias.0 as usize].last_mut() {
                    *last = cell;
                }
            }
        }
    }
    (table, groups.len())
}

/// The cell of one aggregate over one group's rows.
fn eval_aggregate(
    ev: &Evaluator<'_>,
    cells: &mut Cells<'_>,
    agg: &Aggregate,
    members: &[u32],
    batch: &Batch,
) -> u32 {
    // the bound cells of `var` across the group, in row order
    let bound = |var: &VarId| {
        let column = batch.col(*var);
        members.iter().map(move |&row| column[row as usize]).filter(|&c| c != UNBOUND)
    };
    match agg {
        Aggregate::Count { var: None, .. } => cells.mint(Term::integer(members.len() as i64)),
        Aggregate::Count { distinct: false, var: Some(v) } => {
            cells.mint(Term::integer(bound(v).count() as i64))
        }
        Aggregate::Count { distinct: true, var: Some(v) } => {
            let mut ids: Vec<u32> = bound(v).collect();
            ids.sort_unstable();
            ids.dedup();
            cells.mint(Term::integer(ids.len() as i64))
        }
        Aggregate::Sum(v) | Aggregate::Avg(v) => {
            let (mut sum, mut n) = (0.0, 0usize);
            for term in bound(v).filter_map(|c| cells.term(c)) {
                ev.count_decoded(1);
                if let Some(value) = numeric(&term) {
                    sum += value;
                    n += 1;
                }
            }
            let mean = matches!(agg, Aggregate::Avg(_)) && n > 0;
            cells.mint(Term::double(if mean { sum / n as f64 } else { sum }))
        }
        Aggregate::Min(v) | Aggregate::Max(v) => {
            let wanted =
                if matches!(agg, Aggregate::Min(_)) { Ordering::Less } else { Ordering::Greater };
            let mut best = UNBOUND;
            for cell in bound(v) {
                ev.count_decoded(1);
                let (term, best_term) = (cells.term(cell), cells.term(best));
                if best == UNBOUND || compare_terms(term.as_deref(), best_term.as_deref()) == wanted {
                    best = cell;
                }
            }
            best
        }
    }
}
