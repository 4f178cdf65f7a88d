//! Query results and error types.

use std::borrow::Cow;

use lids_exec::GovernorTrip;
use lids_rdf::{Dictionary, Term, TermId};

/// Errors from parsing or evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SparqlError {
    /// Syntax error at a byte offset.
    Parse { offset: usize, message: String },
    /// Semantic error during evaluation.
    Eval(String),
    /// The resource governor stopped the query (deadline, cancellation,
    /// or memory budget) before it completed.
    Governed(GovernorTrip),
}

impl std::fmt::Display for SparqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparqlError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SparqlError::Eval(m) => write!(f, "evaluation error: {m}"),
            SparqlError::Governed(trip) => write!(f, "{trip}"),
        }
    }
}

impl std::error::Error for SparqlError {}

/// Fold a query failure into the platform-wide error taxonomy, so
/// `KgLids::query`/`ask` can speak [`lids_exec::LidsResult`] like every
/// other public entry point. Governed stops keep their typed kind
/// (`QueryTimeout` / `QueryCancelled` / `QueryBudgetExceeded`); parse and
/// evaluation failures stay `SparqlError`.
impl From<SparqlError> for lids_exec::LidsError {
    fn from(e: SparqlError) -> Self {
        match e {
            SparqlError::Governed(trip) => trip.into(),
            other => {
                lids_exec::LidsError::new(lids_exec::ErrorKind::SparqlError, other.to_string())
            }
        }
    }
}

/// Cell value of an unbound variable (e.g. one an OPTIONAL did not match).
pub const UNBOUND: u32 = u32::MAX;

/// Row-major id cells of an answer, `width` per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdRows {
    width: usize,
    len: usize,
    cells: Vec<u32>,
}

impl IdRows {
    pub(crate) fn new(width: usize, len: usize, cells: Vec<u32>) -> IdRows {
        assert_eq!(cells.len(), width * len, "id rows are rectangular");
        IdRows { width, len, cells }
    }

    /// Number of rows (a zero-column answer still counts its rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cells of row `i`, one per column.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len).map(|i| self.row(i))
    }
}

/// A solution sequence in id space: named columns over rows of `u32`
/// cells. A cell is [`UNBOUND`], the dictionary id of a term of the
/// snapshot the query ran on (ids below the dictionary's length), or an
/// index past it into the answer's own *minted* terms — aggregate results
/// the store has never interned. Nothing is decoded until a caller asks:
/// [`Self::get`] and friends answer by reference, [`Self::to_terms`]
/// materialises the whole answer.
///
/// Within one answer equal cells are equal terms and distinct cells distinct
/// terms (interning is injective; a minted term is first looked up in the
/// dictionary, then among the terms minted so far), so callers may group and
/// compare by cell. [`Self::from_terms`] answers are the exception: every
/// cell is minted as given, duplicates included.
#[derive(Clone, Default)]
pub struct Solutions<'a> {
    /// Projected variable names, in projection order.
    pub columns: Vec<String>,
    /// One row per solution, `columns.len()` cells each.
    pub rows: IdRows,
    /// The dictionary cells below its length index; `None` when every cell
    /// is minted.
    dict: Option<&'a Dictionary>,
    minted: Vec<Term>,
    /// For ASK queries: the boolean result. SELECTs leave this `None`.
    pub ask: Option<bool>,
    /// True when a row cap truncated the intermediate binding sets: the
    /// rows present are valid solutions, but more may exist. Set only when
    /// the caller asked for an explicit row cap.
    pub truncated: bool,
}

impl<'a> Solutions<'a> {
    /// An answer over `dict`'s ids plus the terms minted for it.
    pub(crate) fn new(
        columns: Vec<String>,
        rows: IdRows,
        dict: &'a Dictionary,
        minted: Vec<Term>,
    ) -> Solutions<'a> {
        Solutions { columns, rows, dict: Some(dict), minted, ask: None, truncated: false }
    }

    /// The answer of an ASK query.
    pub(crate) fn ask(answer: bool) -> Solutions<'static> {
        Solutions { ask: Some(answer), ..Solutions::default() }
    }

    /// An answer given as terms (`None` = unbound): what the reference
    /// evaluator produces and tests write down.
    pub fn from_terms(columns: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> Solutions<'static> {
        let mut minted = Vec::new();
        let mut cells = Vec::with_capacity(rows.len() * columns.len());
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "row length equals the column count");
        }
        let len = rows.len();
        for term in rows.into_iter().flatten() {
            cells.push(match term {
                Some(term) => {
                    minted.push(term);
                    (minted.len() - 1) as u32
                }
                None => UNBOUND,
            });
        }
        Solutions {
            rows: IdRows::new(columns.len(), len, cells),
            columns,
            dict: None,
            minted,
            ask: None,
            truncated: false,
        }
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The term a cell of [`Self::rows`] stands for (`None` = unbound):
    /// borrowed, except a stored quoted triple, which is built on demand.
    pub fn term(&self, cell: u32) -> Option<Cow<'_, Term>> {
        cell_term(self.dict, &self.minted, cell)
    }

    /// The text a cell of [`Self::rows`] reads as — IRI, lexical form, `_:b`
    /// or `<< s p o >>` — borrowed where the term holds it; empty for an
    /// unbound cell.
    pub fn text(&self, cell: u32) -> Cow<'_, str> {
        self.term(cell).map(cow_str).unwrap_or_default()
    }

    /// Iterate the terms bound to `column` across all rows (skipping unbound).
    pub fn column<'s>(&'s self, name: &str) -> impl Iterator<Item = Cow<'s, Term>> + 's {
        let index = self.column_index(name);
        self.rows.iter().filter_map(move |row| self.term(row[index?]))
    }

    /// Get the term at `(row, column-name)`.
    pub fn get(&self, row: usize, name: &str) -> Option<Cow<'_, Term>> {
        let i = self.column_index(name)?;
        if row >= self.len() {
            return None;
        }
        self.term(self.rows.row(row)[i])
    }

    /// Convenience: string form of the term at `(row, column)` — IRI text or
    /// literal lexical form, borrowed from the term.
    pub fn get_str(&self, row: usize, name: &str) -> Option<Cow<'_, str>> {
        self.get(row, name).map(cow_str)
    }

    /// Convenience: numeric value at `(row, column)`.
    pub fn get_f64(&self, row: usize, name: &str) -> Option<f64> {
        match &*self.get(row, name)? {
            Term::Literal(l) => l.as_f64(),
            _ => None,
        }
    }

    /// The whole answer as terms, one `Vec` per row.
    pub fn to_terms(&self) -> Vec<Vec<Option<Term>>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|&cell| self.term(cell).map(Cow::into_owned)).collect())
            .collect()
    }
}

/// The term behind a cell of an answer over `dict` and its `minted` terms:
/// [`UNBOUND`] is none, a cell below the dictionary's length is that id's
/// term, the rest count on into `minted`.
pub(crate) fn cell_term<'t>(
    dict: Option<&'t Dictionary>,
    minted: &'t [Term],
    cell: u32,
) -> Option<Cow<'t, Term>> {
    if cell == UNBOUND {
        return None;
    }
    let cell = cell as usize;
    Some(match dict {
        Some(dict) if cell < dict.len() => dict.term(TermId(cell as u32)),
        Some(dict) => Cow::Borrowed(&minted[cell - dict.len()]),
        None => Cow::Borrowed(&minted[cell]),
    })
}

impl std::fmt::Debug for Solutions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solutions")
            .field("columns", &self.columns)
            .field("rows", &self.to_terms())
            .field("ask", &self.ask)
            .field("truncated", &self.truncated)
            .finish()
    }
}

/// Human-facing text of a term: IRI string, bnode label, or lexical form —
/// borrowed where the term holds it, built for bnodes and quoted triples.
pub fn term_str(t: &Term) -> Cow<'_, str> {
    match t {
        Term::Iri(i) => Cow::Borrowed(i),
        Term::Literal(l) => Cow::Borrowed(&l.lexical),
        Term::BNode(b) => Cow::Owned(format!("_:{b}")),
        Term::Quoted(q) => Cow::Owned(format!(
            "<< {} {} {} >>",
            term_str(&q.subject),
            term_str(&q.predicate),
            term_str(&q.object)
        )),
    }
}

/// [`term_str`] of a term that may have been built for the caller.
fn cow_str(term: Cow<'_, Term>) -> Cow<'_, str> {
    match term {
        Cow::Borrowed(term) => term_str(term),
        Cow::Owned(term) => Cow::Owned(term_str(&term).into_owned()),
    }
}

/// [`term_str`], owned.
pub fn term_text(t: &Term) -> String {
    term_str(t).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solutions::from_terms(
            vec!["x".into(), "n".into()],
            vec![
                vec![Some(Term::iri("a")), Some(Term::integer(3))],
                vec![Some(Term::iri("b")), None],
            ],
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.get_str(0, "x").as_deref(), Some("a"));
        assert_eq!(s.get_f64(0, "n"), Some(3.0));
        assert_eq!(s.get(1, "n"), None);
        assert_eq!(s.get(2, "x"), None);
        assert_eq!(s.column("x").count(), 2);
        assert_eq!(s.column("n").count(), 1);
        assert_eq!(s.column("missing").count(), 0);
        assert_eq!(s.to_terms()[1], vec![Some(Term::iri("b")), None]);
    }

    #[test]
    fn dictionary_and_minted_cells_share_a_row() {
        let mut dict = Dictionary::new();
        let a = dict.intern(&Term::iri("a")).0;
        let rows = IdRows::new(3, 1, vec![a, 1, UNBOUND]);
        let s = Solutions::new(
            vec!["x".into(), "n".into(), "u".into()],
            rows,
            &dict,
            vec![Term::integer(7)],
        );
        assert_eq!(s.get(0, "x").as_deref(), Some(&Term::iri("a")));
        assert_eq!(s.get_f64(0, "n"), Some(7.0));
        assert_eq!(s.get(0, "u"), None);
        // a zero-column answer still counts its rows
        assert_eq!(IdRows::new(0, 4, Vec::new()).iter().count(), 4);
    }

    #[test]
    fn term_text_forms() {
        assert_eq!(term_text(&Term::iri("http://x")), "http://x");
        assert_eq!(term_text(&Term::string("v")), "v");
        assert_eq!(term_text(&Term::BNode("b".into())), "_:b");
    }
}
