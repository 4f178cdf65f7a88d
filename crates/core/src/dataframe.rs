//! A minimal DataFrame: the interchange format of the KGLiDS interfaces.
//!
//! "We designed these APIs to formulate the query results as a Pandas
//! Dataframe, which Python libraries widely support" (§5). This is the
//! Rust equivalent: named string columns with typed accessors, built from
//! SPARQL [`Solutions`] or directly.

use lids_sparql::Solutions;

/// Named columns of string cells (empty string = unbound/NULL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// True when graceful degradation truncated the result: the rows are
    /// a valid subset of the exact answer, not the whole of it.
    pub truncated: bool,
}

impl DataFrame {
    /// An empty frame with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        DataFrame { columns, rows: Vec::new(), truncated: false }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row (padded/truncated to the column count).
    pub fn push(&mut self, mut row: Vec<String>) {
        row.resize(self.columns.len(), String::new());
        self.rows.push(row);
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Cell accessor.
    pub fn get(&self, row: usize, column: &str) -> Option<&str> {
        let c = self.column_index(column)?;
        self.rows.get(row).map(|r| r[c].as_str())
    }

    /// Cell as f64.
    pub fn get_f64(&self, row: usize, column: &str) -> Option<f64> {
        self.get(row, column)?.parse().ok()
    }

    /// The paper's `iloc[i]`: one row as `(column, value)` pairs.
    pub fn iloc(&self, row: usize) -> Vec<(String, String)> {
        self.columns
            .iter()
            .cloned()
            .zip(self.rows[row].iter().cloned())
            .collect()
    }

    /// Values of one column.
    pub fn column(&self, name: &str) -> Vec<&str> {
        match self.column_index(name) {
            Some(c) => self.rows.iter().map(|r| r[c].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Build from SPARQL solutions (IRIs and literals rendered as text):
    /// the one place an in-process caller pays for a `String` per cell.
    /// A truncated (gracefully degraded) result keeps its marker.
    pub fn from_solutions(solutions: &Solutions) -> Self {
        let text = |&cell: &u32| solutions.text(cell).into_owned();
        DataFrame {
            columns: solutions.columns.clone(),
            rows: solutions.rows.iter().map(|row| row.iter().map(text).collect()).collect(),
            truncated: solutions.truncated,
        }
    }

    /// Render as an aligned text table (for examples and the repro binary).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len().min(40));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| {
                    let mut c = c.to_string();
                    if c.len() > 40 {
                        c.truncate(37);
                        c.push_str("...");
                    }
                    format!("{c:<w$}")
                })
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(self.columns.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_rdf::Term;

    #[test]
    fn construction_and_access() {
        let mut df = DataFrame::new(vec!["table".into(), "score".into()]);
        df.push(vec!["t1".into(), "0.9".into()]);
        df.push(vec!["t2".into()]); // padded
        assert_eq!(df.len(), 2);
        assert_eq!(df.get(0, "table"), Some("t1"));
        assert_eq!(df.get_f64(0, "score"), Some(0.9));
        assert_eq!(df.get(1, "score"), Some(""));
        assert_eq!(df.column("table"), vec!["t1", "t2"]);
        assert_eq!(df.iloc(0)[1], ("score".to_string(), "0.9".to_string()));
    }

    #[test]
    fn from_solutions() {
        let s = Solutions::from_terms(
            vec!["x".into()],
            vec![vec![Some(Term::iri("http://a"))], vec![None]],
        );
        let df = DataFrame::from_solutions(&s);
        assert_eq!(df.get(0, "x"), Some("http://a"));
        assert_eq!(df.get(1, "x"), Some(""));
    }

    #[test]
    fn text_rendering() {
        let mut df = DataFrame::new(vec!["a".into(), "b".into()]);
        df.push(vec!["hello".into(), "1".into()]);
        let text = df.to_text();
        assert!(text.contains("hello"));
        assert!(text.lines().count() >= 3);
    }
}
