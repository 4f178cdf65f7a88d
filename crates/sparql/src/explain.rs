//! Query plan reports for instrumented evaluation.
//!
//! Asked for a report, [`crate::evaluate_governed`] runs the query with
//! per-pattern counters and folds them into an [`ExplainReport`]: for every
//! triple pattern the plan shows the store's `estimate_pattern` guess
//! (the number the greedy join orderer actually ranked on), the rows the
//! pattern really produced, how many operator executions joined it, its
//! position in the chosen join order and the operator that ran it — plus
//! evaluator-wide counts of dictionary terms looked at and of join operators
//! run.

use std::fmt;

/// One triple pattern's line in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternPlan {
    /// The pattern text, e.g. `?table <rdf:type> <kglids:Table>`.
    pub pattern: String,
    /// `QuadStore::estimate_pattern` over the pattern's constants — the
    /// cardinality guess join ordering ranked on.
    pub estimated_rows: usize,
    /// Rows the pattern actually produced across all scans.
    pub actual_rows: u64,
    /// Operator executions that joined the pattern: one per batch a merge
    /// or probe step ran over, one per matching subject for a leapfrog leg.
    pub scans: u64,
    /// Position in the executed join order of its BGP, if the pattern
    /// was ever joined (`None` for patterns in branches never reached).
    pub order: Option<usize>,
    /// Join operator that executed the pattern (`"probe"`, `"merge"` or
    /// `"leapfrog"`; first execution wins); `None` if never joined.
    pub operator: Option<&'static str>,
    /// `false` when the pattern references a constant the dictionary
    /// has never interned — its whole BGP compiled to empty.
    pub satisfiable: bool,
}

/// Full instrumented-evaluation report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainReport {
    /// Whether cardinality-based join reordering was enabled.
    pub reorder_joins: bool,
    /// Solution rows returned.
    pub rows: usize,
    /// End-to-end wall time (compile + evaluate + project).
    pub wall_secs: f64,
    /// One entry per triple pattern, in textual (compile) order.
    pub patterns: Vec<PatternPlan>,
    /// Dictionary terms *looked at* during evaluation: FILTER operands, sort
    /// keys (one per distinct id of a plain-variable key), aggregate inputs
    /// and group keys. The joins and the projection run on ids and look at
    /// none; the answer is decoded by whoever reads it, which is not counted
    /// here.
    pub decoded_terms: u64,
    /// Sort-merge join steps executed.
    pub merge_joins: u64,
    /// Per-row probe join steps executed.
    pub probe_joins: u64,
    /// Leapfrog star-intersection steps executed.
    pub leapfrog_joins: u64,
    /// True when an explicit row cap truncated intermediate
    /// binding sets: the reported rows are a valid subset of the exact
    /// answer.
    pub truncated: bool,
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {} pattern(s), join reordering {}, {} row(s) in {:.3} ms",
            self.patterns.len(),
            if self.reorder_joins { "on" } else { "off" },
            self.rows,
            self.wall_secs * 1e3,
        )?;
        // print in executed join order; never-joined patterns last
        let mut idx: Vec<usize> = (0..self.patterns.len()).collect();
        idx.sort_by_key(|&i| (self.patterns[i].order.unwrap_or(usize::MAX), i));
        let width = self.patterns.iter().map(|p| p.pattern.len()).max().unwrap_or(0).min(72);
        for &i in &idx {
            let p = &self.patterns[i];
            let order = match p.order {
                Some(o) => format!("#{o}"),
                None => "--".to_string(),
            };
            if p.satisfiable {
                writeln!(
                    f,
                    "  {order:>4}  {:width$}  est {:>8}  actual {:>8}  scans {:>6}  via {}",
                    p.pattern,
                    p.estimated_rows,
                    p.actual_rows,
                    p.scans,
                    p.operator.unwrap_or("--"),
                )?;
            } else {
                writeln!(
                    f,
                    "  {order:>4}  {:width$}  unsatisfiable (constant not in store)",
                    p.pattern,
                )?;
            }
        }
        write!(
            f,
            "  terms looked at {} (filters, sort keys, aggregates) | ops: {} merge, {} probe, {} leapfrog",
            self.decoded_terms,
            self.merge_joins,
            self.probe_joins,
            self.leapfrog_joins,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_est_and_actual() {
        let report = ExplainReport {
            reorder_joins: true,
            rows: 2,
            wall_secs: 0.0015,
            patterns: vec![
                PatternPlan {
                    pattern: "?t <type> <Table>".into(),
                    estimated_rows: 2,
                    actual_rows: 2,
                    scans: 1,
                    order: Some(0),
                    operator: Some("probe"),
                    satisfiable: true,
                },
                PatternPlan {
                    pattern: "?t <missing> ?x".into(),
                    estimated_rows: 0,
                    actual_rows: 0,
                    scans: 0,
                    order: None,
                    operator: None,
                    satisfiable: false,
                },
            ],
            decoded_terms: 4,
            merge_joins: 0,
            probe_joins: 1,
            leapfrog_joins: 0,
            truncated: false,
        };
        let text = report.to_string();
        assert!(text.contains("est"));
        assert!(text.contains("actual"));
        assert!(text.contains("unsatisfiable"));
        assert!(text.contains("reordering on"));
        assert!(text.contains("terms looked at 4"));
        // executed pattern printed before never-joined one
        let pos_joined = text.find("?t <type> <Table>").unwrap();
        let pos_dead = text.find("?t <missing> ?x").unwrap();
        assert!(pos_joined < pos_dead);
    }
}
