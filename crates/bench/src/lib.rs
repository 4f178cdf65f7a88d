//! `lids-bench` — the paper's evaluation (Section 6).
//!
//! One module per experiment; each regenerates the rows/series of a table
//! or figure from the paper. The `repro` binary drives them all (the
//! crate's other binary, `lids_serve`, is the demo server). How fast the
//! platform itself is — ingest, deltas, serving — is measured by `lids-e2e`
//! in `benchmark/`, and what must hold is asserted by the differential
//! suites under `tests/`; neither lives here.
//!
//! | module | reproduces |
//! |---|---|
//! | [`corpus`] | shared workload builders (lakes, corpus, platforms) |
//! | [`discovery`] | Table 1, Table 2, Figure 5, Figure 6 |
//! | [`abstraction`] | Table 3, Table 4, Figure 4 |
//! | [`cleaning`] | Table 5, Figure 7 |
//! | [`transform`] | Table 6, Figure 8 |
//! | [`automl_exp`] | Figure 9 |
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! workloads); the *shapes* — who wins, by roughly what factor, where the
//! failures appear — are the reproduction target (see EXPERIMENTS.md).

pub mod abstraction;
pub mod automl_exp;
pub mod cleaning;
pub mod corpus;
pub mod discovery;
pub mod transform;

/// Render a row-major text table with a header.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let mut out = line(header.to_vec());
    out.push('\n');
    out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.iter().map(|s| s.as_str()).collect()));
        out.push('\n');
    }
    out
}
