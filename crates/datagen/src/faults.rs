//! Deterministic fault injection for chaos-testing the bootstrap.
//!
//! A seeded [`Corruptor`] damages serialized artifacts (CSV bytes, Python
//! sources) in precisely one of six ways, each mapped to the [`ErrorKind`]
//! the strict ingestion path must classify it as. Chaos tests corrupt a
//! known subset of a generated lake, bootstrap it, and assert the platform
//! quarantines exactly the corrupted artifacts with the expected kinds —
//! and never panics.

use lids_exec::ErrorKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The ways an artifact can be damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cut the byte stream mid-record, leaving an unterminated quoted field.
    Truncate,
    /// Open a quote that never closes.
    UnbalancedQuote,
    /// Splice a byte sequence that is not valid UTF-8.
    InvalidUtf8,
    /// Sprinkle NUL bytes into field data.
    NulBytes,
    /// Add extra fields to a data row so it no longer matches the header.
    RaggedRow,
    /// Break a Python script's syntax (unclosed paren).
    PySyntax,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Truncate,
        FaultKind::UnbalancedQuote,
        FaultKind::InvalidUtf8,
        FaultKind::NulBytes,
        FaultKind::RaggedRow,
        FaultKind::PySyntax,
    ];

    /// The fault kinds that apply to CSV tables.
    pub const CSV: [FaultKind; 5] = [
        FaultKind::Truncate,
        FaultKind::UnbalancedQuote,
        FaultKind::InvalidUtf8,
        FaultKind::NulBytes,
        FaultKind::RaggedRow,
    ];

    /// The [`ErrorKind`] the strict ingestion path classifies this fault as.
    pub fn expected_error(&self) -> ErrorKind {
        match self {
            FaultKind::Truncate | FaultKind::UnbalancedQuote | FaultKind::RaggedRow => {
                ErrorKind::CsvMalformed
            }
            FaultKind::InvalidUtf8 | FaultKind::NulBytes => ErrorKind::EncodingError,
            FaultKind::PySyntax => ErrorKind::PyParseError,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Seeded artifact corruptor. The same seed and call sequence always
/// produces the same damage, so chaos tests are reproducible.
#[derive(Debug)]
pub struct Corruptor {
    rng: SmallRng,
}

impl Corruptor {
    pub fn new(seed: u64) -> Self {
        Corruptor { rng: SmallRng::seed_from_u64(seed) }
    }

    /// Damage CSV bytes with the given fault. Panics if `kind` is
    /// [`FaultKind::PySyntax`] (not a CSV fault).
    pub fn corrupt_csv(&mut self, csv: &[u8], kind: FaultKind) -> Vec<u8> {
        let mut out = csv.to_vec();
        match kind {
            FaultKind::Truncate => {
                // cut inside the last third, then open a quote so the tail
                // is an unterminated quoted field regardless of cut point
                let floor = out.len().saturating_mul(2) / 3;
                let cut = self.rng.gen_range(floor.max(1)..=out.len().max(1));
                out.truncate(cut);
                out.push(b'"');
            }
            FaultKind::UnbalancedQuote => {
                // open a quote at a field start (just after a comma) and
                // never close it
                let at = position_after(&out, b',', &mut self.rng).unwrap_or(out.len());
                out.insert(at, b'"');
            }
            FaultKind::InvalidUtf8 => {
                // 0xFF can never appear in well-formed UTF-8
                let at = self.rng.gen_range(0..=out.len());
                out.insert(at, 0xFF);
            }
            FaultKind::NulBytes => {
                let at = self.rng.gen_range(0..=out.len());
                out.insert(at, 0x00);
            }
            FaultKind::RaggedRow => {
                // append extra fields to the final data row
                while out.last() == Some(&b'\n') {
                    out.pop();
                }
                out.extend_from_slice(b",surplus,surplus\n");
            }
            FaultKind::PySyntax => panic!("PySyntax is not a CSV fault"),
        }
        out
    }

    /// Damage Python source so it no longer parses: an opening paren with
    /// no close, spliced onto a random line end.
    pub fn corrupt_py(&mut self, source: &str) -> String {
        let lines: Vec<&str> = source.lines().collect();
        let at = if lines.is_empty() { 0 } else { self.rng.gen_range(0..lines.len()) };
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            out.push_str(line);
            if i == at {
                out.push_str(" ((");
            }
            out.push('\n');
        }
        if lines.is_empty() {
            out.push_str("((\n");
        }
        out
    }
}

/// A random position immediately after an occurrence of `byte`.
fn position_after(haystack: &[u8], byte: u8, rng: &mut SmallRng) -> Option<usize> {
    let hits: Vec<usize> = haystack
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == byte)
        .map(|(i, _)| i + 1)
        .collect();
    if hits.is_empty() {
        None
    } else {
        Some(hits[rng.gen_range(0..hits.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_profiler::{parse_csv_bytes, CsvMode};

    const CSV: &str = "id,name,price\n1,apple,1.50\n2,banana,0.75\n3,cherry,3.10\n";

    #[test]
    fn corruption_is_deterministic() {
        for kind in FaultKind::CSV {
            let a = Corruptor::new(7).corrupt_csv(CSV.as_bytes(), kind);
            let b = Corruptor::new(7).corrupt_csv(CSV.as_bytes(), kind);
            assert_eq!(a, b, "{kind} not deterministic");
        }
        let a = Corruptor::new(7).corrupt_py("x = 1\ny = 2\n");
        let b = Corruptor::new(7).corrupt_py("x = 1\ny = 2\n");
        assert_eq!(a, b);
    }

    #[test]
    fn each_csv_fault_yields_its_expected_error_kind() {
        for (i, kind) in FaultKind::CSV.into_iter().enumerate() {
            let bad = Corruptor::new(41 + i as u64).corrupt_csv(CSV.as_bytes(), kind);
            let err = parse_csv_bytes("t", &bad, CsvMode::Strict)
                .expect_err(&format!("{kind} should fail strict parsing"));
            assert_eq!(err.kind(), kind.expected_error(), "{kind}: {err}");
        }
    }

    #[test]
    fn corrupted_python_fails_to_parse() {
        let src = "import pandas as pd\ndf = pd.read_csv('x.csv')\nprint(df)\n";
        let bad = Corruptor::new(3).corrupt_py(src);
        assert!(lids_py::analyze(&bad).is_err());
        assert!(lids_py::analyze(src).is_ok());
    }
}
