//! The bootstrap quarantine report: which artifacts were excluded and why.
//!
//! Bootstrap never aborts on a bad artifact. Every damaged dataset table or
//! pipeline script is *quarantined*: excluded from the graph, recorded here
//! with its artifact id and typed error, and written as provenance triples
//! into the quarantine named graph (see `lids_kg::provenance`).

use lids_exec::{ErrorKind, LidsError};

/// What kind of artifact a quarantine entry concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A dataset table (CSV/JSON file).
    Table,
    /// A pipeline script.
    Pipeline,
}

impl ArtifactKind {
    /// Stable name recorded in provenance triples.
    pub fn name(&self) -> &'static str {
        match self {
            ArtifactKind::Table => "table",
            ArtifactKind::Pipeline => "pipeline",
        }
    }
}

/// One quarantined artifact: id and typed error.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Stable artifact id: `"<dataset>/<table>"` for tables,
    /// `"<dataset>/<pipeline id>"` for scripts.
    pub artifact: String,
    pub kind: ArtifactKind,
    pub error: LidsError,
}

/// What bootstrap quarantined, in ingestion order.
#[derive(Debug, Clone, Default)]
pub struct BootstrapReport {
    pub quarantined: Vec<QuarantineEntry>,
}

impl BootstrapReport {
    /// True when every artifact made it into the graph.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Number of quarantined artifacts.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Quarantined artifacts of one kind.
    pub fn of_kind(&self, kind: ArtifactKind) -> impl Iterator<Item = &QuarantineEntry> {
        self.quarantined.iter().filter(move |e| e.kind == kind)
    }

    /// Entry for a specific artifact id, if quarantined.
    pub fn entry(&self, artifact: &str) -> Option<&QuarantineEntry> {
        self.quarantined.iter().find(|e| e.artifact == artifact)
    }

    /// Count per error kind, ordered by first appearance.
    pub fn by_error_kind(&self) -> Vec<(ErrorKind, usize)> {
        let mut counts: Vec<(ErrorKind, usize)> = Vec::new();
        for e in &self.quarantined {
            match counts.iter_mut().find(|(k, _)| *k == e.error.kind()) {
                Some((_, n)) => *n += 1,
                None => counts.push((e.error.kind(), 1)),
            }
        }
        counts
    }

    /// Human-readable multi-line summary for example/CLI output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "quarantine: clean (no artifacts excluded)".to_string();
        }
        let tables = self.of_kind(ArtifactKind::Table).count();
        let pipelines = self.of_kind(ArtifactKind::Pipeline).count();
        let mut out = format!(
            "quarantine: {} artifact(s) excluded ({tables} table(s), {pipelines} pipeline(s))\n",
            self.len()
        );
        for e in &self.quarantined {
            out.push_str(&format!(
                "  - {} [{}] {}: {}\n",
                e.artifact,
                e.kind.name(),
                e.error.kind(),
                e.error.message(),
            ));
        }
        out.pop();
        out
    }
}

impl std::fmt::Display for BootstrapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(artifact: &str, kind: ArtifactKind, ek: ErrorKind) -> QuarantineEntry {
        QuarantineEntry { artifact: artifact.to_string(), kind, error: LidsError::new(ek, "msg") }
    }

    #[test]
    fn clean_report() {
        let r = BootstrapReport::default();
        assert!(r.is_clean());
        assert!(r.summary().contains("clean"));
    }

    #[test]
    fn summary_lists_artifacts_and_kinds() {
        let r = BootstrapReport {
            quarantined: vec![
                entry("lake/t1", ArtifactKind::Table, ErrorKind::CsvMalformed),
                entry("p7", ArtifactKind::Pipeline, ErrorKind::PyParseError),
            ],
        };
        let s = r.summary();
        assert!(s.contains("2 artifact(s)"));
        assert!(s.contains("lake/t1"));
        assert!(s.contains("CsvMalformed"));
        assert_eq!(r.of_kind(ArtifactKind::Table).count(), 1);
        assert!(r.entry("p7").is_some());
        assert!(r.entry("nope").is_none());
    }

    #[test]
    fn by_error_kind_counts() {
        let r = BootstrapReport {
            quarantined: vec![
                entry("a", ArtifactKind::Table, ErrorKind::CsvMalformed),
                entry("b", ArtifactKind::Table, ErrorKind::CsvMalformed),
                entry("c", ArtifactKind::Table, ErrorKind::EncodingError),
            ],
        };
        assert_eq!(
            r.by_error_kind(),
            vec![(ErrorKind::CsvMalformed, 2), (ErrorKind::EncodingError, 1)]
        );
    }
}
