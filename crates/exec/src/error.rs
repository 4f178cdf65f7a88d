//! The structured error taxonomy shared by every ingestion stage.
//!
//! The KG Governor (Algorithm 1) consumes external artifacts — CSV files,
//! JSON tables, Python scripts — that arrive malformed, truncated, or
//! mis-encoded in practice. Every failure on the ingestion path is
//! expressed as a [`LidsError`] carrying a machine-readable [`ErrorKind`].
//! Every ingest stage is a deterministic function of its input, so a
//! failed artifact fails once: the platform quarantines it with its kind
//! recorded as provenance.

/// Machine-readable classification of an ingestion failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// CSV structure violated: unterminated quote, ragged row, …
    CsvMalformed,
    /// Byte-level encoding problem: invalid UTF-8, embedded NUL bytes.
    EncodingError,
    /// JSON input that is not valid tabular JSON.
    JsonMalformed,
    /// Input contains no usable records (empty file, header-only CSV).
    EmptyInput,
    /// Python script failed lexing or parsing.
    PyParseError,
    /// A SPARQL query failed to parse or evaluate.
    SparqlError,
    /// A governed query ran past its deadline.
    QueryTimeout,
    /// A governed query was cancelled by its caller.
    QueryCancelled,
    /// A governed query exceeded its memory budget (or its shape is
    /// quarantined for repeatedly doing so).
    QueryBudgetExceeded,
    /// A caller-supplied argument was out of domain (NaN score, zero k).
    InvalidArgument,
    /// A worker panicked while processing the item.
    WorkerPanic,
    /// Invariant violation inside the platform itself.
    Internal,
}

impl ErrorKind {
    /// Stable lower-level name recorded in provenance triples and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::CsvMalformed => "CsvMalformed",
            ErrorKind::EncodingError => "EncodingError",
            ErrorKind::JsonMalformed => "JsonMalformed",
            ErrorKind::EmptyInput => "EmptyInput",
            ErrorKind::PyParseError => "PyParseError",
            ErrorKind::SparqlError => "SparqlError",
            ErrorKind::QueryTimeout => "QueryTimeout",
            ErrorKind::QueryCancelled => "QueryCancelled",
            ErrorKind::QueryBudgetExceeded => "QueryBudgetExceeded",
            ErrorKind::InvalidArgument => "InvalidArgument",
            ErrorKind::WorkerPanic => "WorkerPanic",
            ErrorKind::Internal => "Internal",
        }
    }

    /// The HTTP status a network front end should answer with when a
    /// request fails with this kind. The split is by *who can fix it*:
    /// malformed input and out-of-domain arguments are the caller's
    /// problem (400), resource-governance stops are load conditions the
    /// caller may retry against (503, typically with `Retry-After`), and
    /// platform invariant violations are ours (500).
    pub fn http_status(&self) -> u16 {
        match self {
            ErrorKind::CsvMalformed
            | ErrorKind::EncodingError
            | ErrorKind::JsonMalformed
            | ErrorKind::EmptyInput
            | ErrorKind::PyParseError
            | ErrorKind::SparqlError
            | ErrorKind::InvalidArgument => 400,
            ErrorKind::QueryTimeout
            | ErrorKind::QueryCancelled
            | ErrorKind::QueryBudgetExceeded => 503,
            ErrorKind::WorkerPanic | ErrorKind::Internal => 500,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured ingestion error: kind + human-readable message + the
/// artifact it concerns (when known at the point of failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LidsError {
    kind: ErrorKind,
    message: String,
    artifact: Option<String>,
}

impl LidsError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        LidsError { kind, message: message.into(), artifact: None }
    }

    /// Attach (or replace) the artifact id the error concerns.
    pub fn with_artifact(mut self, artifact: impl Into<String>) -> Self {
        self.artifact = Some(artifact.into());
        self
    }

    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    pub fn message(&self) -> &str {
        &self.message
    }

    pub fn artifact(&self) -> Option<&str> {
        self.artifact.as_deref()
    }
}

impl std::fmt::Display for LidsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.artifact {
            Some(a) => write!(f, "[{}] {}: {}", self.kind, a, self.message),
            None => write!(f, "[{}] {}", self.kind, self.message),
        }
    }
}

impl std::error::Error for LidsError {}

/// Result alias used across the ingestion path.
pub type LidsResult<T> = Result<T, LidsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_artifact() {
        let e = LidsError::new(ErrorKind::CsvMalformed, "unterminated quote")
            .with_artifact("lake/t1.csv");
        let s = e.to_string();
        assert!(s.contains("CsvMalformed"));
        assert!(s.contains("lake/t1.csv"));
        assert!(s.contains("unterminated quote"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ErrorKind::CsvMalformed.name(), "CsvMalformed");
        assert_eq!(ErrorKind::WorkerPanic.to_string(), "WorkerPanic");
    }

    #[test]
    fn http_status_taxonomy() {
        // caller-fixable input problems → 400
        for k in [
            ErrorKind::CsvMalformed,
            ErrorKind::EncodingError,
            ErrorKind::JsonMalformed,
            ErrorKind::EmptyInput,
            ErrorKind::PyParseError,
            ErrorKind::SparqlError,
            ErrorKind::InvalidArgument,
        ] {
            assert_eq!(k.http_status(), 400, "{k}");
        }
        // resource-governance stops → 503 (retryable against load)
        for k in [
            ErrorKind::QueryTimeout,
            ErrorKind::QueryCancelled,
            ErrorKind::QueryBudgetExceeded,
        ] {
            assert_eq!(k.http_status(), 503, "{k}");
        }
        // platform bugs → 500
        assert_eq!(ErrorKind::WorkerPanic.http_status(), 500);
        assert_eq!(ErrorKind::Internal.http_status(), 500);
    }
}
