//! Quarantine provenance: *why* an artifact was excluded from the graph.
//!
//! Graphs built from external artifacts must degrade gracefully and record
//! why an artifact was excluded, not just that it was. When the KG Governor
//! quarantines a damaged dataset table or pipeline script, it emits
//! provenance triples into a dedicated named graph so discovery queries can
//! surface coverage gaps next to their results.
//!
//! Triple shapes, all inside the named graph [`QUARANTINE_GRAPH`]:
//!
//! ```text
//! <http://kglids.org/provenance/artifact/<id>>
//!     rdf:type        prov:QuarantinedArtifact ;
//!     prov:artifactKind  "table" | "pipeline" ;
//!     prov:errorKind     "CsvMalformed" | "EncodingError" | … ;
//!     prov:errorMessage  "record 3 has 2 fields, header has 4" .
//! ```
//!
//! The provenance vocabulary lives under `http://kglids.org/provenance/`,
//! deliberately outside the 13-class/19-property/22-property LiDS ontology
//! of §2.1 so the paper's cardinalities stay intact.

use lids_exec::LidsError;
use lids_rdf::{GraphName, Quad, QuadStore, Term};

use crate::ontology::{encode_segment, RDF_TYPE};

/// Provenance namespace prefix.
pub const PROV: &str = "http://kglids.org/provenance/";

/// IRI of the named graph holding all quarantine records.
pub const QUARANTINE_GRAPH: &str = "http://kglids.org/provenance/quarantine";

/// Class of a quarantined artifact node.
pub const QUARANTINED_ARTIFACT: &str = "QuarantinedArtifact";

/// Provenance properties.
pub mod prop {
    pub const ARTIFACT_KIND: &str = "artifactKind";
    pub const ERROR_KIND: &str = "errorKind";
    pub const ERROR_MESSAGE: &str = "errorMessage";

    /// All provenance property names (for conformance checks).
    pub const ALL: [&str; 3] = [ARTIFACT_KIND, ERROR_KIND, ERROR_MESSAGE];
}

/// Build the full IRI of a provenance vocabulary name.
pub fn iri(name: &str) -> String {
    format!("{PROV}{name}")
}

/// IRI of the provenance node describing a quarantined artifact.
pub fn artifact_iri(artifact_id: &str) -> String {
    // artifact ids look like "lake/table" or "pipelines/p7"; keep the
    // path shape readable in the IRI
    let parts: Vec<String> = artifact_id.split('/').map(encode_segment).collect();
    format!("{PROV}artifact/{}", parts.join("/"))
}

/// One quarantine record to be written as provenance.
#[derive(Debug, Clone)]
pub struct QuarantineRecord<'a> {
    /// Stable artifact id, e.g. `"<dataset>/<table>"` or a pipeline id.
    pub artifact_id: &'a str,
    /// `"table"` or `"pipeline"`.
    pub artifact_kind: &'a str,
    /// The error that caused the quarantine.
    pub error: &'a LidsError,
}

/// Append the provenance quads of one quarantine record to a batch,
/// destined for the [`QUARANTINE_GRAPH`] named graph. Returns the artifact
/// node IRI. The caller hands the accumulated batch to
/// [`QuadStore::extend`] — the bootstrap path batches all quarantine
/// records of a run into a single bulk load.
pub fn push_quarantine(out: &mut Vec<Quad>, record: &QuarantineRecord<'_>) -> String {
    let node = artifact_iri(record.artifact_id);
    let graph = GraphName::named(QUARANTINE_GRAPH);
    let mut add = |p: String, o: Term| {
        out.push(Quad::in_graph(Term::iri(node.clone()), Term::iri(p), o, graph.clone()));
    };
    add(RDF_TYPE.to_string(), Term::iri(iri(QUARANTINED_ARTIFACT)));
    add(iri(prop::ARTIFACT_KIND), Term::string(record.artifact_kind));
    add(iri(prop::ERROR_KIND), Term::string(record.error.kind().name()));
    add(iri(prop::ERROR_MESSAGE), Term::string(record.error.message()));
    node
}

/// Emit the provenance triples of one quarantine record into the
/// [`QUARANTINE_GRAPH`] named graph. Returns the artifact node IRI.
///
/// Convenience wrapper over [`push_quarantine`] for single records.
pub fn emit_quarantine(store: &mut QuadStore, record: &QuarantineRecord<'_>) -> String {
    let mut batch = Vec::with_capacity(4);
    let node = push_quarantine(&mut batch, record);
    store.extend(batch);
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_exec::ErrorKind;
    use lids_rdf::QuadPattern;

    #[test]
    fn emits_record_into_quarantine_graph() {
        let mut store = QuadStore::new();
        let error = LidsError::new(ErrorKind::CsvMalformed, "unterminated quote")
            .with_artifact("lake/t3");
        let node = emit_quarantine(
            &mut store,
            &QuarantineRecord {
                artifact_id: "lake/t3",
                artifact_kind: "table",
                error: &error,
            },
        );
        assert_eq!(store.len(), 4);
        assert!(node.starts_with(PROV));
        // every quad lives in the quarantine named graph
        for quad in store.iter() {
            assert_eq!(quad.graph, GraphName::named(QUARANTINE_GRAPH));
        }
        // the error kind is recorded as a string literal
        let pattern = QuadPattern {
            subject: Some(Term::iri(node.clone())),
            predicate: Some(Term::iri(iri(prop::ERROR_KIND))),
            object: Some(Term::string("CsvMalformed")),
            graph: None,
        };
        assert_eq!(store.match_pattern(&pattern).count(), 1);
    }

    #[test]
    fn artifact_iri_encodes_segments() {
        let iri = artifact_iri("my lake/weird table");
        assert_eq!(iri, format!("{PROV}artifact/my%20lake/weird%20table"));
    }
}
