//! LiDS-graph serialization (§2.1): "the graph can easily be published and
//! shared on the Web" — the store round-trips through N-Quads (with
//! RDF-star quoted triples), so a LiDS graph built on one machine can be
//! loaded and queried on another.

use lids_rdf::nquads::{parse_document, write_document, ParseError};
use lids_rdf::{Quad, QuadStore};

use crate::platform::KgLids;

impl KgLids {
    /// Serialise the entire LiDS graph (default graph + all pipeline named
    /// graphs, including RDF-star annotations) as an N-Quads document.
    pub fn export_nquads(&self) -> String {
        let quads: Vec<Quad> = self.store.iter().collect();
        write_document(quads.iter())
    }

    /// Load an N-Quads document into a fresh store (queryable with
    /// [`lids_sparql`]; the embedding store and models are not part of the
    /// RDF serialisation).
    pub fn import_nquads(document: &str) -> Result<QuadStore, ParseError> {
        let mut store = QuadStore::new();
        store.extend(parse_document(document)?);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{KgLidsBuilder, PipelineScript};
    use lids_kg::abstraction::PipelineMetadata;
    use lids_profiler::table::{Column, Dataset, Table};

    fn platform() -> KgLids {
        // two copies of one table: similarity edges, so RDF-star annotations
        let table = |name: &str| {
            Table::new(
                name,
                vec![
                    Column::new("Age", (20..50).map(|i| i.to_string()).collect()),
                    Column::new("Fare", (20..50).map(|i| format!("{}.5", i)).collect()),
                ],
            )
        };
        let ds = Dataset::new("titanic", vec![table("train"), table("test")]);
        let script = PipelineScript {
            metadata: PipelineMetadata {
                id: "p1".into(),
                dataset: "titanic".into(),
                title: "t".into(),
                author: "a".into(),
                votes: 7,
                score: 0.5,
                task: "classification".into(),
            },
            source: "import pandas as pd\ndf = pd.read_csv('titanic/train.csv')\nx = df['Age']\n"
                .into(),
        };
        KgLidsBuilder::new()
            .with_dataset(ds)
            .with_pipelines([script])
            .bootstrap()
            .0
    }

    #[test]
    fn export_import_preserves_every_quad() {
        let p = platform();
        let doc = p.export_nquads();
        assert!(doc.lines().count() >= p.triple_count());
        let store = KgLids::import_nquads(&doc).unwrap();
        assert_eq!(store.len(), p.store().len());
        // every original quad survives
        for quad in p.store().iter() {
            assert!(store.contains(&quad), "missing {quad}");
        }
    }

    #[test]
    fn imported_graph_is_queryable() {
        let p = platform();
        let store = KgLids::import_nquads(&p.export_nquads()).unwrap();
        // same SPARQL answers on both sides, incl. named graphs + RDF-star
        for q in [
            "PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }",
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT ?s WHERE { GRAPH ?g { ?s k:readsColumn ?c . } }",
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT ?v WHERE { << ?a k:hasContentSimilarity ?b >> k:withCertainty ?v . }",
        ] {
            let rows = |answer: lids_sparql::Solutions<'_>| {
                let mut rows: Vec<String> =
                    answer.to_terms().iter().map(|row| format!("{row:?}")).collect();
                rows.sort();
                rows
            };
            let original = rows(lids_sparql::query(p.store(), q).unwrap());
            let roundtrip = rows(lids_sparql::query(&store, q).unwrap());
            assert!(!original.is_empty(), "query {q}");
            assert_eq!(original, roundtrip, "query {q}");
        }
    }

    #[test]
    fn import_rejects_malformed_documents() {
        assert!(KgLids::import_nquads("<s> <p> .\n").is_err());
    }
}
