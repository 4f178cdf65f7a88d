//! The Global Graph Linker (Section 2.1 / 3.1).
//!
//! Pipeline abstraction predicts the tables and columns each statement
//! reads ([`PipelineGraphInfo::reads`]); the predictions stay in memory.
//! The linker verifies each one against the Data Global Schema of the
//! pipeline's own dataset: a verified table or column becomes a
//! `readsTable` / `readsColumn` edge in the pipeline's graph; an
//! unverified prediction (a user-defined column like `NormalizedAge` in
//! Figure 3) is counted as dropped and never reaches the store.
//!
//! A read is looked up by the IRI the schema stage mints for it:
//! [`res::table`] for a table, found among the dataset's tables
//! (`<d> hasTable ?t`); a table IRI of the dataset plus `/` and the
//! encoded column name for a column, confirmed by a quad probe
//! (`<t> hasColumn <c>`). Hits are read off quads, never off the
//! dictionary alone: it never forgets a term, so an interned IRI may
//! belong to a retracted dataset. Nothing reads the lake beyond the
//! dataset's own tables.

use std::collections::HashMap;

use lids_rdf::{GraphName, Quad, QuadPattern, QuadStore, Term};

use crate::abstraction::{PipelineGraphInfo, PredictedRead};
use crate::ontology::{encode_segment, object_prop, res};

/// Linking statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub tables_linked: usize,
    pub columns_linked: usize,
    pub predictions_dropped: usize,
}

/// Resolves pipelines' predicted reads against the schema a store holds.
/// Each dataset's live tables are read once (`<d> hasTable ?t`) and kept
/// for the linker's life, which is one ingest run.
pub struct Linker<'s> {
    store: &'s QuadStore,
    /// dataset → its live table IRIs
    tables: HashMap<String, Vec<String>>,
    stats: LinkStats,
}

impl<'s> Linker<'s> {
    pub fn new(store: &'s QuadStore) -> Self {
        Linker { store, tables: HashMap::new(), stats: LinkStats::default() }
    }

    /// Append the verified `readsTable`/`readsColumn` edges of one
    /// abstracted pipeline to `out`, in the pipeline's graph.
    pub fn link(&mut self, pipeline: &PipelineGraphInfo, out: &mut Vec<Quad>) {
        let store = self.store;
        let tables = self.tables.entry(pipeline.dataset.clone()).or_insert_with(|| {
            let pattern = QuadPattern::any()
                .with_subject(Term::iri(res::dataset(&pipeline.dataset)))
                .with_predicate(Term::iri(object_prop::iri(object_prop::HAS_TABLE)));
            let tables = store.match_pattern(&pattern);
            tables.filter_map(|q| q.object.as_iri().map(str::to_string)).collect()
        });
        let graph = GraphName::named(pipeline.graph_iri.clone());
        let reads_table = Term::iri(object_prop::iri(object_prop::READS_TABLE));
        let reads_column = Term::iri(object_prop::iri(object_prop::READS_COLUMN));
        let has_column = Term::iri(object_prop::iri(object_prop::HAS_COLUMN));
        for (index, read) in &pipeline.reads {
            let statement = Term::iri(res::statement(&pipeline.graph_iri, *index));
            let mut edge = |predicate: &Term, target: String| {
                out.push(Quad::in_graph(
                    statement.clone(),
                    predicate.clone(),
                    Term::iri(target),
                    graph.clone(),
                ));
            };
            let linked = match read {
                PredictedRead::Table(name) => {
                    let table = res::table(&pipeline.dataset, name);
                    let hit = tables.contains(&table);
                    if hit {
                        edge(&reads_table, table);
                        self.stats.tables_linked += 1;
                    }
                    hit
                }
                PredictedRead::Column(name) => {
                    let segment = encode_segment(name);
                    let mut hits = 0;
                    for table in tables.iter() {
                        let column = format!("{table}/{segment}");
                        let probe = Quad::new(
                            Term::iri(table.clone()),
                            has_column.clone(),
                            Term::iri(column.clone()),
                        );
                        if store.contains(&probe) {
                            edge(&reads_column, column);
                            hits += 1;
                        }
                    }
                    self.stats.columns_linked += hits;
                    hits > 0
                }
            };
            if !linked {
                self.stats.predictions_dropped += 1;
            }
        }
    }

    /// How many datasets the linked pipelines belong to.
    pub fn datasets(&self) -> usize {
        self.tables.len()
    }

    /// The outcome over every pipeline linked so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{
        abstract_pipeline, emit_pipeline_quads, AbstractionStats, PipelineMetadata,
    };
    use crate::docs::LibraryDocs;
    use crate::ontology::Vocab;
    use crate::schema::{build_data_global_schema, SchemaConfig};
    use lids_embed::{ColrModels, WordEmbeddings};
    use lids_profiler::table::{Column, Table};
    use lids_profiler::{profile_table, ProfilerConfig};

    const SCRIPT: &str = r#"
import pandas as pd
df = pd.read_csv('titanic/train.csv')
y = df['Survived']
age = df['Age']
df['NormalizedAge'] = age
"#;

    fn metadata(dataset: &str) -> PipelineMetadata {
        PipelineMetadata {
            id: "p1".into(),
            dataset: dataset.into(),
            title: "t".into(),
            author: "a".into(),
            votes: 1,
            score: 0.5,
            task: "classification".into(),
        }
    }

    /// Abstract `source` as a pipeline of `dataset` and link it against
    /// `store`.
    fn link(store: &QuadStore, dataset: &str, source: &str) -> (Vec<Quad>, LinkStats) {
        let info = emit_pipeline_quads(
            &mut Vec::new(),
            &mut AbstractionStats::default(),
            &LibraryDocs::builtin(),
            &metadata(dataset),
            &lids_py::analyze(source).unwrap(),
            &Vocab::new(),
        );
        let mut linker = Linker::new(store);
        let mut edges = Vec::new();
        linker.link(&info, &mut edges);
        assert_eq!(linker.datasets(), 1);
        (edges, linker.stats().clone())
    }

    /// The schema of dataset `titanic`: table `train` with columns
    /// `Survived` and `Age`.
    fn titanic() -> QuadStore {
        let table = Table::new(
            "train",
            vec![
                Column::new("Survived", vec!["0".into(), "1".into()]),
                Column::new("Age", vec!["22".into(), "30".into()]),
            ],
        );
        let we = WordEmbeddings::new();
        let config = ProfilerConfig::default();
        let profiles =
            profile_table("titanic", &table, &ColrModels::untrained(1), &we, &config, None);
        let mut store = QuadStore::new();
        build_data_global_schema(&mut store, &profiles, &SchemaConfig::default(), &we);
        store
    }

    #[test]
    fn verified_predictions_become_edges() {
        let (edges, stats) = link(&titanic(), "titanic", SCRIPT);
        // Survived + Age verified; NormalizedAge dropped
        assert_eq!(
            stats,
            LinkStats { tables_linked: 1, columns_linked: 2, predictions_dropped: 1 }
        );
        let with = |predicate: &str| {
            let predicate = Term::iri(object_prop::iri(predicate));
            edges.iter().filter(move |q| q.predicate == predicate)
        };
        assert_eq!(with(object_prop::READS_COLUMN).count(), 2);
        let tables: Vec<&Quad> = with(object_prop::READS_TABLE).collect();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].object.as_iri().unwrap(), res::table("titanic", "train"));
        let graph = GraphName::named(res::pipeline("titanic", "p1"));
        assert!(edges.iter().all(|q| q.graph == graph));
    }

    #[test]
    fn abstract_pipeline_links_against_its_store() {
        let mut store = titanic();
        let mut stats = AbstractionStats::default();
        let md = metadata("titanic");
        abstract_pipeline(&mut store, &mut stats, &LibraryDocs::builtin(), &md, SCRIPT).unwrap();
        let reads = |predicate: &str| {
            let predicate = Term::iri(object_prop::iri(predicate));
            store.match_pattern(&QuadPattern::any().with_predicate(predicate)).count()
        };
        assert_eq!((reads(object_prop::READS_TABLE), reads(object_prop::READS_COLUMN)), (1, 2));
        let literal = |q: &Quad| {
            q.object.as_literal().is_some_and(|l| {
                l.lexical.starts_with("table:") || l.lexical.starts_with("column:")
            })
        };
        assert!(!store.iter().any(|q| literal(&q)), "a prediction reached the store");
    }

    #[test]
    fn pipeline_without_schema_drops_all() {
        let (edges, stats) = link(&QuadStore::new(), "ghost", SCRIPT);
        assert!(edges.is_empty());
        assert_eq!(stats.tables_linked + stats.columns_linked, 0);
        assert_eq!(stats.predictions_dropped, 4);
    }
}
